//! Sliding-window aggregation.
//!
//! Maintains the multiset of currently valid (windowed) elements and emits
//! the aggregate value on every arrival.

use std::collections::VecDeque;
use std::sync::Arc;

use streammeta_streams::{Element, Schema, Value, ValueType};
use streammeta_time::Timestamp;

use crate::monitors::NodeMonitors;
use crate::node::NodeBehavior;

/// Aggregation functions over one column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggKind {
    /// Number of valid elements.
    Count,
    /// Sum of the column.
    Sum,
    /// Arithmetic mean of the column.
    Avg,
    /// Minimum of the column.
    Min,
    /// Maximum of the column.
    Max,
}

impl AggKind {
    fn label(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }
}

/// The windowed aggregate behavior.
pub struct WindowAggregate {
    kind: AggKind,
    col: usize,
    state: VecDeque<Element>,
    /// Sum of `size_bytes()` over `state`.
    state_bytes: usize,
    monitors: Arc<NodeMonitors>,
    schema: Schema,
}

impl WindowAggregate {
    /// Aggregates `col` of the (windowed) input with `kind`.
    pub fn new(kind: AggKind, col: usize, monitors: Arc<NodeMonitors>) -> Self {
        WindowAggregate {
            kind,
            col,
            state: VecDeque::new(),
            state_bytes: 0,
            monitors,
            schema: Schema::of(&[(kind.label(), ValueType::Float)]),
        }
    }

    fn purge(&mut self, now: Timestamp) {
        while let Some(front) = self.state.front() {
            if front.is_valid_at(now) {
                break;
            }
            self.state_bytes -= front.size_bytes();
            self.state.pop_front();
        }
    }

    fn value(&self) -> f64 {
        let vals = || {
            self.state
                .iter()
                .filter_map(|e| e.payload.get(self.col).and_then(|v| v.as_float()))
        };
        match self.kind {
            AggKind::Count => self.state.len() as f64,
            AggKind::Sum => vals().sum(),
            AggKind::Avg => {
                let n = self.state.len();
                if n == 0 {
                    0.0
                } else {
                    vals().sum::<f64>() / n as f64
                }
            }
            AggKind::Min => vals().fold(f64::INFINITY, f64::min),
            AggKind::Max => vals().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl NodeBehavior for WindowAggregate {
    fn process(
        &mut self,
        _port: usize,
        element: &Element,
        _now: Timestamp,
        out: &mut Vec<Element>,
    ) {
        // The expiry-ordered purge assumes equal validities (one upstream
        // window), which makes the front-of-queue check sufficient.
        self.purge(element.timestamp);
        self.state_bytes += element.size_bytes();
        self.state.push_back(element.clone());
        self.monitors.state_len.set(self.state.len() as f64);
        self.monitors.state_bytes.set(self.state_bytes as f64);
        out.push(Element {
            payload: [Value::Float(self.value())].into_iter().collect(),
            timestamp: element.timestamp,
            expiry: element.expiry,
        });
    }

    fn output_schema(&self) -> Schema {
        self.schema.clone()
    }

    fn implementation(&self) -> &'static str {
        "window-aggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_streams::tuple;
    use streammeta_time::TimeSpan;

    fn windowed(v: f64, ts: u64, window: u64) -> Element {
        Element::new(tuple([Value::Float(v)]), Timestamp(ts)).with_window(TimeSpan(window))
    }

    fn feed(kind: AggKind, inputs: &[(f64, u64)], window: u64) -> Vec<f64> {
        let mut agg = WindowAggregate::new(kind, 0, NodeMonitors::new(1));
        let mut got = Vec::new();
        for &(v, ts) in inputs {
            let mut out = Vec::new();
            agg.process(0, &windowed(v, ts, window), Timestamp(ts), &mut out);
            got.push(out[0].payload[0].as_float().unwrap());
        }
        got
    }

    #[test]
    fn count_over_sliding_window() {
        // Window 10; arrivals at 0,5,12: at t=12 the first (expiry 10) left.
        let got = feed(AggKind::Count, &[(1.0, 0), (1.0, 5), (1.0, 12)], 10);
        assert_eq!(got, vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn sum_avg_min_max() {
        let inputs = [(1.0, 0), (3.0, 1), (2.0, 2)];
        assert_eq!(feed(AggKind::Sum, &inputs, 100), vec![1.0, 4.0, 6.0]);
        assert_eq!(feed(AggKind::Avg, &inputs, 100), vec![1.0, 2.0, 2.0]);
        assert_eq!(feed(AggKind::Min, &inputs, 100), vec![1.0, 1.0, 1.0]);
        assert_eq!(feed(AggKind::Max, &inputs, 100), vec![1.0, 3.0, 3.0]);
    }

    #[test]
    fn schema_names_the_aggregate() {
        let agg = WindowAggregate::new(AggKind::Avg, 0, NodeMonitors::new(1));
        assert_eq!(agg.output_schema().to_string(), "avg:float");
    }
}
