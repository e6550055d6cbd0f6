//! Sliding-window aggregation.
//!
//! Emits the aggregate of the currently valid (windowed) elements on every
//! arrival, at a cost that does not grow with the window. The state is an
//! expiry-ordered deque with one entry per valid element, so an arrival
//! whose window was shrunk at runtime expires in order with the rest and
//! no expired element is left behind a live one. The value is maintained
//! under the insert and expire deltas instead of being recomputed:
//!
//! * COUNT is the deque's length;
//! * SUM and AVG keep an exact running sum of the column ([`ExactSum`]),
//!   so the result is the correctly rounded window sum — bit for bit the
//!   left-to-right fold's wherever that fold is exact, e.g. integer
//!   columns whose window has Σ|v| ≤ 2^53. AVG divides by the number of
//!   numeric values (non-numeric ones, `NULL` among them, are ignored as
//!   in SQL); a window without one averages to 0;
//! * MIN and MAX keep the column's values as a multiset in total order,
//!   skipping NaN as `f64::min`/`f64::max` do; an empty one gives +∞/−∞.

use std::collections::BTreeMap;
use std::sync::Arc;

use streammeta_streams::{Element, Schema, Value, ValueType};
use streammeta_time::Timestamp;

use crate::monitors::NodeMonitors;
use crate::node::NodeBehavior;
use crate::ops::exact_sum::ExactSum;
use crate::ops::expiry::ExpiryDeque;
use crate::ops::state::{float_from_ord, float_ord};

/// Aggregation functions over one column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggKind {
    /// Number of valid elements.
    Count,
    /// Sum of the column.
    Sum,
    /// Arithmetic mean of the column's numeric values.
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

/// What the window keeps of one valid element.
struct Entry {
    bytes: usize,
    /// The aggregated column as a float, if numeric.
    value: Option<f64>,
}

/// The aggregate's running value.
enum Accumulator {
    /// COUNT reads the window's length.
    Count,
    /// SUM and AVG.
    Sum(ExactSum),
    /// MIN and MAX: the non-NaN values by [`float_ord`], with their
    /// multiplicities.
    Extremes(BTreeMap<u64, usize>),
}

impl Accumulator {
    fn update(&mut self, v: f64, insert: bool) {
        match self {
            Accumulator::Count => {}
            Accumulator::Sum(sum) if insert => sum.insert(v),
            Accumulator::Sum(sum) => sum.remove(v),
            Accumulator::Extremes(_) if v.is_nan() => {}
            Accumulator::Extremes(values) if insert => {
                *values.entry(float_ord(v)).or_default() += 1
            }
            Accumulator::Extremes(values) => {
                let key = float_ord(v);
                match values.get_mut(&key) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        values.remove(&key);
                    }
                }
            }
        }
    }
}

/// The windowed aggregate behavior.
pub struct WindowAggregate {
    kind: AggKind,
    col: usize,
    state: ExpiryDeque<Entry>,
    /// Sum of `size_bytes()` over the valid elements.
    state_bytes: usize,
    acc: Accumulator,
    monitors: Arc<NodeMonitors>,
    schema: Schema,
}

impl WindowAggregate {
    /// Aggregates `col` of the (windowed) input with `kind`.
    pub fn new(kind: AggKind, col: usize, monitors: Arc<NodeMonitors>) -> Self {
        WindowAggregate {
            kind,
            col,
            state: ExpiryDeque::default(),
            state_bytes: 0,
            acc: match kind {
                AggKind::Count => Accumulator::Count,
                AggKind::Sum | AggKind::Avg => Accumulator::Sum(ExactSum::default()),
                AggKind::Min | AggKind::Max => Accumulator::Extremes(BTreeMap::new()),
            },
            monitors,
            schema: Schema::of(&[(kind.label(), ValueType::Float)]),
        }
    }

    fn purge(&mut self, now: Timestamp) {
        while let Some(gone) = self.state.pop_due(now) {
            self.state_bytes -= gone.bytes;
            if let Some(v) = gone.value {
                self.acc.update(v, false);
            }
        }
    }

    fn value(&self) -> f64 {
        match (self.kind, &self.acc) {
            (AggKind::Count, _) => self.state.len() as f64,
            (AggKind::Sum, Accumulator::Sum(sum)) => sum.sum(),
            (AggKind::Avg, Accumulator::Sum(sum)) => match sum.count() {
                0 => 0.0,
                n => sum.sum() / n as f64,
            },
            (AggKind::Min, Accumulator::Extremes(values)) => values
                .first_key_value()
                .map_or(f64::INFINITY, |(&k, _)| float_from_ord(k)),
            (AggKind::Max, Accumulator::Extremes(values)) => values
                .last_key_value()
                .map_or(f64::NEG_INFINITY, |(&k, _)| float_from_ord(k)),
            _ => unreachable!("`new` picks the accumulator by the kind"),
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
        self.purge(element.timestamp);
        let value = element.payload.get(self.col).and_then(Value::as_float);
        if let Some(v) = value {
            self.acc.update(v, true);
        }
        let bytes = element.size_bytes();
        self.state_bytes += bytes;
        self.state.push(element.expiry, Entry { bytes, value });
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
    fn avg_ignores_non_numeric_values() {
        let mut agg = WindowAggregate::new(AggKind::Avg, 0, NodeMonitors::new(1));
        let mut avg = |v: Value, ts: u64| {
            let e = Element::new(tuple([v]), Timestamp(ts)).with_window(TimeSpan(100));
            let mut out = Vec::new();
            agg.process(0, &e, Timestamp(ts), &mut out);
            out[0].payload[0].as_float().unwrap()
        };
        assert_eq!(avg(Value::Null, 0), 0.0, "no numeric value yet");
        assert_eq!(avg(Value::Int(2), 1), 2.0, "NULL is not a zero");
        assert_eq!(avg(Value::str("x"), 2), 2.0);
        assert_eq!(avg(Value::Int(5), 3), 3.5);
    }

    #[test]
    fn schema_names_the_aggregate() {
        let agg = WindowAggregate::new(AggKind::Avg, 0, NodeMonitors::new(1));
        assert_eq!(agg.output_schema().to_string(), "avg:float");
    }
}
