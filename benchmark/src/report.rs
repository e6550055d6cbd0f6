//! Metric names and units, the value table of one run, and the checks
//! that feed `failed`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric as `BENCHMARK.json` lists it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn end_to_end(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    end_to_end("setup_s", "s", 0.25),
    end_to_end("ops_per_s", "1/s", 0.1),
    end_to_end("update_visible_us_p50", "us", 0.15),
    end_to_end("peak_rss_mb", "MB", 0.1),
];

/// Single layers; measured in the traced run. A workload that never
/// enters a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    layer("cql.install_us_p50", "us"),
    layer("graph.remove_query_us_p50", "us"),
    layer("engine.slice_us_p50", "us"),
    layer("engine.busy_frac", "frac"),
    layer("engine.elements_per_s_nosubs", "1/s"),
    layer("core.metadata_overhead_frac", "frac"),
    layer("costmodel.cascade_computes", "count"),
    layer("core.include_us_p50", "us"),
    layer("core.include_us_p95", "us"),
    layer("core.exclude_us_p50", "us"),
    layer("core.exclude_us_p95", "us"),
    layer("core.include_items_per_subscribe", "count"),
    layer("core.sweep.fire_us_p50", "us"),
    layer("core.sweep.fire_us_p95", "us"),
    layer("core.sweep.computes_per_fire", "count"),
    layer("core.sweep.framework_ns_per_compute", "ns"),
    layer("core.handler.user_compute_frac", "frac"),
    layer("core.observer.deliveries_per_fire", "count"),
    layer("core.observer.callback_frac", "frac"),
    layer("core.epoch.enqueue_ns_p50", "ns"),
    layer("core.epoch.flush_us_p50", "us"),
    layer("core.epoch.flush_us_p95", "us"),
    layer("core.epoch.coalesced_frac", "frac"),
    layer("core.epoch.computes_per_update", "count"),
    layer("core.epoch.queue_wait_us_p50", "us"),
    layer("core.trace.sink_overhead_frac", "frac"),
    layer("core.trace.span_ratio1_overhead_frac", "frac"),
    layer("core.subscription.read_ns_per_op", "ns"),
    layer("core.shards.read_ns_per_op", "ns"),
    layer("core.partition.pump_us_p50", "us"),
    layer("core.partition.msgs_per_pump", "count"),
    layer("core.partition.fire_us_p50", "us"),
    layer("core.partition.remote_updates_per_op", "count"),
    layer("core.catalog.snapshot_us_per_krow", "us"),
    layer("cql.query_once_us_p50", "us"),
    layer("cql.continuous_refresh_us_p50", "us"),
    layer("profiler.render_us_p50", "us"),
    layer("bench.update_visible_us_p95", "us"),
    layer("bench.trace_overhead_frac", "frac"),
    layer("bench.self_time_frac.cql", "frac"),
    layer("bench.self_time_frac.graph", "frac"),
    layer("bench.self_time_frac.engine", "frac"),
    layer("bench.self_time_frac.costmodel", "frac"),
    layer("bench.self_time_frac.core.include", "frac"),
    layer("bench.self_time_frac.core.sweep", "frac"),
    layer("bench.self_time_frac.core.epoch", "frac"),
    layer("bench.self_time_frac.core.partition", "frac"),
    layer("bench.self_time_frac.core.catalog", "frac"),
    layer("bench.self_time_frac.core.read", "frac"),
    layer("bench.self_time_frac.driver", "frac"),
];

/// The values of one run, keyed by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Every metric of `defs` at 0: the traced run starts from this and
    /// each workload fills in the layers it enters.
    pub fn zeroed(defs: &[MetricDef]) -> Metrics {
        Metrics(defs.iter().map(|d| (d.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Checks the table against `defs`: every defined metric present and
    /// finite, nothing undefined.
    pub fn validate(&self, defs: &[MetricDef]) -> Result<(), String> {
        for MetricDef { name, .. } in defs {
            match self.0.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        match self.0.keys().find(|k| defs.iter().all(|d| d.name != **k)) {
            Some(k) => Err(format!("metric {k} is not in the metric table")),
            None => Ok(()),
        }
    }

    /// `workload metric value unit`, one line per metric, in table order.
    pub fn lines(&self, workload: &str, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for MetricDef { name, unit, .. } in defs {
            let _ = writeln!(out, "{workload} {name} {} {unit}", self.0[name]);
        }
        out
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|MetricDef { name, unit, .. }| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.0[name]
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Counts correctness checks and keeps the first few failures.
#[derive(Default)]
pub struct Checker {
    pub failed: u64,
    messages: Vec<String>,
}

impl Checker {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(message());
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_wants_exactly_the_table() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        assert!(m.validate(END_TO_END).unwrap_err().contains("ops_per_s"));
        let mut m = Metrics::zeroed(END_TO_END);
        assert!(m.validate(END_TO_END).is_ok());
        m.set("ops_per_s", f64::NAN);
        assert!(m.validate(END_TO_END).unwrap_err().contains("NaN"));
        m.set("ops_per_s", 2.0);
        m.set("bogus", 1.0);
        assert!(m.validate(END_TO_END).unwrap_err().contains("bogus"));
    }

    #[test]
    fn output_follows_table_order() {
        let mut m = Metrics::zeroed(END_TO_END);
        m.set("setup_s", 0.25);
        let lines = m.lines("w", END_TO_END);
        assert!(lines.starts_with("w setup_s 0.25 s\nw ops_per_s 0 1/s\n"));
        assert!(m
            .json(END_TO_END)
            .starts_with("{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"ops_per_s\""));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for MetricDef { name, unit, bound } in END_TO_END.iter().chain(PER_LAYER) {
            let mut entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            if let Some(bound) = bound {
                entry += &format!(", \"better\": \"{}\", \"bound\": {bound}", better(name));
            }
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    fn better(name: &str) -> &'static str {
        if name == "ops_per_s" {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn checker_counts_and_keeps_first_messages() {
        let mut c = Checker::default();
        c.check(true, || unreachable!());
        for i in 0..20 {
            c.check(false, || format!("bad {i}"));
        }
        assert_eq!(c.failed, 20);
        assert_eq!(c.messages().len(), 10);
    }
}
