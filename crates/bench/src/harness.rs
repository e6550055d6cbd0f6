//! What every experiment binary needs around its body, written once:
//! the quick flag, the results directory, the clock/manager/graph
//! stack, the fan-out DAG of E22/E23, the traced-phase lint and the CSV
//! writer.
//!
//! The contract binaries (E20–E24) print only facts that are the same on
//! every run of a commit; anything measured in wall-clock time belongs
//! to the repo benchmark (`BENCHMARK.json`), not here.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_analyze::tracelint;
use streammeta_core::{
    EpochConfig, EventKey, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId,
    NodeRegistry, PropagationMode, RotatingFileSink, Subscription, TraceRecord,
};
use streammeta_graph::{MetadataConfig, QueryGraph};
use streammeta_time::{ClockRef, TimeSpan, VirtualClock};

/// Whether `EXP_QUICK=1` asked for the CI-smoke workload sizes. Any
/// other value, including the empty string and `0`, is off.
pub fn quick() -> bool {
    std::env::var("EXP_QUICK").is_ok_and(|v| v == "1")
}

/// Where experiment outputs go: `$RESULTS_DIR`, else `results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from)
}

/// Where the contract binary `id` (`e20`, `e22`…) writes the trace of its
/// traced phase — the file CI lints again: `<results dir>/<id>_trace.jsonl`.
pub fn trace_path(id: &str) -> PathBuf {
    results_dir().join(format!("{id}_trace.jsonl"))
}

/// Writes `csv` to `<results dir>/<file_name>`; an unwritable directory
/// prints the CSV instead, so the run's data is never lost.
pub fn write_csv(file_name: &str, csv: &str) {
    let dir = results_dir();
    let path = dir.join(file_name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        Ok(()) => println!("CSV written to {}", path.display()),
        Err(e) => println!(
            "could not write {} ({e}); CSV follows:\n{csv}",
            path.display()
        ),
    }
}

/// A manager on `clock` and an empty query graph whose periodic rate
/// items use `rate_window`.
pub fn stack(clock: ClockRef, rate_window: u64) -> (Arc<MetadataManager>, Arc<QueryGraph>) {
    let manager = MetadataManager::new(clock);
    let graph = Arc::new(QueryGraph::with_config(
        manager.clone(),
        MetadataConfig {
            rate_window: TimeSpan(rate_window),
        },
    ));
    (manager, graph)
}

/// [`stack`] on a fresh virtual clock, which the caller advances.
pub fn virtual_stack(
    rate_window: u64,
) -> (Arc<VirtualClock>, Arc<MetadataManager>, Arc<QueryGraph>) {
    let clock = VirtualClock::shared();
    let (manager, graph) = stack(clock.clone(), rate_window);
    (clock, manager, graph)
}

/// A manager with one node (`NodeId(1)`) carrying `fanout` triggered
/// dependents `dep0..` of the event `tick`, each republishing the
/// returned counter, and one subscription per dependent.
pub fn fanout_dag(fanout: usize) -> (Arc<MetadataManager>, Arc<AtomicU64>, Vec<Subscription>) {
    let manager = MetadataManager::new(VirtualClock::shared());
    let state = Arc::new(AtomicU64::new(0));
    let reg = NodeRegistry::new(NodeId(1));
    for i in 0..fanout {
        let state = state.clone();
        reg.define(
            ItemDef::triggered(format!("dep{i}"))
                .on_event("tick")
                .compute(move |_| MetadataValue::U64(state.load(Ordering::Relaxed)))
                .build(),
        );
    }
    manager.attach_node(reg);
    let subs = (0..fanout)
        .map(|i| {
            manager
                .subscribe(MetadataKey::new(NodeId(1), format!("dep{i}")))
                .expect("subscribe")
        })
        .collect();
    (manager, state, subs)
}

/// Epoch mode whose only flushes are the caller's `flush_epoch` calls
/// (the executor's time-slice driver, modelled): no batch bound, no
/// delay bound, so same-origin updates coalesce in between.
pub fn caller_flushed_epochs() -> PropagationMode {
    PropagationMode::Epoch(EpochConfig {
        max_batch: usize::MAX,
        max_delay: TimeSpan(u64::MAX),
    })
}

/// Fires `updates` `tick` events at a [`fanout_dag`], publishing
/// `1..=updates` through `state`. With `flush_every` (epoch mode) the
/// epoch is flushed after every that many updates and once at the end.
pub fn fire_ticks(
    manager: &MetadataManager,
    state: &AtomicU64,
    updates: usize,
    flush_every: Option<usize>,
) {
    let event = EventKey::new(NodeId(1), "tick");
    for i in 0..updates {
        state.store(i as u64 + 1, Ordering::Relaxed);
        manager.fire_event(event.clone());
        if flush_every.is_some_and(|n| (i + 1) % n == 0) {
            manager.flush_epoch();
        }
    }
    if flush_every.is_some() {
        manager.flush_epoch();
    }
}

/// Runs `phase` with a JSONL file sink at `path`, reads back what the
/// phase wrote, and checks it against the trace-replay invariants T1–T8.
/// Panics, listing the violated rules, unless the trace is clean; prints
/// the record count and returns the records for further checks. CI
/// lints the same file again with the `tracelint` binary.
///
/// The phase installs the sink wherever it needs it (one manager, a
/// tee, or records merged from several partitions written directly).
pub fn lint_trace(path: &Path, phase: impl FnOnce(Arc<RotatingFileSink>)) -> Vec<TraceRecord> {
    let file = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| RotatingFileSink::create(path, 8 << 20))
        .unwrap_or_else(|e| panic!("cannot create the trace file {}: {e}", path.display()));
    phase(file.clone());
    file.flush().expect("flush the trace file");
    let jsonl = file.read_retained().expect("read back the written trace");
    let records = tracelint::parse_jsonl(&jsonl).expect("parse the written trace");
    let violations = tracelint::lint(&records);
    assert!(
        violations.is_empty(),
        "trace-replay invariants violated in {}:\n{}",
        path.display(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    println!(
        "trace replay: {} records linted (T1-T8 clean), JSONL at {}",
        records.len(),
        path.display()
    );
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_fixtures;
    use streammeta_core::{TraceEvent, TraceSink};

    fn fixture(id: &str) -> Vec<TraceRecord> {
        let fixture = trace_fixtures::by_id(id).expect("fixture id");
        let path = trace_fixtures::fixture_dir().join(fixture.file_name());
        tracelint::parse_jsonl(&std::fs::read_to_string(path).expect("checked-in fixture"))
            .expect("parseable fixture")
    }

    fn replay(name: &str, records: Vec<TraceRecord>) -> Vec<TraceRecord> {
        let path =
            std::env::temp_dir().join(format!("harness_{}_{name}.jsonl", std::process::id()));
        let linted = lint_trace(&path, |sink| {
            records.into_iter().for_each(|r| sink.record(r))
        });
        let _ = std::fs::remove_file(&path);
        linted
    }

    #[test]
    fn lint_trace_passes_a_clean_trace_and_returns_it() {
        let records = fixture("TR1");
        assert_eq!(replay("clean", records.clone()), records);
    }

    #[test]
    #[should_panic(expected = "T1 [")]
    fn lint_trace_names_the_rule_a_flattened_version_breaks() {
        // The T1 mutation of `tracelint_mutations.rs`, on the fixture it
        // uses (TR1 stores each key once): one stored version flattened
        // onto its predecessor's.
        let mut records = fixture("TR3");
        let mut last: Option<(String, u64)> = None;
        for rec in &mut records {
            if let TraceEvent::ValueStored { key, version } = &mut rec.event {
                match &last {
                    Some((prev, v)) if *prev == key.to_string() => {
                        *version = *v;
                        break;
                    }
                    _ => last = Some((key.to_string(), *version)),
                }
            }
        }
        replay("flattened", records);
    }

    /// The only test of this crate that touches the environment.
    #[test]
    fn quick_is_on_for_one_only() {
        for (value, on) in [
            (None, false),
            (Some(""), false),
            (Some("0"), false),
            (Some("1"), true),
        ] {
            match value {
                Some(v) => std::env::set_var("EXP_QUICK", v),
                None => std::env::remove_var("EXP_QUICK"),
            }
            assert_eq!(quick(), on, "EXP_QUICK={value:?}");
        }
        std::env::remove_var("EXP_QUICK");
    }
}
