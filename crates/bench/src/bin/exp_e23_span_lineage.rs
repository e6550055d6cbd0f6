//! E23: causal lineage spans — nothing when off, full provenance when on.
//!
//! The span layer threads a root trace id through every metadata-path
//! hop (source update → propagation steps → observer notification).
//! Two contracts, both counted, neither timed:
//!
//! 1. **Off means off.** With `SpanSampling::Off` (the default) the E22
//!    per-event protocol — one hot event, `F` triggered dependents
//!    (fan-out F in {16, 64, 256}), `N` rapid-fire updates — mints no
//!    span: `sys.spans` stays empty and no trace record carries a
//!    `span`, so the hot path pays the one relaxed load of the sampling
//!    gate and nothing else. The same check is run under `Ratio(1)`
//!    and must *fail* there (every update mints a root and a hop per
//!    dependent), which shows it can. What sampling costs in time is
//!    `core.trace.span_ratio1_overhead_frac` on the benchmark's
//!    `fanout_per_event` workload (`BENCHMARK.json`).
//! 2. **100% lineage coverage.** A traced phase (fan-out 8, observers
//!    attached, every update sampled, both propagation modes) replays
//!    through `tracelint` rules T1–T8, and every notification in it
//!    carries a span whose roots resolve to source-update anchors.
//!
//! The trace goes to `$RESULTS_DIR/e23_trace.jsonl`. `EXP_QUICK=1`
//! shrinks N for CI smoke runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_bench::harness::{self, caller_flushed_epochs, fanout_dag, fire_ticks};
use streammeta_bench::table::Table;
use streammeta_core::{
    MetadataKey, NodeId, SpanSampling, Subscription, TraceEvent, TraceRecord, TraceSink,
};

const FANOUTS: &[usize] = &[16, 64, 256];
/// Flush cadence of the traced epoch phase (matches E22).
const BATCH: usize = 64;

/// Counts trace records and those among them that carry a span, without
/// keeping any: the per-event run emits `2·N·F` of them.
#[derive(Default)]
struct SpanCount {
    records: AtomicU64,
    with_span: AtomicU64,
}

impl TraceSink for SpanCount {
    fn record(&self, record: TraceRecord) {
        self.records.fetch_add(1, Ordering::Relaxed);
        if record.span.is_some() {
            self.with_span.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What `updates` per-event updates at `fanout` left behind.
struct SpanFacts {
    records: u64,
    /// Trace records carrying a span.
    with_span: u64,
    /// Spans that reached `sys.spans`, evicted ones included.
    stored: u64,
}

fn span_facts(fanout: usize, updates: usize, sampling: SpanSampling) -> SpanFacts {
    let (manager, state, _subs) = fanout_dag(fanout);
    let spans = manager.enable_catalog_spans(8192);
    let count = Arc::new(SpanCount::default());
    manager.set_trace_sink(Some(count.clone()));
    manager.set_span_sampling(sampling);
    fire_ticks(&manager, &state, updates, None);
    SpanFacts {
        records: count.records.load(Ordering::Relaxed),
        with_span: count.with_span.load(Ordering::Relaxed),
        stored: spans.len() as u64 + spans.dropped(),
    }
}

/// The span-off contract: the run was traced, and no span exists.
fn no_span_minted(f: &SpanFacts) -> Result<(), String> {
    if f.records == 0 {
        return Err("the run emitted no trace record to inspect".into());
    }
    if f.with_span != 0 || f.stored != 0 {
        return Err(format!(
            "{} of {} records carry a span, sys.spans saw {}",
            f.with_span, f.records, f.stored
        ));
    }
    Ok(())
}

/// Fan-out 8 with observers attached, every update sampled, per-event
/// rounds then coalescing epochs. The trace replays through T1–T8 and
/// every notification must carry roots (T8 resolves them to
/// source-update anchors): 100% lineage coverage.
fn lineage_phase() {
    let records = harness::lint_trace(&harness::trace_path("e23"), |sink| {
        let (manager, state, subs) = fanout_dag(8);
        // Observers make every store emit a span-bearing notification.
        let observed: Vec<Subscription> = (0..8)
            .map(|i| {
                manager
                    .subscribe_with(MetadataKey::new(NodeId(1), format!("dep{i}")), |_| {})
                    .expect("subscribe with observer")
            })
            .collect();
        manager.set_span_sampling(SpanSampling::Ratio(1));
        manager.set_trace_sink(Some(sink));
        fire_ticks(&manager, &state, 4, None);
        manager.set_propagation_mode(caller_flushed_epochs());
        fire_ticks(&manager, &state, 2 * BATCH, Some(BATCH));
        drop(observed);
        drop(subs);
    });
    let notified = |r: &&TraceRecord| matches!(r.event, TraceEvent::Notified { .. });
    let notifications = records.iter().filter(notified).count();
    let covered = records
        .iter()
        .filter(notified)
        .filter(|r| r.span.as_ref().is_some_and(|s| !s.roots.is_empty()))
        .count();
    assert!(
        notifications > 0,
        "the traced phase produced no notifications"
    );
    assert_eq!(
        covered, notifications,
        "lineage coverage below 100%: {covered}/{notifications} notifications carry roots"
    );
    println!("lineage: {covered}/{notifications} notifications carry roots");
}

fn main() {
    let quick = harness::quick();
    let updates: usize = if quick { 4096 } else { 16384 };
    println!("E23 — causal lineage spans: off means off, on means full provenance");
    println!(
        "{updates} per-event updates per sampling mode{}\n",
        if quick { " (quick mode)" } else { "" }
    );

    let mut table = Table::new(&[
        "fanout",
        "sampling",
        "trace records",
        "with span",
        "sys.spans",
        "no span minted",
    ]);
    for &fanout in FANOUTS {
        let off = span_facts(fanout, updates, SpanSampling::Off);
        let on = span_facts(fanout, updates, SpanSampling::Ratio(1));
        if let Err(why) = no_span_minted(&off) {
            panic!("span-off contract broken at fan-out {fanout}: {why}");
        }
        // The negative case: the same check must be able to fail.
        assert!(
            no_span_minted(&on).is_err(),
            "the span-off check passed under Ratio(1) at fan-out {fanout}: it checks nothing"
        );
        // Ratio(1): one root span per update plus one hop per changed
        // dependent reached the store.
        assert!(
            on.stored > updates as u64,
            "sampled run recorded {} spans for {updates} updates",
            on.stored
        );
        for (label, f, holds) in [("off", &off, "yes"), ("ratio(1)", &on, "no (as it must)")] {
            table.row(vec![
                fanout.to_string(),
                label.to_string(),
                f.records.to_string(),
                f.with_span.to_string(),
                f.stored.to_string(),
                holds.to_string(),
            ]);
        }
    }
    table.print();
    println!();

    lineage_phase();
    println!(
        "\nE23 invariants held: sampling off mints no span and the same check fails under \
         Ratio(1); sampled lineage 100% covered and T1-T8 clean."
    );
}
