//! E20: failure containment under fault injection.
//!
//! Phase 1 (virtual clock, fully deterministic): ten periodic items with
//! a conservative fallback policy run for 60 windows while a
//! [`FaultPlan`] breaks ~10% of their evaluations — one item starts
//! panicking after its fourth evaluation (exercising retry, backoff and
//! quarantine), one has a compute deadline and gets delayed past it
//! every fourth evaluation (the injected delay advances the very clock
//! deadlines are measured against), one reports errors periodically.
//! The invariant checked on every read of every window: consumers always
//! receive an available value or a degraded (stale-marked) last-good
//! value — and the trace must show zero unquarantined repeat-failures
//! (after a breaker trips, no further compute failure of that key before
//! its cool-down ends).
//!
//! Phase 2 (wall clock, threaded executor): the E18 query runs for
//! ~200ms while panics are injected into a contained metadata item on
//! the filter node — the run must complete, process elements, and keep
//! the item's subscription serving fresh-or-degraded values.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::scenarios::wall_filter_query;
use streammeta_core::{
    FallbackPolicy, FaultAction, FaultPlan, FaultSchedule, ItemDef, MetadataKey, MetadataManager,
    MetadataValue, NodeId, NodeRegistry, RingBufferSink, TraceEvent,
};
use streammeta_engine::run_threaded;
use streammeta_profiler::Recorder;
use streammeta_time::{Clock, TimeSpan, VirtualClock, WorkerPool};

const POLICY: FallbackPolicy = FallbackPolicy {
    max_retries: 2,
    backoff: TimeSpan(3),
    quarantine_after: 3,
    cool_down: TimeSpan(100),
};

fn phase1_deterministic(out: &mut dyn Write, trace: &Arc<RingBufferSink>) -> io::Result<()> {
    writeln!(
        out,
        "— phase 1: 10 periodic items, 60 windows, deterministic faults —\n"
    )?;
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(1));
    for i in 0..10 {
        let evals = Arc::new(AtomicU64::new(0));
        let mut def = ItemDef::periodic(format!("m{i}"), TimeSpan(10)).fallback(POLICY);
        if i == 1 {
            def = def.deadline(TimeSpan(5));
        }
        reg.define(
            def.compute(move |_| MetadataValue::U64(evals.fetch_add(1, Ordering::SeqCst) + 1))
                .build(),
        );
    }
    manager.attach_node(reg);

    let key = |i: usize| MetadataKey::new(NodeId(1), format!("m{i}"));
    let c = clock.clone();
    let plan = Arc::new(
        FaultPlan::new()
            // m0: healthy until its 4th evaluation, then panics forever —
            // drives retry -> backoff -> quarantine -> failed probes.
            .inject(
                key(0),
                FaultSchedule::Between {
                    from: 5,
                    to: u64::MAX,
                },
                FaultAction::Panic,
            )
            // m1: every 4th evaluation is delayed past its 5-unit deadline.
            .inject(
                key(1),
                FaultSchedule::EveryNth(4),
                FaultAction::Delay(TimeSpan(8)),
            )
            // m2: every 5th evaluation reports Unavailable (dead source).
            .inject(key(2), FaultSchedule::EveryNth(5), FaultAction::Error)
            .with_delayer(move |d| {
                c.advance(d);
            }),
    );
    manager.set_fault_plan(Some(plan.clone()));

    // The deterministic phase is traced into `trace`; the records so far
    // feed the repeat-failure scan below. The sink stays installed, so the
    // teardown at the end of this function is recorded and linted too.
    manager.set_trace_sink(Some(trace.clone()));
    manager.install_meta_node(TimeSpan(50));
    let mut recorder = Recorder::new(manager.clone());
    recorder.track_containment().expect("meta node installed");
    let subs: Vec<_> = (0..10)
        .map(|i| manager.subscribe(key(i)).expect("subscribe"))
        .collect();
    let mut degraded_reads = 0u64;
    for _window in 0..60 {
        clock.advance(TimeSpan(10));
        manager.periodic().advance_to(clock.now());
        for sub in &subs {
            let v = sub.versioned();
            // The containment invariant: fresh, or stale-marked last-good.
            assert!(
                v.value.is_available() || v.degraded,
                "{}: neither available nor degraded: {v:?}",
                sub.key()
            );
            if v.degraded {
                degraded_reads += 1;
            }
        }
        recorder.sample();
    }
    let records = trace.snapshot();

    let stats = manager.stats();
    writeln!(out, "windows driven           60")?;
    writeln!(out, "faults injected          {}", plan.injected_count())?;
    writeln!(out, "compute evaluations      {}", stats.computes)?;
    writeln!(out, "contained panics         {}", stats.compute_failures)?;
    writeln!(out, "deadline overruns        {}", stats.deadline_overruns)?;
    writeln!(out, "retries scheduled        {}", stats.retries)?;
    writeln!(out, "quarantine trips         {}", stats.quarantine_trips)?;
    writeln!(
        out,
        "currently quarantined    {}",
        manager.quarantined_count()
    )?;
    writeln!(out, "stale (degraded) serves  {}", stats.stale_serves)?;
    writeln!(out, "degraded reads observed  {degraded_reads}")?;

    assert!(plan.injected_count() > 0, "no faults injected");
    assert!(stats.deadline_overruns > 0, "no deadline overruns");
    assert!(stats.retries > 0, "no retries scheduled");
    assert!(stats.quarantine_trips >= 1, "breaker never tripped");
    assert!(stats.stale_serves > 0, "no stale serves");

    // Zero unquarantined repeat-failures: once a breaker trips, no
    // further compute failure of that key may appear in the trace before
    // the cool-down ends (the probe at the cool-down boundary is the
    // first evaluation allowed to fail again).
    let mut repeat_failures = 0u64;
    for (i, r) in records.iter().enumerate() {
        if let TraceEvent::QuarantineTripped { key, until } = &r.event {
            for later in &records[i + 1..] {
                if later.at >= *until {
                    break;
                }
                if let TraceEvent::ComputeFailed { key: k } = &later.event {
                    if k == key {
                        repeat_failures += 1;
                    }
                }
            }
        }
    }
    writeln!(out, "unquarantined repeat-failures: {repeat_failures}")?;
    assert_eq!(repeat_failures, 0, "a quarantined item kept failing");

    writeln!(out, "\nPrometheus exposition of the final values:\n")?;
    write!(out, "{}", recorder.render_prometheus())
}

fn phase2_threaded(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "\n— phase 2: threaded executor under injected panics (200ms wall run) —\n"
    )?;
    let (clock, manager, graph, f) = wall_filter_query();

    // A contained periodic item on the filter node whose compute panics
    // every third evaluation.
    let slot = graph.get(f).expect("filter slot");
    slot.registry().define(
        ItemDef::periodic("guarded_probe", TimeSpan(10_000))
            .fallback(FallbackPolicy {
                max_retries: 2,
                backoff: TimeSpan(2_000),
                quarantine_after: 4,
                cool_down: TimeSpan(50_000),
            })
            .compute(|_| MetadataValue::U64(7))
            .build(),
    );
    let guarded = MetadataKey::new(f, "guarded_probe");
    let plan = Arc::new(FaultPlan::new().inject(
        guarded.clone(),
        FaultSchedule::EveryNth(3),
        FaultAction::Panic,
    ));
    manager.set_fault_plan(Some(plan.clone()));

    let probe_sub = manager.subscribe(guarded).expect("guarded_probe");
    let _rate = manager
        .subscribe(MetadataKey::new(f, "input_rate"))
        .expect("input_rate");

    let pool = WorkerPool::start(manager.periodic().clone(), clock.clone(), 1);
    let stats = run_threaded(&graph, &clock, Duration::from_millis(200), 4);
    pool.shutdown();

    let v = probe_sub.versioned();
    writeln!(
        out,
        "processed {} elements from {} source elements",
        stats.processed, stats.source_elements
    )?;
    writeln!(
        out,
        "faults injected {}, contained panics {}, guarded probe: {:?} (degraded: {})",
        plan.injected_count(),
        manager.stats().compute_failures,
        v.value,
        v.degraded
    )?;
    assert!(stats.processed > 0, "threaded run processed nothing");
    assert!(
        v.value.is_available() || v.degraded,
        "guarded probe neither available nor degraded"
    );
    Ok(())
}

/// Runs E20, tracing its deterministic phase into `trace`.
pub fn e20(out: &mut dyn Write, trace: &Arc<RingBufferSink>) -> io::Result<()> {
    // Injected-fault panics are caught by the containment layer; keep
    // their backtraces out of the experiment output. Anything else
    // (a real bug, a failed assertion) still prints normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    writeln!(
        out,
        "E20 — failure containment for metadata computes under fault injection\n"
    )?;
    phase1_deterministic(out, trace)?;
    phase2_threaded(out)?;
    writeln!(
        out,
        "\nE20 invariants held: no hang past deadline, no panic escape, fresh-or-degraded serving."
    )
}
