//! Behaviour of the trace bus through the public API: inclusion order,
//! exclusion countdown, propagation rounds, periodic firings and failure
//! events, plus the JSONL export.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    ItemDef, MetadataKey, MetadataManager, MetadataValue, Metric, NodeId, NodeRegistry,
    RingBufferSink, TraceEvent,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

/// A three-item dependency chain `a -> b -> c` on node 0: `c` reads a
/// shared cell on demand, `b` and `a` are triggered.
fn chain_setup() -> (Arc<VirtualClock>, Arc<MetadataManager>, Arc<AtomicU64>) {
    let clock = VirtualClock::shared();
    let mgr = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    let cell = Arc::new(AtomicU64::new(1));
    let c_cell = cell.clone();
    reg.define(
        ItemDef::on_demand("c")
            .compute(move |_| MetadataValue::U64(c_cell.load(Ordering::Relaxed)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("b")
            .dep_local("c")
            .compute(|ctx| match ctx.dep_f64("c") {
                Some(v) => MetadataValue::F64(v * 10.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    reg.define(
        ItemDef::triggered("a")
            .dep_local("b")
            .compute(|ctx| match ctx.dep_f64("b") {
                Some(v) => MetadataValue::F64(v + 1.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(reg);
    (clock, mgr, cell)
}

fn key(path: &str) -> MetadataKey {
    MetadataKey::new(NodeId(0), path)
}

#[test]
fn includes_appear_in_dfs_dependency_order_and_excludes_count_to_zero() {
    let (_clock, mgr, _cell) = chain_setup();
    let sink = RingBufferSink::new(64);
    mgr.set_trace_sink(Some(sink.clone()));

    let sub = mgr.subscribe(key("a")).unwrap();
    let includes: Vec<(MetadataKey, usize)> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Include { key, depth, .. } => Some((key.clone(), *depth)),
            _ => None,
        })
        .collect();
    // Dependencies are materialised before their dependents, with the
    // depth below the subscription root attached.
    assert_eq!(includes, vec![(key("c"), 2), (key("b"), 1), (key("a"), 0)]);

    sink.clear();
    drop(sub);
    let excludes: Vec<(MetadataKey, usize)> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Exclude { key, remaining } => Some((key.clone(), *remaining)),
            _ => None,
        })
        .collect();
    assert_eq!(excludes.len(), 3);
    // The countdown ends at zero live handlers.
    assert_eq!(
        excludes.iter().map(|(_, r)| *r).collect::<Vec<_>>(),
        vec![2, 1, 0]
    );
    assert_eq!(mgr.handler_count(), 0);
}

#[test]
fn propagation_steps_carry_round_and_depth() {
    let (_clock, mgr, cell) = chain_setup();
    let sub = mgr.subscribe(key("a")).unwrap();
    assert_eq!(sub.get_f64(), Some(11.0));

    let sink = RingBufferSink::new(64);
    mgr.set_trace_sink(Some(sink.clone()));
    cell.store(2, Ordering::Relaxed);
    mgr.notify_changed(key("c"));
    assert_eq!(sub.get_f64(), Some(21.0));

    let steps: Vec<(u64, MetadataKey, usize, bool)> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PropagationStep {
                round,
                key,
                depth,
                changed,
            } => Some((*round, key.clone(), *depth, *changed)),
            _ => None,
        })
        .collect();
    assert_eq!(steps.len(), 2);
    let round = steps[0].0;
    assert!(round >= 1);
    assert_eq!(steps[0], (round, key("b"), 1, true));
    assert_eq!(steps[1], (round, key("a"), 2, true));
    assert_eq!(mgr.metric(Metric::PropagationDepth), Some(2));
}

#[test]
fn periodic_firings_and_failures_are_traced_and_exported() {
    let clock = VirtualClock::shared();
    let mgr = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    reg.define(
        ItemDef::periodic("tick", TimeSpan(5))
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    reg.define(
        ItemDef::on_demand("boom")
            .compute(|_| panic!("intentional"))
            .build(),
    );
    mgr.attach_node(reg);
    let sink = RingBufferSink::new(64);
    mgr.set_trace_sink(Some(sink.clone()));

    let tick = mgr.subscribe(key("tick")).unwrap();
    clock.advance(TimeSpan(5));
    mgr.periodic().advance_to(clock.now());
    // One on-time firing at t=5.
    let fired: Vec<bool> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PeriodicFired { missed, .. } => Some(*missed),
            _ => None,
        })
        .collect();
    assert_eq!(fired, vec![false]);
    // Jumping two windows at once makes the t=10 catch-up firing late.
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    let missed: Vec<bool> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PeriodicFired { missed, .. } => Some(*missed),
            _ => None,
        })
        .collect();
    assert_eq!(missed, vec![false, true, false]);
    assert_eq!(mgr.stats().deadline_misses, 1);

    let boom = mgr.subscribe(key("boom")).unwrap();
    assert_eq!(boom.get(), MetadataValue::Unavailable);
    assert!(sink.snapshot().iter().any(
        |r| matches!(&r.event, TraceEvent::ComputeFailed { key } if key.item.as_str() == "boom")
    ));

    let jsonl = sink.to_jsonl();
    assert!(jsonl.lines().count() >= 5);
    assert!(jsonl.contains("\"event\":\"periodic_fired\""));
    assert!(jsonl.contains("\"event\":\"compute_failed\""));
    drop(tick);
}

#[test]
fn removing_the_sink_stops_emission() {
    let (_clock, mgr, _cell) = chain_setup();
    let sink = RingBufferSink::new(16);
    mgr.set_trace_sink(Some(sink.clone()));
    assert!(mgr.trace_enabled());
    mgr.set_trace_sink(None);
    assert!(!mgr.trace_enabled());
    let _sub = mgr.subscribe(key("a")).unwrap();
    assert!(sink.is_empty());
}
