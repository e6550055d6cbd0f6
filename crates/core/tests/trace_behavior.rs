//! Behaviour of the trace bus through the public API: inclusion order,
//! exclusion countdown, propagation rounds, periodic firings and failure
//! events, plus the JSONL export.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use streammeta_core::{
    ItemDef, MetadataKey, MetadataManager, MetadataValue, Metric, NodeId, NodeRegistry,
    RingBufferSink, TraceEvent,
};
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock};

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

/// A clock whose first `now()` after arming stalls its caller: it
/// reports that it is stalled, then waits to be released — or, when the
/// releasing thread cannot get that far, until `STALL` has passed.
struct StallingClock {
    ticks: AtomicU64,
    stall: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

const STALL: std::time::Duration = std::time::Duration::from_millis(200);

impl Clock for StallingClock {
    fn now(&self) -> Timestamp {
        let stall = self.stall.lock().unwrap().take();
        if let Some((stalled, release)) = stall {
            stalled.send(()).unwrap();
            let _ = release.recv_timeout(STALL);
        }
        Timestamp(self.ticks.fetch_add(1, Ordering::SeqCst))
    }
}

#[test]
fn concurrent_emitters_reach_the_sink_in_seq_order() {
    let clock = Arc::new(StallingClock {
        ticks: AtomicU64::new(0),
        stall: Mutex::new(None),
    });
    let mgr = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    reg.define(ItemDef::static_value("first", 1u64));
    reg.define(ItemDef::static_value("second", 2u64));
    mgr.attach_node(reg);
    let sink = RingBufferSink::new(64);
    mgr.set_trace_sink(Some(sink.clone()));

    // The first emitter stalls inside the `now()` that stamps its first
    // record. The second emitter starts only then, and releases the
    // first once its own records are in the sink. Without the emission
    // lock it gets there and overtakes: its records land before the
    // first emitter's lower sequence number. With the lock it waits for
    // the stalled record, the release never comes and the stall times out.
    let (stalled_tx, stalled_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    *clock.stall.lock().unwrap() = Some((stalled_tx, release_rx));
    std::thread::scope(|scope| {
        scope.spawn(|| drop(mgr.subscribe(key("first")).unwrap()));
        stalled_rx.recv().unwrap();
        scope.spawn(|| {
            drop(mgr.subscribe(key("second")).unwrap());
            let _ = release_tx.send(());
        });
    });

    let records = sink.snapshot();
    assert!(records.len() >= 4, "both subscriptions were traced");
    for pair in records.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq && pair[0].at <= pair[1].at,
            "out of order: seq {} at {} before seq {} at {}",
            pair[0].seq,
            pair[0].at,
            pair[1].seq,
            pair[1].at
        );
    }
}
