//! Behavioural tests of the epoch (batch) propagation mode: coalescing,
//! cross-epoch observer ordering, the quarantine skip inside an epoch,
//! and partial-epoch drains.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use streammeta_core::{
    EpochConfig, EventKey, FallbackPolicy, ItemDef, MetadataKey, MetadataManager, MetadataValue,
    NodeId, NodeRegistry, PropagationMode, RingBufferSink, TraceEvent,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    (clock, manager)
}

fn key(node: u32, item: &str) -> MetadataKey {
    MetadataKey::new(NodeId(node), item)
}

/// A node with `fanout` triggered dependents of the event `tick`, each
/// republishing the shared counter state.
fn fanout_registry(node: NodeId, fanout: usize, state: &Arc<AtomicU64>) -> Arc<NodeRegistry> {
    let reg = NodeRegistry::new(node);
    for i in 0..fanout {
        let state = state.clone();
        reg.define(
            ItemDef::triggered(format!("dep{i}"))
                .on_event("tick")
                .compute(move |_| MetadataValue::U64(state.load(Ordering::SeqCst)))
                .build(),
        );
    }
    reg
}

/// K updates to one source within an epoch coalesce into one recompute
/// of each dependent — and at most one observer notification per item.
#[test]
fn coalescing_recomputes_each_dependent_once_per_epoch() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let state = Arc::new(AtomicU64::new(0));
    mgr.attach_node(fanout_registry(node, 3, &state));
    let subs: Vec<_> = (0..3)
        .map(|i| mgr.subscribe(key(1, &format!("dep{i}"))).unwrap())
        .collect();
    let notifications = Arc::new(AtomicU64::new(0));
    let _observer = {
        let notifications = notifications.clone();
        mgr.subscribe_with(key(1, "dep0"), move |_| {
            notifications.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap()
    };
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 100,
        max_delay: TimeSpan(u64::MAX),
    }));

    let computes_before = mgr.stats().computes;
    let notified_before = notifications.load(Ordering::SeqCst);
    // Five updates of the same source: nothing recomputes until the
    // epoch flushes, and four of the five coalesce away.
    for i in 1..=5 {
        state.store(i, Ordering::SeqCst);
        mgr.fire_event(EventKey::new(node, "tick"));
    }
    assert_eq!(mgr.stats().computes, computes_before, "no sweep yet");
    assert_eq!(mgr.pending_update_count(), 1);
    assert_eq!(mgr.coalesced_update_count(), 4);

    assert_eq!(mgr.flush_epoch(), 1, "one distinct origin swept");
    assert_eq!(
        mgr.stats().computes,
        computes_before + 3,
        "each dependent recomputed exactly once for 5 source updates"
    );
    assert_eq!(
        notifications.load(Ordering::SeqCst),
        notified_before + 1,
        "one observer notification per item per epoch"
    );
    assert_eq!(mgr.stats().epochs, 1);
    assert_eq!(mgr.pending_update_count(), 0);
    for sub in &subs {
        assert_eq!(sub.get().as_u64(), Some(5), "flush sees the latest state");
    }
}

/// Observers never see epoch N+1 before epoch N: values arrive in epoch
/// order with strictly increasing versions, and the trace records the
/// flushes in sequence order.
#[test]
fn cross_epoch_ordering_is_preserved_for_observers() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let state = Arc::new(AtomicU64::new(0));
    mgr.attach_node(fanout_registry(node, 2, &state));
    let trace = RingBufferSink::new(4096);
    mgr.set_trace_sink(Some(trace.clone()));
    let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let _observer = {
        let seen = seen.clone();
        mgr.subscribe_with(key(1, "dep0"), move |v| {
            seen.lock().push((v.version, v.value.as_u64().unwrap_or(0)));
        })
        .unwrap()
    };
    let _other = mgr.subscribe(key(1, "dep1")).unwrap();
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 100,
        max_delay: TimeSpan(u64::MAX),
    }));

    for epoch_value in 1..=4u64 {
        state.store(epoch_value, Ordering::SeqCst);
        mgr.fire_event(EventKey::new(node, "tick"));
        assert_eq!(mgr.flush_epoch(), 1);
    }

    let seen = seen.lock();
    let values: Vec<u64> = seen.iter().map(|(_, v)| *v).collect();
    // First entry is the subscribe-time delivery of the initial value.
    assert_eq!(values, vec![0, 1, 2, 3, 4], "epochs delivered in order");
    assert!(
        seen.windows(2).all(|w| w[0].0 < w[1].0),
        "observer versions strictly increase across epochs"
    );
    let epochs: Vec<u64> = trace
        .snapshot()
        .into_iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::EpochFlushed { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    assert_eq!(epochs, vec![1, 2, 3, 4], "flushes traced in epoch order");
}

/// A quarantined item inside an epoch's plan is skipped: it keeps its
/// degraded last-good value while healthy siblings recompute.
#[test]
fn quarantined_items_are_skipped_inside_an_epoch() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    let poison = Arc::new(AtomicBool::new(false));
    let state = Arc::new(AtomicU64::new(1));
    {
        let poison = poison.clone();
        let state = state.clone();
        reg.define(
            ItemDef::triggered("flaky")
                .on_event("tick")
                .fallback(FallbackPolicy {
                    max_retries: 0,
                    backoff: TimeSpan(10),
                    quarantine_after: 1,
                    cool_down: TimeSpan(1_000_000),
                })
                .compute(move |_| {
                    if poison.load(Ordering::SeqCst) {
                        panic!("intentional failure");
                    }
                    MetadataValue::U64(state.load(Ordering::SeqCst))
                })
                .build(),
        );
    }
    {
        let state = state.clone();
        reg.define(
            ItemDef::triggered("healthy")
                .on_event("tick")
                .compute(move |_| MetadataValue::U64(state.load(Ordering::SeqCst)))
                .build(),
        );
    }
    mgr.attach_node(reg);
    let flaky = mgr.subscribe(key(1, "flaky")).unwrap();
    let healthy = mgr.subscribe(key(1, "healthy")).unwrap();
    assert_eq!(flaky.get().as_u64(), Some(1), "pre-computed at inclusion");
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 100,
        max_delay: TimeSpan(u64::MAX),
    }));

    // Epoch 1: the flaky compute fails once, which trips its
    // single-strike quarantine; the last good value keeps serving.
    poison.store(true, Ordering::SeqCst);
    state.store(2, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(node, "tick"));
    mgr.flush_epoch();
    assert!(mgr.is_key_quarantined(&key(1, "flaky")));
    assert_eq!(flaky.versioned().value.as_u64(), Some(1));
    assert!(flaky.versioned().degraded, "stale last-good while broken");
    assert_eq!(healthy.get().as_u64(), Some(2));

    // Epoch 2: the quarantined item is skipped entirely — no compute
    // attempt, circuit stays open — while the healthy sibling updates.
    poison.store(false, Ordering::SeqCst);
    state.store(3, Ordering::SeqCst);
    let flaky_computes = mgr.handler_stats(&key(1, "flaky")).unwrap().computes;
    mgr.fire_event(EventKey::new(node, "tick"));
    mgr.flush_epoch();
    assert_eq!(
        mgr.handler_stats(&key(1, "flaky")).unwrap().computes,
        flaky_computes,
        "quarantined item not recomputed inside the epoch"
    );
    assert_eq!(flaky.versioned().value.as_u64(), Some(1));
    assert_eq!(healthy.get().as_u64(), Some(3));
}

/// The time-slice flush: a partial epoch below `max_batch` flushes once
/// its oldest pending update has aged past `max_delay`, and not before.
#[test]
fn partial_epoch_flushes_when_the_time_slice_expires() {
    let (clock, mgr) = setup();
    let node = NodeId(1);
    let state = Arc::new(AtomicU64::new(0));
    mgr.attach_node(fanout_registry(node, 2, &state));
    let _subs: Vec<_> = (0..2)
        .map(|i| mgr.subscribe(key(1, &format!("dep{i}"))).unwrap())
        .collect();
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 100,
        max_delay: TimeSpan(50),
    }));

    state.store(7, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(node, "tick"));
    assert_eq!(mgr.pending_update_count(), 1);
    // Not due yet: the oldest pending update is younger than max_delay.
    clock.advance(TimeSpan(49));
    assert_eq!(mgr.flush_epoch_if_due(clock.now()), 0);
    assert_eq!(mgr.pending_update_count(), 1);
    // One more unit: due.
    clock.advance(TimeSpan(1));
    assert_eq!(mgr.flush_epoch_if_due(clock.now()), 1);
    assert_eq!(mgr.pending_update_count(), 0);
    assert_eq!(mgr.read(&key(1, "dep0")).unwrap().as_u64(), Some(7));
}

/// `max_batch` distinct origins flush synchronously on the enqueueing
/// thread, without waiting for a time-slice driver.
#[test]
fn full_batch_flushes_synchronously() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    let calls = Arc::new(AtomicU64::new(0));
    {
        let calls = calls.clone();
        reg.define(
            ItemDef::triggered("sink")
                .on_event("e0")
                .on_event("e1")
                .on_event("e2")
                .compute(move |_| MetadataValue::U64(calls.fetch_add(1, Ordering::SeqCst)))
                .build(),
        );
    }
    mgr.attach_node(reg);
    let _sub = mgr.subscribe(key(1, "sink")).unwrap();
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 3,
        max_delay: TimeSpan(u64::MAX),
    }));

    let before = calls.load(Ordering::SeqCst);
    mgr.fire_event(EventKey::new(node, "e0"));
    mgr.fire_event(EventKey::new(node, "e1"));
    assert_eq!(calls.load(Ordering::SeqCst), before, "below max_batch");
    // The third distinct origin fills the batch: the epoch flushes here,
    // and the three origins collapse into one recompute of the sink.
    mgr.fire_event(EventKey::new(node, "e2"));
    assert_eq!(mgr.stats().epochs, 1);
    assert_eq!(mgr.pending_update_count(), 0);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        before + 1,
        "union of affected subgraphs recomputed once"
    );
}

/// Switching back to per-event mode drains the partial epoch first, so
/// no queued update is lost — the shutdown-drain contract the executors
/// rely on (they call `flush_epoch()` when a run ends).
#[test]
fn leaving_epoch_mode_drains_the_partial_epoch() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let state = Arc::new(AtomicU64::new(0));
    mgr.attach_node(fanout_registry(node, 2, &state));
    let sub = mgr.subscribe(key(1, "dep0")).unwrap();
    let _other = mgr.subscribe(key(1, "dep1")).unwrap();
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 100,
        max_delay: TimeSpan(u64::MAX),
    }));
    assert_eq!(
        mgr.propagation_mode(),
        PropagationMode::Epoch(EpochConfig {
            max_batch: 100,
            max_delay: TimeSpan(u64::MAX),
        })
    );

    state.store(9, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(node, "tick"));
    assert_eq!(mgr.pending_update_count(), 1);
    assert_eq!(sub.get().as_u64(), Some(0), "still pending");

    mgr.set_propagation_mode(PropagationMode::PerEvent);
    assert_eq!(mgr.propagation_mode(), PropagationMode::PerEvent);
    assert_eq!(mgr.pending_update_count(), 0);
    assert_eq!(sub.get().as_u64(), Some(9), "partial epoch was drained");

    // Back in per-event mode, updates sweep immediately again.
    state.store(10, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(node, "tick"));
    assert_eq!(sub.get().as_u64(), Some(10));
    assert_eq!(mgr.stats().epochs, 1, "per-event sweeps are not epochs");
}
