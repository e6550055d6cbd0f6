//! Regression tests for the write-path correctness sweep: the
//! phase-1/phase-2 liveness race in trigger propagation, the
//! cross-round propagation-depth interleaving, and the
//! timestamp skew of deep-chain recomputes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use streammeta_core::{
    EventKey, ItemDef, MetadataKey, MetadataManager, MetadataValue, Metric, NodeId, NodeRegistry,
    Subscription,
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

/// Phase 1 snapshots the affected subgraph, phase 2 recomputes it
/// outside the bookkeeping lock — so a handler captured in the plan can
/// be excluded before phase 2 reaches it. Recomputing the dead handler
/// would resurrect a removed item's value; the sweep must re-check
/// liveness against the registry before each refresh.
///
/// The exclusion is driven deterministically from inside the sweep
/// itself: the upstream item's compute function drops the downstream
/// subscription, so by the time phase 2 reaches the dependent, it is
/// guaranteed to be gone.
#[test]
fn propagation_skips_handlers_excluded_after_the_snapshot() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    // The slot through which `a`'s compute drops `b`'s subscription
    // mid-sweep.
    let doomed: Arc<Mutex<Option<Subscription>>> = Arc::new(Mutex::new(None));
    let a_calls = Arc::new(AtomicU64::new(0));
    let b_calls = Arc::new(AtomicU64::new(0));
    {
        let doomed = doomed.clone();
        let a_calls = a_calls.clone();
        reg.define(
            ItemDef::triggered("a")
                .on_event("evt")
                .compute(move |_| {
                    drop(doomed.lock().take());
                    MetadataValue::U64(a_calls.fetch_add(1, Ordering::SeqCst))
                })
                .build(),
        );
    }
    {
        let b_calls = b_calls.clone();
        reg.define(
            ItemDef::triggered("b")
                .dep_local("a")
                .compute(move |_| MetadataValue::U64(b_calls.fetch_add(1, Ordering::SeqCst)))
                .build(),
        );
    }
    mgr.attach_node(reg);
    // `a` is kept alive by its own subscription; `b` lives only through
    // the doomed one.
    let _sub_a = mgr.subscribe(key(1, "a")).unwrap();
    *doomed.lock() = Some(mgr.subscribe(key(1, "b")).unwrap());
    let b_computes_before = b_calls.load(Ordering::SeqCst);
    assert!(mgr.is_included(&key(1, "b")));

    // The sweep plans [a, b]; recomputing `a` drops `b`'s subscription,
    // so `b` is excluded before phase 2 reaches it.
    mgr.fire_event(EventKey::new(node, "evt"));

    assert!(!mgr.is_included(&key(1, "b")), "b was excluded mid-sweep");
    assert_eq!(
        b_calls.load(Ordering::SeqCst),
        b_computes_before,
        "the sweep must not recompute a handler excluded after the snapshot"
    );
}

/// `Metric::PropagationDepth` is a high-water mark per observation window:
/// a later (or concurrent) shallow round must not overwrite the deeper
/// one. Previously each round plain-stored its own max depth, so the
/// gauge could report a stale shallow round over a live deep one.
#[test]
fn propagation_depth_gauge_is_monotonic_across_rounds() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    // Deep chain d1 <- d2 <- d3 off one event (depth 3) and a single
    // shallow item off another (depth 1). Counter-valued computes change
    // every evaluation, so propagation never stops early.
    let mk_counter = || {
        let c = Arc::new(AtomicU64::new(0));
        move |_: &streammeta_core::EvalCtx| MetadataValue::U64(c.fetch_add(1, Ordering::SeqCst))
    };
    reg.define(
        ItemDef::triggered("d1")
            .on_event("deep")
            .compute(mk_counter())
            .build(),
    );
    reg.define(
        ItemDef::triggered("d2")
            .dep_local("d1")
            .compute(mk_counter())
            .build(),
    );
    reg.define(
        ItemDef::triggered("d3")
            .dep_local("d2")
            .compute(mk_counter())
            .build(),
    );
    reg.define(
        ItemDef::triggered("s1")
            .on_event("shallow")
            .compute(mk_counter())
            .build(),
    );
    mgr.attach_node(reg);
    let _deep = mgr.subscribe(key(1, "d3")).unwrap();
    let _shallow = mgr.subscribe(key(1, "s1")).unwrap();

    // Deterministic interleaving: a deep round followed by a shallow
    // one. Before the fix, the shallow round's store left the gauge at 1.
    mgr.fire_event(EventKey::new(node, "deep"));
    assert_eq!(mgr.metric(Metric::PropagationDepth), Some(3));
    mgr.fire_event(EventKey::new(node, "shallow"));
    assert_eq!(
        mgr.metric(Metric::PropagationDepth),
        Some(3),
        "a shallow round must not overwrite the deeper high-water mark"
    );

    // Taking the gauge resets the observation window.
    assert_eq!(mgr.take_propagation_depth(), 3);
    assert_eq!(mgr.metric(Metric::PropagationDepth), Some(0));
    mgr.fire_event(EventKey::new(node, "shallow"));
    assert_eq!(mgr.metric(Metric::PropagationDepth), Some(1));

    // Two racing rounds: whatever the interleaving, the gauge ends at
    // the max of both rounds' depths.
    mgr.take_propagation_depth();
    std::thread::scope(|s| {
        let deep_mgr = &mgr;
        let shallow_mgr = &mgr;
        s.spawn(move || {
            for _ in 0..200 {
                deep_mgr.fire_event(EventKey::new(node, "deep"));
            }
        });
        s.spawn(move || {
            for _ in 0..200 {
                shallow_mgr.fire_event(EventKey::new(node, "shallow"));
            }
        });
    });
    assert_eq!(
        mgr.metric(Metric::PropagationDepth),
        Some(3),
        "racing rounds must leave the max depth, not the last store"
    );
}

/// Every refresh in a propagation sweep is stamped at its own compute
/// time. Previously the whole sweep used the single `now` captured
/// before it began, so deep-chain recomputes that finished well after
/// `now` understated `staleness()`.
#[test]
fn deep_chain_refreshes_are_stamped_at_their_own_compute_time() {
    let (clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    // Each compute takes 5 time units (the closure advances the virtual
    // clock, simulating compute cost) and changes its value every time.
    let mk_slow = |clock: Arc<VirtualClock>| {
        let c = Arc::new(AtomicU64::new(0));
        move |_: &streammeta_core::EvalCtx| {
            clock.advance(TimeSpan(5));
            MetadataValue::U64(c.fetch_add(1, Ordering::SeqCst))
        }
    };
    reg.define(
        ItemDef::triggered("t1")
            .on_event("evt")
            .compute(mk_slow(clock.clone()))
            .build(),
    );
    reg.define(
        ItemDef::triggered("t2")
            .dep_local("t1")
            .compute(mk_slow(clock.clone()))
            .build(),
    );
    reg.define(
        ItemDef::triggered("t3")
            .dep_local("t2")
            .compute(mk_slow(clock.clone()))
            .build(),
    );
    mgr.attach_node(reg);
    let _sub = mgr.subscribe(key(1, "t3")).unwrap();

    let start = clock.now();
    mgr.fire_event(EventKey::new(node, "evt"));
    let u1 = mgr.read_versioned(&key(1, "t1")).unwrap().updated_at;
    let u2 = mgr.read_versioned(&key(1, "t2")).unwrap().updated_at;
    let u3 = mgr.read_versioned(&key(1, "t3")).unwrap().updated_at;
    // t1 starts at the sweep origin; t2 and t3 start after their
    // upstream computes finished, 5 units apart each.
    assert_eq!(u1, start);
    assert_eq!(u2, start + TimeSpan(5));
    assert_eq!(u3, start + TimeSpan(10));
    assert!(
        u1 < u2 && u2 < u3,
        "deep-chain stamps must increase with depth"
    );
    // The staleness a consumer computes right after the sweep reflects
    // each item's true age, not the sweep's start instant.
    let now = clock.now();
    assert_eq!(now.since(u3), TimeSpan(5), "t3 is 5 units old, not 15");
}
