//! Behavioural tests of the metadata manager: subscription cascades,
//! reference counting, update mechanisms, trigger propagation, events,
//! dynamic dependencies, and inheritance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    Counter, DepTarget, Dependency, EventKey, ItemDef, MetadataError, MetadataKey, MetadataManager,
    MetadataValue, NodeId, NodeRegistry, WindowDelta,
};
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock};

fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    (clock, manager)
}

fn key(node: u32, item: &str) -> MetadataKey {
    MetadataKey::new(NodeId(node), item)
}

/// A node with a chain a -> b -> c of triggered items plus a static leaf.
fn chain_registry(node: NodeId) -> Arc<NodeRegistry> {
    let reg = NodeRegistry::new(node);
    reg.define(ItemDef::static_value("c", 1.0));
    reg.define(
        ItemDef::triggered("b")
            .dep_local("c")
            .compute(|ctx| match ctx.dep_f64("c") {
                Some(c) => MetadataValue::F64(c * 2.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    reg.define(
        ItemDef::triggered("a")
            .dep_local("b")
            .compute(|ctx| match ctx.dep_f64("b") {
                Some(b) => MetadataValue::F64(b + 1.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    reg
}

#[test]
fn subscribe_includes_transitive_dependencies() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    assert_eq!(mgr.handler_count(), 0);
    let sub = mgr.subscribe(key(1, "a")).unwrap();
    // a, b and c are all included by one subscription.
    assert_eq!(mgr.handler_count(), 3);
    assert!(mgr.is_included(&key(1, "b")));
    assert!(mgr.is_included(&key(1, "c")));
    // Pre-computed at inclusion: c=1, b=2, a=3.
    assert_eq!(sub.get_f64(), Some(3.0));
    drop(sub);
    assert_eq!(mgr.handler_count(), 0);
}

/// A chain `c{depth} -> ... -> c1 -> c0` of triggered items over a
/// static leaf `c0`: `depth + 1` items.
fn chain_of(node: NodeId, depth: usize) -> Arc<NodeRegistry> {
    let reg = NodeRegistry::new(node);
    reg.define(ItemDef::static_value("c0", 1.0));
    for i in 1..=depth {
        let below = format!("c{}", i - 1);
        reg.define(
            ItemDef::triggered(format!("c{i}"))
                .dep_local(below.clone())
                .compute(move |ctx| ctx.dep(&below))
                .build(),
        );
    }
    reg
}

/// Compute-function evaluations summed over `keys`' handlers.
fn computes(mgr: &MetadataManager, keys: &[MetadataKey]) -> u64 {
    keys.iter()
        .map(|k| mgr.handler_stats(k).map_or(0, |s| s.computes))
        .sum()
}

#[test]
fn shared_handlers_are_reference_counted() {
    // Section 2.1: a subscription to an already-provided item returns the
    // existing handler and increments a counter, so sharing costs no
    // maintenance.
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_of(NodeId(1), 4));
    let chain: Vec<_> = (0..=4).map(|i| key(1, &format!("c{i}"))).collect();
    let s1 = mgr.subscribe(key(1, "c4")).unwrap();
    // The first subscription includes exactly the five-item chain.
    assert_eq!(mgr.handler_count(), 5);
    assert!(chain.iter().all(|k| mgr.is_included(k)));
    let computes_before = computes(&mgr, &chain);
    let s2 = mgr.subscribe(key(1, "c4")).unwrap();
    assert_eq!(mgr.subscription_count(&key(1, "c4")), 2);
    // The second is a refcount bump: nothing is computed.
    assert_eq!(computes(&mgr, &chain), computes_before);
    // Dependencies are shared, not duplicated: the second traversal stops
    // at the already-provided item `c4`, so `c3` keeps one reference (from
    // `c4`'s single handler).
    assert_eq!(mgr.handler_count(), 5);
    assert_eq!(mgr.subscription_count(&key(1, "c3")), 1);
    drop(s1);
    assert_eq!(mgr.handler_count(), 5);
    assert_eq!(mgr.subscription_count(&key(1, "c4")), 1);
    drop(s2);
    assert_eq!(mgr.handler_count(), 0);
}

#[test]
fn inclusion_covers_exactly_the_dependency_closure() {
    // Section 2.4: one subscription includes the item plus every
    // transitive dependency, and dropping it excludes them all again.
    // A star `top -> {l0 .. l(fanout-1)}` over static leaves.
    fn star(node: NodeId, fanout: usize) -> Arc<NodeRegistry> {
        let reg = NodeRegistry::new(node);
        let mut top = ItemDef::triggered("top");
        for i in 0..fanout {
            reg.define(ItemDef::static_value(format!("l{i}"), i as f64));
            top = top.dep_local(format!("l{i}"));
        }
        reg.define(top.compute(|_| MetadataValue::F64(0.0)).build());
        reg
    }
    for size in [1usize, 4, 16, 64] {
        let shapes = [
            ("chain depth", chain_of(NodeId(1), size), format!("c{size}")),
            ("fan-out", star(NodeId(1), size), "top".to_string()),
        ];
        for (shape, reg, top) in shapes {
            let (_clock, mgr) = setup();
            mgr.attach_node(reg);
            let sub = mgr.subscribe(key(1, &top)).unwrap();
            assert_eq!(mgr.handler_count(), size + 1, "{shape} {size}");
            drop(sub);
            assert_eq!(mgr.handler_count(), 0, "{shape} {size}");
        }
    }
}

#[test]
fn clone_of_subscription_counts() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let s1 = mgr.subscribe(key(1, "c")).unwrap();
    let s2 = s1.clone();
    assert_eq!(mgr.subscription_count(&key(1, "c")), 2);
    drop(s1);
    assert!(mgr.is_included(&key(1, "c")));
    assert_eq!(s2.get_f64(), Some(1.0));
    drop(s2);
    assert!(!mgr.is_included(&key(1, "c")));
}

#[test]
fn direct_subscription_to_shared_dependency_survives_cascade_exclusion() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let sa = mgr.subscribe(key(1, "a")).unwrap();
    let sc = mgr.subscribe(key(1, "c")).unwrap();
    assert_eq!(mgr.subscription_count(&key(1, "c")), 2);
    drop(sa);
    // a and b are gone, c survives through the direct subscription.
    assert_eq!(mgr.handler_count(), 1);
    assert_eq!(sc.get_f64(), Some(1.0));
}

#[test]
fn diamond_dependencies_refcount_correctly() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(ItemDef::static_value("base", 2.0));
    for (name, factor) in [("l", 10.0), ("r", 100.0)] {
        reg.define(
            ItemDef::triggered(name)
                .dep_local("base")
                .compute(move |ctx| MetadataValue::F64(ctx.dep_f64("base").unwrap_or(0.0) * factor))
                .build(),
        );
    }
    reg.define(
        ItemDef::triggered("top")
            .dep_local("l")
            .dep_local("r")
            .compute(|ctx| {
                MetadataValue::F64(
                    ctx.dep_f64("l").unwrap_or(0.0) + ctx.dep_f64("r").unwrap_or(0.0),
                )
            })
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "top")).unwrap();
    assert_eq!(mgr.handler_count(), 4);
    // base is included via two paths.
    assert_eq!(mgr.subscription_count(&key(1, "base")), 2);
    assert_eq!(sub.get_f64(), Some(220.0));
    drop(sub);
    assert_eq!(mgr.handler_count(), 0);
}

#[test]
fn cyclic_dependencies_are_rejected_and_rolled_back() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::triggered("x")
            .dep_local("y")
            .compute(|_| MetadataValue::Unavailable)
            .build(),
    );
    reg.define(
        ItemDef::triggered("y")
            .dep_local("x")
            .compute(|_| MetadataValue::Unavailable)
            .build(),
    );
    mgr.attach_node(reg);
    let err = mgr.subscribe(key(1, "x")).unwrap_err();
    assert!(matches!(err, MetadataError::CyclicDependency(_)));
    // Nothing leaks.
    assert_eq!(mgr.handler_count(), 0);
    assert_eq!(mgr.stats().subscriptions, 0);
}

#[test]
fn failed_inclusion_of_missing_dependency_rolls_back_shared_counts() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(ItemDef::static_value("ok", 1.0));
    reg.define(
        ItemDef::triggered("broken")
            .dep_local("ok")
            .dep_local("missing")
            .compute(|_| MetadataValue::Unavailable)
            .build(),
    );
    mgr.attach_node(reg);
    let pre = mgr.subscribe(key(1, "ok")).unwrap();
    let err = mgr.subscribe(key(1, "broken")).unwrap_err();
    assert!(matches!(err, MetadataError::ItemUndefined(_)));
    // The pre-existing subscription's count is untouched by the rollback.
    assert_eq!(mgr.subscription_count(&key(1, "ok")), 1);
    drop(pre);
    assert_eq!(mgr.handler_count(), 0);
}

#[test]
fn unknown_node_and_undefined_item_errors() {
    let (_clock, mgr) = setup();
    assert!(matches!(
        mgr.subscribe(key(9, "a")).unwrap_err(),
        MetadataError::NodeUnknown(NodeId(9))
    ));
    mgr.attach_node(NodeRegistry::new(NodeId(1)));
    assert!(matches!(
        mgr.subscribe(key(1, "a")).unwrap_err(),
        MetadataError::ItemUndefined(_)
    ));
    assert!(matches!(
        mgr.read(&key(1, "a")).unwrap_err(),
        MetadataError::NotIncluded(_)
    ));
}

#[test]
fn periodic_handler_updates_at_window_boundaries() {
    let (clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    let arrivals = Counter::new();
    let delta = Arc::new(WindowDelta::new(arrivals.clone()));
    reg.define(
        ItemDef::periodic("input_rate", TimeSpan(50))
            .counter(&arrivals)
            .compute(move |ctx| match delta.rate_over(ctx.window().unwrap()) {
                Some(r) => MetadataValue::F64(r),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "input_rate")).unwrap();
    // Before the first boundary the value is unavailable.
    assert_eq!(sub.get(), MetadataValue::Unavailable);
    // One element every 10 units: true rate 0.1.
    for _ in 0..5 {
        clock.advance(TimeSpan(10));
        arrivals.record();
        mgr.periodic().advance_to(clock.now());
    }
    assert_eq!(sub.get_f64(), Some(0.1));
    // Reading repeatedly within a period returns the same version:
    // the paper's isolation condition.
    let v1 = sub.versioned();
    let v2 = sub.versioned();
    assert_eq!(v1.version, v2.version);
    assert_eq!(v1.value, v2.value);
}

#[test]
fn unsubscription_cancels_periodic_task() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("p", TimeSpan(10))
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "p")).unwrap();
    assert_eq!(mgr.periodic().live_tasks(), 1);
    drop(sub);
    assert_eq!(mgr.periodic().live_tasks(), 0);
    clock.advance(TimeSpan(100));
    assert_eq!(mgr.periodic().advance_to(clock.now()), 0);
}

#[test]
fn triggered_updates_propagate_from_periodic_source() {
    let (clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    let arrivals = Counter::new();
    let delta = Arc::new(WindowDelta::new(arrivals.clone()));
    reg.define(
        ItemDef::periodic("input_rate", TimeSpan(10))
            .counter(&arrivals)
            .compute(move |ctx| match delta.rate_over(ctx.window().unwrap()) {
                Some(r) => MetadataValue::F64(r),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    // Triggered running average of the rate (the paper's canonical
    // intra-node dependency example).
    let avg = Arc::new(streammeta_core::OnlineAverage::new());
    let avg2 = avg.clone();
    reg.define(
        ItemDef::triggered("avg_input_rate")
            .dep_local("input_rate")
            .compute(move |ctx| match ctx.dep_f64("input_rate") {
                Some(r) => {
                    avg2.observe(r);
                    MetadataValue::F64(avg2.mean().unwrap())
                }
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "avg_input_rate")).unwrap();
    // Window 1: 2 arrivals -> rate 0.2. Window 2: 4 arrivals -> 0.4.
    for n in [2u32, 4] {
        for _ in 0..n {
            arrivals.record();
        }
        clock.advance(TimeSpan(10));
        mgr.periodic().advance_to(clock.now());
    }
    // Average of 0.2 and 0.4.
    let got = sub.get_f64().unwrap();
    assert!((got - 0.3).abs() < 1e-12, "avg was {got}");
}

#[test]
fn propagation_stops_when_value_unchanged() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    // Periodic source that always produces the same value.
    reg.define(
        ItemDef::periodic("const", TimeSpan(10))
            .compute(|_| MetadataValue::F64(5.0))
            .build(),
    );
    let recomputes = Arc::new(AtomicU64::new(0));
    let r2 = recomputes.clone();
    reg.define(
        ItemDef::triggered("dep")
            .dep_local("const")
            .compute(move |ctx| {
                r2.fetch_add(1, Ordering::SeqCst);
                ctx.dep("const")
            })
            .build(),
    );
    mgr.attach_node(reg);
    let _sub = mgr.subscribe(key(1, "dep")).unwrap();
    let initial = recomputes.load(Ordering::SeqCst);
    assert_eq!(initial, 1, "pre-computed once at inclusion");
    // Every boundary recomputes the constant to the same value, so the
    // dependent triggered handler is never notified again.
    for _ in 0..10 {
        clock.advance(TimeSpan(10));
        mgr.periodic().advance_to(clock.now());
    }
    assert_eq!(recomputes.load(Ordering::SeqCst), initial);
}

#[test]
fn diamond_propagation_recomputes_each_item_once() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("src", TimeSpan(10))
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    for name in ["l", "r"] {
        reg.define(
            ItemDef::triggered(name)
                .dep_local("src")
                .compute(|ctx| ctx.dep("src"))
                .build(),
        );
    }
    let top_computes = Arc::new(AtomicU64::new(0));
    let tc = top_computes.clone();
    reg.define(
        ItemDef::triggered("top")
            .dep_local("l")
            .dep_local("r")
            .compute(move |ctx| {
                tc.fetch_add(1, Ordering::SeqCst);
                MetadataValue::F64(
                    ctx.dep_f64("l").unwrap_or(0.0) + ctx.dep_f64("r").unwrap_or(0.0),
                )
            })
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "top")).unwrap();
    let baseline = top_computes.load(Ordering::SeqCst);
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    // One boundary -> exactly one recomputation of `top` (after both l,r).
    assert_eq!(top_computes.load(Ordering::SeqCst), baseline + 1);
    assert_eq!(sub.get_f64(), Some(20.0));
}

#[test]
fn events_trigger_dependent_handlers() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    let window_size = Arc::new(AtomicU64::new(100));
    let ws = window_size.clone();
    reg.define(
        ItemDef::on_demand("window_size")
            .compute(move |_| MetadataValue::U64(ws.load(Ordering::SeqCst)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("validity")
            .dep_local("window_size")
            .on_event("window_size_changed")
            .compute(|ctx| match ctx.dep_f64("window_size") {
                Some(w) => MetadataValue::F64(w),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "validity")).unwrap();
    assert_eq!(sub.get_f64(), Some(100.0));
    // Change the underlying state, then fire the event (Section 3.2.3:
    // manual notifications bridge on-demand sources).
    window_size.store(40, Ordering::SeqCst);
    assert_eq!(sub.get_f64(), Some(100.0), "not yet notified");
    mgr.fire_event(EventKey::new(node, "window_size_changed"));
    assert_eq!(sub.get_f64(), Some(40.0));
}

#[test]
fn notify_changed_retriggers_dependents_of_on_demand_items() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    let state = Arc::new(AtomicU64::new(7));
    let s2 = state.clone();
    reg.define(
        ItemDef::on_demand("state_size")
            .compute(move |_| MetadataValue::U64(s2.load(Ordering::SeqCst)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("memory_usage")
            .dep_local("state_size")
            .compute(|ctx| match ctx.dep_f64("state_size") {
                Some(s) => MetadataValue::F64(s * 16.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "memory_usage")).unwrap();
    assert_eq!(sub.get_f64(), Some(112.0));
    state.store(10, Ordering::SeqCst);
    mgr.notify_changed(key(1, "state_size"));
    assert_eq!(sub.get_f64(), Some(160.0));
}

#[test]
fn dynamic_dependency_prefers_included_alternative() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    reg.define(ItemDef::static_value("b", 1.0));
    reg.define(ItemDef::static_value("c", 2.0));
    let kb = key(1, "b");
    let kc = key(1, "c");
    let (kb2, kc2) = (kb.clone(), kc.clone());
    reg.define(
        ItemDef::triggered("a")
            .dynamic_deps(move |ctx| {
                let pick = if ctx.is_included(&kc2) { &kc2 } else { &kb2 };
                vec![Dependency::new("src", DepTarget::Remote(pick.clone()))]
            })
            .compute(|ctx| ctx.dep("src"))
            .build(),
    );
    mgr.attach_node(reg);

    // Nothing else included: a resolves to b.
    let sa = mgr.subscribe(key(1, "a")).unwrap();
    assert!(mgr.is_included(&kb));
    assert!(!mgr.is_included(&kc));
    assert_eq!(sa.get_f64(), Some(1.0));
    drop(sa);

    // c already included: a resolves to c, b is never included — the
    // resource saving of Section 4.4.3.
    let _sc = mgr.subscribe(kc.clone()).unwrap();
    let sa = mgr.subscribe(key(1, "a")).unwrap();
    assert!(!mgr.is_included(&kb));
    assert_eq!(sa.get_f64(), Some(2.0));
}

#[test]
fn monitors_and_hooks_follow_inclusion() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let counter = Counter::new();
    let includes = Arc::new(AtomicU64::new(0));
    let excludes = Arc::new(AtomicU64::new(0));
    let (inc, exc) = (includes.clone(), excludes.clone());
    reg.define(
        ItemDef::on_demand("count")
            .counter(&counter)
            .on_include(move || {
                inc.fetch_add(1, Ordering::SeqCst);
            })
            .on_exclude(move || {
                exc.fetch_add(1, Ordering::SeqCst);
            })
            .compute({
                let c = counter.clone();
                move |_| MetadataValue::U64(c.value())
            })
            .build(),
    );
    mgr.attach_node(reg);
    counter.record(); // inactive: not counted
    let s1 = mgr.subscribe(key(1, "count")).unwrap();
    let s2 = mgr.subscribe(key(1, "count")).unwrap();
    // Hooks run once per handler creation, not per subscription.
    assert_eq!(includes.load(Ordering::SeqCst), 1);
    assert!(counter.is_active());
    counter.record();
    assert_eq!(s1.get(), MetadataValue::U64(1));
    drop(s1);
    assert!(counter.is_active(), "still one subscriber");
    drop(s2);
    assert!(!counter.is_active());
    assert_eq!(excludes.load(Ordering::SeqCst), 1);
}

#[test]
fn redefinition_applies_to_new_inclusions() {
    let (_clock, mgr) = setup();
    let node = NodeId(1);
    let reg = NodeRegistry::new(node);
    reg.define(ItemDef::static_value("memory_usage", 100u64));
    mgr.attach_node(reg.clone());
    {
        let sub = mgr.subscribe(key(1, "memory_usage")).unwrap();
        assert_eq!(sub.get(), MetadataValue::U64(100));
    }
    // A specialised operator overrides the inherited definition
    // (Section 4.4.2): extra data structures add to the memory usage.
    reg.define(
        ItemDef::on_demand("memory_usage")
            .compute(|_| MetadataValue::U64(100 + 24))
            .build(),
    );
    let sub = mgr.subscribe(key(1, "memory_usage")).unwrap();
    assert_eq!(sub.get(), MetadataValue::U64(124));
}

#[test]
fn guarded_redefinition_refuses_live_items() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let sub = mgr.subscribe(key(1, "c")).unwrap();
    let err = mgr
        .redefine(NodeId(1), ItemDef::static_value("c", 9.0))
        .unwrap_err();
    assert!(matches!(err, MetadataError::ItemInUse(_)));
    assert_eq!(sub.get_f64(), Some(1.0), "old definition still serves");
    drop(sub);
    mgr.redefine(NodeId(1), ItemDef::static_value("c", 9.0))
        .unwrap();
    let sub = mgr.subscribe(key(1, "c")).unwrap();
    assert_eq!(sub.get_f64(), Some(9.0));
    // Unknown node is reported as such.
    assert!(matches!(
        mgr.redefine(NodeId(77), ItemDef::static_value("x", 1.0)),
        Err(MetadataError::NodeUnknown(NodeId(77)))
    ));
}

#[test]
fn guarded_undefine_refuses_live_items() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    // "a" transitively includes "c", so even the dependency is in use.
    let sub = mgr.subscribe(key(1, "a")).unwrap();
    let err = mgr.undefine(NodeId(1), &"c".into()).unwrap_err();
    assert!(matches!(err, MetadataError::ItemInUse(k) if k == key(1, "c")));
    assert_eq!(sub.get_f64(), Some(3.0), "chain still serves");
    drop(sub);
    // After the last unsubscribe the whole chain is excluded and the
    // definition can be removed; the removed definition is returned.
    let removed = mgr.undefine(NodeId(1), &"c".into()).unwrap();
    assert!(removed.is_some());
    // Undefine-then-define now behaves like a redefinition: the next
    // subscription resolves against the new semantics...
    mgr.redefine(NodeId(1), ItemDef::static_value("c", 9.0))
        .unwrap();
    let sub = mgr.subscribe(key(1, "c")).unwrap();
    assert_eq!(sub.get_f64(), Some(9.0));
    // ...and removing an item that was never defined is not an error.
    assert!(mgr.undefine(NodeId(1), &"ghost".into()).unwrap().is_none());
    assert!(matches!(
        mgr.undefine(NodeId(77), &"x".into()),
        Err(MetadataError::NodeUnknown(NodeId(77)))
    ));
}

#[test]
fn undefined_item_fails_new_subscriptions_but_not_live_ones() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let live = mgr.subscribe(key(1, "b")).unwrap();
    // "a" is not included; its definition can be removed while b/c live.
    assert!(mgr.undefine(NodeId(1), &"a".into()).unwrap().is_some());
    assert!(matches!(
        mgr.subscribe(key(1, "a")),
        Err(MetadataError::ItemUndefined(_))
    ));
    assert_eq!(live.get_f64(), Some(2.0), "unrelated chain unaffected");
}

#[test]
fn inter_node_dependencies_propagate_across_nodes() {
    let (clock, mgr) = setup();
    // Source node with a periodic output rate.
    let src = NodeId(1);
    let src_reg = NodeRegistry::new(src);
    let out = Counter::new();
    let delta = Arc::new(WindowDelta::new(out.clone()));
    src_reg.define(
        ItemDef::periodic("output_rate", TimeSpan(10))
            .counter(&out)
            .compute(move |ctx| match delta.rate_over(ctx.window().unwrap()) {
                Some(r) => MetadataValue::F64(r),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    // Downstream operator estimating CPU usage from the upstream rate.
    let op = NodeId(2);
    let op_reg = NodeRegistry::new(op);
    op_reg.define(
        ItemDef::triggered("estimated_cpu_usage")
            .dep_remote("in_rate", key(1, "output_rate"))
            .compute(|ctx| match ctx.dep_f64("in_rate") {
                Some(r) => MetadataValue::F64(r * 3.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(src_reg);
    mgr.attach_node(op_reg);
    let sub = mgr.subscribe(key(2, "estimated_cpu_usage")).unwrap();
    // Subscribing at the operator automatically included the upstream item.
    assert!(mgr.is_included(&key(1, "output_rate")));
    for _ in 0..10 {
        out.record();
        clock.advance(TimeSpan(5));
        mgr.periodic().advance_to(clock.now());
    }
    // Rate 0.2 -> CPU 0.6.
    assert!((sub.get_f64().unwrap() - 0.6).abs() < 1e-12);
    drop(sub);
    assert!(!mgr.is_included(&key(1, "output_rate")));
}

#[test]
fn subscribe_all_matches_available_items() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let subs = mgr.subscribe_all(NodeId(1)).unwrap();
    assert_eq!(subs.len(), 3);
    assert_eq!(mgr.handler_count(), 3);
    assert_eq!(
        mgr.stats().subscriptions,
        3 + 2 /* dependent inclusions */
    );
    drop(subs);
    assert_eq!(mgr.handler_count(), 0);
}

#[test]
fn stats_track_accesses_and_updates() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let sub = mgr.subscribe(key(1, "a")).unwrap();
    let before = mgr.stats();
    sub.get();
    sub.get();
    let after = mgr.stats();
    assert_eq!(after.accesses, before.accesses + 2);
    let hs = mgr.handler_stats(&key(1, "a")).unwrap();
    assert_eq!(hs.accesses, 2);
    assert_eq!(hs.subscriptions, 1);
}

#[test]
fn read_and_change_costs_follow_the_update_mechanism() {
    // Figures 4 and 5: a periodic or triggered read is a snapshot load
    // (no compute); an on-demand read recomputes on every access; one
    // change of the source recomputes each triggered dependent once.
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let cell = Arc::new(AtomicU64::new(0));
    let c2 = cell.clone();
    reg.define(
        ItemDef::on_demand("base")
            .compute(move |_| MetadataValue::U64(c2.load(Ordering::SeqCst)))
            .build(),
    );
    for def in [
        ItemDef::periodic("periodic", TimeSpan(10)),
        ItemDef::triggered("triggered"),
        ItemDef::on_demand("on_demand"),
    ] {
        reg.define(def.dep_local("base").compute(|ctx| ctx.dep("base")).build());
    }
    mgr.attach_node(reg);
    let subs: Vec<_> = ["periodic", "triggered", "on_demand"]
        .iter()
        .map(|name| mgr.subscribe(key(1, name)).unwrap())
        .collect();
    let count = |name: &str| computes(&mgr, &[key(1, name)]);
    let (periodic, triggered, on_demand) =
        (count("periodic"), count("triggered"), count("on_demand"));
    for sub in &subs {
        for _ in 0..5 {
            sub.get();
        }
    }
    assert_eq!(count("periodic"), periodic);
    assert_eq!(count("triggered"), triggered);
    assert_eq!(count("on_demand"), on_demand + 5);

    cell.fetch_add(1, Ordering::SeqCst);
    mgr.notify_changed(key(1, "base"));
    assert_eq!(count("periodic"), periodic);
    assert_eq!(count("triggered"), triggered + 1);
    assert_eq!(count("on_demand"), on_demand + 5);
    assert_eq!(subs[1].get(), MetadataValue::U64(1));
}

#[test]
fn triggered_maintenance_pays_per_change_periodic_per_boundary() {
    // Section 3.2.3: a triggered item recomputes only when its input
    // changes; a periodic one at every window boundary regardless.
    const FANOUT: usize = 10;
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let cell = Arc::new(AtomicU64::new(0));
    let c2 = cell.clone();
    reg.define(
        ItemDef::on_demand("base")
            .compute(move |_| MetadataValue::U64(c2.load(Ordering::SeqCst)))
            .build(),
    );
    for i in 0..FANOUT {
        reg.define(
            ItemDef::triggered(format!("t{i}"))
                .dep_local("base")
                .compute(|ctx| ctx.dep("base"))
                .build(),
        );
        reg.define(
            ItemDef::periodic(format!("p{i}"), TimeSpan(10))
                .dep_local("base")
                .compute(|ctx| ctx.dep("base"))
                .build(),
        );
    }
    mgr.attach_node(reg);
    let triggered: Vec<_> = (0..FANOUT).map(|i| key(1, &format!("t{i}"))).collect();
    let periodic: Vec<_> = (0..FANOUT).map(|i| key(1, &format!("p{i}"))).collect();
    let _subs: Vec<_> = triggered
        .iter()
        .chain(&periodic)
        .map(|k| mgr.subscribe(k.clone()).unwrap())
        .collect();
    let (t0, p0) = (computes(&mgr, &triggered), computes(&mgr, &periodic));

    // Three changes of the source, no time passing.
    let changes = 3;
    for _ in 0..changes {
        cell.fetch_add(1, Ordering::SeqCst);
        mgr.notify_changed(key(1, "base"));
    }
    assert_eq!(computes(&mgr, &triggered), t0 + changes * FANOUT as u64);
    assert_eq!(computes(&mgr, &periodic), p0);

    // 100 units with no change: ten boundaries of the 10-unit window.
    let boundaries = 10;
    clock.advance(TimeSpan(100));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(computes(&mgr, &triggered), t0 + changes * FANOUT as u64);
    assert_eq!(computes(&mgr, &periodic), p0 + boundaries * FANOUT as u64);
}

#[test]
fn on_demand_items_recompute_on_every_access() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let calls = Arc::new(AtomicU64::new(0));
    let c2 = calls.clone();
    reg.define(
        ItemDef::on_demand("fresh")
            .compute(move |_| MetadataValue::U64(c2.fetch_add(1, Ordering::SeqCst)))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "fresh")).unwrap();
    assert_eq!(sub.get(), MetadataValue::U64(0));
    assert_eq!(sub.get(), MetadataValue::U64(1));
    assert_eq!(sub.get(), MetadataValue::U64(2));
}

#[test]
fn static_items_compute_once() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let calls = Arc::new(AtomicU64::new(0));
    // A triggered item with no dependencies behaves like instrumented
    // static metadata: computed once at inclusion, never again.
    let c2 = calls.clone();
    reg.define(
        ItemDef::triggered("counted_static")
            .compute(move |_| MetadataValue::U64(c2.fetch_add(1, Ordering::SeqCst)))
            .build(),
    );
    reg.define(ItemDef::static_value("schema", "x:int"));
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "counted_static")).unwrap();
    sub.get();
    sub.get();
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "computed only at inclusion"
    );
    let schema = mgr.subscribe(key(1, "schema")).unwrap();
    assert_eq!(schema.get(), MetadataValue::text("x:int"));
}

#[test]
fn detach_node_blocks_new_subscriptions_but_keeps_handlers() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let sub = mgr.subscribe(key(1, "c")).unwrap();
    assert!(mgr.detach_node(NodeId(1)).is_some());
    // `a` was never included, and the registry is gone: subscription fails.
    assert!(mgr.subscribe(key(1, "a")).is_err());
    // Already-included items keep working (and remain subscribable) from
    // their snapshotted definitions.
    let again = mgr.subscribe(key(1, "c")).unwrap();
    assert_eq!(sub.get_f64(), Some(1.0));
    assert_eq!(again.get_f64(), Some(1.0));
}

#[test]
fn introspection_reports_edges_and_dot() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let _sub = mgr.subscribe(key(1, "a")).unwrap();
    let edges = mgr.dependency_edges();
    assert_eq!(edges.len(), 2, "a->b and b->c inverted edges");
    assert_eq!(
        mgr.dependents_of(&streammeta_core::DepSource::Item(key(1, "c"))),
        vec![key(1, "b")]
    );
    let deps = mgr.dependencies_of(&key(1, "a")).unwrap();
    assert_eq!(deps.len(), 1);
    assert_eq!(&*deps[0].role, "b");
    let dot = mgr.to_dot();
    assert!(dot.contains("digraph metadata"));
    assert!(dot.contains("\"n1/c\" -> \"n1/b\""));
    assert!(dot.contains("(triggered)"));
}

#[test]
fn concurrent_subscribe_unsubscribe_is_safe() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    std::thread::scope(|s| {
        for _ in 0..8 {
            let mgr = mgr.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    let sub = mgr.subscribe(key(1, "a")).unwrap();
                    let _ = sub.get();
                }
            });
        }
    });
    assert_eq!(mgr.handler_count(), 0);
    assert_eq!(mgr.stats().subscriptions, 0);
}

#[test]
fn one_event_fires_each_dependent_once() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let counters: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (i, c) in counters.iter().enumerate() {
        let c = c.clone();
        reg.define(
            ItemDef::triggered(format!("dep{i}"))
                .on_event("tick")
                .compute(move |_| MetadataValue::U64(c.fetch_add(1, Ordering::SeqCst)))
                .build(),
        );
    }
    mgr.attach_node(reg);
    let _subs: Vec<_> = (0..3)
        .map(|i| mgr.subscribe(key(1, &format!("dep{i}"))).unwrap())
        .collect();
    let base: Vec<u64> = counters.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    mgr.fire_event(EventKey::new(NodeId(1), "tick"));
    for (i, c) in counters.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::SeqCst),
            base[i] + 1,
            "dep{i} recomputed exactly once"
        );
    }
}

#[test]
fn duplicate_dependencies_on_one_source_notify_once() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let cell = Arc::new(AtomicU64::new(1));
    let c2 = cell.clone();
    reg.define(
        ItemDef::on_demand("src")
            .compute(move |_| MetadataValue::U64(c2.load(Ordering::SeqCst)))
            .build(),
    );
    let computes = Arc::new(AtomicU64::new(0));
    let c3 = computes.clone();
    // Two roles targeting the same item (Section 3.2.3: duplicate
    // subscriptions are detected to avoid redundant notifications).
    reg.define(
        ItemDef::triggered("double")
            .dep("a", streammeta_core::DepTarget::Local("src".into()))
            .dep("b", streammeta_core::DepTarget::Local("src".into()))
            .compute(move |ctx| {
                c3.fetch_add(1, Ordering::SeqCst);
                MetadataValue::F64(
                    ctx.dep_f64("a").unwrap_or(0.0) + ctx.dep_f64("b").unwrap_or(0.0),
                )
            })
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "double")).unwrap();
    // The source is refcounted twice (two dependency edges)...
    assert_eq!(mgr.subscription_count(&key(1, "src")), 2);
    let before = computes.load(Ordering::SeqCst);
    cell.store(5, Ordering::SeqCst);
    mgr.notify_changed(key(1, "src"));
    // ...but one change recomputes the dependent once.
    assert_eq!(computes.load(Ordering::SeqCst), before + 1);
    assert_eq!(sub.get_f64(), Some(10.0));
    drop(sub);
    assert_eq!(mgr.handler_count(), 0);
}

#[test]
fn external_periodic_registry_survives_manager_drop() {
    let clock = VirtualClock::shared();
    let registry = streammeta_time::PeriodicRegistry::shared();
    let mgr = MetadataManager::with_periodic(clock.clone(), registry.clone());
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("p", TimeSpan(10))
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "p")).unwrap();
    assert_eq!(registry.live_tasks(), 1);
    // Dropping subscription and manager leaves the external registry
    // functional (tasks hold only weak manager references).
    drop(sub);
    drop(mgr);
    clock.advance(TimeSpan(100));
    registry.advance_to(clock.now());
    assert_eq!(registry.live_tasks(), 0);
}

#[test]
fn updated_at_reflects_the_window_boundary() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("p", TimeSpan(10))
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key(1, "p")).unwrap();
    // Advance in one jump past several boundaries: the catch-up fires at
    // exact boundaries, and the final stored timestamp is the boundary.
    clock.advance(TimeSpan(35));
    mgr.periodic().advance_to(clock.now());
    let v = sub.versioned();
    assert_eq!(v.value, MetadataValue::U64(30));
    assert_eq!(v.updated_at, Timestamp(30));
}

#[test]
fn mixed_event_and_item_chain_propagates_in_order() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let state = Arc::new(AtomicU64::new(1));
    let s2 = state.clone();
    reg.define(
        ItemDef::on_demand("raw")
            .compute(move |_| MetadataValue::U64(s2.load(Ordering::SeqCst)))
            .build(),
    );
    // first <- event + raw; second <- first.
    reg.define(
        ItemDef::triggered("first")
            .dep_local("raw")
            .on_event("poke")
            .compute(|ctx| match ctx.dep_f64("raw") {
                Some(v) => MetadataValue::F64(v * 10.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    reg.define(
        ItemDef::triggered("second")
            .dep_local("first")
            .compute(|ctx| match ctx.dep_f64("first") {
                Some(v) => MetadataValue::F64(v + 1.0),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(reg);
    let second = mgr.subscribe(key(1, "second")).unwrap();
    assert_eq!(second.get_f64(), Some(11.0));
    state.store(4, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(NodeId(1), "poke"));
    assert_eq!(second.get_f64(), Some(41.0));
}

#[test]
fn panicking_compute_functions_are_contained() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let trip = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let t2 = trip.clone();
    reg.define(
        ItemDef::on_demand("faulty")
            .compute(move |_| {
                if t2.load(Ordering::SeqCst) {
                    panic!("injected metadata fault");
                }
                MetadataValue::F64(1.0)
            })
            .build(),
    );
    reg.define(
        ItemDef::triggered("dependent")
            .dep_local("faulty")
            .compute(|ctx| ctx.dep("faulty"))
            .build(),
    );
    // A periodic item that panics on every boundary.
    let t3 = trip.clone();
    reg.define(
        ItemDef::periodic("faulty_periodic", TimeSpan(10))
            .compute(move |_| {
                if t3.load(Ordering::SeqCst) {
                    panic!("injected periodic fault");
                }
                MetadataValue::F64(2.0)
            })
            .build(),
    );
    mgr.attach_node(reg);
    let dep = mgr.subscribe(key(1, "dependent")).unwrap();
    let per = mgr.subscribe(key(1, "faulty_periodic")).unwrap();
    assert_eq!(dep.get_f64(), Some(1.0));

    // Inject the fault: accesses survive, report Unavailable, and the
    // failure counter records it.
    trip.store(true, Ordering::SeqCst);
    mgr.notify_changed(key(1, "faulty"));
    assert_eq!(dep.get(), MetadataValue::Unavailable);
    clock.advance(TimeSpan(25));
    mgr.periodic().advance_to(clock.now()); // two panicking boundaries
    assert!(mgr.stats().compute_failures >= 3);

    // Recovery: once the fault clears, values come back.
    trip.store(false, Ordering::SeqCst);
    mgr.notify_changed(key(1, "faulty"));
    assert_eq!(dep.get_f64(), Some(1.0));
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(per.get_f64(), Some(2.0));
    // The framework stayed fully functional.
    drop((dep, per));
    assert_eq!(mgr.handler_count(), 0);
}

#[test]
fn push_observers_fire_on_every_stored_change() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("p", TimeSpan(10))
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    mgr.attach_node(reg);
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s2 = seen.clone();
    let sub = mgr
        .subscribe_with(key(1, "p"), move |v| {
            s2.lock().push((v.version, v.value.clone()));
        })
        .unwrap();
    for _ in 0..3 {
        clock.advance(TimeSpan(10));
        mgr.periodic().advance_to(clock.now());
    }
    {
        let seen = seen.lock();
        // Version 1 is the inclusion-time pre-computation (t=0); the
        // registration-time snapshot delivers it so no update between
        // inclusion and observer attachment is missed. Boundaries then
        // push versions 2..4.
        assert_eq!(
            seen.len(),
            4,
            "registration snapshot + one push per boundary"
        );
        assert_eq!(seen[0], (1, MetadataValue::U64(0)));
        assert_eq!(seen[1], (2, MetadataValue::U64(10)));
        assert_eq!(seen[3], (4, MetadataValue::U64(30)));
    }
    // Dropping the subscription deregisters the observer.
    let keep_alive = mgr.subscribe(key(1, "p")).unwrap();
    drop(sub);
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(seen.lock().len(), 4, "no pushes after drop");
    drop(keep_alive);
}

#[test]
fn push_observers_fire_on_trigger_propagation() {
    let (_clock, mgr) = setup();
    mgr.attach_node(chain_registry(NodeId(1)));
    let count = Arc::new(AtomicU64::new(0));
    let c2 = count.clone();
    // Observe the top of the chain; notify the bottom.
    let _sub = mgr
        .subscribe_with(key(1, "a"), move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    // Registration delivers the inclusion-time snapshot once.
    assert_eq!(count.load(Ordering::SeqCst), 1, "registration snapshot");
    // Redefining c is refused while included, so instead fire an event
    // chain: notify_changed on c recomputes b then a (values unchanged
    // since c is static -> no pushes).
    mgr.notify_changed(key(1, "c"));
    assert_eq!(count.load(Ordering::SeqCst), 1, "values did not change");
}

#[test]
fn concurrent_readers_see_consistent_versions() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("p", TimeSpan(1))
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = Arc::new(mgr.subscribe(key(1, "p")).unwrap());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let sub = sub.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let v = sub.versioned();
                    // Value and version are read under one lock: a value
                    // observed with version N is the value stored at N.
                    if v.version > 0 {
                        assert!(v.value.is_available());
                    }
                }
            });
        }
        for _ in 0..500 {
            clock.advance(TimeSpan(1));
            mgr.periodic().advance_to(clock.now());
        }
        stop.store(true, Ordering::SeqCst);
    });
}
