//! Regression tests for the lifecycle-panic sweep: exclusion racing
//! unsubscription, reads and clones over force-excluded items, epoch
//! origins whose handler vanished mid-epoch, and a multi-threaded fuzz
//! over the whole undefine/exclude/read/clone surface.
//!
//! Before the sweep, four panics lurked here: `decrement` hit
//! `expect("present")` when a concurrent exclusion had already removed
//! the handler, `Subscription` reads and clones hit `expect("item is
//! included while a subscription exists")` after a force-exclusion, the
//! epoch flush sweep assumed every enqueued origin still had a live
//! handler, and `subscribe` re-looked its handler up from the shard
//! index *after* dropping the bookkeeping lock, panicking when a
//! force-exclusion squeezed into that window (found by the fuzz below;
//! the handler is now captured under the lock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    EpochConfig, EventKey, ItemDef, MetadataError, MetadataKey, MetadataManager, MetadataValue,
    Metric, MetricKind, NodeId, NodeRegistry, PropagationMode, SystemRelation,
};
use streammeta_time::{TimeSpan, VirtualClock};

fn setup() -> Arc<MetadataManager> {
    MetadataManager::new(VirtualClock::shared())
}

fn key(item: &str) -> MetadataKey {
    MetadataKey::new(NodeId(1), item)
}

fn counter_registry() -> (Arc<NodeRegistry>, Arc<AtomicU64>) {
    let reg = NodeRegistry::new(NodeId(1));
    let state = Arc::new(AtomicU64::new(7));
    let s = state.clone();
    reg.define(
        ItemDef::triggered("x")
            .on_event("bump")
            .compute(move |_| MetadataValue::U64(s.load(Ordering::SeqCst)))
            .build(),
    );
    (reg, state)
}

/// Dropping a subscription whose handler a concurrent force-exclusion
/// already removed must be an idempotent no-op — this used to panic at
/// `expect("present")` in the removal path.
#[test]
fn unsubscribe_after_force_exclusion_is_idempotent() {
    let mgr = setup();
    let (reg, _) = counter_registry();
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key("x")).unwrap();
    assert_eq!(mgr.handler_count(), 1);

    assert!(mgr.force_exclude(&key("x")), "handler removed");
    assert!(!mgr.force_exclude(&key("x")), "second exclusion is a no-op");
    assert_eq!(mgr.handler_count(), 0);

    // The panic site: the drop must notice its handler is gone and not
    // debit anyone else's refcount.
    drop(sub);
    assert_eq!(mgr.handler_count(), 0);

    // A fresh inclusion after the race starts a clean incarnation.
    let fresh = mgr.subscribe(key("x")).unwrap();
    assert_eq!(fresh.get(), MetadataValue::U64(7));
    assert!(!fresh.is_excluded());
}

/// A force-exclusion must not leave outstanding handles panicking: the
/// drop of the *last* pre-exclusion subscription races the exclusion's
/// own refcount collapse, and both orders must settle at zero handlers.
#[test]
fn exclusion_racing_the_last_unsubscribe_settles_cleanly() {
    let mgr = setup();
    let (reg, _) = counter_registry();
    mgr.attach_node(reg);
    for _ in 0..100 {
        let sub = mgr.subscribe(key("x")).unwrap();
        let m = mgr.clone();
        let racer = std::thread::spawn(move || {
            m.force_exclude(&key("x"));
        });
        drop(sub);
        racer.join().expect("force_exclude must not panic");
        assert_eq!(mgr.handler_count(), 0, "no leaked handler");
        assert!(!mgr.is_included(&key("x")));
    }
}

/// Reads and clones over a force-excluded item surface the exclusion
/// instead of panicking: plain reads keep the last good value marked
/// degraded, fallible reads report `Err(Excluded)`, and clones pin the
/// same defunct handler.
#[test]
fn reads_and_clones_surface_exclusion_instead_of_panicking() {
    let mgr = setup();
    let (reg, state) = counter_registry();
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key("x")).unwrap();
    assert_eq!(sub.get(), MetadataValue::U64(7));
    assert!(sub.try_versioned().is_ok());

    state.store(9, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(NodeId(1), "bump"));
    assert_eq!(sub.get(), MetadataValue::U64(9));

    assert!(mgr.force_exclude(&key("x")));

    // Tolerant consumers keep the last good value, marked degraded.
    assert!(sub.is_excluded());
    assert_eq!(sub.get(), MetadataValue::U64(9));
    assert!(sub.versioned().degraded);
    // Strict consumers get the error.
    assert_eq!(sub.try_versioned(), Err(MetadataError::Excluded(key("x"))));

    // Cloning used to panic; now the clone shares the defunct handler.
    let clone = sub.clone();
    assert!(clone.is_excluded());
    assert_eq!(clone.get(), MetadataValue::U64(9));
    assert_eq!(
        clone.try_versioned(),
        Err(MetadataError::Excluded(key("x")))
    );

    // Both drops are no-ops against the already-removed handler, even
    // with a fresh incarnation in place.
    let fresh = mgr.subscribe(key("x")).unwrap();
    drop(sub);
    drop(clone);
    assert!(
        !fresh.is_excluded(),
        "fresh incarnation must not be debited"
    );
    assert_eq!(fresh.get(), MetadataValue::U64(9));
}

/// Epoch mode: an origin enqueued into the pending epoch whose handler
/// is force-excluded before the flush must be skipped by the sweep, not
/// panicked on — and later epochs keep flowing.
#[test]
fn epoch_flush_skips_origins_excluded_mid_epoch() {
    let mgr = setup();
    let (reg, state) = counter_registry();
    let s = state.clone();
    reg.define(
        ItemDef::triggered("y")
            .dep_local("x")
            .compute(move |ctx| match ctx.dep("x").as_u64() {
                Some(x) => MetadataValue::U64(x + s.load(Ordering::SeqCst)),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    mgr.attach_node(reg);
    let y = mgr.subscribe(key("y")).unwrap();
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 100,
        max_delay: TimeSpan(u64::MAX),
    }));

    // Store `x` inside the open epoch: the origin is enqueued, the
    // recompute of `y` deferred.
    state.store(10, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(NodeId(1), "bump"));
    assert!(mgr.pending_update_count() > 0, "origin enqueued");

    // The origin's handler vanishes mid-epoch (`y` keeps its own).
    assert!(mgr.force_exclude(&key("x")));

    // The flush must sweep without panicking on the vanished origin.
    mgr.flush_epoch();
    assert_eq!(mgr.pending_update_count(), 0);

    // Later epochs keep flowing for the surviving item.
    mgr.fire_event(EventKey::new(NodeId(1), "bump"));
    mgr.flush_epoch();
    drop(y);
    assert_eq!(mgr.handler_count(), 0);
}

/// Fuzz: readers, cloners, subscribers, force-excluders and
/// undefiners all race over one item. The only assertion that matters
/// is zero panics — every thread must run its full schedule.
#[test]
fn concurrent_lifecycle_fuzz_never_panics() {
    const ITERS: usize = 2000;
    let mgr = setup();
    let (reg, _) = counter_registry();
    mgr.attach_node(reg.clone());

    let mut threads = Vec::new();
    // Reader/cloner threads.
    for _ in 0..3 {
        let m = mgr.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..ITERS {
                if let Ok(sub) = m.subscribe(key("x")) {
                    let _ = sub.get();
                    let _ = sub.try_versioned();
                    let clone = sub.clone();
                    let _ = clone.versioned();
                    drop(sub);
                    let _ = clone.is_excluded();
                }
            }
        }));
    }
    // Force-excluder.
    {
        let m = mgr.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..ITERS {
                let _ = m.force_exclude(&key("x"));
            }
        }));
    }
    // Undefiner/redefiner: refused with `ItemInUse` while a handler is
    // live, so it only wins in the gaps — exactly the interleaving the
    // sweep hardened.
    {
        let m = mgr.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..ITERS {
                if m.undefine(NodeId(1), &"x".into()).is_ok() {
                    let _ = m.redefine(
                        NodeId(1),
                        ItemDef::triggered("x")
                            .on_event("bump")
                            .compute(|_| MetadataValue::U64(1))
                            .build(),
                    );
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("no fuzz thread may panic");
    }
}

/// Every `Counter`-kind metric, read through `metrics()`, only ever
/// grows while subscribers, readers, droppers and a force-excluder race
/// over a two-item cascade. `accesses` used to go down: the handler
/// walk and the load of the retired-access total were two critical
/// sections, so an exclusion folding in between was counted twice in
/// one scan and once in the next. At quiescence, `accesses` and
/// `fast_reads` equal the reads performed: a read that reached its
/// handler after an exclusion folded the handler's count used to be
/// counted nowhere.
#[test]
fn counter_metrics_never_decrease_under_churn() {
    const ITERS: usize = 2000;
    let mgr = setup();
    let (reg, _) = counter_registry();
    reg.define(
        ItemDef::triggered("y")
            .dep_local("x")
            .compute(|ctx| ctx.dep("x"))
            .build(),
    );
    mgr.attach_node(reg);
    let counters: Vec<Metric> = Metric::ALL
        .iter()
        .copied()
        .filter(|m| m.kind() == MetricKind::Counter)
        .collect();
    let read = |mgr: &MetadataManager| -> Vec<Option<u64>> {
        let all = mgr.metrics();
        counters
            .iter()
            .map(|c| all.iter().find(|(m, _)| m == c).expect("in the table").1)
            .collect()
    };

    let done = AtomicU64::new(0);
    let (cached_reads, key_reads) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..2 {
            let (mgr, done) = (&mgr, &done);
            let (cached_reads, key_reads) = (&cached_reads, &key_reads);
            s.spawn(move || {
                for i in 0..ITERS {
                    let item = if (t + i) % 2 == 0 { "x" } else { "y" };
                    if let Ok(sub) = mgr.subscribe(key(item)) {
                        let _ = sub.get();
                        cached_reads.fetch_add(1, Ordering::Relaxed);
                        if mgr.read(&key(item)).is_ok() {
                            key_reads.fetch_add(1, Ordering::Relaxed);
                        }
                        drop(sub);
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let (mgr, done) = (&mgr, &done);
            s.spawn(move || {
                for i in 0..ITERS {
                    let _ = mgr.force_exclude(&key(if i % 2 == 0 { "x" } else { "y" }));
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let mut last = read(&mgr);
        while done.load(Ordering::SeqCst) < 3 {
            let now = read(&mgr);
            for ((metric, before), after) in counters.iter().zip(&last).zip(&now) {
                assert!(
                    after >= before,
                    "{metric:?} went down from {before:?} to {after:?}"
                );
            }
            last = now;
        }
    });
    let (cached_reads, key_reads) = (cached_reads.into_inner(), key_reads.into_inner());
    assert_eq!(mgr.metric(Metric::FastReads), Some(cached_reads));
    assert_eq!(mgr.metric(Metric::Accesses), Some(cached_reads + key_reads));
}

/// Catalog scans racing inclusion and exclusion: each scan of
/// `sys.handlers` is one handler set in strict key order, never a
/// snapshot cached for one set and served after another was installed
/// (that shows as a duplicate or out-of-order key). Nodes 9, 10 and 100
/// sort differently as numbers and as text.
#[test]
fn catalog_scans_racing_churn_stay_key_ordered() {
    const ITERS: usize = 300;
    let mgr = setup();
    let nodes = [NodeId(9), NodeId(10), NodeId(100)];
    for node in nodes {
        let reg = NodeRegistry::new(node);
        reg.define(ItemDef::static_value("a", 1u64));
        reg.define(
            ItemDef::triggered("b")
                .dep_local("a")
                .compute(|ctx| ctx.dep("a"))
                .build(),
        );
        mgr.attach_node(reg);
    }
    let _held = mgr.subscribe(MetadataKey::new(NodeId(10), "a")).unwrap();
    let done = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..2 {
            let (mgr, done) = (&mgr, &done);
            s.spawn(move || {
                for i in 0..ITERS {
                    let node = nodes[(t + i) % nodes.len()];
                    let item = if i % 2 == 0 { "a" } else { "b" };
                    let sub = mgr.subscribe(MetadataKey::new(node, item)).unwrap();
                    let _ = sub.get();
                    drop(sub);
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..2 {
            let (mgr, done) = (&mgr, &done);
            s.spawn(move || {
                let mut scans = 0;
                while done.load(Ordering::SeqCst) < 2 || scans < ITERS / 10 {
                    let rows = mgr.catalog_rows(SystemRelation::Handlers);
                    let keys: Vec<(u64, &str)> = rows
                        .iter()
                        .map(|row| (row[1].as_u64().unwrap(), row[2].as_text().unwrap()))
                        .collect();
                    assert!(
                        keys.windows(2).all(|pair| pair[0] < pair[1]),
                        "not strictly key-ordered: {keys:?}"
                    );
                    assert!(keys.contains(&(10, "a")), "the held item is missing");
                    scans += 1;
                }
            });
        }
    });
    assert_eq!(mgr.handler_count(), 1);
    assert_eq!(mgr.catalog_rows(SystemRelation::Handlers).len(), 1);
}
