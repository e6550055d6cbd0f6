//! End-to-end lock-order auditing: records real acquisition logs from
//! `streammeta-core` (compiled here with the `lock-audit` feature) and
//! replays them through [`streammeta_analyze::lockorder`].
//!
//! Two directions:
//!
//! * a representative manager workload — subscriptions with transitive
//!   inclusion, trigger propagation, epoch-batched flushes, periodic
//!   refreshes, failure containment through quarantine and recovery —
//!   must produce **zero** violations;
//! * a deliberately inverted acquisition (a low-ranked tier taken while
//!   a high-ranked one is held) must be **flagged**, proving the
//!   detector actually fires on real recordings, not only on synthetic
//!   event streams.
//!
//! The recorder is process-global, so the tests serialize on a local
//! mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use streammeta_analyze::lockorder::{self, LockOrderRule};
use streammeta_core::sync::{TieredMutex, TieredRwLock};
use streammeta_core::{
    lock_audit, EpochConfig, FallbackPolicy, ItemDef, LockEvent, LockTier, MetadataKey,
    MetadataManager, MetadataValue, NodeId, NodeRegistry, PropagationMode,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

/// Serializes tests that use the process-global recorder.
fn audit_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `work` with the global recorder on and returns the event log.
fn record(work: impl FnOnce()) -> Vec<LockEvent> {
    lock_audit::start();
    work();
    lock_audit::finish()
}

#[test]
fn representative_manager_workload_has_no_lock_order_violations() {
    let _guard = audit_guard();
    let events = record(|| {
        let clock = VirtualClock::shared();
        let manager = MetadataManager::new(clock.clone());

        // Node 0: a triggered chain rate -> cost -> quality, plus a
        // periodic flaky item with full failure containment.
        let reg = NodeRegistry::new(NodeId(0));
        reg.define(
            ItemDef::triggered("rate")
                .compute(|_| MetadataValue::F64(10.0))
                .build(),
        );
        reg.define(
            ItemDef::triggered("cost")
                .dep_local("rate")
                .compute(|ctx| {
                    let rate = ctx.dep_f64("rate").unwrap_or(0.0);
                    MetadataValue::F64(rate * 2.0)
                })
                .build(),
        );
        reg.define(
            ItemDef::triggered("quality")
                .dep_local("cost")
                .compute(|ctx| MetadataValue::F64(ctx.dep_f64("cost").unwrap_or(0.0) + 1.0))
                .build(),
        );
        let broken = Arc::new(AtomicU64::new(1));
        let b = broken.clone();
        reg.define(
            ItemDef::periodic("flaky", TimeSpan(10))
                .fallback(FallbackPolicy {
                    max_retries: 1,
                    backoff: TimeSpan(2),
                    quarantine_after: 2,
                    cool_down: TimeSpan(30),
                })
                .compute(move |_| {
                    if b.load(Ordering::SeqCst) != 0 {
                        panic!("injected");
                    }
                    MetadataValue::U64(1)
                })
                .build(),
        );
        manager.attach_node(reg);

        // Transitive inclusion + per-event trigger propagation.
        let sub = manager
            .subscribe(MetadataKey::new(NodeId(0), "quality"))
            .unwrap();
        manager.notify_changed(MetadataKey::new(NodeId(0), "rate"));
        assert_eq!(sub.get_f64(), Some(21.0));

        // Epoch-batched propagation with an explicit flush.
        manager.set_propagation_mode(PropagationMode::Epoch(EpochConfig::default()));
        manager.notify_changed(MetadataKey::new(NodeId(0), "rate"));
        manager.notify_changed(MetadataKey::new(NodeId(0), "rate"));
        manager.flush_epoch();
        manager.set_propagation_mode(PropagationMode::PerEvent);

        // Containment: fail through retries into quarantine, rest out
        // the cool-down, recover via the probe.
        let _flaky = manager
            .subscribe(MetadataKey::new(NodeId(0), "flaky"))
            .unwrap();
        for _ in 0..6 {
            clock.advance(TimeSpan(10));
            manager.periodic().advance_to(clock.now());
        }
        assert!(manager.stats().quarantine_trips > 0, "quarantine exercised");
        broken.store(0, Ordering::SeqCst);
        for _ in 0..8 {
            clock.advance(TimeSpan(10));
            manager.periodic().advance_to(clock.now());
        }
        assert_eq!(manager.quarantined_count(), 0, "probe recovered");

        // Reads + introspection while handlers exist.
        let _ = manager.stats();
        let _ = manager.included_keys();
        drop(sub);
    });

    assert!(!events.is_empty(), "the audit recorded real acquisitions");
    let violations = lockorder::check(&events);
    assert!(
        violations.is_empty(),
        "expected a clean lock order, got:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn deliberate_inversion_is_flagged() {
    let _guard = audit_guard();
    let high = TieredMutex::new(LockTier::ItemValue, ());
    let low = TieredRwLock::new(LockTier::Graph, ());
    let events = record(|| {
        // Inverted: item_value (rank 8) held while graph (rank 4) is
        // acquired.
        let _v = high.lock();
        let _g = low.read();
    });
    let violations = lockorder::check(&events);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, LockOrderRule::RankInversion);
    assert!(
        violations[0].message.contains("item_value"),
        "{}",
        violations[0].message
    );
}

#[test]
fn reentry_on_one_instance_is_flagged_from_a_recording() {
    let _guard = audit_guard();
    // parking_lot mutexes deadlock on re-entry, so the recording is
    // synthesized from two guards of tiers that forbid self-nesting —
    // the same shape the audit would capture right before a deadlock.
    let a = TieredMutex::new(LockTier::Bookkeeping, ());
    let b = TieredMutex::new(LockTier::Bookkeeping, ());
    let events = record(|| {
        let _a = a.lock();
        let _b = b.lock();
    });
    let violations = lockorder::check(&events);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, LockOrderRule::RankInversion);
    assert!(
        violations[0].message.contains("self-nesting"),
        "{}",
        violations[0].message
    );
}
