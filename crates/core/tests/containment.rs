//! Chaos tests of the failure-containment layer: deadlines, bounded
//! retry with exponential backoff, quarantine with stale serving, and
//! the fault-injection harness driving them — all under virtual time,
//! so every schedule is deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    FallbackPolicy, FaultAction, FaultPlan, FaultSchedule, ItemDef, MetadataError, MetadataKey,
    MetadataManager, MetadataValue, NodeId, NodeRegistry, RingBufferSink, TraceEvent,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    (clock, manager)
}

fn key(item: &str) -> MetadataKey {
    MetadataKey::new(NodeId(1), item)
}

const POLICY: FallbackPolicy = FallbackPolicy {
    max_retries: 2,
    backoff: TimeSpan(3),
    quarantine_after: 3,
    cool_down: TimeSpan(100),
};

/// A periodic item (window 10) whose compute panics while `broken` is
/// non-zero; successful evaluations return the evaluation count.
fn flaky_registry(broken: Arc<AtomicU64>) -> (Arc<NodeRegistry>, Arc<AtomicU64>) {
    let reg = NodeRegistry::new(NodeId(1));
    let evals = Arc::new(AtomicU64::new(0));
    let e = evals.clone();
    reg.define(
        ItemDef::periodic("flaky", TimeSpan(10))
            .fallback(POLICY)
            .compute(move |_| {
                let n = e.fetch_add(1, Ordering::SeqCst) + 1;
                if broken.load(Ordering::SeqCst) != 0 {
                    panic!("injected");
                }
                MetadataValue::U64(n)
            })
            .build(),
    );
    (reg, evals)
}

#[test]
fn failure_serves_last_good_value_marked_degraded() {
    let (clock, mgr) = setup();
    let broken = Arc::new(AtomicU64::new(0));
    let (reg, _) = flaky_registry(broken.clone());
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key("flaky")).unwrap();
    // Healthy first window: value 2 (initial eval + boundary eval).
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    let healthy = sub.versioned();
    assert!(!healthy.degraded);
    assert_eq!(healthy.value, MetadataValue::U64(2));

    // Break the compute: the next boundary fails, but consumers keep the
    // last good value — marked degraded, with an explicit staleness bound.
    broken.store(1, Ordering::SeqCst);
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    let degraded = sub.versioned();
    assert_eq!(degraded.value, MetadataValue::U64(2), "last good value");
    assert!(degraded.degraded);
    assert_eq!(degraded.version, healthy.version, "no version bump");
    assert_eq!(degraded.staleness(clock.now()), Some(TimeSpan(10)));
    // read_fresh refuses the stale value explicitly.
    assert_eq!(
        mgr.read_fresh(&key("flaky")),
        Err(MetadataError::Degraded(key("flaky")))
    );
}

#[test]
fn retries_back_off_exponentially_and_stop_at_the_bound() {
    let (clock, mgr) = setup();
    let broken = Arc::new(AtomicU64::new(1));
    let (reg, evals) = flaky_registry(broken.clone());
    mgr.attach_node(reg);
    let sink = RingBufferSink::new(256);
    mgr.set_trace_sink(Some(sink.clone()));
    let _sub = mgr.subscribe(key("flaky")).unwrap();
    // The inclusion-time evaluation failed (attempt 1 of the episode);
    // retries fire at +3 and then +3*2=6 later, and max_retries=2 stops
    // the episode before the third failure would quarantine.
    assert_eq!(evals.load(Ordering::SeqCst), 1);
    clock.advance(TimeSpan(3));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(evals.load(Ordering::SeqCst), 2, "first retry at +3");
    clock.advance(TimeSpan(6));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(evals.load(Ordering::SeqCst), 3, "second retry at +3+6");
    assert_eq!(mgr.stats().retries, 2);
    // Third failure reached quarantine_after=3: the breaker tripped, so
    // the t=10 boundary refresh is skipped entirely.
    assert_eq!(mgr.stats().quarantine_trips, 1);
    clock.advance(TimeSpan(1));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(evals.load(Ordering::SeqCst), 3, "no evaluation while open");

    let delays: Vec<TimeSpan> = sink
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::RetryScheduled { delay, .. } => Some(delay),
            _ => None,
        })
        .collect();
    assert_eq!(delays, vec![TimeSpan(3), TimeSpan(6)]);
}

#[test]
fn quarantine_trips_blocks_computes_and_recovers_after_cool_down() {
    let (clock, mgr) = setup();
    let broken = Arc::new(AtomicU64::new(1));
    let (reg, evals) = flaky_registry(broken.clone());
    mgr.attach_node(reg);
    let sink = RingBufferSink::new(256);
    mgr.set_trace_sink(Some(sink.clone()));
    let sub = mgr.subscribe(key("flaky")).unwrap();
    // Drive through the retry episode into quarantine (see above).
    clock.advance(TimeSpan(9));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(mgr.stats().quarantine_trips, 1);
    assert!(mgr.is_key_quarantined(&key("flaky")));
    assert_eq!(
        mgr.read_fresh(&key("flaky")),
        Err(MetadataError::Quarantined(key("flaky")))
    );
    // While the circuit is open, boundary refreshes are skipped: no
    // evaluation happens for the whole cool-down.
    let before = evals.load(Ordering::SeqCst);
    clock.advance(TimeSpan(90));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(evals.load(Ordering::SeqCst), before);
    // Heal the compute; the probe at the end of the cool-down recovers.
    broken.store(0, Ordering::SeqCst);
    clock.advance(TimeSpan(20));
    mgr.periodic().advance_to(clock.now());
    assert!(!mgr.is_key_quarantined(&key("flaky")));
    let v = sub.versioned();
    assert!(!v.degraded, "healthy again after the probe");
    assert!(mgr.read_fresh(&key("flaky")).is_ok());
    let kinds: Vec<&'static str> = sink.snapshot().iter().map(|r| r.event.kind()).collect();
    assert!(kinds.contains(&"quarantine_tripped"));
    assert!(kinds.contains(&"quarantine_recovered"));
}

#[test]
fn failed_probe_re_trips_the_breaker() {
    let (clock, mgr) = setup();
    let broken = Arc::new(AtomicU64::new(1));
    let (reg, evals) = flaky_registry(broken.clone());
    mgr.attach_node(reg);
    let _sub = mgr.subscribe(key("flaky")).unwrap();
    clock.advance(TimeSpan(9));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(mgr.stats().quarantine_trips, 1);
    let probes_before = evals.load(Ordering::SeqCst);
    // Still broken at the end of the cool-down: the probe fails once and
    // the breaker re-trips for another cool-down.
    clock.advance(TimeSpan(101));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(evals.load(Ordering::SeqCst), probes_before + 1);
    assert_eq!(mgr.stats().quarantine_trips, 2);
    assert!(mgr.is_key_quarantined(&key("flaky")));
}

#[test]
fn deadline_without_policy_is_observation_only() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::on_demand("slow")
            .deadline(TimeSpan(5))
            .compute(|_| MetadataValue::U64(9))
            .build(),
    );
    mgr.attach_node(reg);
    let c = clock.clone();
    let plan = FaultPlan::new()
        .inject(
            key("slow"),
            FaultSchedule::Always,
            FaultAction::Delay(TimeSpan(8)),
        )
        .with_delayer(move |d| {
            c.advance(d);
        });
    mgr.set_fault_plan(Some(Arc::new(plan)));
    let sub = mgr.subscribe(key("slow")).unwrap();
    // The evaluation overruns its 5-unit budget (the injected delay
    // advances the very clock deadlines are measured against), but with
    // no fallback policy the late value is still stored.
    assert_eq!(sub.get(), MetadataValue::U64(9));
    assert_eq!(mgr.stats().deadline_overruns, 1);
    mgr.set_fault_plan(None);
    assert!(!sub.versioned().degraded);
    assert_eq!(mgr.stats().deadline_overruns, 1);
}

#[test]
fn deadline_overrun_with_policy_discards_the_late_value() {
    let (clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    let evals = Arc::new(AtomicU64::new(0));
    let e = evals.clone();
    reg.define(
        ItemDef::on_demand("slow")
            .deadline(TimeSpan(5))
            .fallback(POLICY)
            .compute(move |_| MetadataValue::U64(e.fetch_add(1, Ordering::SeqCst) + 1))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key("slow")).unwrap();
    // First read is healthy and stores 1.
    assert_eq!(sub.get(), MetadataValue::U64(1));
    // Make every second evaluation slow: its (late) result is discarded
    // and the consumer keeps the last good value, degraded.
    let c = clock.clone();
    let plan = FaultPlan::new()
        .inject(
            key("slow"),
            FaultSchedule::Always,
            FaultAction::Delay(TimeSpan(8)),
        )
        .with_delayer(move |d| {
            c.advance(d);
        });
    mgr.set_fault_plan(Some(Arc::new(plan)));
    let v = sub.versioned();
    assert_eq!(v.value, MetadataValue::U64(1), "late result discarded");
    assert!(v.degraded);
    assert!(mgr.stats().stale_serves > 0);
    // Healthy again once the faults stop: next access recomputes.
    mgr.set_fault_plan(None);
    let v = sub.versioned();
    assert!(!v.degraded);
}

#[test]
fn error_faults_with_policy_degrade_instead_of_clobbering() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::on_demand("probe")
            .fallback(POLICY)
            .compute(|_| MetadataValue::U64(4))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key("probe")).unwrap();
    assert_eq!(sub.get(), MetadataValue::U64(4));
    // From now on the source is "unavailable" (a dead remote): without a
    // policy that would overwrite the value; with one it degrades.
    let plan = FaultPlan::new().inject(key("probe"), FaultSchedule::Always, FaultAction::Error);
    mgr.set_fault_plan(Some(Arc::new(plan)));
    let v = sub.versioned();
    assert_eq!(v.value, MetadataValue::U64(4));
    assert!(v.degraded);
}

#[test]
fn policy_less_items_keep_pre_containment_semantics() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::on_demand("boom")
            .compute(|_| panic!("intentional"))
            .build(),
    );
    mgr.attach_node(reg);
    let sub = mgr.subscribe(key("boom")).unwrap();
    // No policy: the panic is contained and `Unavailable` is stored, the
    // pre-containment behaviour. Nothing is degraded, nothing retries.
    assert_eq!(sub.get(), MetadataValue::Unavailable);
    assert_eq!(mgr.stats().compute_failures, 1);
    assert!(!sub.versioned().degraded);
    assert_eq!(mgr.stats().retries, 0);
    assert_eq!(mgr.stats().quarantine_trips, 0);
}

#[test]
fn meta_items_reflect_containment_state() {
    let (clock, mgr) = setup();
    let broken = Arc::new(AtomicU64::new(1));
    let (reg, _) = flaky_registry(broken);
    mgr.attach_node(reg);
    mgr.install_meta_node(TimeSpan(10));
    let meta = |name: &str| MetadataKey::new(streammeta_core::META_NODE, name);
    let retries = mgr.subscribe(meta("meta.retries")).unwrap();
    let quarantined = mgr.subscribe(meta("meta.quarantined")).unwrap();
    let stale = mgr.subscribe(meta("meta.stale_serves")).unwrap();
    let sub = mgr.subscribe(key("flaky")).unwrap();
    clock.advance(TimeSpan(9));
    mgr.periodic().advance_to(clock.now());
    let _ = sub.versioned(); // one degraded read
    assert_eq!(retries.get().as_u64(), Some(2));
    assert_eq!(quarantined.get().as_u64(), Some(1));
    assert!(stale.get().as_u64().unwrap() >= 1);
}

#[test]
fn redefine_all_refuses_whole_batch_when_any_item_is_live() {
    let (_clock, mgr) = setup();
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(ItemDef::static_value("a", 1u64));
    reg.define(ItemDef::static_value("b", 2u64));
    mgr.attach_node(reg.clone());
    let _sub = mgr.subscribe(key("b")).unwrap();
    // `b` is live, so the whole batch is refused — `a` keeps its old
    // definition too (atomicity).
    let err = mgr
        .redefine_all(
            NodeId(1),
            vec![
                ItemDef::static_value("a", 10u64),
                ItemDef::static_value("b", 20u64),
            ],
        )
        .unwrap_err();
    assert_eq!(err, MetadataError::ItemInUse(key("b")));
    drop(_sub);
    let a = mgr.subscribe(key("a")).unwrap();
    assert_eq!(a.get().as_u64(), Some(1), "old definition kept");
    drop(a);
    // With nothing live the batch goes through.
    mgr.redefine_all(
        NodeId(1),
        vec![
            ItemDef::static_value("a", 10u64),
            ItemDef::static_value("b", 20u64),
        ],
    )
    .unwrap();
    let a = mgr.subscribe(key("a")).unwrap();
    assert_eq!(a.get().as_u64(), Some(10));
}
