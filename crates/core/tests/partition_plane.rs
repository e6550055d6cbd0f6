//! End-to-end tests of the partitioned metadata plane: cross-partition
//! dependency resolution through proxy items, link teardown on
//! exclusion, partition-unreachable degradation (fresh-or-degraded
//! serving, cool-down recovery), fault-injected flaky links, and the
//! plane's catalog relations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    EventKey, FaultAction, FaultPlan, FaultSchedule, ItemDef, MetadataKey, MetadataValue, Metric,
    NodeId, NodeRegistry, PartitionedMetadataPlane, SystemRelation,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

/// A source node publishing `rate` (triggered by the `bump` event) from
/// a shared counter.
fn source_registry(node: NodeId, state: &Arc<AtomicU64>) -> Arc<NodeRegistry> {
    let reg = NodeRegistry::new(node);
    let s = state.clone();
    reg.define(
        ItemDef::triggered("rate")
            .on_event("bump")
            .compute(move |_| MetadataValue::U64(s.load(Ordering::SeqCst)))
            .build(),
    );
    reg
}

/// A dependent node whose `double` item reads the remote `rate`.
fn dependent_registry(node: NodeId, src: NodeId) -> Arc<NodeRegistry> {
    let reg = NodeRegistry::new(node);
    reg.define(
        ItemDef::triggered("double")
            .dep_remote("r", MetadataKey::new(src, "rate"))
            .compute(|ctx| match ctx.dep("r").as_u64() {
                Some(v) => MetadataValue::U64(v * 2),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );
    reg
}

/// A plane, a source node and a dependent node guaranteed to live on
/// different partitions.
fn split_topology() -> (
    Arc<PartitionedMetadataPlane>,
    NodeId,
    NodeId,
    Arc<AtomicU64>,
    Arc<VirtualClock>,
) {
    let clock = VirtualClock::shared();
    let plane = PartitionedMetadataPlane::new(clock.clone(), 4);
    let src = NodeId(1);
    let dep = (2..200)
        .map(NodeId)
        .find(|n| plane.owner_of(*n) != plane.owner_of(src))
        .expect("some node lands on another partition");
    let state = Arc::new(AtomicU64::new(0));
    plane.attach_node(source_registry(src, &state));
    plane.attach_node(dependent_registry(dep, src));
    (plane, src, dep, state, clock)
}

fn bump(plane: &PartitionedMetadataPlane, src: NodeId, state: &AtomicU64, v: u64) {
    state.store(v, Ordering::SeqCst);
    plane.fire_event(EventKey::new(src, "bump"));
}

#[test]
fn remote_dependency_resolves_through_the_proxy() {
    let (plane, src, dep, state, _clock) = split_topology();
    assert_eq!(plane.remote_link_count(), 0, "nothing included yet");

    // Subscribing to the dependent transitively includes the local
    // proxy, which establishes the owner-side subscription.
    let sub = plane.subscribe(MetadataKey::new(dep, "double")).unwrap();
    assert_eq!(plane.remote_link_count(), 1);
    let home = plane.owner_of(dep);
    let owner = plane.owner_of(src);
    assert_eq!(
        plane.partition(home).metric(Metric::RemoteSubscriptions),
        Some(1)
    );
    assert!(
        plane.partition(owner).handler_count() >= 1,
        "the real source item is included on its owner"
    );
    assert_eq!(sub.get(), MetadataValue::U64(0), "seeded initial value");

    // An owner-side update flows over the channel on the next pump.
    bump(&plane, src, &state, 5);
    assert_eq!(sub.get(), MetadataValue::U64(0), "not applied before pump");
    assert!(plane.pump() >= 1);
    assert_eq!(sub.get(), MetadataValue::U64(10));

    // Proxy versions are monotone across updates.
    let proxy_key = MetadataKey::new(src, "rate");
    let v1 = plane.partition(home).read_versioned(&proxy_key).unwrap();
    bump(&plane, src, &state, 6);
    plane.pump();
    let v2 = plane.partition(home).read_versioned(&proxy_key).unwrap();
    assert!(v2.version > v1.version);
    assert_eq!(sub.get(), MetadataValue::U64(12));

    // Dropping the dependent cascades: proxy excluded, link released,
    // owner-side inclusion withdrawn.
    drop(sub);
    assert_eq!(plane.remote_link_count(), 0);
    assert_eq!(
        plane.partition(home).metric(Metric::RemoteSubscriptions),
        Some(0)
    );
    assert_eq!(plane.partition(home).handler_count(), 0);
    assert_eq!(plane.partition(owner).handler_count(), 0);
}

#[test]
fn dead_link_serves_fresh_or_degraded_and_recovers() {
    let (plane, src, dep, state, _clock) = split_topology();
    let sub = plane.subscribe(MetadataKey::new(dep, "double")).unwrap();
    let home = plane.owner_of(dep);
    let owner = plane.owner_of(src);
    let proxy_key = MetadataKey::new(src, "rate");

    bump(&plane, src, &state, 5);
    plane.pump();
    let healthy = plane.partition(home).read_versioned(&proxy_key).unwrap();
    assert_eq!(healthy.value, MetadataValue::U64(5));
    assert!(!healthy.degraded);

    // Partition failure: the proxy immediately degrades to its last
    // good value instead of serving nothing or lying.
    plane.kill_partition(owner);
    assert!(!plane.is_link_up(owner));
    let degraded = plane.partition(home).read_versioned(&proxy_key).unwrap();
    assert_eq!(degraded.value, MetadataValue::U64(5), "last good value");
    assert!(degraded.degraded);
    assert_eq!(sub.get(), MetadataValue::U64(10), "dependent keeps serving");

    // Owner-side updates during the outage are lost in transit; the
    // proxy stays on its degraded last-good value.
    bump(&plane, src, &state, 7);
    assert_eq!(plane.pump(), 0, "message dropped on the dead link");
    let still = plane.partition(home).read_versioned(&proxy_key).unwrap();
    assert_eq!(still.value, MetadataValue::U64(5));
    assert!(still.degraded);

    // Recovery re-seeds from the owner's current state: the missed
    // update is caught up and the degraded episode ends.
    plane.revive_partition(owner);
    let recovered = plane.partition(home).read_versioned(&proxy_key).unwrap();
    assert_eq!(recovered.value, MetadataValue::U64(7));
    assert!(!recovered.degraded);
    assert!(
        recovered.version > healthy.version,
        "monotone across outage"
    );
    assert_eq!(sub.get(), MetadataValue::U64(14));
}

#[test]
fn flaky_link_reads_stay_fresh_or_degraded_under_fault_plan() {
    let (plane, src, dep, state, _clock) = split_topology();
    let sub = plane.subscribe(MetadataKey::new(dep, "double")).unwrap();
    let home = plane.owner_of(dep);
    let proxy_key = MetadataKey::new(src, "rate");
    bump(&plane, src, &state, 1);
    plane.pump();

    // Every second proxy refresh fails: a flaky (not dead) link. The
    // PR 4 containment machinery turns each failure into degraded
    // last-good serving — never an unavailable or stale-silent read.
    let plan = FaultPlan::new().inject(
        proxy_key.clone(),
        FaultSchedule::EveryNth(2),
        FaultAction::Error,
    );
    plane.partition(home).set_fault_plan(Some(Arc::new(plan)));

    let mut last_fresh = 1u64;
    for i in 2..=12u64 {
        bump(&plane, src, &state, i);
        plane.pump();
        let v = plane.partition(home).read_versioned(&proxy_key).unwrap();
        match v.value {
            MetadataValue::U64(got) => {
                if v.degraded {
                    assert_eq!(got, last_fresh, "degraded read serves last good");
                } else {
                    assert_eq!(got, i, "fresh read serves the current value");
                    last_fresh = i;
                }
            }
            other => panic!("read must stay fresh-or-degraded, got {other:?}"),
        }
    }
    assert!(
        plane.partition(home).stats().stale_serves > 0,
        "some reads were served degraded"
    );
    drop(sub);
}

#[test]
fn plane_catalog_relations_reflect_links_and_reachability() {
    let (plane, src, dep, _state, _clock) = split_topology();
    let home = plane.owner_of(dep);
    let owner = plane.owner_of(src);

    let parts = plane.partition(0).catalog_rows(SystemRelation::Partitions);
    assert_eq!(parts.len(), 4);
    // No links before anything subscribes.
    assert!(plane
        .partition(0)
        .catalog_rows(SystemRelation::RemoteSubscriptions)
        .is_empty());

    let sub = plane.subscribe(MetadataKey::new(dep, "double")).unwrap();
    let links = plane
        .partition(home)
        .catalog_rows(SystemRelation::RemoteSubscriptions);
    assert_eq!(links.len(), 1);
    let row = &links[0];
    assert_eq!(
        row[0],
        MetadataValue::text(MetadataKey::new(src, "rate").to_string())
    );
    assert_eq!(row[1], MetadataValue::U64(home as u64));
    assert_eq!(row[2], MetadataValue::U64(owner as u64));
    assert_eq!(row[3], MetadataValue::text("up"));

    plane.kill_partition(owner);
    let links = plane
        .partition(home)
        .catalog_rows(SystemRelation::RemoteSubscriptions);
    assert_eq!(links[0][3], MetadataValue::text("down"));
    let parts = plane
        .partition(home)
        .catalog_rows(SystemRelation::Partitions);
    assert_eq!(parts[owner][4], MetadataValue::Bool(false));
    plane.revive_partition(owner);
    drop(sub);

    // A stand-alone manager serves the same relations as empty sets.
    let lone = streammeta_core::MetadataManager::new(VirtualClock::shared());
    assert!(lone.catalog_rows(SystemRelation::Partitions).is_empty());
    assert!(lone
        .catalog_rows(SystemRelation::RemoteSubscriptions)
        .is_empty());
}

#[test]
fn periodic_proxy_probes_recover_quarantined_links() {
    // Drive the failure far enough to trip the proxy's quarantine
    // breaker, then verify the cool-down probe recovers it once the
    // partition is reachable again.
    let (plane, src, dep, state, clock) = split_topology();
    let sub = plane.subscribe(MetadataKey::new(dep, "double")).unwrap();
    let home = plane.owner_of(dep);
    let owner = plane.owner_of(src);
    let proxy_key = MetadataKey::new(src, "rate");
    bump(&plane, src, &state, 3);
    plane.pump();

    plane.kill_partition(owner);
    // Failure 1 is the kill-time re-trigger; walk the retry/backoff
    // ladder (and keep re-triggering) until the breaker trips.
    for _ in 0..6 {
        clock.advance(TimeSpan(10));
        plane.tick(clock.now());
        plane.partitions()[home].fire_event(EventKey::new(src, "rate.__remote".to_string()));
    }
    assert!(
        plane.partition(home).stats().quarantine_trips >= 1,
        "repeated link failures must trip the proxy breaker"
    );
    let v = plane.partition(home).read_versioned(&proxy_key).unwrap();
    assert_eq!(v.value, MetadataValue::U64(3));
    assert!(v.degraded, "quarantined proxy serves degraded last-good");

    // Revive, then advance past the cool-down: the probe sees a live
    // cell and recovers.
    plane.revive_partition(owner);
    clock.advance(TimeSpan(200));
    plane.tick(clock.now());
    let recovered = plane.partition(home).read_versioned(&proxy_key).unwrap();
    assert!(!recovered.degraded, "cool-down probe recovered the proxy");
    assert_eq!(recovered.value, MetadataValue::U64(3));
    assert_eq!(sub.get(), MetadataValue::U64(6));
}
