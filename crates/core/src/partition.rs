//! Partitioned metadata plane (distributed operation, paper Section 5).
//!
//! A [`PartitionedMetadataPlane`] shards the metadata graph over N
//! in-process [`MetadataManager`] partitions behind a consistent-hash
//! router: every [`NodeId`] is owned by exactly one partition, and a
//! node's registry, handlers and propagation all live there.
//!
//! Cross-partition dependencies are resolved by a **remote-subscription
//! protocol** over message channels. When a node's definitions declare a
//! [`DepTarget::Remote`] dependency on an item owned by another
//! partition, the plane pre-installs a *proxy item* — a `Triggered`
//! definition under the remote item's own key — on the dependent's
//! partition. Including the proxy establishes a real subscription on the
//! owner partition whose observer forwards every stored value (with its
//! version and causal span context) over an mpsc channel; the plane's
//! [`PartitionedMetadataPlane::pump`] applies the message to the proxy's
//! cell and fires the proxy's local trigger event *linked to the remote
//! span*, so lineage (and the trace linter's per-item monotonicity
//! checks) hold across the partition boundary.
//!
//! Degradation reuses the single-manager failure-containment machinery:
//! a proxy item carries a [`FallbackPolicy`], and its compute function
//! returns `Unavailable` while the owner partition's link is down
//! ([`PartitionedMetadataPlane::kill_partition`]). That counts as a
//! compute failure, so the proxy serves its last good value marked
//! degraded, trips the quarantine breaker after repeated failures, and
//! recovers via the cool-down probe once
//! [`PartitionedMetadataPlane::revive_partition`] re-seeds the cell —
//! reads through a dead link are therefore always *fresh-or-degraded*,
//! never silently wrong.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use streammeta_time::{ClockRef, TimeSpan, Timestamp};

use crate::catalog::{LinkRow, PartitionRow};
use crate::item::{DepTarget, FallbackPolicy, ItemDef};
use crate::key::{EventKey, ItemPath, MetadataKey, NodeId};
use crate::manager::MetadataManager;
use crate::metrics::Metric;
use crate::registry::NodeRegistry;
use crate::subscription::Subscription;
use crate::trace::SpanContext;
use crate::value::{MetadataValue, VersionedValue};
use crate::Result;

/// Suffix of the synthetic local event a proxy item listens on. The
/// plane fires `<item>.__remote` on the proxy's shadow node whenever an
/// update message for the item arrives.
const PROXY_EVENT_SUFFIX: &str = ".__remote";

fn proxy_event(key: &MetadataKey) -> EventKey {
    EventKey::new(
        key.node,
        ItemPath::new(format!("{}{PROXY_EVENT_SUFFIX}", key.item)),
    )
}

// ---------------------------------------------------------------------
// Consistent-hash router
// ---------------------------------------------------------------------

/// FNV-1a, the classic dependency-free 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over partitions with virtual nodes: each
/// partition owns `vnodes` points on the ring and a [`NodeId`] is owned
/// by the partition of the first point at or after its hash. Adding a
/// partition moves only `~1/N` of the keyspace.
struct Ring {
    /// `(point, partition)` sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    fn new(partitions: usize, vnodes: usize) -> Ring {
        assert!(partitions > 0, "plane needs at least one partition");
        assert!(vnodes > 0, "consistent-hash ring needs virtual nodes");
        let mut points = Vec::with_capacity(partitions * vnodes);
        for p in 0..partitions {
            for v in 0..vnodes {
                let mut tag = [0u8; 16];
                tag[..8].copy_from_slice(&(p as u64).to_le_bytes());
                tag[8..].copy_from_slice(&(v as u64).to_le_bytes());
                points.push((fnv1a(&tag), p));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(h, _)| *h);
        Ring { points }
    }

    fn owner(&self, node: NodeId) -> usize {
        let h = fnv1a(&u64::from(node.0).to_le_bytes());
        let idx = self.points.partition_point(|(p, _)| *p < h);
        let (_, part) = self.points[idx % self.points.len()];
        part
    }
}

// ---------------------------------------------------------------------
// Remote-subscription protocol
// ---------------------------------------------------------------------

/// One cross-partition update: the owner-side observer forwards every
/// stored value of the subscribed item, with the span context of the
/// store that produced it so the receiving cascade parents to it.
struct RemoteMsg {
    key: MetadataKey,
    value: VersionedValue,
    span: Option<SpanContext>,
}

/// Shared state between a proxy item's compute function and the plane:
/// the last value received from the owner partition, plus the owner's
/// link flag. While the link is down the compute returns `Unavailable`,
/// which the proxy's [`FallbackPolicy`] converts into degraded last-good
/// serving and, eventually, quarantine.
struct ProxyCell {
    value: Mutex<VersionedValue>,
    link_up: Arc<AtomicBool>,
}

impl ProxyCell {
    fn new(link_up: Arc<AtomicBool>) -> ProxyCell {
        ProxyCell {
            value: Mutex::new(VersionedValue::unavailable()),
            link_up,
        }
    }

    fn store(&self, v: VersionedValue) {
        *self.value.lock() = v;
    }

    fn read(&self) -> MetadataValue {
        if !self.link_up.load(Ordering::Acquire) {
            return MetadataValue::Unavailable;
        }
        self.value.lock().value.clone()
    }

    fn remote_version(&self) -> u64 {
        self.value.lock().version
    }
}

/// A live cross-partition subscription link: the owner-side subscription
/// (whose observer feeds the channel), the proxy-side cell, and
/// bookkeeping for `sys.remote_subscriptions`.
struct LinkState {
    /// Keeps the owner-side handler alive; its registered observer is
    /// removed when this drops. Held only for that drop side-effect.
    _sub: Subscription,
    cell: Arc<ProxyCell>,
    owner: usize,
    updates: u64,
}

// ---------------------------------------------------------------------
// Plane
// ---------------------------------------------------------------------

/// Configuration of a [`PartitionedMetadataPlane`].
#[derive(Clone, Copy, Debug)]
pub struct PlaneConfig {
    /// Number of in-process partitions.
    pub partitions: usize,
    /// Virtual nodes per partition on the consistent-hash ring.
    pub vnodes: usize,
    /// Failure-containment policy installed on every proxy item; governs
    /// how fast a dead link degrades, quarantines, and recovers.
    pub proxy_fallback: FallbackPolicy,
}

impl PlaneConfig {
    /// A config for `partitions` partitions with default ring density
    /// and a link-tuned fallback policy (quick quarantine, short
    /// cool-down, so partition failures are detected and probed at
    /// link timescales rather than compute timescales).
    pub fn new(partitions: usize) -> PlaneConfig {
        PlaneConfig {
            partitions,
            vnodes: 16,
            proxy_fallback: FallbackPolicy {
                max_retries: 1,
                backoff: TimeSpan(5),
                quarantine_after: 3,
                cool_down: TimeSpan(100),
            },
        }
    }
}

/// N in-process [`MetadataManager`] partitions behind a consistent-hash
/// key router, with cross-partition dependencies resolved by proxy items
/// kept fresh over a remote-subscription protocol (module docs).
///
/// The plane is driven cooperatively: call
/// [`Self::tick`] (or [`Self::pump`]) from the executor loop to apply
/// queued cross-partition updates and advance every partition's periodic
/// registry and epoch queue.
pub struct PartitionedMetadataPlane {
    config: PlaneConfig,
    clock: ClockRef,
    partitions: Vec<Arc<MetadataManager>>,
    ring: Ring,
    /// Reachability flag per partition, shared with every proxy cell
    /// whose owner it is.
    link_up: Vec<Arc<AtomicBool>>,
    /// Per-partition inbox of remote updates addressed to its proxies.
    inboxes: Vec<Mutex<Receiver<RemoteMsg>>>,
    senders: Vec<Sender<RemoteMsg>>,
    /// Live links, keyed by (proxy partition, remote key).
    links: Mutex<HashMap<(usize, MetadataKey), LinkState>>,
    /// Shadow registries created for proxy items, keyed by
    /// (proxy partition, remote node).
    proxy_regs: Mutex<HashMap<(usize, NodeId), Arc<NodeRegistry>>>,
    /// Cross-partition event fan-out: partitions whose attached nodes
    /// declared a remote-event dependency on the event.
    event_fanout: Mutex<HashMap<EventKey, BTreeSet<usize>>>,
    self_weak: Weak<PartitionedMetadataPlane>,
}

impl PartitionedMetadataPlane {
    /// A plane of `partitions` partitions sharing `clock`.
    pub fn new(clock: ClockRef, partitions: usize) -> Arc<Self> {
        Self::with_config(clock, PlaneConfig::new(partitions))
    }

    /// A plane with an explicit [`PlaneConfig`].
    pub fn with_config(clock: ClockRef, config: PlaneConfig) -> Arc<Self> {
        let n = config.partitions;
        let ring = Ring::new(n, config.vnodes);
        let mut managers = Vec::with_capacity(n);
        let mut link_up = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        let mut senders = Vec::with_capacity(n);
        for i in 0..n {
            let m = MetadataManager::new(clock.clone());
            // Disjoint span-id ranges and a partition tag per manager, so
            // merged multi-partition traces keep globally unique spans
            // and per-(partition, key) monotone versions.
            m.join_plane(i as u64);
            managers.push(m);
            link_up.push(Arc::new(AtomicBool::new(true)));
            let (tx, rx) = channel();
            inboxes.push(Mutex::new(rx));
            senders.push(tx);
        }
        let plane =
            Arc::new_cyclic(
                |weak: &Weak<PartitionedMetadataPlane>| PartitionedMetadataPlane {
                    config,
                    clock,
                    partitions: managers,
                    ring,
                    link_up,
                    inboxes,
                    senders,
                    links: Mutex::new(HashMap::new()),
                    proxy_regs: Mutex::new(HashMap::new()),
                    event_fanout: Mutex::new(HashMap::new()),
                    self_weak: weak.clone(),
                },
            );
        for m in &plane.partitions {
            m.set_plane(plane.self_weak.clone());
        }
        plane
    }

    /// The shared clock.
    pub fn clock(&self) -> &ClockRef {
        &self.clock
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The partition managers, indexed by partition id.
    pub fn partitions(&self) -> &[Arc<MetadataManager>] {
        &self.partitions
    }

    /// The manager of partition `i`.
    pub fn partition(&self, i: usize) -> &Arc<MetadataManager> {
        &self.partitions[i]
    }

    /// The partition that owns `node` under the consistent-hash router.
    pub fn owner_of(&self, node: NodeId) -> usize {
        self.ring.owner(node)
    }

    /// Whether partition `i`'s link is currently up.
    pub fn is_link_up(&self, i: usize) -> bool {
        self.link_up[i].load(Ordering::Acquire)
    }

    // -----------------------------------------------------------------
    // Topology
    // -----------------------------------------------------------------

    /// Attaches a node's registry to its owner partition and pre-installs
    /// proxy items (on the *owner's own* partition) for every
    /// cross-partition dependency the registry's definitions declare —
    /// fixed `Remote` targets and every alternative a dynamic resolver
    /// may pick. Remote-event dependencies register the partition for
    /// [`Self::fire_event`] fan-out. Returns the owner partition id.
    pub fn attach_node(&self, registry: Arc<NodeRegistry>) -> usize {
        let node = registry.node();
        let home = self.ring.owner(node);
        self.partitions[home].attach_node(registry.clone());
        for def in registry.definitions() {
            for (dep, _certain) in def.analysis_deps(node) {
                match dep.target {
                    DepTarget::Remote(key) => {
                        if self.ring.owner(key.node) != home {
                            self.install_proxy(home, key);
                        }
                    }
                    DepTarget::RemoteEvent(event) => {
                        if self.ring.owner(event.node) != home {
                            self.event_fanout
                                .lock()
                                .entry(event)
                                .or_default()
                                .insert(home);
                        }
                    }
                    DepTarget::Local(_) | DepTarget::LocalEvent(_) => {}
                }
            }
        }
        home
    }

    /// Installs a proxy definition for remote item `key` on partition
    /// `home`, creating the shadow registry for `key.node` if needed.
    /// Idempotent: a second dependent on the same remote item reuses the
    /// existing proxy.
    fn install_proxy(&self, home: usize, key: MetadataKey) {
        let owner = self.ring.owner(key.node);
        debug_assert_ne!(owner, home);
        let reg = {
            let mut regs = self.proxy_regs.lock();
            match regs.get(&(home, key.node)) {
                Some(r) => r.clone(),
                None => {
                    let r = NodeRegistry::new(key.node);
                    self.partitions[home].attach_node(r.clone());
                    regs.insert((home, key.node), r.clone());
                    r
                }
            }
        };
        if reg.contains(&key.item) {
            return;
        }
        let cell = Arc::new(ProxyCell::new(self.link_up[owner].clone()));
        let compute_cell = cell.clone();
        let include_plane = self.self_weak.clone();
        let include_key = key.clone();
        let include_cell = cell.clone();
        let exclude_plane = self.self_weak.clone();
        let exclude_key = key.clone();
        let def = ItemDef::triggered(key.item.clone())
            .on_event(proxy_event(&key).name)
            .fallback(self.config.proxy_fallback)
            .compute(move |_| compute_cell.read())
            .on_include(move || {
                if let Some(plane) = include_plane.upgrade() {
                    plane.establish_link(home, include_key.clone(), &include_cell);
                }
            })
            .on_exclude(move || {
                if let Some(plane) = exclude_plane.upgrade() {
                    plane.release_link(home, &exclude_key);
                }
            })
            .doc(format!(
                "remote proxy for {key} (owner partition {owner}); kept \
                 fresh by the plane's remote-subscription protocol"
            ))
            .build();
        reg.define(def);
    }

    /// Establishes the owner-side subscription backing one proxy item:
    /// subscribes on the owner partition, registers a span-aware observer
    /// that forwards every store into `home`'s inbox, and synchronously
    /// seeds the proxy cell with the current value so the proxy's initial
    /// refresh (which runs right after this hook) starts fresh.
    fn establish_link(&self, home: usize, key: MetadataKey, cell: &Arc<ProxyCell>) {
        let owner = self.ring.owner(key.node);
        let sub = match self.partitions[owner].subscribe(key.clone()) {
            Ok(sub) => sub,
            // The owner has no such definition (yet): leave the cell
            // unavailable; the proxy degrades exactly like a dead link.
            Err(_) => return,
        };
        let tx = self.senders[home].clone();
        let fwd_key = key.clone();
        // Observer bodies run under the owner handler's observer lock:
        // they must only perform the channel send, never call back into
        // a manager or take a plane lock.
        let id = sub
            .cached_handler()
            .add_span_observer_with_snapshot(Box::new(move |v, span| {
                let _ = tx.send(RemoteMsg {
                    key: fwd_key.clone(),
                    value: v.clone(),
                    span: span.cloned(),
                });
            }));
        let sub = sub.with_observer(id);
        cell.store(sub.versioned());
        let slots = &self.partitions[home].slots;
        slots
            .slot(Metric::RemoteSubscriptions)
            .fetch_add(1, Ordering::Relaxed);
        let mut links = self.links.lock();
        links.insert(
            (home, key),
            LinkState {
                _sub: sub,
                cell: cell.clone(),
                owner,
                updates: 0,
            },
        );
    }

    /// Tears down the owner-side subscription of one proxy link. The
    /// link state is dropped *outside* the plane lock: dropping the
    /// subscription cascades an exclusion on the owner partition, which
    /// may itself release chained links.
    fn release_link(&self, home: usize, key: &MetadataKey) {
        let removed = self.links.lock().remove(&(home, key.clone()));
        if let Some(state) = removed {
            let slots = &self.partitions[home].slots;
            slots
                .slot(Metric::RemoteSubscriptions)
                .fetch_sub(1, Ordering::Relaxed);
            drop(state);
        }
    }

    // -----------------------------------------------------------------
    // Routed operations
    // -----------------------------------------------------------------

    /// Subscribes to `key` on its owner partition. Cross-partition
    /// dependencies of the item resolve against pre-installed proxies.
    pub fn subscribe(&self, key: MetadataKey) -> Result<Subscription> {
        self.partitions[self.ring.owner(key.node)].subscribe(key)
    }

    /// Reads `key` on its owner partition.
    pub fn read_versioned(&self, key: &MetadataKey) -> Result<VersionedValue> {
        self.partitions[self.ring.owner(key.node)].read_versioned(key)
    }

    /// Fires `event` on its owner partition, and on every partition that
    /// declared a cross-partition dependency on it (each fan-out firing
    /// mints its own root span on its partition).
    pub fn fire_event(&self, event: EventKey) {
        let owner = self.ring.owner(event.node);
        self.partitions[owner].fire_event(event.clone());
        let fanout: Vec<usize> = self
            .event_fanout
            .lock()
            .get(&event)
            .map(|parts| parts.iter().copied().filter(|p| *p != owner).collect())
            .unwrap_or_default();
        for part in fanout {
            self.partitions[part].fire_event(event.clone());
        }
    }

    // -----------------------------------------------------------------
    // Driving
    // -----------------------------------------------------------------

    /// Drains every partition's inbox, applying queued remote updates:
    /// stores the value into the proxy cell and fires the proxy's local
    /// trigger event linked to the remote span, so the local cascade
    /// parents to the owner-side store. Messages whose owner link is
    /// down are dropped (lost in transit); [`Self::revive_partition`]
    /// re-seeds from the owner's current state. Returns the number of
    /// messages applied.
    pub fn pump(&self) -> usize {
        let mut applied = 0;
        for (home, inbox) in self.inboxes.iter().enumerate() {
            loop {
                let msg = {
                    let rx = inbox.lock();
                    match rx.try_recv() {
                        Ok(m) => m,
                        Err(_) => break,
                    }
                };
                if self.apply_remote(home, msg) {
                    applied += 1;
                }
            }
        }
        applied
    }

    fn apply_remote(&self, home: usize, msg: RemoteMsg) -> bool {
        let cell = {
            let mut links = self.links.lock();
            let Some(state) = links.get_mut(&(home, msg.key.clone())) else {
                // Proxy excluded since the message was queued.
                return false;
            };
            if !self.link_up[state.owner].load(Ordering::Acquire) {
                return false;
            }
            state.updates += 1;
            state.cell.clone()
        };
        cell.store(msg.value);
        let mgr = &self.partitions[home];
        mgr.slots.bump(Metric::RemoteUpdates);
        mgr.fire_event_linked(proxy_event(&msg.key), msg.span.as_ref());
        true
    }

    /// One cooperative step: [`Self::pump`], then advance every
    /// partition's periodic registry (containment retries, quarantine
    /// probes, periodic items) and flush due epochs. Returns the number
    /// of remote updates applied.
    pub fn tick(&self, now: Timestamp) -> usize {
        let applied = self.pump();
        for m in &self.partitions {
            m.periodic().advance_to(now);
            m.flush_epoch_if_due(now);
        }
        applied
    }

    // -----------------------------------------------------------------
    // Partition failure
    // -----------------------------------------------------------------

    /// Marks partition `k` unreachable: every proxy whose owner is `k`
    /// starts computing `Unavailable`, serving its last good value
    /// marked degraded under its fallback policy, and quarantines after
    /// repeated failures. In-flight messages from `k` are dropped. Each
    /// affected proxy is re-triggered immediately so the degradation is
    /// visible without waiting for the next remote update.
    pub fn kill_partition(&self, k: usize) {
        self.link_up[k].store(false, Ordering::Release);
        for (home, key) in self.links_owned_by(k) {
            self.partitions[home].fire_event_linked(proxy_event(&key), None);
        }
    }

    /// Marks partition `k` reachable again and re-seeds every proxy
    /// whose owner is `k` from the owner's current state (recovering
    /// updates lost while the link was down), then re-triggers the
    /// proxies. Quarantined proxies recover at their next cool-down
    /// probe, which now sees a live cell.
    pub fn revive_partition(&self, k: usize) {
        self.link_up[k].store(true, Ordering::Release);
        let relinked: Vec<(usize, MetadataKey, Arc<ProxyCell>)> = {
            let links = self.links.lock();
            links
                .iter()
                .filter(|(_, s)| s.owner == k)
                .map(|((home, key), s)| (*home, key.clone(), s.cell.clone()))
                .collect()
        };
        for (home, key, cell) in relinked {
            if let Ok(v) = self.partitions[k].read_versioned(&key) {
                cell.store(v);
            }
            self.partitions[home].fire_event_linked(proxy_event(&key), None);
        }
    }

    fn links_owned_by(&self, k: usize) -> Vec<(usize, MetadataKey)> {
        let links = self.links.lock();
        links
            .iter()
            .filter(|(_, s)| s.owner == k)
            .map(|((home, key), _)| (*home, key.clone()))
            .collect()
    }

    // -----------------------------------------------------------------
    // Introspection / catalog
    // -----------------------------------------------------------------

    /// Number of live cross-partition links.
    pub fn remote_link_count(&self) -> usize {
        self.links.lock().len()
    }

    /// The rows of `sys.partitions`, in partition order. Every partition
    /// serves the same plane-wide tables through its catalog.
    pub(crate) fn partition_rows(&self) -> Vec<PartitionRow> {
        let links = self.links.lock();
        (0..self.partitions.len())
            .map(|part| {
                let m = &self.partitions[part];
                PartitionRow {
                    part,
                    nodes: m.nodes().len(),
                    handlers: m.handler_count(),
                    links: links.keys().filter(|(home, _)| *home == part).count(),
                    up: self.is_link_up(part),
                    updates: m.remote_update_count(),
                }
            })
            .collect()
    }

    /// The rows of `sys.remote_subscriptions`, ordered by `key@part`.
    pub(crate) fn link_rows(&self) -> Vec<LinkRow> {
        let mut rows: Vec<(String, LinkRow)> = self
            .links
            .lock()
            .iter()
            .map(|((home, key), s)| {
                let row = LinkRow {
                    key: key.clone(),
                    part: *home,
                    owner: s.owner,
                    up: self.is_link_up(s.owner),
                    updates: s.updates,
                    version: s.cell.remote_version(),
                };
                (format!("{key}@{home}"), row)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.into_iter().map(|(_, row)| row).collect()
    }
}

impl std::fmt::Debug for PartitionedMetadataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedMetadataPlane")
            .field("partitions", &self.partitions.len())
            .field("links", &self.remote_link_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemRelation;
    use streammeta_time::VirtualClock;

    #[test]
    fn ring_covers_all_partitions_and_is_deterministic() {
        let ring = Ring::new(8, 16);
        let mut seen = BTreeSet::new();
        for n in 0..10_000u32 {
            seen.insert(ring.owner(NodeId(n)));
        }
        assert_eq!(seen.len(), 8, "every partition owns some keyspace");
        let again = Ring::new(8, 16);
        for n in 0..1000u32 {
            assert_eq!(ring.owner(NodeId(n)), again.owner(NodeId(n)));
        }
    }

    #[test]
    fn ring_reassigns_a_minority_on_growth() {
        let small = Ring::new(8, 16);
        let big = Ring::new(9, 16);
        let moved = (0..10_000u32)
            .filter(|n| small.owner(NodeId(*n)) != big.owner(NodeId(*n)))
            .count();
        // Consistent hashing: growth moves roughly 1/9 of the keyspace,
        // not all of it. Allow generous slack for hash skew.
        assert!(moved < 4000, "only a minority moved, got {moved}/10000");
    }

    #[test]
    fn plane_routes_nodes_to_owner_partitions() {
        let clock = VirtualClock::shared();
        let plane = PartitionedMetadataPlane::new(clock, 4);
        for n in [1u32, 2, 3, 4, 50, 600] {
            let reg = NodeRegistry::new(NodeId(n));
            reg.define(ItemDef::static_value("schema", "a,b"));
            let home = plane.attach_node(reg);
            assert_eq!(home, plane.owner_of(NodeId(n)));
            let sub = plane
                .subscribe(MetadataKey::new(NodeId(n), "schema"))
                .unwrap();
            assert_eq!(sub.get(), MetadataValue::text("a,b"));
        }
    }

    /// The plane-level row builder the column table replaced, kept as
    /// the reference `catalog_rows` must still equal cell for cell.
    fn reference_rows(
        plane: &PartitionedMetadataPlane,
        relation: SystemRelation,
    ) -> Vec<Vec<MetadataValue>> {
        let links = plane.links.lock();
        match relation {
            SystemRelation::Partitions => (0..plane.partitions.len())
                .map(|i| {
                    let m = &plane.partitions[i];
                    let outgoing = links.iter().filter(|((home, _), _)| *home == i).count();
                    vec![
                        MetadataValue::U64(i as u64),
                        MetadataValue::U64(m.nodes().len() as u64),
                        MetadataValue::U64(m.handler_count() as u64),
                        MetadataValue::U64(outgoing as u64),
                        MetadataValue::Bool(plane.is_link_up(i)),
                        MetadataValue::U64(m.remote_update_count()),
                    ]
                })
                .collect(),
            SystemRelation::RemoteSubscriptions => {
                let mut rows: Vec<(String, Vec<MetadataValue>)> = links
                    .iter()
                    .map(|((home, key), s)| {
                        let state = if plane.is_link_up(s.owner) {
                            "up"
                        } else {
                            "down"
                        };
                        let row = vec![
                            MetadataValue::text(key.to_string()),
                            MetadataValue::U64(*home as u64),
                            MetadataValue::U64(s.owner as u64),
                            MetadataValue::text(state),
                            MetadataValue::U64(s.updates),
                            MetadataValue::U64(s.cell.remote_version()),
                        ];
                        (format!("{key}@{home}"), row)
                    })
                    .collect();
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                rows.into_iter().map(|(_, row)| row).collect()
            }
            _ => unreachable!("not a plane-level relation"),
        }
    }

    #[test]
    fn plane_relations_equal_the_reference_builder() {
        let clock = VirtualClock::shared();
        let plane = PartitionedMetadataPlane::new(clock, 4);
        // Twelve sources, each read by a dependent on another partition.
        let mut subs = Vec::new();
        for n in 0..12u32 {
            let src = NodeId(n);
            let reg = NodeRegistry::new(src);
            reg.define(ItemDef::static_value("rate", n as u64));
            plane.attach_node(reg);
            let mut dep = NodeId(100 + n);
            while plane.owner_of(dep) == plane.owner_of(src) {
                dep = NodeId(dep.0 + 100);
            }
            let reg = NodeRegistry::new(dep);
            reg.define(
                ItemDef::triggered("double")
                    .dep_remote("up", MetadataKey::new(src, "rate"))
                    .compute(|ctx| ctx.dep("up"))
                    .build(),
            );
            plane.attach_node(reg);
            subs.push(plane.subscribe(MetadataKey::new(dep, "double")).unwrap());
        }
        plane.pump();
        plane.kill_partition(1);
        for relation in [
            SystemRelation::Partitions,
            SystemRelation::RemoteSubscriptions,
        ] {
            let reference = reference_rows(&plane, relation);
            assert!(reference.len() >= 4, "{}", relation.name());
            for part in plane.partitions() {
                assert_eq!(
                    part.catalog_rows(relation),
                    reference,
                    "{}",
                    relation.name()
                );
            }
        }
    }
}
