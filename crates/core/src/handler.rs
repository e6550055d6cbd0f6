//! Metadata handlers.
//!
//! "An incoming subscription causes the system to create and return a
//! so-called metadata handler. There is a 1-to-1 relationship between
//! metadata items and metadata handlers." (Section 2.1)
//!
//! The handler is the proxy that (i) synchronizes the possibly concurrent
//! access of multiple consumers and (ii) guarantees a consistent view on a
//! metadata item during updates. Handlers are created on first subscription,
//! shared by reference count, and removed when the count reaches zero.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::sync::{LockTier, TieredMutex, TieredRwLock};
use streammeta_time::{TaskId, Timestamp};

use crate::catalog::key_text;
use crate::histogram::HistogramMonitor;
use crate::item::{ItemDef, Mechanism, ResolvedDep};
use crate::trace::SpanContext;
use crate::{MetadataKey, MetadataValue, VersionedValue};

/// Domain of the compute-latency histogram: [0, ~1.05 ms) in 256 buckets
/// of 4096 ns; slower computes land in the overflow bucket and saturate
/// the percentile estimate at the upper edge.
const LATENCY_HI_NS: i64 = 1 << 20;
const LATENCY_BUCKETS: usize = 256;

/// Push observer signature: called with each stored value change.
pub type ObserverFn = dyn Fn(&VersionedValue) + Send + Sync;

/// Span-aware push observer (crate-internal): called with each stored
/// value change plus the causal span of the store, if the store was
/// sampled. The partitioned plane uses this to carry lineage across
/// partition boundaries.
pub(crate) type SpanObserverFn = dyn Fn(&VersionedValue, Option<&SpanContext>) + Send + Sync;

/// Lock-free snapshot cell for scalar values (seqlock over atomics).
///
/// Every word is individually atomic, so readers never observe a torn
/// word; the sequence check rejects snapshots that mixed two
/// generations. Writers are serialized by the handler's value write
/// lock, which they hold while publishing. Values that do not fit in a
/// word (`Text`, `Histogram`) park the cell in the `TAG_UNCACHED`
/// state and readers fall back to the value lock.
struct ScalarCell {
    /// Even = stable, odd = write in progress.
    seq: AtomicU64,
    tag: AtomicU64,
    bits: AtomicU64,
    version: AtomicU64,
    updated_at: AtomicU64,
    /// 0 = healthy, 1 = serving last good value (degraded).
    degraded: AtomicU64,
}

const TAG_UNAVAILABLE: u64 = 0;
const TAG_F64: u64 = 1;
const TAG_I64: u64 = 2;
const TAG_U64: u64 = 3;
const TAG_BOOL: u64 = 4;
const TAG_SPAN: u64 = 5;
const TAG_TIME: u64 = 6;
const TAG_UNCACHED: u64 = 7;

fn pack_value(value: &MetadataValue) -> Option<(u64, u64)> {
    Some(match value {
        MetadataValue::Unavailable => (TAG_UNAVAILABLE, 0),
        MetadataValue::F64(v) => (TAG_F64, v.to_bits()),
        MetadataValue::I64(v) => (TAG_I64, *v as u64),
        MetadataValue::U64(v) => (TAG_U64, *v),
        MetadataValue::Bool(v) => (TAG_BOOL, *v as u64),
        MetadataValue::Span(s) => (TAG_SPAN, s.0),
        MetadataValue::Time(t) => (TAG_TIME, t.0),
        MetadataValue::Text(_) | MetadataValue::Histogram(_) => return None,
    })
}

fn unpack_value(tag: u64, bits: u64) -> MetadataValue {
    match tag {
        TAG_F64 => MetadataValue::F64(f64::from_bits(bits)),
        TAG_I64 => MetadataValue::I64(bits as i64),
        TAG_U64 => MetadataValue::U64(bits),
        TAG_BOOL => MetadataValue::Bool(bits != 0),
        TAG_SPAN => MetadataValue::Span(streammeta_time::TimeSpan(bits)),
        TAG_TIME => MetadataValue::Time(Timestamp(bits)),
        _ => MetadataValue::Unavailable,
    }
}

impl ScalarCell {
    /// Matches `VersionedValue::unavailable()`.
    fn new() -> Self {
        ScalarCell {
            seq: AtomicU64::new(0),
            tag: AtomicU64::new(TAG_UNAVAILABLE),
            bits: AtomicU64::new(0),
            version: AtomicU64::new(0),
            updated_at: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Publishes a new snapshot. Caller holds the value write lock, so
    /// publications never race each other.
    fn publish(&self, value: &VersionedValue) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        match pack_value(&value.value) {
            Some((tag, bits)) => {
                self.tag.store(tag, Ordering::Relaxed);
                self.bits.store(bits, Ordering::Relaxed);
                self.version.store(value.version, Ordering::Relaxed);
                self.updated_at.store(value.updated_at.0, Ordering::Relaxed);
                self.degraded
                    .store(value.degraded as u64, Ordering::Relaxed);
            }
            None => self.tag.store(TAG_UNCACHED, Ordering::Relaxed),
        }
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// One optimistic read attempt; `None` means a write was in flight,
    /// raced this read, or the stored value is not cacheable.
    fn try_read(&self) -> Option<VersionedValue> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 != 0 {
            return None;
        }
        let tag = self.tag.load(Ordering::Relaxed);
        let bits = self.bits.load(Ordering::Relaxed);
        let version = self.version.load(Ordering::Relaxed);
        let updated_at = self.updated_at.load(Ordering::Relaxed);
        let degraded = self.degraded.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) != s1 || tag == TAG_UNCACHED {
            return None;
        }
        Some(VersionedValue {
            value: unpack_value(tag, bits),
            version,
            updated_at: Timestamp(updated_at),
            degraded: degraded != 0,
        })
    }
}

/// Failure-containment bookkeeping of one handler, guarded by its own
/// mutex (touched only on the failure path and on recovery, never on
/// healthy reads).
#[derive(Default)]
pub(crate) struct ContainmentState {
    /// Consecutive failed evaluations (reset on success).
    pub(crate) streak: u32,
    /// Retries already scheduled for the current failure episode.
    pub(crate) attempt: u32,
    /// While `Some`, the item is quarantined until the instant given and
    /// scheduled evaluations are skipped.
    pub(crate) quarantined_until: Option<Timestamp>,
    /// Total quarantine entries over the handler's lifetime (never
    /// reset) — surfaced by the `sys.quarantine` catalog relation.
    pub(crate) trips: u64,
    /// A pending one-shot retry/probe task, cancelled on success.
    pub(crate) retry_task: Option<TaskId>,
}

/// One registered push observer. `last_delivered` makes delivery
/// monotonic per observer: two concurrent stores release the value lock
/// in one order but may reach the observer lock in the other, and
/// without the version gate that would deliver version 2 before
/// version 1.
struct Observer {
    id: u64,
    last_delivered: u64,
    f: Box<SpanObserverFn>,
}

/// Runtime state of one included metadata item.
pub(crate) struct Handler {
    pub(crate) key: MetadataKey,
    pub(crate) def: ItemDef,
    /// Dependencies resolved at inclusion time.
    pub(crate) resolved_deps: Vec<ResolvedDep>,
    /// Subscription refcount (direct + dependent inclusions). Mutated
    /// only under the manager's bookkeeping mutex; read lock-free by
    /// `subscription_count` / `handler_stats`.
    pub(crate) subscriptions: AtomicUsize,
    /// Whether the item recomputes on access (`Mechanism::OnDemand`),
    /// predecoded for the read hot path.
    pub(crate) on_demand: bool,
    /// Item-level lock of the three-level scheme (Section 4.2).
    /// Tier: [`LockTier::ItemValue`].
    value: TieredRwLock<VersionedValue>,
    /// Lock-free mirror of `value` for scalar values; readers try it
    /// first and only take the value lock for uncacheable values or
    /// when a write is in flight.
    cell: ScalarCell,
    /// Serializes computations so stateful compute functions (counters
    /// that reset on sampling) see one evaluation at a time.
    /// Tier: [`LockTier::ItemCompute`] — the only self-nesting tier
    /// (nested dependency computes follow the acyclic dependency DAG).
    pub(crate) compute_lock: TieredMutex<()>,
    /// The periodic refresh task, if the mechanism is periodic.
    /// Tier: [`LockTier::ItemState`] (leaf).
    pub(crate) periodic_task: TieredMutex<Option<TaskId>>,
    /// Retry/quarantine state of items with a fallback policy.
    /// Tier: [`LockTier::ItemState`] (leaf).
    pub(crate) containment: TieredMutex<ContainmentState>,
    /// Push observers, notified after every stored change (Section 2.1's
    /// consumers as listeners — e.g. a monitoring tool plotting values).
    /// Tier: [`LockTier::Observers`] — ranked *before* the value lock
    /// because registration snapshots the value under the observer list.
    observers: TieredMutex<Vec<Observer>>,
    next_observer: AtomicU64,
    /// Reads through a cached subscription handle.
    accesses: AtomicU64,
    /// Reads by key through the manager. Each read bumps one of the two
    /// counters, so the manager's `fast_reads` is a sum of these, never
    /// a difference of two totals bumped one after the other.
    key_accesses: AtomicU64,
    updates: AtomicU64,
    computes: AtomicU64,
    /// Id of the last epoch flush that recomputed this item (0 = never
    /// swept in epoch mode) — surfaced by the `sys.handlers` relation.
    last_epoch: AtomicU64,
    /// Set when the item is force-excluded from under live
    /// subscriptions: the handler keeps serving its last good value
    /// (marked degraded) to handles that pinned it, but fallible reads
    /// report [`crate::MetadataError::Excluded`] and dropping a pinned
    /// handle must not decrement a fresh re-inclusion's refcount.
    defunct: AtomicBool,
    /// Compute-latency distribution in nanoseconds, allocated by the
    /// first profiled evaluation: an item that is never profiled (the
    /// manager's latency profiling switch is the gate) never pays for
    /// the buckets.
    latency: OnceLock<Arc<HistogramMonitor>>,
    /// See [`Self::key_text`]; inclusion leaves it empty.
    key_text: OnceLock<Arc<str>>,
}

impl Handler {
    pub(crate) fn new(key: MetadataKey, def: ItemDef, resolved_deps: Vec<ResolvedDep>) -> Self {
        let on_demand = def.mechanism() == Mechanism::OnDemand;
        Handler {
            key,
            def,
            resolved_deps,
            on_demand,
            // Created by the subscription that materialises the item.
            subscriptions: AtomicUsize::new(1),
            value: TieredRwLock::new(LockTier::ItemValue, VersionedValue::unavailable()),
            cell: ScalarCell::new(),
            compute_lock: TieredMutex::new(LockTier::ItemCompute, ()),
            periodic_task: TieredMutex::new(LockTier::ItemState, None),
            containment: TieredMutex::new(LockTier::ItemState, ContainmentState::default()),
            observers: TieredMutex::new(LockTier::Observers, Vec::new()),
            next_observer: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
            key_accesses: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
            defunct: AtomicBool::new(false),
            latency: OnceLock::new(),
            key_text: OnceLock::new(),
        }
    }

    /// Records one profiled compute evaluation of `ns` nanoseconds.
    pub(crate) fn observe_latency(&self, ns: i64) {
        self.latency
            .get_or_init(|| {
                let h = HistogramMonitor::new(0, LATENCY_HI_NS, LATENCY_BUCKETS);
                // The manager's profiling flag is the real gate; the
                // histogram itself stays armed for the handler's lifetime.
                h.activation().activate();
                h
            })
            .observe(ns);
    }

    /// Compute-latency p50/p95/p99 in nanoseconds, from one copy of the
    /// histogram's counts (on the stack); `None` if no evaluation was
    /// ever profiled.
    pub(crate) fn latency_quantiles(&self) -> Option<[u64; 3]> {
        let quantiles = self
            .latency
            .get()?
            .percentiles::<LATENCY_BUCKETS, 3>([0.50, 0.95, 0.99])?;
        Some(quantiles.map(|v| v.max(0) as u64))
    }

    /// The key's display text, built by the first catalog read of this
    /// handler and shared by every later one.
    pub(crate) fn key_text(&self) -> &Arc<str> {
        self.key_text.get_or_init(|| key_text(&self.key))
    }

    /// The item's statistics as reported by
    /// [`crate::MetadataManager::handler_stats`].
    pub(crate) fn stats(&self) -> HandlerStats {
        let quantiles = self.latency_quantiles();
        HandlerStats {
            accesses: self.access_count(),
            updates: self.update_count(),
            computes: self.compute_count(),
            subscriptions: self.subscriptions.load(Ordering::Relaxed),
            latency_p50: quantiles.map(|q| q[0]),
            latency_p95: quantiles.map(|q| q[1]),
            latency_p99: quantiles.map(|q| q[2]),
        }
    }

    pub(crate) fn mechanism(&self) -> Mechanism {
        self.def.mechanism()
    }

    /// A consistent snapshot of the current value. Scalar values are
    /// served by the lock-free cell; the value lock is taken only for
    /// uncacheable values or when a concurrent write is in flight.
    pub(crate) fn snapshot(&self) -> VersionedValue {
        match self.cell.try_read() {
            Some(v) => v,
            None => self.value.read().clone(),
        }
    }

    /// Stores `value` if it differs from the current one. Returns `None`
    /// if nothing changed, `Some(n)` if the value changed and `n` push
    /// observers were actually notified (drives trigger propagation and
    /// the `notified` trace event). Push observers are notified after
    /// the value lock is released; deliveries whose version is ≤ the
    /// observer's last delivered one are skipped, so each observer sees
    /// a strictly increasing version sequence even when concurrent
    /// stores reach the observer lock out of order.
    #[cfg(test)]
    pub(crate) fn store_if_changed(&self, value: MetadataValue, now: Timestamp) -> Option<usize> {
        self.store_if_changed_spanned(value, now, None)
    }

    /// Like [`Self::store_if_changed`], additionally handing the causal
    /// span of the store to span-aware observers (remote-subscription
    /// forwarders carry it across partition boundaries).
    pub(crate) fn store_if_changed_spanned(
        &self,
        value: MetadataValue,
        now: Timestamp,
        span: Option<&SpanContext>,
    ) -> Option<usize> {
        let snapshot = {
            let mut cur = self.value.write();
            if cur.value == value {
                // A successful evaluation that reproduced the current
                // value still ends a degraded episode: the value is
                // fresh again, even though nothing propagates.
                if cur.degraded {
                    cur.degraded = false;
                    self.cell.publish(&cur);
                }
                return None;
            }
            cur.value = value;
            cur.version += 1;
            cur.updated_at = now;
            cur.degraded = false;
            // Published while the write lock is held: publications are
            // serialized and the cell never lags a released write.
            self.cell.publish(&cur);
            cur.clone()
        };
        self.updates.fetch_add(1, Ordering::Relaxed);
        let mut observers = self.observers.lock();
        let mut delivered = 0;
        for obs in observers.iter_mut() {
            if snapshot.version > obs.last_delivered {
                obs.last_delivered = snapshot.version;
                (obs.f)(&snapshot, span);
                delivered += 1;
            }
        }
        Some(delivered)
    }

    /// Marks the handler defunct: force-excluded from under live
    /// subscriptions. Irreversible for this handler instance; a fresh
    /// inclusion creates a new one.
    pub(crate) fn mark_defunct(&self) {
        self.defunct.store(true, Ordering::Release);
    }

    /// Whether the handler was force-excluded under live subscriptions.
    pub(crate) fn is_defunct(&self) -> bool {
        self.defunct.load(Ordering::Acquire)
    }

    /// Marks the current value as degraded: the compute path failed and
    /// consumers are now served the last good value. Neither bumps the
    /// version nor notifies observers — the value did not change, only
    /// its freshness did; `read_fresh` and `staleness()` expose it.
    pub(crate) fn mark_degraded(&self) {
        let mut cur = self.value.write();
        if !cur.degraded {
            cur.degraded = true;
            self.cell.publish(&cur);
        }
    }

    /// Whether the current value is marked degraded.
    #[cfg(test)]
    pub(crate) fn is_degraded(&self) -> bool {
        self.snapshot().degraded
    }

    /// Registers a push observer and synchronously delivers the current
    /// snapshot to it (if a value was ever stored), closing the gap
    /// between inclusion-time pre-computation and observer registration:
    /// without the initial delivery, a `subscribe_with` consumer would
    /// miss every update stored before the observer was attached. The
    /// snapshot is read under the observer lock, so no concurrent store
    /// can slip a *newer* version in front of the initial delivery.
    pub(crate) fn add_observer_with_snapshot(&self, f: Box<ObserverFn>) -> u64 {
        self.add_span_observer_with_snapshot(Box::new(move |v, _span| f(v)))
    }

    /// Span-aware variant of [`Self::add_observer_with_snapshot`]. The
    /// initial synchronous delivery carries no span (it replays a store
    /// whose span context is gone).
    pub(crate) fn add_span_observer_with_snapshot(&self, f: Box<SpanObserverFn>) -> u64 {
        let id = self.next_observer.fetch_add(1, Ordering::Relaxed);
        let mut observers = self.observers.lock();
        let snapshot = self.snapshot();
        let obs = Observer {
            id,
            last_delivered: snapshot.version,
            f,
        };
        if snapshot.version > 0 {
            (obs.f)(&snapshot, None);
        }
        observers.push(obs);
        id
    }

    /// Removes a push observer.
    pub(crate) fn remove_observer(&self, id: u64) {
        self.observers.lock().retain(|obs| obs.id != id);
    }

    pub(crate) fn record_access(&self) {
        self.accesses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_key_access(&self) {
        self.key_accesses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_compute(&self) {
        self.computes.fetch_add(1, Ordering::Relaxed);
    }

    /// Every read, cached and by key.
    pub(crate) fn access_count(&self) -> u64 {
        self.fast_access_count() + self.key_accesses.load(Ordering::Relaxed)
    }

    /// Reads through a cached subscription handle.
    pub(crate) fn fast_access_count(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    pub(crate) fn update_count(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    pub(crate) fn compute_count(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }

    /// Records that epoch `epoch` recomputed this item.
    pub(crate) fn note_epoch(&self, epoch: u64) {
        self.last_epoch.store(epoch, Ordering::Relaxed);
    }

    /// The last epoch flush that recomputed this item (0 = never).
    pub(crate) fn last_epoch(&self) -> u64 {
        self.last_epoch.load(Ordering::Relaxed)
    }
}

/// Per-item statistics, exposed for profiling and the overhead benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HandlerStats {
    /// Consumer accesses through `read`/`Subscription::get`.
    pub accesses: u64,
    /// Stored value changes.
    pub updates: u64,
    /// Compute-function evaluations.
    pub computes: u64,
    /// Current number of subscriptions (direct + dependent inclusions).
    pub subscriptions: usize,
    /// Median compute latency in nanoseconds, if latency profiling
    /// observed any evaluation (see
    /// [`crate::MetadataManager::set_latency_profiling`]).
    pub latency_p50: Option<u64>,
    /// 95th-percentile compute latency in nanoseconds.
    pub latency_p95: Option<u64>,
    /// 99th-percentile compute latency in nanoseconds.
    pub latency_p99: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ItemDef, NodeId};

    fn handler() -> Handler {
        Handler::new(
            MetadataKey::new(NodeId(1), "x"),
            ItemDef::static_value("x", 1u64),
            Vec::new(),
        )
    }

    #[test]
    fn starts_unavailable() {
        let h = handler();
        let v = h.snapshot();
        assert_eq!(v.value, MetadataValue::Unavailable);
        assert_eq!(v.version, 0);
    }

    #[test]
    fn store_bumps_version_only_on_change() {
        let h = handler();
        assert!(h
            .store_if_changed(MetadataValue::F64(0.1), Timestamp(5))
            .is_some());
        assert!(h
            .store_if_changed(MetadataValue::F64(0.1), Timestamp(9))
            .is_none());
        let v = h.snapshot();
        assert_eq!(v.version, 1);
        assert_eq!(v.updated_at, Timestamp(5));
        assert!(h
            .store_if_changed(MetadataValue::F64(0.2), Timestamp(9))
            .is_some());
        assert_eq!(h.snapshot().version, 2);
        assert_eq!(h.update_count(), 2);
    }

    #[test]
    fn degraded_marking_survives_cell_and_clears_on_store() {
        let h = handler();
        assert!(h
            .store_if_changed(MetadataValue::U64(1), Timestamp(5))
            .is_some());
        assert!(!h.is_degraded());
        h.mark_degraded();
        let v = h.snapshot();
        assert!(v.degraded);
        // Freshness changed, the value did not.
        assert_eq!(v.version, 1);
        assert_eq!(v.value, MetadataValue::U64(1));
        // A successful store of the *same* value clears the flag without
        // bumping the version.
        assert!(h
            .store_if_changed(MetadataValue::U64(1), Timestamp(9))
            .is_none());
        let v = h.snapshot();
        assert!(!v.degraded);
        assert_eq!(v.version, 1);
        // And a changed value clears it too.
        h.mark_degraded();
        assert!(h
            .store_if_changed(MetadataValue::U64(2), Timestamp(11))
            .is_some());
        assert!(!h.is_degraded());
    }

    #[test]
    fn counters_accumulate() {
        let h = handler();
        h.record_access();
        h.record_access();
        h.record_compute();
        assert_eq!(h.access_count(), 2);
        assert_eq!(h.compute_count(), 1);
    }
}
