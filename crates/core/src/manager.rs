//! The metadata manager: publish-subscribe, automatic inclusion/exclusion,
//! and trigger propagation.
//!
//! The manager owns the runtime side of the framework:
//!
//! * the **node registries** (item definitions, attached per graph node);
//! * the live **handlers** with their subscription counts (Section 2.1);
//! * the runtime **dependency graph** — for every handler the resolved
//!   sources it depends on, plus the inverted edges used to notify
//!   dependents (Sections 2.3, 2.4, 3.2.3);
//! * the integration with the [`PeriodicRegistry`] that drives periodic
//!   handlers (Section 3.2.2 / 4.3).
//!
//! ## Locking (Section 4.2)
//!
//! Three levels of locks, always acquired top-down:
//!
//! 1. *graph level*: the registries map (`RwLock`);
//! 2. *node level*: each registry's item map (`RwLock`);
//! 3. *item level*: each handler's value (`RwLock`) and compute mutex.
//!
//! Subscription bookkeeping lives in one internal mutex; user code
//! (compute functions, hooks) is never called while it is held.
//!
//! The *read* paths do not take the bookkeeping mutex at all:
//!
//! * a [`Subscription`] caches its `Arc<Handler>` at creation, so
//!   `Subscription::get`/`versioned` go straight to the item-level lock
//!   (the subscription itself guarantees handler liveness);
//! * key-based reads (`read`, `read_versioned`, `is_included`, …)
//!   resolve handlers through a sharded index
//!   ([`crate::shards::HandlerShards`]) maintained by include/exclude
//!   under the bookkeeping mutex — concurrent readers only share a
//!   shard read lock.

use std::collections::{btree_map, BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use streammeta_time::{ClockRef, PeriodicRegistry, PeriodicTask, TimeSpan, Timestamp};

use crate::fault::{FaultAction, FaultPlan};
use crate::handler::{Handler, HandlerStats};
use crate::item::{DepReader, DepSource, EvalCtx, ItemDef, Mechanism};
use crate::metrics::{Metric, MetricSlots};
use crate::partition::PartitionedMetadataPlane;
use crate::registry::NodeRegistry;
use crate::shards::HandlerShards;
use crate::subscription::Subscription;
use crate::sync::{LockTier, TieredMutex, TieredMutexGuard, TieredRwLock};
use crate::trace::{
    SpanContext, SpanKind, SpanRecord, SpanSampling, SpanStore, TraceEvent, TraceKind, TraceRecord,
    TraceSink,
};
use crate::{
    EventKey, ItemPath, MetadataError, MetadataKey, MetadataValue, NodeId, Result, VersionedValue,
};

#[derive(Default)]
struct Inner {
    /// Authoritative handler map, in key order. The refcount lives in
    /// [`Handler::subscriptions`], mutated only while this mutex is
    /// held; the sharded index mirrors this map for lock-free readers.
    handlers: BTreeMap<MetadataKey, Arc<Handler>>,
    /// Inverted dependency edges: source -> items that depend on it.
    dependents: HashMap<DepSource, Vec<MetadataKey>>,
    /// The values of `handlers`, copied by the first catalog scan after
    /// a change ([`MetadataManager::handlers_by_key`]).
    by_key: Option<Arc<[Arc<Handler>]>>,
    /// The `by_key` a change retired, dropped after the lock is released
    /// (see [`Bookkeeping`]) so that no `Arc` traffic runs under it.
    retired: Option<Arc<[Arc<Handler>]>>,
}

impl Inner {
    /// Records a change to `handlers`: the cached key-ordered snapshot
    /// no longer matches and is retired.
    fn handlers_changed(&mut self) {
        if let Some(stale) = self.by_key.take() {
            self.retired = Some(stale);
        }
    }
}

/// The bookkeeping lock as held by the paths that change the handler
/// set. On drop it releases the lock, then drops the snapshot a change
/// retired, so the `Arc` decrement per handler that costs runs outside
/// it.
struct Bookkeeping<'a>(Option<TieredMutexGuard<'a, Inner>>);

impl Deref for Bookkeeping<'_> {
    type Target = Inner;
    fn deref(&self) -> &Inner {
        self.0.as_ref().expect("held until drop")
    }
}

impl DerefMut for Bookkeeping<'_> {
    fn deref_mut(&mut self) -> &mut Inner {
        self.0.as_mut().expect("held until drop")
    }
}

impl Drop for Bookkeeping<'_> {
    fn drop(&mut self) {
        let retired = self.0.as_mut().and_then(|inner| inner.retired.take());
        self.0 = None;
        drop(retired);
    }
}

/// Result of one contained compute evaluation.
struct ComputeOutcome {
    value: MetadataValue,
    /// The compute function (or an injected fault) panicked.
    panicked: bool,
    /// The evaluation overran the item's declared deadline.
    overran: bool,
}

/// Configuration of the epoch (batch) propagation mode: updates are
/// queued and coalesced instead of swept one event at a time.
///
/// An epoch flushes when either bound is reached:
///
/// * `max_batch` distinct pending sources — flushed synchronously by the
///   enqueueing thread;
/// * the oldest pending update has waited `max_delay` — flushed by
///   whoever drives [`MetadataManager::flush_epoch_if_due`] (both
///   executors do, once per tick / feeder iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Distinct pending sources that force a synchronous flush.
    pub max_batch: usize,
    /// Maximum time a pending update may wait before
    /// [`MetadataManager::flush_epoch_if_due`] flushes the epoch.
    /// `TimeSpan::ZERO` means "flush on the next tick".
    pub max_delay: TimeSpan,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            max_batch: 64,
            max_delay: TimeSpan::ZERO,
        }
    }
}

/// How source updates reach their triggered dependents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Every `fire_event` / `notify_changed` / periodic change runs its
    /// own propagation sweep immediately (the default).
    #[default]
    PerEvent,
    /// Updates are queued and coalesced into epochs; each epoch computes
    /// the union of the affected subgraphs under one bookkeeping-lock
    /// snapshot and recomputes every downstream item at most once.
    Epoch(EpochConfig),
}

/// The pending-update queue of the epoch propagation mode. `pending`
/// keeps arrival order (origins seed the changed-set in order), the set
/// deduplicates, and `first_enqueued` drives the time-slice flush.
///
/// `pending_roots` carries the sampled span lineage across the
/// enqueue/flush thread handoff *explicitly* (the queue is the only
/// carrier — no thread-local state survives a work item): each origin
/// remembers the first contributing root span plus every coalesced
/// root, so a coalesced recompute records *all* the source updates it
/// absorbed.
#[derive(Default)]
struct EpochQueue {
    config: EpochConfig,
    enabled: bool,
    pending: Vec<DepSource>,
    pending_set: HashSet<DepSource>,
    pending_roots: HashMap<DepSource, SpanLink>,
    first_enqueued: Option<Timestamp>,
}

/// The lineage a changed source hands to its dependents during a sweep:
/// the span to parent to, and the root set to inherit.
#[derive(Clone, Debug)]
struct SpanLink {
    span: u64,
    roots: Vec<u64>,
}

impl SpanLink {
    fn of(ctx: &SpanContext) -> Self {
        SpanLink {
            span: ctx.span,
            roots: ctx.roots.clone(),
        }
    }
}

/// The central coordinator of dynamic metadata management.
///
/// Always used through `Arc`: subscriptions and periodic tasks hold
/// references back to the manager.
pub struct MetadataManager {
    clock: ClockRef,
    periodic: Arc<PeriodicRegistry>,
    /// Graph-level lock (Section 4.2). Tier: [`LockTier::Graph`].
    registries: TieredRwLock<HashMap<NodeId, Arc<NodeRegistry>>>,
    /// Bookkeeping mutex. Tier: [`LockTier::Bookkeeping`].
    inner: TieredMutex<Inner>,
    /// Hash-partitioned `key -> handler` mirror of `inner.handlers`,
    /// written under the bookkeeping mutex, read without it.
    shards: HandlerShards,
    /// Every plain counter of the metric table ([`crate::metrics`]),
    /// one fixed slot each.
    pub(crate) slots: MetricSlots,
    /// Gates fault injection the same way `trace_enabled` gates tracing:
    /// one relaxed load per evaluation when no plan is installed.
    fault_enabled: AtomicBool,
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Gates the epoch propagation mode the same way `trace_enabled`
    /// gates tracing: one relaxed load per `propagate` call when the
    /// default per-event mode is active.
    epoch_enabled: AtomicBool,
    /// Pending-update queue of the epoch mode (holds the config too, so
    /// mode switches and flush decisions are consistent under one lock).
    /// Tier: [`LockTier::EpochQueue`].
    epoch_queue: TieredMutex<EpochQueue>,
    /// Serializes epoch sweeps: epoch N+1's observer notifications cannot
    /// start before epoch N's sweep finished, and epoch ids are assigned
    /// in delivery order. Ordered *before* `inner` (a flush holds it
    /// while taking the phase-1 snapshot); never held while `epoch_queue`
    /// is taken by enqueuers, so enqueues stay wait-free with respect to
    /// a running sweep. Tier: [`LockTier::FlushSerial`], rank 0 — the
    /// full declared hierarchy lives in [`crate::sync`].
    flush_serial: TieredMutex<()>,
    /// Trace bus: a single relaxed load gates every emission site, so an
    /// uninstalled sink costs (close to) nothing on the hot paths. The
    /// one slot: the catalog and the trace metrics find a ring or file
    /// through [`TraceSink::ring`] / [`TraceSink::file`] of what is
    /// installed here.
    trace_enabled: AtomicBool,
    trace_sink: RwLock<Option<Arc<dyn TraceSink>>>,
    /// The next record's sequence number, and the emission lock: held
    /// from stamping `seq` and `at` until the sink has the record, so
    /// records reach the sink in `seq` order with `at` non-decreasing. A
    /// leaf — sinks never call back into the manager.
    trace_seq: Mutex<u64>,
    /// Gates the per-compute latency measurement (two `Instant` reads per
    /// evaluation when on).
    profile_latency: AtomicBool,
    /// Set when the first handler allocates its latency histogram, and
    /// never cleared: until then no handler has quantiles to report.
    latency_profiled: AtomicBool,
    /// Subscription-time validation hook (static analysis integration):
    /// consulted by `subscribe` before any inclusion happens.
    validator: RwLock<Option<ValidatorHook>>,
    /// Violations reported by a `Warn`-policy validator, drained by
    /// [`Self::take_validation_warnings`].
    validation_warnings: Mutex<Vec<String>>,
    /// The `n` of [`SpanSampling::Ratio`]; 0 = off. Gates span minting
    /// the same way `trace_enabled` gates tracing: one relaxed load per
    /// source update when sampling is off.
    span_ratio: AtomicU64,
    /// Source updates seen by the sampler (drives the 1-in-n decision).
    span_samples: AtomicU64,
    /// Span id mint (ids start at 1; 0 is never a valid span id).
    span_ids: AtomicU64,
    /// Ring of finished spans backing `sys.spans`, installed by
    /// [`Self::enable_catalog_spans`].
    span_store: RwLock<Option<Arc<SpanStore>>>,
    /// Gates per-record thread-id stamping (off by default so traces
    /// stay byte-deterministic unless flame tracks are wanted).
    trace_tids: AtomicBool,
    /// First-sight compact thread ids and their labels (flame-track
    /// names for the Chrome-trace exporter).
    tid_map: Mutex<HashMap<std::thread::ThreadId, u64>>,
    tid_labels: Mutex<BTreeMap<u64, String>>,
    /// Partition id stamped onto every trace record when this manager is
    /// one partition of a [`crate::PartitionedMetadataPlane`]
    /// (`u64::MAX` = unset, the single-manager default). Merged
    /// multi-partition traces stay per-item monotonic because tracelint
    /// keys item state by `(partition, key)`.
    trace_part: AtomicU64,
    /// The plane this manager is a partition of — where the plane-level
    /// catalog relations (`sys.partitions`, `sys.remote_subscriptions`)
    /// get their rows; they are empty on a stand-alone manager.
    plane: RwLock<Weak<PartitionedMetadataPlane>>,
    self_weak: Weak<MetadataManager>,
}

/// How the manager reacts when an installed validator reports
/// violations for a subscription (see [`MetadataManager::set_validator`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidationPolicy {
    /// Record the violations (see
    /// [`MetadataManager::take_validation_warnings`]) and proceed.
    Warn,
    /// Refuse the subscription with
    /// [`MetadataError::ValidationFailed`].
    Deny,
}

/// Validator signature: inspects the manager (definitions, current
/// inclusions) and the key about to be subscribed, and returns the
/// violations found — an empty vector means the subscription is clean.
/// Runs *before* any inclusion bookkeeping, so it may freely use the
/// manager's read-side introspection APIs, but it must not subscribe.
pub type ValidatorFn = dyn Fn(&MetadataManager, &MetadataKey) -> Vec<String> + Send + Sync;

struct ValidatorHook {
    f: Arc<ValidatorFn>,
    policy: ValidationPolicy,
}

impl MetadataManager {
    /// A manager using `clock` and its own periodic registry.
    pub fn new(clock: ClockRef) -> Arc<Self> {
        Self::with_periodic(clock, PeriodicRegistry::shared())
    }

    /// A manager sharing an external periodic registry (so an engine or a
    /// [`streammeta_time::WorkerPool`] can drive the updates).
    pub fn with_periodic(clock: ClockRef, periodic: Arc<PeriodicRegistry>) -> Arc<Self> {
        Arc::new_cyclic(|weak| MetadataManager {
            clock,
            periodic,
            registries: TieredRwLock::new(LockTier::Graph, HashMap::new()),
            inner: TieredMutex::new(LockTier::Bookkeeping, Inner::default()),
            shards: HandlerShards::new(),
            slots: MetricSlots::default(),
            fault_enabled: AtomicBool::new(false),
            fault_plan: RwLock::new(None),
            epoch_enabled: AtomicBool::new(false),
            epoch_queue: TieredMutex::new(LockTier::EpochQueue, EpochQueue::default()),
            flush_serial: TieredMutex::new(LockTier::FlushSerial, ()),
            trace_enabled: AtomicBool::new(false),
            trace_sink: RwLock::new(None),
            trace_seq: Mutex::new(0),
            profile_latency: AtomicBool::new(false),
            latency_profiled: AtomicBool::new(false),
            validator: RwLock::new(None),
            validation_warnings: Mutex::new(Vec::new()),
            span_ratio: AtomicU64::new(0),
            span_samples: AtomicU64::new(0),
            span_ids: AtomicU64::new(0),
            span_store: RwLock::new(None),
            trace_tids: AtomicBool::new(false),
            tid_map: Mutex::new(HashMap::new()),
            tid_labels: Mutex::new(BTreeMap::new()),
            trace_part: AtomicU64::new(u64::MAX),
            plane: RwLock::new(Weak::new()),
            self_weak: weak.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Trace bus and profiling switches
    // ------------------------------------------------------------------

    /// Installs (or, with `None`, removes) the trace sink receiving the
    /// manager's structured lifecycle events.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        // On removal, clear the gate before the slot so emission sites
        // stop checking for the sink first.
        let enabled = sink.is_some();
        if !enabled {
            self.trace_enabled.store(false, Ordering::Relaxed);
        }
        *self.trace_sink.write() = sink;
        if enabled {
            self.trace_enabled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether a trace sink is installed.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled.load(Ordering::Relaxed)
    }

    /// Emits one trace event. The closure runs only when a sink is
    /// installed, so emission sites pay one relaxed load otherwise.
    #[inline]
    fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        self.trace_span(None, event);
    }

    /// Emits one trace event carrying an optional causal span context.
    /// Same gating as [`Self::trace`]: one relaxed load when no sink is
    /// installed, whether or not a span is present (finished spans reach
    /// `sys.spans` through [`Self::record_span`], not through the trace
    /// bus).
    fn trace_span(&self, span: Option<&SpanContext>, event: impl FnOnce() -> TraceEvent) {
        if !self.trace_enabled.load(Ordering::Relaxed) {
            return;
        }
        let sink = self.trace_sink.read().clone();
        if let Some(sink) = sink {
            let (event, span, tid) = (event(), span.cloned(), self.current_tid());
            let part = match self.trace_part.load(Ordering::Relaxed) {
                u64::MAX => None,
                p => Some(p),
            };
            let mut seq = self.trace_seq.lock();
            sink.record(TraceRecord {
                seq: *seq,
                at: self.clock.now(),
                event,
                span,
                tid,
                part,
            });
            *seq += 1;
        }
    }

    /// The installed trace sink, if any.
    pub(crate) fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.trace_sink.read().clone()
    }

    /// Makes this manager partition `part` of a plane: every trace
    /// record it emits is tagged with `part` (merged multi-partition
    /// traces keep per-item state separable) and its span ids start in
    /// a range disjoint from every other partition's (spans stay unique
    /// across the merged trace). Called once, before any span is minted.
    pub(crate) fn join_plane(&self, part: u64) {
        self.trace_part.store(part, Ordering::Relaxed);
        self.span_ids.store((part + 1) << 48, Ordering::Relaxed);
    }

    /// Records one *finished* span into the `sys.spans` ring, if
    /// installed — independently of the trace bus, so lineage queries
    /// work without JSONL tracing. Exactly one record per span, written
    /// at the span's completion site.
    fn record_span(
        &self,
        ctx: &SpanContext,
        key: Option<&MetadataKey>,
        kind: impl Into<SpanKind>,
        end: Timestamp,
    ) {
        if let Some(store) = self.span_store.read().clone() {
            store.record(SpanRecord {
                span: ctx.span,
                parent: ctx.parent,
                root: ctx.roots.first().copied().unwrap_or(ctx.span),
                roots: ctx.roots.len(),
                key: key.cloned(),
                kind: kind.into(),
                depth: ctx.depth,
                start: ctx.start,
                end,
            });
        }
    }

    /// The calling thread's compact id, when thread-id stamping is on.
    fn current_tid(&self) -> Option<u64> {
        if !self.trace_tids.load(Ordering::Relaxed) {
            return None;
        }
        Some(self.register_tid(None))
    }

    /// Registers the calling thread in the compact first-sight tid map
    /// and optionally labels it (flame-track names).
    fn register_tid(&self, label: Option<&str>) -> u64 {
        let id = {
            let mut map = self.tid_map.lock();
            let next = map.len() as u64;
            *map.entry(std::thread::current().id()).or_insert(next)
        };
        if let Some(label) = label {
            self.tid_labels.lock().insert(id, label.to_string());
        }
        id
    }

    /// Switches per-compute latency measurement on or off. When on, every
    /// compute evaluation is timed into the handler's latency histogram
    /// and [`HandlerStats`] report p50/p95/p99.
    pub fn set_latency_profiling(&self, on: bool) {
        self.profile_latency.store(on, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Causal spans (update lineage)
    // ------------------------------------------------------------------

    /// Sets the span sampling gate. `Off` (the default) keeps the write
    /// path span-free — one relaxed load per source update.
    /// `Ratio(n)` mints a root span for every n-th source update
    /// (`Ratio(1)` = every update) and threads child spans through the
    /// entire propagation cascade that update causes.
    pub fn set_span_sampling(&self, sampling: SpanSampling) {
        let ratio = match sampling {
            SpanSampling::Off => 0,
            SpanSampling::Ratio(n) => n.max(1),
        };
        self.span_ratio.store(ratio, Ordering::Relaxed);
    }

    /// The currently configured span sampling.
    pub fn span_sampling(&self) -> SpanSampling {
        match self.span_ratio.load(Ordering::Relaxed) {
            0 => SpanSampling::Off,
            n => SpanSampling::Ratio(n),
        }
    }

    /// Installs a bounded ring of `capacity` finished spans backing the
    /// `sys.spans` catalog relation. Spans land there whenever sampling
    /// mints them — with or without a trace sink installed. Replaces any
    /// previously installed store; returns the new one.
    pub fn enable_catalog_spans(&self, capacity: usize) -> Arc<SpanStore> {
        let store = SpanStore::new(capacity);
        *self.span_store.write() = Some(store.clone());
        store
    }

    /// The span store installed by [`Self::enable_catalog_spans`], if
    /// any.
    pub fn catalog_spans(&self) -> Option<Arc<SpanStore>> {
        self.span_store.read().clone()
    }

    /// Switches per-record thread-id stamping of trace records on or
    /// off (the Chrome-trace exporter's flame tracks). Off by default so
    /// deterministic traces stay byte-identical across runs.
    pub fn set_trace_thread_ids(&self, on: bool) {
        self.trace_tids.store(on, Ordering::Relaxed);
    }

    /// Registers the calling thread under `label` for flame-track
    /// naming (the executors label their workers). Registration is
    /// unconditional, so labels are in place before stamping is
    /// switched on; the ids are compact and first-sight ordered.
    pub fn label_trace_thread(&self, label: &str) {
        self.register_tid(Some(label));
    }

    /// The flame-track labels registered so far (`compact tid -> label`),
    /// consumed by the Chrome-trace exporter.
    pub fn trace_thread_labels(&self) -> BTreeMap<u64, String> {
        self.tid_labels.lock().clone()
    }

    /// One 1-in-n sampling decision per source update.
    fn sample_span(&self) -> bool {
        let n = self.span_ratio.load(Ordering::Relaxed);
        n != 0
            && self
                .span_samples
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(n)
    }

    /// Mints the next span id. Ids start at 1 — 0 encodes "no parent"
    /// in serialized form.
    fn next_span_id(&self) -> u64 {
        self.span_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Samples a source update: on a hit, mints the root span of the
    /// causal cascade and emits the `source_update` anchor event that
    /// tracelint's T8 rule resolves notification roots against.
    fn mint_root(&self, origin: &DepSource, now: Timestamp) -> Option<SpanContext> {
        if !self.sample_span() {
            return None;
        }
        let ctx = SpanContext::root(self.next_span_id(), now);
        self.trace_span(Some(&ctx), || TraceEvent::SourceUpdate {
            origin: origin.to_string(),
            origin_kind: origin.kind(),
        });
        Some(ctx)
    }

    /// The bookkeeping lock, for a path that changes the handler set.
    fn bookkeeping(&self) -> Bookkeeping<'_> {
        Bookkeeping(Some(self.inner.lock()))
    }

    /// The live handlers in key order — the raw material of the catalog
    /// relations — shared by every catalog scan until the handler set
    /// changes. The first scan after a change copies the handler `Arc`s
    /// out of the key-ordered map under the bookkeeping lock; nothing
    /// is sorted.
    pub(crate) fn handlers_by_key(&self) -> Arc<[Arc<Handler>]> {
        let mut guard = self.inner.lock();
        let Inner {
            handlers, by_key, ..
        } = &mut *guard;
        by_key
            .get_or_insert_with(|| handlers.values().cloned().collect())
            .clone()
    }

    /// The key-ordered handler snapshot, if one is cached.
    #[cfg(test)]
    pub(crate) fn cached_handlers(&self) -> Option<Arc<[Arc<Handler>]>> {
        self.inner.lock().by_key.clone()
    }

    /// Runs `f` over the live handlers (in key order) under the
    /// bookkeeping lock and returns its result; a counter that exclusion
    /// folds under the same lock, read inside `f`, agrees with the
    /// handlers `f` sees. `f` must not call back into the manager's
    /// bookkeeping.
    pub(crate) fn with_handlers<T>(
        &self,
        f: impl FnOnce(btree_map::Values<'_, MetadataKey, Arc<Handler>>) -> T,
    ) -> T {
        f(self.inner.lock().handlers.values())
    }

    /// A weak self-reference for compute closures of the meta node.
    pub(crate) fn weak_self(&self) -> Weak<MetadataManager> {
        self.self_weak.clone()
    }

    /// Installs (or, with `None`, removes) a fault-injection plan. While
    /// installed, the plan is consulted once per compute evaluation and
    /// may panic, fail or delay it (inside the containment machinery, so
    /// injected faults exercise the production failure path). Chaos
    /// experiments only; without a plan each evaluation pays one relaxed
    /// atomic load.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        // On removal, clear the gate before the slot so evaluation sites
        // stop checking for the plan first.
        let enabled = plan.is_some();
        if !enabled {
            self.fault_enabled.store(false, Ordering::Relaxed);
        }
        *self.fault_plan.write() = plan;
        if enabled {
            self.fault_enabled.store(true, Ordering::Relaxed);
        }
    }

    /// Cross-partition update messages applied to local proxy items
    /// ([`Metric::RemoteUpdates`]).
    pub fn remote_update_count(&self) -> u64 {
        self.slots.get(Metric::RemoteUpdates)
    }

    /// Records the plane this manager is a partition of.
    pub(crate) fn set_plane(&self, plane: Weak<PartitionedMetadataPlane>) {
        *self.plane.write() = plane;
    }

    /// The plane this manager is a partition of, if any — the source of
    /// the plane-level catalog relations.
    pub(crate) fn plane(&self) -> Option<Arc<PartitionedMetadataPlane>> {
        self.plane.read().upgrade()
    }

    /// Number of currently quarantined items ([`Metric::Quarantined`]).
    pub fn quarantined_count(&self) -> usize {
        self.metric(Metric::Quarantined).unwrap_or(0) as usize
    }

    /// Whether `key` is currently quarantined.
    pub fn is_key_quarantined(&self, key: &MetadataKey) -> bool {
        self.handler(key).is_some_and(|h| self.is_quarantined(&h))
    }

    /// Reads and resets [`Metric::PropagationDepth`], the high-water
    /// BFS depth of trigger propagation — the "per observation window"
    /// part of the gauge: a poller gets the deepest handler recomputed
    /// by any round since its previous call (0 if no round reached
    /// anything).
    pub fn take_propagation_depth(&self) -> u64 {
        self.slots
            .slot(Metric::PropagationDepth)
            .swap(0, Ordering::Relaxed)
    }

    /// The manager's clock.
    pub fn clock(&self) -> &ClockRef {
        &self.clock
    }

    /// The periodic registry driving periodic handlers. Virtual-time
    /// drivers call `advance_to` on it as they step the clock.
    pub fn periodic(&self) -> &Arc<PeriodicRegistry> {
        &self.periodic
    }

    // ------------------------------------------------------------------
    // Node registries
    // ------------------------------------------------------------------

    /// Attaches a node's registry. Replaces a previous attachment.
    pub fn attach_node(&self, registry: Arc<NodeRegistry>) {
        self.registries.write().insert(registry.node(), registry);
    }

    /// Detaches a node's registry. Existing handlers keep the definitions
    /// they were created with; new subscriptions on the node fail.
    pub fn detach_node(&self, node: NodeId) -> Option<Arc<NodeRegistry>> {
        self.registries.write().remove(&node)
    }

    /// The registry attached for `node`.
    pub fn registry(&self, node: NodeId) -> Option<Arc<NodeRegistry>> {
        self.registries.read().get(&node).cloned()
    }

    /// Metadata discovery: the available item paths of a node.
    pub fn available_items(&self, node: NodeId) -> Result<Vec<ItemPath>> {
        self.registry(node)
            .map(|r| r.available())
            .ok_or(MetadataError::NodeUnknown(node))
    }

    /// All attached nodes, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<_> = self.registries.read().keys().copied().collect();
        v.sort();
        v
    }

    /// Removes an item definition with the same consistency guard as
    /// [`Self::redefine`]: removal is refused while the item has a live
    /// handler. Without the guard, a raw
    /// [`NodeRegistry::undefine`] + [`NodeRegistry::define`] pair would
    /// silently bypass the redefinition check — existing consumers would
    /// keep the old semantics while new dependents resolved against the
    /// new definition. Returns the removed definition, if any.
    pub fn undefine(&self, node: NodeId, path: &ItemPath) -> Result<Option<ItemDef>> {
        let key = MetadataKey::new(node, path.clone());
        let reg = self
            .registry(node)
            .ok_or(MetadataError::NodeUnknown(node))?;
        let inner = self.inner.lock();
        if inner.handlers.contains_key(&key) {
            return Err(MetadataError::ItemInUse(key));
        }
        // Holding `inner` prevents a concurrent inclusion from racing the
        // removal (inclusion takes `inner` first).
        Ok(reg.undefine(path))
    }

    /// Redefines an item (inheritance/overriding, Section 4.4.2) with a
    /// consistency guard: redefinition is refused while the item has a
    /// live handler, because existing consumers would silently keep the
    /// old semantics while new dependents resolved against the new one.
    pub fn redefine(&self, node: NodeId, def: ItemDef) -> Result<()> {
        let key = MetadataKey::new(node, def.path().clone());
        let reg = self
            .registry(node)
            .ok_or(MetadataError::NodeUnknown(node))?;
        let inner = self.inner.lock();
        if inner.handlers.contains_key(&key) {
            return Err(MetadataError::ItemInUse(key));
        }
        // Holding `inner` prevents a concurrent inclusion from racing the
        // definition swap (inclusion takes `inner` first).
        reg.define(def);
        Ok(())
    }

    /// Batch variant of [`Self::redefine`] with the same consistency
    /// guard, checked atomically for the *whole* batch: if any definition
    /// would replace an item with a live handler, the entire batch is
    /// refused with [`MetadataError::ItemInUse`] and nothing is
    /// installed. The raw [`NodeRegistry::define_all`] has no such guard
    /// (see its documentation) — this is the checked path for replacing
    /// definitions at runtime.
    pub fn redefine_all(&self, node: NodeId, defs: Vec<ItemDef>) -> Result<()> {
        let reg = self
            .registry(node)
            .ok_or(MetadataError::NodeUnknown(node))?;
        let inner = self.inner.lock();
        for def in &defs {
            let key = MetadataKey::new(node, def.path().clone());
            if inner.handlers.contains_key(&key) {
                return Err(MetadataError::ItemInUse(key));
            }
        }
        // Holding `inner` prevents a concurrent inclusion from racing the
        // batch swap (inclusion takes `inner` first).
        for def in defs {
            reg.define(def);
        }
        Ok(())
    }

    fn lookup_def(&self, key: &MetadataKey) -> Result<ItemDef> {
        let reg = self
            .registry(key.node)
            .ok_or(MetadataError::NodeUnknown(key.node))?;
        reg.get(&key.item)
            .ok_or_else(|| MetadataError::ItemUndefined(key.clone()))
    }

    // ------------------------------------------------------------------
    // Subscription (automatic inclusion / exclusion, Section 2.4)
    // ------------------------------------------------------------------

    /// Subscribes to a metadata item. All (transitive) dependencies are
    /// included automatically; shared items are reference counted. The
    /// returned [`Subscription`] unsubscribes on drop.
    pub fn subscribe(self: &Arc<Self>, key: MetadataKey) -> Result<Subscription> {
        // A sampled subscription roots the spans of its inclusion DFS
        // and the initial pre-computations it causes.
        let root = self
            .sample_span()
            .then(|| SpanContext::root(self.next_span_id(), self.clock.now()));
        self.trace_span(root.as_ref(), || TraceEvent::Subscribe { key: key.clone() });
        self.run_validator(&key)?;
        let mut created: Vec<Arc<Handler>> = Vec::new();
        let mut log: Vec<MetadataKey> = Vec::new();
        let result = {
            let mut inner = self.bookkeeping();
            let mut stack = Vec::new();
            self.include(
                &mut inner,
                key.clone(),
                &mut stack,
                &mut log,
                &mut created,
                root.as_ref(),
            )
            // Capture the handler while the bookkeeping lock is still
            // held: a concurrent force-exclusion may remove it from the
            // maps the moment the lock drops, and the subscription must
            // pin *this* incarnation (reads then serve it as defunct)
            // rather than panic on a failed re-lookup.
            .map(|()| {
                inner
                    .handlers
                    .get(&key)
                    .expect("inclusion just installed the handler")
                    .clone()
            })
        };
        match result {
            Ok(handler) => {
                self.run_inclusion_actions(&created, root.as_ref());
                if let Some(root) = &root {
                    self.record_span(root, Some(&key), TraceKind::Subscribe, self.clock.now());
                }
                Ok(Subscription::new(self.clone(), key, handler))
            }
            Err(e) => {
                self.rollback(&log);
                Err(e)
            }
        }
    }

    /// Installs a subscription-time validator (or removes it with
    /// `None`). The validator is consulted by [`Self::subscribe`] before
    /// any inclusion happens; under [`ValidationPolicy::Deny`] a
    /// subscription with violations is refused, under
    /// [`ValidationPolicy::Warn`] the violations are recorded and the
    /// subscription proceeds. The static-analysis crate installs its
    /// rule engine through this hook.
    pub fn set_validator(&self, f: Option<Arc<ValidatorFn>>, policy: ValidationPolicy) {
        *self.validator.write() = f.map(|f| ValidatorHook { f, policy });
    }

    /// Drains the violations recorded by a `Warn`-policy validator.
    pub fn take_validation_warnings(&self) -> Vec<String> {
        std::mem::take(&mut self.validation_warnings.lock())
    }

    /// Runs the installed validator for a pending subscription to `key`.
    /// Called before the bookkeeping mutex is taken, so the validator can
    /// use the manager's read-side introspection freely.
    fn run_validator(&self, key: &MetadataKey) -> Result<()> {
        // Clone the hook out so the validator runs without the slot lock
        // held (it may itself be replaced from another thread).
        let hook = {
            let guard = self.validator.read();
            guard.as_ref().map(|h| (h.f.clone(), h.policy))
        };
        let Some((f, policy)) = hook else {
            return Ok(());
        };
        let violations = f(self, key);
        if violations.is_empty() {
            return Ok(());
        }
        match policy {
            ValidationPolicy::Warn => {
                self.validation_warnings.lock().extend(violations);
                Ok(())
            }
            ValidationPolicy::Deny => Err(MetadataError::ValidationFailed(key.clone(), violations)),
        }
    }

    /// Subscribes to `key` with a push observer.
    ///
    /// Delivery guarantee: the callback is synchronously invoked with the
    /// item's *current* snapshot at registration time (if a value has
    /// ever been stored — inclusion pre-computes static, periodic and
    /// triggered items, so those deliver immediately), and then after
    /// every stored value change (periodic publishes, trigger updates,
    /// on-demand recomputations that changed the value). Versions are
    /// strictly increasing per observer; no update that happens after
    /// registration is skipped. The callback is invoked on the updating
    /// thread and must be fast and non-blocking; it must not call back
    /// into the manager. Deregistered when the returned [`Subscription`]
    /// drops.
    pub fn subscribe_with(
        self: &Arc<Self>,
        key: MetadataKey,
        callback: impl Fn(&VersionedValue) + Send + Sync + 'static,
    ) -> Result<Subscription> {
        let sub = self.subscribe(key)?;
        let id = sub
            .cached_handler()
            .add_observer_with_snapshot(Box::new(callback));
        Ok(sub.with_observer(id))
    }

    /// Subscribes to every available item of `node` (the "maintain all
    /// metadata" mode the paper argues against; used as the baseline in
    /// the scalability experiments).
    pub fn subscribe_all(self: &Arc<Self>, node: NodeId) -> Result<Vec<Subscription>> {
        let items = self.available_items(node)?;
        items
            .into_iter()
            .map(|item| self.subscribe(MetadataKey::new(node, item)))
            .collect()
    }

    fn include(
        &self,
        inner: &mut Inner,
        key: MetadataKey,
        stack: &mut Vec<MetadataKey>,
        log: &mut Vec<MetadataKey>,
        created: &mut Vec<Arc<Handler>>,
        root: Option<&SpanContext>,
    ) -> Result<()> {
        if let Some(handler) = inner.handlers.get(&key) {
            // "The traversal stops at items already provided" — but every
            // inclusion path contributes one reference.
            handler.subscriptions.fetch_add(1, Ordering::Relaxed);
            log.push(key);
            return Ok(());
        }
        if stack.contains(&key) {
            let mut path = stack.clone();
            path.push(key);
            return Err(MetadataError::CyclicDependency(path));
        }
        let def = self.lookup_def(&key)?;
        stack.push(key.clone());
        let resolved = {
            let handlers = &inner.handlers;
            def.resolve_deps(key.node, &|k| handlers.contains_key(k))
        };
        for dep in &resolved {
            if let DepSource::Item(dep_key) = &dep.source {
                self.include(inner, dep_key.clone(), stack, log, created, root)?;
            }
        }
        stack.pop();
        let handler = Arc::new(Handler::new(key.clone(), def, resolved));
        for dep in &handler.resolved_deps {
            let dependents = inner.dependents.entry(dep.source.clone()).or_default();
            // Duplicate subscriptions by the same item are detected to
            // avoid redundant notifications (Section 3.2.3).
            if !dependents.contains(&key) {
                dependents.push(key.clone());
            }
        }
        inner.handlers.insert(key.clone(), handler.clone());
        inner.handlers_changed();
        self.shards.insert(key.clone(), handler.clone());
        // The stack holds the ancestors of `key` here, so its length is
        // the dependency depth; emission at insert time makes the trace
        // list inclusions in DFS dependency order (dependencies first).
        // Each inclusion hop spans flat under the subscribe root (the
        // DFS nesting is already carried by `depth`).
        let hop = root.map(|r| r.child(self.next_span_id(), self.clock.now()));
        if let Some(hop) = &hop {
            self.record_span(hop, Some(&key), TraceKind::Include, self.clock.now());
        }
        self.trace_span(hop.as_ref(), || TraceEvent::Include {
            key: key.clone(),
            mechanism: handler.mechanism().label(),
            depth: stack.len(),
        });
        log.push(key);
        created.push(handler);
        Ok(())
    }

    /// Post-inclusion actions, run without the bookkeeping lock, in
    /// dependency order (dependencies first): activate monitoring code,
    /// register periodic refresh tasks, and pre-compute initial values
    /// (triggered values "are pre-computed on the first subscription",
    /// Section 3.2.3).
    fn run_inclusion_actions(
        self: &Arc<Self>,
        created: &[Arc<Handler>],
        root: Option<&SpanContext>,
    ) {
        let now = self.clock.now();
        for h in created {
            for m in &h.def.monitors {
                m.activate();
            }
            if let Some(hook) = &h.def.on_include {
                hook();
            }
            match h.mechanism() {
                Mechanism::Static => {
                    let ctx = root.map(|r| r.child(self.next_span_id(), now));
                    self.refresh_handler(h, None, now, ctx.as_ref());
                }
                Mechanism::OnDemand => {} // computed on access
                Mechanism::Periodic { window } => {
                    // Initial evaluation over an empty window lets stateful
                    // compute functions initialise; then schedule refreshes.
                    let guard = h.compute_lock.lock();
                    let ctx = root.map(|r| r.child(self.next_span_id(), now));
                    self.refresh_handler(h, Some(TimeSpan::ZERO), now, ctx.as_ref());
                    drop(guard);
                    let task = PeriodicRefresh {
                        manager: self.self_weak.clone(),
                        key: h.key.clone(),
                        window,
                    };
                    let id = self.periodic.register(
                        now + window,
                        window,
                        Arc::new(task) as Arc<dyn PeriodicTask>,
                    );
                    *h.periodic_task.lock() = Some(id);
                }
                Mechanism::Triggered => {
                    let ctx = root.map(|r| r.child(self.next_span_id(), now));
                    self.refresh_handler(h, None, now, ctx.as_ref());
                }
            }
        }
    }

    fn rollback(&self, log: &[MetadataKey]) {
        let mut removed = Vec::new();
        {
            let mut inner = self.bookkeeping();
            for key in log.iter().rev() {
                self.decrement(&mut inner, key, &mut removed);
            }
        }
        // Handlers removed during rollback never ran their inclusion
        // actions, so no exclusion actions are due.
        debug_assert!(removed
            .iter()
            .all(|h: &Arc<Handler>| { h.periodic_task.lock().is_none() }));
    }

    /// Decrements `key`'s refcount; on zero removes the handler (from
    /// the bookkeeping map and the sharded index) and its inverted edges
    /// (without recursing into dependencies).
    fn decrement(&self, inner: &mut Inner, key: &MetadataKey, removed: &mut Vec<Arc<Handler>>) {
        let Some(handler) = inner.handlers.get(key) else {
            return;
        };
        if handler.subscriptions.fetch_sub(1, Ordering::Relaxed) > 1 {
            return;
        }
        // Idempotent removal: a concurrent force-exclusion may already
        // have taken the handler out between the lookup above and here
        // (both run under `inner`, but the force path removes without
        // consulting this refcount). A vanished entry is simply done.
        let Some(handler) = inner.handlers.remove(key) else {
            return;
        };
        inner.handlers_changed();
        self.shards.remove(key);
        handler.retire(&self.slots.retired);
        for dep in &handler.resolved_deps {
            if let Some(list) = inner.dependents.get_mut(&dep.source) {
                list.retain(|k| k != key);
                if list.is_empty() {
                    inner.dependents.remove(&dep.source);
                }
            }
        }
        removed.push(handler);
    }

    /// Cancels one subscription on `key`, excluding dependent items
    /// recursively (Section 2.4). Identity-checked, called by
    /// [`Subscription`] on drop: decrements only if `key` still maps to
    /// the exact handler the subscription pinned. A force-excluded
    /// (defunct) handler was already removed from the bookkeeping —
    /// decrementing by key alone would debit a fresh re-inclusion's
    /// refcount instead. The identity comparison runs under the
    /// bookkeeping mutex, so it cannot race a concurrent
    /// force-exclusion.
    pub(crate) fn unsubscribe_handle(&self, key: &MetadataKey, handler: &Arc<Handler>) {
        let mut removed = Vec::new();
        let remaining_after = {
            let mut inner = self.bookkeeping();
            let live = inner
                .handlers
                .get(key)
                .is_some_and(|cur| Arc::ptr_eq(cur, handler));
            if !live {
                return; // force-excluded from under the subscription
            }
            self.trace(|| TraceEvent::Unsubscribe { key: key.clone() });
            self.exclude(&mut inner, key, &mut removed);
            inner.handlers.len()
        };
        // The i-th of n drops left `remaining_after + (n - 1 - i)` live
        // handlers; an exclusion cascade back to idle traces down to 0.
        let n = removed.len();
        for (i, h) in removed.iter().enumerate() {
            self.trace(|| TraceEvent::Exclude {
                key: h.key.clone(),
                remaining: remaining_after + (n - 1 - i),
            });
        }
        self.run_exclusion_actions(&removed);
    }

    fn exclude(&self, inner: &mut Inner, key: &MetadataKey, removed: &mut Vec<Arc<Handler>>) {
        let before = removed.len();
        self.decrement(inner, key, removed);
        if removed.len() == before {
            return; // still referenced (or unknown)
        }
        let handler = removed[before].clone();
        for dep in &handler.resolved_deps {
            if let DepSource::Item(dep_key) = &dep.source {
                self.exclude(inner, dep_key, removed);
            }
        }
    }

    fn run_exclusion_actions(&self, removed: &[Arc<Handler>]) {
        for h in removed {
            if let Some(task) = h.periodic_task.lock().take() {
                self.periodic.cancel(task);
            }
            for m in &h.def.monitors {
                m.deactivate();
            }
            if let Some(hook) = &h.def.on_exclude {
                hook();
            }
        }
    }

    /// Force-excludes `key` regardless of its subscription count — the
    /// administrative eviction a remote partition uses when it withdraws
    /// an item (and the race the lifecycle-panic sweep hardens against).
    ///
    /// Outstanding [`Subscription`] handles keep serving the handler's
    /// last good value, marked degraded; their fallible reads report
    /// [`MetadataError::Excluded`] and their drops become no-ops.
    /// Dependencies included on the item's behalf are excluded exactly
    /// as if the last subscription had been dropped. Returns whether a
    /// handler was actually removed.
    pub fn force_exclude(&self, key: &MetadataKey) -> bool {
        let mut removed = Vec::new();
        let remaining_after = {
            let mut inner = self.bookkeeping();
            let Some(handler) = inner.handlers.get(key) else {
                return false;
            };
            // Defunct before degraded: a reader that observes the
            // degraded value may already consult the defunct flag.
            handler.mark_defunct();
            handler.mark_degraded();
            // Collapse the refcount so the ordinary exclusion recursion
            // removes the handler and debits each dependency exactly
            // once (dependency refcounts are per-inclusion, not
            // per-subscription).
            handler.subscriptions.store(1, Ordering::Relaxed);
            self.trace(|| TraceEvent::Unsubscribe { key: key.clone() });
            self.exclude(&mut inner, key, &mut removed);
            inner.handlers.len()
        };
        let n = removed.len();
        for (i, h) in removed.iter().enumerate() {
            self.trace(|| TraceEvent::Exclude {
                key: h.key.clone(),
                remaining: remaining_after + (n - 1 - i),
            });
        }
        self.run_exclusion_actions(&removed);
        !removed.is_empty()
    }

    /// Registers an additional subscription on `key` against the exact
    /// `handler` a live [`Subscription`] pinned (the panic-free clone
    /// path). If the bookkeeping still maps `key` to that handler, the
    /// refcount is bumped; otherwise the item was force-excluded in the
    /// meantime and the clone pins the same defunct handler — it reads
    /// the last good value and reports errors instead of panicking.
    pub(crate) fn resubscribe(
        self: &Arc<Self>,
        key: &MetadataKey,
        handler: &Arc<Handler>,
    ) -> Subscription {
        {
            let inner = self.inner.lock();
            if let Some(current) = inner.handlers.get(key) {
                if Arc::ptr_eq(current, handler) {
                    current.subscriptions.fetch_add(1, Ordering::Relaxed);
                    self.trace(|| TraceEvent::Subscribe { key: key.clone() });
                    return Subscription::new(self.clone(), key.clone(), handler.clone());
                }
            }
        }
        handler.mark_defunct();
        Subscription::new(self.clone(), key.clone(), handler.clone())
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Resolves a handler through the sharded index — one shard read
    /// lock, never the bookkeeping mutex.
    fn handler(&self, key: &MetadataKey) -> Option<Arc<Handler>> {
        self.slots.bump(Metric::ShardReads);
        self.shards.get(key)
    }

    /// Read through a cached handler (the [`Subscription`] fast path):
    /// no manager lock of any kind, only the item-level value lock (and
    /// the compute mutex for on-demand items).
    pub(crate) fn read_cached(&self, handler: &Arc<Handler>) -> VersionedValue {
        // One relaxed increment — the manager-level cached-read count
        // (`Metric::FastReads`) is derived, not maintained here.
        handler.record_access();
        self.access_handler(handler)
    }

    /// The current value of an included item. On-demand items are
    /// recomputed by this access (Section 3.2.1).
    pub fn read(&self, key: &MetadataKey) -> Result<MetadataValue> {
        self.read_versioned(key).map(|v| v.value)
    }

    /// Like [`Self::read`], including version and update instant.
    pub fn read_versioned(&self, key: &MetadataKey) -> Result<VersionedValue> {
        let handler = self
            .handler(key)
            .ok_or_else(|| MetadataError::NotIncluded(key.clone()))?;
        handler.record_key_access();
        Ok(self.access_handler(&handler))
    }

    /// Like [`Self::read_versioned`], but refuses to serve stale values:
    /// a quarantined item reports [`MetadataError::Quarantined`] and a
    /// degraded (last-good) value reports [`MetadataError::Degraded`].
    /// For consumers that cannot tolerate staleness; everyone else uses
    /// [`Self::read`] / [`Self::read_versioned`] and checks
    /// [`VersionedValue::degraded`] when they care.
    pub fn read_fresh(&self, key: &MetadataKey) -> Result<VersionedValue> {
        let handler = self
            .handler(key)
            .ok_or_else(|| MetadataError::NotIncluded(key.clone()))?;
        handler.record_key_access();
        if self.is_quarantined(&handler) {
            return Err(MetadataError::Quarantined(key.clone()));
        }
        let v = self.access_handler(&handler);
        if v.degraded {
            return Err(MetadataError::Degraded(key.clone()));
        }
        Ok(v)
    }

    fn access_handler(&self, handler: &Arc<Handler>) -> VersionedValue {
        if handler.on_demand {
            let contained = handler.def.deadline().is_some() || handler.def.fallback().is_some();
            if !contained {
                let now = self.clock.now();
                let _guard = handler.compute_lock.lock();
                self.refresh_handler(handler, None, now, None);
            } else if !self.is_quarantined(handler) {
                // No-hang guarantee for contained items: if another
                // consumer is already stuck inside a slow compute, serve
                // the current (possibly degraded) snapshot instead of
                // queueing behind it past the deadline.
                if let Some(_guard) = handler.compute_lock.try_lock() {
                    let now = self.clock.now();
                    self.refresh_handler(handler, None, now, None);
                }
            }
        }
        let snapshot = handler.snapshot();
        if snapshot.degraded {
            self.slots.bump(Metric::StaleServes);
        }
        snapshot
    }

    /// Whether `key` currently has a handler. One shard read lock.
    pub fn is_included(&self, key: &MetadataKey) -> bool {
        self.slots.bump(Metric::ShardReads);
        self.shards.contains(key)
    }

    /// The subscription count of `key` (0 if not included).
    pub fn subscription_count(&self, key: &MetadataKey) -> usize {
        self.handler(key)
            .map_or(0, |h| h.subscriptions.load(Ordering::Relaxed))
    }

    /// Number of live handlers.
    pub fn handler_count(&self) -> usize {
        self.inner.lock().handlers.len()
    }

    /// The keys of all live handlers, sorted.
    pub fn included_keys(&self) -> Vec<MetadataKey> {
        self.inner.lock().handlers.keys().cloned().collect()
    }

    /// Per-item statistics, if the item is included. Served by the
    /// sharded index, without the bookkeeping mutex.
    pub fn handler_stats(&self, key: &MetadataKey) -> Option<HandlerStats> {
        self.handler(key).map(|h| h.stats())
    }

    /// The statistics of every included item with compute-latency
    /// observations (see [`Self::set_latency_profiling`]), sorted by
    /// key: one pass over the catalog's key-ordered handler snapshot,
    /// skipping the never-profiled. Until some handler has been
    /// profiled, no pass and no snapshot.
    pub fn profiled_handler_stats(&self) -> Vec<(MetadataKey, HandlerStats)> {
        if !self.latency_profiled.load(Ordering::Relaxed) {
            return Vec::new();
        }
        self.handlers_by_key()
            .iter()
            .filter_map(|h| {
                let stats = h.stats();
                stats.latency_p50.is_some().then(|| (h.key.clone(), stats))
            })
            .collect()
    }

    /// The update mechanism of an included item.
    pub fn mechanism_of(&self, key: &MetadataKey) -> Option<Mechanism> {
        self.handler(key).map(|h| h.mechanism())
    }

    /// Number of partitions of the sharded handler index.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    // ------------------------------------------------------------------
    // Dependency-graph introspection
    // ------------------------------------------------------------------

    /// All edges of the runtime dependency graph, as
    /// `(source, dependent item)` pairs, sorted.
    pub fn dependency_edges(&self) -> Vec<(DepSource, MetadataKey)> {
        let inner = self.inner.lock();
        let mut edges: Vec<(DepSource, MetadataKey)> = inner
            .dependents
            .iter()
            .flat_map(|(src, deps)| deps.iter().map(move |d| (src.clone(), d.clone())))
            .collect();
        edges.sort();
        edges
    }

    /// The items currently registered as dependents of `source`.
    pub fn dependents_of(&self, source: &DepSource) -> Vec<MetadataKey> {
        let mut v = self
            .inner
            .lock()
            .dependents
            .get(source)
            .cloned()
            .unwrap_or_default();
        v.sort();
        v
    }

    /// The resolved dependencies of an included item (role + source), in
    /// declaration order.
    pub fn dependencies_of(&self, key: &MetadataKey) -> Option<Vec<crate::ResolvedDep>> {
        self.handler(key).map(|h| h.resolved_deps.clone())
    }

    /// The included dependency subgraph in Graphviz DOT syntax: boxes for
    /// metadata items (labelled with their mechanism), diamonds for event
    /// sources, arrows from dependency to dependent.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph metadata {\n  rankdir=BT;\n");
        for key in self.included_keys() {
            let mech = self.mechanism_of(&key).map_or("?", |m| m.label());
            let _ = writeln!(out, "  \"{key}\" [shape=box, label=\"{key}\\n({mech})\"];");
        }
        let mut events = std::collections::BTreeSet::new();
        for (src, dependent) in self.dependency_edges() {
            let from = match &src {
                DepSource::Item(k) => format!("{k}"),
                DepSource::Event(e) => {
                    events.insert(e.clone());
                    format!("{e}")
                }
            };
            let _ = writeln!(out, "  \"{from}\" -> \"{dependent}\";");
        }
        for e in events {
            let _ = writeln!(out, "  \"{e}\" [shape=diamond];");
        }
        out.push_str("}\n");
        out
    }

    // ------------------------------------------------------------------
    // Updates and trigger propagation (Section 3.2.3)
    // ------------------------------------------------------------------

    /// Whether a handler's circuit breaker is currently open. Only items
    /// with a fallback policy ever pay the containment-lock check.
    pub(crate) fn is_quarantined(&self, handler: &Handler) -> bool {
        handler.def.fallback().is_some() && handler.containment.lock().quarantined_until.is_some()
    }

    /// Evaluates a handler's compute function. Panics in user compute
    /// code are contained: the evaluation reports `Unavailable` and the
    /// failure is counted, so one faulty metadata item cannot take down
    /// query processing or leave the framework's locks poisoned (all
    /// bookkeeping locks are released while user code runs). An installed
    /// fault plan is consulted here — inside the containment — and a
    /// declared deadline is measured against the manager's clock, so
    /// overruns are detected identically under wall and virtual time.
    fn compute_raw(
        &self,
        handler: &Arc<Handler>,
        window: Option<TimeSpan>,
        now: Timestamp,
        span: Option<&SpanContext>,
    ) -> ComputeOutcome {
        handler.record_compute();
        self.slots.bump(Metric::Computes);
        let fault = if self.fault_enabled.load(Ordering::Relaxed) {
            let plan = self.fault_plan.read().clone();
            plan.and_then(|p| p.decide(&handler.key).map(|a| (p, a)))
        } else {
            None
        };
        let ctx = EvalCtx {
            now,
            window,
            reader: self,
            deps: &handler.resolved_deps,
        };
        let compute = &handler.def.compute;
        let started = self
            .profile_latency
            .load(Ordering::Relaxed)
            .then(std::time::Instant::now);
        let deadline = handler.def.deadline();
        let clock_start = deadline.map(|_| self.clock.now());
        // Lock-audit marker: only ItemCompute / FlushSerial may be held
        // while the user closure below runs.
        crate::sync::note_user_compute();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &fault {
            Some((_, FaultAction::Panic)) => panic!("injected fault: {}", handler.key),
            Some((_, FaultAction::Error)) => MetadataValue::Unavailable,
            Some((plan, FaultAction::Delay(d))) => {
                plan.delay(*d);
                compute(&ctx)
            }
            None => compute(&ctx),
        }));
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos().min(i64::MAX as u128) as i64;
            if handler.observe_latency(ns) {
                self.latency_profiled.store(true, Ordering::Relaxed);
            }
        }
        let overran = match (deadline, clock_start) {
            (Some(budget), Some(t0)) => {
                let elapsed = self.clock.now().since(t0);
                if elapsed > budget {
                    self.slots.bump(Metric::DeadlineOverruns);
                    self.trace_span(span, || TraceEvent::DeadlineExceeded {
                        key: handler.key.clone(),
                        budget,
                        elapsed,
                    });
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        match result {
            Ok(v) => ComputeOutcome {
                value: v,
                panicked: false,
                overran,
            },
            Err(_) => {
                self.slots.bump(Metric::ComputeFailures);
                self.trace_span(span, || TraceEvent::ComputeFailed {
                    key: handler.key.clone(),
                });
                ComputeOutcome {
                    value: MetadataValue::Unavailable,
                    panicked: true,
                    overran,
                }
            }
        }
    }

    /// Evaluates and stores one handler, applying its failure-containment
    /// policy. Returns whether the stored value changed. The caller holds
    /// the handler's compute lock where required (matching the
    /// pre-containment call sites); manager-level `updates` accounting
    /// stays with the caller too.
    ///
    /// * No deadline, no policy: exactly the pre-containment behaviour —
    ///   the result (including `Unavailable` after a panic) is stored.
    /// * Deadline without policy: overruns are counted and traced, but
    ///   observation-only — the late result is still stored. Static
    ///   analysis flags this combination (rule C1).
    /// * With a policy, a failed evaluation (panic, overrun, or an
    ///   `Unavailable` result) is discarded: the last good value keeps
    ///   serving, marked degraded, and the failure feeds the retry /
    ///   quarantine state machine.
    fn refresh_handler(
        &self,
        handler: &Arc<Handler>,
        window: Option<TimeSpan>,
        now: Timestamp,
        span: Option<&SpanContext>,
    ) -> bool {
        let deadline = handler.def.deadline();
        let policy = handler.def.fallback();
        if deadline.is_none() && policy.is_none() {
            let out = self.compute_raw(handler, window, now, span);
            return self.store_traced(handler, out.value, now, span);
        }
        let out = self.compute_raw(handler, window, now, span);
        let failed =
            out.panicked || (policy.is_some() && (out.overran || !out.value.is_available()));
        if !failed {
            if policy.is_some() {
                let (pending, recovered) = {
                    let mut st = handler.containment.lock();
                    st.streak = 0;
                    st.attempt = 0;
                    (st.retry_task.take(), st.quarantined_until.take().is_some())
                };
                if let Some(task) = pending {
                    self.periodic.cancel(task);
                }
                if recovered {
                    self.trace_span(span, || TraceEvent::QuarantineRecovered {
                        key: handler.key.clone(),
                    });
                }
            }
            return self.store_traced(handler, out.value, now, span);
        }
        let Some(policy) = policy else {
            // Deadline-only item: observation, not containment.
            return self.store_traced(handler, out.value, now, span);
        };
        handler.mark_degraded();
        // Follow-ups are scheduled from the evaluation's *scheduled* time
        // (`now`), like periodic boundaries — so a coarse virtual-clock
        // step drives a whole retry chain to completion deterministically.
        let scheduled_at = now;
        let mut st = handler.containment.lock();
        st.streak = st.streak.saturating_add(1);
        if st.streak >= policy.quarantine_after {
            let until = scheduled_at + policy.cool_down;
            st.quarantined_until = Some(until);
            st.attempt = 0;
            st.trips = st.trips.saturating_add(1);
            let task = ContainmentTask {
                manager: self.self_weak.clone(),
                key: handler.key.clone(),
                probe: true,
                span: span.cloned(),
            };
            st.retry_task = Some(
                self.periodic
                    .register_once(until, Arc::new(task) as Arc<dyn PeriodicTask>),
            );
            drop(st);
            self.slots.bump(Metric::QuarantineTrips);
            self.trace_span(span, || TraceEvent::QuarantineTripped {
                key: handler.key.clone(),
                until,
            });
        } else if st.attempt < policy.max_retries {
            let delay = policy.retry_delay(st.attempt);
            st.attempt += 1;
            let attempt = st.attempt;
            let task = ContainmentTask {
                manager: self.self_weak.clone(),
                key: handler.key.clone(),
                probe: false,
                span: span.cloned(),
            };
            st.retry_task = Some(self.periodic.register_once(
                scheduled_at + delay,
                Arc::new(task) as Arc<dyn PeriodicTask>,
            ));
            drop(st);
            self.slots.bump(Metric::Retries);
            self.trace_span(span, || TraceEvent::RetryScheduled {
                key: handler.key.clone(),
                attempt,
                delay,
            });
        }
        false
    }

    /// Stores a computed value; on change traces the new version — the
    /// witness tracelint's T1 monotonicity rule replays — and, when the
    /// change was pushed to observers, the `notified` event whose root
    /// tracelint's T8 rule resolves. Callers serialize per handler
    /// (compute lock), so the version read back here is the one this
    /// store produced.
    fn store_traced(
        &self,
        handler: &Arc<Handler>,
        value: MetadataValue,
        now: Timestamp,
        span: Option<&SpanContext>,
    ) -> bool {
        let delivered = handler.store_if_changed_spanned(value, now, span);
        if let Some(observers) = delivered {
            let version = handler.snapshot().version;
            self.trace_span(span, || TraceEvent::ValueStored {
                key: handler.key.clone(),
                version,
            });
            if observers > 0 {
                self.trace_span(span, || TraceEvent::Notified {
                    key: handler.key.clone(),
                    version,
                    observers,
                });
            }
        }
        delivered.is_some()
    }

    /// A scheduled containment evaluation of `key`: a backoff retry, or
    /// (`probe`) the recovery probe at the end of a quarantine cool-down.
    /// A retry is skipped if the item was quarantined in the meantime; a
    /// probe is the one evaluation allowed while the circuit is still
    /// open — success clears the quarantine (inside
    /// [`Self::refresh_handler`], which also traces the recovery),
    /// failure re-trips it for another cool-down. Either way a changed
    /// value propagates like any other update, and the evaluation
    /// inherits the span of the failing compute as `parent` (carried
    /// explicitly through the [`ContainmentTask`] handoff), so a failure
    /// chain reads as one nested lineage in `sys.spans`.
    fn containment_refresh(
        &self,
        key: &MetadataKey,
        now: Timestamp,
        parent: Option<&SpanContext>,
        probe: bool,
    ) {
        let Some(handler) = self.handler(key) else {
            return; // excluded between scheduling and firing
        };
        if !probe && self.is_quarantined(&handler) {
            return;
        }
        let ctx = parent.map(|p| p.child(self.next_span_id(), now));
        let changed = {
            let _guard = handler.compute_lock.lock();
            self.refresh_handler(&handler, None, now, ctx.as_ref())
        };
        if let Some(ctx) = &ctx {
            let kind = if probe {
                SpanKind::PROBE
            } else {
                SpanKind::RETRY
            };
            self.record_span(ctx, Some(key), kind, self.clock.now());
        }
        if changed {
            self.slots.bump(Metric::Updates);
            self.propagate_rooted(
                DepSource::Item(key.clone()),
                now,
                ctx.as_ref().map(SpanLink::of),
            );
        }
    }

    /// Refresh of one periodic handler at a window boundary. A sampled
    /// firing mints a fresh root span (the periodic boundary *is* the
    /// source update of the cascade it may cause).
    fn periodic_refresh(&self, key: &MetadataKey, boundary: Timestamp, window: TimeSpan) {
        let Some(handler) = self.handler(key) else {
            return; // unsubscribed between scheduling and firing
        };
        if self.is_quarantined(&handler) {
            // Circuit open: scheduled evaluations stop entirely until the
            // recovery probe; consumers keep the degraded last-good value.
            return;
        }
        let root = self
            .sample_span()
            .then(|| SpanContext::root(self.next_span_id(), boundary));
        let changed = {
            let _guard = handler.compute_lock.lock();
            let changed = self.refresh_handler(&handler, Some(window), boundary, root.as_ref());
            if changed {
                self.slots.bump(Metric::Updates);
            }
            changed
        };
        // Deadline-miss detection: the refresh finished a full window (or
        // more) after its scheduled boundary, i.e. the next boundary was
        // already due. Under a virtual-time driver this flags catch-up
        // firings after coarse clock steps; under wall clock, overload.
        let fired_at = self.clock.now();
        let missed = fired_at.since(boundary) >= window;
        if missed {
            self.slots.bump(Metric::DeadlineMisses);
        }
        if let Some(root) = &root {
            self.record_span(root, Some(key), TraceKind::PeriodicFired, fired_at);
        }
        self.trace_span(root.as_ref(), || TraceEvent::PeriodicFired {
            key: key.clone(),
            boundary,
            fired_at,
            missed,
        });
        if changed {
            self.propagate_rooted(
                DepSource::Item(key.clone()),
                boundary,
                root.as_ref().map(SpanLink::of),
            );
        }
    }

    /// Fires a manual event notification (Section 3.2.3): all triggered
    /// handlers depending on the event are updated, and changes propagate
    /// along the inverted dependency graph.
    pub fn fire_event(&self, event: EventKey) {
        let now = self.clock.now();
        self.propagate(DepSource::Event(event), now);
    }

    /// Notifies that the underlying state of an (on-demand) item changed,
    /// so triggered handlers depending on it recompute with fresh values
    /// (Section 3.2.3: bridging on-demand sources into triggered updates).
    pub fn notify_changed(&self, key: MetadataKey) {
        let now = self.clock.now();
        self.propagate(DepSource::Item(key), now);
    }

    /// Fires an event whose causal lineage was minted elsewhere — the
    /// cross-partition handoff: a remote store's span context arrives
    /// with the update message and the local cascade parents to it, so
    /// lineage reads as one chain across the partition boundary. Without
    /// a carried span this is [`Self::fire_event`] (local sampling).
    pub(crate) fn fire_event_linked(&self, event: EventKey, span: Option<&SpanContext>) {
        let now = self.clock.now();
        match span {
            Some(ctx) => {
                self.propagate_rooted(DepSource::Event(event), now, Some(SpanLink::of(ctx)))
            }
            None => self.propagate(DepSource::Event(event), now),
        }
    }

    // ------------------------------------------------------------------
    // Epoch (batch) propagation mode
    // ------------------------------------------------------------------

    /// Switches between per-event and epoch propagation. Entering epoch
    /// mode affects `fire_event` / `notify_changed` / periodic changes
    /// from here on; leaving it first flushes whatever is pending, so no
    /// queued update is lost by the switch.
    pub fn set_propagation_mode(&self, mode: PropagationMode) {
        match mode {
            PropagationMode::PerEvent => {
                {
                    let mut q = self.epoch_queue.lock();
                    q.enabled = false;
                }
                self.epoch_enabled.store(false, Ordering::Relaxed);
                // Drain anything enqueued before the switch.
                self.flush_epoch();
            }
            PropagationMode::Epoch(config) => {
                let mut q = self.epoch_queue.lock();
                q.config = config;
                q.enabled = true;
                drop(q);
                self.epoch_enabled.store(true, Ordering::Relaxed);
            }
        }
    }

    /// The currently active propagation mode.
    pub fn propagation_mode(&self) -> PropagationMode {
        let q = self.epoch_queue.lock();
        if q.enabled {
            PropagationMode::Epoch(q.config)
        } else {
            PropagationMode::PerEvent
        }
    }

    /// Source updates absorbed into an already-pending epoch entry
    /// ([`Metric::CoalescedUpdates`]).
    pub fn coalesced_update_count(&self) -> u64 {
        self.slots.get(Metric::CoalescedUpdates)
    }

    /// Distinct source updates currently queued for the next epoch.
    pub fn pending_update_count(&self) -> usize {
        self.epoch_queue.lock().pending.len()
    }

    /// Unconditionally flushes the pending epoch (shutdown drains, mode
    /// switches, tests). Returns the number of origins swept; 0 when
    /// nothing was pending.
    pub fn flush_epoch(&self) -> usize {
        self.flush_pending(None)
    }

    /// Flushes the pending epoch if its oldest update has waited at
    /// least the configured `max_delay` by `now`. The executors call
    /// this once per tick (virtual) / feeder iteration (threaded), which
    /// makes `max_delay` the epoch's time-slice bound. Returns the
    /// number of origins swept.
    pub fn flush_epoch_if_due(&self, now: Timestamp) -> usize {
        self.flush_pending(Some(now))
    }

    /// Queues one source update for the next epoch. Duplicate origins
    /// coalesce (counted, not re-queued); reaching `max_batch` distinct
    /// origins flushes synchronously on this thread. Returns `false` if
    /// epoch mode was switched off concurrently — the caller then falls
    /// back to an immediate per-event sweep. A sampled update's lineage
    /// rides in `pending_roots`: coalesced repeats *append* their roots,
    /// so the flush records every contributing source update.
    fn enqueue_update(&self, origin: DepSource, now: Timestamp, link: Option<SpanLink>) -> bool {
        let full = {
            let mut q = self.epoch_queue.lock();
            if !q.enabled {
                return false;
            }
            if q.pending_set.insert(origin.clone()) {
                q.pending.push(origin.clone());
                if q.first_enqueued.is_none() {
                    q.first_enqueued = Some(now);
                }
            } else {
                self.slots.bump(Metric::CoalescedUpdates);
            }
            if let Some(link) = link {
                match q.pending_roots.get_mut(&origin) {
                    Some(existing) => existing.roots.extend(link.roots),
                    None => {
                        q.pending_roots.insert(origin, link);
                    }
                }
            }
            q.pending.len() >= q.config.max_batch
        };
        if full {
            self.flush_pending(None);
        }
        true
    }

    /// Takes the pending batch (under `flush_serial`, so batches are
    /// numbered and delivered in order) and sweeps it as one epoch.
    /// `due_at: Some(now)` only flushes when the oldest pending update
    /// has aged past `max_delay`; `None` flushes unconditionally.
    fn flush_pending(&self, due_at: Option<Timestamp>) -> usize {
        let serial = self.flush_serial.lock();
        let (origins, roots) = {
            let mut q = self.epoch_queue.lock();
            if q.pending.is_empty() {
                return 0;
            }
            if let Some(now) = due_at {
                let due = q
                    .first_enqueued
                    .is_some_and(|t0| now.since(t0) >= q.config.max_delay);
                if !due {
                    return 0;
                }
            }
            q.pending_set.clear();
            q.first_enqueued = None;
            (
                std::mem::take(&mut q.pending),
                std::mem::take(&mut q.pending_roots),
            )
        };
        let epoch = self.slots.bump(Metric::Epochs) + 1;
        let swept = origins.len();
        // When any contributing update was sampled, the flush itself gets
        // a parentless span rooted in the *union* of every pending
        // origin's roots — the multi-root record of epoch coalescing.
        let flush_span = (!roots.is_empty()).then(|| {
            let mut all: Vec<u64> = roots
                .values()
                .flat_map(|l| l.roots.iter().copied())
                .collect();
            all.sort_unstable();
            all.dedup();
            SpanContext {
                span: self.next_span_id(),
                parent: None,
                roots: all,
                depth: 0,
                start: self.clock.now(),
            }
        });
        let seeds = (!roots.is_empty()).then_some(roots);
        let stats = self.sweep(&origins, Some(epoch), seeds);
        drop(serial);
        if let Some(ctx) = &flush_span {
            self.record_span(ctx, None, TraceKind::EpochFlushed, self.clock.now());
        }
        self.trace_span(flush_span.as_ref(), || TraceEvent::EpochFlushed {
            epoch,
            origins: swept,
            recomputed: stats.recomputed,
            max_depth: stats.max_depth,
        });
        swept
    }

    /// Recomputes all triggered items transitively reachable from `origin`
    /// over the inverted dependency graph — immediately in per-event mode,
    /// via the coalescing queue in epoch mode. Mints the root span of the
    /// resulting cascade when sampling hits: in per-event mode the root
    /// span covers the whole synchronous sweep; in epoch mode it covers
    /// the enqueue (the flush's own span covers the deferred sweep).
    fn propagate(&self, origin: DepSource, now: Timestamp) {
        match self.mint_root(&origin, now) {
            Some(root) => {
                let key = match &origin {
                    DepSource::Item(k) => Some(k.clone()),
                    DepSource::Event(_) => None,
                };
                self.propagate_rooted(origin, now, Some(SpanLink::of(&root)));
                self.record_span(
                    &root,
                    key.as_ref(),
                    TraceKind::SourceUpdate,
                    self.clock.now(),
                );
            }
            None => self.propagate_rooted(origin, now, None),
        }
    }

    /// Like [`Self::propagate`], but with the cascade's lineage already
    /// minted by the caller (retry chains, quarantine probes and
    /// periodic firings seed their own spans).
    fn propagate_rooted(&self, origin: DepSource, now: Timestamp, link: Option<SpanLink>) {
        if self.epoch_enabled.load(Ordering::Relaxed) {
            let link_for_queue = link.clone();
            if self.enqueue_update(origin.clone(), now, link_for_queue) {
                return;
            }
        }
        let seeds = link.map(|l| {
            let mut seeds = HashMap::with_capacity(1);
            seeds.insert(origin.clone(), l);
            seeds
        });
        self.sweep(std::slice::from_ref(&origin), None, seeds);
    }

    /// One propagation round over the union of the subgraphs reachable
    /// from `origins`. Items are processed in topological order of their
    /// dependencies, each at most once per round; an item only recomputes
    /// if one of its sources actually changed, and only propagates
    /// further if its own value changed, so each item delivers at most
    /// one observer notification per round.
    ///
    /// `seeds` carries the sampled lineage of the origins: each hop that
    /// stores a change hands its own span to its dependents, so the topo
    /// order doubles as the guarantee that every span's parent precedes
    /// it in the trace (tracelint T7).
    fn sweep(
        &self,
        origins: &[DepSource],
        epoch: Option<u64>,
        seeds: Option<HashMap<DepSource, SpanLink>>,
    ) -> SweepStats {
        let round = self.slots.bump(Metric::Propagations) + 1;
        // Phase 1: snapshot the affected subgraph under one bookkeeping
        // lock, remembering each item's BFS distance from the nearest
        // origin for the trace.
        let (plan, depths) = {
            let inner = self.inner.lock();
            let mut reach: BTreeMap<MetadataKey, Arc<Handler>> = BTreeMap::new();
            let mut depths: HashMap<MetadataKey, usize> = HashMap::new();
            let mut frontier: VecDeque<(DepSource, usize)> = VecDeque::new();
            for origin in origins {
                frontier.push_back((origin.clone(), 0));
            }
            while let Some((src, depth)) = frontier.pop_front() {
                if let Some(deps) = inner.dependents.get(&src) {
                    for key in deps {
                        if reach.contains_key(key) {
                            continue;
                        }
                        let Some(handler) = inner.handlers.get(key) else {
                            continue;
                        };
                        // Updates pass through *triggered* handlers only:
                        // periodic dependents refresh on their own
                        // schedule, on-demand dependents on access.
                        if handler.mechanism() == Mechanism::Triggered {
                            reach.insert(key.clone(), handler.clone());
                            depths.insert(key.clone(), depth + 1);
                            frontier.push_back((DepSource::Item(key.clone()), depth + 1));
                        }
                    }
                }
            }
            (topo_order(reach), depths)
        };
        // Phase 2: recompute outside the bookkeeping lock.
        let mut changed: HashSet<DepSource> = origins.iter().cloned().collect();
        // Sampled lineage: which changed sources hand which spans to
        // their dependents. A hop parents to the *first* contributing
        // source's span and inherits the union of all contributors'
        // roots (epoch mode: a coalesced item records every root).
        let mut lineage: HashMap<DepSource, SpanLink> = seeds.unwrap_or_default();
        let mut stats = SweepStats::default();
        for handler in plan {
            let affected = handler
                .resolved_deps
                .iter()
                .any(|d| changed.contains(&d.source));
            if !affected {
                continue;
            }
            // The snapshot is stale by the time phase 2 runs: the handler
            // may have been excluded (and the key possibly re-included as
            // a fresh handler) since phase 1. Recomputing the dead
            // handler would resurrect a removed item's value, so re-check
            // identity against the live registry before touching it.
            let live = self
                .shards
                .get(&handler.key)
                .is_some_and(|current| Arc::ptr_eq(&current, &handler));
            if !live {
                continue;
            }
            if self.is_quarantined(&handler) {
                // Quarantined dependents are not recomputed; they keep
                // serving their degraded last-good value and do not
                // propagate further.
                continue;
            }
            let _guard = handler.compute_lock.lock();
            // Each refresh is stamped at its own compute time, not at the
            // instant the sweep started: deep-chain recomputes finish
            // later, and stamping them all at the sweep start would
            // understate `staleness()` for everything below depth 1.
            let at = self.clock.now();
            let depth = depths.get(&handler.key).copied().unwrap_or(0);
            let ctx = if lineage.is_empty() {
                None
            } else {
                let mut parent = None;
                let mut roots: Vec<u64> = Vec::new();
                for dep in &handler.resolved_deps {
                    if let Some(link) = lineage.get(&dep.source) {
                        if parent.is_none() {
                            parent = Some(link.span);
                        }
                        roots.extend(link.roots.iter().copied());
                    }
                }
                parent.map(|parent| {
                    roots.sort_unstable();
                    roots.dedup();
                    SpanContext {
                        span: self.next_span_id(),
                        parent: Some(parent),
                        roots,
                        depth: depth as u32,
                        start: at,
                    }
                })
            };
            let stored = self.refresh_handler(&handler, None, at, ctx.as_ref());
            stats.recomputed += 1;
            if let Some(epoch) = epoch {
                handler.note_epoch(epoch);
            }
            if stored {
                self.slots.bump(Metric::Updates);
                changed.insert(DepSource::Item(handler.key.clone()));
                if let Some(ctx) = &ctx {
                    lineage.insert(DepSource::Item(handler.key.clone()), SpanLink::of(ctx));
                }
            }
            stats.max_depth = stats.max_depth.max(depth);
            if let Some(ctx) = &ctx {
                self.record_span(
                    ctx,
                    Some(&handler.key),
                    TraceKind::PropagationStep,
                    self.clock.now(),
                );
            }
            self.trace_span(ctx.as_ref(), || TraceEvent::PropagationStep {
                round,
                key: handler.key.clone(),
                depth,
                changed: stored,
            });
        }
        // Monotonic max, not a store: a concurrent shallow round must not
        // overwrite a deeper round within the same observation window.
        self.slots
            .slot(Metric::PropagationDepth)
            .fetch_max(stats.max_depth as u64, Ordering::Relaxed);
        stats
    }
}

/// What one propagation sweep did (per-event round or epoch flush).
#[derive(Default, Clone, Copy)]
struct SweepStats {
    recomputed: usize,
    max_depth: usize,
}

/// Sorts the affected handlers so every handler appears after all of its
/// in-set dependencies (Kahn's algorithm; `BTreeMap` keeps it
/// deterministic).
fn topo_order(reach: BTreeMap<MetadataKey, Arc<Handler>>) -> Vec<Arc<Handler>> {
    let mut indegree: BTreeMap<&MetadataKey, usize> = BTreeMap::new();
    let mut edges: BTreeMap<&MetadataKey, Vec<&MetadataKey>> = BTreeMap::new();
    for (key, handler) in &reach {
        indegree.entry(key).or_insert(0);
        for dep in &handler.resolved_deps {
            if let DepSource::Item(dep_key) = &dep.source {
                if let Some((stored_key, _)) = reach.get_key_value(dep_key) {
                    edges.entry(stored_key).or_default().push(key);
                    *indegree.entry(key).or_insert(0) += 1;
                }
            }
        }
    }
    let mut ready: VecDeque<&MetadataKey> = indegree
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(k, _)| *k)
        .collect();
    let mut order = Vec::with_capacity(reach.len());
    while let Some(key) = ready.pop_front() {
        order.push(reach[key].clone());
        if let Some(next) = edges.get(key) {
            for n in next {
                let d = indegree.get_mut(n).expect("indexed");
                *d -= 1;
                if *d == 0 {
                    ready.push_back(n);
                }
            }
        }
    }
    // The dependency graph is acyclic by construction (cycles are rejected
    // at inclusion), so every handler is ordered.
    debug_assert_eq!(order.len(), reach.len());
    order
}

impl DepReader for MetadataManager {
    fn read_dep(&self, key: &MetadataKey) -> MetadataValue {
        match self.handler(key) {
            Some(h) => self.access_handler(&h).value,
            None => MetadataValue::Unavailable,
        }
    }
}

/// Periodic refresh task registered per periodic handler.
struct PeriodicRefresh {
    manager: Weak<MetadataManager>,
    key: MetadataKey,
    window: TimeSpan,
}

impl PeriodicTask for PeriodicRefresh {
    fn run(&self, fired_at: Timestamp) {
        if let Some(mgr) = self.manager.upgrade() {
            mgr.periodic_refresh(&self.key, fired_at, self.window);
        }
    }
}

/// One-shot containment task: a backoff retry or, at the end of a
/// quarantine cool-down, the recovery probe.
struct ContainmentTask {
    manager: Weak<MetadataManager>,
    key: MetadataKey,
    probe: bool,
    /// The span of the failing evaluation, carried *explicitly* through
    /// the `PeriodicRegistry` scheduling handoff (no thread-local state
    /// survives a work item): the retry or probe evaluation becomes its
    /// child, so failure chains stay one lineage.
    span: Option<SpanContext>,
}

impl PeriodicTask for ContainmentTask {
    fn run(&self, fired_at: Timestamp) {
        if let Some(mgr) = self.manager.upgrade() {
            mgr.containment_refresh(&self.key, fired_at, self.span.as_ref(), self.probe);
        }
    }
}
