//! Metadata item definitions.
//!
//! A node *defines* the metadata items it can provide; the manager
//! materialises a handler per item when a consumer subscribes. A definition
//! carries (Section 4.4.1 of the paper):
//!
//! 1. its **dependencies** — local (intra-node), remote (inter-node) or
//!    event sources, either as a fixed list or as a *dynamic* resolver
//!    (Section 4.4.3) evaluated at inclusion time;
//! 2. its **update mechanism** — static, on-demand, periodic, or triggered
//!    (Section 3.2);
//! 3. its **compute function**, which may use locally available
//!    information (monitors, state) and the values of its declared
//!    dependencies;
//! 4. optional **activation hooks** that enable/disable monitoring code.

use std::sync::Arc;

use streammeta_time::{TimeSpan, Timestamp};

use crate::monitor::{Counter, Gauge};
use crate::{EventKey, ItemPath, MetadataKey, MetadataValue, NodeId};

/// How a handler keeps its value up to date (Figure 2 / Section 3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mechanism {
    /// Invariable metadata, computed once at inclusion.
    Static,
    /// Recomputed on every access.
    OnDemand,
    /// Recomputed at fixed time-window boundaries; the window size
    /// calibrates the freshness/overhead trade-off (Section 3.1).
    Periodic {
        /// Length of the update window.
        window: TimeSpan,
    },
    /// Recomputed when a dependency changes or an event fires; updates
    /// propagate along the inverted dependency graph (Section 3.2.3).
    Triggered,
}

impl Mechanism {
    /// Every [`Self::label`], in taxonomy order.
    pub const LABELS: [&'static str; 4] = ["static", "on-demand", "periodic", "triggered"];

    /// The mechanism's position in the taxonomy (0 = static).
    pub(crate) fn ordinal(&self) -> usize {
        match self {
            Mechanism::Static => 0,
            Mechanism::OnDemand => 1,
            Mechanism::Periodic { .. } => 2,
            Mechanism::Triggered => 3,
        }
    }

    /// Short label used in taxonomy listings.
    pub fn label(&self) -> &'static str {
        Self::LABELS[self.ordinal()]
    }

    /// Whether the item is dynamic metadata (changes at runtime).
    pub fn is_dynamic(&self) -> bool {
        !matches!(self, Mechanism::Static)
    }
}

/// Failure-containment policy of one item: bounded retry with
/// exponential backoff, then quarantine with stale serving.
///
/// While an item with a policy is failing (panic, deadline overrun, or an
/// `Unavailable` result), the manager keeps serving the last good value —
/// marked degraded, with an explicit staleness bound
/// ([`crate::VersionedValue::staleness`]) — instead of overwriting it
/// with `Unavailable`. After `quarantine_after` consecutive failures the
/// item is quarantined: evaluations stop entirely for `cool_down`, after
/// which a single probe evaluation decides between recovery and another
/// quarantine round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FallbackPolicy {
    /// Retries scheduled per failure episode (beyond the failing
    /// evaluation itself). Zero disables retries.
    pub max_retries: u32,
    /// Delay before the first retry; doubles on each further retry.
    pub backoff: TimeSpan,
    /// Consecutive failures that trip the quarantine circuit breaker.
    pub quarantine_after: u32,
    /// How long a quarantined item rests before the recovery probe.
    pub cool_down: TimeSpan,
}

impl FallbackPolicy {
    /// A conservative default: 3 retries starting at 10 time units,
    /// quarantine after 5 consecutive failures, cool down for 1000 units.
    pub fn conservative() -> Self {
        FallbackPolicy {
            max_retries: 3,
            backoff: TimeSpan(10),
            quarantine_after: 5,
            cool_down: TimeSpan(1000),
        }
    }

    /// The delay before retry number `attempt` (0-based): `backoff`
    /// doubled `attempt` times, saturating.
    pub fn retry_delay(&self, attempt: u32) -> TimeSpan {
        TimeSpan(self.backoff.0.saturating_mul(1u64 << attempt.min(63)))
    }
}

/// Target of a declared dependency, relative to the defining node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DepTarget {
    /// An item of the same node (intra-node dependency).
    Local(ItemPath),
    /// An item of another node (inter-node dependency).
    Remote(MetadataKey),
    /// A manually fired event of the same node.
    LocalEvent(ItemPath),
    /// A manually fired event of another node.
    RemoteEvent(EventKey),
}

impl DepTarget {
    /// Resolves the target to a concrete source given the defining node.
    pub fn resolve(&self, node: NodeId) -> DepSource {
        match self {
            DepTarget::Local(p) => DepSource::Item(MetadataKey::new(node, p.clone())),
            DepTarget::Remote(k) => DepSource::Item(k.clone()),
            DepTarget::LocalEvent(p) => DepSource::Event(EventKey::new(node, p.clone())),
            DepTarget::RemoteEvent(e) => DepSource::Event(e.clone()),
        }
    }
}

/// A concrete dependency source in the runtime dependency graph.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DepSource {
    /// Another metadata item; its inclusion is managed automatically.
    Item(MetadataKey),
    /// A manual event notification.
    Event(EventKey),
}

impl DepSource {
    /// Every [`Self::kind`].
    pub const KINDS: [&'static str; 2] = ["item", "event"];

    /// `"item"` or `"event"`.
    pub fn kind(&self) -> &'static str {
        match self {
            DepSource::Item(_) => Self::KINDS[0],
            DepSource::Event(_) => Self::KINDS[1],
        }
    }
}

/// The source's key, as its item or event displays (`n1/rate`, `n1!tick`).
impl std::fmt::Display for DepSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepSource::Item(key) => key.fmt(f),
            DepSource::Event(event) => event.fmt(f),
        }
    }
}

/// One declared dependency: a role name (how the compute function refers
/// to the value) and a target.
#[derive(Clone, Debug)]
pub struct Dependency {
    /// Name under which [`EvalCtx::dep`] exposes the value.
    pub role: Arc<str>,
    /// Where the value comes from.
    pub target: DepTarget,
}

impl Dependency {
    /// Builds a dependency.
    pub fn new(role: impl AsRef<str>, target: DepTarget) -> Self {
        Dependency {
            role: Arc::from(role.as_ref()),
            target,
        }
    }
}

/// Context handed to dynamic dependency resolvers (Section 4.4.3).
pub struct ResolveCtx<'a> {
    pub(crate) node: NodeId,
    pub(crate) is_included: &'a dyn Fn(&MetadataKey) -> bool,
}

impl<'a> ResolveCtx<'a> {
    /// The node whose item is being included.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether `key` currently has a live handler. Dynamic resolvers use
    /// this to prefer an alternative that is already maintained ("if item C
    /// has already been included, but B has not, the dependency for A can
    /// be redefined such that A points to C").
    pub fn is_included(&self, key: &MetadataKey) -> bool {
        (self.is_included)(key)
    }
}

/// Dynamic dependency resolver signature (Section 4.4.3).
pub type DepResolverFn = dyn Fn(&ResolveCtx<'_>) -> Vec<Dependency> + Send + Sync;

/// The dependency declaration of an item.
#[derive(Clone)]
pub enum DepSpec {
    /// A fixed list, resolved once at inclusion time.
    Fixed(Vec<Dependency>),
    /// A resolver run at inclusion time. It must not call back into the
    /// metadata manager; it decides only from the [`ResolveCtx`].
    Dynamic {
        /// The resolver evaluated at inclusion time (Section 4.4.3).
        resolver: Arc<DepResolverFn>,
        /// The declared superset of dependencies the resolver may ever
        /// return. Static analysis treats every alternative as a
        /// potential edge (cycles that are only reachable through an
        /// alternative are still cycles); the runtime ignores this list.
        alternatives: Vec<Dependency>,
    },
}

impl std::fmt::Debug for DepSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepSpec::Fixed(d) => f.debug_tuple("Fixed").field(d).finish(),
            DepSpec::Dynamic { alternatives, .. } => f
                .debug_struct("Dynamic")
                .field("alternatives", alternatives)
                .finish_non_exhaustive(),
        }
    }
}

/// A dependency with its resolved concrete source.
#[derive(Clone, Debug)]
pub struct ResolvedDep {
    /// Role name for [`EvalCtx::dep`].
    pub role: Arc<str>,
    /// Concrete source.
    pub source: DepSource,
}

/// Reads dependency values for a compute function. Implemented by the
/// metadata manager.
pub trait DepReader {
    /// The current value of `key`; on-demand items are computed on this
    /// access. `Unavailable` if the item has no handler.
    fn read_dep(&self, key: &MetadataKey) -> MetadataValue;
}

/// Evaluation context of a compute function.
pub struct EvalCtx<'a> {
    pub(crate) now: Timestamp,
    pub(crate) window: Option<TimeSpan>,
    pub(crate) reader: &'a dyn DepReader,
    pub(crate) deps: &'a [ResolvedDep],
}

impl<'a> EvalCtx<'a> {
    /// The evaluation instant. For periodic updates this is the exact
    /// window boundary.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// For periodic updates: the window length. Zero-length at the very
    /// first (inclusion-time) evaluation.
    pub fn window(&self) -> Option<TimeSpan> {
        self.window
    }

    /// The value of the dependency declared under `role`.
    /// `Unavailable` for unknown roles and event dependencies.
    pub fn dep(&self, role: &str) -> MetadataValue {
        for d in self.deps {
            if &*d.role == role {
                if let DepSource::Item(key) = &d.source {
                    return self.reader.read_dep(key);
                }
                return MetadataValue::Unavailable;
            }
        }
        MetadataValue::Unavailable
    }

    /// Numeric dependency value, if available and numeric.
    pub fn dep_f64(&self, role: &str) -> Option<f64> {
        self.dep(role).as_f64()
    }

    /// Time-span dependency value, if available.
    pub fn dep_span(&self, role: &str) -> Option<TimeSpan> {
        self.dep(role).as_span()
    }

    /// The roles of all resolved dependencies, in declaration order.
    pub fn roles(&self) -> impl Iterator<Item = &str> {
        self.deps.iter().map(|d| &*d.role)
    }
}

/// Compute function signature.
pub type ComputeFn = dyn Fn(&EvalCtx<'_>) -> MetadataValue + Send + Sync;
/// Activation hook signature.
pub type HookFn = dyn Fn() + Send + Sync;

/// Monitoring state that can be switched on and off by inclusion hooks.
pub trait Activatable: Send + Sync {
    /// Registers a user.
    fn activate(&self);
    /// Deregisters a user.
    fn deactivate(&self);
}

impl Activatable for Counter {
    fn activate(&self) {
        Counter::activate(self)
    }
    fn deactivate(&self) {
        Counter::deactivate(self)
    }
}

impl Activatable for Gauge {
    fn activate(&self) {
        Gauge::activate(self)
    }
    fn deactivate(&self) {
        Gauge::deactivate(self)
    }
}

/// A complete metadata item definition.
#[derive(Clone)]
pub struct ItemDef {
    pub(crate) path: ItemPath,
    pub(crate) mechanism: Mechanism,
    pub(crate) deps: DepSpec,
    pub(crate) compute: Arc<ComputeFn>,
    pub(crate) monitors: Vec<Arc<dyn Activatable>>,
    pub(crate) on_include: Option<Arc<HookFn>>,
    pub(crate) on_exclude: Option<Arc<HookFn>>,
    pub(crate) doc: Option<Arc<str>>,
    /// The compute function carries state across evaluations (a running
    /// aggregate, a counter delta). Declarative only: the runtime treats
    /// stateful and stateless computes identically, but static analysis
    /// uses the flag to find sampling anomalies (paper Figure 5).
    pub(crate) stateful: bool,
    /// Every evaluation resets the underlying measurement (an interval
    /// rate that restarts its window on access). Declarative only; flags
    /// the shared-consumer interference of the paper's Figure 4.
    pub(crate) reset_on_read: bool,
    /// For stateful aggregates: the sampling interval the aggregate was
    /// designed for (how often its consumer is expected to access it).
    /// Compared against dependency update periods by static analysis.
    pub(crate) implied_window: Option<TimeSpan>,
    /// Per-evaluation compute budget. An evaluation that takes longer
    /// counts as a deadline overrun: with a fallback policy it is treated
    /// as a failure (its result is discarded); without one it is only
    /// counted and traced — static analysis flags that combination.
    pub(crate) deadline: Option<TimeSpan>,
    /// Failure-containment policy (retry, backoff, quarantine). `None`
    /// keeps the pre-containment behaviour: failures store `Unavailable`.
    pub(crate) fallback: Option<FallbackPolicy>,
}

impl std::fmt::Debug for ItemDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ItemDef")
            .field("path", &self.path)
            .field("mechanism", &self.mechanism)
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}

impl ItemDef {
    /// A static item holding `value`.
    pub fn static_value(path: impl Into<ItemPath>, value: impl Into<MetadataValue>) -> ItemDef {
        let v = value.into();
        ItemDefBuilder::new(path.into(), Mechanism::Static)
            .compute(move |_| v.clone())
            .build()
    }

    /// Builder for an on-demand item.
    pub fn on_demand(path: impl Into<ItemPath>) -> ItemDefBuilder {
        ItemDefBuilder::new(path.into(), Mechanism::OnDemand)
    }

    /// Builder for a periodic item updated every `window`.
    pub fn periodic(path: impl Into<ItemPath>, window: TimeSpan) -> ItemDefBuilder {
        assert!(!window.is_zero(), "periodic item with zero window");
        ItemDefBuilder::new(path.into(), Mechanism::Periodic { window })
    }

    /// Builder for a triggered item.
    pub fn triggered(path: impl Into<ItemPath>) -> ItemDefBuilder {
        ItemDefBuilder::new(path.into(), Mechanism::Triggered)
    }

    /// The item's path.
    pub fn path(&self) -> &ItemPath {
        &self.path
    }

    /// The item's update mechanism.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The item's documentation string, if any.
    pub fn doc(&self) -> Option<&str> {
        self.doc.as_deref()
    }

    /// The item's dependency declaration.
    pub fn deps(&self) -> &DepSpec {
        &self.deps
    }

    /// Whether the compute function carries state across evaluations.
    pub fn is_stateful(&self) -> bool {
        self.stateful
    }

    /// Whether an evaluation resets the underlying measurement.
    pub fn resets_on_read(&self) -> bool {
        self.reset_on_read
    }

    /// The declared sampling interval of a stateful aggregate, if any.
    pub fn implied_window(&self) -> Option<TimeSpan> {
        self.implied_window
    }

    /// The per-evaluation compute budget, if any.
    pub fn deadline(&self) -> Option<TimeSpan> {
        self.deadline
    }

    /// The failure-containment policy, if any.
    pub fn fallback(&self) -> Option<FallbackPolicy> {
        self.fallback
    }

    /// Every dependency static analysis should consider when the item is
    /// defined at `node`, paired with whether the edge is *certain*
    /// (declared fixed) or an *alternative* (a dynamic resolver may or
    /// may not pick it at inclusion time).
    ///
    /// Fixed declarations are returned as-is. For dynamic resolvers the
    /// set is the union of the declared alternatives and the resolutions
    /// under the two extreme inclusion states (nothing included /
    /// everything included) — resolvers are pure functions of the
    /// [`ResolveCtx`], so probing them executes no compute function.
    pub fn analysis_deps(&self, node: NodeId) -> Vec<(Dependency, bool)> {
        match &self.deps {
            DepSpec::Fixed(d) => d.iter().map(|d| (d.clone(), true)).collect(),
            DepSpec::Dynamic {
                resolver,
                alternatives,
            } => {
                let mut out: Vec<(Dependency, bool)> = Vec::new();
                let mut push = |d: Dependency| {
                    if !out
                        .iter()
                        .any(|(e, _)| e.role == d.role && e.target == d.target)
                    {
                        out.push((d, false));
                    }
                };
                for d in alternatives {
                    push(d.clone());
                }
                for probe in [false, true] {
                    let ctx = ResolveCtx {
                        node,
                        is_included: &|_| probe,
                    };
                    for d in resolver(&ctx) {
                        push(d);
                    }
                }
                out
            }
        }
    }

    /// Resolves the declared dependencies for inclusion at `node`.
    pub(crate) fn resolve_deps(
        &self,
        node: NodeId,
        is_included: &dyn Fn(&MetadataKey) -> bool,
    ) -> Vec<ResolvedDep> {
        let deps = match &self.deps {
            DepSpec::Fixed(d) => d.clone(),
            DepSpec::Dynamic { resolver, .. } => resolver(&ResolveCtx { node, is_included }),
        };
        deps.into_iter()
            .map(|d| ResolvedDep {
                role: d.role,
                source: d.target.resolve(node),
            })
            .collect()
    }

    /// Returns a copy with a different path (used when installing shared
    /// item specs under module scopes).
    pub fn with_path(mut self, path: impl Into<ItemPath>) -> ItemDef {
        self.path = path.into();
        self
    }
}

/// Fluent builder for [`ItemDef`].
pub struct ItemDefBuilder {
    def: ItemDef,
}

impl ItemDefBuilder {
    fn new(path: ItemPath, mechanism: Mechanism) -> Self {
        ItemDefBuilder {
            def: ItemDef {
                path,
                mechanism,
                deps: DepSpec::Fixed(Vec::new()),
                compute: Arc::new(|_| MetadataValue::Unavailable),
                monitors: Vec::new(),
                on_include: None,
                on_exclude: None,
                doc: None,
                stateful: false,
                reset_on_read: false,
                implied_window: None,
                deadline: None,
                fallback: None,
            },
        }
    }

    /// Declares a dependency with an explicit role and target.
    pub fn dep(mut self, role: impl AsRef<str>, target: DepTarget) -> Self {
        match &mut self.def.deps {
            DepSpec::Fixed(v) => v.push(Dependency::new(role, target)),
            DepSpec::Dynamic { .. } => {
                panic!("cannot mix fixed dependencies with a dynamic resolver")
            }
        }
        self
    }

    /// Declares an intra-node dependency; the role equals the path.
    pub fn dep_local(self, path: impl Into<ItemPath>) -> Self {
        let p = path.into();
        let role = p.as_str().to_owned();
        self.dep(role, DepTarget::Local(p))
    }

    /// Declares an inter-node dependency under `role`.
    pub fn dep_remote(self, role: impl AsRef<str>, key: MetadataKey) -> Self {
        self.dep(role, DepTarget::Remote(key))
    }

    /// Declares a local event trigger.
    pub fn on_event(self, name: impl Into<ItemPath>) -> Self {
        let n = name.into();
        let role = format!("event:{n}");
        self.dep(role, DepTarget::LocalEvent(n))
    }

    /// Declares a remote event trigger.
    pub fn on_remote_event(self, event: EventKey) -> Self {
        let role = format!("event:{event}");
        self.dep(role, DepTarget::RemoteEvent(event))
    }

    /// Replaces the dependency declaration with a dynamic resolver
    /// (Section 4.4.3). Any previously declared fixed dependencies are
    /// discarded.
    pub fn dynamic_deps(
        mut self,
        f: impl Fn(&ResolveCtx<'_>) -> Vec<Dependency> + Send + Sync + 'static,
    ) -> Self {
        self.def.deps = DepSpec::Dynamic {
            resolver: Arc::new(f),
            alternatives: Vec::new(),
        };
        self
    }

    /// Like [`Self::dynamic_deps`], with the declared superset of
    /// dependencies the resolver may return. Static analysis considers
    /// every alternative a potential edge; the runtime only uses the
    /// resolver.
    pub fn dynamic_deps_with_alternatives(
        mut self,
        f: impl Fn(&ResolveCtx<'_>) -> Vec<Dependency> + Send + Sync + 'static,
        alternatives: Vec<Dependency>,
    ) -> Self {
        self.def.deps = DepSpec::Dynamic {
            resolver: Arc::new(f),
            alternatives,
        };
        self
    }

    /// Declares the compute function stateful (a running aggregate or
    /// delta that carries state across evaluations). Purely declarative:
    /// static analysis uses it to find sampling anomalies (Figure 5).
    pub fn stateful(mut self) -> Self {
        self.def.stateful = true;
        self
    }

    /// Declares that every evaluation resets the underlying measurement
    /// (reset-on-access interval rates). Purely declarative: static
    /// analysis uses it to find shared-consumer interference (Figure 4).
    pub fn reset_on_read(mut self) -> Self {
        self.def.reset_on_read = true;
        self.def.stateful = true;
        self
    }

    /// Declares the sampling interval a stateful aggregate was designed
    /// for. Implies [`Self::stateful`].
    pub fn implied_window(mut self, window: TimeSpan) -> Self {
        self.def.implied_window = Some(window);
        self.def.stateful = true;
        self
    }

    /// Sets a per-evaluation compute budget. Pair it with
    /// [`Self::fallback`]: a deadline without a fallback policy is
    /// observation-only (overruns are counted and traced, late results
    /// still stored) and static analysis warns about it.
    pub fn deadline(mut self, budget: TimeSpan) -> Self {
        assert!(!budget.is_zero(), "zero compute deadline");
        self.def.deadline = Some(budget);
        self
    }

    /// Sets the failure-containment policy (see [`FallbackPolicy`]).
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.def.fallback = Some(policy);
        self
    }

    /// Sets the compute function.
    pub fn compute(
        mut self,
        f: impl Fn(&EvalCtx<'_>) -> MetadataValue + Send + Sync + 'static,
    ) -> Self {
        self.def.compute = Arc::new(f);
        self
    }

    /// Attaches a monitor activated while the item is included.
    pub fn monitor(mut self, m: Arc<dyn Activatable>) -> Self {
        self.def.monitors.push(m);
        self
    }

    /// Attaches a counter monitor (convenience over [`Self::monitor`]).
    pub fn counter(self, c: &Arc<Counter>) -> Self {
        self.monitor(c.clone() as Arc<dyn Activatable>)
    }

    /// Sets a hook run when the item is first included.
    pub fn on_include(mut self, f: impl Fn() + Send + Sync + 'static) -> Self {
        self.def.on_include = Some(Arc::new(f));
        self
    }

    /// Sets a hook run when the item's last subscription is cancelled.
    pub fn on_exclude(mut self, f: impl Fn() + Send + Sync + 'static) -> Self {
        self.def.on_exclude = Some(Arc::new(f));
        self
    }

    /// Sets a documentation string shown by discovery.
    pub fn doc(mut self, s: impl AsRef<str>) -> Self {
        self.def.doc = Some(Arc::from(s.as_ref()));
        self
    }

    /// Finishes the definition.
    pub fn build(self) -> ItemDef {
        self.def
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoDeps;
    impl DepReader for NoDeps {
        fn read_dep(&self, _k: &MetadataKey) -> MetadataValue {
            MetadataValue::Unavailable
        }
    }

    struct ConstReader(f64);
    impl DepReader for ConstReader {
        fn read_dep(&self, _k: &MetadataKey) -> MetadataValue {
            MetadataValue::F64(self.0)
        }
    }

    #[test]
    fn static_item_computes_constant() {
        let def = ItemDef::static_value("schema", "int,int");
        assert_eq!(def.mechanism(), Mechanism::Static);
        assert!(!def.mechanism().is_dynamic());
        let ctx = EvalCtx {
            now: Timestamp(0),
            window: None,
            reader: &NoDeps,
            deps: &[],
        };
        assert_eq!((def.compute)(&ctx), MetadataValue::text("int,int"));
    }

    #[test]
    fn mechanism_labels() {
        assert_eq!(Mechanism::Static.label(), "static");
        assert_eq!(Mechanism::OnDemand.label(), "on-demand");
        assert_eq!(
            Mechanism::Periodic {
                window: TimeSpan(5)
            }
            .label(),
            "periodic"
        );
        assert_eq!(Mechanism::Triggered.label(), "triggered");
        assert!(Mechanism::Triggered.is_dynamic());
    }

    #[test]
    fn dep_targets_resolve_relative_to_node() {
        let n = NodeId(7);
        assert_eq!(
            DepTarget::Local(ItemPath::new("input_rate")).resolve(n),
            DepSource::Item(MetadataKey::new(n, "input_rate"))
        );
        let remote = MetadataKey::new(NodeId(2), "output_rate");
        assert_eq!(
            DepTarget::Remote(remote.clone()).resolve(n),
            DepSource::Item(remote)
        );
        assert_eq!(
            DepTarget::LocalEvent(ItemPath::new("resized")).resolve(n),
            DepSource::Event(EventKey::new(n, "resized"))
        );
    }

    #[test]
    fn eval_ctx_reads_roles() {
        let deps = vec![
            ResolvedDep {
                role: Arc::from("rate"),
                source: DepSource::Item(MetadataKey::new(NodeId(1), "output_rate")),
            },
            ResolvedDep {
                role: Arc::from("event:x"),
                source: DepSource::Event(EventKey::new(NodeId(1), "x")),
            },
        ];
        let ctx = EvalCtx {
            now: Timestamp(10),
            window: Some(TimeSpan(5)),
            reader: &ConstReader(2.5),
            deps: &deps,
        };
        assert_eq!(ctx.dep_f64("rate"), Some(2.5));
        assert_eq!(ctx.dep("event:x"), MetadataValue::Unavailable);
        assert_eq!(ctx.dep("missing"), MetadataValue::Unavailable);
        assert_eq!(ctx.roles().collect::<Vec<_>>(), vec!["rate", "event:x"]);
        assert_eq!(ctx.now(), Timestamp(10));
        assert_eq!(ctx.window(), Some(TimeSpan(5)));
    }

    #[test]
    fn builder_collects_fixed_deps() {
        let def = ItemDef::triggered("io_ratio")
            .dep_local("input_rate")
            .dep_local("output_rate")
            .compute(
                |ctx| match (ctx.dep_f64("input_rate"), ctx.dep_f64("output_rate")) {
                    (Some(i), Some(o)) if o != 0.0 => MetadataValue::F64(i / o),
                    _ => MetadataValue::Unavailable,
                },
            )
            .doc("input/output ratio")
            .build();
        let resolved = def.resolve_deps(NodeId(3), &|_| false);
        assert_eq!(resolved.len(), 2);
        assert_eq!(&*resolved[0].role, "input_rate");
        assert_eq!(def.doc(), Some("input/output ratio"));
    }

    #[test]
    fn dynamic_resolver_sees_inclusion_state() {
        let b = MetadataKey::new(NodeId(1), "b");
        let c = MetadataKey::new(NodeId(1), "c");
        let (b2, c2) = (b.clone(), c.clone());
        let def = ItemDef::triggered("a")
            .dynamic_deps(move |ctx| {
                // Prefer the already-included alternative (Section 4.4.3).
                let pick = if ctx.is_included(&c2) { &c2 } else { &b2 };
                vec![Dependency::new("src", DepTarget::Remote(pick.clone()))]
            })
            .compute(|ctx| ctx.dep("src"))
            .build();
        let included = c.clone();
        let resolved = def.resolve_deps(NodeId(1), &|k| *k == included);
        assert_eq!(resolved[0].source, DepSource::Item(c));
        let resolved = def.resolve_deps(NodeId(1), &|_| false);
        assert_eq!(resolved[0].source, DepSource::Item(b));
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixing_fixed_and_dynamic_panics() {
        let _ = ItemDef::triggered("a")
            .dynamic_deps(|_| Vec::new())
            .dep_local("b");
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn periodic_zero_window_rejected() {
        ItemDef::periodic("rate", TimeSpan::ZERO);
    }

    #[test]
    fn with_path_rewrites_path() {
        let def = ItemDef::static_value("size", 4u64).with_path("state.size");
        assert_eq!(def.path().as_str(), "state.size");
    }

    #[test]
    fn declarative_flags_default_off_and_round_trip() {
        let plain = ItemDef::on_demand("x").build();
        assert!(!plain.is_stateful());
        assert!(!plain.resets_on_read());
        assert_eq!(plain.implied_window(), None);

        let flagged = ItemDef::on_demand("rate_naive")
            .reset_on_read()
            .implied_window(TimeSpan(50))
            .build();
        assert!(flagged.is_stateful(), "reset_on_read implies stateful");
        assert!(flagged.resets_on_read());
        assert_eq!(flagged.implied_window(), Some(TimeSpan(50)));
        // Flags survive path rewriting (module scoping).
        let scoped = flagged.with_path("probe.rate_naive");
        assert!(scoped.resets_on_read());
    }

    #[test]
    fn containment_knobs_round_trip_and_backoff_doubles() {
        let plain = ItemDef::on_demand("x").build();
        assert_eq!(plain.deadline(), None);
        assert_eq!(plain.fallback(), None);

        let policy = FallbackPolicy {
            max_retries: 2,
            backoff: TimeSpan(3),
            quarantine_after: 4,
            cool_down: TimeSpan(100),
        };
        let def = ItemDef::periodic("rate", TimeSpan(10))
            .deadline(TimeSpan(5))
            .fallback(policy)
            .build();
        assert_eq!(def.deadline(), Some(TimeSpan(5)));
        assert_eq!(def.fallback(), Some(policy));
        // Containment knobs survive path rewriting (module scoping).
        let scoped = def.with_path("probe.rate");
        assert_eq!(scoped.deadline(), Some(TimeSpan(5)));

        assert_eq!(policy.retry_delay(0), TimeSpan(3));
        assert_eq!(policy.retry_delay(1), TimeSpan(6));
        assert_eq!(policy.retry_delay(2), TimeSpan(12));
        // Saturates instead of overflowing for absurd attempts.
        assert_eq!(policy.retry_delay(80), TimeSpan(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "zero compute deadline")]
    fn zero_deadline_rejected() {
        let _ = ItemDef::on_demand("x").deadline(TimeSpan::ZERO);
    }

    #[test]
    fn analysis_deps_of_fixed_items_are_certain() {
        let def = ItemDef::triggered("a")
            .dep_local("b")
            .dep_local("c")
            .build();
        let deps = def.analysis_deps(NodeId(1));
        assert_eq!(deps.len(), 2);
        assert!(deps.iter().all(|(_, certain)| *certain));
    }

    #[test]
    fn analysis_deps_union_alternatives_and_probes() {
        let b = MetadataKey::new(NodeId(1), "b");
        let c = MetadataKey::new(NodeId(1), "c");
        let d = MetadataKey::new(NodeId(1), "d");
        let (b2, c2) = (b.clone(), c.clone());
        let def = ItemDef::triggered("a")
            .dynamic_deps_with_alternatives(
                move |ctx| {
                    let pick = if ctx.is_included(&c2) { &c2 } else { &b2 };
                    vec![Dependency::new("src", DepTarget::Remote(pick.clone()))]
                },
                // Declared alternative never returned by the probes.
                vec![Dependency::new("extra", DepTarget::Remote(d.clone()))],
            )
            .compute(|ctx| ctx.dep("src"))
            .build();
        let deps = def.analysis_deps(NodeId(1));
        let targets: Vec<_> = deps.iter().map(|(dep, _)| dep.target.clone()).collect();
        assert!(targets.contains(&DepTarget::Remote(b)), "empty-graph probe");
        assert!(targets.contains(&DepTarget::Remote(c)), "full-graph probe");
        assert!(
            targets.contains(&DepTarget::Remote(d)),
            "declared alternative"
        );
        assert!(deps.iter().all(|(_, certain)| !*certain));
    }
}
