//! The query graph.
//!
//! "In order to enable subquery sharing, query execution is based on a
//! large graph composed of operators. Metadata may refer to the sources of
//! the query graph, ... the operators inside the graph, or ... the sinks."
//! (Section 1, Figure 1)
//!
//! A [`QueryGraph`] owns the node slots (behavior + monitors + metadata
//! registry), the wiring between them, and the per-node metadata
//! installation. Execution (queues, scheduling) lives in the engine crate,
//! which drives the nodes through [`NodeSlot::pull_source`] and
//! [`NodeSlot::process`]. Queries can be installed and removed at
//! runtime; removal detaches the registries of exclusively-owned nodes,
//! and every topology change moves [`QueryGraph::generation`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use streammeta_core::{
    EventKey, HistogramMonitor, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId,
    NodeRegistry,
};
use streammeta_streams::{Element, Generator, Schema};
use streammeta_time::{TimeSpan, Timestamp};

use crate::items::{
    define_ratio_item, install_standard_items, MetadataConfig, WINDOW_SIZE_CHANGED,
};
use crate::monitors::NodeMonitors;
use crate::node::{NodeBehavior, NodeKind};
use crate::ops::{
    AggKind, CollectHandle, CollectSink, CountHandle, CountSink, DiscardSink, Filter,
    FilterPredicate, JoinPredicate, SlidingWindowJoin, StateImpl, TimeWindow, Union,
    WindowAggregate, WindowHandle,
};

/// Global node-id allocator: ids stay unique even across several graphs
/// sharing one metadata manager.
static NEXT_NODE_ID: AtomicU32 = AtomicU32::new(0);

fn fresh_node_id() -> NodeId {
    NodeId(NEXT_NODE_ID.fetch_add(1, Ordering::Relaxed))
}

struct SourceState {
    generator: Box<dyn Generator>,
    lookahead: Option<Element>,
    exhausted: bool,
}

/// One node of the graph.
pub struct NodeSlot {
    /// The node's id.
    pub id: NodeId,
    /// Human-readable name.
    pub name: String,
    /// Source, operator or sink.
    pub kind: NodeKind,
    behavior: Option<Mutex<Box<dyn NodeBehavior>>>,
    source: Option<Mutex<SourceState>>,
    /// Implementation label (also available as static metadata).
    pub implementation: &'static str,
    /// The node's monitors.
    pub monitors: Arc<NodeMonitors>,
    registry: Arc<NodeRegistry>,
    out_schema: Schema,
    downstream: RwLock<Vec<(NodeId, usize)>>,
    upstream: Vec<NodeId>,
    /// Activatable value-distribution probes over output columns.
    histograms: RwLock<Vec<(usize, Arc<HistogramMonitor>)>>,
    /// Set once `histograms` is non-empty, so a node without probes pays a
    /// flag load per element instead of the lock. Stored with `Release`
    /// after the push, loaded with `Acquire`.
    has_histograms: AtomicBool,
}

impl NodeSlot {
    /// The node's metadata registry.
    pub fn registry(&self) -> &Arc<NodeRegistry> {
        &self.registry
    }

    /// The node's output schema.
    pub fn output_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// The consumers wired to the node's output: `(node, input port)`.
    pub fn downstream(&self) -> Vec<(NodeId, usize)> {
        self.downstream.read().clone()
    }

    /// Delivers one element to `port`, collecting produced elements into
    /// `out`. Records input/output/work monitors.
    pub fn process(&self, port: usize, element: &Element, now: Timestamp, out: &mut Vec<Element>) {
        self.monitors.record_input(port);
        self.monitors.work.record_n(1);
        if self.kind == NodeKind::Sink {
            // End-to-end latency of the result reaching the application.
            self.monitors
                .latency_units
                .record_n(now.since(element.timestamp).units());
        }
        let before = out.len();
        if let Some(behavior) = &self.behavior {
            behavior.lock().process(port, element, now, out);
        }
        self.monitors.record_output((out.len() - before) as u64);
        self.observe_histograms(&out[before..]);
    }

    fn observe_histograms(&self, produced: &[Element]) {
        if produced.is_empty() || !self.has_histograms.load(Ordering::Acquire) {
            return;
        }
        let histograms = self.histograms.read();
        for (col, monitor) in histograms.iter() {
            for e in produced {
                if let Some(v) = e.payload.get(*col).and_then(|v| v.as_int()) {
                    monitor.observe(v);
                }
            }
        }
    }

    /// Releases all source elements with `timestamp <= until` into `out`.
    /// Records the source's output monitor.
    pub fn pull_source(&self, until: Timestamp, out: &mut Vec<Element>) {
        let mut src = self
            .source
            .as_ref()
            .expect("pull_source on a non-source node")
            .lock();
        let before = out.len();
        loop {
            if src.lookahead.is_none() && !src.exhausted {
                src.lookahead = src.generator.next_element();
                // A live generator may produce more later; only
                // non-live generators are latched as exhausted.
                if src.lookahead.is_none() {
                    if src.generator.live() {
                        break;
                    }
                    src.exhausted = true;
                }
            }
            match &src.lookahead {
                Some(e) if e.timestamp <= until => {
                    out.push(src.lookahead.take().expect("present"));
                }
                _ => break,
            }
        }
        let produced = (out.len() - before) as u64;
        self.monitors.record_output(produced);
        self.monitors.work.record_n(produced);
        self.observe_histograms(&out[before..]);
    }
}

/// A query graph bound to a metadata manager.
pub struct QueryGraph {
    manager: Arc<MetadataManager>,
    cfg: MetadataConfig,
    nodes: RwLock<HashMap<NodeId, Arc<NodeSlot>>>,
    /// Bumped after every change to `nodes` or a node's `downstream`.
    generation: AtomicU64,
}

impl QueryGraph {
    /// An empty graph using the default [`MetadataConfig`].
    pub fn new(manager: Arc<MetadataManager>) -> Self {
        Self::with_config(manager, MetadataConfig::default())
    }

    /// An empty graph with an explicit metadata configuration.
    pub fn with_config(manager: Arc<MetadataManager>, cfg: MetadataConfig) -> Self {
        QueryGraph {
            manager,
            cfg,
            nodes: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// The bound metadata manager.
    pub fn manager(&self) -> &Arc<MetadataManager> {
        &self.manager
    }

    /// The graph's metadata configuration.
    pub fn config(&self) -> &MetadataConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)] // internal node factory
    fn insert_node(
        &self,
        name: &str,
        kind: NodeKind,
        behavior: Option<Box<dyn NodeBehavior>>,
        source: Option<SourceState>,
        out_schema: Schema,
        implementation: &'static str,
        inputs: &[NodeId],
        monitors: Arc<NodeMonitors>,
    ) -> NodeId {
        let id = fresh_node_id();
        let ports = behavior.as_ref().map_or(0, |b| b.ports());
        if kind != NodeKind::Source {
            assert_eq!(
                inputs.len(),
                ports,
                "node {name} has {ports} ports but {} inputs were wired",
                inputs.len()
            );
        }
        let registry = NodeRegistry::new(id);
        install_standard_items(
            &registry,
            &monitors,
            kind,
            name,
            implementation,
            &out_schema,
            &self.cfg,
        );
        let slot = Arc::new(NodeSlot {
            id,
            name: name.to_owned(),
            kind,
            behavior: behavior.map(Mutex::new),
            source: source.map(Mutex::new),
            implementation,
            monitors,
            registry: registry.clone(),
            out_schema,
            downstream: RwLock::new(Vec::new()),
            upstream: inputs.to_vec(),
            histograms: RwLock::new(Vec::new()),
            has_histograms: AtomicBool::new(false),
        });
        {
            let nodes = self.nodes.read();
            for (port, input) in inputs.iter().enumerate() {
                let up = nodes
                    .get(input)
                    .unwrap_or_else(|| panic!("unknown input node {input}"));
                assert!(
                    up.kind != NodeKind::Sink,
                    "cannot consume from sink {}",
                    up.name
                );
                up.downstream.write().push((id, port));
            }
        }
        // Query-level metadata the paper names in Section 1: "frequency
        // of reuse by subquery sharing" — here the live count of
        // downstream consumers. A weak slot reference avoids a
        // slot -> registry -> closure -> slot cycle.
        let weak = Arc::downgrade(&slot);
        registry.define(
            ItemDef::on_demand("reuse_count")
                .doc("number of downstream consumers (subquery sharing)")
                .compute(move |_| match weak.upgrade() {
                    Some(s) => MetadataValue::U64(s.downstream.read().len() as u64),
                    None => MetadataValue::Unavailable,
                })
                .build(),
        );
        self.manager.attach_node(registry);
        self.nodes.write().insert(id, slot);
        self.bump_generation();
        id
    }

    /// Adds a source backed by `generator`. Sources expose the
    /// data-distribution item `key_cardinality` (0 = unknown/unbounded).
    pub fn source(&self, name: &str, generator: Box<dyn Generator>) -> NodeId {
        let schema = generator.schema().clone();
        let key_cardinality = generator.key_cardinality().unwrap_or(0);
        let id = self.insert_node(
            name,
            NodeKind::Source,
            None,
            Some(SourceState {
                generator,
                lookahead: None,
                exhausted: false,
            }),
            schema,
            "source",
            &[],
            NodeMonitors::new(1),
        );
        self.slot(id)
            .registry()
            .define(ItemDef::static_value("key_cardinality", key_cardinality));
        id
    }

    /// Adds a custom operator.
    pub fn operator(
        &self,
        name: &str,
        behavior: Box<dyn NodeBehavior>,
        inputs: &[NodeId],
    ) -> NodeId {
        let monitors = NodeMonitors::new(behavior.ports().max(1));
        self.operator_with_monitors(name, behavior, inputs, monitors)
    }

    /// Adds an operator whose behavior shares a pre-built monitor set
    /// (joins and aggregates update state gauges themselves).
    pub fn operator_with_monitors(
        &self,
        name: &str,
        behavior: Box<dyn NodeBehavior>,
        inputs: &[NodeId],
        monitors: Arc<NodeMonitors>,
    ) -> NodeId {
        let schema = behavior.output_schema();
        let implementation = behavior.implementation();
        self.insert_node(
            name,
            NodeKind::Operator,
            Some(behavior),
            None,
            schema,
            implementation,
            inputs,
            monitors,
        )
    }

    /// Adds a filter; `selectivity` is measured as passed/received per
    /// metadata window.
    pub fn filter(
        &self,
        name: &str,
        input: NodeId,
        predicate: FilterPredicate,
        seed: u64,
    ) -> NodeId {
        let schema = self.output_schema(input);
        let id = self.operator(
            name,
            Box::new(Filter::new(predicate, schema, seed)),
            &[input],
        );
        let slot = self.slot(id);
        define_ratio_item(
            &slot.registry,
            "selectivity",
            &slot.monitors.output,
            &slot.monitors.input_total,
            self.cfg.rate_window,
            "measured filter selectivity (passed per received)",
        );
        id
    }

    /// Adds a time-based sliding window; returns the node and its size
    /// handle. The node defines the `window_size` item and the
    /// `window_size_changed` event (fire through
    /// [`QueryGraph::resize_window`]).
    pub fn time_window(&self, name: &str, input: NodeId, size: TimeSpan) -> (NodeId, WindowHandle) {
        let handle = WindowHandle::new(size);
        let schema = self.output_schema(input);
        let id = self.operator(
            name,
            Box::new(TimeWindow::new(handle.clone(), schema)),
            &[input],
        );
        let slot = self.slot(id);
        let h = handle.clone();
        slot.registry.define(
            ItemDef::on_demand("window_size")
                .doc("current window size in time units (adjustable at runtime)")
                .compute(move |_| MetadataValue::Span(h.get()))
                .build(),
        );
        (id, handle)
    }

    /// Adds an approximate count-based window over the last `n` elements.
    /// The operator is a metadata *consumer*: it subscribes to its own
    /// measured `input_rate` and stamps `validity = n / rate` (bounded by
    /// `fallback` until the first measurement) — count semantics realised
    /// through the metadata framework.
    pub fn count_window(&self, name: &str, input: NodeId, n: u64, fallback: TimeSpan) -> NodeId {
        let schema = self.output_schema(input);
        let behavior = crate::ops::CountWindowApprox::new(n, schema, fallback);
        let id = self.operator(name, Box::new(behavior), &[input]);
        let sub = self
            .manager
            .subscribe(MetadataKey::new(id, "input_rate"))
            .expect("standard item exists");
        let slot = self.slot(id);
        let mut guard = slot.behavior.as_ref().expect("operator").lock();
        guard
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<crate::ops::CountWindowApprox>())
            .expect("just created")
            .attach_rate(sub);
        id
    }

    /// Resizes a window operator and fires its `window_size_changed`
    /// event so dependent (triggered) estimates update — the adaptive
    /// resource management loop of Section 3.3.
    pub fn resize_window(&self, window_node: NodeId, handle: &WindowHandle, size: TimeSpan) {
        handle.set(size);
        self.manager
            .fire_event(EventKey::new(window_node, WINDOW_SIZE_CHANGED));
    }

    /// Adds a symmetric sliding-window join over two *windowed* inputs.
    /// Installs `selectivity` (results per candidate pair), the
    /// `predicate_cost` item, the state modules' metadata under
    /// `state.left` / `state.right`, and overrides `memory_usage` to the
    /// sum of the modules' usage (Sections 4.4.2 and 4.5).
    pub fn join(
        &self,
        name: &str,
        left: NodeId,
        right: NodeId,
        predicate: JoinPredicate,
        state_impl: StateImpl,
    ) -> NodeId {
        let (ls, rs) = (self.output_schema(left), self.output_schema(right));
        let monitors = NodeMonitors::new(2);
        let join = SlidingWindowJoin::new(predicate, state_impl, &ls, &rs, monitors.clone());
        let left_state = join.left_state().clone();
        let right_state = join.right_state().clone();
        let predicate_cost = join.predicate().nominal_cost();
        let predicate_label = join.predicate().label();
        let id = self.operator_with_monitors(name, Box::new(join), &[left, right], monitors);
        let slot = self.slot(id);
        define_ratio_item(
            &slot.registry,
            "selectivity",
            &slot.monitors.output,
            &slot.monitors.pairs,
            self.cfg.rate_window,
            "measured join selectivity (results per candidate pair)",
        );
        slot.registry
            .define(ItemDef::static_value("predicate", predicate_label));
        slot.registry
            .define(ItemDef::static_value("predicate_cost", predicate_cost));
        // Module metadata (Section 4.5).
        slot.registry.scope("state.left").install(&left_state);
        slot.registry.scope("state.right").install(&right_state);
        // Override memory_usage in terms of the modules (Section 4.4.2):
        slot.registry.define(
            ItemDef::on_demand("memory_usage")
                .dep_local("state.left.memory_usage")
                .dep_local("state.right.memory_usage")
                .doc("sum of the state modules' memory usage")
                .compute(|ctx| {
                    let l = ctx.dep_f64("state.left.memory_usage").unwrap_or(0.0);
                    let r = ctx.dep_f64("state.right.memory_usage").unwrap_or(0.0);
                    MetadataValue::U64((l + r) as u64)
                })
                .build(),
        );
        id
    }

    /// Adds a union of schema-compatible inputs.
    pub fn union(&self, name: &str, inputs: &[NodeId]) -> NodeId {
        let schema = self.output_schema(inputs[0]);
        self.operator(name, Box::new(Union::new(inputs.len(), schema)), inputs)
    }

    /// Adds a projection.
    pub fn project(&self, name: &str, input: NodeId, cols: Vec<usize>) -> NodeId {
        let schema = self.output_schema(input);
        self.operator(
            name,
            Box::new(crate::ops::Project::new(cols, &schema)),
            &[input],
        )
    }

    /// Adds a sliding-window aggregate over a windowed input.
    pub fn aggregate(&self, name: &str, input: NodeId, kind: AggKind, col: usize) -> NodeId {
        let monitors = NodeMonitors::new(1);
        self.operator_with_monitors(
            name,
            Box::new(WindowAggregate::new(kind, col, monitors.clone())),
            &[input],
            monitors,
        )
    }

    /// Adds a collecting sink; returns the node and a read handle.
    pub fn sink_collect(&self, name: &str, input: NodeId) -> (NodeId, CollectHandle) {
        let (sink, handle) = CollectSink::new();
        let id = self.insert_node(
            name,
            NodeKind::Sink,
            Some(Box::new(sink)),
            None,
            Schema::default(),
            "collect-sink",
            &[input],
            NodeMonitors::new(1),
        );
        (id, handle)
    }

    /// Adds a counting sink; returns the node and a read handle.
    pub fn sink_count(&self, name: &str, input: NodeId) -> (NodeId, CountHandle) {
        let (sink, handle) = CountSink::new();
        let id = self.insert_node(
            name,
            NodeKind::Sink,
            Some(Box::new(sink)),
            None,
            Schema::default(),
            "count-sink",
            &[input],
            NodeMonitors::new(1),
        );
        (id, handle)
    }

    /// Adds a discarding sink.
    pub fn sink_discard(&self, name: &str, input: NodeId) -> NodeId {
        self.insert_node(
            name,
            NodeKind::Sink,
            Some(Box::new(DiscardSink)),
            None,
            Schema::default(),
            "discard-sink",
            &[input],
            NodeMonitors::new(1),
        )
    }

    /// Defines query-level QoS metadata at a sink (static items:
    /// `qos.priority` and `qos.max_latency`).
    pub fn set_sink_qos(&self, sink: NodeId, priority: u64, max_latency: TimeSpan) {
        let slot = self.slot(sink);
        assert_eq!(slot.kind, NodeKind::Sink, "QoS belongs to sinks");
        slot.registry
            .define(ItemDef::static_value("qos.priority", priority));
        slot.registry
            .define(ItemDef::static_value("qos.max_latency", max_latency));
    }

    /// Attaches a value-distribution probe to integer column `col` of
    /// `node`'s output and defines the periodic metadata item
    /// `value_distribution.<col>` over it ("data distributions" are
    /// canonical source metadata in the paper's Section 1). The monitor is
    /// activated only while the item — or something depending on it, such
    /// as a selectivity estimate — is included. Returns the item's key.
    pub fn add_value_histogram(
        &self,
        node: NodeId,
        col: usize,
        lo: i64,
        hi: i64,
        buckets: usize,
    ) -> MetadataKey {
        let slot = self.slot(node);
        let monitor = HistogramMonitor::new(lo, hi, buckets);
        slot.histograms.write().push((col, monitor.clone()));
        slot.has_histograms.store(true, Ordering::Release);
        let item = format!("value_distribution.{col}");
        slot.registry.define(
            ItemDef::periodic(item.clone(), self.cfg.rate_window)
                .counter(monitor.activation())
                .doc("equi-width histogram of the column's observed values")
                .compute(move |_| MetadataValue::Histogram(monitor.snapshot()))
                .build(),
        );
        MetadataKey::new(node, item)
    }

    /// Exchanges a join's state modules at runtime (list <-> hash),
    /// migrating the stored elements, updating the `implementation`
    /// metadata definition and firing the node's `implementation_changed`
    /// event. Returns `false` if the node's behavior does not support the
    /// swap (not a join).
    ///
    /// Note: a *live* `implementation` handler keeps serving the old
    /// static value (static items compute once); the module item
    /// `state.*.impl` is on-demand and always reports the current
    /// implementation. Consumers of cost estimates should resubscribe
    /// after a plan change (see `streammeta-costmodel`'s optimizer).
    pub fn swap_join_state(&self, join: NodeId, new_impl: StateImpl) -> bool {
        let slot = self.slot(join);
        let Some(behavior) = &slot.behavior else {
            return false;
        };
        {
            let mut guard = behavior.lock();
            let Some(any) = guard.as_any_mut() else {
                return false;
            };
            let Some(j) = any.downcast_mut::<SlidingWindowJoin>() else {
                return false;
            };
            j.swap_state(new_impl);
        }
        let label = match new_impl {
            StateImpl::List => "nested-loops",
            StateImpl::Hash => "hash-based",
            StateImpl::Ordered => "ordered",
        };
        slot.registry
            .define(ItemDef::static_value("implementation", label));
        self.manager
            .fire_event(EventKey::new(join, "implementation_changed"));
        true
    }

    // ------------------------------------------------------------------
    // Topology queries
    // ------------------------------------------------------------------

    fn slot(&self, id: NodeId) -> Arc<NodeSlot> {
        self.nodes
            .read()
            .get(&id)
            .unwrap_or_else(|| panic!("unknown node {id}"))
            .clone()
    }

    /// Looks a node up, if present.
    pub fn get(&self, id: NodeId) -> Option<Arc<NodeSlot>> {
        self.nodes.read().get(&id).cloned()
    }

    /// All node ids, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<_> = self.nodes.read().keys().copied().collect();
        v.sort();
        v
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.read().is_empty()
    }

    /// The node's kind.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.slot(id).kind
    }

    /// The node's name.
    pub fn name(&self, id: NodeId) -> String {
        self.slot(id).name.clone()
    }

    /// The node's output schema.
    pub fn output_schema(&self, id: NodeId) -> Schema {
        self.slot(id).out_schema.clone()
    }

    /// The node's implementation label.
    pub fn implementation(&self, id: NodeId) -> &'static str {
        self.slot(id).implementation
    }

    /// The node's monitors.
    pub fn monitors(&self, id: NodeId) -> Arc<NodeMonitors> {
        self.slot(id).monitors.clone()
    }

    /// The topology generation: moves whenever a node is inserted or a
    /// query removed, and at no other time, so whatever was derived from
    /// the nodes and their wiring at an equal generation is still exact.
    pub fn generation(&self) -> u64 {
        // Acquire pairs with the Release in `bump_generation`: a reader
        // that sees a generation also sees the topology it counts.
        self.generation.load(Ordering::Acquire)
    }

    /// Called by the two writers of `nodes`/`downstream` (`insert_node`,
    /// `remove_query`) after their change is in place.
    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The node's inputs in port order.
    pub fn upstream(&self, id: NodeId) -> Vec<NodeId> {
        self.slot(id).upstream.clone()
    }

    /// The next pending source arrival time, if any.
    pub fn next_source_arrival(&self, node: NodeId) -> Option<Timestamp> {
        let slot = self.slot(node);
        let mut src = slot.source.as_ref()?.lock();
        if src.lookahead.is_none() && !src.exhausted {
            src.lookahead = src.generator.next_element();
            if src.lookahead.is_none() && !src.generator.live() {
                src.exhausted = true;
            }
        }
        src.lookahead.as_ref().map(|e| e.timestamp)
    }

    // ------------------------------------------------------------------
    // Runtime query removal
    // ------------------------------------------------------------------

    /// Removes the query rooted at `sink`: the sink plus every upstream
    /// node that no other query consumes (subquery sharing keeps shared
    /// prefixes alive). Registries of removed nodes are detached from the
    /// metadata manager. Returns the removed node ids.
    pub fn remove_query(&self, sink: NodeId) -> Vec<NodeId> {
        let mut removed = Vec::new();
        let mut nodes = self.nodes.write();
        let Some(slot) = nodes.get(&sink) else {
            return removed;
        };
        assert_eq!(slot.kind, NodeKind::Sink, "remove_query starts at a sink");
        let mut pending = vec![sink];
        while let Some(id) = pending.pop() {
            let Some(slot) = nodes.get(&id) else { continue };
            if !slot.downstream.read().is_empty() {
                continue; // still consumed by another query
            }
            let slot = nodes.remove(&id).expect("present");
            self.manager.detach_node(id);
            removed.push(id);
            for up in &slot.upstream {
                if let Some(up_slot) = nodes.get(up) {
                    up_slot.downstream.write().retain(|(d, _)| *d != id);
                    pending.push(*up);
                }
            }
        }
        if !removed.is_empty() {
            self.bump_generation();
        }
        removed.sort();
        removed
    }
}
