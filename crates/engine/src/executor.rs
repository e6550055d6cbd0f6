//! Deterministic virtual-time executor.
//!
//! Steps a [`VirtualClock`] in fixed ticks. Each tick releases the due
//! source elements into the inter-operator queues (optionally through a
//! load shedder), drains the queues under the configured scheduling
//! strategy (optionally rate-limited to simulate overload), and then fires
//! the due periodic metadata updates. Everything is deterministic, so the
//! paper's anomaly tables reproduce exactly.
//!
//! What an element's way through the graph depends on — which node
//! consumes a queue, on which port, and which queues its outputs go to —
//! is compiled into a [`Plan`] once per topology change
//! ([`QueryGraph::generation`]), so the per-element path is a scheduler
//! decision, one queue lookup and indexed accesses from there on.

use std::collections::BTreeMap;
use std::sync::Arc;

use streammeta_core::{NodeId, PartitionedMetadataPlane};
use streammeta_graph::{NodeKind, NodeSlot, QueryGraph};
use streammeta_streams::Element;
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock};

use crate::probes::EngineProbes;
use crate::queues::{QueueKey, QueueSet};
use crate::scheduler::{FifoScheduler, Scheduler};
use crate::shedder::LoadShedder;

/// Aggregate execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Elements processed by operators and sinks.
    pub processed: u64,
    /// Elements released by sources.
    pub source_elements: u64,
    /// Elements dropped by the load shedder.
    pub dropped: u64,
    /// High-water mark of queued elements.
    pub max_queue_elements: usize,
    /// High-water mark of queued bytes.
    pub max_queue_bytes: usize,
    /// Sum over ticks of the end-of-tick queued element count; divide by
    /// `ticks` for the time-averaged queue occupancy (the quantity Chain
    /// scheduling minimises).
    pub queue_integral_elements: u64,
    /// Times the execution plan was compiled: once per tick that found
    /// the graph's topology changed since the tick before.
    pub plan_builds: u64,
}

impl EngineStats {
    /// Time-averaged queued elements.
    pub fn avg_queue_elements(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.queue_integral_elements as f64 / self.ticks as f64
        }
    }
}

/// A node with the queues its output fans out to, as [`QueueSet`]
/// indices in wiring order.
struct Stage {
    slot: Arc<NodeSlot>,
    /// The input port the stage's queue feeds (0 for a source).
    port: usize,
    downstream: Vec<usize>,
}

/// The element path of one graph generation.
#[derive(Default)]
struct Plan {
    /// The [`QueryGraph::generation`] the plan was compiled at (`None`
    /// before the first tick).
    generation: Option<u64>,
    /// The sources, in node-id order.
    sources: Vec<Stage>,
    /// The consumer of every queue, indexed like the [`QueueSet`].
    consumers: Vec<Stage>,
}

impl Plan {
    /// Compiles the plan of `graph` as it is now, registering a queue per
    /// wired edge and discarding the queues (and queued elements) of
    /// consumers that are gone.
    fn compile(graph: &QueryGraph, queues: &mut QueueSet) -> Plan {
        // Read first: a change racing with the compilation leaves a
        // generation that is already behind, and the next tick recompiles.
        let generation = graph.generation();
        let slots: BTreeMap<NodeId, Arc<NodeSlot>> = graph
            .nodes()
            .into_iter()
            .filter_map(|id| Some((id, graph.get(id)?)))
            .collect();
        // An edge whose consumer is not in `slots` belongs to a node
        // being inserted right now; the generation moves when it is.
        let edges = |slot: &NodeSlot| -> Vec<QueueKey> {
            let mut edges = slot.downstream();
            edges.retain(|(node, _)| slots.contains_key(node));
            edges
        };
        queues.retain(|(node, _)| slots.contains_key(&node));
        for slot in slots.values() {
            for edge in edges(slot) {
                queues.ensure(edge);
            }
        }
        let stage = |slot: &Arc<NodeSlot>, port: usize| Stage {
            slot: slot.clone(),
            port,
            downstream: edges(slot)
                .into_iter()
                .map(|edge| queues.index_of(edge).expect("registered above"))
                .collect(),
        };
        Plan {
            generation: Some(generation),
            sources: slots
                .values()
                .filter(|slot| slot.kind == NodeKind::Source)
                .map(|slot| stage(slot, 0))
                .collect(),
            consumers: queues
                .keys()
                .map(|(node, port)| stage(&slots[&node], port))
                .collect(),
        }
    }

    /// Moves `elements` into the queues downstream of `from`: a clone per
    /// edge but the last, which gets the element itself.
    fn fan_out(from: &Stage, queues: &mut QueueSet, elements: &mut Vec<Element>) {
        let Some((&last, rest)) = from.downstream.split_last() else {
            elements.clear();
            return;
        };
        for e in elements.drain(..) {
            for &queue in rest {
                queues.push_at(queue, e.clone());
            }
            queues.push_at(last, e);
        }
    }
}

/// The single-threaded virtual-time engine.
pub struct VirtualEngine {
    graph: Arc<QueryGraph>,
    clock: Arc<VirtualClock>,
    scheduler: Box<dyn Scheduler>,
    queues: QueueSet,
    shedder: Option<LoadShedder>,
    probes: Option<Arc<EngineProbes>>,
    ops_per_tick: Option<usize>,
    tick: TimeSpan,
    stats: EngineStats,
    /// Partitioned metadata plane driven by this engine, if any: each
    /// tick pumps queued cross-partition updates and advances every
    /// partition's periodic registry and epoch queue.
    plane: Option<Arc<PartitionedMetadataPlane>>,
    scratch: Vec<Element>,
    plan: Plan,
}

impl VirtualEngine {
    /// An engine over `graph` driven by `clock`, with FIFO scheduling and
    /// a tick of one time unit.
    pub fn new(graph: Arc<QueryGraph>, clock: Arc<VirtualClock>) -> Self {
        // The single-threaded engine is one flame track in a Chrome
        // trace; label it up front so exports name it even when thread
        // ids are switched on mid-run.
        graph.manager().label_trace_thread("virtual-engine");
        VirtualEngine {
            graph,
            clock,
            scheduler: Box::new(FifoScheduler),
            queues: QueueSet::new(),
            shedder: None,
            probes: None,
            ops_per_tick: None,
            tick: TimeSpan(1),
            stats: EngineStats::default(),
            plane: None,
            scratch: Vec::new(),
            plan: Plan::default(),
        }
    }

    /// Replaces the scheduling strategy.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = scheduler;
    }

    /// Sets the clock step per tick.
    pub fn set_tick(&mut self, tick: TimeSpan) {
        assert!(!tick.is_zero(), "zero tick");
        self.tick = tick;
    }

    /// Limits how many elements operators process per tick (`None` =
    /// drain fully). A limit below the arrival volume simulates CPU
    /// overload: queues build up, which the Chain scheduler and the load
    /// shedder then manage.
    pub fn set_ops_per_tick(&mut self, limit: Option<usize>) {
        self.ops_per_tick = limit;
    }

    /// Installs a load shedder in front of the sources.
    pub fn set_shedder(&mut self, shedder: LoadShedder) {
        self.shedder = Some(shedder);
    }

    /// Installs engine probes; each tick publishes queue depths and
    /// shed counters into their monitors (no-ops while unsubscribed).
    pub fn set_probes(&mut self, probes: Arc<EngineProbes>) {
        self.probes = Some(probes);
    }

    /// The installed shedder, if any.
    pub fn shedder(&self) -> Option<&LoadShedder> {
        self.shedder.as_ref()
    }

    /// Attaches a partitioned metadata plane: every tick the engine
    /// pumps its cross-partition update channels and advances every
    /// partition's periodic registry and epoch queue (the graph's own
    /// manager keeps being driven as before).
    pub fn set_plane(&mut self, plane: Option<Arc<PartitionedMetadataPlane>>) {
        self.plane = plane;
    }

    /// The attached plane, if any.
    pub fn plane(&self) -> Option<&Arc<PartitionedMetadataPlane>> {
        self.plane.as_ref()
    }

    /// The current queues (for inspection by experiments).
    pub fn queues(&self) -> &QueueSet {
        &self.queues
    }

    /// Execution counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The engine's graph.
    pub fn graph(&self) -> &Arc<QueryGraph> {
        &self.graph
    }

    /// The engine's clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Runs one tick; returns the new time.
    pub fn tick_once(&mut self) -> Timestamp {
        let now = self.clock.advance(self.tick);
        self.stats.ticks += 1;
        if self.plan.generation != Some(self.graph.generation()) {
            self.plan = Plan::compile(&self.graph, &mut self.queues);
            self.stats.plan_builds += 1;
        }

        // 1. Release due source elements (through the shedder, if any).
        for source in &self.plan.sources {
            self.scratch.clear();
            source.slot.pull_source(now, &mut self.scratch);
            self.stats.source_elements += self.scratch.len() as u64;
            if let Some(shedder) = &mut self.shedder {
                let dropped = &source.slot.monitors.dropped;
                self.scratch.retain(|_| {
                    if shedder.should_drop() {
                        dropped.record();
                        false
                    } else {
                        true
                    }
                });
            }
            Plan::fan_out(source, &mut self.queues, &mut self.scratch);
        }

        // 2. Drain queues under the scheduling strategy.
        let mut budget = self.ops_per_tick.unwrap_or(usize::MAX);
        while budget > 0 {
            let Some(key) = self.scheduler.next(&self.queues) else {
                break;
            };
            let queue = self.queues.index_of(key).expect("scheduler picked a queue");
            let item = self
                .queues
                .pop_at(queue)
                .expect("scheduler picked non-empty");
            let consumer = &self.plan.consumers[queue];
            self.scratch.clear();
            consumer
                .slot
                .process(consumer.port, &item.element, now, &mut self.scratch);
            self.stats.processed += 1;
            if let Some(p) = &self.probes {
                p.processed.record();
            }
            Plan::fan_out(consumer, &mut self.queues, &mut self.scratch);
            budget -= 1;
        }

        // 3. Shedder control loop + periodic metadata updates.
        if let Some(shedder) = &mut self.shedder {
            shedder.on_tick(&self.queues);
            self.stats.dropped = shedder.counts().1;
        }
        if let Some(p) = &self.probes {
            p.queue_elements.set(self.queues.total_elements() as f64);
            p.queue_bytes.set(self.queues.total_bytes() as f64);
            if let Some(shedder) = &self.shedder {
                let (admitted, dropped) = shedder.counts();
                p.shed_admitted.set(admitted as f64);
                p.shed_dropped.set(dropped as f64);
            }
        }
        self.graph.manager().periodic().advance_to(now);
        // Epoch propagation mode: the tick is the time-slice driver — a
        // pending epoch whose oldest update aged past `max_delay` flushes
        // here (no-op in the default per-event mode).
        self.graph.manager().flush_epoch_if_due(now);
        if let Some(plane) = &self.plane {
            plane.tick(now);
        }

        self.stats.max_queue_elements = self
            .stats
            .max_queue_elements
            .max(self.queues.total_elements());
        self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(self.queues.total_bytes());
        self.stats.queue_integral_elements += self.queues.total_elements() as u64;
        now
    }

    /// Runs whole ticks until the clock reaches (at least) `t_end`, then
    /// drains any partial epoch still pending (epoch propagation mode).
    pub fn run_until(&mut self, t_end: Timestamp) {
        while self.clock.now() < t_end {
            self.tick_once();
        }
        self.graph.manager().flush_epoch();
        if let Some(plane) = &self.plane {
            plane.pump();
            for m in plane.partitions() {
                m.flush_epoch();
            }
        }
    }

    /// Runs for `span` time units from the current instant.
    pub fn run_for(&mut self, span: TimeSpan) {
        let end = self.clock.now() + span;
        self.run_until(end);
    }
}
