//! Deterministic virtual-time executor.
//!
//! Steps a [`VirtualClock`] in fixed ticks. Each tick releases the due
//! source elements into the inter-operator queues (optionally through a
//! load shedder), drains the queues under the configured scheduling
//! strategy (optionally rate-limited to simulate overload), and then fires
//! the due periodic metadata updates. Everything is deterministic, so the
//! paper's anomaly tables reproduce exactly.
//!
//! The element path is the shared [`Plan`], recompiled on the first tick
//! after a topology change ([`QueryGraph::generation`]), so the
//! per-element path is a scheduler decision, which names a queue by its
//! index, and indexed accesses from there on.

use std::sync::Arc;

use streammeta_core::PartitionedMetadataPlane;
use streammeta_graph::QueryGraph;
use streammeta_streams::Element;
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock};

use crate::plan::Plan;
use crate::probes::EngineProbes;
use crate::queues::QueueSet;
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
            Plan::fan_out(source, &mut self.scratch, |q, e| self.queues.push_at(q, e));
        }

        // 2. Drain queues under the scheduling strategy.
        let mut budget = self.ops_per_tick.unwrap_or(usize::MAX);
        while budget > 0 {
            let Some(queue) = self.scheduler.next(&self.queues) else {
                break;
            };
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
            Plan::fan_out(consumer, &mut self.scratch, |q, e| {
                self.queues.push_at(q, e)
            });
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
