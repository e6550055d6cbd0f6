//! Multi-threaded wall-clock executor.
//!
//! Exercises the synchronization design of Section 4.2: "the concurrency
//! between the processing of stream elements and metadata access" — worker
//! threads push elements through the graph (node behaviors serialize on
//! their own mutexes) while metadata consumers read concurrently through
//! the manager, and a periodic worker pool fires the due updates.
//!
//! The element path is the same compiled [`Plan`] the virtual engine runs.
//! One feeder thread recompiles it whenever [`QueryGraph::generation`]
//! moves, so queries installed or removed mid-run are picked up; releases
//! the due source elements; and sends one `(plan, queue, element)` item
//! per source edge over a channel bounded at [`WORK_CHANNEL_CAPACITY`]. A
//! full channel blocks the feeder, which back-pressures source release.
//! Each worker runs an item to completion, depth-first through the plan
//! on a local stack, so workers never send and the bound cannot deadlock.
//! Shutdown is the feeder dropping the channel's only sender: workers
//! drain what is queued and see the disconnect, whether the feeder
//! reached its deadline or died.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use streammeta_graph::QueryGraph;
use streammeta_streams::Element;
use streammeta_time::Clock;

use crate::plan::Plan;
use crate::probes::EngineProbes;
use crate::queues::QueueSet;

/// Work items the feeder may have queued for the workers at once.
pub const WORK_CHANNEL_CAPACITY: usize = 1024;

/// Counters of one threaded run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedRunStats {
    /// Elements processed by workers.
    pub processed: u64,
    /// Elements released by sources.
    pub source_elements: u64,
}

/// Runs `graph` for `duration` with `workers` processing threads.
///
/// The caller is responsible for driving periodic metadata (typically via
/// [`streammeta_time::WorkerPool`] on `graph.manager().periodic()`).
pub fn run_threaded(
    graph: &Arc<QueryGraph>,
    clock: &Arc<dyn Clock>,
    duration: Duration,
    workers: usize,
) -> ThreadedRunStats {
    run_threaded_with(graph, clock, duration, workers, None)
}

/// Like [`run_threaded`], additionally publishing channel backlog, busy
/// workers and processed counts into `probes` (no-ops per monitor unless
/// the corresponding [`crate::probes::ENGINE_NODE`] item is subscribed).
pub fn run_threaded_with(
    graph: &Arc<QueryGraph>,
    clock: &Arc<dyn Clock>,
    duration: Duration,
    workers: usize,
    probes: Option<&EngineProbes>,
) -> ThreadedRunStats {
    let workers = workers.max(1);
    if let Some(p) = probes {
        p.workers.set(workers as f64);
    }
    let (tx, rx) = bounded::<(Arc<Plan>, usize, Element)>(WORK_CHANNEL_CAPACITY);
    let processed = AtomicU64::new(0);
    let source_elements = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Feeder: owns the only sender (the `drop` at the end moves it in),
        // so leaving this closure, normally or by unwinding, disconnects
        // the workers.
        scope.spawn(|| {
            // Name this flame track for the Chrome-trace exporter.
            graph.manager().label_trace_thread("feeder");
            let deadline = Instant::now() + duration;
            // The plan's queue indices name edges only; nothing is queued.
            let mut queues = QueueSet::new();
            let mut plan = Arc::new(Plan::default());
            let mut buf = Vec::new();
            while Instant::now() < deadline {
                if plan.generation != Some(graph.generation()) {
                    plan = Arc::new(Plan::compile(graph, &mut queues));
                }
                let now = clock.now();
                for source in &plan.sources {
                    source.slot.pull_source(now, &mut buf);
                    source_elements.fetch_add(buf.len() as u64, Ordering::Relaxed);
                    Plan::fan_out(source, &mut buf, |queue, e| {
                        // Fails only once every worker is gone, and then
                        // the scope re-raises the panic that took them.
                        let _ = tx.send((plan.clone(), queue, e));
                    });
                }
                if let Some(p) = probes {
                    p.queue_elements.set(tx.len() as f64);
                }
                // Epoch propagation mode: the feeder is the time-slice
                // driver — a pending epoch whose oldest update aged past
                // `max_delay` flushes here (no-op in the default
                // per-event mode).
                graph.manager().flush_epoch_if_due(clock.now());
                std::thread::sleep(Duration::from_micros(200));
            }
            drop(tx);
        });
        let processed = &processed;
        for worker in 0..workers {
            let rx = rx.clone();
            scope.spawn(move || {
                graph
                    .manager()
                    .label_trace_thread(&format!("worker-{worker}"));
                let mut stack = Vec::new();
                let mut out = Vec::new();
                while let Ok((plan, queue, element)) = rx.recv() {
                    if let Some(p) = probes {
                        p.busy_workers.add(1.0);
                    }
                    let mut done = 0;
                    stack.push((queue, element));
                    while let Some((queue, element)) = stack.pop() {
                        let stage = &plan.consumers[queue];
                        stage
                            .slot
                            .process(stage.port, &element, clock.now(), &mut out);
                        done += 1;
                        // Reversed, so the stack pops each queue's
                        // elements in the order they were produced.
                        let pushed = stack.len();
                        Plan::fan_out(stage, &mut out, |q, e| stack.push((q, e)));
                        stack[pushed..].reverse();
                    }
                    processed.fetch_add(done, Ordering::Relaxed);
                    if let Some(p) = probes {
                        p.processed.record_n(done);
                        p.busy_workers.add(-1.0);
                    }
                }
            });
        }
        // The workers hold the only receivers: should all of them die, a
        // feeder blocked on a full channel fails its send instead of
        // waiting forever.
        drop(rx);
    });

    // Shutdown drain: whatever the epoch queue still holds (a partial
    // epoch below both flush bounds) is swept now, so no update enqueued
    // during the run is lost at exit.
    graph.manager().flush_epoch();

    ThreadedRunStats {
        processed: processed.into_inner(),
        source_elements: source_elements.into_inner(),
    }
}
