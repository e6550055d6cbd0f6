//! E18: reflexive observability — the framework watching itself.
//!
//! A query runs on the multi-threaded wall-clock executor while a
//! `Recorder` subscribes to the manager's own meta-metadata node
//! (handler count, compute rate, deadline misses) and to the engine's
//! probe items (channel backlog, worker utilization), sampled every
//! ~25ms; the final values are rendered in Prometheus text exposition
//! format. Contract: the recorded channel backlog never exceeds the
//! executor's bound, [`WORK_CHANNEL_CAPACITY`]. The counts it prints are
//! wall-clock figures, so it has no committed transcript.

use std::io::{self, Write};
use std::time::Duration;

use crate::scenarios::wall_filter_query;
use streammeta_core::{MetadataKey, META_NODE};
use streammeta_engine::{run_threaded_with, EngineProbes, ENGINE_NODE, WORK_CHANNEL_CAPACITY};
use streammeta_profiler::Recorder;
use streammeta_time::{TimeSpan, WorkerPool};

pub fn e18(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E18 — reflexive observability on the threaded executor (500ms wall run)\n"
    )?;
    let (clock, manager, graph, f) = wall_filter_query();

    // The engine publishes its own runtime state ...
    let probes = EngineProbes::new();
    probes.install(&manager, TimeSpan(50_000));
    // ... and the manager publishes stats about itself.
    manager.install_meta_node(TimeSpan(50_000));

    // A plain subscription keeps the manager busy so the meta items have
    // something to report.
    let _rate = manager
        .subscribe(MetadataKey::new(f, "input_rate"))
        .expect("input_rate");

    let mut recorder = Recorder::new(manager.clone());
    let mut backlog = None;
    for (label, node, item) in [
        ("meta_handlers", META_NODE, "meta.handlers"),
        ("meta_computes_rate", META_NODE, "meta.computes_rate"),
        ("meta_deadline_misses", META_NODE, "meta.deadline_misses"),
        (
            "meta_propagation_depth",
            META_NODE,
            "meta.propagation_depth",
        ),
        ("queue_elements", ENGINE_NODE, "engine.queue_elements"),
        (
            "worker_utilization",
            ENGINE_NODE,
            "engine.worker_utilization",
        ),
    ] {
        let series = recorder
            .track(label, MetadataKey::new(node, item))
            .expect(item);
        if label == "queue_elements" {
            backlog = Some(series);
        }
    }

    let pool = WorkerPool::start(manager.periodic().clone(), clock.clone(), 1);
    let stats = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            run_threaded_with(&graph, &clock, Duration::from_millis(500), 4, Some(&probes))
        });
        // Sample the series every ~25ms while the engine runs.
        while !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(25));
            recorder.sample();
        }
        handle.join().expect("threaded run")
    });
    pool.shutdown();

    writeln!(
        out,
        "processed {} elements from {} source elements\n",
        stats.processed, stats.source_elements
    )?;

    let backlog = recorder.series(backlog.expect("tracked above"));
    let peak = backlog.iter().filter_map(|(_, v)| *v).fold(0.0, f64::max);
    assert!(
        peak <= WORK_CHANNEL_CAPACITY as f64,
        "recorded backlog {peak} above the channel bound {WORK_CHANNEL_CAPACITY}"
    );
    writeln!(
        out,
        "channel backlog stayed within its bound of {WORK_CHANNEL_CAPACITY} work items \
         in all {} samples\n",
        backlog.len()
    )?;

    writeln!(out, "Prometheus exposition of the final values:\n")?;
    write!(out, "{}", recorder.render_prometheus())
}
