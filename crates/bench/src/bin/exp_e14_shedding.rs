//! E14 (Section 1, motivating application "Resource Management"): load
//! shedding driven by resource-usage metadata.
//!
//! A cross-product sliding-window join over a long window accumulates
//! state quadratically in the admitted rate. The load shedder subscribes
//! to the join's `memory_usage` metadata and adjusts a random-drop
//! probability to keep total usage (state + queues) near a byte budget.
//! The timeline compares a run without shedding against the managed run.

use streammeta_bench::harness::virtual_stack;
use streammeta_bench::table::{f, Table};
use streammeta_core::MetadataKey;
use streammeta_engine::{LoadShedder, VirtualEngine};
use streammeta_graph::{JoinPredicate, StateImpl};
use streammeta_streams::{ConstantRate, TupleGen};
use streammeta_time::{TimeSpan, Timestamp};

struct Timeline {
    memory: Vec<f64>,
    drop_prob: Vec<f64>,
    dropped: u64,
}

fn run(budget: Option<usize>) -> Timeline {
    let (clock, manager, graph) = virtual_stack(100);
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(1),
            TupleGen::Sequence,
            1,
        )),
    );
    let (w, _h) = graph.time_window("w", src, TimeSpan(500));
    let join = graph.join("j", w, w, JoinPredicate::True, StateImpl::List);
    let _sink = graph.sink_discard("k", join);
    let mem = manager
        .subscribe(MetadataKey::new(join, "memory_usage"))
        .expect("memory");
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    if let Some(b) = budget {
        let mut shedder = LoadShedder::new(b, 99);
        shedder.watch_memory(&manager, &[join]).expect("watch");
        engine.set_shedder(shedder);
    }
    let mut timeline = Timeline {
        memory: Vec::new(),
        drop_prob: Vec::new(),
        dropped: 0,
    };
    for step in 1..=10u64 {
        engine.run_until(Timestamp(step * 200));
        timeline.memory.push(mem.get_f64().unwrap_or(0.0));
        timeline
            .drop_prob
            .push(engine.shedder().map_or(0.0, |s| s.drop_prob()));
        timeline.dropped = engine.stats().dropped;
    }
    timeline
}

fn main() {
    let budget = 4_000usize;
    println!("E14 — metadata-driven load shedding (join state budget {budget} bytes)\n");
    let unmanaged = run(None);
    let managed = run(Some(budget));
    let mut table = Table::new(&[
        "t",
        "memory w/o shedder",
        "memory with shedder",
        "drop prob",
    ]);
    for i in 0..unmanaged.memory.len() {
        table.row(vec![
            ((i as u64 + 1) * 200).to_string(),
            f(unmanaged.memory[i]),
            f(managed.memory[i]),
            f(managed.drop_prob[i]),
        ]);
    }
    table.print();
    println!(
        "\nelements dropped by the shedder: {} (unmanaged run: 0)",
        managed.dropped
    );
    println!(
        "Without shedding the join state grows to the full window volume; \
         the shedder, subscribed to the join's memory_usage item, holds \
         usage near the budget."
    );
}
