//! E13 (Section 1, motivating application "Scheduling"): Chain scheduling
//! driven by selectivity metadata.
//!
//! Two bursty filter chains — one destructive (selectivity 0.1), one
//! permissive (0.9) — run under a per-tick processing budget. The
//! metadata-driven Chain scheduler serves sinks and the destructive
//! filter first and thereby keeps the time-averaged queue memory below
//! FIFO and round-robin. Midway, the selectivities *swap*; Chain adapts
//! because it reads them through live metadata subscriptions.

use std::sync::Arc;

use streammeta_bench::harness::virtual_stack;
use streammeta_bench::table::{f, Table};
use streammeta_core::{MetadataKey, MetadataManager};
use streammeta_engine::{
    ChainScheduler, FifoScheduler, RoundRobinScheduler, Scheduler, VirtualEngine,
};
use streammeta_graph::{FilterPredicate, QueryGraph, SelectivityHandle};
use streammeta_streams::{Bursty, TupleGen};
use streammeta_time::{TimeSpan, Timestamp, VirtualClock};

type ChainSetup = (
    Arc<VirtualClock>,
    Arc<MetadataManager>,
    Arc<QueryGraph>,
    Vec<SelectivityHandle>,
    Vec<streammeta_core::Subscription>,
);

fn build() -> ChainSetup {
    let (clock, manager, graph) = virtual_stack(50);
    let mut handles = Vec::new();
    let mut subs = Vec::new();
    for (tag, sel, seed) in [("a", 0.1f64, 1u64), ("b", 0.9, 2)] {
        let src = graph.source(
            &format!("src-{tag}"),
            Box::new(Bursty::new(
                Timestamp(0),
                TimeSpan(50),
                TimeSpan(150),
                TimeSpan(1),
                None,
                TupleGen::Sequence,
                seed,
            )),
        );
        let handle = SelectivityHandle::new(sel);
        let filter = graph.filter(
            &format!("f-{tag}"),
            src,
            FilterPredicate::Prob(handle.clone()),
            seed + 100,
        );
        graph.sink_discard(&format!("sink-{tag}"), filter);
        // Keep the selectivity metadata maintained.
        subs.push(
            manager
                .subscribe(MetadataKey::new(filter, "selectivity"))
                .expect("selectivity"),
        );
        handles.push(handle);
    }
    (clock, manager, graph, handles, subs)
}

fn run(which: &str) -> (f64, usize, u64) {
    let (clock, _mgr, graph, handles, _subs) = build();
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    let scheduler: Box<dyn Scheduler> = match which {
        "fifo" => Box::new(FifoScheduler),
        "round-robin" => Box::new(RoundRobinScheduler::default()),
        _ => Box::new(ChainScheduler::new(&graph)),
    };
    engine.set_scheduler(scheduler);
    // Warm up at full speed so selectivities get measured.
    engine.run_until(Timestamp(400));
    engine.set_ops_per_tick(Some(2));
    engine.run_until(Timestamp(4400));
    // Selectivity swap: the destructive chain becomes permissive and vice
    // versa — the scheduler must re-learn from the metadata.
    handles[0].set(0.9);
    handles[1].set(0.1);
    engine.run_until(Timestamp(8400));
    let stats = engine.stats();
    (
        stats.avg_queue_elements(),
        stats.max_queue_elements,
        stats.processed,
    )
}

fn main() {
    println!("E13 — Chain scheduling on selectivity metadata (bursty load, budget 2 ops/tick)\n");
    let mut table = Table::new(&[
        "scheduler",
        "avg queued elements",
        "max queued elements",
        "processed",
    ]);
    for which in ["fifo", "round-robin", "chain"] {
        let (avg, max, processed) = run(which);
        table.row(vec![
            which.to_string(),
            f(avg),
            max.to_string(),
            processed.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nChain keeps the time-averaged queue occupancy lowest by serving \
         the most destructive operators first — and keeps doing so after \
         the mid-run selectivity swap, because it subscribes to the live \
         selectivity metadata."
    );
}
