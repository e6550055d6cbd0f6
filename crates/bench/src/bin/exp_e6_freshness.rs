//! E6 (Section 3.1): the freshness/overhead trade-off of periodic
//! updates.
//!
//! "The window size is a parameter in our approach that allows calibrating
//! the tradeoff between freshness and computational overhead."
//!
//! A stream alternates between rate 1.0 and rate 0.1 every 100 units. For
//! a sweep of periodic-window sizes, the experiment measures (a) how many
//! handler updates the measurement costs and (b) the mean absolute error
//! of the reported rate against the true phase rate — small windows are
//! fresh but expensive; large windows are cheap but stale.

use streammeta_bench::harness::virtual_stack;
use streammeta_bench::table::{f, Table};
use streammeta_core::MetadataKey;
use streammeta_engine::VirtualEngine;
use streammeta_streams::{Bursty, TupleGen};
use streammeta_time::{TimeSpan, Timestamp};

/// True rate at instant `t` for the 100/100 phase pattern.
fn true_rate(t: u64) -> f64 {
    if (t / 100).is_multiple_of(2) {
        1.0
    } else {
        0.1
    }
}

fn run(window: u64) -> (u64, f64) {
    let (clock, manager, graph) = virtual_stack(window);
    let src = graph.source(
        "bursty",
        Box::new(Bursty::new(
            Timestamp(0),
            TimeSpan(100),
            TimeSpan(100),
            TimeSpan(1),
            Some(TimeSpan(10)),
            TupleGen::Sequence,
            7,
        )),
    );
    let sink = graph.sink_discard("sink", src);
    let rate = manager
        .subscribe(MetadataKey::new(sink, "input_rate"))
        .expect("rate");
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    let horizon = 10_000u64;
    let mut err_sum = 0.0;
    let mut err_n = 0u64;
    for t in 1..=horizon {
        engine.run_until(Timestamp(t));
        if let Some(r) = rate.get_f64() {
            err_sum += (r - true_rate(t.saturating_sub(1))).abs();
            err_n += 1;
        }
    }
    let stats = manager
        .handler_stats(&MetadataKey::new(sink, "input_rate"))
        .expect("stats");
    (stats.computes, err_sum / err_n.max(1) as f64)
}

fn main() {
    println!("E6 — freshness vs. overhead of periodic updates (10000 time units)\n");
    let mut table = Table::new(&["window", "handler computes", "mean abs rate error"]);
    for &window in &[5u64, 10, 25, 50, 100, 200, 400, 1000] {
        let (computes, err) = run(window);
        table.row(vec![window.to_string(), computes.to_string(), f(err)]);
    }
    table.print();
    println!(
        "\nSmaller windows track the bursty rate closely but cost \
         proportionally more updates; larger windows are cheap but smear \
         the phases (staleness). The window size calibrates the trade-off."
    );
}
