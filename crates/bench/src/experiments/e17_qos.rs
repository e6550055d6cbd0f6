//! E17 (Section 1: QoS specifications and scheduling priority as
//! query-level metadata): QoS-priority scheduling under overload.
//!
//! Two identical queries; their sinks declare `qos.priority` 10 and 1.
//! Under a processing budget of one element per tick against two arrivals
//! per tick, the FIFO baseline splits the backlog evenly; the QoS
//! scheduler reads the priorities through metadata subscriptions and
//! keeps the latency of the critical query flat while the best-effort
//! query absorbs the overload. The sinks' periodic `avg_latency` items
//! provide the measurements.

use std::io::{self, Write};

use crate::harness::virtual_stack;
use crate::table::{f, Table};
use streammeta_core::MetadataKey;
use streammeta_engine::{QosScheduler, VirtualEngine};
use streammeta_streams::{ConstantRate, TupleGen};
use streammeta_time::{TimeSpan, Timestamp};

fn run(qos: bool) -> Vec<(u64, f64, f64)> {
    let (clock, manager, graph) = virtual_stack(200);
    let mut latencies = Vec::new();
    for (tag, prio, seed) in [("critical", 10u64, 1u64), ("best-effort", 1, 2)] {
        let src = graph.source(
            &format!("src-{tag}"),
            Box::new(ConstantRate::new(
                Timestamp(0),
                TimeSpan(1),
                TupleGen::Sequence,
                seed,
            )),
        );
        let (sink, _h) = graph.sink_collect(&format!("sink-{tag}"), src);
        graph.set_sink_qos(sink, prio, TimeSpan(100));
        latencies.push(
            manager
                .subscribe(MetadataKey::new(sink, "avg_latency"))
                .expect("sink latency item"),
        );
    }
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    if qos {
        engine.set_scheduler(Box::new(QosScheduler::new(graph.clone())));
    }
    engine.set_ops_per_tick(Some(1));
    let mut timeline = Vec::new();
    for step in 1..=8u64 {
        engine.run_until(Timestamp(step * 400));
        timeline.push((
            step * 400,
            latencies[0].get_f64().unwrap_or(f64::NAN),
            latencies[1].get_f64().unwrap_or(f64::NAN),
        ));
    }
    timeline
}

pub fn e17(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E17 — QoS-priority scheduling (2 arrivals/tick vs budget 1/tick)\n"
    )?;
    let fifo = run(false);
    let qos = run(true);
    let mut table = Table::new(&[
        "t",
        "fifo lat (critical)",
        "fifo lat (best-effort)",
        "qos lat (critical)",
        "qos lat (best-effort)",
    ]);
    for i in 0..fifo.len() {
        table.row(vec![
            fifo[i].0.to_string(),
            f(fifo[i].1),
            f(fifo[i].2),
            f(qos[i].1),
            f(qos[i].2),
        ]);
    }
    table.write(out)?;
    writeln!(
        out,
        "\nFIFO backlogs both queries equally (latencies grow together); \
         the QoS scheduler keeps the critical query's latency at zero while \
         the best-effort query absorbs the entire backlog (NaN = nothing \
         delivered in the window). Priorities are read from the sinks' \
         qos.priority metadata."
    )
}
