//! E4 (Figure 5 / Section 3.2.3): the on-demand aggregation anomaly and
//! the triggered handler that fixes it.
//!
//! A bursty stream alternates between rate 1.0 (100 units) and rate 0.1
//! (100 units); the true average input rate is 0.55. The periodic
//! `input_rate` (window 50) tracks the bursts correctly. An *on-demand*
//! average over it, accessed every 200 units, happens to sample only the
//! peak windows and reports 1.0 — "the less frequent updates on the
//! average input rate are always computed for the peak input rate, which
//! results in a wrong average value". The *triggered* average observes
//! every change of the underlying rate and converges to the truth.

use std::io::{self, Write};
use std::sync::Arc;

use crate::harness::virtual_stack;
use crate::table::{f, Table};
use streammeta_core::{ItemDef, MetadataKey, MetadataValue, OnlineAverage};
use streammeta_engine::VirtualEngine;
use streammeta_streams::{Bursty, TupleGen};
use streammeta_time::{TimeSpan, Timestamp};

pub fn e4(out: &mut dyn Write) -> io::Result<()> {
    let (clock, manager, graph) = virtual_stack(50);
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

    // The PROBLEMATIC design of Figure 5: an on-demand average over the
    // periodically updated input rate, unsynchronized with its updates.
    let slot = graph.get(sink).expect("sink");
    let naive_avg = Arc::new(OnlineAverage::new());
    let na = naive_avg.clone();
    slot.registry().define(
        ItemDef::on_demand("avg_input_rate_naive")
            .dep_local("input_rate")
            .stateful()
            .doc("NAIVE on-access average of the periodic input rate (Figure 5 anomaly)")
            .compute(move |ctx| match ctx.dep_f64("input_rate") {
                Some(r) => {
                    na.observe(r);
                    MetadataValue::F64(na.mean().expect("observed"))
                }
                None => MetadataValue::Unavailable,
            })
            .build(),
    );

    let naive = manager
        .subscribe(MetadataKey::new(sink, "avg_input_rate_naive"))
        .expect("naive avg");
    // The CORRECT design: the standard triggered average.
    let triggered = manager
        .subscribe(MetadataKey::new(sink, "avg_input_rate"))
        .expect("triggered avg");
    let rate = manager
        .subscribe(MetadataKey::new(sink, "input_rate"))
        .expect("rate");

    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());

    writeln!(
        out,
        "E4 / Figure 5 — on-demand vs. triggered aggregation (true average rate = 0.55)\n"
    )?;
    let mut table = Table::new(&[
        "t",
        "input_rate (periodic)",
        "avg on-demand (sampled at peaks)",
        "avg triggered",
    ]);
    // The consumer accesses the averages every 200 units — exactly when a
    // peak window has just been published.
    for i in 1..=8u64 {
        let t = i * 200 - 100; // 100, 300, 500, ... end of each high phase
        engine.run_until(Timestamp(t));
        table.row(vec![
            t.to_string(),
            f(rate.get_f64().unwrap_or(f64::NAN)),
            f(naive.get_f64().unwrap_or(f64::NAN)),
            f(triggered.get_f64().unwrap_or(f64::NAN)),
        ]);
    }
    table.write(out)?;
    writeln!(
        out,
        "\nThe on-demand average only sees the peak windows (1.0); the \
         triggered average follows every change of the input rate and \
         reports the true 0.55."
    )
}
