//! E16 (Section 1, motivating application "Query Optimization" +
//! Section 4.5 exchangeable modules): metadata-driven runtime plan
//! adaptation.
//!
//! An equi-join starts with nested-loops (list) state while its inputs
//! are slow. When the stream rates jump 25x, the optimizer — reading only
//! metadata (estimated rates, validities, predicate cost, key
//! cardinality) — swaps the join's state modules to hash tables in place,
//! migrating the stored elements. The table shows the *measured* CPU
//! usage before and after: the adapted plan processes the fast phase at a
//! fraction of the nested-loops cost.

use std::io::{self, Write};

use crate::harness::virtual_stack;
use crate::table::{f, Table};
use streammeta_core::MetadataKey;
use streammeta_costmodel::{install_cost_model, JoinImplOptimizer};
use streammeta_engine::VirtualEngine;
use streammeta_graph::{JoinPredicate, StateImpl};
use streammeta_streams::{Bursty, TupleGen};
use streammeta_time::{TimeSpan, Timestamp};

fn run(adaptive: bool) -> Vec<(u64, String, f64)> {
    let (clock, manager, graph) = virtual_stack(250);
    // Slow phase (one element / 100 units) for 4000 units, then fast
    // (one / 2 units) for 4000 units, repeating. With 100-unit windows,
    // nested loops beat the hashing overhead while slow; hashing wins
    // decisively once fast.
    let mk_src = |name: &str, seed: u64| {
        graph.source(
            name,
            Box::new(Bursty::new(
                Timestamp(0),
                TimeSpan(4000),
                TimeSpan(4000),
                TimeSpan(100),
                Some(TimeSpan(2)),
                TupleGen::UniformInt {
                    lo: 0,
                    hi: 19,
                    cols: 1,
                },
                seed,
            )),
        )
    };
    let (s1, s2) = (mk_src("a", 1), mk_src("b", 2));
    let (w1, _h1) = graph.time_window("w1", s1, TimeSpan(100));
    let (w2, _h2) = graph.time_window("w2", s2, TimeSpan(100));
    let join = graph.join(
        "join",
        w1,
        w2,
        JoinPredicate::EqAttr { left: 0, right: 0 },
        StateImpl::List,
    );
    let _sink = graph.sink_discard("k", join);
    install_cost_model(&graph);
    let measured = manager
        .subscribe(MetadataKey::new(join, "measured_cpu_usage"))
        .expect("standard item");
    let mut opt =
        adaptive.then(|| JoinImplOptimizer::new(graph.clone(), join, StateImpl::List).unwrap());
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    let mut timeline = Vec::new();
    for step in 1..=16u64 {
        engine.run_until(Timestamp(step * 500));
        if let Some(opt) = opt.as_mut() {
            opt.adapt();
        }
        let label = opt
            .as_ref()
            .map(|o| format!("{:?}", o.current()).to_lowercase())
            .unwrap_or_else(|| "list".into());
        timeline.push((step * 500, label, measured.get_f64().unwrap_or(f64::NAN)));
    }
    timeline
}

pub fn e16(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E16 — metadata-driven plan adaptation (list -> hash under rising rates)\n"
    )?;
    let fixed = run(false);
    let adaptive = run(true);
    let mut table = Table::new(&[
        "t",
        "fixed plan cpu (list)",
        "adaptive plan",
        "adaptive cpu",
    ]);
    for i in 0..fixed.len() {
        table.row(vec![
            fixed[i].0.to_string(),
            f(fixed[i].2),
            adaptive[i].1.clone(),
            f(adaptive[i].2),
        ]);
    }
    table.write(out)?;
    // Steady-state fast phase: t >= 5000 (the adaptation itself happens
    // within one measurement window of the rate jump).
    let fast_avg = |tl: &[(u64, String, f64)]| {
        let vals: Vec<f64> = tl.iter().filter(|x| x.0 >= 5000).map(|x| x.2).collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let (fx, ad) = (fast_avg(&fixed), fast_avg(&adaptive));
    writeln!(
        out,
        "\nfast-phase measured CPU: fixed {fx:.2} vs adaptive {ad:.2} ({:.1}x reduction)",
        fx / ad
    )?;
    writeln!(
        out,
        "The optimizer decides from metadata alone and swaps the exchangeable \
         state modules in place; the module metadata (state.*.impl) follows."
    )
}
