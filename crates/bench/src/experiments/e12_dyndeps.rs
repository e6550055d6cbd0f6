//! E12 (Section 4.4.3): dynamic dependency redefinition.
//!
//! "Consider for example a metadata item A computable from a metadata item
//! B. ... Assume, item A can alternatively be computed from metadata item
//! C. If item C has already been included at runtime, but B has not, the
//! dependency for A can be redefined such that A points to C. This saves
//! computational resources because the unnecessary inclusion of B is
//! prevented."
//!
//! A = average input rate of an operator; B = its fine-grained (expensive)
//! periodic rate; C = a coarse rate that another consumer may already
//! maintain. The table shows which handlers exist in each situation.

use std::io::{self, Write};

use crate::harness::virtual_stack;
use crate::table::Table;
use streammeta_core::{DepTarget, Dependency, ItemDef, MetadataKey, MetadataValue};
use streammeta_engine::VirtualEngine;
use streammeta_graph::define_rate_item;
use streammeta_streams::{ConstantRate, TupleGen};
use streammeta_time::{TimeSpan, Timestamp};

pub fn e12(out: &mut dyn Write) -> io::Result<()> {
    let (clock, manager, graph) = virtual_stack(100);
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let sink = graph.sink_discard("sink", src);
    let slot = graph.get(sink).expect("sink");

    // B: an expensive fine-grained rate (window 10).
    define_rate_item(
        slot.registry(),
        "rate_fine",
        &slot.monitors.input_total,
        TimeSpan(10),
        "fine-grained rate (10x the update cost)",
    );
    // C: a coarse rate (window 100) that other consumers typically hold.
    define_rate_item(
        slot.registry(),
        "rate_coarse",
        &slot.monitors.input_total,
        TimeSpan(100),
        "coarse rate",
    );
    // A: prefers whichever alternative is already included; falls back to
    // the fine-grained item.
    let kb = MetadataKey::new(sink, "rate_fine");
    let kc = MetadataKey::new(sink, "rate_coarse");
    let (kb2, kc2) = (kb.clone(), kc.clone());
    slot.registry().define(
        ItemDef::triggered("smoothed_rate")
            .dynamic_deps(move |ctx| {
                let pick = if ctx.is_included(&kc2) { &kc2 } else { &kb2 };
                vec![Dependency::new("rate", DepTarget::Remote(pick.clone()))]
            })
            .doc("rate from whichever source item is already maintained")
            .compute(|ctx| match ctx.dep_f64("rate") {
                Some(r) => MetadataValue::F64(r),
                None => MetadataValue::Unavailable,
            })
            .build(),
    );

    writeln!(out, "E12 — dynamic dependency resolution (A from B or C)\n")?;
    let mut table = Table::new(&[
        "situation",
        "A (smoothed_rate)",
        "B (rate_fine)",
        "C (rate_coarse)",
        "periodic tasks",
    ]);
    let record = |label: &str, table: &mut Table| {
        table.row(vec![
            label.to_string(),
            manager
                .is_included(&MetadataKey::new(sink, "smoothed_rate"))
                .to_string(),
            manager.is_included(&kb).to_string(),
            manager.is_included(&kc).to_string(),
            manager.periodic().live_tasks().to_string(),
        ]);
    };

    record("nothing subscribed", &mut table);
    {
        // Case 1: nothing else included -> A resolves to B (fine).
        let a = manager
            .subscribe(MetadataKey::new(sink, "smoothed_rate"))
            .expect("subscribe A");
        record("A alone -> uses B", &mut table);
        drop(a);
    }
    {
        // Case 2: C is already maintained by another consumer -> A
        // resolves to C and B is never included.
        let _c = manager.subscribe(kc.clone()).expect("subscribe C");
        let a = manager
            .subscribe(MetadataKey::new(sink, "smoothed_rate"))
            .expect("subscribe A");
        record("C already included -> A uses C, B avoided", &mut table);

        // A still computes correct values through C.
        let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
        engine.run_until(Timestamp(300));
        table.row(vec![
            format!("value of A after 300 units: {}", a.get()),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    record("all dropped", &mut table);
    table.write(out)?;
    writeln!(
        out,
        "\nWith C already maintained, including A avoids the expensive \
         fine-grained item B entirely — one periodic task instead of two."
    )
}
