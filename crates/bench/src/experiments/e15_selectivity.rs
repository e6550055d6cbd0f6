//! E15 (Section 1, "data distributions" / motivating application 3,
//! query optimization): selectivity estimation from value-distribution
//! metadata.
//!
//! A source publishes an equi-width histogram of its key column as a
//! periodic metadata item. A filter's `estimated_selectivity` is derived
//! from it (triggered, so it refreshes whenever the histogram changes) and
//! compared against the filter's *measured* selectivity — for a uniform
//! and for a Zipf-skewed stream, across several predicate bounds.

use std::io::{self, Write};

use crate::harness::virtual_stack;
use crate::table::{f, Table};
use streammeta_core::MetadataKey;
use streammeta_costmodel::{install_filter_selectivity_estimate, PredicateBound};
use streammeta_engine::VirtualEngine;
use streammeta_graph::FilterPredicate;
use streammeta_streams::{ConstantRate, TupleGen, Zipf};
use streammeta_time::{TimeSpan, Timestamp};

fn run(skewed: bool, bound: i64) -> (f64, f64) {
    let (clock, manager, graph) = virtual_stack(100);
    let tuples = if skewed {
        TupleGen::ZipfInt(Zipf::new(100, 1.0))
    } else {
        TupleGen::UniformInt {
            lo: 0,
            hi: 99,
            cols: 1,
        }
    };
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(Timestamp(0), TimeSpan(1), tuples, 7)),
    );
    let hist_item = graph.add_value_histogram(src, 0, 0, 100, 20);
    let filter = graph.filter("f", src, FilterPredicate::AttrLt { col: 0, bound }, 3);
    let _sink = graph.sink_discard("k", filter);
    install_filter_selectivity_estimate(&graph, filter, hist_item, PredicateBound::Lt(bound));

    let est = manager
        .subscribe(MetadataKey::new(filter, "estimated_selectivity"))
        .expect("estimate installed");
    let meas = manager
        .subscribe(MetadataKey::new(filter, "selectivity"))
        .expect("standard filter item");
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    engine.run_until(Timestamp(5000));
    (
        est.get_f64().unwrap_or(f64::NAN),
        meas.get_f64().unwrap_or(f64::NAN),
    )
}

pub fn e15(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E15 — selectivity estimation from value-distribution metadata\n"
    )?;
    let mut table = Table::new(&[
        "distribution",
        "predicate",
        "estimated selectivity",
        "measured selectivity",
    ]);
    for skewed in [false, true] {
        for bound in [10i64, 25, 50, 90] {
            let (est, meas) = run(skewed, bound);
            table.row(vec![
                if skewed {
                    "zipf(100, s=1)"
                } else {
                    "uniform(0..100)"
                }
                .to_string(),
                format!("k < {bound}"),
                f(est),
                f(meas),
            ]);
        }
    }
    table.write(out)?;
    writeln!(
        out,
        "\nThe histogram-derived estimate tracks the measured selectivity \
         for both distributions; under skew the uniform-assumption guess \
         (bound/domain) would be far off, the distribution metadata is not."
    )
}
