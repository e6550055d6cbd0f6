//! E5 (Sections 1, 2, 4.3): tailored metadata provision is what makes
//! metadata management scale with the number of queries.
//!
//! For growing numbers of parallel queries, the same workload runs in
//! three provision modes:
//!
//! * **none** — no metadata subscribed (lower bound);
//! * **on-demand (pub-sub)** — one consumer subscribes to one item
//!   (a single filter's `input_rate`), as the publish-subscribe
//!   architecture provides;
//! * **maintain-all** — every available item of every node is subscribed,
//!   the strawman the paper argues against ("providing all available
//!   metadata would be too expensive").
//!
//! The table reports metadata compute and update counts per run:
//! maintain-all grows linearly with the graph while pub-sub stays flat.
//! What the provision costs in time is the benchmark's business.

use std::io::{self, Write};

use crate::scenarios::parallel_queries;
use crate::table::Table;
use streammeta_core::MetadataKey;
use streammeta_engine::VirtualEngine;
use streammeta_time::Timestamp;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    None,
    OnDemand,
    All,
}

fn run(queries: usize, mode: Mode) -> (u64, u64) {
    let s = parallel_queries(queries, 10, 50);
    let _subs = match mode {
        Mode::None => Vec::new(),
        Mode::OnDemand => vec![s
            .manager
            .subscribe(MetadataKey::new(s.filters[0], "input_rate"))
            .expect("subscribe")],
        Mode::All => {
            let mut subs = Vec::new();
            for node in s.graph.nodes() {
                subs.extend(s.manager.subscribe_all(node).expect("subscribe all"));
            }
            subs
        }
    };
    let mut engine = VirtualEngine::new(s.graph.clone(), s.clock.clone());
    engine.run_until(Timestamp(1000));
    let stats = s.manager.stats();
    (stats.computes, stats.updates)
}

pub fn e5(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E5 — metadata provision cost vs. number of queries (1000 time units)\n"
    )?;
    let mut table = Table::new(&[
        "queries",
        "nodes",
        "mode",
        "metadata computes",
        "metadata updates",
    ]);
    for &queries in &[10usize, 50, 100, 250, 500] {
        for (mode, label) in [
            (Mode::None, "none"),
            (Mode::OnDemand, "pub-sub (1 item)"),
            (Mode::All, "maintain-all"),
        ] {
            let (computes, updates) = run(queries, mode);
            table.row(vec![
                queries.to_string(),
                (queries * 3).to_string(),
                label.to_string(),
                computes.to_string(),
                updates.to_string(),
            ]);
        }
    }
    table.write(out)?;
    writeln!(
        out,
        "\nMaintain-all metadata work grows linearly with the number of \
         queries; the publish-subscribe architecture keeps the cost of the \
         actually-required metadata constant."
    )
}
