//! E1 (Figure 2): the metadata taxonomy realised on a concrete query.
//!
//! Lists every metadata item the Figure 3 query graph offers, classified
//! as static vs. dynamic and by update mechanism — the categories of the
//! paper's Figure 2.

use std::io::{self, Write};

use crate::scenarios::join_scenario;
use crate::table::Table;
use streammeta_core::NodeId;

pub fn e1(out: &mut dyn Write) -> io::Result<()> {
    let s = join_scenario(10, 100, 100);
    writeln!(
        out,
        "E1 / Figure 2 — metadata taxonomy of the Figure 3 query graph\n"
    )?;
    let mut table = Table::new(&["node", "kind", "item", "class", "mechanism"]);
    let mut counts = std::collections::BTreeMap::new();
    // Node ids are process-wide; a node is printed as its rank in this
    // graph, the id it gets in a process that built no graph before.
    for (rank, node) in s.graph.nodes().into_iter().enumerate() {
        let slot = s.graph.get(node).expect("node exists");
        let kind = s.graph.kind(node);
        for path in slot.registry().available() {
            let def = slot.registry().get(&path).expect("listed");
            let mech = def.mechanism();
            let class = if mech.is_dynamic() {
                "dynamic"
            } else {
                "static"
            };
            *counts.entry(mech.label()).or_insert(0usize) += 1;
            table.row(vec![
                format!("{} ({})", s.graph.name(node), NodeId(rank as u32)),
                kind.label().to_string(),
                path.as_str().to_string(),
                class.to_string(),
                mech.label().to_string(),
            ]);
        }
    }
    table.write(out)?;
    writeln!(out, "\nitems by mechanism:")?;
    let mut summary = Table::new(&["mechanism", "items"]);
    for (mech, n) in counts {
        summary.row(vec![mech.to_string(), n.to_string()]);
    }
    summary.write(out)
}
