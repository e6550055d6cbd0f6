//! E2 (Figure 3 / Section 2.5): automatic inclusion and exclusion of the
//! cost-model dependency network.
//!
//! A monitoring tool subscribes to the join's `estimated_cpu_usage`; the
//! framework includes every (transitively) required item across nodes —
//! stream rates and element validities at the windows, predicate cost and
//! selectivity at the join — while items that are merely *available*
//! (e.g. the join's `estimated_output_rate`) get no handler.
//! Unsubscribing excludes the whole cascade again.

use std::io::{self, Write};

use crate::scenarios::join_scenario;
use crate::table::Table;
use streammeta_core::{MetadataKey, NodeId, RingBufferSink, TraceEvent, TraceRecord};
use streammeta_costmodel::{ESTIMATED_CPU_USAGE, ESTIMATED_OUTPUT_RATE};
use streammeta_engine::VirtualEngine;
use streammeta_profiler::render_trace;
use streammeta_time::Timestamp;

pub fn e2(out: &mut dyn Write) -> io::Result<()> {
    let s = join_scenario(10, 100, 100);
    let mgr = &s.manager;
    writeln!(
        out,
        "E2 / Figure 3 — subscription cascade of the join cost model\n"
    )?;
    writeln!(out, "handlers before subscription: {}", mgr.handler_count())?;

    // Trace the cascade itself: every include/exclude the manager performs
    // lands in the ring buffer in the order it happened.
    let sink = RingBufferSink::new(1024);
    mgr.set_trace_sink(Some(sink.clone()));

    // Node ids are process-wide; a key is printed with its node's rank in
    // this graph, the id the node gets in a process that built no graph
    // before.
    let nodes = s.graph.nodes();
    let local = |key: &MetadataKey| {
        let rank = nodes
            .binary_search(&key.node)
            .expect("a node of this graph");
        MetadataKey::new(NodeId(rank as u32), key.item.clone())
    };
    // The retained include (or exclude) records, keys made local.
    let traced = |include: bool| -> Vec<TraceRecord> {
        let mut records = sink.snapshot();
        records.retain_mut(|r| match &mut r.event {
            TraceEvent::Include { key, .. } if include => {
                *key = local(key);
                true
            }
            TraceEvent::Exclude { key, .. } if !include => {
                *key = local(key);
                true
            }
            _ => false,
        });
        records
    };

    let cpu = mgr
        .subscribe(MetadataKey::new(s.join, ESTIMATED_CPU_USAGE))
        .expect("subscribe estimated_cpu_usage");
    writeln!(
        out,
        "handlers after subscribing estimated_cpu_usage: {}\n",
        mgr.handler_count()
    )?;

    writeln!(
        out,
        "inclusion trace (dependencies materialise before dependents):"
    )?;
    writeln!(out, "{}", render_trace(&traced(true)))?;

    let mut table = Table::new(&["included item", "mechanism", "subscriptions"]);
    for key in mgr.included_keys() {
        let mech = mgr.mechanism_of(&key).expect("included");
        table.row(vec![
            local(&key).to_string(),
            mech.label().to_string(),
            mgr.subscription_count(&key).to_string(),
        ]);
    }
    table.write(out)?;

    let unused = MetadataKey::new(s.join, ESTIMATED_OUTPUT_RATE);
    writeln!(
        out,
        "\navailable but unused (no handler): {} -> included = {}",
        local(&unused),
        mgr.is_included(&unused)
    )?;

    // Run the query so the estimate becomes a real number.
    let mut engine = VirtualEngine::new(s.graph.clone(), s.clock.clone());
    engine.run_until(Timestamp(2000));
    writeln!(
        out,
        "\nestimated CPU usage of the join after 2000 time units: {}",
        cpu.get()
    )?;

    sink.clear();
    drop(cpu);
    writeln!(
        out,
        "handlers after unsubscription (automatic exclusion): {}",
        mgr.handler_count()
    )?;
    writeln!(
        out,
        "\nexclusion trace (remaining handlers count down to zero):"
    )?;
    writeln!(out, "{}", render_trace(&traced(false)))
}
