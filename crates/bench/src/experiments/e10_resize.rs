//! E10 (Section 3.3): adaptive window resizing with event-triggered
//! re-estimation.
//!
//! The resource manager watches the join's `estimated_memory_usage` and
//! adjusts the window sizes to meet a memory budget. Every resize fires
//! `window_size_changed`; the event re-triggers the estimated element
//! validity (intra-node dependency) and, through inter-node dependencies,
//! the join's CPU and memory estimates — without any polling.

use std::io::{self, Write};

use crate::scenarios::join_scenario;
use crate::table::{f, Table};
use streammeta_core::MetadataKey;
use streammeta_costmodel::{
    ResourceManager, ESTIMATED_CPU_USAGE, ESTIMATED_ELEMENT_VALIDITY, ESTIMATED_MEMORY_USAGE,
};
use streammeta_engine::VirtualEngine;
use streammeta_time::Timestamp;

pub fn e10(out: &mut dyn Write) -> io::Result<()> {
    // λ = 0.5 per input, windows 400 → unmanaged state estimate
    // 2·(0.5·400·8) = 3200 bytes.
    let s = join_scenario(2, 400, 200);
    let mgr = &s.manager;
    let budget = 800u64;

    let mem_est = mgr
        .subscribe(MetadataKey::new(s.join, ESTIMATED_MEMORY_USAGE))
        .expect("mem estimate");
    let cpu_est = mgr
        .subscribe(MetadataKey::new(s.join, ESTIMATED_CPU_USAGE))
        .expect("cpu estimate");
    let mem_meas = mgr
        .subscribe(MetadataKey::new(s.join, "memory_usage"))
        .expect("measured memory");
    let validity = mgr
        .subscribe(MetadataKey::new(s.windows.0, ESTIMATED_ELEMENT_VALIDITY))
        .expect("validity");

    let mut rm = ResourceManager::new(s.graph.clone(), budget);
    rm.manage_window(s.windows.0, s.handles.0.clone());
    rm.manage_window(s.windows.1, s.handles.1.clone());
    rm.watch_join(s.join).expect("watch join");

    let mut engine = VirtualEngine::new(s.graph.clone(), s.clock.clone());

    writeln!(
        out,
        "E10 — adaptive window resizing (memory budget {budget} bytes)\n"
    )?;
    let mut table = Table::new(&[
        "t",
        "window size",
        "est validity",
        "est memory",
        "meas memory",
        "est cpu",
        "scale",
    ]);
    for step in 1..=8u64 {
        engine.run_until(Timestamp(step * 500));
        // The manager adapts every 500 units.
        rm.adjust();
        table.row(vec![
            (step * 500).to_string(),
            s.handles.0.get().to_string(),
            f(validity.get_f64().unwrap_or(f64::NAN)),
            f(mem_est.get_f64().unwrap_or(f64::NAN)),
            f(mem_meas.get_f64().unwrap_or(f64::NAN)),
            f(cpu_est.get_f64().unwrap_or(f64::NAN)),
            f(rm.scale()),
        ]);
    }
    table.write(out)?;
    writeln!(
        out,
        "\nAfter the measurements warm up, the manager shrinks the windows \
         until the estimated memory respects the budget; the measured state \
         follows as old elements expire. Every resize re-triggers the \
         estimates through the dependency graph (no polling)."
    )
}
