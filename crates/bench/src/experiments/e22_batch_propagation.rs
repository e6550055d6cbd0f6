//! E22: epoch-batched trigger propagation — the work-reduction contract.
//!
//! One hot source event with `F` triggered dependents (fan-out F in
//! {16, 64, 256}) takes `N` rapid-fire updates. Per-event mode sweeps
//! the full fan-out on every update: exactly `N·F` recomputes. Epoch
//! mode enqueues each update and flushes every `BATCH` updates (the
//! time-slice driver's job in a live executor): updates of the same
//! source coalesce, so the same `N` updates cost exactly `⌈N/BATCH⌉·F`
//! recomputes, in `⌈N/BATCH⌉` epochs, with all but one update per epoch
//! coalesced, and every observer ends on the final value.
//!
//! Those counts are the contract and the whole output: they are the
//! same on every run. What the reduction buys in updates per second is
//! `ops_per_s` of the benchmark's `fanout_epoch` against
//! `fanout_per_event` workload (`BENCHMARK.json`).
//!
//! A small traced replay of both modes goes to the trace ring, which is
//! checked against the trace-replay invariants T1–T8. `N` is small enough
//! for a debug build: the counts are exact at any size.

use std::io::{self, Write};
use std::sync::Arc;

use crate::harness::{caller_flushed_epochs, fanout_dag, fire_ticks};
use crate::table::Table;
use streammeta_core::RingBufferSink;

const FANOUTS: &[usize] = &[16, 64, 256];
/// Flush cadence in epoch mode: one epoch per BATCH updates.
const BATCH: usize = 64;
/// Updates per mode.
const N: usize = 1024;

/// Runs E22, tracing its small replay into `trace`.
pub fn e22(out: &mut dyn Write, trace: &Arc<RingBufferSink>) -> io::Result<()> {
    let updates = N;
    writeln!(
        out,
        "E22 — epoch-batched trigger propagation vs per-event sweeps"
    )?;
    writeln!(out, "{updates} updates per mode, flush cadence {BATCH}\n")?;

    let flushes = updates.div_ceil(BATCH) as u64;
    let mut table = Table::new(&[
        "fanout",
        "per-event computes",
        "epoch computes",
        "epochs",
        "coalesced updates",
    ]);
    for &fanout in FANOUTS {
        let (manager, state, subs) = fanout_dag(fanout);

        let start = manager.stats();
        fire_ticks(&manager, &state, updates, None);
        let per_event = manager.stats();
        manager.set_propagation_mode(caller_flushed_epochs());
        fire_ticks(&manager, &state, updates, Some(BATCH));
        let epoch = manager.stats();

        let per_event_computes = per_event.computes - start.computes;
        let epoch_computes = epoch.computes - per_event.computes;
        let epochs = epoch.epochs - per_event.epochs;
        let coalesced = epoch.coalesced_updates - per_event.coalesced_updates;
        // Per-event: every update recomputes the whole fan-out. Epoch:
        // one recompute of the fan-out per flush.
        assert_eq!(per_event_computes, (updates * fanout) as u64);
        assert_eq!(epoch_computes, flushes * fanout as u64);
        assert_eq!(epochs, flushes, "one epoch per flush cadence");
        assert_eq!(
            coalesced,
            updates as u64 - flushes,
            "all but one update per epoch coalesce"
        );
        // The last flush delivered the final value to every observer.
        for sub in &subs {
            assert_eq!(sub.get().as_u64(), Some(updates as u64));
        }
        table.row(vec![
            fanout.to_string(),
            per_event_computes.to_string(),
            epoch_computes.to_string(),
            epochs.to_string(),
            coalesced.to_string(),
        ]);
    }
    table.write(out)?;

    // Fan-out 8 runs the per-event protocol, then two coalescing
    // epochs, then tears its subscriptions down. The counted runs above
    // stay untraced: N updates x 256 dependents would be over a quarter
    // million records.
    let (manager, state, subs) = fanout_dag(8);
    manager.set_trace_sink(Some(trace.clone()));
    fire_ticks(&manager, &state, 4, None);
    manager.set_propagation_mode(caller_flushed_epochs());
    fire_ticks(&manager, &state, 2 * BATCH, Some(BATCH));
    drop(subs); // unsubscribe + exclude close every per-key history

    writeln!(
        out,
        "\nE22 invariants held: N*F per-event and ceil(N/{BATCH})*F epoch recomputes, one epoch \
         per flush, all but one update per epoch coalesced, every observer saw the final value."
    )
}
