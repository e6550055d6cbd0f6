//! The paper's figures as tier-1 tests: every experiment of
//! `streammeta_bench::experiments` runs here, once each.
//!
//! - The transcript tests compare what an experiment writes byte for
//!   byte with its committed `results/exp_*.txt`. The virtual-time
//!   experiments run on the deterministic engine and print nothing a
//!   clock or a scheduler decides, so an engine or operator change that
//!   moves one of them changed an answer: this is the gate a change
//!   leans on when it claims "same answers". E19 and E21–E24 print only
//!   counts and yes/no facts, so theirs are fixed too.
//! - Every experiment asserts its own contract and panics when it
//!   breaks, so a failure is a regression, never runner weather:
//!   - E11: the threaded executor with metadata readers processes
//!     elements in every run, with zero isolation violations;
//!   - E18: the threaded executor's recorded channel backlog never
//!     exceeds `WORK_CHANNEL_CAPACITY`;
//!   - E20: reads are always fresh or stale-marked, no injected panic
//!     escapes, and the trace shows no unquarantined repeat-failure;
//!   - E21: every `sys.*` relation has its declared arity and the row
//!     count CQL counts, one-shot and continuous CQL single out the slow
//!     item, a full snapshot makes a fixed number of allocations, and
//!     `COUNT(*)` builds no cell where the snapshot builds every row
//!     (counted in allocations and bytes, hence the allocator below);
//!   - E22: exactly N·F per-event against ⌈N/64⌉·F epoch recomputes, one
//!     epoch per flush, exact coalescing, final values delivered;
//!   - E23: sampling off mints no span (and the same check fails under
//!     `Ratio(1)`), sampled lineage is 100% covered;
//!   - E24: one link per cross-partition subscription, kill-phase reads
//!     fresh-or-degraded, revive recovers, teardown leaves none.
//! - E20 and E22–E24 trace a phase into an in-memory ring. Once the
//!   experiment has returned, the whole trace, teardown records
//!   included, is linted against the trace-replay invariants T1–T8.
//!
//! E11, E18 and E20 print wall-clock counts and have no transcript.
//! Nothing here is timed: speed is the repo benchmark's business
//! (`BENCHMARK.json`).
//!
//! After a change that is meant to move a transcript, regenerate them
//! with `BLESS=1 cargo test -p streammeta-bench --test figures` and
//! review the diff.

use streammeta_bench::experiments::by_name;
use streammeta_bench::harness::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs experiment `name` and compares its transcript, if it has one,
/// with the committed file (rewriting the file under `BLESS`).
fn reproduce(name: &str) {
    let experiment = by_name(name).expect("a listed experiment");
    let mut out = Vec::new();
    experiment.run(&mut out).expect("write to memory");
    let Some(file) = experiment.transcript else {
        return;
    };
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let written = String::from_utf8(out).expect("a UTF-8 transcript");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &written).unwrap();
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        committed == written,
        "{name} no longer reproduces results/{file}; if the change is meant to move it, \
         regenerate with\n    BLESS=1 cargo test -p streammeta-bench --test figures\n\
         and review the diff. It now reads:\n{written}"
    );
}

#[test]
fn e1_taxonomy() {
    reproduce("e1");
}

#[test]
fn e2_fig3_cascade() {
    reproduce("e2");
}

#[test]
fn e3_fig4_concurrent() {
    reproduce("e3");
}

#[test]
fn e4_fig5_aggregation() {
    reproduce("e4");
}

#[test]
fn e5_scalability() {
    reproduce("e5");
}

#[test]
fn e6_freshness() {
    reproduce("e6");
}

#[test]
fn e10_resize() {
    reproduce("e10");
}

#[test]
fn e11_concurrency() {
    reproduce("e11");
}

#[test]
fn e12_dyndeps() {
    reproduce("e12");
}

#[test]
fn e13_chain() {
    reproduce("e13");
}

#[test]
fn e14_shedding() {
    reproduce("e14");
}

#[test]
fn e15_selectivity() {
    reproduce("e15");
}

#[test]
fn e16_optimizer() {
    reproduce("e16");
}

#[test]
fn e17_qos() {
    reproduce("e17");
}

#[test]
fn e18_observability() {
    reproduce("e18");
}

#[test]
fn e19_read_contention() {
    reproduce("e19");
}

#[test]
fn e20_fault_injection() {
    reproduce("e20");
}

#[test]
fn e21_catalog() {
    reproduce("e21");
}

#[test]
fn e22_batch_propagation() {
    reproduce("e22");
}

#[test]
fn e23_span_lineage() {
    reproduce("e23");
}

#[test]
fn e24_partition_churn() {
    reproduce("e24");
}
