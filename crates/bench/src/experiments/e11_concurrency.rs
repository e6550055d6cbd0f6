//! E11 (Section 4.2): synchronization between element processing and
//! metadata access.
//!
//! A query runs on the multi-threaded wall-clock executor while reader
//! threads hammer its metadata. The experiment is a contract check: every
//! run processes elements, and no reader ever sees an isolation violation
//! (a version going backwards, or a positive version without a value).
//! The element and read counts it prints are wall-clock figures, so it
//! has no committed transcript; the benchmark, not this experiment, is
//! where a speed number comes from.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::scenarios::wall_filter_query;
use crate::table::Table;
use streammeta_core::MetadataKey;
use streammeta_engine::run_threaded;
use streammeta_time::WorkerPool;

fn run(readers: usize, workers: usize) -> (u64, u64, u64) {
    let (clock, manager, graph, f) = wall_filter_query();
    let pool = WorkerPool::start(manager.periodic().clone(), clock.clone(), 1);
    let rate = Arc::new(
        manager
            .subscribe(MetadataKey::new(f, "input_rate"))
            .expect("rate"),
    );
    let naive = Arc::new(
        manager
            .subscribe(MetadataKey::new(f, "input_count"))
            .expect("count"),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));

    let stats = std::thread::scope(|scope| {
        for _ in 0..readers {
            let rate = rate.clone();
            let naive = naive.clone();
            let stop = stop.clone();
            let reads = reads.clone();
            let violations = violations.clone();
            scope.spawn(move || {
                let mut last_version = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let v = rate.versioned();
                    // Isolation: versions never go backwards for a reader,
                    // and a positive version implies an available value.
                    if v.version < last_version || (v.version > 0 && !v.value.is_available()) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    last_version = v.version;
                    let _ = naive.get();
                    reads.fetch_add(2, Ordering::Relaxed);
                }
            });
        }
        let stats = run_threaded(&graph, &clock, Duration::from_millis(500), workers);
        stop.store(true, Ordering::SeqCst);
        stats
    });
    pool.shutdown();
    (
        stats.processed,
        reads.load(Ordering::Relaxed),
        violations.load(Ordering::Relaxed),
    )
}

pub fn e11(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E11 — concurrent element processing and metadata access (500ms wall runs)\n"
    )?;
    let mut table = Table::new(&[
        "metadata readers",
        "engine workers",
        "elements processed",
        "metadata reads",
        "isolation violations",
    ]);
    for (readers, workers) in [(0usize, 4usize), (2, 4), (8, 4), (8, 1)] {
        let (processed, reads, violations) = run(readers, workers);
        assert!(
            processed > 0,
            "{readers} readers, {workers} workers: nothing ran"
        );
        assert_eq!(
            violations, 0,
            "{readers} readers, {workers} workers: isolation violated"
        );
        table.row(vec![
            readers.to_string(),
            workers.to_string(),
            processed.to_string(),
            reads.to_string(),
            violations.to_string(),
        ]);
    }
    table.write(out)?;
    writeln!(
        out,
        "\nContract held: every run processed elements while readers hammered \
         its metadata, and no reader saw an isolation violation."
    )
}
