//! Prints one experiment's transcript: `exp e2` runs E2 (the Figure 3
//! cascade) and writes what `results/exp_e2_fig3_cascade.txt` holds.
//! Without an argument it lists the experiments. A traced experiment's
//! lint summary goes to stderr.
//!
//! `cargo test -p streammeta-bench --test figures` runs them all and
//! compares every committed transcript.

use std::process::ExitCode;

use streammeta_bench::experiments::{by_name, ALL};
use streammeta_bench::harness::CountingAlloc;

// E21 counts the allocations of its catalog reads.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let Some(name) = std::env::args().nth(1) else {
        for e in ALL {
            println!(
                "{:<4} {}",
                e.name,
                e.transcript.unwrap_or("(no transcript)")
            );
        }
        return ExitCode::SUCCESS;
    };
    let Some(experiment) = by_name(&name) else {
        eprintln!("no experiment {name:?}; run `exp` without an argument for the list");
        return ExitCode::FAILURE;
    };
    let records = experiment
        .run(&mut std::io::stdout().lock())
        .expect("write the transcript to stdout");
    if !records.is_empty() {
        eprintln!(
            "trace replay: {} records linted (T1-T8 clean)",
            records.len()
        );
    }
    ExitCode::SUCCESS
}
