//! The paper-reproduction experiments, one function per figure or claim
//! (DESIGN.md §4 is the index, EXPERIMENTS.md reads each table).
//!
//! Each writes its transcript to the `out` it is handed and asserts the
//! contract it exists for; a broken contract panics. The traced ones
//! (E20, E22–E24) also record into the trace ring they are handed, which
//! [`Experiment::run`] lints once they have returned, so the teardown
//! records are checked too. `tests/figures.rs` runs every experiment and
//! compares each committed transcript under `results/` byte for byte;
//! the `exp` binary prints one for a human.

use std::io::{self, Write};
use std::sync::Arc;

use streammeta_core::{RingBufferSink, TraceRecord};

use crate::harness::lint_trace;

/// How an experiment is run.
#[derive(Clone, Copy)]
pub enum Run {
    /// Writes its transcript.
    Plain(fn(&mut dyn Write) -> io::Result<()>),
    /// Writes its transcript and records a trace into the ring.
    Traced(fn(&mut dyn Write, &Arc<RingBufferSink>) -> io::Result<()>),
}

/// One experiment: its name, the file under `results/` its transcript
/// must reproduce (none where it prints wall-clock counts), and its
/// body.
pub struct Experiment {
    /// `e1`…`e24`.
    pub name: &'static str,
    /// The committed transcript, e.g. `exp_e2_fig3_cascade.txt`.
    pub transcript: Option<&'static str>,
    /// The experiment itself.
    pub run: Run,
}

/// Room for every record of the largest traced experiment.
const TRACE_CAPACITY: usize = 1 << 20;

impl Experiment {
    /// Runs the experiment, writing its transcript to `out`. A traced
    /// one records into a fresh ring; once it has returned, the whole
    /// trace is linted against T1–T8 (panicking on a violation) and
    /// returned. A plain one returns no record.
    pub fn run(&self, out: &mut dyn Write) -> io::Result<Vec<TraceRecord>> {
        match self.run {
            Run::Plain(run) => run(out).map(|()| Vec::new()),
            Run::Traced(run) => {
                let trace = RingBufferSink::new(TRACE_CAPACITY);
                run(out, &trace)?;
                Ok(lint_trace(&trace))
            }
        }
    }
}

/// Declares each experiment's module, re-exports its function and
/// lists it in [`ALL`]. `kind` is the [`Run`] variant; a `true` flag
/// means its transcript is committed as `results/exp_<module>.txt`.
macro_rules! experiments {
    ($($module:ident::$run:ident($kind:ident, $transcript:literal),)*) => {
        $(mod $module; pub use $module::$run;)*

        /// Every experiment, in numeric order.
        pub const ALL: &[Experiment] = &[$(Experiment {
            name: stringify!($run),
            transcript: if $transcript {
                Some(concat!("exp_", stringify!($module), ".txt"))
            } else {
                None
            },
            run: Run::$kind($run),
        },)*];
    };
}

experiments! {
    e1_taxonomy::e1(Plain, true),
    e2_fig3_cascade::e2(Plain, true),
    e3_fig4_concurrent::e3(Plain, true),
    e4_fig5_aggregation::e4(Plain, true),
    e5_scalability::e5(Plain, true),
    e6_freshness::e6(Plain, true),
    e10_resize::e10(Plain, true),
    e11_concurrency::e11(Plain, false),
    e12_dyndeps::e12(Plain, true),
    e13_chain::e13(Plain, true),
    e14_shedding::e14(Plain, true),
    e15_selectivity::e15(Plain, true),
    e16_optimizer::e16(Plain, true),
    e17_qos::e17(Plain, true),
    e18_observability::e18(Plain, false),
    e19_read_contention::e19(Plain, true),
    e20_fault_injection::e20(Traced, false),
    e21_catalog::e21(Plain, true),
    e22_batch_propagation::e22(Traced, true),
    e23_span_lineage::e23(Traced, true),
    e24_partition_churn::e24(Traced, true),
}

/// The experiment called `name` (`e1`…`e24`).
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}
