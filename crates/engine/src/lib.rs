//! # streammeta-engine — query execution
//!
//! Two executors over the [`streammeta_graph::QueryGraph`], running one
//! element path: a plan compiled per topology change (`plan.rs`) that
//! maps every queue to its consumer and the queues its outputs fan out to.
//!
//! * [`VirtualEngine`] — single-threaded, deterministic, on virtual time.
//!   All correctness experiments run here. Supports pluggable scheduling
//!   ([`FifoScheduler`], [`RoundRobinScheduler`], the metadata-driven
//!   [`ChainScheduler`]), per-tick processing budgets (overload
//!   simulation) and a metadata-driven [`LoadShedder`] — the paper's
//!   motivating applications 1 and 2.
//! * [`run_threaded`] — a multi-threaded wall-clock executor for the
//!   synchronization experiments of Section 4.2: a feeder releases source
//!   elements into a channel bounded at [`WORK_CHANNEL_CAPACITY`], and
//!   each worker runs what it takes off it to completion.

mod executor;
mod plan;
mod probes;
mod queues;
mod scheduler;
mod shedder;
mod threaded;

pub use executor::{EngineStats, VirtualEngine};
pub use probes::{EngineProbes, ENGINE_NODE};
pub use queues::{QueueKey, QueueSet, Queued};
pub use scheduler::{ChainScheduler, FifoScheduler, QosScheduler, RoundRobinScheduler, Scheduler};
pub use shedder::LoadShedder;
pub use threaded::{run_threaded, run_threaded_with, ThreadedRunStats, WORK_CHANNEL_CAPACITY};
