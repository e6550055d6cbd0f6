//! # streammeta-bench — shared experiment scaffolding
//!
//! The shared harness (quick flag, results directory, stacks, traced-phase
//! lint), scenario builders and table formatting used by the experiment
//! binaries (`src/bin/exp_*.rs`, one per paper figure/claim — see
//! DESIGN.md's experiment index).

pub mod fixtures;
pub mod harness;
pub mod scenarios;
pub mod table;
pub mod trace_fixtures;
