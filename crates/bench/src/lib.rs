//! # streammeta-bench — the paper-reproduction experiments
//!
//! The experiments (one function per paper figure/claim, see DESIGN.md's
//! experiment index), the shared harness (stacks, trace lint, allocation
//! count), scenario builders, table formatting and the linters' fixtures.
//! `tests/figures.rs` runs every experiment as a tier-1 test; the `exp`
//! binary prints one transcript.

pub mod experiments;
pub mod fixtures;
pub mod harness;
pub mod scenarios;
pub mod table;
pub mod trace_fixtures;
