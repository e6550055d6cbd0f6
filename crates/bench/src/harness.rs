//! What every experiment needs around its body, written once: the
//! clock/manager/graph stack, the fan-out DAG of E22/E23, the trace lint
//! and the per-thread allocation count of E21.
//!
//! The contract experiments (E19–E24) print only facts that are the same
//! on every run of a commit; anything measured in wall-clock time belongs
//! to the repo benchmark (`BENCHMARK.json`), not here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_analyze::tracelint;
use streammeta_core::{
    EpochConfig, EventKey, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId,
    NodeRegistry, PropagationMode, RingBufferSink, Subscription, TraceRecord,
};
use streammeta_graph::{MetadataConfig, QueryGraph};
use streammeta_time::{ClockRef, TimeSpan, VirtualClock};

/// A manager on `clock` and an empty query graph whose periodic rate
/// items use `rate_window`.
pub fn stack(clock: ClockRef, rate_window: u64) -> (Arc<MetadataManager>, Arc<QueryGraph>) {
    let manager = MetadataManager::new(clock);
    let graph = Arc::new(QueryGraph::with_config(
        manager.clone(),
        MetadataConfig {
            rate_window: TimeSpan(rate_window),
        },
    ));
    (manager, graph)
}

/// [`stack`] on a fresh virtual clock, which the caller advances.
pub fn virtual_stack(
    rate_window: u64,
) -> (Arc<VirtualClock>, Arc<MetadataManager>, Arc<QueryGraph>) {
    let clock = VirtualClock::shared();
    let (manager, graph) = stack(clock.clone(), rate_window);
    (clock, manager, graph)
}

/// A manager with one node (`NodeId(1)`) carrying `fanout` triggered
/// dependents `dep0..` of the event `tick`, each republishing the
/// returned counter, and one subscription per dependent.
pub fn fanout_dag(fanout: usize) -> (Arc<MetadataManager>, Arc<AtomicU64>, Vec<Subscription>) {
    let manager = MetadataManager::new(VirtualClock::shared());
    let state = Arc::new(AtomicU64::new(0));
    let reg = NodeRegistry::new(NodeId(1));
    for i in 0..fanout {
        let state = state.clone();
        reg.define(
            ItemDef::triggered(format!("dep{i}"))
                .on_event("tick")
                .compute(move |_| MetadataValue::U64(state.load(Ordering::Relaxed)))
                .build(),
        );
    }
    manager.attach_node(reg);
    let subs = (0..fanout)
        .map(|i| {
            manager
                .subscribe(MetadataKey::new(NodeId(1), format!("dep{i}")))
                .expect("subscribe")
        })
        .collect();
    (manager, state, subs)
}

/// Epoch mode whose only flushes are the caller's `flush_epoch` calls
/// (the executor's time-slice driver, modelled): no batch bound, no
/// delay bound, so same-origin updates coalesce in between.
pub fn caller_flushed_epochs() -> PropagationMode {
    PropagationMode::Epoch(EpochConfig {
        max_batch: usize::MAX,
        max_delay: TimeSpan(u64::MAX),
    })
}

/// Fires `updates` `tick` events at a [`fanout_dag`], publishing
/// `1..=updates` through `state`. With `flush_every` (epoch mode) the
/// epoch is flushed after every that many updates and once at the end.
pub fn fire_ticks(
    manager: &MetadataManager,
    state: &AtomicU64,
    updates: usize,
    flush_every: Option<usize>,
) {
    let event = EventKey::new(NodeId(1), "tick");
    for i in 0..updates {
        state.store(i as u64 + 1, Ordering::Relaxed);
        manager.fire_event(event.clone());
        if flush_every.is_some_and(|n| (i + 1) % n == 0) {
            manager.flush_epoch();
        }
    }
    if flush_every.is_some() {
        manager.flush_epoch();
    }
}

/// Checks everything `trace` recorded against the trace-replay
/// invariants T1–T8 and returns the records. Panics, listing the
/// violated rules, unless the trace is clean; also panics if the ring
/// evicted a record or holds none, since a lint of part of a trace, or
/// of nothing, shows nothing.
pub fn lint_trace(trace: &RingBufferSink) -> Vec<TraceRecord> {
    assert_eq!(trace.dropped(), 0, "the trace ring evicted records");
    let records = trace.snapshot();
    assert!(!records.is_empty(), "nothing was traced");
    let violations = tracelint::lint(&records);
    assert!(
        violations.is_empty(),
        "trace-replay invariants violated:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    records
}

thread_local! {
    static ALLOCATIONS: Cell<Allocations> = const {
        Cell::new(Allocations { count: 0, bytes: 0 })
    };
}

/// What a call asked of the allocator on the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocations {
    /// Allocations and reallocations.
    pub count: u64,
    /// Bytes they requested (a reallocation counts its new size).
    pub bytes: u64,
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| {
        let Allocations {
            count,
            bytes: total,
        } = n.get();
        n.set(Allocations {
            count: count + 1,
            bytes: total + bytes as u64,
        })
    });
}

/// The system allocator, counting the allocations of each thread. A
/// binary that installs it as its `#[global_allocator]` can ask
/// [`allocations`] what a call cost; E21 needs it.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the count is a
// const-initialised thread-local without destructor, which never
// allocates (and is skipped once the thread's locals are torn down).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// What `f` asked of the allocator on the calling thread; nothing
/// unless [`CountingAlloc`] is the global allocator.
pub fn allocations(f: impl FnOnce()) -> Allocations {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    let after = ALLOCATIONS.with(Cell::get);
    Allocations {
        count: after.count - before.count,
        bytes: after.bytes - before.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_fixtures;
    use streammeta_core::TraceEvent;

    fn fixture(id: &str) -> Vec<TraceRecord> {
        let fixture = trace_fixtures::by_id(id).expect("fixture id");
        let path = trace_fixtures::fixture_dir().join(fixture.file_name());
        tracelint::parse_jsonl(&std::fs::read_to_string(path).expect("checked-in fixture"))
            .expect("parseable fixture")
    }

    fn replay(records: Vec<TraceRecord>) -> Vec<TraceRecord> {
        let trace = RingBufferSink::new(records.len());
        records.into_iter().for_each(|r| trace.record(r));
        lint_trace(&trace)
    }

    #[test]
    fn lint_trace_passes_a_clean_trace_and_returns_it() {
        let records = fixture("TR1");
        assert_eq!(replay(records.clone()), records);
    }

    #[test]
    #[should_panic(expected = "T1 [")]
    fn lint_trace_names_the_rule_a_flattened_version_breaks() {
        // The T1 mutation of `tracelint_mutations.rs`, on the fixture it
        // uses (TR1 stores each key once): one stored version flattened
        // onto its predecessor's.
        let mut records = fixture("TR3");
        let mut last: Option<(String, u64)> = None;
        for rec in &mut records {
            if let TraceEvent::ValueStored { key, version } = &mut rec.event {
                match &last {
                    Some((prev, v)) if *prev == key.to_string() => {
                        *version = *v;
                        break;
                    }
                    _ => last = Some((key.to_string(), *version)),
                }
            }
        }
        replay(records);
    }
}
