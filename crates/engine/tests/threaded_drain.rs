//! Shutdown-drain regression tests for the threaded executor.
//!
//! Shutdown is the feeder dropping the work channel's only sender at its
//! deadline. Workers keep taking items until the channel is empty and
//! disconnected, and each item runs to completion — through every node
//! downstream of it — before its worker takes the next, so no element is
//! left between two workers when the last one exits.
//!
//! The fan-out test drives a deep topology (every element visits 11
//! nodes) through repeated short runs — shutdown happens while the tree
//! is saturated — and asserts exact element conservation at the moment
//! `run_threaded` returns. The epoch test checks that an update pending
//! at shutdown is swept before `run_threaded` returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use streammeta_core::{
    EpochConfig, EventKey, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId,
    NodeRegistry, PropagationMode,
};
use streammeta_graph::{FilterPredicate, MetadataConfig, QueryGraph};
use streammeta_streams::{ConstantRate, TupleGen};
use streammeta_time::{Clock, TimeSpan, Timestamp, WallClock};

/// src -> a -> {b, c}, b -> {d, e}, c -> {f, g}, each leaf -> sink:
/// one source element is processed by 1 + 2 + 4 + 4 = 11 nodes.
const NODES_PER_ELEMENT: u64 = 11;

fn pass_all(
    graph: &Arc<QueryGraph>,
    name: &str,
    input: streammeta_core::NodeId,
) -> streammeta_core::NodeId {
    graph.filter(
        name,
        input,
        FilterPredicate::AttrLt {
            col: 0,
            bound: i64::MAX,
        },
        1,
    )
}

/// A partial epoch pending at shutdown is flushed before `run_threaded`
/// returns: with both flush bounds set unreachably high, only the
/// executor's shutdown drain can sweep the queued update.
#[test]
fn shutdown_drains_a_partial_epoch() {
    let clock: Arc<dyn Clock> = WallClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let graph = Arc::new(QueryGraph::with_config(
        manager.clone(),
        MetadataConfig {
            rate_window: TimeSpan(10_000),
        },
    ));
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(50),
            TupleGen::Sequence,
            1,
        )),
    );
    graph.sink_count("k", src);

    let meta_node = NodeId(9_000);
    let reg = NodeRegistry::new(meta_node);
    let state = Arc::new(AtomicU64::new(0));
    {
        let state = state.clone();
        reg.define(
            ItemDef::triggered("dep")
                .on_event("tick")
                .compute(move |_| MetadataValue::U64(state.load(Ordering::SeqCst)))
                .build(),
        );
    }
    manager.attach_node(reg);
    let sub = manager
        .subscribe(MetadataKey::new(meta_node, "dep"))
        .unwrap();
    manager.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: usize::MAX,
        max_delay: TimeSpan(u64::MAX),
    }));

    state.store(42, Ordering::SeqCst);
    manager.fire_event(EventKey::new(meta_node, "tick"));
    assert_eq!(manager.pending_update_count(), 1);
    assert_eq!(sub.get().as_u64(), Some(0), "nothing can flush mid-run");

    streammeta_engine::run_threaded(&graph, &clock, Duration::from_millis(30), 2);

    assert_eq!(manager.pending_update_count(), 0, "drained at shutdown");
    assert_eq!(sub.get().as_u64(), Some(42));
    assert_eq!(manager.stats().epochs, 1);
}

#[test]
fn shutdown_drains_deep_fanout_without_losing_elements() {
    // Repeated short runs: each shutdown lands while elements are still
    // in flight somewhere in the four-level tree.
    for round in 0..3 {
        let clock: Arc<dyn Clock> = WallClock::shared();
        let manager = MetadataManager::new(clock.clone());
        let graph = Arc::new(QueryGraph::with_config(
            manager.clone(),
            MetadataConfig {
                rate_window: TimeSpan(10_000),
            },
        ));
        // Wall time: one element every 50us.
        let src = graph.source(
            "s",
            Box::new(ConstantRate::new(
                Timestamp(0),
                TimeSpan(50),
                TupleGen::Sequence,
                1,
            )),
        );
        let a = pass_all(&graph, "a", src);
        let b = pass_all(&graph, "b", a);
        let c = pass_all(&graph, "c", a);
        let leaves = [
            pass_all(&graph, "d", b),
            pass_all(&graph, "e", b),
            pass_all(&graph, "f", c),
            pass_all(&graph, "g", c),
        ];
        let counts: Vec<_> = leaves
            .iter()
            .enumerate()
            .map(|(i, &leaf)| graph.sink_count(&format!("k{i}"), leaf).1)
            .collect();

        let stats = streammeta_engine::run_threaded(&graph, &clock, Duration::from_millis(120), 4);

        assert!(
            stats.source_elements > 50,
            "round {round}: sources ran: {stats:?}"
        );
        // Conservation at return time: every released element reached
        // every node of the tree before the workers exited.
        assert_eq!(
            stats.processed,
            stats.source_elements * NODES_PER_ELEMENT,
            "round {round}: in-flight elements were abandoned at shutdown: {stats:?}"
        );
        for (i, count) in counts.iter().enumerate() {
            assert_eq!(
                count.get(),
                stats.source_elements,
                "round {round}: sink {i} missed elements"
            );
        }
    }
}
