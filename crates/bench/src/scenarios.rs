//! Reusable experiment scenarios.

use std::sync::Arc;

use streammeta_core::{MetadataManager, NodeId};
use streammeta_costmodel::install_cost_model;
use streammeta_graph::{
    FilterPredicate, JoinPredicate, QueryGraph, SelectivityHandle, StateImpl, WindowHandle,
};
use streammeta_streams::{ConstantRate, TupleGen};
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock, WallClock};

use crate::harness::{stack, virtual_stack};

/// The Figure 3 query: two sources, two time windows, a sliding-window
/// join and a sink, with the cost model installed.
pub struct JoinScenario {
    /// Virtual clock driving the scenario.
    pub clock: Arc<VirtualClock>,
    /// The metadata manager.
    pub manager: Arc<MetadataManager>,
    /// The query graph.
    pub graph: Arc<QueryGraph>,
    /// Left and right sources.
    pub sources: (NodeId, NodeId),
    /// Left and right window operators.
    pub windows: (NodeId, NodeId),
    /// Window size handles.
    pub handles: (WindowHandle, WindowHandle),
    /// The join.
    pub join: NodeId,
    /// The sink.
    pub sink: NodeId,
}

/// Builds the Figure 3 query with constant-rate inputs.
pub fn join_scenario(interarrival: u64, window: u64, rate_window: u64) -> JoinScenario {
    let (clock, manager, graph) = virtual_stack(rate_window);
    let s1 = graph.source(
        "s1",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(interarrival),
            TupleGen::Sequence,
            1,
        )),
    );
    let s2 = graph.source(
        "s2",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(interarrival),
            TupleGen::Sequence,
            2,
        )),
    );
    let (w1, h1) = graph.time_window("w1", s1, TimeSpan(window));
    let (w2, h2) = graph.time_window("w2", s2, TimeSpan(window));
    let join = graph.join("join", w1, w2, JoinPredicate::True, StateImpl::List);
    let sink = graph.sink_discard("sink", join);
    install_cost_model(&graph);
    JoinScenario {
        clock,
        manager,
        graph,
        sources: (s1, s2),
        windows: (w1, w2),
        handles: (h1, h2),
        join,
        sink,
    }
}

/// `n` independent `source -> filter -> sink` queries on one graph —
/// the workload for the scalability experiments (the paper's headline
/// claim: maintaining all metadata does not scale with the number of
/// queries; on-demand provision does).
pub struct ParallelScenario {
    /// Virtual clock driving the scenario.
    pub clock: Arc<VirtualClock>,
    /// The metadata manager.
    pub manager: Arc<MetadataManager>,
    /// The query graph.
    pub graph: Arc<QueryGraph>,
    /// The filter of each query.
    pub filters: Vec<NodeId>,
    /// The selectivity handle of each filter.
    pub selectivities: Vec<SelectivityHandle>,
    /// The sink of each query.
    pub sinks: Vec<NodeId>,
}

/// Builds `queries` parallel filter queries, each fed one element every
/// `interarrival` time units.
pub fn parallel_queries(queries: usize, interarrival: u64, rate_window: u64) -> ParallelScenario {
    let (clock, manager, graph) = virtual_stack(rate_window);
    let mut filters = Vec::with_capacity(queries);
    let mut selectivities = Vec::with_capacity(queries);
    let mut sinks = Vec::with_capacity(queries);
    for q in 0..queries {
        let src = graph.source(
            &format!("src{q}"),
            Box::new(ConstantRate::new(
                Timestamp(0),
                TimeSpan(interarrival),
                TupleGen::Sequence,
                q as u64,
            )),
        );
        let handle = SelectivityHandle::new(0.5);
        let f = graph.filter(
            &format!("f{q}"),
            src,
            FilterPredicate::Prob(handle.clone()),
            1_000 + q as u64,
        );
        let sink = graph.sink_discard(&format!("k{q}"), f);
        filters.push(f);
        selectivities.push(handle);
        sinks.push(sink);
    }
    ParallelScenario {
        clock,
        manager,
        graph,
        filters,
        selectivities,
        sinks,
    }
}

/// The wall-clock query of the threaded-executor experiments (E11, E18,
/// E20): one element every 20µs through a pass-everything filter into a
/// discarding sink, 10ms periodic windows. Returns the filter's node.
pub fn wall_filter_query() -> (
    Arc<dyn Clock>,
    Arc<MetadataManager>,
    Arc<QueryGraph>,
    NodeId,
) {
    let clock: Arc<dyn Clock> = WallClock::shared();
    let (manager, graph) = stack(clock.clone(), 10_000);
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(20),
            TupleGen::Sequence,
            1,
        )),
    );
    let filter = graph.filter(
        "f",
        src,
        FilterPredicate::AttrLt {
            col: 0,
            bound: i64::MAX,
        },
        1,
    );
    graph.sink_discard("k", filter);
    (clock, manager, graph, filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_core::MetadataKey;
    use streammeta_engine::VirtualEngine;

    #[test]
    fn join_scenario_builds_and_runs() {
        let s = join_scenario(10, 100, 100);
        assert_eq!(s.graph.len(), 6);
        let cpu = s
            .manager
            .subscribe(MetadataKey::new(
                s.join,
                streammeta_costmodel::ESTIMATED_CPU_USAGE,
            ))
            .unwrap();
        let mut engine = VirtualEngine::new(s.graph.clone(), s.clock.clone());
        engine.run_until(streammeta_time::Timestamp(500));
        assert!(cpu.get_f64().is_some());
    }

    #[test]
    fn parallel_scenario_scales_node_count() {
        let s = parallel_queries(10, 5, 50);
        assert_eq!(s.graph.len(), 30);
        assert_eq!(s.filters.len(), 10);
    }
}
