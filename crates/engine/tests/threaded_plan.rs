//! The threaded executor runs the compiled plan: it follows topology
//! changes made while it runs, bounds its backlog by back-pressuring the
//! feeder, and computes what the virtual engine computes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use streammeta_core::{MetadataKey, MetadataManager, NodeId};
use streammeta_engine::{
    run_threaded, run_threaded_with, EngineProbes, VirtualEngine, ENGINE_NODE,
    WORK_CHANNEL_CAPACITY,
};
use streammeta_graph::{CountHandle, FilterPredicate, MetadataConfig, NodeBehavior, QueryGraph};
use streammeta_streams::{
    tuple, ConstantRate, Element, Replay, Schema, TupleGen, Value, ValueType,
};
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock, WallClock};

fn graph_on(clock: Arc<dyn Clock>) -> Arc<QueryGraph> {
    Arc::new(QueryGraph::with_config(
        MetadataManager::new(clock),
        MetadataConfig {
            rate_window: TimeSpan(10_000),
        },
    ))
}

/// A private source (one element every 100us of wall time) feeding a
/// counting sink; returns the source, the sink and the sink's count.
fn counted_query(graph: &QueryGraph, name: &str, seed: u64) -> (NodeId, NodeId, CountHandle) {
    let src = graph.source(
        name,
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(100),
            TupleGen::Sequence,
            seed,
        )),
    );
    let (sink, count) = graph.sink_count(&format!("{name}-sink"), src);
    (src, sink, count)
}

#[test]
fn a_query_installed_mid_run_gets_elements() {
    let clock: Arc<dyn Clock> = WallClock::shared();
    let graph = graph_on(clock.clone());
    let (_, _, first) = counted_query(&graph, "a", 1);
    let late = std::thread::scope(|s| {
        let run = s.spawn(|| run_threaded(&graph, &clock, Duration::from_millis(150), 2));
        std::thread::sleep(Duration::from_millis(40));
        let (_, _, late) = counted_query(&graph, "b", 2);
        run.join().expect("threaded run");
        late
    });
    assert!(first.get() > 0, "the first query ran");
    assert!(late.get() > 0, "the query installed mid-run got no element");
}

#[test]
fn a_query_removed_mid_run_leaves_the_survivor_exact() {
    let clock: Arc<dyn Clock> = WallClock::shared();
    let graph = graph_on(clock.clone());
    let (survivor_src, _, survivor) = counted_query(&graph, "keep", 1);
    let (_, victim_sink, _) = counted_query(&graph, "drop", 2);
    let released = graph.monitors(survivor_src).output.clone();
    released.activate();

    // A plain thread, not a scoped one: a run that hangs must fail this
    // test at the deadline below instead of hanging the suite.
    let run = {
        let (graph, clock) = (graph.clone(), clock.clone());
        std::thread::spawn(move || run_threaded(&graph, &clock, Duration::from_millis(150), 2))
    };
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(graph.remove_query(victim_sink).len(), 2, "sink and source");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !run.is_finished() {
        assert!(
            Instant::now() < deadline,
            "run_threaded hung after a removal"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    run.join().expect("run_threaded panicked after a removal");

    assert!(released.value() > 0, "the survivor ran");
    assert_eq!(survivor.get(), released.value(), "survivor lost elements");
}

/// `n` elements `(v, v % 7)`, all due at time 0.
fn due_at_start(n: i64) -> Replay {
    let elements = (0..n)
        .map(|v| Element::new(tuple([Value::Int(v), Value::Int(v % 7)]), Timestamp(0)))
        .collect();
    Replay::new(
        Schema::of(&[("v", ValueType::Int), ("m", ValueType::Int)]),
        elements,
    )
}

/// Passes every element on after spinning for `cost`.
struct Slow {
    cost: Duration,
    schema: Schema,
}

impl NodeBehavior for Slow {
    fn process(&mut self, _: usize, element: &Element, _: Timestamp, out: &mut Vec<Element>) {
        let start = Instant::now();
        while start.elapsed() < self.cost {
            std::hint::spin_loop();
        }
        out.push(element.clone());
    }

    fn output_schema(&self) -> Schema {
        self.schema.clone()
    }

    fn implementation(&self) -> &'static str {
        "slow"
    }
}

#[test]
fn a_slow_consumer_back_pressures_the_feeder_within_the_bound() {
    const ELEMENTS: u64 = 3 * WORK_CHANNEL_CAPACITY as u64;
    let clock: Arc<dyn Clock> = WallClock::shared();
    let graph = graph_on(clock.clone());
    let manager = graph.manager().clone();
    let probes = EngineProbes::new();
    probes.install(&manager, TimeSpan(50_000));
    let _backlog = manager
        .subscribe(MetadataKey::new(ENGINE_NODE, "engine.queue_elements"))
        .expect("probe item");
    let src = graph.source("s", Box::new(due_at_start(ELEMENTS as i64)));
    let schema = graph.output_schema(src);
    let slow = graph.operator(
        "slow",
        Box::new(Slow {
            cost: Duration::from_micros(20),
            schema,
        }),
        &[src],
    );
    let (_, count) = graph.sink_count("k", slow);

    let (stats, peak) = std::thread::scope(|s| {
        let run = s.spawn(|| {
            run_threaded_with(&graph, &clock, Duration::from_millis(20), 1, Some(&probes))
        });
        let mut peak = 0f64;
        while !run.is_finished() {
            peak = peak.max(probes.queue_elements.value());
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = run.join().expect("threaded run");
        (stats, peak.max(probes.queue_elements.value()))
    });

    assert!(
        peak <= WORK_CHANNEL_CAPACITY as f64,
        "backlog {peak} above the bound"
    );
    assert!(
        peak >= (WORK_CHANNEL_CAPACITY / 2) as f64,
        "the feeder was never held back: peak backlog {peak}"
    );
    assert_eq!(stats.source_elements, ELEMENTS);
    assert_eq!(stats.processed, 2 * ELEMENTS, "operator and sink each");
    assert_eq!(count.get(), ELEMENTS);
}

/// src -> {f1 -> {project -> sink, sink}, f2 -> sink}: stateless, so
/// only the order of arrivals may differ between executors.
fn fan_out_query(graph: &QueryGraph) -> Vec<streammeta_graph::CollectHandle> {
    let src = graph.source("s", Box::new(due_at_start(2_000)));
    let f1 = graph.filter(
        "f1",
        src,
        FilterPredicate::AttrLt {
            col: 0,
            bound: 1_500,
        },
        1,
    );
    let f2 = graph.filter("f2", src, FilterPredicate::AttrGt { col: 1, bound: 2 }, 2);
    let p = graph.project("p", f1, vec![1]);
    vec![
        graph.sink_collect("k-p", p).1,
        graph.sink_collect("k-f1", f1).1,
        graph.sink_collect("k-f2", f2).1,
    ]
}

/// Each sink's payloads, sorted: the multiset it received.
fn multisets(sinks: &[streammeta_graph::CollectHandle]) -> Vec<Vec<Vec<i64>>> {
    sinks
        .iter()
        .map(|sink| {
            let mut rows: Vec<Vec<i64>> = sink
                .snapshot()
                .iter()
                .map(|e| e.payload.iter().map(|v| v.as_int().unwrap()).collect())
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

#[test]
fn threaded_results_equal_the_virtual_engines() {
    let clock = VirtualClock::shared();
    let graph = graph_on(clock.clone());
    let sinks = fan_out_query(&graph);
    VirtualEngine::new(graph, clock).run_for(TimeSpan(5));
    let expected = multisets(&sinks);
    assert_eq!(expected[0].len(), 1_500);

    for workers in [1, 2, 4] {
        let clock: Arc<dyn Clock> = WallClock::shared();
        let graph = graph_on(clock.clone());
        let sinks = fan_out_query(&graph);
        run_threaded(&graph, &clock, Duration::from_millis(20), workers);
        assert_eq!(multisets(&sinks), expected, "{workers} workers");
    }
}
