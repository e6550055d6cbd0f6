//! End-to-end engine tests: deterministic virtual-time execution, the
//! metadata-driven Chain scheduler, load shedding within a byte budget,
//! and the multi-threaded executor.

use std::sync::Arc;

use streammeta_core::{MetadataKey, MetadataManager};
use streammeta_engine::{
    ChainScheduler, FifoScheduler, LoadShedder, RoundRobinScheduler, VirtualEngine,
};
use streammeta_graph::{
    FilterPredicate, JoinPredicate, MetadataConfig, QueryGraph, SelectivityHandle, StateImpl,
};
use streammeta_streams::{ConstantRate, TupleGen};
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock, WallClock};

fn setup(rate_window: u64) -> (Arc<VirtualClock>, Arc<MetadataManager>, Arc<QueryGraph>) {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let graph = Arc::new(QueryGraph::with_config(
        manager.clone(),
        MetadataConfig {
            rate_window: TimeSpan(rate_window),
        },
    ));
    (clock, manager, graph)
}

#[test]
fn engine_runs_a_join_query_end_to_end() {
    let (clock, mgr, graph) = setup(50);
    let s1 = graph.source(
        "s1",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let s2 = graph.source(
        "s2",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            2,
        )),
    );
    let (w1, _) = graph.time_window("w1", s1, TimeSpan(100));
    let (w2, _) = graph.time_window("w2", s2, TimeSpan(100));
    let join = graph.join(
        "join",
        w1,
        w2,
        JoinPredicate::EqAttr { left: 0, right: 0 },
        StateImpl::Hash,
    );
    let (_sink, out) = graph.sink_collect("sink", join);
    let rate = mgr
        .subscribe(MetadataKey::new(join, "output_rate"))
        .unwrap();

    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    engine.run_until(Timestamp(1000));

    // Both sources emit seq 0..99 at matching instants: every pair joins.
    assert_eq!(out.len(), 100);
    // Output rate 0.1 joins per unit once windows warmed up.
    assert_eq!(rate.get_f64(), Some(0.1));
    let stats = engine.stats();
    assert_eq!(stats.source_elements, 200);
    assert!(stats.processed >= 400, "windows + join + sink processed");
    assert_eq!(clock.now(), Timestamp(1000));
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (clock, _mgr, graph) = setup(25);
        let src = graph.source(
            "s",
            Box::new(ConstantRate::new(
                Timestamp(0),
                TimeSpan(3),
                TupleGen::UniformInt {
                    lo: 0,
                    hi: 9,
                    cols: 1,
                },
                7,
            )),
        );
        let f = graph.filter("f", src, FilterPredicate::AttrLt { col: 0, bound: 5 }, 13);
        let (_sink, out) = graph.sink_collect("sink", f);
        let mut engine = VirtualEngine::new(graph, clock);
        engine.run_until(Timestamp(500));
        out.snapshot()
            .iter()
            .map(|e| (e.timestamp.units(), e.payload[0].as_int().unwrap()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn bursts_build_queues_and_chain_beats_fifo_on_avg_memory() {
    // Two parallel filter chains fed by bursty sources; one filter
    // destroys 90% of tuples, the other passes 90%. During bursts the
    // processing budget is insufficient and backlog forms; Chain serves
    // sinks and the destructive filter first, which drains total queue
    // mass faster, so the *time-averaged* queue occupancy is lower than
    // under FIFO (the memory-minimisation claim of Babcock et al.).
    let run = |chain: bool| {
        let (clock, mgr, graph) = setup(50);
        let mk_chain = |tag: &str, sel: f64, seed: u64| {
            let src = graph.source(
                &format!("src-{tag}"),
                Box::new(streammeta_streams::Bursty::new(
                    Timestamp(0),
                    TimeSpan(50),  // high phase: 1 element/unit
                    TimeSpan(150), // silent low phase
                    TimeSpan(1),
                    None,
                    TupleGen::Sequence,
                    seed,
                )),
            );
            let handle = SelectivityHandle::new(sel);
            let f = graph.filter(
                &format!("f-{tag}"),
                src,
                FilterPredicate::Prob(handle.clone()),
                seed + 100,
            );
            let sink = graph.sink_discard(&format!("sink-{tag}"), f);
            (src, f, sink, handle)
        };
        let (_s1, f1, _k1, _h1) = mk_chain("destructive", 0.1, 1);
        let (_s2, f2, _k2, _h2) = mk_chain("permissive", 0.9, 2);
        // Keep selectivity metadata live so the Chain scheduler sees it.
        let _sel1 = mgr.subscribe(MetadataKey::new(f1, "selectivity")).unwrap();
        let _sel2 = mgr.subscribe(MetadataKey::new(f2, "selectivity")).unwrap();
        let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
        if chain {
            engine.set_scheduler(Box::new(ChainScheduler::new(&graph)));
        } else {
            engine.set_scheduler(Box::new(FifoScheduler));
        }
        // Warm-up at full speed so selectivities get measured.
        engine.run_until(Timestamp(400));
        engine.set_ops_per_tick(Some(2));
        engine.run_until(Timestamp(4400));
        (
            engine.stats().avg_queue_elements(),
            engine.queues().total_elements(),
        )
    };
    let (fifo_avg, fifo_left) = run(false);
    let (chain_avg, chain_left) = run(true);
    // Both drain between bursts (no unbounded growth).
    assert!(fifo_left < 50, "fifo leftover {fifo_left}");
    assert!(chain_left < 50, "chain leftover {chain_left}");
    assert!(
        chain_avg < fifo_avg,
        "chain avg {chain_avg} should be below fifo avg {fifo_avg}"
    );
}

#[test]
fn round_robin_serves_all_queues() {
    let (clock, _mgr, graph) = setup(50);
    for i in 0..3u64 {
        let src = graph.source(
            &format!("s{i}"),
            Box::new(ConstantRate::new(
                Timestamp(0),
                TimeSpan(2),
                TupleGen::Sequence,
                i,
            )),
        );
        graph.sink_discard(&format!("k{i}"), src);
    }
    let mut engine = VirtualEngine::new(graph, clock);
    engine.set_scheduler(Box::new(RoundRobinScheduler::default()));
    engine.run_until(Timestamp(100));
    assert_eq!(engine.stats().processed, engine.stats().source_elements);
    assert!(engine.queues().is_empty());
}

#[test]
fn load_shedder_keeps_usage_bounded() {
    let (clock, mgr, graph) = setup(50);
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(1),
            TupleGen::Sequence,
            1,
        )),
    );
    let (w, _) = graph.time_window("w", src, TimeSpan(500));
    // Self-join over a long window: state grows quadratically without
    // shedding.
    let join = graph.join("j", w, w, JoinPredicate::True, StateImpl::List);
    let _sink = graph.sink_discard("k", join);
    let budget = 4_000;
    let mut shedder = LoadShedder::new(budget, 99);
    shedder.watch_memory(&mgr, &[join]).unwrap();
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    engine.set_shedder(shedder);
    engine.run_until(Timestamp(2000));
    let shedder = engine.shedder().unwrap();
    let (admitted, dropped) = shedder.counts();
    assert!(dropped > 0, "overload must shed");
    assert!(admitted > 0, "but not everything");
    // Usage stays in the budget's neighbourhood (allow controller slack).
    let used = shedder.measured_bytes(engine.queues());
    assert!(used < budget * 3, "used {used} bytes vs budget {budget}");
}

#[test]
fn without_shedder_usage_exceeds_budget() {
    let (clock, _mgr, graph) = setup(50);
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(1),
            TupleGen::Sequence,
            1,
        )),
    );
    let (w, _) = graph.time_window("w", src, TimeSpan(500));
    let join = graph.join("j", w, w, JoinPredicate::True, StateImpl::List);
    let _sink = graph.sink_discard("k", join);
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    engine.run_until(Timestamp(2000));
    let m = graph.monitors(join);
    m.state_bytes.activate();
    // Reprocess one more tick so the gauge refreshes under activation.
    engine.run_until(Timestamp(2010));
    assert!(
        m.state_bytes.value() as usize > 4_000,
        "unshedded state stays large: {}",
        m.state_bytes.value()
    );
}

#[test]
fn qos_scheduler_prefers_high_priority_queries() {
    use streammeta_engine::QosScheduler;
    // Two identical queries; one sink declares priority 10, the other 1.
    // Under a processing budget, the high-priority query's results arrive
    // with much lower latency.
    let run = |qos: bool| {
        let (clock, mgr, graph) = setup(100);
        let mut sinks = Vec::new();
        for (tag, prio, seed) in [("hi", 10u64, 1u64), ("lo", 1, 2)] {
            let src = graph.source(
                &format!("src-{tag}"),
                Box::new(ConstantRate::new(
                    Timestamp(0),
                    TimeSpan(1),
                    TupleGen::Sequence,
                    seed,
                )),
            );
            let (sink, _h) = graph.sink_collect(&format!("sink-{tag}"), src);
            graph.set_sink_qos(sink, prio, TimeSpan(100));
            sinks.push(sink);
        }
        let latencies: Vec<_> = sinks
            .iter()
            .map(|s| mgr.subscribe(MetadataKey::new(*s, "avg_latency")).unwrap())
            .collect();
        let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
        if qos {
            engine.set_scheduler(Box::new(QosScheduler::new(graph.clone())));
        }
        // One op per tick against two arrivals per tick: hard overload,
        // queues grow and scheduling policy decides who waits.
        engine.set_ops_per_tick(Some(1));
        engine.run_until(Timestamp(3000));
        (
            latencies[0].get_f64().unwrap_or(f64::NAN),
            latencies[1].get_f64().unwrap_or(f64::NAN),
        )
    };
    let (fifo_hi, fifo_lo) = run(false);
    let (qos_hi, qos_lo) = run(true);
    // FIFO treats both alike; QoS keeps the high-priority query fast at
    // the expense of the low-priority one.
    assert!(
        (fifo_hi - fifo_lo).abs() < fifo_hi.max(fifo_lo) * 0.5,
        "fifo roughly fair: {fifo_hi} vs {fifo_lo}"
    );
    assert!(
        qos_hi < fifo_hi / 5.0,
        "qos high-priority latency {qos_hi} << fifo {fifo_hi}"
    );
    // The low-priority query waits far longer — or starves outright
    // (NaN: no results delivered in the last window).
    assert!(
        qos_lo.is_nan() || qos_lo > qos_hi * 10.0,
        "low priority starves: {qos_lo}"
    );
}

/// A query installed later that shares an operator raises that
/// operator's priority: the cache follows the graph's generation.
#[test]
fn qos_priority_follows_a_query_installed_later() {
    use streammeta_engine::QosScheduler;
    let (_clock, _mgr, graph) = setup(100);
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(1),
            TupleGen::Sequence,
            1,
        )),
    );
    let f = graph.filter("f", src, FilterPredicate::AttrLt { col: 0, bound: 5 }, 1);
    let (low, _) = graph.sink_count("low", f);
    graph.set_sink_qos(low, 1, TimeSpan(100));
    let mut qos = QosScheduler::new(graph.clone());
    assert_eq!(qos.priority(f), 1);

    let (high, _) = graph.sink_count("high", f);
    graph.set_sink_qos(high, 10, TimeSpan(100));
    assert_eq!(qos.priority(f), 10, "the new sink's priority is seen");
}

#[test]
fn subscription_churn_keeps_stats_consistent() {
    // Many threads subscribing to and dropping dependency-bearing items
    // concurrently: the manager's cumulative counters only ever grow, the
    // per-item subscription counts match what churn is live, and once the
    // last subscription drops every handler is excluded again.
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
            TimeSpan(100),
            TupleGen::Sequence,
            1,
        )),
    );
    let f = graph.filter(
        "f",
        src,
        FilterPredicate::AttrLt {
            col: 0,
            bound: i64::MAX,
        },
        1,
    );
    let _sink = graph.sink_discard("k", f);

    const THREADS: usize = 4;
    const ITERS: usize = 200;
    let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let manager = manager.clone();
            let done = done.clone();
            s.spawn(move || {
                // Alternate between two items with different dependency
                // fan-in so include/exclude cascades interleave.
                let paths = ["input_rate", "selectivity", "output_rate"];
                for i in 0..ITERS {
                    let key = MetadataKey::new(f, paths[(t + i) % paths.len()]);
                    let sub = manager.subscribe(key).unwrap();
                    let _ = sub.get();
                    drop(sub);
                }
                done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        // Meanwhile the main thread checks that the cumulative counters
        // are monotone under concurrent churn.
        let mut last = manager.stats();
        while done.load(std::sync::atomic::Ordering::SeqCst) < THREADS {
            let now = manager.stats();
            assert!(now.computes >= last.computes, "computes");
            assert!(now.accesses >= last.accesses, "accesses");
            assert!(now.updates >= last.updates, "updates");
            assert!(now.propagations >= last.propagations, "propagations");
            last = now;
            std::thread::yield_now();
        }
    });

    let stats = manager.stats();
    // All churn subscriptions were dropped, so the live sum is zero and
    // every access was counted.
    assert_eq!(stats.subscriptions, 0);
    assert!(stats.accesses >= (THREADS * ITERS) as u64);
    assert_eq!(stats.compute_failures, 0);
    // Every subscription was dropped: the whole cascade is excluded.
    assert_eq!(stats.handlers, 0);
    assert_eq!(manager.handler_count(), 0);
    for path in ["input_rate", "selectivity", "output_rate"] {
        assert!(
            manager.handler_stats(&MetadataKey::new(f, path)).is_none(),
            "{path} handler should be gone"
        );
    }
}

#[test]
fn threaded_executor_processes_concurrently_with_metadata_access() {
    let clock: Arc<dyn Clock> = WallClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let graph = Arc::new(QueryGraph::with_config(
        manager.clone(),
        MetadataConfig {
            rate_window: TimeSpan(20_000), // 20ms windows in wall time
        },
    ));
    // Wall time: one element every 100us.
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(100),
            TupleGen::Sequence,
            1,
        )),
    );
    let f = graph.filter(
        "f",
        src,
        FilterPredicate::AttrLt {
            col: 0,
            bound: i64::MAX,
        },
        1,
    );
    let (_sink, out) = graph.sink_collect("k", f);
    let pool = streammeta_time::WorkerPool::start(manager.periodic().clone(), clock.clone(), 1);
    let rate = manager
        .subscribe(MetadataKey::new(f, "input_rate"))
        .unwrap();

    // Readers hammer the metadata while the engine runs.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stats = std::thread::scope(|s| {
        for _ in 0..2 {
            let rate = rate.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let _ = rate.get();
                }
            });
        }
        let stats = streammeta_engine::run_threaded(
            &graph,
            &clock,
            std::time::Duration::from_millis(300),
            4,
        );
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        stats
    });
    pool.shutdown();
    assert!(stats.source_elements > 100, "sources ran: {stats:?}");
    assert_eq!(
        stats.processed,
        stats.source_elements * 2,
        "filter + sink each processed every element"
    );
    assert_eq!(out.len() as u64, stats.source_elements);
}

/// A private source feeding a counting sink: two nodes.
fn counted_source(
    graph: &QueryGraph,
    name: &str,
    seed: u64,
) -> (streammeta_core::NodeId, streammeta_graph::CountHandle) {
    let src = graph.source(
        name,
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(1),
            TupleGen::Sequence,
            seed,
        )),
    );
    graph.sink_count(&format!("{name}-sink"), src)
}

/// Removing a query down to its private source and installing one of
/// equal node count leaves the graph's size where it was; the engine must
/// still notice that its sources changed.
#[test]
fn replaced_source_of_equal_node_count_is_pulled() {
    let (clock, _mgr, graph) = setup(50);
    let (old_sink, old_count) = counted_source(&graph, "old", 1);
    let mut engine = VirtualEngine::new(graph.clone(), clock);
    engine.run_for(TimeSpan(10));
    assert_eq!(old_count.get(), 10);

    let nodes = graph.len();
    assert_eq!(graph.remove_query(old_sink).len(), 2, "sink and source");
    let (_new_sink, new_count) = counted_source(&graph, "new", 2);
    assert_eq!(graph.len(), nodes, "same node count, different nodes");

    engine.run_for(TimeSpan(10));
    assert_eq!(old_count.get(), 10, "the removed query stopped");
    assert!(new_count.get() > 0, "the new source is pulled");
}

/// Elements still queued for a node when its query is removed are
/// discarded with it, the totals follow, and the surviving query's
/// results are those of a run that never had the removed one.
#[test]
fn queued_elements_of_a_removed_query_are_discarded() {
    use streammeta_streams::{tuple, Element, Replay, Schema, Value, ValueType};

    let run = |with_victim: bool| {
        let (clock, _mgr, graph) = setup(50);
        let schema = Schema::of(&[("v", ValueType::Int)]);
        let elements = (1..=20)
            .map(|t| Element::new(tuple([Value::Int(t as i64)]), Timestamp(t)))
            .collect();
        let src = graph.source("s", Box::new(Replay::new(schema, elements)));
        let keep = graph.filter("keep", src, FilterPredicate::AttrGt { col: 0, bound: 5 }, 1);
        let (_kept_sink, kept) = graph.sink_collect("kept", keep);
        let victim = with_victim.then(|| {
            let f = graph.filter(
                "victim",
                src,
                FilterPredicate::AttrGt { col: 0, bound: 0 },
                2,
            );
            graph.sink_count("victim-sink", f).0
        });

        let mut engine = VirtualEngine::new(graph.clone(), clock);
        // One operator invocation per tick against up to two arrivals:
        // queues build up in front of both queries.
        engine.set_ops_per_tick(Some(1));
        engine.run_for(TimeSpan(10));
        if let Some(victim_sink) = victim {
            assert!(engine.queues().total_elements() > 2);
            assert_eq!(graph.remove_query(victim_sink).len(), 2, "sink and filter");
            engine.tick_once();
            let queues = engine.queues();
            let recount: usize = queues.keys().map(|k| queues.len(k)).sum();
            assert_eq!(queues.total_elements(), recount);
            assert!(
                queues.keys().all(|(node, _)| graph.get(node).is_some()),
                "only queues of live consumers are left"
            );
        }
        engine.set_ops_per_tick(None);
        engine.run_for(TimeSpan(20));
        assert_eq!(engine.queues().total_elements(), 0);
        assert_eq!(
            engine.queues().total_bytes(),
            0,
            "bytes followed the discard"
        );
        kept.snapshot()
            .iter()
            .map(|e| e.payload[0].as_int().unwrap())
            .collect::<Vec<_>>()
    };
    let survivors = run(true);
    assert_eq!(survivors, (6..=20).collect::<Vec<_>>());
    assert_eq!(survivors, run(false));
}

/// The execution plan is compiled once per topology change, not per
/// install and not per tick.
#[test]
fn plan_is_compiled_once_per_topology_change() {
    let (clock, _mgr, graph) = setup(50);
    let sinks: Vec<_> = (0..48)
        .map(|i| counted_source(&graph, &format!("q{i}"), i).0)
        .collect();
    let mut engine = VirtualEngine::new(graph.clone(), clock);
    assert_eq!(engine.stats().plan_builds, 0);
    engine.run_for(TimeSpan(10));
    assert_eq!(engine.stats().plan_builds, 1, "48 installs, one build");

    graph.remove_query(sinks[0]);
    graph.remove_query(sinks[1]);
    counted_source(&graph, "late", 99);
    engine.run_for(TimeSpan(10));
    assert_eq!(engine.stats().plan_builds, 2, "one build per changed tick");
    assert_eq!(graph.remove_query(sinks[0]), vec![], "already gone");
    engine.run_for(TimeSpan(10));
    assert_eq!(
        engine.stats().plan_builds,
        2,
        "a no-op removal changes nothing"
    );
}
