//! Property tests of the execution layer: queue conservation, FIFO
//! ordering, scheduler soundness, and executor determinism.

use proptest::prelude::*;
use streammeta_core::NodeId;
use streammeta_engine::{FifoScheduler, QueueSet, RoundRobinScheduler, Scheduler, VirtualEngine};
use streammeta_graph::{FilterPredicate, MetadataConfig, QueryGraph};
use streammeta_streams::{tuple, Element, PoissonArrivals, TupleGen, Value};
use streammeta_time::{TimeSpan, Timestamp, VirtualClock};

fn elem(v: i64) -> Element {
    Element::new(tuple([Value::Int(v)]), Timestamp(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Elements are conserved: everything pushed is popped exactly once
    /// under any scheduler, and byte totals return to zero.
    #[test]
    fn queues_conserve_elements(
        pushes in proptest::collection::vec((0u32..6, 0i64..100), 0..100),
        round_robin in prop::bool::ANY,
    ) {
        let mut qs = QueueSet::new();
        for &(node, v) in &pushes {
            qs.push((NodeId(node), 0), elem(v));
        }
        prop_assert_eq!(qs.total_elements(), pushes.len());
        let mut scheduler: Box<dyn Scheduler> = if round_robin {
            Box::new(RoundRobinScheduler::default())
        } else {
            Box::new(FifoScheduler)
        };
        let mut popped = Vec::new();
        while let Some(queue) = scheduler.next(&qs) {
            let item = qs.pop_at(queue).expect("scheduler picked non-empty");
            popped.push(item.element.payload[0].as_int().unwrap());
            prop_assert!(qs.arrival_log_len() <= 2 * qs.total_elements() + 64);
        }
        prop_assert_eq!(popped.len(), pushes.len());
        prop_assert_eq!(qs.total_elements(), 0);
        prop_assert_eq!(qs.total_bytes(), 0);
        let mut expect: Vec<i64> = pushes.iter().map(|(_, v)| *v).collect();
        expect.sort_unstable();
        popped.sort_unstable();
        prop_assert_eq!(popped, expect);
    }

    /// The arrival log agrees with a naive scan after any push/pop mix,
    /// stays within its length bound, and the queues stay in key order.
    /// With `pinned`, one element sits at the head of the log for the
    /// whole run, so every other pop leaves a stale entry behind it and
    /// only compaction can keep the bound.
    #[test]
    fn fifo_front_index_matches_naive_scan(
        ops in proptest::collection::vec((0u32..6, prop::bool::ANY), 1..400),
        pinned in prop::bool::ANY,
    ) {
        let mut qs = QueueSet::new();
        if pinned {
            qs.push((NodeId(3), 1), elem(-1));
        }
        for (i, &(node, push)) in ops.iter().enumerate() {
            let key = (NodeId(node), 0);
            if push {
                qs.push(key, elem(i as i64));
            } else {
                let _ = qs.pop(key);
            }
            // The naive scan goes by key, so it checks the index API too.
            for k in qs.keys() {
                prop_assert_eq!(qs.index_of(k).map(|i| qs.key(i)), Some(k));
            }
            let naive = qs
                .keys()
                .filter(|&k| qs.len(k) > 0)
                .min_by_key(|&k| qs.index_of(k).and_then(|i| qs.front_seq(i)));
            prop_assert_eq!(qs.oldest().map(|i| qs.key(i)), naive);
            prop_assert!(qs.arrival_log_len() <= 2 * qs.total_elements() + 64);
            let non_empty: Vec<_> = qs.non_empty().map(|i| qs.key(i)).collect();
            prop_assert!(non_empty.windows(2).all(|w| w[0] < w[1]), "{:?}", non_empty);
            let by_key: Vec<_> = qs.keys().filter(|&k| qs.len(k) > 0).collect();
            prop_assert_eq!(non_empty, by_key);
        }
    }

    /// FIFO pops in global arrival order.
    #[test]
    fn fifo_pops_in_arrival_order(
        pushes in proptest::collection::vec(0u32..6, 1..100),
    ) {
        let mut qs = QueueSet::new();
        for (i, &node) in pushes.iter().enumerate() {
            qs.push((NodeId(node), 0), elem(i as i64));
        }
        let mut scheduler = FifoScheduler;
        let mut last = -1i64;
        while let Some(queue) = scheduler.next(&qs) {
            let v = qs.pop_at(queue).unwrap().element.payload[0].as_int().unwrap();
            prop_assert!(v > last, "out of order: {v} after {last}");
            last = v;
        }
    }

    /// The virtual engine is bit-for-bit deterministic: two runs with the
    /// same seeds produce identical outputs and stats.
    #[test]
    fn engine_runs_are_deterministic(
        seed in 0u64..1000,
        mean in 1.0f64..10.0,
        horizon in 100u64..600,
    ) {
        let run = || {
            let clock = VirtualClock::shared();
            let manager = streammeta_core::MetadataManager::new(clock.clone());
            let graph = std::sync::Arc::new(QueryGraph::with_config(
                manager,
                MetadataConfig { rate_window: TimeSpan(50) },
            ));
            let src = graph.source(
                "s",
                Box::new(PoissonArrivals::new(Timestamp(0), mean, TupleGen::Sequence, seed)),
            );
            let f = graph.filter(
                "f",
                src,
                FilterPredicate::Prob(streammeta_graph::SelectivityHandle::new(0.5)),
                seed + 1,
            );
            let (_k, out) = graph.sink_collect("k", f);
            let mut engine = VirtualEngine::new(graph, clock);
            engine.run_until(Timestamp(horizon));
            let sig: Vec<(u64, i64)> = out
                .snapshot()
                .iter()
                .map(|e| (e.timestamp.units(), e.payload[0].as_int().unwrap()))
                .collect();
            (sig, engine.stats())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }
}
