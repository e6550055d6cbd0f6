//! Integration tests of the query graph: wiring, element flow, per-node
//! metadata, module metadata, window resizing events, subquery sharing and
//! runtime query removal.

use std::sync::Arc;

use streammeta_core::{MetadataKey, MetadataManager, MetadataValue, NodeId};
use streammeta_graph::{
    AggKind, FilterPredicate, JoinPredicate, MetadataConfig, NodeKind, NodeSlot, QueryGraph,
    SelectivityHandle, StateImpl,
};
use streammeta_streams::{tuple, ConstantRate, Element, TupleGen, Value};
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock};

fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>, QueryGraph) {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let graph = QueryGraph::with_config(
        manager.clone(),
        MetadataConfig {
            rate_window: TimeSpan(10),
        },
    );
    (clock, manager, graph)
}

/// The live node `id`.
fn slot(graph: &QueryGraph, id: NodeId) -> Arc<NodeSlot> {
    graph.get(id).expect("live node")
}

/// Pushes an element through the graph starting at `node`, following all
/// downstream edges (depth-first, fine for trees).
fn push(graph: &QueryGraph, node: NodeId, port: usize, e: &Element, now: Timestamp) {
    let node = slot(graph, node);
    let mut out = Vec::new();
    node.process(port, e, now, &mut out);
    for produced in out {
        for (down, dport) in node.downstream() {
            push(graph, down, dport, &produced, now);
        }
    }
}

fn int_elem(v: i64, ts: u64) -> Element {
    Element::new(tuple([Value::Int(v)]), Timestamp(ts))
}

#[test]
fn wiring_and_topology_queries() {
    let (_c, _m, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let (win, _h) = g.time_window("w", src, TimeSpan(50));
    let (sink, _out) = g.sink_collect("sink", win);
    assert_eq!(g.len(), 3);
    assert_eq!(g.kind(src), NodeKind::Source);
    assert_eq!(g.kind(win), NodeKind::Operator);
    assert_eq!(g.kind(sink), NodeKind::Sink);
    assert_eq!(slot(&g, src).downstream(), vec![(win, 0)]);
    assert_eq!(g.upstream(win), vec![src]);
    assert_eq!(g.name(sink), "sink");
}

#[test]
fn source_pull_respects_virtual_time() {
    let (_c, _m, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    assert_eq!(g.next_source_arrival(src), Some(Timestamp(10)));
    let mut out = Vec::new();
    slot(&g, src).pull_source(Timestamp(35), &mut out);
    assert_eq!(out.len(), 3); // t=10,20,30
    assert_eq!(g.next_source_arrival(src), Some(Timestamp(40)));
    out.clear();
    slot(&g, src).pull_source(Timestamp(35), &mut out);
    assert!(out.is_empty(), "nothing new before t=40");
}

#[test]
fn elements_flow_through_window_join_to_sink() {
    let (_c, _m, g) = setup();
    let s1 = g.source(
        "s1",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let s2 = g.source(
        "s2",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            2,
        )),
    );
    let (w1, _h1) = g.time_window("w1", s1, TimeSpan(100));
    let (w2, _h2) = g.time_window("w2", s2, TimeSpan(100));
    let join = g.join(
        "join",
        w1,
        w2,
        JoinPredicate::EqAttr { left: 0, right: 0 },
        StateImpl::Hash,
    );
    let (_sink, out) = g.sink_collect("sink", join);
    // Drive both sources by hand through the topology.
    for ts in [10u64, 20, 30] {
        for (src, win) in [(s1, w1), (s2, w2)] {
            let mut pulled = Vec::new();
            slot(&g, src).pull_source(Timestamp(ts), &mut pulled);
            for e in &pulled {
                push(&g, win, 0, e, Timestamp(ts));
            }
        }
    }
    // Same sequence numbers arrive at the same instants: seq 0,1,2 match.
    assert_eq!(out.len(), 3);
    let m = g.monitors(join);
    assert_eq!(slot(&g, w1).downstream(), vec![(join, 0)]);
    assert_eq!(slot(&g, w2).downstream(), vec![(join, 1)]);
    // Join results carry concatenated payloads.
    assert_eq!(out.snapshot()[0].payload.len(), 2);
    drop(m);
}

#[test]
fn filter_selectivity_is_measured() {
    let (clock, mgr, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(1),
            TupleGen::Sequence,
            1,
        )),
    );
    let sel = SelectivityHandle::new(1.0);
    let f = g.filter("f", src, FilterPredicate::AttrLt { col: 0, bound: 5 }, 0);
    let _sink = g.sink_discard("d", f);
    let sub = mgr.subscribe(MetadataKey::new(f, "selectivity")).unwrap();
    // 10 elements, seq 0..9, five pass (< 5).
    for ts in 1..=10u64 {
        let mut pulled = Vec::new();
        slot(&g, src).pull_source(Timestamp(ts), &mut pulled);
        for e in &pulled {
            push(&g, f, 0, e, Timestamp(ts));
        }
    }
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(sub.get_f64(), Some(0.5));
    drop(sel);
}

#[test]
fn join_module_metadata_is_reachable_and_memory_usage_is_overridden() {
    let (_c, mgr, g) = setup();
    let s1 = g.source(
        "s1",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let s2 = g.source(
        "s2",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            2,
        )),
    );
    let (w1, _) = g.time_window("w1", s1, TimeSpan(100));
    let (w2, _) = g.time_window("w2", s2, TimeSpan(100));
    let j = g.join(
        "j",
        w1,
        w2,
        JoinPredicate::EqAttr { left: 0, right: 0 },
        StateImpl::List,
    );
    // Module discovery: state.* items exist.
    let items = mgr.available_items(j).unwrap();
    let names: Vec<String> = items.iter().map(|p| p.as_str().to_owned()).collect();
    for expect in [
        "state.left.impl",
        "state.left.size",
        "state.left.memory_usage",
        "state.right.impl",
        "state.right.size",
        "state.right.memory_usage",
        "predicate_cost",
        "selectivity",
    ] {
        assert!(names.iter().any(|n| n == expect), "missing {expect}");
    }
    // Subscribing to memory_usage pulls in the module items (inter-module
    // dependency of Section 4.5).
    let mem = mgr.subscribe(MetadataKey::new(j, "memory_usage")).unwrap();
    assert!(mgr.is_included(&MetadataKey::new(j, "state.left.memory_usage")));
    assert_eq!(mem.get(), MetadataValue::U64(0));
    // Feed one element into each side (via the windows).
    push(&g, w1, 0, &int_elem(1, 10), Timestamp(10));
    push(&g, w2, 0, &int_elem(1, 11), Timestamp(11));
    let total = mem.get().as_u64().unwrap();
    assert!(total > 0);
    let left = mgr
        .read(&MetadataKey::new(j, "state.left.memory_usage"))
        .unwrap()
        .as_u64()
        .unwrap();
    let right = mgr
        .read(&MetadataKey::new(j, "state.right.memory_usage"))
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(total, left + right);
    let impl_item = mgr
        .subscribe(MetadataKey::new(j, "state.left.impl"))
        .unwrap();
    assert_eq!(impl_item.get(), MetadataValue::text("list"));
}

#[test]
fn window_resize_fires_event_for_dependents() {
    let (_c, mgr, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let (win, handle) = g.time_window("w", src, TimeSpan(100));
    // A consumer defines a triggered item over window_size elsewhere; here
    // we simply verify the built-in item plus event.
    let ws = mgr.subscribe(MetadataKey::new(win, "window_size")).unwrap();
    assert_eq!(ws.get(), MetadataValue::Span(TimeSpan(100)));
    g.resize_window(win, &handle, TimeSpan(40));
    assert_eq!(ws.get(), MetadataValue::Span(TimeSpan(40)));
    // New elements get the new validity.
    let mut out = Vec::new();
    slot(&g, win).process(0, &int_elem(1, 200), Timestamp(200), &mut out);
    assert_eq!(out[0].expiry, Timestamp(240));
}

#[test]
fn aggregate_over_window() {
    let (_c, _m, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let (win, _) = g.time_window("w", src, TimeSpan(25));
    let agg = g.aggregate("cnt", win, AggKind::Count, 0);
    let (_sink, out) = g.sink_collect("sink", agg);
    for ts in [10u64, 20, 30, 40] {
        push(&g, win, 0, &int_elem(ts as i64, ts), Timestamp(ts));
    }
    let counts: Vec<f64> = out
        .snapshot()
        .iter()
        .map(|e| e.payload[0].as_float().unwrap())
        .collect();
    // Window 25: at t=30 the t=10 element is still valid (expiry 35);
    // at t=40 elements from t=10 (35) expired, t=20 (45), t=30 (55) valid.
    assert_eq!(counts, vec![1.0, 2.0, 3.0, 3.0]);
}

#[test]
fn subquery_sharing_keeps_shared_prefix_on_removal() {
    let (_c, mgr, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let f = g.filter("f", src, FilterPredicate::AttrLt { col: 0, bound: 100 }, 0);
    // Two queries share the filtered prefix.
    let (sink1, _h1) = g.sink_collect("q1", f);
    let agg = g.aggregate("agg", f, AggKind::Count, 0);
    let (sink2, _h2) = g.sink_collect("q2", agg);
    assert_eq!(g.len(), 5);
    // Removing query 2 removes its sink and aggregate, keeps src+f.
    let removed = g.remove_query(sink2);
    assert_eq!(removed, {
        let mut v = vec![agg, sink2];
        v.sort();
        v
    });
    assert_eq!(g.len(), 3);
    assert!(mgr.registry(agg).is_none(), "registry detached");
    assert!(mgr.registry(f).is_some());
    // Removing query 1 now removes everything.
    let removed = g.remove_query(sink1);
    assert_eq!(removed.len(), 3);
    assert!(g.is_empty());
}

#[test]
fn qos_metadata_at_sinks() {
    let (_c, mgr, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let (sink, _h) = g.sink_collect("sink", src);
    g.set_sink_qos(sink, 7, TimeSpan(500));
    let p = mgr
        .subscribe(MetadataKey::new(sink, "qos.priority"))
        .unwrap();
    let l = mgr
        .subscribe(MetadataKey::new(sink, "qos.max_latency"))
        .unwrap();
    assert_eq!(p.get(), MetadataValue::U64(7));
    assert_eq!(l.get(), MetadataValue::Span(TimeSpan(500)));
}

#[test]
fn per_port_rates_distinguish_join_inputs() {
    let (clock, mgr, g) = setup();
    let s1 = g.source(
        "s1",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let s2 = g.source(
        "s2",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            2,
        )),
    );
    let (w1, _) = g.time_window("w1", s1, TimeSpan(100));
    let (w2, _) = g.time_window("w2", s2, TimeSpan(100));
    let j = g.join(
        "j",
        w1,
        w2,
        JoinPredicate::EqAttr { left: 0, right: 0 },
        StateImpl::Hash,
    );
    let left_rate = mgr.subscribe(MetadataKey::new(j, "input_rate.0")).unwrap();
    let right_rate = mgr.subscribe(MetadataKey::new(j, "input_rate.1")).unwrap();
    // 10 elements to the left port, 5 to the right, over 10 time units.
    for i in 0..10u64 {
        push(&g, j, 0, &int_elem(i as i64, i + 1), Timestamp(i + 1));
        if i % 2 == 0 {
            push(&g, j, 1, &int_elem(-1, i + 1), Timestamp(i + 1));
        }
    }
    clock.advance(TimeSpan(10));
    mgr.periodic().advance_to(clock.now());
    assert_eq!(left_rate.get_f64(), Some(1.0));
    assert_eq!(right_rate.get_f64(), Some(0.5));
}

#[test]
fn reuse_count_tracks_subquery_sharing() {
    let (_c, mgr, g) = setup();
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let reuse = mgr.subscribe(MetadataKey::new(src, "reuse_count")).unwrap();
    assert_eq!(reuse.get(), MetadataValue::U64(0));
    let (sink1, _h1) = g.sink_collect("q1", src);
    assert_eq!(reuse.get(), MetadataValue::U64(1));
    let _sink2 = g.sink_discard("q2", src);
    assert_eq!(reuse.get(), MetadataValue::U64(2));
    g.remove_query(sink1);
    assert_eq!(reuse.get(), MetadataValue::U64(1));
}

#[test]
fn join_state_swap_preserves_results_and_module_metadata() {
    let (_c, mgr, g) = setup();
    let s1 = g.source(
        "s1",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let s2 = g.source(
        "s2",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            2,
        )),
    );
    let (w1, _) = g.time_window("w1", s1, TimeSpan(1000));
    let (w2, _) = g.time_window("w2", s2, TimeSpan(1000));
    let j = g.join(
        "j",
        w1,
        w2,
        JoinPredicate::EqAttr { left: 0, right: 0 },
        StateImpl::List,
    );
    let (_sink, out) = g.sink_collect("k", j);
    let impl_item = mgr
        .subscribe(MetadataKey::new(j, "state.left.impl"))
        .unwrap();
    let size_item = mgr
        .subscribe(MetadataKey::new(j, "state.left.size"))
        .unwrap();
    assert_eq!(impl_item.get(), MetadataValue::text("list"));

    // Fill both sides with keys 0..5, no matches yet across sides at
    // distinct keys except equal seq numbers.
    for i in 0..5i64 {
        push(
            &g,
            w1,
            0,
            &int_elem(i, 10 + i as u64),
            Timestamp(10 + i as u64),
        );
        push(
            &g,
            w2,
            0,
            &int_elem(i + 100, 10 + i as u64),
            Timestamp(10 + i as u64),
        );
    }
    assert_eq!(size_item.get(), MetadataValue::U64(5));
    let before = out.len();

    // Swap to hash at runtime: stored elements migrate.
    assert!(g.swap_join_state(j, StateImpl::Hash));
    assert_eq!(impl_item.get(), MetadataValue::text("hash"));
    assert_eq!(size_item.get(), MetadataValue::U64(5), "state migrated");

    // Joins against the migrated state still work: a right element with
    // key 3 matches the left element stored before the swap.
    push(&g, w2, 0, &int_elem(3, 20), Timestamp(20));
    assert_eq!(out.len(), before + 1);

    // Non-join nodes refuse the swap.
    assert!(!g.swap_join_state(w1, StateImpl::List));
}

#[test]
fn count_window_validity_follows_the_measured_rate() {
    let (clock, mgr, g) = setup(); // rate window 10
    let src = g.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(2),
            TupleGen::Sequence,
            1,
        )),
    );
    // Last ~20 elements; at rate 0.5/unit that is a 40-unit validity.
    let cw = g.count_window("cw", src, 20, TimeSpan(1000));
    let (_sink, out) = g.sink_collect("k", cw);
    // The operator's own subscription keeps the rate item alive.
    assert!(mgr.is_included(&MetadataKey::new(cw, "input_rate")));

    // Before any measurement the fallback validity applies.
    push(&g, cw, 0, &int_elem(0, 2), Timestamp(2));
    assert_eq!(out.snapshot()[0].validity(), Some(TimeSpan(1000)));

    // Feed at rate 0.5 for a few metadata windows.
    let mut ts = 2;
    for _ in 0..20 {
        ts += 2;
        push(&g, cw, 0, &int_elem(0, ts), Timestamp(ts));
        clock.set(Timestamp(ts));
        mgr.periodic().advance_to(clock.now());
    }
    let last = out.snapshot().pop().unwrap();
    // validity = 20 / 0.5 = 40.
    assert_eq!(last.validity(), Some(TimeSpan(40)));
}

#[test]
fn union_and_project_compose() {
    let (_c, _m, g) = setup();
    let s1 = g.source(
        "s1",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            1,
        )),
    );
    let s2 = g.source(
        "s2",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(10),
            TupleGen::Sequence,
            2,
        )),
    );
    let u = g.union("u", &[s1, s2]);
    let p = g.project("p", u, vec![0]);
    let (_sink, out) = g.sink_collect("sink", p);
    push(&g, u, 0, &int_elem(1, 5), Timestamp(5));
    push(&g, u, 1, &int_elem(2, 6), Timestamp(6));
    assert_eq!(out.len(), 2);
    assert_eq!(g.output_schema(p).arity(), 1);
}
