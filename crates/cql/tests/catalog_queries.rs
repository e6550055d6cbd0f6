//! CQL over the system catalog: one-shot relation queries, catalog
//! stream sources, continuous alert queries, and the error paths of the
//! parser/compiler that were previously only exercised on the happy
//! path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use streammeta_core::{
    ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId, NodeRegistry, CATALOG_NODE,
};
use streammeta_cql::{
    attach_system, install, install_continuous, query_once, register_system_sources, Catalog,
    CqlError,
};
use streammeta_engine::VirtualEngine;
use streammeta_graph::QueryGraph;
use streammeta_time::{Clock, TimeSpan, VirtualClock};

/// A manager with one node carrying a fast and a slow periodic item.
fn system() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    manager.set_latency_profiling(true);
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("fast", TimeSpan(5))
            .compute(|_| MetadataValue::F64(1.0))
            .build(),
    );
    reg.define(
        ItemDef::periodic("slow", TimeSpan(5))
            .compute(|_| {
                // Wall-clock latency floor so p99 (measured in real
                // nanoseconds) is deterministically large.
                std::thread::sleep(Duration::from_millis(2));
                MetadataValue::F64(2.0)
            })
            .build(),
    );
    manager.attach_node(reg);
    (clock, manager)
}

fn advance(clock: &Arc<VirtualClock>, manager: &Arc<MetadataManager>, by: u64) {
    clock.advance(TimeSpan(by));
    manager.periodic().advance_to(clock.now());
}

// ---------------------------------------------------------------------
// Catalog registration semantics (satellite: DuplicateSource)
// ---------------------------------------------------------------------

#[test]
fn register_refuses_to_overwrite() {
    let mut catalog = Catalog::new();
    catalog.register("s", NodeId(1)).unwrap();
    let err = catalog.register("s", NodeId(2)).unwrap_err();
    // The error names the survivor...
    assert!(err.to_string().contains("already registered"));
    match err {
        CqlError::DuplicateSource { name, existing } => {
            assert_eq!(name, "s");
            assert_eq!(existing, NodeId(1));
        }
        other => panic!("unexpected error {other:?}"),
    }
    // ...and the original binding is untouched.
    assert_eq!(catalog.get("s"), Some(NodeId(1)));
}

#[test]
fn register_replacing_returns_prior_binding() {
    let mut catalog = Catalog::new();
    catalog.register("s", NodeId(1)).unwrap();
    assert_eq!(catalog.register_replacing("s", NodeId(2)), Some(NodeId(1)));
    assert_eq!(catalog.get("s"), Some(NodeId(2)));
    assert_eq!(catalog.register_replacing("t", NodeId(3)), None);
}

// ---------------------------------------------------------------------
// Parser/compiler error paths (satellite: error coverage)
// ---------------------------------------------------------------------

#[test]
fn compile_reports_unknown_stream_and_column() {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let graph = Arc::new(QueryGraph::new(manager.clone()));
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager);
    register_system_sources(&graph, &mut catalog, TimeSpan(10)).unwrap();

    let unknown_stream = install(&graph, &catalog, "SELECT * FROM nope").unwrap_err();
    assert!(unknown_stream.to_string().contains("unknown stream"));

    let unknown_column = install(&graph, &catalog, "SELECT nope FROM sys.handlers").unwrap_err();
    assert!(unknown_column.to_string().contains("unknown column"));

    let bad_qualifier = install(
        &graph,
        &catalog,
        "SELECT key FROM sys.handlers AS h WHERE x.p99 > 1",
    )
    .unwrap_err();
    assert!(bad_qualifier.to_string().contains("unknown column"));
}

#[test]
fn parser_reports_malformed_predicates() {
    for bad in [
        "SELECT * FROM s WHERE",
        "SELECT * FROM s WHERE x",
        "SELECT * FROM s WHERE x <",
        "SELECT * FROM s WHERE x > *",
        "SELECT * FROM s WHERE x ! 1",
        "SELECT * FROM sys.",
    ] {
        let err = streammeta_cql::parse(bad).unwrap_err();
        assert!(
            matches!(err, CqlError::Parse(_) | CqlError::Lex(_)),
            "expected parse error for {bad}, got {err:?}"
        );
    }
}

#[test]
fn one_shot_queries_report_relation_errors() {
    let (_clock, manager) = system();
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager);

    let err = query_once(&catalog, "SELECT * FROM sys.nope").unwrap_err();
    assert!(err.to_string().contains("unknown system relation"));

    let err = query_once(&catalog, "SELECT nope FROM sys.items").unwrap_err();
    assert!(err.to_string().contains("unknown column"));

    let err = query_once(&catalog, "SELECT * FROM sys.items[RANGE 10]").unwrap_err();
    assert!(err.to_string().contains("RANGE"));

    let no_system = Catalog::new();
    let err = query_once(&no_system, "SELECT * FROM sys.items").unwrap_err();
    assert!(err.to_string().contains("attach_system"));
}

// ---------------------------------------------------------------------
// Relation column resolution + one-shot snapshots
// ---------------------------------------------------------------------

#[test]
fn one_shot_queries_resolve_relation_columns() {
    let (clock, manager) = system();
    let _fast = manager
        .subscribe(MetadataKey::new(NodeId(1), "fast"))
        .unwrap();
    advance(&clock, &manager, 10);

    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());

    // Projection with a predicate over the relation's columns.
    let res = query_once(
        &catalog,
        "SELECT key, computes FROM sys.handlers WHERE computes > 0",
    )
    .unwrap();
    assert_eq!(res.columns, vec!["key", "computes"]);
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0][0].as_text(), Some("n1/fast"));

    // Alias-qualified resolution.
    let res = query_once(
        &catalog,
        "SELECT h.item FROM sys.handlers AS h WHERE h.subscriptions > 0",
    )
    .unwrap();
    assert_eq!(res.rows[0][0].as_text(), Some("fast"));

    // Aggregates over a relation snapshot.
    let res = query_once(&catalog, "SELECT COUNT(*) FROM sys.items").unwrap();
    assert_eq!(res.rows[0][0].as_f64(), Some(1.0));

    // sys.subscriptions mirrors the refcount.
    let res = query_once(
        &catalog,
        "SELECT subscriptions FROM sys.subscriptions WHERE item = 0",
    )
    .unwrap();
    assert!(res.rows.is_empty(), "text column never equals an int");
}

#[test]
fn lineage_queries_range_over_sys_spans() {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::triggered("dep")
            .on_event("tick")
            .compute(|ctx| MetadataValue::U64(ctx.now().units()))
            .build(),
    );
    manager.attach_node(reg);
    manager.enable_catalog_spans(128);
    manager.set_span_sampling(streammeta_core::SpanSampling::Ratio(1));
    let _dep = manager
        .subscribe(MetadataKey::new(NodeId(1), "dep"))
        .unwrap();
    clock.advance(TimeSpan(1));
    manager.fire_event(streammeta_core::EventKey::new(NodeId(1), "tick"));

    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());

    let all = query_once(&catalog, "SELECT span, parent, root FROM sys.spans").unwrap();
    assert!(!all.rows.is_empty());
    // The worked lineage query: propagation hops below the root, with
    // their root id and per-hop cost.
    let hops = query_once(
        &catalog,
        "SELECT root, depth, duration FROM sys.spans WHERE depth > 0",
    )
    .unwrap();
    assert_eq!(hops.columns, vec!["root", "depth", "duration"]);
    assert!(!hops.rows.is_empty(), "the tick cascade produced no hops");
    // Every hop's root resolves to a real root span in the relation.
    let roots: Vec<u64> = query_once(&catalog, "SELECT span FROM sys.spans WHERE parent = 0")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_u64().unwrap())
        .collect();
    for hop in &hops.rows {
        assert!(roots.contains(&hop[0].as_u64().unwrap()), "dangling root");
    }
}

// ---------------------------------------------------------------------
// Relations as stream sources (tentpole: compile/install over sys.*)
// ---------------------------------------------------------------------

#[test]
fn installed_queries_range_over_system_relations() {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(1));
    reg.define(
        ItemDef::periodic("rate", TimeSpan(5))
            .compute(|_| MetadataValue::F64(1.0))
            .build(),
    );
    manager.attach_node(reg);
    let _sub = manager
        .subscribe(MetadataKey::new(NodeId(1), "rate"))
        .unwrap();

    let graph = Arc::new(QueryGraph::new(manager.clone()));
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());
    register_system_sources(&graph, &mut catalog, TimeSpan(10)).unwrap();

    // An ordinary CQL query ranging over a system relation: every
    // refresh re-snapshots sys.handlers as a batch of tuples.
    let plan = install(
        &graph,
        &catalog,
        "SELECT key FROM sys.handlers WHERE subscriptions > 0",
    )
    .unwrap();
    let mut engine = VirtualEngine::new(graph.clone(), clock.clone());
    engine.run_until(streammeta_time::Timestamp(35));
    let rows = plan.results.snapshot();
    // Snapshots at t=0,10,20,30 each contain the subscribed handler.
    let rate_rows = rows
        .iter()
        .filter(|e| e.payload[0].as_str() == Some("n1/rate"))
        .count();
    assert!(rate_rows >= 3, "got {rate_rows} matching rows");

    // An empty relation stays quiet but must not kill the source: the
    // quarantine relation has no fallback items here.
    let quarantine = install(&graph, &catalog, "SELECT * FROM sys.quarantine").unwrap();
    engine.run_until(streammeta_time::Timestamp(65));
    assert!(quarantine.results.snapshot().is_empty());
    // ...while the handlers stream kept producing after the quiet start.
    assert!(plan.results.snapshot().len() > rows.len());
}

// ---------------------------------------------------------------------
// Continuous alert queries (acceptance: p99-vs-period alert fires
// through normal observer delivery)
// ---------------------------------------------------------------------

#[test]
fn continuous_p99_alert_fires_through_observer_delivery() {
    let (clock, manager) = system();
    let _fast = manager
        .subscribe(MetadataKey::new(NodeId(1), "fast"))
        .unwrap();
    let _slow = manager
        .subscribe(MetadataKey::new(NodeId(1), "slow"))
        .unwrap();
    // A few computes so both items have latency samples.
    advance(&clock, &manager, 20);

    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());

    // The headline alert: compute latency above the item's period. The
    // period of the slow item is 5 virtual units; its p99 is ≥ 2ms of
    // real nanoseconds, so the column comparison trips.
    let alert = install_continuous(
        &catalog,
        "SELECT key FROM sys.handlers WHERE p99 > period",
        TimeSpan(10),
    )
    .unwrap();
    assert_eq!(alert.key().node, CATALOG_NODE);
    assert_eq!(alert.columns(), ["key"]);

    let fired = Arc::new(AtomicUsize::new(0));
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let observer = {
        let fired = fired.clone();
        let seen = seen.clone();
        alert
            .observe(move |v| {
                fired.fetch_add(1, Ordering::SeqCst);
                if let MetadataValue::Text(t) = &v.value {
                    seen.lock().unwrap().push(t.to_string());
                }
            })
            .unwrap()
    };

    // Drive the manager: the alert item recomputes on its own periodic
    // machinery and the observer fires through normal delivery.
    advance(&clock, &manager, 20);
    assert!(fired.load(Ordering::SeqCst) > 0, "observer never fired");
    let matches = alert.matches();
    assert!(
        matches.iter().any(|r| r[0].as_text() == Some("n1/slow")),
        "slow item missing from alert matches: {matches:?}"
    );
    let digests = seen.lock().unwrap().clone();
    assert!(
        digests.iter().any(|d| d.contains("n1/slow")),
        "delivered digests never named the slow item: {digests:?}"
    );
    drop(observer);

    // A literal threshold discriminates slow from fast: 1ms in wall
    // nanoseconds sits far above the fast item's sub-millisecond
    // computes and far below the slow item's 2ms sleep.
    let strict = install_continuous(
        &catalog,
        "SELECT key, p99 FROM sys.handlers WHERE p99 > 1000000",
        TimeSpan(10),
    )
    .unwrap();
    advance(&clock, &manager, 20);
    let matches = strict.matches();
    assert!(
        matches.iter().any(|r| r[0].as_text() == Some("n1/slow")),
        "slow item not matched: {matches:?}"
    );
    assert!(
        !matches.iter().any(|r| r[0].as_text() == Some("n1/fast")),
        "fast item wrongly matched: {matches:?}"
    );
}

#[test]
fn continuous_aggregate_publishes_the_value_directly() {
    let (clock, manager) = system();
    let _fast = manager
        .subscribe(MetadataKey::new(NodeId(1), "fast"))
        .unwrap();
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());
    let count =
        install_continuous(&catalog, "SELECT COUNT(*) FROM sys.items", TimeSpan(10)).unwrap();
    advance(&clock, &manager, 10);
    // fast + the two continuous-query items are themselves catalogued —
    // the count includes every live handler (reflexivity), so it is at
    // least the fast item plus this query's own item.
    let v = count.current().as_f64().unwrap();
    assert!(v >= 2.0, "count {v}");
}

#[test]
fn continuous_query_errors_without_system_side() {
    let catalog = Catalog::new();
    let err = install_continuous(&catalog, "SELECT * FROM sys.items", TimeSpan(10)).unwrap_err();
    assert!(err.to_string().contains("attach_system"));
    let (_clock, manager) = system();
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager);
    let err = install_continuous(&catalog, "SELECT * FROM sys.nope", TimeSpan(10)).unwrap_err();
    assert!(err.to_string().contains("unknown system relation"));
}
