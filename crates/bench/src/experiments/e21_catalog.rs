//! E21: the queryable metadata catalog at scale — a contract check.
//!
//! A 10k-item metadata graph (100 nodes × 100 periodic items, every item
//! included, one deliberately slow item) is read through the `sys.*`
//! system relations three ways, and the run asserts that they agree:
//!
//! 1. **Snapshots** — for every relation, `catalog_rows` (every cell of
//!    every row) returns rows of exactly the declared arity, and as many
//!    of them as `SELECT COUNT(*)` counts through the CQL scan path;
//!    the per-item relations have one row per included handler.
//! 2. **One-shot queries** — `SELECT key, p99 FROM sys.handlers WHERE
//!    p99 > 1000000` singles out the slow item, and `COUNT(*)` over
//!    `sys.handlers` builds no cell while the full snapshot builds every
//!    row. Counted on the calling thread: after a warm scan, a full
//!    snapshot of `sys.handlers` or `sys.items` makes at most 64
//!    allocations whatever the row count (its cells share one buffer),
//!    the count makes fewer than one per hundred rows, and the count
//!    requests at most a fifth of the bytes the snapshot requests. The
//!    counts come from [`CountingAlloc`](crate::harness::CountingAlloc),
//!    which the running binary must install as its global allocator; a
//!    probe checks that it does.
//! 3. **Continuous alert** — the same query installed via
//!    `install_continuous` fires through normal observer delivery and
//!    names the slow item.
//!
//! Only row counts and yes/no facts are printed, so the output is the
//! same on every run. The catalog's costs are benchmark metrics
//! (`control_plane` workload of `BENCHMARK.json`):
//! `core.catalog.snapshot_us_per_krow`, `cql.query_once_us_p50`,
//! `cql.continuous_refresh_us_p50`, `bench.self_time_frac.core.catalog`.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::harness::allocations;
use crate::table::Table;
use streammeta_core::{
    ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId, NodeRegistry, Subscription,
    SystemRelation,
};
use streammeta_cql::{attach_system, install_continuous, query_once, Catalog};
use streammeta_profiler::render_relation;
use streammeta_time::{Clock, TimeSpan, VirtualClock};

const NODES: u32 = 100;
const ITEMS_PER_NODE: u32 = 100;
const PERIOD: TimeSpan = TimeSpan(10);
const ALERT_QUERY: &str = "SELECT key, p99 FROM sys.handlers WHERE p99 > 1000000";
const SLOW: &str = "n0/slow";

fn build() -> (Arc<VirtualClock>, Arc<MetadataManager>, Vec<Subscription>) {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    manager.set_latency_profiling(true);
    for n in 0..NODES {
        let reg = NodeRegistry::new(NodeId(n));
        reg.define(
            ItemDef::periodic("base", PERIOD)
                .compute(move |_| MetadataValue::U64(n as u64))
                .build(),
        );
        for i in 1..ITEMS_PER_NODE {
            reg.define(
                ItemDef::periodic(format!("m{i}"), PERIOD)
                    .dep_local("base")
                    .compute(|ctx| ctx.dep("base"))
                    .build(),
            );
        }
        manager.attach_node(reg);
    }
    // One deliberately slow item: a single 2ms compute at inclusion puts
    // its p99 six orders of magnitude above the trivial computes without
    // slowing every subsequent window (its period is effectively "once").
    manager.registry(NodeId(0)).expect("node 0").define(
        ItemDef::periodic("slow", TimeSpan(1_000_000))
            .compute(|_| {
                std::thread::sleep(Duration::from_millis(2));
                MetadataValue::U64(1)
            })
            .build(),
    );
    let mut subs = Vec::with_capacity((NODES * ITEMS_PER_NODE) as usize);
    for n in 0..NODES {
        for i in 1..ITEMS_PER_NODE {
            subs.push(
                manager
                    .subscribe(MetadataKey::new(NodeId(n), format!("m{i}")))
                    .expect("subscribe"),
            );
        }
    }
    subs.push(
        manager
            .subscribe(MetadataKey::new(NodeId(0), "slow"))
            .expect("subscribe slow"),
    );
    (clock, manager, subs)
}

/// Drives `windows` periodic refresh windows.
fn churn(clock: &VirtualClock, manager: &MetadataManager, windows: u32) {
    for _ in 0..windows {
        clock.advance(PERIOD);
        manager.periodic().advance_to(clock.now());
    }
}

fn names_slow(rows: &[Vec<MetadataValue>]) -> bool {
    rows.iter().any(|r| r[0].as_text() == Some(SLOW))
}

pub fn e21(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E21 — queryable metadata catalog: sys.* relations + CQL over system state\n"
    )?;
    let (clock, manager, subs) = build();
    let handlers = manager.handler_count();
    writeln!(
        out,
        "graph: {NODES} nodes x {ITEMS_PER_NODE} items = {handlers} handlers included"
    )?;
    assert_eq!(handlers, (NODES * ITEMS_PER_NODE + 1) as usize);

    // Two windows so every periodic item has latency samples.
    churn(&clock, &manager, 2);
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());
    let count = |relation: &str| -> usize {
        let res =
            query_once(&catalog, &format!("SELECT COUNT(*) FROM {relation}")).expect("count query");
        res.rows[0][0].as_f64().expect("a count") as usize
    };

    // 1. Every relation: declared arity, and the snapshot and the CQL
    // scan see the same rows.
    writeln!(out, "\n— relation snapshots —")?;
    let mut table = Table::new(&["relation", "columns", "rows", "COUNT(*)"]);
    for rel in SystemRelation::ALL {
        let rows = manager.catalog_rows(rel);
        let arity = rel.columns().len();
        assert!(
            rows.iter().all(|r| r.len() == arity),
            "{}: a row is not {arity} cells wide",
            rel.name()
        );
        let counted = count(rel.name());
        assert_eq!(rows.len(), counted, "{}: snapshot vs COUNT(*)", rel.name());
        let expected = match rel {
            SystemRelation::Items | SystemRelation::Handlers | SystemRelation::Subscriptions => {
                handlers
            }
            // Every `m<i>` depends on its node's `base`.
            SystemRelation::Dependencies => (NODES * (ITEMS_PER_NODE - 1)) as usize,
            // No fallback policy, trace sink, span store or plane here.
            _ => 0,
        };
        assert_eq!(rows.len(), expected, "{}: row count", rel.name());
        table.row(vec![
            rel.name().to_string(),
            arity.to_string(),
            rows.len().to_string(),
            counted.to_string(),
        ]);
    }
    table.write(out)?;

    // 2. One-shot CQL: the alert query finds the slow item, and a query
    // that reads no cell builds none, where the snapshot builds them all.
    let res = query_once(&catalog, ALERT_QUERY).expect("one-shot query");
    assert!(
        names_slow(&res.rows),
        "slow item missing from one-shot matches"
    );
    writeln!(out, "\none-shot `{ALERT_QUERY}` names {SLOW}")?;
    let probe = allocations(|| {
        std::hint::black_box(Box::new(0u8));
    });
    assert_eq!(
        probe.count, 1,
        "a boxed byte counted {probe:?}: is CountingAlloc the global allocator?"
    );
    // The warm scan builds the shared handler snapshot and every key
    // text; after it, a row's cells reuse what the handler holds.
    let _warm = manager.catalog_rows(SystemRelation::Handlers);
    let [handlers_snapshot, _] = [SystemRelation::Handlers, SystemRelation::Items].map(|relation| {
        let snapshot = allocations(|| {
            std::hint::black_box(manager.catalog_rows(relation));
        });
        assert!(
            snapshot.count <= 64,
            "the {} snapshot of {handlers} rows made {} allocations: \
             a snapshot makes a fixed number, none per row",
            relation.name(),
            snapshot.count
        );
        snapshot
    });
    let counting = allocations(|| {
        std::hint::black_box(count("sys.handlers"));
    });
    assert!(
        counting.count * 100 < handlers as u64,
        "COUNT(*) over {handlers} rows of sys.handlers made {} allocations: \
         a query that reads no cell must build none",
        counting.count
    );
    assert!(
        counting.bytes * 5 <= handlers_snapshot.bytes,
        "COUNT(*) over sys.handlers requested {} bytes, its full snapshot {}",
        counting.bytes,
        handlers_snapshot.bytes
    );
    writeln!(
        out,
        "COUNT(*) over sys.handlers is at least 5x cheaper than its full snapshot"
    )?;

    // 3. The continuous alert fires through normal observer delivery
    // and names the slow item.
    let alert = install_continuous(&catalog, ALERT_QUERY, PERIOD).expect("install alert");
    let fired = Arc::new(AtomicU64::new(0));
    let observer = {
        let fired = fired.clone();
        alert
            .observe(move |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            })
            .expect("observe")
    };
    churn(&clock, &manager, 10);
    assert!(
        fired.load(Ordering::SeqCst) > 0,
        "alert observer never fired"
    );
    assert!(
        names_slow(&alert.matches()),
        "slow item missing from alert matches"
    );
    writeln!(
        out,
        "continuous alert fired through its observer and names {SLOW}"
    )?;
    drop(observer);

    // A rendered quarantine snapshot demonstrates the dashboard path
    // (empty here: no fallback policies in this graph).
    writeln!(
        out,
        "\n{}",
        render_relation(
            SystemRelation::Quarantine,
            &manager.catalog_rows(SystemRelation::Quarantine)
        )
    )?;
    drop(subs);
    writeln!(
        out,
        "E21 invariants held: every relation has its declared arity and the row count CQL \
         counts, one-shot and continuous CQL agree on the slow item, COUNT(*) >= 5x cheaper."
    )
}
