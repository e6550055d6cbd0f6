//! E21: the queryable metadata catalog at scale.
//!
//! A 10k-item metadata graph (100 nodes × 100 periodic items, every item
//! included, one deliberately slow item) is materialised through the
//! `sys.*` system relations and queried three ways:
//!
//! 1. **Snapshot cost** — wall-clock latency of `catalog_rows` (every
//!    cell of every row) for each relation, with the row counts.
//! 2. **One-shot queries** — `query_once` latency for a filtered
//!    projection and an aggregate over `sys.handlers`. Both are scans
//!    that build only the cells they read, so the run also reports how
//!    much cheaper they are than the full `sys.handlers` snapshot and
//!    asserts the floor CI gates on: `COUNT(*)`, which reads no cell,
//!    is at least 5x cheaper (a ratio within one process, so machine
//!    speed cancels).
//! 3. **Continuous alert** — `SELECT key, p99 FROM sys.handlers WHERE
//!    p99 > 1000000` installed via `install_continuous`; the run asserts
//!    the alert fires through normal observer delivery and names the
//!    slow item.
//!
//! Latencies are the best of three runs. Refresh overhead is measured
//! as wall time per periodic window in three configurations: plain (latency profiling only), trace bus
//! enabled (the `trace_overhead` baseline), and trace plus the installed
//! continuous catalog query. Results go to `$RESULTS_DIR/e21_catalog.csv`
//! (metric,value) and `$RESULTS_DIR/BENCH_e21.json`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streammeta_core::{
    ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId, NodeRegistry, RingBufferSink,
    Subscription, SystemRelation,
};
use streammeta_cql::{attach_system, install_continuous, query_once, Catalog};
use streammeta_profiler::render_relation;
use streammeta_time::{Clock, TimeSpan, VirtualClock};

const NODES: u32 = 100;
const ITEMS_PER_NODE: u32 = 100;
const PERIOD: TimeSpan = TimeSpan(10);
const WINDOWS: u32 = 10;
const ALERT_QUERY: &str = "SELECT key, p99 FROM sys.handlers WHERE p99 > 1000000";

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

/// The fastest of three runs of `f`, in µs, with the last result.
fn best_of_three<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut run = || {
        let start = Instant::now();
        let out = f();
        (start.elapsed().as_secs_f64() * 1e6, out)
    };
    let (mut best, mut out) = run();
    for _ in 0..2 {
        let (us, next) = run();
        best = best.min(us);
        out = next;
    }
    (best, out)
}

/// Wall time of `windows` periodic refresh windows, in µs per window.
fn churn(clock: &Arc<VirtualClock>, manager: &Arc<MetadataManager>, windows: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..windows {
        clock.advance(PERIOD);
        manager.periodic().advance_to(clock.now());
    }
    start.elapsed().as_micros() as f64 / windows as f64
}

fn main() {
    println!("E21 — queryable metadata catalog: sys.* relations + CQL over system state\n");
    let (clock, manager, subs) = build();
    println!(
        "graph: {} nodes x {} items = {} handlers included",
        NODES,
        ITEMS_PER_NODE,
        manager.stats().handlers
    );
    assert!(manager.stats().handlers >= (NODES * ITEMS_PER_NODE) as usize);

    // Warm-up: two windows so every periodic item has latency samples.
    churn(&clock, &manager, 2);

    let mut csv = String::from("metric,value\n");
    let mut json = Vec::<(String, String)>::new();
    let record = |csv: &mut String, json: &mut Vec<(String, String)>, k: &str, v: String| {
        let _ = writeln!(csv, "{k},{v}");
        json.push((k.to_string(), v));
    };

    // 1. Snapshot latency and row counts per relation.
    println!("\n— relation snapshots —");
    let mut handlers_snapshot_us = 0.0;
    for rel in SystemRelation::ALL {
        let (us, rows) = best_of_three(|| manager.catalog_rows(rel));
        if rel == SystemRelation::Handlers {
            handlers_snapshot_us = us;
        }
        let short = rel.name().trim_start_matches("sys.").to_string();
        println!("{:<24} {:>7} rows  {:>9.1} us", rel.name(), rows.len(), us);
        record(
            &mut csv,
            &mut json,
            &format!("rows_{short}"),
            rows.len().to_string(),
        );
        record(
            &mut csv,
            &mut json,
            &format!("snapshot_us_{short}"),
            format!("{us:.1}"),
        );
    }

    // 2. One-shot CQL over the relations.
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());
    let (query_us, res) =
        best_of_three(|| query_once(&catalog, ALERT_QUERY).expect("one-shot query"));
    println!("\n— one-shot query: slow handlers (p99 > 1ms) —");
    println!("{} matches in {query_us:.1} us", res.rows.len());
    for r in &res.rows {
        println!("  {}  p99={}", r[0], r[1]);
    }
    assert!(
        res.rows.iter().any(|r| r[0].as_text() == Some("n0/slow")),
        "slow item missing from one-shot matches"
    );
    record(
        &mut csv,
        &mut json,
        "query_once_us",
        format!("{query_us:.1}"),
    );
    record(
        &mut csv,
        &mut json,
        "query_once_matches",
        res.rows.len().to_string(),
    );

    let (agg_us, count) =
        best_of_three(|| query_once(&catalog, "SELECT COUNT(*) FROM sys.handlers").expect("count"));
    record(&mut csv, &mut json, "aggregate_us", format!("{agg_us:.1}"));
    println!(
        "aggregate COUNT(*) over sys.handlers: {} in {agg_us:.1} us",
        count.rows[0][0]
    );
    assert_eq!(
        count.rows[0][0].as_f64(),
        Some(manager.handler_count() as f64)
    );

    // What reading fewer cells buys over the full snapshot of the same
    // relation, measured in this process.
    let count_speedup = handlers_snapshot_us / agg_us;
    let alert_speedup = handlers_snapshot_us / query_us;
    println!("\n— pushdown: sys.handlers scans against its full snapshot —");
    println!("full snapshot (13 cells of every row)  {handlers_snapshot_us:>9.1} us");
    println!(
        "alert query (p99 of every row)         {query_us:>9.1} us  ({alert_speedup:.1}x cheaper)"
    );
    println!(
        "COUNT(*) (no cell)                     {agg_us:>9.1} us  ({count_speedup:.1}x cheaper)"
    );
    record(
        &mut csv,
        &mut json,
        "count_speedup_vs_snapshot",
        format!("{count_speedup:.1}"),
    );
    record(
        &mut csv,
        &mut json,
        "alert_speedup_vs_snapshot",
        format!("{alert_speedup:.1}"),
    );
    assert!(
        count_speedup >= 5.0,
        "COUNT(*) over sys.handlers took {agg_us:.1} us, the full snapshot {handlers_snapshot_us:.1} us: \
         a query that reads no cell must be at least 5x cheaper"
    );

    // 3. Refresh overhead: plain vs trace bus vs trace + continuous query.
    println!("\n— refresh overhead ({WINDOWS} windows per configuration) —");
    let plain_us = churn(&clock, &manager, WINDOWS);
    manager.set_trace_sink(Some(RingBufferSink::new(4096)));
    let trace_us = churn(&clock, &manager, WINDOWS);

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
    let catalog_us = churn(&clock, &manager, WINDOWS);
    let overhead = |with: f64| {
        if plain_us > 0.0 {
            (with - plain_us) / plain_us * 100.0
        } else {
            0.0
        }
    };
    println!("plain                {plain_us:>10.1} us/window");
    println!(
        "trace bus            {trace_us:>10.1} us/window  ({:+.1}%)",
        overhead(trace_us)
    );
    println!(
        "trace + alert query  {catalog_us:>10.1} us/window  ({:+.1}%; ROADMAP 5(a) targets <25%)",
        overhead(catalog_us)
    );
    record(
        &mut csv,
        &mut json,
        "refresh_us_plain",
        format!("{plain_us:.1}"),
    );
    record(
        &mut csv,
        &mut json,
        "refresh_us_trace",
        format!("{trace_us:.1}"),
    );
    record(
        &mut csv,
        &mut json,
        "refresh_us_catalog",
        format!("{catalog_us:.1}"),
    );
    record(
        &mut csv,
        &mut json,
        "overhead_trace_pct",
        format!("{:.2}", overhead(trace_us)),
    );
    record(
        &mut csv,
        &mut json,
        "overhead_catalog_pct",
        format!("{:.2}", overhead(catalog_us)),
    );

    // The alert fired through normal observer delivery and names the
    // slow item.
    let fires = fired.load(Ordering::SeqCst);
    let matches = alert.matches();
    println!(
        "\nalert `{}` fired {} time(s); {} row(s) matched",
        ALERT_QUERY,
        fires,
        matches.len()
    );
    assert!(fires > 0, "alert observer never fired");
    assert!(
        matches.iter().any(|r| r[0].as_text() == Some("n0/slow")),
        "slow item missing from alert matches"
    );
    record(&mut csv, &mut json, "alert_fires", fires.to_string());
    record(
        &mut csv,
        &mut json,
        "alert_matches",
        matches.len().to_string(),
    );
    drop(observer);

    // A rendered quarantine snapshot demonstrates the dashboard path
    // (empty here: no fallback policies in this graph).
    println!(
        "\n{}",
        render_relation(
            SystemRelation::Quarantine,
            &manager.catalog_rows(SystemRelation::Quarantine)
        )
    );

    drop(subs);

    let out_dir = std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let csv_path = format!("{out_dir}/e21_catalog.csv");
    let mut json_text = String::from("{\n");
    for (i, (k, v)) in json.iter().enumerate() {
        let sep = if i + 1 == json.len() { "" } else { "," };
        let _ = writeln!(json_text, "  \"{k}\": {v}{sep}");
    }
    json_text.push_str("}\n");
    let json_path = format!("{out_dir}/BENCH_e21.json");
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&csv_path, &csv))
        .and_then(|()| std::fs::write(&json_path, &json_text))
    {
        Ok(()) => println!("CSV written to {csv_path}\nJSON written to {json_path}"),
        Err(e) => println!("could not write {out_dir}/ ({e}); CSV follows:\n{csv}"),
    }
    println!("\nE21 invariants held: all relations snapshot, one-shot and continuous CQL agree on the slow item.");
}
