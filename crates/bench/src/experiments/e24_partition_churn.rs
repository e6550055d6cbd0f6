//! E24: partitioned-plane churn — the cross-partition contract.
//!
//! The workload shards 8k metadata item definitions over 8 in-process
//! partitions behind the plane's consistent-hash router and opens 800
//! cross-partition subscriptions: each one a `mirror` item on
//! one partition whose `dep_remote` target lives on another, resolved
//! through the plane's proxy items and remote-subscription protocol.
//!
//! Phases, each ending in the assert it exists for:
//!  1. *Include churn*: open every cross-partition subscription — one
//!     proxy link per subscription.
//!  2. *Propagation*: rounds of owner-side updates, pumped across the
//!     partition channels — every updated mirror serves its owner's
//!     current value.
//!  3. *Partition kill/revive*: every proxy homed on a live partition
//!     whose owner died must serve **fresh-or-degraded** — its last
//!     good value marked degraded, never unavailable, never silently
//!     stale — and recover after `revive` re-seeds the links.
//!  4. *Exclude churn*: drop subscriptions — each exclusion releases
//!     its link, none is left after teardown.
//!  5. *Traced determinism*: a small 8-partition run with every update
//!     span-sampled writes per-partition traces, merges them with
//!     `tracelint::merge_traces` into the trace ring, which must be
//!     T1–T8 clean, proxy version monotonicity across the partition
//!     boundary included.
//!
//! The hash ring is deterministic, so every printed count is the same on
//! every run. Latencies and rates of the plane are benchmark metrics
//! (`control_plane` workload of `BENCHMARK.json`): `core.include_us_*`,
//! `core.exclude_us_*`, `core.partition.*`, `ops_per_s`. The workload
//! is sized for a debug build; the contracts hold at any size.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_analyze::tracelint;
use streammeta_core::{
    EventKey, ItemDef, MetadataKey, MetadataValue, NodeId, NodeRegistry, PartitionedMetadataPlane,
    RingBufferSink, SpanSampling, Subscription,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

const PARTITIONS: usize = 8;
/// First node id of the dependent (mirror-hosting) nodes.
const DEP_BASE: u32 = 2_000_000;

struct Workload {
    src_nodes: usize,
    items_per_node: usize,
    subs: usize,
    rounds: usize,
    fires_per_round: usize,
}

/// The churned workload.
const WORKLOAD: Workload = Workload {
    src_nodes: 100,
    items_per_node: 80,
    subs: 800,
    rounds: 40,
    fires_per_round: 32,
};

impl Workload {
    fn total_items(&self) -> usize {
        self.src_nodes * self.items_per_node
    }
}

/// One open cross-partition subscription: the dependent's mirror handle
/// plus the routing facts the phases assert against.
struct Link {
    sub: Subscription,
    src_node: usize,
    src_key: MetadataKey,
    home: usize,
    owner: usize,
}

/// Builds the sharded topology: `src_nodes` source nodes, each defining
/// `items_per_node` triggered items republishing the node's counter on
/// its `bump` event.
fn build_sources(plane: &PartitionedMetadataPlane, w: &Workload) -> Vec<Arc<AtomicU64>> {
    let mut counters = Vec::with_capacity(w.src_nodes);
    for n in 0..w.src_nodes {
        let state = Arc::new(AtomicU64::new(0));
        let reg = NodeRegistry::new(NodeId(n as u32));
        for i in 0..w.items_per_node {
            let s = state.clone();
            reg.define(
                ItemDef::triggered(format!("m{i}"))
                    .on_event("bump")
                    .compute(move |_| MetadataValue::U64(s.load(Ordering::Relaxed)))
                    .build(),
            );
        }
        plane.attach_node(reg);
        counters.push(state);
    }
    counters
}

/// Picks the j-th cross-partition pair: a source item (spread over the
/// whole keyspace with a coprime stride) and a dependent node id whose
/// owner partition differs from the source's.
fn pair(plane: &PartitionedMetadataPlane, w: &Workload, j: usize) -> (usize, MetadataKey, u32) {
    let idx = (j * 9973) % w.total_items();
    let src_node = idx / w.items_per_node;
    let src_key = MetadataKey::new(
        NodeId(src_node as u32),
        format!("m{}", idx % w.items_per_node),
    );
    let owner = plane.owner_of(src_key.node);
    let mut dep = DEP_BASE + j as u32;
    while plane.owner_of(NodeId(dep)) == owner {
        dep += w.subs as u32;
    }
    (src_node, src_key, dep)
}

/// Opens the j-th cross-partition subscription: defines the dependent's
/// `mirror` of its remote source and subscribes to it on the dependent's
/// home partition. `observed` attaches a no-op observer, so every mirror
/// store emits a span-bearing notification (exercises T8 across
/// partitions).
fn open_link(plane: &PartitionedMetadataPlane, w: &Workload, j: usize, observed: bool) -> Link {
    let (src_node, src_key, dep) = pair(plane, w, j);
    let reg = NodeRegistry::new(NodeId(dep));
    reg.define(
        ItemDef::triggered("mirror")
            .dep_remote("r", src_key.clone())
            .compute(|ctx| ctx.dep("r"))
            .build(),
    );
    plane.attach_node(reg);
    let home = plane.owner_of(NodeId(dep));
    let mirror = MetadataKey::new(NodeId(dep), "mirror");
    let sub = if observed {
        plane.partition(home).subscribe_with(mirror, |_| {})
    } else {
        plane.partition(home).subscribe(mirror)
    };
    Link {
        sub: sub.expect("cross-partition subscribe"),
        src_node,
        owner: plane.owner_of(src_key.node),
        src_key,
        home,
    }
}

/// The traced deterministic phase: a small 8-partition plane with every
/// update span-sampled. Per-partition ring sinks are merged with
/// `merge_traces` into `trace`, which must lint T1–T8 clean (version
/// monotonicity, span causality and lineage across the partition
/// boundary).
fn traced_phase(trace: &RingBufferSink) {
    let clock = VirtualClock::shared();
    let plane = PartitionedMetadataPlane::new(clock.clone(), PARTITIONS);
    let w = Workload {
        src_nodes: 16,
        items_per_node: 1,
        subs: 16,
        rounds: 6,
        fires_per_round: 16,
    };
    let sinks: Vec<Arc<RingBufferSink>> = plane
        .partitions()
        .iter()
        .map(|m| {
            let sink = RingBufferSink::new(1 << 16);
            m.set_span_sampling(SpanSampling::Ratio(1));
            m.set_trace_sink(Some(sink.clone()));
            sink
        })
        .collect();
    let counters = build_sources(&plane, &w);
    let links: Vec<Link> = (0..w.subs)
        .map(|j| open_link(&plane, &w, j, true))
        .collect();
    // Deterministic rounds: owner-side stores at t, pumped at t+1, so
    // a child span's record always follows its cross-partition parent
    // in merged (timestamp) order.
    for r in 1..=w.rounds as u64 {
        for (n, c) in counters.iter().enumerate() {
            c.store(r, Ordering::Relaxed);
            plane.fire_event(EventKey::new(NodeId(n as u32), "bump"));
        }
        clock.advance(TimeSpan(1));
        plane.tick(clock.now());
        clock.advance(TimeSpan(1));
    }
    // Kill/revive one owner partition mid-trace: degradation, retries
    // and recovery must all replay as legal T3/T4/T5 sequences.
    let killed = links[0].owner;
    plane.kill_partition(killed);
    clock.advance(TimeSpan(10));
    plane.tick(clock.now());
    plane.revive_partition(killed);
    clock.advance(TimeSpan(10));
    plane.tick(clock.now());
    drop(links);

    let per_partition: Vec<_> = sinks.iter().map(|s| s.snapshot()).collect();
    for record in tracelint::merge_traces(&per_partition) {
        trace.record(record);
    }
}

/// Runs E24, recording the merged trace of its traced phase into
/// `trace`.
pub fn e24(out: &mut dyn Write, trace: &Arc<RingBufferSink>) -> io::Result<()> {
    let w = WORKLOAD;
    writeln!(
        out,
        "E24 — partitioned-plane churn over {PARTITIONS} partitions"
    )?;
    writeln!(
        out,
        "{} items, {} cross-partition subscriptions, {} propagation rounds\n",
        w.total_items(),
        w.subs,
        w.rounds,
    )?;

    let plane = PartitionedMetadataPlane::new(VirtualClock::shared(), PARTITIONS);
    let counters = build_sources(&plane, &w);

    // Phase 1 — include churn.
    let mut links: Vec<Link> = (0..w.subs)
        .map(|j| open_link(&plane, &w, j, false))
        .collect();
    assert_eq!(plane.remote_link_count(), w.subs, "one proxy link per sub");
    writeln!(
        out,
        "include churn: {} subscriptions, {} links",
        w.subs, w.subs
    )?;

    // Phase 2 — propagation rounds.
    let mut node_value = vec![0u64; w.src_nodes];
    let mut applied_total = 0usize;
    let mut fired_total = 0usize;
    for r in 0..w.rounds {
        for f in 0..w.fires_per_round {
            let n = (r * w.fires_per_round + f) % w.src_nodes;
            let v = node_value[n] + 1;
            node_value[n] = v;
            counters[n].store(v, Ordering::Relaxed);
            plane.fire_event(EventKey::new(NodeId(n as u32), "bump"));
            fired_total += 1;
        }
        applied_total += plane.pump();
    }
    // Freshness spot-check: every mirror whose source node was updated
    // serves the owner's current value through its proxy.
    let mut checked = 0;
    for l in links.iter() {
        if node_value[l.src_node] == 0 || checked >= 200 {
            continue;
        }
        assert_eq!(
            l.sub.get(),
            MetadataValue::U64(node_value[l.src_node]),
            "mirror of {} out of date after pump",
            l.src_key
        );
        checked += 1;
    }
    assert!(checked > 0, "propagation touched no subscribed mirror");
    writeln!(
        out,
        "propagation: {fired_total} fires, {applied_total} remote updates applied, \
         {checked} updated mirrors checked fresh"
    )?;

    // Phase 3 — partition kill: fresh-or-degraded reads only.
    let killed = links[0].owner;
    let pre_kill = node_value.clone();
    plane.kill_partition(killed);
    // Owner-side updates during the outage are lost in transit.
    for l in links.iter().take(64) {
        if l.owner == killed {
            let v = pre_kill[l.src_node] + 1;
            counters[l.src_node].store(v, Ordering::Relaxed);
            plane.fire_event(EventKey::new(NodeId(l.src_node as u32), "bump"));
        }
    }
    plane.pump();
    let (mut degraded_reads, mut fresh_reads) = (0u64, 0u64);
    for l in links.iter() {
        let v = plane
            .partition(l.home)
            .read_versioned(&l.src_key)
            .expect("proxy read during outage");
        assert!(
            v.value.is_available(),
            "read of {} must stay fresh-or-degraded, got unavailable",
            l.src_key
        );
        if l.owner == killed {
            assert!(
                v.degraded,
                "dead-owner proxy {} must be degraded",
                l.src_key
            );
            assert_eq!(
                v.value,
                MetadataValue::U64(pre_kill[l.src_node]),
                "degraded read must serve the last good value"
            );
            degraded_reads += 1;
        } else {
            assert!(!v.degraded, "live-owner proxy {} degraded", l.src_key);
            fresh_reads += 1;
        }
    }
    plane.revive_partition(killed);
    plane.pump();
    for l in links.iter().take(64) {
        if l.owner == killed {
            let v = plane
                .partition(l.home)
                .read_versioned(&l.src_key)
                .expect("proxy read after revive");
            assert!(!v.degraded, "revive must recover {}", l.src_key);
        }
    }
    writeln!(
        out,
        "partition kill: {degraded_reads} degraded + {fresh_reads} fresh reads \
         (all available), revive recovered"
    )?;
    assert!(degraded_reads > 0, "the killed partition owned no links");

    // Phase 4 — exclude churn.
    let half = links.len() / 2;
    links.drain(..half).for_each(drop);
    assert_eq!(
        plane.remote_link_count(),
        w.subs - half,
        "each exclusion released its link"
    );
    drop(links);
    assert_eq!(plane.remote_link_count(), 0, "teardown left a link");
    writeln!(
        out,
        "exclude churn: {half} drops left {} links, teardown 0",
        w.subs - half
    )?;

    // Phase 5 — traced determinism, linted once the experiment returned.
    traced_phase(trace);

    writeln!(
        out,
        "\nE24 invariants held: {} cross-partition links churned, kill-phase reads all \
         fresh-or-degraded, merged trace T1-T8 clean.",
        w.subs
    )
}
