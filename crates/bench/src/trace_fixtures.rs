//! Deterministic trace fixtures for `tracelint`.
//!
//! Each fixture runs a small manager workload under a virtual clock on
//! the calling thread, captures the emitted trace through a
//! [`RingBufferSink`], and renders it as JSONL. The workloads are fully
//! deterministic (no real threads, no wall clock), so regenerating a
//! fixture always reproduces the checked-in bytes under
//! `fixtures/traces/` — the baseline test relies on that, and the
//! `tracelint` binary's `--write-fixtures` mode rewrites the files.
//!
//! Every healthy fixture must lint clean (rules `T1`–`T8` of
//! `streammeta_analyze::tracelint`); the mutation tests corrupt these
//! same traces one invariant at a time and assert the matching rule
//! fires.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    EpochConfig, EventKey, FallbackPolicy, ItemDef, MetadataKey, MetadataManager, MetadataValue,
    NodeId, NodeRegistry, PropagationMode, RingBufferSink, SpanSampling,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

/// One named deterministic trace fixture.
pub struct TraceFixture {
    /// Stable id (`TR1`…), also the stem of the checked-in file name.
    pub id: &'static str,
    /// Human-readable description of the captured workload.
    pub name: &'static str,
    generate: fn() -> String,
}

impl TraceFixture {
    /// Runs the workload and renders its trace as JSONL.
    pub fn generate(&self) -> String {
        (self.generate)()
    }

    /// The checked-in file name (`tr1_per_event_chain.jsonl` style is
    /// collapsed to `<id>.jsonl` for stable lookups).
    pub fn file_name(&self) -> String {
        format!("{}.jsonl", self.id.to_ascii_lowercase())
    }
}

/// Captures everything `work` makes `manager` emit, as JSONL.
fn capture(manager: &MetadataManager, work: impl FnOnce()) -> String {
    let sink = RingBufferSink::new(4096);
    manager.set_trace_sink(Some(sink.clone()));
    work();
    manager.set_trace_sink(None);
    assert_eq!(sink.dropped(), 0, "fixture trace overflowed the ring");
    let mut out = String::new();
    for rec in sink.snapshot() {
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    out
}

/// TR1: a triggered chain under per-event propagation — every source
/// update walks the chain and stores changed values.
fn per_event_chain() -> String {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    let tick = Arc::new(AtomicU64::new(0));
    let t = tick.clone();
    reg.define(
        ItemDef::triggered("rate")
            .compute(move |_| MetadataValue::U64(t.load(Ordering::SeqCst)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("cost")
            .dep_local("rate")
            .compute(|ctx| MetadataValue::F64(ctx.dep_f64("rate").unwrap_or(0.0) * 2.0))
            .build(),
    );
    reg.define(
        ItemDef::triggered("quality")
            .dep_local("cost")
            .compute(|ctx| MetadataValue::F64(ctx.dep_f64("cost").unwrap_or(0.0) + 1.0))
            .build(),
    );
    manager.attach_node(reg);
    capture(&manager, || {
        let _sub = manager
            .subscribe(MetadataKey::new(NodeId(0), "quality"))
            .unwrap();
        for i in 1..=4u64 {
            clock.advance(TimeSpan(1));
            tick.store(i, Ordering::SeqCst);
            manager.notify_changed(MetadataKey::new(NodeId(0), "rate"));
        }
    })
}

/// TR2: the same chain under epoch-batched propagation — bursts of
/// source updates coalesce into flush rounds.
fn epoch_batches() -> String {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    let tick = Arc::new(AtomicU64::new(0));
    let t = tick.clone();
    reg.define(
        ItemDef::triggered("rate")
            .compute(move |_| MetadataValue::U64(t.load(Ordering::SeqCst)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("cost")
            .dep_local("rate")
            .compute(|ctx| MetadataValue::F64(ctx.dep_f64("rate").unwrap_or(0.0) * 2.0))
            .build(),
    );
    manager.attach_node(reg);
    capture(&manager, || {
        let _sub = manager
            .subscribe(MetadataKey::new(NodeId(0), "cost"))
            .unwrap();
        manager.set_propagation_mode(PropagationMode::Epoch(EpochConfig::default()));
        for round in 0..3u64 {
            for burst in 0..3u64 {
                clock.advance(TimeSpan(1));
                tick.store(round * 10 + burst + 1, Ordering::SeqCst);
                manager.notify_changed(MetadataKey::new(NodeId(0), "rate"));
            }
            manager.flush_epoch();
        }
        manager.set_propagation_mode(PropagationMode::PerEvent);
    })
}

/// TR3: a full failure-containment episode — periodic refreshes fail
/// through bounded retries into quarantine, rest out the cool-down, and
/// recover via the probe.
fn containment_episode() -> String {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    let broken = Arc::new(AtomicU64::new(1));
    let b = broken.clone();
    let evals = Arc::new(AtomicU64::new(0));
    let e = evals.clone();
    reg.define(
        ItemDef::periodic("flaky", TimeSpan(10))
            .fallback(FallbackPolicy {
                max_retries: 2,
                backoff: TimeSpan(2),
                quarantine_after: 3,
                cool_down: TimeSpan(50),
            })
            .compute(move |_| {
                let n = e.fetch_add(1, Ordering::SeqCst) + 1;
                if b.load(Ordering::SeqCst) != 0 {
                    panic!("injected");
                }
                MetadataValue::U64(n)
            })
            .build(),
    );
    manager.attach_node(reg);
    capture(&manager, || {
        // The initial inclusion evaluation fails too — that's part of
        // the episode.
        let _sub = manager
            .subscribe(MetadataKey::new(NodeId(0), "flaky"))
            .unwrap();
        for _ in 0..6 {
            clock.advance(TimeSpan(10));
            manager.periodic().advance_to(clock.now());
        }
        assert!(manager.stats().quarantine_trips > 0, "fixture must trip");
        broken.store(0, Ordering::SeqCst);
        for _ in 0..8 {
            clock.advance(TimeSpan(10));
            manager.periodic().advance_to(clock.now());
        }
        assert_eq!(manager.quarantined_count(), 0, "fixture must recover");
    })
}

/// TR4: subscription churn — repeated subscribe/unsubscribe cycles over
/// a small dependency tree drive include/exclude bookkeeping.
fn subscription_churn() -> String {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    let tick = Arc::new(AtomicU64::new(0));
    let t = tick.clone();
    reg.define(
        ItemDef::triggered("base")
            .compute(move |_| MetadataValue::U64(t.load(Ordering::SeqCst)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("derived")
            .dep_local("base")
            .compute(|ctx| ctx.dep("base"))
            .build(),
    );
    manager.attach_node(reg);
    capture(&manager, || {
        for i in 1..=3u64 {
            clock.advance(TimeSpan(1));
            let sub = manager
                .subscribe(MetadataKey::new(NodeId(0), "derived"))
                .unwrap();
            tick.store(i, Ordering::SeqCst);
            manager.notify_changed(MetadataKey::new(NodeId(0), "base"));
            drop(sub);
        }
    })
}

/// TR5: causal lineage spans — every source update is sampled
/// (`Ratio(1)`), observers make notifications span-bearing, and the
/// chain runs under both propagation modes so per-event cascades and a
/// multi-root coalesced flush span all land in the trace. This is the
/// fixture rules T7 (span causality) and T8 (lineage coverage) lint.
fn span_lineage() -> String {
    let clock = VirtualClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let reg = NodeRegistry::new(NodeId(0));
    let tick = Arc::new(AtomicU64::new(0));
    let t = tick.clone();
    reg.define(
        ItemDef::triggered("base")
            .on_event("tick")
            .compute(move |_| MetadataValue::U64(t.load(Ordering::SeqCst)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("derived")
            .dep_local("base")
            .compute(|ctx| MetadataValue::F64(ctx.dep_f64("base").unwrap_or(0.0) * 2.0))
            .build(),
    );
    manager.attach_node(reg);
    capture(&manager, || {
        manager.set_span_sampling(SpanSampling::Ratio(1));
        // An observer makes `derived` stores emit span-bearing
        // notifications — the records rule T8 verifies back to anchors.
        let _sub = manager
            .subscribe_with(MetadataKey::new(NodeId(0), "derived"), |_| {})
            .unwrap();
        let event = EventKey::new(NodeId(0), "tick");
        for i in 1..=3u64 {
            clock.advance(TimeSpan(1));
            tick.store(i, Ordering::SeqCst);
            manager.fire_event(event.clone());
        }
        // Epoch mode: three same-source updates coalesce into one flush
        // whose span unions their roots.
        manager.set_propagation_mode(PropagationMode::Epoch(EpochConfig::default()));
        for i in 4..=6u64 {
            clock.advance(TimeSpan(1));
            tick.store(i, Ordering::SeqCst);
            manager.fire_event(event.clone());
        }
        manager.flush_epoch();
        manager.set_propagation_mode(PropagationMode::PerEvent);
        manager.set_span_sampling(SpanSampling::Off);
    })
}

/// The full trace-fixture registry, in id order.
pub fn all() -> &'static [TraceFixture] {
    &[
        TraceFixture {
            id: "TR1",
            name: "per-event trigger propagation over a three-item chain",
            generate: per_event_chain,
        },
        TraceFixture {
            id: "TR2",
            name: "epoch-batched propagation: three coalesced flush rounds",
            generate: epoch_batches,
        },
        TraceFixture {
            id: "TR3",
            name: "failure containment: retries, quarantine, recovery",
            generate: containment_episode,
        },
        TraceFixture {
            id: "TR4",
            name: "subscription churn: include/exclude cycles",
            generate: subscription_churn,
        },
        TraceFixture {
            id: "TR5",
            name: "causal lineage spans: sampled cascades in both propagation modes",
            generate: span_lineage,
        },
    ]
}

/// Looks a trace fixture up by id (case-insensitive).
pub fn by_id(id: &str) -> Option<&'static TraceFixture> {
    all().iter().find(|f| f.id.eq_ignore_ascii_case(id))
}

/// The directory the fixture JSONL files are checked in under.
pub fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("traces")
}
