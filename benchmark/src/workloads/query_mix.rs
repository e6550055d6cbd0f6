//! `query_mix`: the whole stack as users run it.
//!
//! The `tests/soak.rs` shape at bench size: three shared sources (one
//! Zipf-keyed), 48 CQL queries installed through `cql::install`, the cost
//! model on top, 64 held subscriptions with observers, one query and four
//! subscriptions churned per round, the virtual-time engine run in fixed
//! slices. `graph`, `engine` and `cql` do most of the work and `core` a
//! measured minority, so this is the control on which a `core`-only
//! optimisation should move little and a regression anywhere shows.
//!
//! Every seed installs the same 48 queries and holds the same mix of
//! subscriptions. The seed draws the source data, the churn victims and
//! the slots the subscribers pick, so runs with different seeds do the
//! same work.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use streammeta_core::{MetadataKey, MetadataManager, NodeId, Subscription, VersionedValue};
use streammeta_costmodel::{
    install_cost_model, install_join_estimates, install_window_estimates, ESTIMATED_CPU_USAGE,
    ESTIMATED_OUTPUT_RATE,
};
use streammeta_cql::{install, Catalog, CompiledQuery};
use streammeta_engine::VirtualEngine;
use streammeta_graph::{MetadataConfig, QueryGraph, HASH_OP_OVERHEAD};
use streammeta_streams::{Element, Generator, Schema, Value, ValueType, Zipf};
use streammeta_time::{Clock, TimeSpan, Timestamp, VirtualClock};

use super::{ratio, span_us, timed, Phase, RunConfig, Seen, Workload};
use crate::report::{Checker, Metrics};
use crate::trace::{Span, Trace, Tracer};

const SOURCES: [(&str, u64); 3] = [("alpha", 2), ("beta", 3), ("gamma", 5)];
/// Distinct values of both columns of every source.
const KEYS: i64 = 50;

const JOINS: usize = 8;
const FILTERS: usize = 16;
const COUNTS: usize = 12;
const AVERAGES: usize = 12;
const QUERIES: usize = JOINS + FILTERS + COUNTS + AVERAGES;
/// Source pairs of the joins; the first is the watched join's.
const JOIN_PAIRS: [(usize, usize); JOINS] = [
    (0, 1),
    (1, 2),
    (2, 0),
    (0, 2),
    (1, 0),
    (2, 1),
    (0, 1),
    (1, 2),
];

const HELD_SUBSCRIPTIONS: usize = 64;
const SLICES_PER_ROUND: usize = 8;
const SLICE: TimeSpan = TimeSpan(100);
const SUBSCRIPTIONS_CHURNED: usize = 4;
/// The watched window flips between its size and this much more.
const RESIZE_STEP: u64 = 10;
/// Rounds (the warm-up included) after which results are compared.
const CHECKPOINT_ROUNDS: u64 = 3;

/// One shared source: an element every `period`, key column uniform or
/// Zipf, value column uniform; all drawn from the run's seed.
struct SeededSource {
    schema: Schema,
    period: TimeSpan,
    next_at: Timestamp,
    rng: SmallRng,
    zipf: Option<Zipf>,
}

impl SeededSource {
    fn new(index: usize, seed: u64) -> Self {
        SeededSource {
            schema: Schema::of(&[("k0", ValueType::Int), ("k1", ValueType::Int)]),
            period: TimeSpan(SOURCES[index].1),
            next_at: Timestamp(SOURCES[index].1),
            rng: SmallRng::seed_from_u64(seed),
            zipf: (index == 2).then(|| Zipf::new(KEYS as usize, 1.0)),
        }
    }
}

impl Generator for SeededSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn key_cardinality(&self) -> Option<u64> {
        Some(KEYS as u64)
    }

    fn next_element(&mut self) -> Option<Element> {
        let key = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) as i64,
            None => self.rng.gen_range(0..KEYS),
        };
        let value = self.rng.gen_range(0..KEYS);
        let e = Element::new(
            [Value::Int(key), Value::Int(value)].into_iter().collect(),
            self.next_at,
        );
        self.next_at += self.period;
        Some(e)
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Join,
    Filter { source: usize, bound: i64 },
    Count { source: usize },
    Average { source: usize },
}

impl Kind {
    /// Index of the kind among the four, whatever its parameters.
    fn class(self) -> usize {
        match self {
            Kind::Join => 0,
            Kind::Filter { .. } => 1,
            Kind::Count { .. } => 2,
            Kind::Average { .. } => 3,
        }
    }
}

/// One of the 48 query slots. A churned slot gets a fresh instance of
/// the same text, so the installed work stays the same.
struct Slot {
    kind: Kind,
    text: String,
    query: CompiledQuery,
    /// Results drained so far, every instance of the slot together.
    count: u64,
    checksum: u64,
}

impl Slot {
    fn drain(&mut self) {
        for e in self.query.results.drain() {
            self.count += 1;
            self.checksum = fold(self.checksum, e.timestamp.units());
            for v in e.payload.iter() {
                self.checksum = fold(
                    self.checksum,
                    match v {
                        Value::Int(i) => *i as u64,
                        Value::Float(f) => f.to_bits(),
                        Value::Bool(b) => *b as u64,
                        Value::Str(s) => s.len() as u64,
                        Value::Null => u64::MAX,
                    },
                );
            }
        }
    }

    /// The metadata items a subscriber may pick on this slot's nodes.
    fn candidates(&self, graph: &QueryGraph) -> Vec<MetadataKey> {
        let q = &self.query;
        let operator = graph.upstream(q.sink)[0];
        match self.kind {
            Kind::Join => {
                let join = q.join.expect("join slots have a join");
                vec![
                    MetadataKey::new(join, ESTIMATED_CPU_USAGE),
                    MetadataKey::new(join, "selectivity"),
                    MetadataKey::new(join, "output_rate"),
                    MetadataKey::new(q.windows[0].0, "input_rate"),
                ]
            }
            Kind::Filter { .. } => {
                let filter = q.filter.expect("filter slots have a filter");
                vec![
                    MetadataKey::new(filter, "selectivity"),
                    MetadataKey::new(filter, "input_rate"),
                    MetadataKey::new(filter, "output_rate"),
                ]
            }
            Kind::Count { .. } | Kind::Average { .. } => vec![
                MetadataKey::new(operator, "input_rate"),
                MetadataKey::new(operator, "output_rate"),
                MetadataKey::new(q.windows[0].0, "input_rate"),
            ],
        }
    }
}

/// FNV-1a step over one 64-bit word.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The 48 queries, the same for every seed and the watched join first:
/// which source a parameter meets, and where a query's nodes sit among
/// the others, decide how much work it is, and seeds must do the same
/// work. The seed draws the source data, the churn victims and the slots
/// the subscribers pick.
fn query_plan() -> Vec<(Kind, String)> {
    let name = |s: usize| SOURCES[s].0;
    let mut plan = Vec::with_capacity(QUERIES);
    for (i, (l, r)) in JOIN_PAIRS.iter().enumerate() {
        plan.push((
            Kind::Join,
            format!(
                "SELECT a.k1, b.k1 FROM {}[RANGE {}] AS a JOIN {}[RANGE {}] AS b ON a.k0 = b.k0",
                name(*l),
                30 + 8 * i,
                name(*r),
                34 + 8 * i
            ),
        ));
    }
    for i in 0..FILTERS {
        let (source, bound) = (i % SOURCES.len(), 8 + 2 * i as i64);
        plan.push((
            Kind::Filter { source, bound },
            format!("SELECT k0 FROM {} WHERE k1 < {bound}", name(source)),
        ));
    }
    for i in 0..COUNTS {
        let source = i % SOURCES.len();
        plan.push((
            Kind::Count { source },
            format!(
                "SELECT COUNT(*) FROM {}[RANGE {}]",
                name(source),
                40 + 10 * i
            ),
        ));
    }
    for i in 0..AVERAGES {
        let source = (i + 1) % SOURCES.len();
        plan.push((
            Kind::Average { source },
            format!(
                "SELECT AVG(k1) FROM {}[RANGE {}]",
                name(source),
                45 + 10 * i
            ),
        ));
    }
    plan
}

/// What the held subscriptions are on: every candidate item of every
/// kind of query in turn, so each seed holds the same mix of items and
/// draws only the slots.
fn subscription_pattern() -> impl Iterator<Item = (usize, usize)> {
    const CANDIDATES: [usize; 4] = [4, 3, 3, 3];
    (0..CANDIDATES.len())
        .flat_map(|class| (0..CANDIDATES[class]).map(move |candidate| (class, candidate)))
        .cycle()
}

/// State shared with the observer closures.
struct Shared {
    tracer: Arc<Tracer>,
    /// The watched join's CPU estimate, as its observer saw it.
    watched: Seen,
}

impl Shared {
    /// The held subscriptions' observer: a consumer that only listens.
    fn observe(&self) {
        self.tracer.span(Span::Observer, || ())
    }

    fn observe_watched(&self, v: &VersionedValue) {
        self.tracer.span(Span::Observer, || {
            let value = v.value.as_f64().unwrap_or(f64::NAN).to_bits();
            self.watched.record(value, v.version, self.tracer.now_ns());
        })
    }
}

/// A held subscription and the slot whose node it is on.
struct Held {
    slot: usize,
    candidate: usize,
    subscription: Subscription,
}

/// The subscriptions, absent in the twin that runs the same queries
/// without any metadata.
struct Metadata {
    shared: Arc<Shared>,
    /// On the watched join's `estimated_cpu_usage`, with the timing observer.
    _watched: Subscription,
    /// The rate estimates the watched join's CPU estimate is made from.
    left_rate: Subscription,
    right_rate: Subscription,
    held: Vec<Held>,
    rng: SmallRng,
}

/// Counters read where the traced phase starts.
#[derive(Default)]
struct Mark {
    resizes: u64,
    cascade_computes: u64,
    subscribes: u64,
    included_items: u64,
}

pub struct QueryMix {
    seed: u64,
    tracer: Arc<Tracer>,
    clock: Arc<VirtualClock>,
    manager: Arc<MetadataManager>,
    graph: Arc<QueryGraph>,
    catalog: Catalog,
    engine: VirtualEngine,
    slots: Vec<Slot>,
    metadata: Option<Metadata>,
    churn_rng: SmallRng,
    /// The watched window's two sizes and which one is set.
    watched_sizes: [u64; 2],
    watched_right: u64,
    enlarged: bool,
    rounds: u64,
    ops: u64,
    latencies: Vec<u32>,
    /// `(count, checksum)` of every slot at the checkpoint.
    checkpoint: Option<Vec<(u64, u64)>>,
    resizes: u64,
    cascade_computes: u64,
    subscribes: u64,
    included_items: u64,
    mark: Mark,
    checker: Checker,
}

impl QueryMix {
    /// Builds the system; `with_metadata: false` gives the twin without
    /// cost model and subscriptions, driven by the same seed.
    fn build(seed: u64, tracer: Arc<Tracer>, with_metadata: bool) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let clock = VirtualClock::shared();
        let manager = MetadataManager::new(clock.clone());
        let graph = Arc::new(QueryGraph::with_config(
            manager.clone(),
            MetadataConfig {
                rate_window: TimeSpan(50),
            },
        ));
        let mut catalog = Catalog::new();
        for (i, (name, _)) in SOURCES.iter().enumerate() {
            let source = graph.source(name, Box::new(SeededSource::new(i, rng.gen())));
            catalog.register(*name, source).expect("fresh name");
        }
        let slots: Vec<Slot> = query_plan()
            .into_iter()
            .map(|(kind, text)| Slot {
                query: install(&graph, &catalog, &text).expect("generated queries compile"),
                kind,
                text,
                count: 0,
                checksum: 0,
            })
            .collect();
        let churn_rng = SmallRng::seed_from_u64(rng.gen());
        let subscriber_rng = SmallRng::seed_from_u64(rng.gen());

        let watched = &slots[0].query;
        let left_size = watched.windows[0].1.get().units();
        let mut w = QueryMix {
            seed,
            engine: VirtualEngine::new(graph.clone(), clock.clone()),
            watched_sizes: [left_size, left_size + RESIZE_STEP],
            watched_right: watched.windows[1].1.get().units(),
            tracer,
            clock,
            manager,
            graph,
            catalog,
            slots,
            metadata: None,
            churn_rng,
            enlarged: false,
            rounds: 0,
            ops: 0,
            latencies: Vec::new(),
            checkpoint: None,
            resizes: 0,
            cascade_computes: 0,
            subscribes: 0,
            included_items: 0,
            mark: Mark::default(),
            checker: Checker::default(),
        };
        if with_metadata {
            install_cost_model(&w.graph);
            w.metadata = Some(w.subscribe_all(subscriber_rng));
        }
        w.round(); // warm-up
        w
    }

    fn subscribe_all(&mut self, rng: SmallRng) -> Metadata {
        let shared = Arc::new(Shared {
            tracer: self.tracer.clone(),
            watched: Seen::default(),
        });
        let watched = &self.slots[0].query;
        let join = watched.join.expect("slot 0 is a join");
        let s = shared.clone();
        let watched_sub = self
            .manager
            .subscribe_with(MetadataKey::new(join, ESTIMATED_CPU_USAGE), move |v| {
                s.observe_watched(v)
            })
            .expect("the cost model is installed");
        let rate = |window: NodeId| {
            self.manager
                .subscribe(MetadataKey::new(window, ESTIMATED_OUTPUT_RATE))
                .expect("the cost model is installed")
        };
        let mut metadata = Metadata {
            left_rate: rate(watched.windows[0].0),
            right_rate: rate(watched.windows[1].0),
            shared,
            _watched: watched_sub,
            held: Vec::new(),
            rng,
        };
        for (class, candidate) in subscription_pattern().take(HELD_SUBSCRIPTIONS - 3) {
            let held = self.subscribe_random(&mut metadata, class, candidate);
            metadata.held.push(held);
        }
        metadata
    }

    /// Subscribes, with a counting observer, to candidate `candidate` of `slot`.
    fn subscribe(&mut self, shared: &Arc<Shared>, slot: usize, candidate: usize) -> Held {
        let key = self.slots[slot].candidates(&self.graph)[candidate].clone();
        let s = shared.clone();
        let before = self.manager.handler_count();
        let subscription = self.tracer.span(Span::Subscribe, || {
            self.manager
                .subscribe_with(key, move |_| s.observe())
                .expect("candidate items are defined")
        });
        self.subscribes += 1;
        self.included_items += (self.manager.handler_count() - before) as u64;
        Held {
            slot,
            candidate,
            subscription,
        }
    }

    /// Subscribes to candidate `candidate` of a drawn slot of kind `class`.
    /// Never of the watched join: what else listens there would decide
    /// what its resize costs.
    fn subscribe_random(
        &mut self,
        metadata: &mut Metadata,
        class: usize,
        candidate: usize,
    ) -> Held {
        let of_class: Vec<usize> = (1..QUERIES)
            .filter(|i| self.slots[*i].kind.class() == class)
            .collect();
        let slot = of_class[metadata.rng.gen_range(0..of_class.len())];
        let shared = metadata.shared.clone();
        self.subscribe(&shared, slot, candidate)
    }

    fn unsubscribe(&self, held: Held) {
        self.tracer
            .span(Span::Unsubscribe, || drop(held.subscription));
    }

    /// One engine slice, the consumers' reads, and one window resize.
    fn slice(&mut self) {
        let before = self.engine.stats().source_elements;
        self.tracer
            .span(Span::EngineRunFor, || self.engine.run_for(SLICE));
        self.ops += self.engine.stats().source_elements - before;

        if let Some(metadata) = &self.metadata {
            self.tracer.span(Span::ReadSubscriptions, || {
                for held in &metadata.held {
                    std::hint::black_box(held.subscription.versioned());
                }
            });
        }
        for slot in &mut self.slots {
            slot.drain();
        }
        self.resize();
    }

    /// The Fig. 3 cascade: resize the watched join's left window and wait
    /// for its CPU estimate's observer.
    fn resize(&mut self) {
        self.enlarged = !self.enlarged;
        let size = self.watched_sizes[self.enlarged as usize];
        let (window, handle) = self.slots[0].query.windows[0].clone();
        let traced = self.metadata.is_some() && self.tracer.is_on();
        let computes = if traced {
            self.manager.stats().computes
        } else {
            0
        };
        if let Some(metadata) = &self.metadata {
            metadata.shared.watched.deliveries.store(0, Relaxed);
        }
        let resized_at = self.tracer.now_ns();
        self.tracer.span(Span::GraphResizeWindow, || {
            self.graph.resize_window(window, &handle, TimeSpan(size))
        });
        let Some(metadata) = &self.metadata else {
            return;
        };
        self.resizes += 1;
        if traced {
            self.cascade_computes += self.manager.stats().computes - computes;
        }

        let watched = &metadata.shared.watched;
        let deliveries = watched.deliveries.load(Relaxed);
        self.checker.check(deliveries == 1, || {
            format!("resize to {size}: {deliveries} notifications, expected 1")
        });
        // The cost model's formula for a hash join, by plain arithmetic.
        let rates = (metadata.left_rate.get_f64(), metadata.right_rate.get_f64());
        let got = f64::from_bits(watched.value.load(Relaxed));
        let want = rates.0.zip(rates.1).map(|(l, r)| {
            let bucket = 1.0 / KEYS as f64;
            let candidates =
                l * (r * self.watched_right as f64 * bucket) + r * (l * size as f64 * bucket);
            (l + r) + (l + r) * 2.0 * HASH_OP_OVERHEAD as f64 + candidates
        });
        self.checker.check(
            want.is_some_and(|w| (got - w).abs() <= 1e-9 * w.abs()),
            || format!("estimated_cpu_usage delivered {got}, reference {want:?}"),
        );
        let visible_at = watched.at_ns.load(Relaxed).max(resized_at);
        self.latencies.push((visible_at - resized_at) as u32);
    }

    /// Replaces one query by a fresh instance of itself and four
    /// subscriptions by new ones.
    fn churn(&mut self) {
        let victim = self.churn_rng.gen_range(1..QUERIES);
        let mut metadata = self.metadata.take();
        let mut moved = Vec::new();
        if let Some(metadata) = &mut metadata {
            let (on_victim, rest) = std::mem::take(&mut metadata.held)
                .into_iter()
                .partition(|h| h.slot == victim);
            metadata.held = rest;
            for held in on_victim {
                moved.push((held.slot, held.candidate));
                self.unsubscribe(held);
            }
        }
        self.slots[victim].drain();
        let sink = self.slots[victim].query.sink;
        self.tracer
            .span(Span::GraphRemoveQuery, || self.graph.remove_query(sink));
        let query = self.tracer.span(Span::CqlInstall, || {
            install(&self.graph, &self.catalog, &self.slots[victim].text)
                .expect("the text compiled before")
        });
        self.slots[victim].query = query;

        if let Some(metadata) = &mut metadata {
            let query = &self.slots[victim].query;
            if let Some(join) = query.join {
                self.tracer.span(Span::CostmodelInstall, || {
                    for (window, _) in &query.windows {
                        install_window_estimates(&self.graph, *window);
                    }
                    install_join_estimates(&self.graph, join);
                });
            }
            let shared = metadata.shared.clone();
            for (slot, candidate) in moved {
                let held = self.subscribe(&shared, slot, candidate);
                metadata.held.push(held);
            }
            for _ in 0..SUBSCRIPTIONS_CHURNED {
                let at = metadata.rng.gen_range(0..metadata.held.len());
                let dropped = metadata.held.swap_remove(at);
                let (class, candidate) = (self.slots[dropped.slot].kind.class(), dropped.candidate);
                self.unsubscribe(dropped);
                let held = self.subscribe_random(metadata, class, candidate);
                metadata.held.push(held);
            }
        }
        self.metadata = metadata;
    }

    /// Result counts by plain arithmetic: replays the sources up to `now`.
    /// A filter emits what passes its bound and a windowed aggregate one
    /// result per input, whichever instance of the slot was installed.
    fn replayed_counts(&self, now: Timestamp) -> Vec<Option<u64>> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let elements: Vec<Vec<Element>> = (0..SOURCES.len())
            .map(|i| {
                let mut source = SeededSource::new(i, rng.gen());
                std::iter::from_fn(|| source.next_element())
                    .take_while(|e| e.timestamp <= now)
                    .collect()
            })
            .collect();
        self.slots
            .iter()
            .map(|slot| match slot.kind {
                Kind::Join => None,
                Kind::Filter { source, bound } => Some(
                    elements[source]
                        .iter()
                        .filter(|e| e.payload[1].as_int().is_some_and(|v| v < bound))
                        .count() as u64,
                ),
                Kind::Count { source } | Kind::Average { source } => {
                    Some(elements[source].len() as u64)
                }
            })
            .collect()
    }

    fn take_checkpoint(&mut self) {
        let replayed = self.replayed_counts(self.clock.now());
        for (i, (slot, want)) in self.slots.iter().zip(replayed).enumerate() {
            self.checker
                .check(want.is_none_or(|w| w == slot.count), || {
                    format!(
                        "slot {i} `{}` gave {} results, the replayed sources give {want:?}",
                        slot.text, slot.count
                    )
                });
        }
        self.checkpoint = Some(self.slots.iter().map(|s| (s.count, s.checksum)).collect());
    }

    /// The checkpoint as the committed expected-results file holds it.
    fn checkpoint_json(&self) -> String {
        let checkpoint = self.checkpoint.as_ref().expect("checkpoint reached");
        let mut out = format!(
            "{{\n  \"seed\": {},\n  \"checkpoint_time\": {},\n  \"queries\": [\n",
            self.seed,
            CHECKPOINT_ROUNDS * SLICES_PER_ROUND as u64 * SLICE.units()
        );
        for (i, (slot, (count, checksum))) in self.slots.iter().zip(checkpoint).enumerate() {
            let sep = if i + 1 == QUERIES { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"slot\": {i}, \"text\": \"{}\", \"count\": {count}, \
                 \"checksum\": \"{checksum:016x}\"}}{sep}",
                slot.text
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn expected_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("query_mix_seed{seed}.json"))
}

impl Workload for QueryMix {
    fn setup(seed: u64, tracer: Arc<Tracer>) -> Self {
        QueryMix::build(seed, tracer, true)
    }

    fn round(&mut self) {
        for _ in 0..SLICES_PER_ROUND {
            self.slice();
        }
        self.churn();
        self.rounds += 1;
        if self.rounds == CHECKPOINT_ROUNDS {
            self.take_checkpoint();
        }
        if let Some(metadata) = &self.metadata {
            let regressions = metadata.shared.watched.regressions.load(Relaxed);
            self.checker.check(regressions == 0, || {
                format!("{regressions} notifications did not raise the version")
            });
        }
    }

    fn ops(&self) -> u64 {
        self.ops
    }

    fn take_latencies(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.latencies)
    }

    fn checker(&mut self) -> &mut Checker {
        &mut self.checker
    }

    fn mark(&mut self) {
        self.mark = Mark {
            resizes: self.resizes,
            cascade_computes: self.cascade_computes,
            subscribes: self.subscribes,
            included_items: self.included_items,
        };
    }

    /// Compares the checkpoint with the twin that ran the same queries
    /// without metadata, and with the committed file if the seed has one.
    fn finish(&mut self, cfg: &RunConfig) {
        let failures = self.manager.stats().compute_failures;
        self.checker
            .check(failures == 0, || format!("{failures} compute failures"));
        while self.checkpoint.is_none() {
            self.round();
        }
        let mut twin = QueryMix::build(self.seed, Arc::new(Tracer::default()), false);
        while twin.checkpoint.is_none() {
            twin.round();
        }
        let (own, reference) = (self.checkpoint_json(), twin.checkpoint_json());
        self.checker.check(own == reference, || {
            format!(
                "results differ from the run without metadata: {:?}",
                first_difference(&own, &reference)
            )
        });
        let results: u64 = self.slots.iter().map(|s| s.count).sum();
        self.checker
            .check(results > 0, || "no query produced a result".to_string());

        let path = expected_path(self.seed);
        if cfg.bless && self.seed == cfg.seed {
            std::fs::create_dir_all(path.parent().expect("expected/"))
                .and_then(|()| std::fs::write(&path, &own))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("# wrote {}", path.display());
        } else if let Some(expected) = std::fs::read_to_string(&path).ok().filter(|_| !cfg.bless) {
            self.checker.check(own == expected, || {
                format!(
                    "results differ from {}: {:?}",
                    path.display(),
                    first_difference(&own, &expected)
                )
            });
        }
    }

    fn extras_share() -> f64 {
        0.3
    }

    /// The calibration: the same queries and rounds with no metadata.
    fn extra_phases(&mut self, seconds: f64, reference: &Phase, m: &mut Metrics) {
        let tracer = Arc::new(Tracer::default());
        let mut twin = QueryMix::build(self.seed, tracer.clone(), false);
        let without = timed(&mut twin, &tracer, seconds);
        m.set("engine.elements_per_s_nosubs", without.ops_per_s());
        m.set(
            "core.metadata_overhead_frac",
            reference.overhead_vs(&without),
        );
    }

    fn layer_metrics(&mut self, trace: &Trace, m: &mut Metrics) {
        m.set("cql.install_us_p50", span_us(trace, Span::CqlInstall)[0]);
        m.set(
            "graph.remove_query_us_p50",
            span_us(trace, Span::GraphRemoveQuery)[0],
        );
        let slices = trace.totals(Span::EngineRunFor);
        m.set("engine.slice_us_p50", span_us(trace, Span::EngineRunFor)[0]);
        m.set(
            "engine.busy_frac",
            ratio(slices.total_ns as f64, trace.root_ns() as f64),
        );
        m.set(
            "costmodel.cascade_computes",
            ratio(
                (self.cascade_computes - self.mark.cascade_computes) as f64,
                (self.resizes - self.mark.resizes) as f64,
            ),
        );
        let [include_p50, include_p95] = span_us(trace, Span::Subscribe);
        let [exclude_p50, exclude_p95] = span_us(trace, Span::Unsubscribe);
        m.set("core.include_us_p50", include_p50);
        m.set("core.include_us_p95", include_p95);
        m.set("core.exclude_us_p50", exclude_p50);
        m.set("core.exclude_us_p95", exclude_p95);
        m.set(
            "core.include_items_per_subscribe",
            ratio(
                (self.included_items - self.mark.included_items) as f64,
                (self.subscribes - self.mark.subscribes) as f64,
            ),
        );
        let reads = trace.totals(Span::ReadSubscriptions);
        let held = self.metadata.as_ref().map_or(0, |md| md.held.len());
        m.set(
            "core.subscription.read_ns_per_op",
            ratio(reads.total_ns as f64, (reads.count * held as u64) as f64),
        );
    }
}

/// The first line on which two texts differ.
fn first_difference<'a>(a: &'a str, b: &'a str) -> Option<(&'a str, &'a str)> {
    a.lines().zip(b.lines()).find(|(x, y)| x != y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_plan_has_every_kind_and_the_pattern_every_candidate() {
        let plan = query_plan();
        assert_eq!(plan.len(), QUERIES);
        assert_eq!(plan[0].0, Kind::Join);
        for (class, n) in [JOINS, FILTERS, COUNTS, AVERAGES].into_iter().enumerate() {
            assert_eq!(plan.iter().filter(|(k, _)| k.class() == class).count(), n);
        }
        let pattern: Vec<(usize, usize)> = subscription_pattern().take(26).collect();
        assert_eq!(pattern[..13], pattern[13..]);
        assert_eq!(pattern[0], (0, 0));
        assert_eq!(pattern[12], (3, 2));
    }

    #[test]
    fn rounds_pass_their_own_checks_and_match_the_twin() {
        let mut w = QueryMix::setup(7, Arc::new(Tracer::default()));
        w.round();
        w.finish(&RunConfig {
            seed: 7,
            seconds: 0.0,
            trace: false,
            bless: false,
        });
        assert_eq!(w.checker.failed, 0, "{:?}", w.checker.messages());
        assert_eq!(
            w.metadata.as_ref().expect("metadata").held.len() + 3,
            HELD_SUBSCRIPTIONS
        );
        assert!(w.ops > 0 && !w.latencies.is_empty());
    }
}
