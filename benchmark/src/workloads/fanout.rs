//! `fanout_per_event` and `fanout_epoch`: the propagation sweep alone.
//!
//! `core` only. 32 origin events feed a three-level triggered DAG: 64
//! first-level items (two per origin), 64 second-level items with two
//! first-level parents each, 8 aggregates with eight second-level parents
//! each. Computes are trivial arithmetic, so the sweep's plan building,
//! bookkeeping and observer delivery are nearly all the work.
//!
//! The same DAG runs in both propagation modes, so a change that helps
//! one mode at the cost of the other shows as a difference between the
//! two workloads.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use streammeta_core::{
    EpochConfig, EventKey, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId,
    NodeRegistry, PropagationMode, RingBufferSink, SpanSampling, Subscription, VersionedValue,
};
use streammeta_streams::Zipf;
use streammeta_time::{TimeSpan, VirtualClock};

use super::{ratio, shuffle, span_us, timed, Phase, Seen, Workload};
use crate::report::{Checker, Metrics};
use crate::stats::percentiles;
use crate::trace::{Span, Trace, Tracer};

const ORIGINS: usize = 32;
const FIRST: usize = 64;
const SECOND: usize = 64;
const AGGREGATES: usize = 8;
const ITEMS: usize = FIRST + SECOND + AGGREGATES;

/// Dependency roles of an aggregate's eight parents.
const PARENT_ROLES: [&str; 8] = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];

const FIRST_NODE: NodeId = NodeId(1);
const SECOND_NODE: NodeId = NodeId(2);
const AGGREGATE_NODE: NodeId = NodeId(3);

/// Per-event round: this many passes over all origins, each in a drawn order.
const FIRES_PER_ORIGIN: usize = 32;
/// Epoch round: bursts of `BURST` enqueued updates, one flush per burst.
const BURSTS: usize = 64;
const BURST: usize = 64;
/// Every `STAMP_EVERY`-th update of a burst is a latency sample; stamping
/// each one would cost about as much as the enqueue it times.
const STAMP_EVERY: usize = 8;
/// The epoch counts are taken over this many updates from set-up on, so
/// that they repeat exactly for a seed however long the run is.
const COUNTED_UPDATES: u64 = 64 * (BURSTS * BURST) as u64;

/// The DAG, the same for every seed. Item indices run over the first
/// level, then the second, then the aggregates; first-level items `2o`
/// and `2o + 1` hang off origin `o`.
struct Dag {
    /// The two first-level parents of each second-level item.
    second_parents: [[usize; 2]; SECOND],
    /// The eight second-level parents of each aggregate.
    aggregate_parents: [[usize; 8]; AGGREGATES],
}

/// What one origin's event reaches.
struct Reach {
    /// Item indices, every level.
    items: Vec<usize>,
    aggregates: Vec<usize>,
}

impl Dag {
    /// Second-level item `j` hangs off first-level items `j` and `j + 2`,
    /// aggregate `k` off the second-level items `k mod 8`: every origin
    /// reaches 2 + 4 + 4 items and neighbouring origins share two
    /// second-level items. The shape is not drawn from the seed: which
    /// items an origin reaches, and under which names, decides what a fire
    /// costs, and seeds must do the same work. The seed draws the order
    /// of the fires and the origins of the epoch bursts.
    fn regular() -> Dag {
        Dag {
            second_parents: std::array::from_fn(|j| [j, (j + 2) % FIRST]),
            aggregate_parents: std::array::from_fn(|k| std::array::from_fn(|s| 8 * s + k)),
        }
    }

    fn reach(&self, origin: usize) -> Reach {
        let mut hit = [false; ITEMS];
        hit[2 * origin] = true;
        hit[2 * origin + 1] = true;
        for (j, parents) in self.second_parents.iter().enumerate() {
            hit[FIRST + j] = parents.iter().any(|p| hit[*p]);
        }
        let mut aggregates = Vec::new();
        for (k, parents) in self.aggregate_parents.iter().enumerate() {
            if parents.iter().any(|p| hit[FIRST + p]) {
                hit[FIRST + SECOND + k] = true;
                aggregates.push(k);
            }
        }
        Reach {
            items: (0..ITEMS).filter(|i| hit[*i]).collect(),
            aggregates,
        }
    }
}

/// The driver's reference: the same values by plain arithmetic.
#[derive(Default)]
struct Model {
    aggregates: [u64; AGGREGATES],
}

fn first_value(counter: u64, i: usize) -> u64 {
    3 * counter + i as u64
}

fn second_value(parents: [u64; 2]) -> u64 {
    parents[0] + 2 * parents[1]
}

impl Model {
    fn recompute(&mut self, dag: &Dag, counters: &[u64; ORIGINS]) {
        let first: [u64; FIRST] = std::array::from_fn(|i| first_value(counters[i / 2], i));
        let second: [u64; SECOND] =
            std::array::from_fn(|j| second_value(dag.second_parents[j].map(|p| first[p])));
        self.aggregates =
            std::array::from_fn(|k| dag.aggregate_parents[k].iter().map(|p| second[*p]).sum());
    }
}

/// State shared with the compute and observer closures. One thread
/// touches it; the atomics are only there because closures must be `Sync`.
struct Shared {
    tracer: Arc<Tracer>,
    counters: [AtomicU64; ORIGINS],
    computes: AtomicU64,
    item_computes: [AtomicU32; ITEMS],
    deliveries: AtomicU64,
    /// Each aggregate, as its observer saw it.
    seen: [Seen; AGGREGATES],
}

impl Shared {
    fn compute(&self, item: usize, value: impl FnOnce() -> u64) -> MetadataValue {
        self.tracer.span(Span::Compute, || {
            self.computes.fetch_add(1, Relaxed);
            self.item_computes[item].fetch_add(1, Relaxed);
            MetadataValue::U64(value())
        })
    }

    fn observe(&self, aggregate: usize, v: &VersionedValue) {
        self.tracer.span(Span::Observer, || {
            self.deliveries.fetch_add(1, Relaxed);
            let value = v.value.as_u64().unwrap_or(u64::MAX);
            self.seen[aggregate].record(value, v.version, self.tracer.now_ns());
        })
    }
}

fn dep_u64(ctx: &streammeta_core::EvalCtx<'_>, role: &str) -> u64 {
    ctx.dep(role).as_u64().unwrap_or(u64::MAX / 1024)
}

fn define_items(dag: &Dag, shared: &Arc<Shared>, manager: &MetadataManager) {
    let first = NodeRegistry::new(FIRST_NODE);
    for i in 0..FIRST {
        let s = shared.clone();
        first.define(
            ItemDef::triggered(format!("f{i}"))
                .on_event(format!("origin{}", i / 2))
                .compute(move |_| s.compute(i, || first_value(s.counters[i / 2].load(Relaxed), i)))
                .build(),
        );
    }
    let second = NodeRegistry::new(SECOND_NODE);
    for (j, [l, r]) in dag.second_parents.iter().enumerate() {
        let s = shared.clone();
        second.define(
            ItemDef::triggered(format!("s{j}"))
                .dep_remote("l", MetadataKey::new(FIRST_NODE, format!("f{l}")))
                .dep_remote("r", MetadataKey::new(FIRST_NODE, format!("f{r}")))
                .compute(move |ctx| {
                    s.compute(FIRST + j, || {
                        second_value([dep_u64(ctx, "l"), dep_u64(ctx, "r")])
                    })
                })
                .build(),
        );
    }
    let aggregates = NodeRegistry::new(AGGREGATE_NODE);
    for (k, parents) in dag.aggregate_parents.iter().enumerate() {
        let s = shared.clone();
        let mut def = ItemDef::triggered(format!("a{k}"));
        for (role, p) in PARENT_ROLES.iter().zip(parents) {
            def = def.dep_remote(role, MetadataKey::new(SECOND_NODE, format!("s{p}")));
        }
        aggregates.define(
            def.compute(move |ctx| {
                s.compute(FIRST + SECOND + k, || {
                    PARENT_ROLES.iter().map(|role| dep_u64(ctx, role)).sum()
                })
            })
            .build(),
        );
    }
    for registry in [first, second, aggregates] {
        manager.attach_node(registry);
    }
}

pub struct Fanout<const EPOCH: bool> {
    tracer: Arc<Tracer>,
    manager: Arc<MetadataManager>,
    shared: Arc<Shared>,
    /// Held for their observers; dropped with the workload.
    _subscriptions: Vec<Subscription>,
    dag: Dag,
    reach: Vec<Reach>,
    events: Vec<EventKey>,
    zipf: Zipf,
    rng: SmallRng,
    counters: [u64; ORIGINS],
    model: Model,
    ops: u64,
    latencies: Vec<u32>,
    /// Enqueue-to-flush waits of the stamped updates, reference-clock ns;
    /// kept only while the tracer is on.
    queue_waits: Vec<u32>,
    /// Computes before the first update (inclusion computes every item once).
    setup_computes: u64,
    /// Coalesced updates and computes of the first `COUNTED_UPDATES` updates.
    counted: Option<(u64, u64)>,
    checker: Checker,
}

impl<const EPOCH: bool> Fanout<EPOCH> {
    fn bump(&mut self, origin: usize) {
        self.counters[origin] += 1;
        self.shared.counters[origin].store(self.counters[origin], Relaxed);
    }

    /// Per-event mode: one fire, checked against the reach set.
    fn fire(&mut self, origin: usize) {
        self.bump(origin);
        self.model.recompute(&self.dag, &self.counters);
        let computes = self.shared.computes.load(Relaxed);
        let deliveries = self.shared.deliveries.load(Relaxed);
        self.tracer.set_op(self.ops as u32);
        let fired_at = self.tracer.now_ns();
        let event = self.events[origin].clone();
        self.tracer
            .span(Span::FireEvent, || self.manager.fire_event(event));

        let reach = &self.reach[origin];
        let computed = self.shared.computes.load(Relaxed) - computes;
        self.checker
            .check(computed == reach.items.len() as u64, || {
                format!(
                    "fire of origin {origin}: {computed} computes, reach set is {}",
                    reach.items.len()
                )
            });
        let delivered = self.shared.deliveries.load(Relaxed) - deliveries;
        self.checker
            .check(delivered == reach.aggregates.len() as u64, || {
                format!(
                    "fire of origin {origin}: {delivered} notifications for {} aggregates",
                    reach.aggregates.len()
                )
            });
        let mut visible_at = fired_at;
        for &k in &reach.aggregates {
            let seen = &self.shared.seen[k];
            let (got, want) = (seen.value.load(Relaxed), self.model.aggregates[k]);
            self.checker.check(got == want, || {
                format!("aggregate {k} delivered {got}, reference {want}")
            });
            visible_at = visible_at.max(seen.at_ns.load(Relaxed));
        }
        self.latencies.push((visible_at - fired_at) as u32);
        self.ops += 1;
    }

    /// Epoch mode: one burst of enqueued updates and its flush.
    fn burst(&mut self) {
        for c in &self.shared.item_computes {
            c.store(0, Relaxed);
        }
        for s in &self.shared.seen {
            s.deliveries.store(0, Relaxed);
        }
        let mut touched = [false; ORIGINS];
        let mut stamps = [(0u64, 0usize); BURST / STAMP_EVERY];
        self.tracer.set_op((self.ops / BURST as u64) as u32);
        for u in 0..BURST {
            let origin = self.zipf.sample(&mut self.rng); // rank r is origin r
            self.bump(origin);
            touched[origin] = true;
            if u % STAMP_EVERY == 0 {
                stamps[u / STAMP_EVERY] = (self.tracer.now_ns(), origin);
            }
            let event = self.events[origin].clone();
            self.tracer
                .span(Span::EpochEnqueue, || self.manager.fire_event(event));
        }
        self.model.recompute(&self.dag, &self.counters);
        let flush_at = self.tracer.now_ns();
        let swept = self
            .tracer
            .span(Span::EpochFlush, || self.manager.flush_epoch());

        let origins = touched.iter().filter(|t| **t).count();
        self.checker.check(swept == origins, || {
            format!("flush swept {swept} origins, {origins} were enqueued")
        });
        // Exactly the union of the reach sets recomputes, each item once.
        let mut expected = [0u32; ITEMS];
        for (origin, _) in touched.iter().enumerate().filter(|(_, t)| **t) {
            for &item in &self.reach[origin].items {
                expected[item] = 1;
            }
        }
        for (item, want) in expected.iter().enumerate() {
            let got = self.shared.item_computes[item].load(Relaxed);
            self.checker.check(got == *want, || {
                format!("item {item} computed {got} times in one epoch, expected {want}")
            });
        }
        for k in 0..AGGREGATES {
            let seen = &self.shared.seen[k];
            let (got, want) = (seen.deliveries.load(Relaxed), expected[FIRST + SECOND + k]);
            self.checker.check(got == want, || {
                format!("aggregate {k} notified {got} times in one epoch, expected {want}")
            });
            let (value, reference) = (seen.value.load(Relaxed), self.model.aggregates[k]);
            self.checker.check(want == 0 || value == reference, || {
                format!("aggregate {k} delivered {value}, reference {reference}")
            });
        }
        for (enqueued_at, origin) in stamps {
            let visible_at = self.reach[origin]
                .aggregates
                .iter()
                .map(|k| self.shared.seen[*k].at_ns.load(Relaxed))
                .max()
                .unwrap_or(flush_at);
            self.latencies.push((visible_at - enqueued_at) as u32);
            if self.tracer.is_on() {
                let wait = (flush_at - enqueued_at) as f64 * self.tracer.scale();
                self.queue_waits.push(wait as u32);
            }
        }
        self.ops += BURST as u64;
    }

    /// Coalesced updates and computes since set-up.
    fn counts(&self) -> (u64, u64) {
        (
            self.manager.coalesced_update_count(),
            self.shared.computes.load(Relaxed) - self.setup_computes,
        )
    }

    /// A phase of per-event rounds with one of the manager's own tracing
    /// features on, against the untraced `reference`.
    fn overhead_of(&mut self, seconds: f64, reference: &Phase) -> f64 {
        let tracer = self.tracer.clone();
        timed(self, &tracer, seconds).overhead_vs(reference)
    }
}

impl<const EPOCH: bool> Workload for Fanout<EPOCH> {
    fn setup(seed: u64, tracer: Arc<Tracer>) -> Self {
        let rng = SmallRng::seed_from_u64(seed);
        let dag = Dag::regular();

        let manager = MetadataManager::new(VirtualClock::shared());
        let shared = Arc::new(Shared {
            tracer: tracer.clone(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            computes: AtomicU64::new(0),
            item_computes: std::array::from_fn(|_| AtomicU32::new(0)),
            deliveries: AtomicU64::new(0),
            seen: std::array::from_fn(|_| Seen::default()),
        });
        define_items(&dag, &shared, &manager);
        let subscriptions = (0..AGGREGATES)
            .map(|k| {
                let s = shared.clone();
                manager
                    .subscribe_with(
                        MetadataKey::new(AGGREGATE_NODE, format!("a{k}")),
                        move |v| s.observe(k, v),
                    )
                    .expect("aggregates are defined")
            })
            .collect();
        if EPOCH {
            // The explicit flush ends every burst; neither bound of the
            // config is reached before it (32 origins, a clock that stands).
            manager.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
                max_batch: BURST,
                max_delay: TimeSpan(u64::MAX),
            }));
        }
        let mut w = Fanout {
            reach: (0..ORIGINS).map(|o| dag.reach(o)).collect(),
            events: (0..ORIGINS)
                .map(|o| EventKey::new(FIRST_NODE, format!("origin{o}")))
                .collect(),
            tracer,
            manager,
            shared,
            _subscriptions: subscriptions,
            dag,
            zipf: Zipf::new(ORIGINS, 1.1),
            rng,
            counters: [0; ORIGINS],
            model: Model::default(),
            ops: 0,
            latencies: Vec::new(),
            queue_waits: Vec::new(),
            setup_computes: 0,
            counted: None,
            checker: Checker::default(),
        };
        let handlers = w.manager.handler_count();
        w.checker.check(handlers == ITEMS, || {
            format!("{handlers} handlers included, the DAG has {ITEMS} items")
        });
        w.setup_computes = w.shared.computes.load(Relaxed);
        w.round(); // warm-up
        w
    }

    fn round(&mut self) {
        let core_computes = self.manager.stats().computes;
        let own_computes = self.shared.computes.load(Relaxed);
        if EPOCH {
            for _ in 0..BURSTS {
                self.burst();
            }
        } else {
            let mut order: [usize; ORIGINS] = std::array::from_fn(|o| o);
            for _ in 0..FIRES_PER_ORIGIN {
                shuffle(&mut order, &mut self.rng);
                for origin in order {
                    self.fire(origin);
                }
            }
        }
        let core = self.manager.stats().computes - core_computes;
        let own = self.shared.computes.load(Relaxed) - own_computes;
        self.checker.check(core == own, || {
            format!("core counted {core} computes in a round, the closures ran {own} times")
        });
        let regressions: u64 = self
            .shared
            .seen
            .iter()
            .map(|s| s.regressions.load(Relaxed))
            .sum();
        self.checker.check(regressions == 0, || {
            format!("{regressions} notifications did not raise the version")
        });
        if self.ops == COUNTED_UPDATES {
            self.counted = Some(self.counts());
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

    fn finish(&mut self, _cfg: &super::RunConfig) {
        let failures = self.manager.stats().compute_failures;
        self.checker
            .check(failures == 0, || format!("{failures} compute failures"));
    }

    fn extras_share() -> f64 {
        if EPOCH {
            0.0
        } else {
            0.3
        }
    }

    fn extra_phases(&mut self, seconds: f64, reference: &Phase, m: &mut Metrics) {
        if EPOCH {
            return;
        }
        self.manager
            .set_trace_sink(Some(RingBufferSink::new(1 << 16)));
        let sink = self.overhead_of(seconds / 2.0, reference);
        self.manager.set_trace_sink(None);
        m.set("core.trace.sink_overhead_frac", sink);

        self.manager.enable_catalog_spans(4096);
        self.manager.set_span_sampling(SpanSampling::Ratio(1));
        let spans = self.overhead_of(seconds / 2.0, reference);
        self.manager.set_span_sampling(SpanSampling::Off);
        m.set("core.trace.span_ratio1_overhead_frac", spans);
    }

    fn layer_metrics(&mut self, trace: &Trace, m: &mut Metrics) {
        let compute = trace.totals(Span::Compute);
        let observer = trace.totals(Span::Observer);
        if EPOCH {
            let enqueue = trace.totals(Span::EpochEnqueue);
            let [flush_p50, flush_p95] = span_us(trace, Span::EpochFlush);
            let [enqueue_p50] = percentiles(&mut enqueue.samples.clone(), [0.50]);
            let [wait_p50] = percentiles(&mut self.queue_waits, [0.50]);
            // Over a fixed number of updates if the phase got that far.
            let (enqueued, (coalesced, computes)) = match self.counted {
                Some(counted) => (COUNTED_UPDATES, counted),
                None => (self.ops, self.counts()),
            };
            m.set("core.epoch.enqueue_ns_p50", enqueue_p50);
            m.set("core.epoch.flush_us_p50", flush_p50);
            m.set("core.epoch.flush_us_p95", flush_p95);
            m.set(
                "core.epoch.coalesced_frac",
                ratio(coalesced as f64, enqueued as f64),
            );
            m.set(
                "core.epoch.computes_per_update",
                ratio(computes as f64, enqueued as f64),
            );
            m.set("core.epoch.queue_wait_us_p50", wait_p50 / 1e3);
        } else {
            let fire = trace.totals(Span::FireEvent);
            let [fire_p50, fire_p95] = span_us(trace, Span::FireEvent);
            let (fires, fire_ns) = (fire.count as f64, fire.total_ns as f64);
            let closures_ns = (compute.total_ns + observer.total_ns) as f64;
            m.set("core.sweep.fire_us_p50", fire_p50);
            m.set("core.sweep.fire_us_p95", fire_p95);
            m.set(
                "core.sweep.computes_per_fire",
                ratio(compute.count as f64, fires),
            );
            m.set(
                "core.sweep.framework_ns_per_compute",
                ratio(fire_ns - closures_ns, compute.count as f64),
            );
            m.set(
                "core.handler.user_compute_frac",
                ratio(compute.total_ns as f64, fire_ns),
            );
            m.set(
                "core.observer.deliveries_per_fire",
                ratio(observer.count as f64, fires),
            );
            m.set(
                "core.observer.callback_frac",
                ratio(observer.total_ns as f64, fire_ns),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_origin_reaches_the_same_amount() {
        let dag = Dag::regular();
        let mut children = [0; FIRST];
        for [l, r] in dag.second_parents {
            children[l] += 1;
            children[r] += 1;
        }
        assert!(children.iter().all(|c| *c == 2));
        let mut dealt: Vec<usize> = dag.aggregate_parents.iter().flatten().copied().collect();
        dealt.sort_unstable();
        assert_eq!(dealt, (0..SECOND).collect::<Vec<_>>());
        for origin in 0..ORIGINS {
            let reach = dag.reach(origin);
            assert!(reach.items.contains(&(2 * origin)) && reach.items.contains(&(2 * origin + 1)));
            assert_eq!((reach.items.len(), reach.aggregates.len()), (10, 4));
        }
    }

    #[test]
    fn rounds_pass_their_own_checks_in_both_modes() {
        let mut per_event = Fanout::<false>::setup(5, Arc::new(Tracer::default()));
        per_event.round();
        assert_eq!(
            per_event.checker.failed,
            0,
            "{:?}",
            per_event.checker.messages()
        );
        assert_eq!(per_event.ops, 2 * (ORIGINS * FIRES_PER_ORIGIN) as u64);

        let mut epoch = Fanout::<true>::setup(5, Arc::new(Tracer::default()));
        epoch.round();
        assert_eq!(epoch.checker.failed, 0, "{:?}", epoch.checker.messages());
        assert!(epoch.manager.coalesced_update_count() > 0);
    }
}
