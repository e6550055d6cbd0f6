//! `control_plane`: writes to the dependency graph, not to its values.
//!
//! A 4-partition plane holds 3 334 dependency chains of depth 6 (20 004
//! defined items), each crossing a partition boundary once. 2 000 chains
//! stay subscribed. An op subscribes a cold chain, reads, updates the
//! chain's source on its owner partition, pumps the update across, and
//! drops the subscription again. Include/exclude, the partition pump, the
//! read paths and the catalog snapshot do the work; the sweep almost none.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use streammeta_core::{
    EventKey, ItemDef, MetadataKey, MetadataValue, NodeId, NodeRegistry, PartitionedMetadataPlane,
    Subscription, SystemRelation, VersionedValue,
};
use streammeta_cql::{attach_system, install_continuous, query_once, Catalog, ContinuousQuery};
use streammeta_profiler::Recorder;
use streammeta_time::{TimeSpan, VirtualClock};

use super::{ratio, span_us, RunConfig, Seen, Workload};
use crate::report::{Checker, Metrics};
use crate::trace::{Span, Trace, Tracer};

const PARTITIONS: usize = 4;
const CHAINS: usize = 3334;
const HELD: usize = 2000;
/// First node id of the chains' dependent halves.
const DEP_BASE: u32 = 1_000_000;
/// What a chain's head adds to its source counter: one per hop.
const CHAIN_OFFSET: u64 = 5;

const SUBSCRIPTION_READS: usize = 256;
const KEY_READS: usize = 64;
/// Ops per round. The last op of a round also pays the catalog chores, so
/// every round does the same work.
const OPS_PER_ROUND: usize = 16;
const TRACKED_SERIES: usize = 32;
const CONTINUOUS_PERIOD: TimeSpan = TimeSpan(10);
/// Never matches; every refresh still evaluates it over all of `sys.handlers`.
const CONTINUOUS_QUERY: &str = "SELECT key, computes FROM sys.handlers WHERE computes > 1000000000";

struct Chain {
    /// The dependent half's head item, `d2`.
    head: MetadataKey,
    /// The source half's `bump` event.
    bump: EventKey,
    /// Partition of the dependent half, where the head's observer lives.
    home: usize,
}

/// State shared with the compute and observer closures.
struct Shared {
    tracer: Arc<Tracer>,
    counters: Vec<AtomicU64>,
    /// The cold chain's head, as its observer saw it.
    seen: Seen,
}

impl Shared {
    fn compute(&self, value: impl FnOnce() -> MetadataValue) -> MetadataValue {
        self.tracer.span(Span::Compute, value)
    }

    fn observe(&self, v: &VersionedValue) {
        self.tracer.span(Span::Observer, || {
            let value = v.value.as_u64().unwrap_or(u64::MAX);
            self.seen.record(value, v.version, self.tracer.now_ns());
        })
    }
}

/// The one dependency of a chain hop.
enum Upstream {
    Local(&'static str),
    Remote(MetadataKey),
}

/// `upstream + 1`, the one thing every hop of a chain computes.
fn successor(shared: &Arc<Shared>, name: &str, upstream: Upstream) -> ItemDef {
    let s = shared.clone();
    let def = ItemDef::triggered(name);
    let (def, role) = match upstream {
        Upstream::Local(path) => (def.dep_local(path), path),
        Upstream::Remote(key) => (def.dep_remote("up", key), "up"),
    };
    def.compute(move |ctx| {
        s.compute(|| match ctx.dep(role).as_u64() {
            Some(v) => MetadataValue::U64(v + 1),
            None => MetadataValue::Unavailable,
        })
    })
    .build()
}

fn build_chain(plane: &PartitionedMetadataPlane, shared: &Arc<Shared>, c: usize) -> Chain {
    let src = NodeId(c as u32);
    let owner = plane.owner_of(src);
    let mut dep = NodeId(DEP_BASE + c as u32);
    while plane.owner_of(dep) == owner {
        dep = NodeId(dep.0 + CHAINS as u32);
    }

    let source = NodeRegistry::new(src);
    let s = shared.clone();
    source.define(
        ItemDef::triggered("s0")
            .on_event("bump")
            .compute(move |_| s.compute(|| MetadataValue::U64(s.counters[c].load(Relaxed))))
            .build(),
    );
    source.define(successor(shared, "s1", Upstream::Local("s0")));
    source.define(successor(shared, "s2", Upstream::Local("s1")));
    plane.attach_node(source);

    let dependent = NodeRegistry::new(dep);
    let remote = Upstream::Remote(MetadataKey::new(src, "s2"));
    dependent.define(successor(shared, "d0", remote));
    dependent.define(successor(shared, "d1", Upstream::Local("d0")));
    dependent.define(successor(shared, "d2", Upstream::Local("d1")));
    plane.attach_node(dependent);

    Chain {
        head: MetadataKey::new(dep, "d2"),
        bump: EventKey::new(src, "bump"),
        home: plane.owner_of(dep),
    }
}

/// Counters read where the traced phase starts.
#[derive(Default)]
struct Mark {
    ops: u64,
    remote_updates: u64,
    included_items: u64,
    pumps: u64,
    pumped: u64,
    catalog_rows: u64,
}

pub struct ControlPlane {
    tracer: Arc<Tracer>,
    clock: Arc<VirtualClock>,
    plane: Arc<PartitionedMetadataPlane>,
    shared: Arc<Shared>,
    chains: Vec<Chain>,
    /// Subscriptions on the heads of chains `0..HELD`.
    held: Vec<Subscription>,
    catalog: Catalog,
    continuous: ContinuousQuery,
    recorder: Recorder,
    /// Handlers over all partitions while no cold chain is subscribed.
    baseline_handlers: usize,
    rng: SmallRng,
    counters: Vec<u64>,
    ops: u64,
    latencies: Vec<u32>,
    included_items: u64,
    pumps: u64,
    pumped: u64,
    catalog_rows: u64,
    mark: Mark,
    checker: Checker,
}

impl ControlPlane {
    fn handlers(&self) -> usize {
        self.plane
            .partitions()
            .iter()
            .map(|m| m.handler_count())
            .sum()
    }

    fn remote_updates(&self) -> u64 {
        self.plane
            .partitions()
            .iter()
            .map(|m| m.remote_update_count())
            .sum()
    }

    /// Checks one read of chain `c`'s head: fresh, and the reference value.
    fn check_read(&mut self, c: usize, v: &VersionedValue) {
        let want = self.counters[c] + CHAIN_OFFSET;
        self.checker
            .check(!v.degraded && v.value.as_u64() == Some(want), || {
                format!(
                    "read of chain {c} gave {:?} (degraded {}), reference {want}",
                    v.value, v.degraded
                )
            });
    }

    fn op(&mut self, with_chores: bool) {
        let c = self.rng.gen_range(HELD..CHAINS);
        let (head, bump, home) = {
            let chain = &self.chains[c];
            (chain.head.clone(), chain.bump.clone(), chain.home)
        };
        self.tracer.set_op(self.ops as u32);
        self.shared.seen.deliveries.store(0, Relaxed);
        self.shared.seen.version.store(0, Relaxed);

        let s = self.shared.clone();
        let subscription = self.tracer.span(Span::Subscribe, || {
            self.plane
                .partition(home)
                .subscribe_with(head, move |v| s.observe(v))
                .expect("chain heads are defined")
        });
        self.included_items += (self.handlers() - self.baseline_handlers) as u64;

        let mut reads = Vec::with_capacity(SUBSCRIPTION_READS);
        let picks: Vec<usize> = (0..SUBSCRIPTION_READS)
            .map(|_| self.rng.gen_range(0..HELD))
            .collect();
        self.tracer.span(Span::ReadSubscriptions, || {
            reads.extend(picks.iter().map(|c| self.held[*c].versioned()));
        });
        for (c, v) in picks.iter().zip(&reads) {
            self.check_read(*c, v);
        }
        reads.clear();
        let picks: Vec<usize> = (0..KEY_READS)
            .map(|_| self.rng.gen_range(0..HELD))
            .collect();
        self.tracer.span(Span::ReadKeys, || {
            reads.extend(picks.iter().map(|c| {
                self.plane
                    .read_versioned(&self.chains[*c].head)
                    .expect("held heads are included")
            }));
        });
        for (c, v) in picks.iter().zip(&reads) {
            self.check_read(*c, v);
        }

        self.counters[c] += 1;
        self.shared.counters[c].store(self.counters[c], Relaxed);
        let fired_at = self.tracer.now_ns();
        self.tracer
            .span(Span::PartitionFire, || self.plane.fire_event(bump));
        if with_chores {
            // One cooperative loop: the chores run before the pump, so
            // this op's update waits for them.
            self.chores();
        }
        let applied = self.tracer.span(Span::PartitionPump, || self.plane.pump());
        self.pumps += 1;
        self.pumped += applied as u64;

        // The snapshot at registration, then the pumped update.
        let deliveries = self.shared.seen.deliveries.load(Relaxed);
        self.checker.check(deliveries == 2, || {
            format!("chain {c}: {deliveries} notifications, expected 2")
        });
        let (got, want) = (
            self.shared.seen.value.load(Relaxed),
            self.counters[c] + CHAIN_OFFSET,
        );
        self.checker.check(got == want, || {
            format!("chain {c} delivered {got} after the pump, reference {want}")
        });
        let visible_at = self.shared.seen.at_ns.load(Relaxed).max(fired_at);
        self.latencies.push((visible_at - fired_at) as u32);

        self.tracer.span(Span::Unsubscribe, || drop(subscription));
        let handlers = self.handlers();
        self.checker.check(handlers == self.baseline_handlers, || {
            format!(
                "{handlers} handlers after the drop, baseline {}",
                self.baseline_handlers
            )
        });
        self.ops += 1;
    }

    /// What an operator's tooling does now and then: snapshot the
    /// catalog, query it, let the continuous query refresh, scrape.
    fn chores(&mut self) {
        let manager = self.plane.partition(0).clone();
        let rows = self.tracer.span(Span::CatalogSnapshot, || {
            manager.catalog_rows(SystemRelation::Items).len()
                + manager.catalog_rows(SystemRelation::Handlers).len()
        });
        self.catalog_rows += rows as u64;

        let counted = self.tracer.span(Span::CqlQueryOnce, || {
            query_once(&self.catalog, "SELECT COUNT(*) FROM sys.items")
        });
        let counted = counted
            .ok()
            .and_then(|r| r.rows.first().and_then(|row| row.first().cloned()))
            .and_then(|cell| cell.as_f64());
        let handlers = manager.handler_count() as f64;
        self.checker.check(counted == Some(handlers), || {
            format!("COUNT(*) over sys.items gave {counted:?}, partition 0 has {handlers} handlers")
        });

        self.tracer.span(Span::CqlContinuousRefresh, || {
            let now = self.clock.advance(CONTINUOUS_PERIOD);
            manager.periodic().advance_to(now);
        });
        let matches = self.continuous.matches().len();
        self.checker.check(matches == 0, || {
            format!("the continuous query matched {matches} rows, expected none")
        });

        let text = self
            .tracer
            .span(Span::ProfilerRender, || self.recorder.render_prometheus());
        let series = text.matches("# TYPE streammeta_head").count();
        self.checker.check(series == TRACKED_SERIES, || {
            format!("the scrape rendered {series} tracked series, expected {TRACKED_SERIES}")
        });
    }
}

impl Workload for ControlPlane {
    fn setup(seed: u64, tracer: Arc<Tracer>) -> Self {
        let clock = VirtualClock::shared();
        let plane = PartitionedMetadataPlane::new(clock.clone(), PARTITIONS);
        let shared = Arc::new(Shared {
            tracer: tracer.clone(),
            counters: (0..CHAINS).map(|_| AtomicU64::new(0)).collect(),
            seen: Seen::default(),
        });
        let chains: Vec<Chain> = (0..CHAINS)
            .map(|c| build_chain(&plane, &shared, c))
            .collect();
        let held: Vec<Subscription> = chains[..HELD]
            .iter()
            .map(|chain| {
                plane
                    .subscribe(chain.head.clone())
                    .expect("chain heads are defined")
            })
            .collect();

        let mut catalog = Catalog::new();
        attach_system(&mut catalog, plane.partition(0).clone());
        let continuous = install_continuous(&catalog, CONTINUOUS_QUERY, CONTINUOUS_PERIOD)
            .expect("the continuous query compiles");
        let mut recorder = Recorder::new(plane.partition(0).clone());
        for (i, chain) in chains[..HELD]
            .iter()
            .filter(|chain| chain.home == 0)
            .take(TRACKED_SERIES)
            .enumerate()
        {
            recorder
                .track(format!("head{i}"), chain.head.clone())
                .expect("held heads are defined");
        }

        let mut w = ControlPlane {
            baseline_handlers: 0,
            tracer,
            clock,
            plane,
            shared,
            chains,
            held,
            catalog,
            continuous,
            recorder,
            rng: SmallRng::seed_from_u64(seed),
            counters: vec![0; CHAINS],
            ops: 0,
            latencies: Vec::new(),
            included_items: 0,
            pumps: 0,
            pumped: 0,
            catalog_rows: 0,
            mark: Mark::default(),
            checker: Checker::default(),
        };
        w.plane.pump(); // the held links' first snapshots
        w.baseline_handlers = w.handlers();
        w.round(); // warm-up
        w
    }

    fn round(&mut self) {
        for i in 0..OPS_PER_ROUND {
            self.op(i + 1 == OPS_PER_ROUND);
        }
        let regressions = self.shared.seen.regressions.load(Relaxed);
        self.checker.check(regressions == 0, || {
            format!("{regressions} notifications did not raise the version")
        });
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
            ops: self.ops,
            remote_updates: self.remote_updates(),
            included_items: self.included_items,
            pumps: self.pumps,
            pumped: self.pumped,
            catalog_rows: self.catalog_rows,
        };
    }

    fn finish(&mut self, _cfg: &RunConfig) {
        let failures: u64 = self
            .plane
            .partitions()
            .iter()
            .map(|m| m.stats().compute_failures)
            .sum();
        self.checker
            .check(failures == 0, || format!("{failures} compute failures"));
    }

    fn layer_metrics(&mut self, trace: &Trace, m: &mut Metrics) {
        let ops = (self.ops - self.mark.ops) as f64;
        let [include_p50, include_p95] = span_us(trace, Span::Subscribe);
        let [exclude_p50, exclude_p95] = span_us(trace, Span::Unsubscribe);
        m.set("core.include_us_p50", include_p50);
        m.set("core.include_us_p95", include_p95);
        m.set("core.exclude_us_p50", exclude_p50);
        m.set("core.exclude_us_p95", exclude_p95);
        m.set(
            "core.include_items_per_subscribe",
            ratio((self.included_items - self.mark.included_items) as f64, ops),
        );
        let per_read = |span: Span, batch: usize| {
            let t = trace.totals(span);
            ratio(t.total_ns as f64, (t.count * batch as u64) as f64)
        };
        m.set(
            "core.subscription.read_ns_per_op",
            per_read(Span::ReadSubscriptions, SUBSCRIPTION_READS),
        );
        m.set(
            "core.shards.read_ns_per_op",
            per_read(Span::ReadKeys, KEY_READS),
        );
        m.set(
            "core.partition.pump_us_p50",
            span_us(trace, Span::PartitionPump)[0],
        );
        m.set(
            "core.partition.msgs_per_pump",
            ratio(
                (self.pumped - self.mark.pumped) as f64,
                (self.pumps - self.mark.pumps) as f64,
            ),
        );
        m.set(
            "core.partition.fire_us_p50",
            span_us(trace, Span::PartitionFire)[0],
        );
        m.set(
            "core.partition.remote_updates_per_op",
            ratio(
                (self.remote_updates() - self.mark.remote_updates) as f64,
                ops,
            ),
        );
        m.set(
            "core.catalog.snapshot_us_per_krow",
            ratio(
                trace.totals(Span::CatalogSnapshot).total_ns as f64 / 1e3,
                (self.catalog_rows - self.mark.catalog_rows) as f64 / 1e3,
            ),
        );
        m.set(
            "cql.query_once_us_p50",
            span_us(trace, Span::CqlQueryOnce)[0],
        );
        m.set(
            "cql.continuous_refresh_us_p50",
            span_us(trace, Span::CqlContinuousRefresh)[0],
        );
        m.set(
            "profiler.render_us_p50",
            span_us(trace, Span::ProfilerRender)[0],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_passes_its_own_checks() {
        let mut w = ControlPlane::setup(3, Arc::new(Tracer::default()));
        w.round();
        assert_eq!(w.checker.failed, 0, "{:?}", w.checker.messages());
        assert_eq!(w.ops, 2 * OPS_PER_ROUND as u64);
        assert!(w
            .chains
            .iter()
            .all(|c| c.home != w.plane.owner_of(c.bump.node)));
    }
}
