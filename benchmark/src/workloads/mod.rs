//! The four workloads and the run protocol they share.
//!
//! One driver thread, closed loop: a workload is a `round` of a fixed op
//! count, repeated whole until the time budget is used.
//!
//! An untraced run is [`SEGMENTS`] segments, each a fresh set-up (timed,
//! several times over) followed by its share of the rounds, so that
//! set-up times are sampled across the run and no single instance decides
//! the result. It reports the end-to-end metrics. A traced run sets up
//! once and splits the budget into an untraced reference phase, the
//! traced phase the per-layer metrics come from, and the workload's extra
//! phases; the end-to-end metrics never come from it.
//!
//! **Time is core-clock time.** The sandbox this was written on steps
//! its core clock between two frequencies 22% apart (see `clock.rs`), so
//! every round and every set-up is bracketed by two readings of the core
//! frequency, its wall time is converted to seconds of the reference
//! clock, and a round during which the frequency changed is left out.
//! Throughput is then the median of the per-round rates, set-up time the
//! median of the set-ups, and the latency percentiles are taken over the
//! rounds' converted samples.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::clock::reference_scale;
use crate::report::{Checker, Metrics, PER_LAYER};
use crate::stats::{median, percentiles};
use crate::trace::{Layer, Span, Trace, Tracer};

pub mod control_plane;
pub mod fanout;
pub mod query_mix;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "query_mix",
    "fanout_per_event",
    "fanout_epoch",
    "control_plane",
];

/// Fresh instances an untraced run times its rounds on, one after another.
const SEGMENTS: usize = 8;
/// Instance `i` of a run is built from `seed + i * SEED_STRIDE`: what a
/// seed draws (which slots are subscribed, which queries churn) moves the
/// timings by a few percent, and a run reports the median over instances
/// that drew differently. Instance 0 has the run's own seed.
const SEED_STRIDE: u64 = 7919;
/// Set-ups at the start of each segment: at least `MIN_SETUPS`, then more
/// while they are cheap, up to `MAX_SETUPS` or `SETUP_BUDGET_S` spent.
const MIN_SETUPS: usize = 2;
const MAX_SETUPS: usize = 6;
const SETUP_BUDGET_S: f64 = 0.25;
/// The core clock changed during a round if the readings before and
/// after it differ by more than this share (the two states are 22% apart).
const CLOCK_TOLERANCE: f64 = 0.03;
/// `update_visible` samples kept per round, evenly spaced, so that sample
/// storage stays small beside the system's own memory.
const SAMPLES_PER_ROUND: usize = 32;
/// Share of a traced run's budget spent on the untraced reference phase.
const REFERENCE_SHARE: f64 = 0.25;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rewrite the committed expected results instead of checking them.
    pub bless: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    pub metrics: Metrics,
    pub trace: Option<Trace>,
}

struct Round {
    /// Ops per second of the reference clock.
    rate: f64,
    /// `update_visible` samples of the round, ns of the reference clock.
    latencies: Vec<u32>,
}

/// The rounds of one timed phase, those with a steady clock.
#[derive(Default)]
pub struct Phase {
    pub ops: u64,
    rounds: Vec<Round>,
}

impl Phase {
    /// Ops per second: the median over the phase's rounds. Every round
    /// does the same work, periodic chores included.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r.rate).collect::<Vec<_>>())
    }

    /// `1 - self/reference`: what the difference between two phases of
    /// the same rounds costs, as a share of the reference rate.
    pub fn overhead_vs(&self, reference: &Phase) -> f64 {
        1.0 - self.ops_per_s() / reference.ops_per_s()
    }

    /// The `update_visible` samples of all rounds.
    fn latencies(&self) -> Vec<u32> {
        self.rounds
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect()
    }

    fn append(&mut self, mut other: Phase) {
        self.ops += other.ops;
        self.rounds.append(&mut other.rounds);
    }
}

/// Wall time converted to the reference clock, given the clock readings
/// before and after; `None` if the clock changed in between.
fn steady_scale(before: f64, after: f64) -> Option<f64> {
    ((after / before - 1.0).abs() <= CLOCK_TOLERANCE).then_some((before + after) / 2.0)
}

pub trait Workload: Sized {
    /// Builds the system under test from `seed` and runs the warm-up round.
    fn setup(seed: u64, tracer: Arc<Tracer>) -> Self;
    /// One round: a fixed number of ops, each checked.
    fn round(&mut self);
    /// Ops completed since set-up.
    fn ops(&self) -> u64;
    /// The `update_visible` samples (ns) taken since the last call.
    fn take_latencies(&mut self) -> Vec<u32>;
    fn checker(&mut self) -> &mut Checker;
    /// Called where the traced phase starts: read the counters that
    /// [`Self::layer_metrics`] reports as differences.
    fn mark(&mut self) {}
    /// Checks that need the whole run (expected results, failure counters).
    fn finish(&mut self, _cfg: &RunConfig) {}
    /// Share of a traced run's budget that [`Self::extra_phases`] uses.
    fn extras_share() -> f64 {
        0.0
    }
    /// Extra phases of the traced run (calibrations against `reference`).
    fn extra_phases(&mut self, _seconds: f64, _reference: &Phase, _m: &mut Metrics) {}
    /// Fills in the per-layer metrics of the layers this workload enters.
    fn layer_metrics(&mut self, trace: &Trace, m: &mut Metrics);
}

/// Runs whole rounds until `seconds` of wall time have passed.
pub fn timed<W: Workload>(w: &mut W, tracer: &Tracer, seconds: f64) -> Phase {
    let start = Instant::now();
    let ops_before = w.ops();
    let mut rounds = Vec::new();
    let mut unsteady = Vec::new();
    w.take_latencies(); // samples from before the phase are not its own
    let mut scale_before = reference_scale();
    loop {
        let ops = w.ops();
        tracer.set_round(rounds.len() as u32, scale_before);
        let t = Instant::now();
        tracer.span(Span::Round, || w.round());
        let secs = t.elapsed().as_secs_f64();
        let scale_after = reference_scale();
        let samples = w.take_latencies();
        let round = |scale: f64| Round {
            rate: (w.ops() - ops) as f64 / (secs * scale),
            latencies: samples
                .iter()
                .step_by(samples.len().div_ceil(SAMPLES_PER_ROUND).max(1))
                .map(|ns| (*ns as f64 * scale) as u32)
                .collect(),
        };
        match steady_scale(scale_before, scale_after) {
            Some(scale) => rounds.push(round(scale)),
            None => unsteady.push(round((scale_before + scale_after) / 2.0)),
        }
        scale_before = scale_after;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if rounds.is_empty() {
        rounds = unsteady; // a phase too short to be choosy
    }
    Phase {
        ops: w.ops() - ops_before,
        rounds,
    }
}

/// What the checks of the instances of one run found.
#[derive(Default)]
struct Verdict {
    failed: u64,
    messages: Vec<String>,
}

impl Verdict {
    fn finish<W: Workload>(&mut self, mut w: W, cfg: &RunConfig) {
        w.finish(cfg);
        let checker = w.checker();
        self.failed += checker.failed;
        self.messages.extend_from_slice(checker.messages());
        self.messages.truncate(10);
    }
}

pub fn run<W: Workload>(cfg: &RunConfig) -> Outcome {
    let tracer = Arc::new(Tracer::default());
    let mut verdict = Verdict::default();
    let (metrics, ops, trace) = if cfg.trace {
        run_traced::<W>(cfg, &tracer, &mut verdict)
    } else {
        run_untraced::<W>(cfg, &tracer, &mut verdict)
    };
    Outcome {
        attempted: ops.max(1),
        failed: verdict.failed,
        messages: verdict.messages,
        metrics,
        trace,
    }
}

fn run_untraced<W: Workload>(
    cfg: &RunConfig,
    tracer: &Arc<Tracer>,
    verdict: &mut Verdict,
) -> (Metrics, u64, Option<Trace>) {
    let mut setups = Vec::new();
    let mut unsteady_setups = Vec::new();
    let mut phase = Phase::default();
    for segment in 0..SEGMENTS {
        let seed = cfg.seed.wrapping_add(segment as u64 * SEED_STRIDE);
        let mut w = None;
        let (mut done, mut spent) = (0, 0.0);
        while done < MIN_SETUPS || (done < MAX_SETUPS && spent < SETUP_BUDGET_S) {
            drop(w.take()); // tear the previous system down outside the timing
            let scale_before = reference_scale();
            let t = Instant::now();
            w = Some(W::setup(seed, tracer.clone()));
            let secs = t.elapsed().as_secs_f64();
            done += 1;
            spent += secs;
            match steady_scale(scale_before, reference_scale()) {
                Some(scale) => setups.push(secs * scale),
                None => unsteady_setups.push(secs),
            }
        }
        let mut w = w.expect("at least one set-up");
        phase.append(timed(&mut w, tracer, cfg.seconds / SEGMENTS as f64));
        verdict.finish(w, cfg);
    }

    if setups.is_empty() {
        setups = unsteady_setups;
    }
    let mut latencies = phase.latencies();
    let [p50] = percentiles(&mut latencies, [0.50]);

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("ops_per_s", phase.ops_per_s());
    m.set("update_visible_us_p50", p50 / 1e3);
    m.set("peak_rss_mb", peak_rss_mb());
    println!(
        "# {} set-ups and {} rounds with a steady clock ({} ops in all), {} update_visible samples",
        setups.len(),
        phase.rounds.len(),
        phase.ops,
        latencies.len(),
    );
    (m, phase.ops, None)
}

fn run_traced<W: Workload>(
    cfg: &RunConfig,
    tracer: &Arc<Tracer>,
    verdict: &mut Verdict,
) -> (Metrics, u64, Option<Trace>) {
    let mut w = W::setup(cfg.seed, tracer.clone());
    let reference = timed(&mut w, tracer, cfg.seconds * REFERENCE_SHARE);

    w.mark();
    tracer.start();
    let traced_seconds = cfg.seconds * (1.0 - REFERENCE_SHARE - W::extras_share());
    let traced = timed(&mut w, tracer, traced_seconds);
    let trace = tracer.stop();

    let mut m = Metrics::zeroed(PER_LAYER);
    let [p95] = percentiles(&mut reference.latencies(), [0.95]);
    m.set("bench.update_visible_us_p95", p95 / 1e3);
    m.set("bench.trace_overhead_frac", traced.overhead_vs(&reference));
    for layer in Layer::ALL {
        m.set(self_time_metric(layer), trace.self_time_frac(layer));
    }
    w.layer_metrics(&trace, &mut m);
    w.extra_phases(cfg.seconds * W::extras_share(), &reference, &mut m);
    println!(
        "# {} spans seen, {} kept, {} traced rounds",
        trace.seen,
        trace.records.len(),
        traced.rounds.len()
    );
    verdict.finish(w, cfg);
    (m, reference.ops + traced.ops, Some(trace))
}

fn self_time_metric(layer: Layer) -> &'static str {
    match layer {
        Layer::Cql => "bench.self_time_frac.cql",
        Layer::Graph => "bench.self_time_frac.graph",
        Layer::Engine => "bench.self_time_frac.engine",
        Layer::Costmodel => "bench.self_time_frac.costmodel",
        Layer::CoreInclude => "bench.self_time_frac.core.include",
        Layer::CoreSweep => "bench.self_time_frac.core.sweep",
        Layer::CoreEpoch => "bench.self_time_frac.core.epoch",
        Layer::CorePartition => "bench.self_time_frac.core.partition",
        Layer::CoreCatalog => "bench.self_time_frac.core.catalog",
        Layer::CoreRead => "bench.self_time_frac.core.read",
        Layer::Driver => "bench.self_time_frac.driver",
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a watched item's observer saw last. One thread touches it; the
/// atomics are only there because observer closures must be `Sync`.
#[derive(Default)]
pub struct Seen {
    /// The delivered value (bits of it, for a float).
    pub value: AtomicU64,
    pub version: AtomicU64,
    pub deliveries: AtomicU32,
    /// When the observer returned, tracer ns.
    pub at_ns: AtomicU64,
    /// Notifications that did not raise the version.
    pub regressions: AtomicU64,
}

impl Seen {
    pub fn record(&self, value: u64, version: u64, at_ns: u64) {
        self.value.store(value, Relaxed);
        if self.version.swap(version, Relaxed) >= version {
            self.regressions.fetch_add(1, Relaxed);
        }
        self.deliveries.fetch_add(1, Relaxed);
        self.at_ns.store(at_ns, Relaxed);
    }
}

/// Median and 95th percentile of a span kind's durations, in µs.
pub fn span_us(trace: &Trace, span: Span) -> [f64; 2] {
    let mut samples = trace.totals(span).samples.clone();
    percentiles(&mut samples, [0.50, 0.95]).map(|ns| ns / 1e3)
}

/// `a / b`, or 0 when the layer was never entered.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Fisher–Yates shuffle driven by the run's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_across_a_clock_step_is_not_steady() {
        assert_eq!(steady_scale(1.0, 1.02), Some(1.01));
        assert_eq!(steady_scale(1.4, 1.1), None);
        assert_eq!(steady_scale(1.1, 1.4), None);
    }

    #[test]
    fn throughput_is_the_median_round() {
        let phase = |rates: &[f64]| Phase {
            ops: 0,
            rounds: rates
                .iter()
                .map(|r| Round {
                    rate: *r,
                    latencies: Vec::new(),
                })
                .collect(),
        };
        let p = phase(&[100.0, 101.0, 99.0, 20.0, 100.5]);
        assert_eq!(p.ops_per_s(), 100.0);
        assert!((phase(&[90.0]).overhead_vs(&p) - 0.1).abs() < 1e-12);
    }
}
