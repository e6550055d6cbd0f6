//! The benchmark's own span recorder.
//!
//! Every layer is measured from outside: the driver wraps its calls into
//! the crates' public functions, and the compute/observer closures it
//! registers itself, in [`Tracer::span`]. Spans nest by call order on the
//! one driver thread, so a span's parent is whatever span was open when
//! it started, and its self time is its duration minus its children's.
//!
//! Aggregates (count, total, self time, duration samples) are kept for
//! every span; the raw records are kept for the first [`KEEP_SPANS`] only,
//! in a pre-sized vector, and written out when the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Raw span records kept for the trace file.
pub const KEEP_SPANS: usize = 100_000;

/// The layer a span's self time is charged to — the rows of
/// `bench.self_time_frac.*`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Cql,
    Graph,
    Engine,
    Costmodel,
    CoreInclude,
    CoreSweep,
    CoreEpoch,
    CorePartition,
    CoreCatalog,
    CoreRead,
    Driver,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Cql,
        Layer::Graph,
        Layer::Engine,
        Layer::Costmodel,
        Layer::CoreInclude,
        Layer::CoreSweep,
        Layer::CoreEpoch,
        Layer::CorePartition,
        Layer::CoreCatalog,
        Layer::CoreRead,
        Layer::Driver,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Cql => "cql",
            Layer::Graph => "graph",
            Layer::Engine => "engine",
            Layer::Costmodel => "costmodel",
            Layer::CoreInclude => "core.include",
            Layer::CoreSweep => "core.sweep",
            Layer::CoreEpoch => "core.epoch",
            Layer::CorePartition => "core.partition",
            Layer::CoreCatalog => "core.catalog",
            Layer::CoreRead => "core.read",
            Layer::Driver => "driver",
        }
    }
}

/// One kind of span: the call it wraps and the layer it is charged to.
///
/// A call is charged to the layer that does most of its work, because
/// from outside one call cannot be split: `cql::query_once`, the
/// continuous-query refresh and `render_prometheus` spend their time in
/// the `sys.*` snapshot, so they count as `core.catalog`, and
/// `QueryGraph::resize_window` is a `fire_event` over the cost model's
/// trivial computes, so it counts as `core.sweep`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// One whole round of the workload; the root of every other span.
    Round,
    /// A compute closure the benchmark registered.
    Compute,
    /// An observer closure the benchmark registered.
    Observer,
    CqlInstall,
    GraphRemoveQuery,
    CostmodelInstall,
    EngineRunFor,
    GraphResizeWindow,
    Subscribe,
    Unsubscribe,
    ReadSubscriptions,
    ReadKeys,
    FireEvent,
    EpochEnqueue,
    EpochFlush,
    PartitionFire,
    PartitionPump,
    CatalogSnapshot,
    CqlQueryOnce,
    CqlContinuousRefresh,
    ProfilerRender,
}

impl Span {
    pub const ALL: [Span; 21] = [
        Span::Round,
        Span::Compute,
        Span::Observer,
        Span::CqlInstall,
        Span::GraphRemoveQuery,
        Span::CostmodelInstall,
        Span::EngineRunFor,
        Span::GraphResizeWindow,
        Span::Subscribe,
        Span::Unsubscribe,
        Span::ReadSubscriptions,
        Span::ReadKeys,
        Span::FireEvent,
        Span::EpochEnqueue,
        Span::EpochFlush,
        Span::PartitionFire,
        Span::PartitionPump,
        Span::CatalogSnapshot,
        Span::CqlQueryOnce,
        Span::CqlContinuousRefresh,
        Span::ProfilerRender,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Round => "bench.round",
            Span::Compute => "bench.compute",
            Span::Observer => "bench.observer",
            Span::CqlInstall => "cql.install",
            Span::GraphRemoveQuery => "graph.remove_query",
            Span::CostmodelInstall => "costmodel.install_estimates",
            Span::EngineRunFor => "engine.run_for",
            Span::GraphResizeWindow => "graph.resize_window",
            Span::Subscribe => "core.subscribe",
            Span::Unsubscribe => "core.unsubscribe",
            Span::ReadSubscriptions => "core.subscription.read_batch",
            Span::ReadKeys => "core.shards.read_batch",
            Span::FireEvent => "core.fire_event",
            Span::EpochEnqueue => "core.epoch.enqueue",
            Span::EpochFlush => "core.epoch.flush",
            Span::PartitionFire => "core.partition.fire_event",
            Span::PartitionPump => "core.partition.pump",
            Span::CatalogSnapshot => "core.catalog.snapshot",
            Span::CqlQueryOnce => "cql.query_once",
            Span::CqlContinuousRefresh => "cql.continuous_refresh",
            Span::ProfilerRender => "profiler.render_prometheus",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Span::Round | Span::Compute | Span::Observer => Layer::Driver,
            Span::CqlInstall => Layer::Cql,
            Span::GraphRemoveQuery => Layer::Graph,
            Span::CostmodelInstall => Layer::Costmodel,
            Span::EngineRunFor => Layer::Engine,
            Span::GraphResizeWindow | Span::FireEvent => Layer::CoreSweep,
            Span::Subscribe | Span::Unsubscribe => Layer::CoreInclude,
            Span::ReadSubscriptions | Span::ReadKeys => Layer::CoreRead,
            Span::EpochEnqueue | Span::EpochFlush => Layer::CoreEpoch,
            Span::PartitionFire | Span::PartitionPump => Layer::CorePartition,
            Span::CatalogSnapshot
            | Span::CqlQueryOnce
            | Span::CqlContinuousRefresh
            | Span::ProfilerRender => Layer::CoreCatalog,
        }
    }

    /// Whether every duration is kept for percentiles. The two closure
    /// spans are too many for that; their totals are enough.
    fn keeps_samples(self) -> bool {
        !matches!(self, Span::Compute | Span::Observer)
    }
}

/// One raw span as written to `trace_<workload>.json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub span: Span,
    /// The op (round, fire, burst) the span belongs to.
    pub op_id: u32,
    /// Index of the parent record, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of one span kind over the traced phase.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    /// Every duration in ns (saturating), if the kind keeps samples.
    pub samples: Vec<u32>,
}

struct Open {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    /// Position in `records`, if the record was kept.
    record: Option<u32>,
}

#[derive(Default)]
struct Inner {
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    seen: u64,
    totals: Vec<SpanTotals>,
    op_id: u32,
    /// Wall ns to reference-clock ns, as read when the round began.
    scale: f64,
}

impl Inner {
    fn begin(&mut self, span: Span, now_ns: u64) {
        let record = (self.records.len() < KEEP_SPANS).then(|| {
            self.records.push(SpanRecord {
                span,
                op_id: self.op_id,
                parent: self.stack.last().and_then(|o| o.record),
                start_ns: now_ns,
                end_ns: now_ns,
            });
            (self.records.len() - 1) as u32
        });
        self.seen += 1;
        self.stack.push(Open {
            span,
            start_ns: now_ns,
            child_ns: 0,
            record,
        });
    }

    fn end(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("span end without begin");
        // Records keep wall time; the totals are in reference-clock time.
        let dur = (now_ns.saturating_sub(open.start_ns) as f64 * self.scale) as u64;
        if let Some(i) = open.record {
            self.records[i as usize].end_ns = now_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = &mut self.totals[open.span as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if open.span.keeps_samples() {
            t.samples.push(u32::try_from(dur).unwrap_or(u32::MAX));
        }
    }
}

/// The recorder. Shared by the driver and the closures it registers;
/// everything runs on the one driver thread, so the mutex is never
/// contended. Off by default: an untraced run pays one relaxed load per
/// [`Tracer::span`].
pub struct Tracer {
    on: AtomicBool,
    base: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            base: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was made; the time base of every
    /// span and of the driver's own latency stamps.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Starts recording, with empty totals and a pre-sized record vector.
    pub fn start(&self) {
        let mut inner = self.inner.lock().expect("tracer lock");
        *inner = Inner {
            records: Vec::with_capacity(KEEP_SPANS),
            totals: vec![SpanTotals::default(); Span::ALL.len()],
            scale: 1.0,
            ..Inner::default()
        };
        self.on.store(true, Ordering::Relaxed);
    }

    /// Stops recording and hands back what was recorded.
    pub fn stop(&self) -> Trace {
        self.on.store(false, Ordering::Relaxed);
        let inner = std::mem::take(&mut *self.inner.lock().expect("tracer lock"));
        assert!(inner.stack.is_empty(), "trace stopped inside a span");
        Trace {
            records: inner.records,
            seen: inner.seen,
            totals: inner.totals,
        }
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&self, op_id: u32) {
        if self.is_on() {
            self.inner.lock().expect("tracer lock").op_id = op_id;
        }
    }

    /// Starts a round: its op id, and the factor from wall time to
    /// reference-clock time (`clock.rs`) for the spans that end in it.
    pub fn set_round(&self, op_id: u32, scale: f64) {
        if self.is_on() {
            let mut inner = self.inner.lock().expect("tracer lock");
            inner.op_id = op_id;
            inner.scale = scale;
        }
    }

    /// The current round's factor from wall time to reference-clock time.
    pub fn scale(&self) -> f64 {
        self.inner.lock().expect("tracer lock").scale
    }

    /// Runs `f` inside a span of kind `span` (or just runs it when off).
    pub fn span<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let start = self.now_ns();
        self.inner.lock().expect("tracer lock").begin(span, start);
        let r = f();
        let end = self.now_ns();
        self.inner.lock().expect("tracer lock").end(end);
        r
    }
}

/// What one traced phase recorded.
pub struct Trace {
    pub records: Vec<SpanRecord>,
    /// Spans seen, kept or not.
    pub seen: u64,
    totals: Vec<SpanTotals>,
}

impl Trace {
    pub fn totals(&self, span: Span) -> &SpanTotals {
        &self.totals[span as usize]
    }

    /// Wall time of the traced phase: the sum of its root spans.
    pub fn root_ns(&self) -> u64 {
        self.totals(Span::Round).total_ns
    }

    /// Self time charged to `layer` as a share of the traced phase.
    pub fn self_time_frac(&self, layer: Layer) -> f64 {
        let root = self.root_ns();
        if root == 0 {
            return 0.0;
        }
        let self_ns: u64 = Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| self.totals(*s).self_ns)
            .sum();
        self_ns as f64 / root as f64
    }

    /// The trace file: a header and the kept records, one per line.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.records.len() * 110 + 256);
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_seen\": {}, \
             \"spans_kept\": {}, \"truncated\": {}, \"spans\": [",
            self.seen,
            self.records.len(),
            self.seen > self.records.len() as u64
        );
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.records.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"op_id\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                r.span.name(),
                r.span.layer().name(),
                r.op_id,
                r.start_ns,
                r.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the bookkeeping with hand-made times.
    fn replay(events: &[(Option<Span>, u64)]) -> Trace {
        let mut inner = Inner {
            totals: vec![SpanTotals::default(); Span::ALL.len()],
            scale: 1.0,
            ..Inner::default()
        };
        for (span, at) in events {
            match span {
                Some(s) => inner.begin(*s, *at),
                None => inner.end(*at),
            }
        }
        Trace {
            records: inner.records,
            seen: inner.seen,
            totals: inner.totals,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // round 0..100 { fire 10..70 { compute 20..30, observer 40..45 }, read 80..90 }
        let t = replay(&[
            (Some(Span::Round), 0),
            (Some(Span::FireEvent), 10),
            (Some(Span::Compute), 20),
            (None, 30),
            (Some(Span::Observer), 40),
            (None, 45),
            (None, 70),
            (Some(Span::ReadKeys), 80),
            (None, 90),
            (None, 100),
        ]);
        assert_eq!(t.totals(Span::FireEvent).total_ns, 60);
        assert_eq!(t.totals(Span::FireEvent).self_ns, 45);
        assert_eq!(t.totals(Span::Round).self_ns, 30);
        assert_eq!(t.totals(Span::Compute).self_ns, 10);
        assert_eq!(t.root_ns(), 100);
        assert!((t.self_time_frac(Layer::CoreSweep) - 0.45).abs() < 1e-12);
        assert!((t.self_time_frac(Layer::CoreRead) - 0.10).abs() < 1e-12);
        // driver = round self 30 + compute 10 + observer 5
        assert!((t.self_time_frac(Layer::Driver) - 0.45).abs() < 1e-12);
        let all: f64 = Layer::ALL.iter().map(|l| t.self_time_frac(*l)).sum();
        assert!((all - 1.0).abs() < 1e-12, "self times partition the round");
    }

    #[test]
    fn records_carry_parents_and_samples() {
        let t = replay(&[
            (Some(Span::Round), 0),
            (Some(Span::FireEvent), 1),
            (Some(Span::Compute), 2),
            (None, 3),
            (None, 4),
            (None, 5),
        ]);
        assert_eq!(t.seen, 3);
        assert_eq!(t.records[0].parent, None);
        assert_eq!(t.records[1].parent, Some(0));
        assert_eq!(t.records[2].parent, Some(1));
        assert_eq!(t.records[2].end_ns, 3);
        assert_eq!(t.totals(Span::FireEvent).samples, vec![3]);
        assert!(t.totals(Span::Compute).samples.is_empty());
        let json = t.to_json("w", 7);
        assert!(json.contains("\"spans_seen\": 3"));
        assert!(json.contains("\"name\": \"bench.compute\", \"layer\": \"driver\""));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn tracer_is_inert_until_started() {
        let t = Tracer::default();
        assert_eq!(t.span(Span::Round, || 3), 3);
        t.start();
        t.set_op(9);
        t.span(Span::Round, || t.span(Span::Compute, || ()));
        let trace = t.stop();
        assert_eq!(trace.seen, 2);
        assert_eq!(trace.records[1].op_id, 9);
        assert_eq!(trace.totals(Span::Round).count, 1);
        // Stopped: nothing more is recorded.
        t.span(Span::Round, || ());
        assert_eq!(t.stop().seen, 0);
    }
}
