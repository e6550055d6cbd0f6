//! Trace bus: structured observability events for the metadata framework
//! itself.
//!
//! The manager narrates its own lifecycle — subscriptions, the automatic
//! DFS inclusion/exclusion of dependencies (Section 2.4 of the paper),
//! trigger-propagation rounds (Section 3.2.3), periodic firings and
//! compute failures — to an installed [`TraceSink`]. With no sink
//! installed the hot path pays a single relaxed atomic load; event
//! construction is behind that gate.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use streammeta_time::{TimeSpan, Timestamp};

use crate::MetadataKey;

/// Sampling policy for causal lineage spans (see [`SpanContext`]).
///
/// Like the trace gate, the decision is one relaxed atomic load on the
/// hot path: with `Off` (the default) no span is ever minted and
/// propagation pays nothing beyond that load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanSampling {
    /// No spans are minted (the default).
    #[default]
    Off,
    /// One of every `n` source updates mints a root span and carries
    /// lineage through its whole cascade. `Ratio(1)` traces everything.
    Ratio(u64),
}

/// Causal span context carried by a [`TraceRecord`].
///
/// A *root* span (`parent == None`, `roots == [span]`) is minted per
/// sampled source update — a `fire_event`/`notify_changed` call, a
/// periodic firing, or a subscription — and every downstream hop
/// (propagation recompute, retry, quarantine trip, observer
/// notification) gets a child span whose `parent` is the hop it was
/// caused by. In epoch propagation mode several coalesced source
/// updates feed one recompute, so `roots` lists *all* contributing root
/// span ids (sorted, deduplicated); in per-event mode it has exactly
/// one element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanContext {
    /// This hop's span id (unique per manager, minted from 1).
    pub span: u64,
    /// The causing hop's span id; `None` for root spans.
    pub parent: Option<u64>,
    /// Root span ids (trace ids) this hop descends from — more than one
    /// when coalesced epoch updates merged several cascades.
    pub roots: Vec<u64>,
    /// Hop count below the root (root = 0).
    pub depth: u32,
    /// When the hop started (the record's `at` is when it was emitted,
    /// i.e. the hop's end).
    pub start: Timestamp,
}

impl SpanContext {
    /// A root span: its own id is the trace id.
    pub fn root(span: u64, start: Timestamp) -> Self {
        SpanContext {
            span,
            parent: None,
            roots: vec![span],
            depth: 0,
            start,
        }
    }

    /// A child hop of `self` with a freshly minted id, inheriting the
    /// root set.
    pub fn child(&self, span: u64, start: Timestamp) -> Self {
        SpanContext {
            span,
            parent: Some(self.span),
            roots: self.roots.clone(),
            depth: self.depth + 1,
            start,
        }
    }
}

/// One structured event on the trace bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An external subscription request arrived for `key`.
    Subscribe {
        /// The requested item.
        key: MetadataKey,
    },
    /// An external unsubscription arrived for `key`.
    Unsubscribe {
        /// The released item.
        key: MetadataKey,
    },
    /// The inclusion DFS materialised a handler for `key`.
    Include {
        /// The included item.
        key: MetadataKey,
        /// The item's provision mechanism.
        mechanism: &'static str,
        /// Dependency depth below the subscription root (root = 0).
        depth: usize,
    },
    /// Exclusion dropped the handler of `key`.
    Exclude {
        /// The excluded item.
        key: MetadataKey,
        /// Handlers still alive after this drop.
        remaining: usize,
    },
    /// One handler was recomputed during a trigger-propagation round.
    PropagationStep {
        /// Identifier of the propagation round (monotone per manager).
        round: u64,
        /// The recomputed item.
        key: MetadataKey,
        /// Distance from the origin in the inverted dependency graph.
        depth: usize,
        /// Whether the recomputation changed the stored value.
        changed: bool,
    },
    /// A periodic handler fired at a window boundary.
    PeriodicFired {
        /// The refreshed item.
        key: MetadataKey,
        /// The scheduled window boundary.
        boundary: Timestamp,
        /// The actual instant the refresh ran.
        fired_at: Timestamp,
        /// Whether the refresh ran a full window late (deadline miss).
        missed: bool,
    },
    /// A compute function panicked; the value became `Unavailable`.
    ComputeFailed {
        /// The failing item.
        key: MetadataKey,
    },
    /// An evaluation overran its declared compute budget.
    DeadlineExceeded {
        /// The slow item.
        key: MetadataKey,
        /// The declared budget.
        budget: TimeSpan,
        /// The measured evaluation time.
        elapsed: TimeSpan,
    },
    /// A failed evaluation scheduled a backoff retry.
    RetryScheduled {
        /// The failing item.
        key: MetadataKey,
        /// Retry number within the current failure episode (1-based).
        attempt: u32,
        /// Delay until the retry fires.
        delay: TimeSpan,
    },
    /// Repeated failures tripped the quarantine circuit breaker.
    QuarantineTripped {
        /// The quarantined item.
        key: MetadataKey,
        /// When the cool-down ends and the recovery probe runs.
        until: Timestamp,
    },
    /// A quarantined item's recovery probe succeeded.
    QuarantineRecovered {
        /// The recovered item.
        key: MetadataKey,
    },
    /// A refresh stored a changed value (the version is the handler's
    /// monotone store counter — the tracelint T1 monotonicity witness).
    ValueStored {
        /// The updated item.
        key: MetadataKey,
        /// The stored value's version.
        version: u64,
    },
    /// A sampled source update minted a root span: the anchor every
    /// downstream hop's lineage must resolve to (tracelint rule T8).
    /// Emitted once per sampled `fire_event` / `notify_changed` call,
    /// before the update is swept (per-event mode) or enqueued (epoch
    /// mode).
    SourceUpdate {
        /// The updated source, rendered (`n1/rate` item or `n1!tick`
        /// event).
        origin: String,
        /// `"item"` or `"event"`.
        origin_kind: &'static str,
    },
    /// A stored value change was delivered to push observers — the end
    /// of a causal cascade, and the event whose lineage tracelint T8
    /// verifies back to a [`TraceEvent::SourceUpdate`] anchor.
    Notified {
        /// The updated item.
        key: MetadataKey,
        /// The delivered value's version.
        version: u64,
        /// Observers the snapshot was delivered to.
        observers: usize,
    },
    /// An epoch flush swept a batch of coalesced source updates
    /// (epoch propagation mode only; the per-item recomputations still
    /// emit their own [`TraceEvent::PropagationStep`] records).
    EpochFlushed {
        /// Identifier of the epoch (monotone per manager).
        epoch: u64,
        /// Distinct source updates swept by this epoch.
        origins: usize,
        /// Handlers recomputed by the sweep.
        recomputed: usize,
        /// Deepest recomputed handler's BFS distance from its origin.
        max_depth: usize,
    },
}

impl TraceEvent {
    /// Short machine-readable event name (used by the JSONL export and
    /// the profiler's pretty-printer).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Subscribe { .. } => "subscribe",
            TraceEvent::Unsubscribe { .. } => "unsubscribe",
            TraceEvent::Include { .. } => "include",
            TraceEvent::Exclude { .. } => "exclude",
            TraceEvent::PropagationStep { .. } => "propagation_step",
            TraceEvent::PeriodicFired { .. } => "periodic_fired",
            TraceEvent::ComputeFailed { .. } => "compute_failed",
            TraceEvent::DeadlineExceeded { .. } => "deadline_exceeded",
            TraceEvent::RetryScheduled { .. } => "retry_scheduled",
            TraceEvent::QuarantineTripped { .. } => "quarantine_tripped",
            TraceEvent::QuarantineRecovered { .. } => "quarantine_recovered",
            TraceEvent::ValueStored { .. } => "value_stored",
            TraceEvent::SourceUpdate { .. } => "source_update",
            TraceEvent::Notified { .. } => "notified",
            TraceEvent::EpochFlushed { .. } => "epoch_flushed",
        }
    }

    /// The item the event concerns, if any (manager-wide events like
    /// [`TraceEvent::EpochFlushed`] have none).
    pub fn key(&self) -> Option<&MetadataKey> {
        match self {
            TraceEvent::Subscribe { key }
            | TraceEvent::Unsubscribe { key }
            | TraceEvent::Include { key, .. }
            | TraceEvent::Exclude { key, .. }
            | TraceEvent::PropagationStep { key, .. }
            | TraceEvent::PeriodicFired { key, .. }
            | TraceEvent::ComputeFailed { key }
            | TraceEvent::DeadlineExceeded { key, .. }
            | TraceEvent::RetryScheduled { key, .. }
            | TraceEvent::QuarantineTripped { key, .. }
            | TraceEvent::QuarantineRecovered { key }
            | TraceEvent::ValueStored { key, .. }
            | TraceEvent::Notified { key, .. } => Some(key),
            TraceEvent::SourceUpdate { .. } | TraceEvent::EpochFlushed { .. } => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Subscribe { key } => write!(f, "subscribe {key}"),
            TraceEvent::Unsubscribe { key } => write!(f, "unsubscribe {key}"),
            TraceEvent::Include {
                key,
                mechanism,
                depth,
            } => write!(f, "include {key} mechanism={mechanism} depth={depth}"),
            TraceEvent::Exclude { key, remaining } => {
                write!(f, "exclude {key} remaining={remaining}")
            }
            TraceEvent::PropagationStep {
                round,
                key,
                depth,
                changed,
            } => write!(
                f,
                "propagation round={round} {key} depth={depth} changed={changed}"
            ),
            TraceEvent::PeriodicFired {
                key,
                boundary,
                fired_at,
                missed,
            } => write!(
                f,
                "periodic {key} boundary={boundary} fired_at={fired_at} missed={missed}"
            ),
            TraceEvent::ComputeFailed { key } => write!(f, "compute_failed {key}"),
            TraceEvent::DeadlineExceeded {
                key,
                budget,
                elapsed,
            } => write!(
                f,
                "deadline_exceeded {key} budget={budget} elapsed={elapsed}"
            ),
            TraceEvent::RetryScheduled {
                key,
                attempt,
                delay,
            } => write!(f, "retry_scheduled {key} attempt={attempt} delay={delay}"),
            TraceEvent::QuarantineTripped { key, until } => {
                write!(f, "quarantine_tripped {key} until={until}")
            }
            TraceEvent::QuarantineRecovered { key } => {
                write!(f, "quarantine_recovered {key}")
            }
            TraceEvent::ValueStored { key, version } => {
                write!(f, "value_stored {key} version={version}")
            }
            TraceEvent::SourceUpdate {
                origin,
                origin_kind,
            } => write!(f, "source_update {origin} kind={origin_kind}"),
            TraceEvent::Notified {
                key,
                version,
                observers,
            } => write!(f, "notified {key} version={version} observers={observers}"),
            TraceEvent::EpochFlushed {
                epoch,
                origins,
                recomputed,
                max_depth,
            } => write!(
                f,
                "epoch_flushed epoch={epoch} origins={origins} recomputed={recomputed} max_depth={max_depth}"
            ),
        }
    }
}

/// One sequenced, timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Per-manager emission sequence number.
    pub seq: u64,
    /// Clock instant of emission.
    pub at: Timestamp,
    /// The event.
    pub event: TraceEvent,
    /// Causal lineage, when span sampling caught this hop.
    pub span: Option<SpanContext>,
    /// Compact emitting-thread id (assigned first-sight per manager),
    /// when [`crate::MetadataManager::set_trace_thread_ids`] is on — the
    /// Chrome-trace exporter's flame track.
    pub tid: Option<u64>,
    /// Partition id of the emitting manager, when it is part of a
    /// [`crate::PartitionedMetadataPlane`]. Merged multi-partition
    /// traces key per-item lint state by `(part, key)`.
    pub part: Option<u64>,
}

impl TraceRecord {
    /// A record with no span context, thread id or partition tag.
    pub fn new(seq: u64, at: Timestamp, event: TraceEvent) -> Self {
        TraceRecord {
            seq,
            at,
            event,
            span: None,
            tid: None,
            part: None,
        }
    }

    /// The record as one JSON object (a JSONL line, without the newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"at\":");
        out.push_str(&self.at.units().to_string());
        out.push_str(",\"event\":\"");
        out.push_str(self.event.kind());
        out.push('"');
        if let Some(key) = self.event.key() {
            out.push_str(",\"key\":\"");
            push_escaped(&mut out, &key.to_string());
            out.push('"');
        }
        match &self.event {
            TraceEvent::Include {
                mechanism, depth, ..
            } => {
                out.push_str(",\"mechanism\":\"");
                push_escaped(&mut out, mechanism);
                out.push_str("\",\"depth\":");
                out.push_str(&depth.to_string());
            }
            TraceEvent::Exclude { remaining, .. } => {
                out.push_str(",\"remaining\":");
                out.push_str(&remaining.to_string());
            }
            TraceEvent::PropagationStep {
                round,
                depth,
                changed,
                ..
            } => {
                out.push_str(",\"round\":");
                out.push_str(&round.to_string());
                out.push_str(",\"depth\":");
                out.push_str(&depth.to_string());
                out.push_str(",\"changed\":");
                out.push_str(if *changed { "true" } else { "false" });
            }
            TraceEvent::PeriodicFired {
                boundary,
                fired_at,
                missed,
                ..
            } => {
                out.push_str(",\"boundary\":");
                out.push_str(&boundary.units().to_string());
                out.push_str(",\"fired_at\":");
                out.push_str(&fired_at.units().to_string());
                out.push_str(",\"missed\":");
                out.push_str(if *missed { "true" } else { "false" });
            }
            TraceEvent::DeadlineExceeded {
                budget, elapsed, ..
            } => {
                out.push_str(",\"budget\":");
                out.push_str(&budget.units().to_string());
                out.push_str(",\"elapsed\":");
                out.push_str(&elapsed.units().to_string());
            }
            TraceEvent::RetryScheduled { attempt, delay, .. } => {
                out.push_str(",\"attempt\":");
                out.push_str(&attempt.to_string());
                out.push_str(",\"delay\":");
                out.push_str(&delay.units().to_string());
            }
            TraceEvent::QuarantineTripped { until, .. } => {
                out.push_str(",\"until\":");
                out.push_str(&until.units().to_string());
            }
            TraceEvent::ValueStored { version, .. } => {
                out.push_str(",\"version\":");
                out.push_str(&version.to_string());
            }
            TraceEvent::EpochFlushed {
                epoch,
                origins,
                recomputed,
                max_depth,
            } => {
                out.push_str(",\"epoch\":");
                out.push_str(&epoch.to_string());
                out.push_str(",\"origins\":");
                out.push_str(&origins.to_string());
                out.push_str(",\"recomputed\":");
                out.push_str(&recomputed.to_string());
                out.push_str(",\"max_depth\":");
                out.push_str(&max_depth.to_string());
            }
            TraceEvent::SourceUpdate {
                origin,
                origin_kind,
            } => {
                out.push_str(",\"origin\":\"");
                push_escaped(&mut out, origin);
                out.push_str("\",\"origin_kind\":\"");
                push_escaped(&mut out, origin_kind);
                out.push('"');
            }
            TraceEvent::Notified {
                version, observers, ..
            } => {
                out.push_str(",\"version\":");
                out.push_str(&version.to_string());
                out.push_str(",\"observers\":");
                out.push_str(&observers.to_string());
            }
            TraceEvent::Subscribe { .. }
            | TraceEvent::Unsubscribe { .. }
            | TraceEvent::ComputeFailed { .. }
            | TraceEvent::QuarantineRecovered { .. } => {}
        }
        if let Some(span) = &self.span {
            out.push_str(",\"span\":");
            out.push_str(&span.span.to_string());
            if let Some(parent) = span.parent {
                out.push_str(",\"parent\":");
                out.push_str(&parent.to_string());
            }
            // Roots are string-encoded (comma-separated) because the
            // flat JSONL dialect tracelint parses has scalar values only.
            out.push_str(",\"roots\":\"");
            for (i, r) in span.roots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&r.to_string());
            }
            out.push_str("\",\"span_depth\":");
            out.push_str(&span.depth.to_string());
            out.push_str(",\"span_start\":");
            out.push_str(&span.start.units().to_string());
        }
        if let Some(tid) = self.tid {
            out.push_str(",\"tid\":");
            out.push_str(&tid.to_string());
        }
        if let Some(part) = self.part {
            out.push_str(",\"part\":");
            out.push_str(&part.to_string());
        }
        out.push('}');
        out
    }
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Receives trace records from a [`crate::MetadataManager`].
///
/// Implementations must be cheap and non-blocking — records are emitted
/// from inside subscription and propagation paths.
pub trait TraceSink: Send + Sync {
    /// Accepts one record.
    fn record(&self, record: TraceRecord);

    /// The in-memory ring this sink is or contains, if any — how the
    /// `sys.trace` relation and the trace-drop metric find their records
    /// through whatever sink is installed.
    fn ring(&self) -> Option<&RingBufferSink> {
        None
    }

    /// The rotating file this sink is or contains, if any — how
    /// `sys.trace`'s `trace_file` row and the rotation metric find it.
    fn file(&self) -> Option<&RotatingFileSink> {
        None
    }
}

/// Fans every record out to several sinks, in order — an in-memory ring
/// for in-process queries next to a rotating file for offline linting,
/// say. The typed lookups answer with the first member that has one.
pub struct TeeSink(Vec<Arc<dyn TraceSink>>);

impl TeeSink {
    /// A sink forwarding to each of `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Arc<Self> {
        Arc::new(TeeSink(sinks))
    }
}

impl TraceSink for TeeSink {
    fn record(&self, record: TraceRecord) {
        for sink in &self.0 {
            sink.record(record.clone());
        }
    }

    fn ring(&self) -> Option<&RingBufferSink> {
        self.0.iter().find_map(|sink| sink.ring())
    }

    fn file(&self) -> Option<&RotatingFileSink> {
        self.0.iter().find_map(|sink| sink.file())
    }
}

/// A bounded in-memory trace sink: keeps the most recent `capacity`
/// records, counting the ones it had to evict.
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl RingBufferSink {
    /// A ring buffer holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(RingBufferSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            dropped: AtomicU64::new(0),
        })
    }

    /// Maximum retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// The most recent `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let buf = self.buf.lock();
        let skip = buf.len().saturating_sub(n);
        buf.iter().skip(skip).cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Discards all retained records (the drop counter is kept).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }

    /// The retained records as JSON Lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        let buf = self.buf.lock();
        let mut out = String::with_capacity(buf.len() * 96);
        for rec in buf.iter() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, record: TraceRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }

    fn ring(&self) -> Option<&RingBufferSink> {
        Some(self)
    }
}

/// A bounded-file JSONL trace sink with rotation.
///
/// [`RingBufferSink`] silently evicts once wrapped, so a long chaos run
/// lints an incomplete trace. This sink streams every record to
/// `path` as JSON Lines and, when the active file exceeds `max_bytes`,
/// rotates it to `<path>.1` (overwriting any previous rotation) and
/// starts a fresh file — so the two files together always hold the most
/// recent window *without gaps inside it*, and no record is dropped
/// mid-file. The rotation count is exported through the `sys.trace`
/// catalog relation.
pub struct RotatingFileSink {
    path: std::path::PathBuf,
    max_bytes: u64,
    state: Mutex<FileState>,
    rotations: AtomicU64,
    records: AtomicU64,
}

struct FileState {
    file: std::fs::File,
    written: u64,
}

impl RotatingFileSink {
    /// Creates (truncating) `path` and writes JSONL records to it,
    /// rotating to `<path>.1` whenever the active file would exceed
    /// `max_bytes` (at least 4 KiB).
    pub fn create(
        path: impl Into<std::path::PathBuf>,
        max_bytes: u64,
    ) -> std::io::Result<Arc<Self>> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        Ok(Arc::new(RotatingFileSink {
            path,
            max_bytes: max_bytes.max(4096),
            state: Mutex::new(FileState { file, written: 0 }),
            rotations: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }))
    }

    /// The active file's path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// The rotated file's path (`<path>.1`), whether or not it exists yet.
    pub fn rotated_path(&self) -> std::path::PathBuf {
        let mut os = self.path.as_os_str().to_owned();
        os.push(".1");
        std::path::PathBuf::from(os)
    }

    /// How many times the active file has been rotated out.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Total records written across all rotations.
    pub fn records_written(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Flushes OS buffers on the active file.
    pub fn flush(&self) -> std::io::Result<()> {
        use std::io::Write;
        self.state.lock().file.flush()
    }

    /// Reads the full retained trace back (rotated file first, then the
    /// active one), as JSONL.
    pub fn read_retained(&self) -> std::io::Result<String> {
        let _guard = self.state.lock();
        let mut out = String::new();
        if let Ok(older) = std::fs::read_to_string(self.rotated_path()) {
            out.push_str(&older);
        }
        out.push_str(&std::fs::read_to_string(&self.path)?);
        Ok(out)
    }
}

impl TraceSink for RotatingFileSink {
    fn record(&self, record: TraceRecord) {
        use std::io::Write;
        let line = record.to_json();
        let mut state = self.state.lock();
        if state.written > 0 && state.written + line.len() as u64 + 1 > self.max_bytes {
            // Rotate: flush, move aside, reopen. Failures degrade to
            // keeping the current file (the sink must never panic on the
            // propagation path).
            let _ = state.file.flush();
            let _ = std::fs::rename(&self.path, self.rotated_path());
            if let Ok(fresh) = std::fs::File::create(&self.path) {
                state.file = fresh;
                state.written = 0;
                self.rotations.fetch_add(1, Ordering::Relaxed);
            }
        }
        if writeln!(state.file, "{line}").is_ok() {
            state.written += line.len() as u64 + 1;
            self.records.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn file(&self) -> Option<&RotatingFileSink> {
        Some(self)
    }
}

/// One finished causal hop, as materialised by the `sys.spans` catalog
/// relation (see [`SpanStore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The hop's span id.
    pub span: u64,
    /// The causing hop's span id; `None` for roots.
    pub parent: Option<u64>,
    /// The first contributing root span id (the trace id).
    pub root: u64,
    /// Number of contributing roots (> 1 for coalesced epoch hops).
    pub roots: usize,
    /// The item the hop concerned, if any.
    pub key: Option<MetadataKey>,
    /// Kind of the trace event that closed the hop.
    pub kind: &'static str,
    /// Hop count below the root.
    pub depth: u32,
    /// When the hop started.
    pub start: Timestamp,
    /// When the hop's event was emitted.
    pub end: Timestamp,
}

impl SpanRecord {
    /// The hop's duration in clock units.
    pub fn duration(&self) -> u64 {
        self.end.units().saturating_sub(self.start.units())
    }
}

/// A bounded ring of finished spans backing the `sys.spans` catalog
/// relation, installed by
/// [`crate::MetadataManager::enable_catalog_spans`]. Independent of the
/// trace sink: spans are recorded here whenever sampling mints them,
/// even with no trace sink installed.
pub struct SpanStore {
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl SpanStore {
    /// A span ring holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(SpanStore {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            dropped: AtomicU64::new(0),
        })
    }

    /// Maximum retained spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one finished span, evicting the oldest when full.
    pub fn record(&self, record: SpanRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }

    /// Retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Discards all retained spans (the drop counter is kept).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord::new(seq, Timestamp(seq), event)
    }

    fn key(path: &str) -> MetadataKey {
        MetadataKey::new(NodeId(1), path)
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let sink = RingBufferSink::new(2);
        for i in 0..4 {
            sink.record(rec(i, TraceEvent::Subscribe { key: key("a") }));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 2);
        let snap = sink.snapshot();
        assert_eq!(snap[0].seq, 2);
        assert_eq!(snap[1].seq, 3);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn jsonl_renders_one_object_per_line() {
        let sink = RingBufferSink::new(8);
        sink.record(rec(
            0,
            TraceEvent::Include {
                key: key("rate"),
                mechanism: "periodic",
                depth: 2,
            },
        ));
        sink.record(rec(
            1,
            TraceEvent::PeriodicFired {
                key: key("rate"),
                boundary: Timestamp(100),
                fired_at: Timestamp(105),
                missed: false,
            },
        ));
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"include\""));
        assert!(lines[0].contains("\"mechanism\":\"periodic\""));
        assert!(lines[0].contains("\"depth\":2"));
        assert!(lines[1].contains("\"boundary\":100"));
        assert!(lines[1].contains("\"missed\":false"));
    }

    #[test]
    fn containment_events_render() {
        let e = TraceEvent::DeadlineExceeded {
            key: key("rate"),
            budget: TimeSpan(5),
            elapsed: TimeSpan(9),
        };
        assert_eq!(e.kind(), "deadline_exceeded");
        let json = rec(0, e).to_json();
        assert!(json.contains("\"budget\":5"));
        assert!(json.contains("\"elapsed\":9"));

        let e = TraceEvent::RetryScheduled {
            key: key("rate"),
            attempt: 2,
            delay: TimeSpan(12),
        };
        let json = rec(1, e).to_json();
        assert!(json.contains("\"attempt\":2"));
        assert!(json.contains("\"delay\":12"));

        let e = TraceEvent::QuarantineTripped {
            key: key("rate"),
            until: Timestamp(400),
        };
        assert_eq!(format!("{e}"), "quarantine_tripped n1/rate until=400");
        assert!(rec(2, e).to_json().contains("\"until\":400"));

        let e = TraceEvent::QuarantineRecovered { key: key("rate") };
        assert_eq!(e.key(), Some(&key("rate")));
        assert!(rec(3, e)
            .to_json()
            .contains("\"event\":\"quarantine_recovered\""));
    }

    #[test]
    fn epoch_flushed_is_keyless_and_renders() {
        let e = TraceEvent::EpochFlushed {
            epoch: 7,
            origins: 3,
            recomputed: 12,
            max_depth: 2,
        };
        assert_eq!(e.kind(), "epoch_flushed");
        assert_eq!(e.key(), None);
        assert_eq!(
            format!("{e}"),
            "epoch_flushed epoch=7 origins=3 recomputed=12 max_depth=2"
        );
        let json = rec(0, e).to_json();
        assert!(!json.contains("\"key\""));
        assert!(json.contains("\"epoch\":7"));
        assert!(json.contains("\"origins\":3"));
        assert!(json.contains("\"recomputed\":12"));
        assert!(json.contains("\"max_depth\":2"));
    }

    #[test]
    fn value_stored_renders() {
        let e = TraceEvent::ValueStored {
            key: key("rate"),
            version: 17,
        };
        assert_eq!(e.kind(), "value_stored");
        assert_eq!(e.key(), Some(&key("rate")));
        assert_eq!(format!("{e}"), "value_stored n1/rate version=17");
        let json = rec(4, e).to_json();
        assert!(json.contains("\"event\":\"value_stored\""));
        assert!(json.contains("\"version\":17"));
    }

    #[test]
    fn rotating_file_sink_rotates_without_gaps() {
        let dir = std::env::temp_dir().join(format!(
            "streammeta_rot_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = RotatingFileSink::create(&path, 4096).unwrap();
        // Each line is ~60 bytes; write enough to force >1 rotation.
        for i in 0..200 {
            sink.record(rec(i, TraceEvent::Subscribe { key: key("a") }));
        }
        sink.flush().unwrap();
        assert!(sink.rotations() >= 1, "expected at least one rotation");
        assert_eq!(sink.records_written(), 200);
        // The retained window (rotated + active) is contiguous: seqs
        // strictly increase line over line and end at the last record.
        let retained = sink.read_retained().unwrap();
        let seqs: Vec<u64> = retained
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"seq\":").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "gap in window");
        assert_eq!(*seqs.last().unwrap(), 199);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn span_and_tid_fields_render() {
        let mut r = rec(
            9,
            TraceEvent::Notified {
                key: key("rate"),
                version: 3,
                observers: 2,
            },
        );
        r.span = Some(SpanContext {
            span: 12,
            parent: Some(7),
            roots: vec![1, 4],
            depth: 2,
            start: Timestamp(5),
        });
        r.tid = Some(1);
        let json = r.to_json();
        assert!(json.contains("\"event\":\"notified\""));
        assert!(json.contains("\"version\":3"));
        assert!(json.contains("\"observers\":2"));
        assert!(json.contains("\"span\":12"));
        assert!(json.contains("\"parent\":7"));
        assert!(json.contains("\"roots\":\"1,4\""));
        assert!(json.contains("\"span_depth\":2"));
        assert!(json.contains("\"span_start\":5"));
        assert!(json.contains("\"tid\":1"));

        let root = SpanContext::root(4, Timestamp(1));
        assert_eq!(root.roots, vec![4]);
        let child = root.child(9, Timestamp(2));
        assert_eq!(child.parent, Some(4));
        assert_eq!(child.roots, vec![4]);
        assert_eq!(child.depth, 1);
        let mut r = rec(
            0,
            TraceEvent::SourceUpdate {
                origin: "n1!tick".into(),
                origin_kind: "event",
            },
        );
        r.span = Some(root);
        let json = r.to_json();
        assert!(json.contains("\"origin\":\"n1!tick\""));
        assert!(json.contains("\"origin_kind\":\"event\""));
        assert!(json.contains("\"span\":4"));
        assert!(!json.contains("\"parent\""), "roots carry no parent");
    }

    #[test]
    fn span_store_evicts_oldest_and_counts_drops() {
        let store = SpanStore::new(2);
        for i in 0..4u64 {
            store.record(SpanRecord {
                span: i + 1,
                parent: None,
                root: i + 1,
                roots: 1,
                key: None,
                kind: "source_update",
                depth: 0,
                start: Timestamp(i),
                end: Timestamp(i + 3),
            });
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped(), 2);
        let snap = store.snapshot();
        assert_eq!(snap[0].span, 3);
        assert_eq!(snap[0].duration(), 3);
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn rotation_boundary_keeps_the_exact_fit_line_in_one_file() {
        let dir = std::env::temp_dir().join(format!(
            "streammeta_rotb_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        // A key long enough that a fixed number of identical lines fills
        // the minimum file size exactly.
        let line_len = rec(0, TraceEvent::Subscribe { key: key("a") })
            .to_json()
            .len();
        let pad = 512 - (line_len + 1);
        let long_key = key(&format!("a{}", "x".repeat(pad)));
        let one = |seq: u64| {
            rec(
                seq,
                TraceEvent::Subscribe {
                    key: long_key.clone(),
                },
            )
        };
        assert_eq!(one(0).to_json().len() + 1, 512, "line length is exact");
        let sink = RotatingFileSink::create(&path, 4096).unwrap();
        // Eight 512-byte lines land exactly on the 4096-byte limit: the
        // eighth fits (written + len + 1 == max_bytes is not over) and
        // must NOT rotate — it stays wholly in the active file.
        for i in 0..8 {
            sink.record(one(i));
        }
        sink.flush().unwrap();
        assert_eq!(sink.rotations(), 0, "exact fit must not rotate");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            4096,
            "active file filled to the limit"
        );
        assert!(!sink.rotated_path().exists());
        // The ninth line overflows: rotate first, then write — the line
        // appears exactly once, wholly in the fresh active file.
        sink.record(one(8));
        sink.flush().unwrap();
        assert_eq!(sink.rotations(), 1);
        let active = std::fs::read_to_string(&path).unwrap();
        let rotated = std::fs::read_to_string(sink.rotated_path()).unwrap();
        assert_eq!(active.lines().count(), 1);
        assert_eq!(rotated.lines().count(), 8);
        assert!(active.contains("\"seq\":8"));
        assert!(!rotated.contains("\"seq\":8"), "boundary line duplicated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_under_concurrent_writers_never_tears_a_line() {
        let dir = std::env::temp_dir().join(format!(
            "streammeta_rotc_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = RotatingFileSink::create(&path, 4096).unwrap();
        let per_thread = 200u64;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        sink.record(rec(
                            t * per_thread + i,
                            TraceEvent::ValueStored {
                                key: key("concurrent"),
                                version: i + 1,
                            },
                        ));
                    }
                });
            }
        });
        sink.flush().unwrap();
        assert_eq!(sink.records_written(), 4 * per_thread);
        assert!(sink.rotations() >= 1, "workload must rotate");
        // Every retained line is a complete JSONL object — rotation must
        // never interleave two writers' partial lines.
        let retained = sink.read_retained().unwrap();
        let mut lines = 0usize;
        for line in retained.lines() {
            assert!(
                line.starts_with("{\"seq\":") && line.ends_with('}'),
                "torn line: {line:?}"
            );
            assert!(
                line.contains("\"event\":\"value_stored\""),
                "torn line: {line:?}"
            );
            lines += 1;
        }
        assert!(lines > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partition_tag_renders_only_when_present() {
        let bare = rec(0, TraceEvent::Subscribe { key: key("a") });
        assert!(!bare.to_json().contains("\"part\""));
        let mut tagged = rec(
            1,
            TraceEvent::ValueStored {
                key: key("a"),
                version: 2,
            },
        );
        tagged.part = Some(5);
        assert!(tagged.to_json().contains("\"part\":5"));
    }

    #[test]
    fn event_kind_and_key_are_uniform() {
        let e = TraceEvent::Exclude {
            key: key("x"),
            remaining: 3,
        };
        assert_eq!(e.kind(), "exclude");
        assert_eq!(e.key(), Some(&key("x")));
        assert_eq!(format!("{e}"), "exclude n1/x remaining=3");
    }
}
