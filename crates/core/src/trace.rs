//! Trace bus: structured observability events for the metadata framework
//! itself.
//!
//! The manager narrates its own lifecycle — subscriptions, the automatic
//! DFS inclusion/exclusion of dependencies (Section 2.4 of the paper),
//! trigger-propagation rounds (Section 3.2.3), periodic firings and
//! compute failures — to an installed [`TraceSink`]. With no sink
//! installed the hot path pays a single relaxed atomic load; event
//! construction is behind that gate.

use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use streammeta_time::{TimeSpan, Timestamp};

use crate::item::{DepSource, Mechanism};
use crate::{MetadataKey, NodeId};

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

/// One scalar of the flat JSONL dialect, as a field renders it: an item
/// key, a bare token (a number, `true`, `false`) or a quoted string.
enum Val<'a> {
    Key(&'a MetadataKey),
    Bare(&'a dyn fmt::Display),
    Quoted(&'a dyn fmt::Display),
}

impl fmt::Display for Val<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Key(key) => key.fmt(f),
            Val::Bare(v) | Val::Quoted(v) => v.fmt(f),
        }
    }
}

/// One scalar as read back from a JSONL line.
struct Json {
    quoted: bool,
    text: String,
}

impl Json {
    fn bare(&self) -> Option<&str> {
        (!self.quoted).then_some(self.text.as_str())
    }

    fn quoted(self) -> Option<String> {
        self.quoted.then_some(self.text)
    }
}

/// A closed set of label strings (empty for every other field type).
type Labels = &'static [&'static str];

/// A Rust type a trace field can have: its wire type as `docs/TRACE.md`
/// names it, its scalar on the wire, and the way back.
trait Wire: Sized {
    const TYPE: &'static str;
    fn val(&self) -> Val<'_>;
    /// `labels` is the field's label set; only the label type reads it.
    fn parse(json: Json, labels: Labels) -> Option<Self>;
}

/// One row per wire type: Rust type, name, how it is written (its
/// `Display` text, bare or quoted) and how it is read back.
macro_rules! wire_types {
    ($($ty:ty = $name:literal, $val:ident, |$json:ident, $labels:ident| $from:expr;)+) => {$(
        impl Wire for $ty {
            const TYPE: &'static str = $name;
            fn val(&self) -> Val<'_> {
                Val::$val(self)
            }
            fn parse($json: Json, $labels: Labels) -> Option<Self> {
                $from
            }
        }
    )+};
}

wire_types! {
    MetadataKey = "key", Key, |json, _l| parse_key(&json.quoted()?);
    u64 = "u64", Bare, |json, _l| json.bare()?.parse().ok();
    usize = "usize", Bare, |json, _l| json.bare()?.parse().ok();
    u32 = "u32", Bare, |json, _l| json.bare()?.parse().ok();
    bool = "bool", Bare, |json, _l| json.bare()?.parse().ok();
    Timestamp = "Timestamp", Bare, |json, _l| json.bare()?.parse().ok().map(Timestamp);
    TimeSpan = "TimeSpan", Bare, |json, _l| json.bare()?.parse().ok().map(TimeSpan);
    &'static str = "label", Quoted, |json, labels| {
        let text = json.quoted()?;
        labels.iter().copied().find(|label| *label == text)
    };
    String = "text", Quoted, |json, _l| json.quoted();
}

/// Parses the `n<node>/<path>` display form of a [`MetadataKey`].
fn parse_key(text: &str) -> Option<MetadataKey> {
    let (node, path) = text.strip_prefix('n')?.split_once('/')?;
    Some(MetadataKey::new(NodeId(node.parse().ok()?), path))
}

/// One row of the event table: a kind and its fields in wire order.
struct EventSchema {
    kind: &'static str,
    doc: &'static str,
    fields: &'static [FieldSchema],
}

struct FieldSchema {
    name: &'static str,
    ty: &'static str,
    labels: Labels,
    doc: &'static str,
}

/// A table field's label set: the one it names, or none.
macro_rules! labels {
    () => {
        &[]
    };
    ($set:expr) => {
        &$set
    };
}

/// The trace schema, declared once. Each row is a variant, its wire kind
/// and its fields in wire order (`name: type`, a label field followed by
/// `= <its label set>`). The [`TraceEvent`] enum, [`TraceKind`],
/// `kind()`, `key()`, `Display`, the JSONL writer and reader and
/// `docs/TRACE.md` are all derived from the rows, in row order.
macro_rules! trace_events {
    ($(
        $(#[doc = $doc:literal])+
        $variant:ident $kind:literal {
            $($(#[doc = $fdoc:literal])+ $field:ident: $ty:ty $(= $labels:expr)?,)+
        }
    )+) => {
        /// One structured event on the trace bus (see `docs/TRACE.md`).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[doc = $doc])+ $variant { $($(#[doc = $fdoc])+ $field: $ty,)+ },)+
        }

        /// The kind of a [`TraceEvent`], without its fields.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceKind {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl TraceKind {
            /// Every kind, in table order.
            pub const ALL: &'static [TraceKind] = &[$(TraceKind::$variant,)+];

            /// The kind's wire name (`propagation_step`).
            pub fn name(self) -> &'static str {
                TRACE_EVENTS[self as usize].kind
            }
        }

        const TRACE_EVENTS: &[EventSchema] = &[$(EventSchema {
            kind: $kind,
            doc: concat!($($doc),+),
            fields: &[$(FieldSchema {
                name: stringify!($field),
                ty: <$ty as Wire>::TYPE,
                labels: labels!($($labels)?),
                doc: concat!($($fdoc),+),
            },)+],
        },)+];

        impl TraceEvent {
            /// The event's kind.
            pub fn tag(&self) -> TraceKind {
                match self {
                    $(TraceEvent::$variant { .. } => TraceKind::$variant,)+
                }
            }

            /// Visits the event's fields in wire order.
            fn each_field<'a>(&'a self, mut visit: impl FnMut(&'static str, Val<'a>)) {
                match self {
                    $(TraceEvent::$variant { $($field,)+ } => {
                        $(visit(stringify!($field), $field.val());)+
                    })+
                }
            }

            /// Builds the event of `kind` from parsed fields, consuming
            /// the ones it declares.
            fn from_fields(kind: TraceKind, fields: &mut Fields) -> Result<Self, String> {
                Ok(match kind {
                    $(TraceKind::$variant => TraceEvent::$variant {
                        $($field: fields.take(stringify!($field), labels!($($labels)?))?,)+
                    },)+
                })
            }
        }
    };
}

trace_events! {
    /// An external subscription request arrived for `key`.
    Subscribe "subscribe" {
        /// The requested item.
        key: MetadataKey,
    }
    /// An external unsubscription arrived for `key`.
    Unsubscribe "unsubscribe" {
        /// The released item.
        key: MetadataKey,
    }
    /// The inclusion DFS materialised a handler for `key`.
    Include "include" {
        /// The included item.
        key: MetadataKey,
        /// The item's provision mechanism.
        mechanism: &'static str = Mechanism::LABELS,
        /// Dependency depth below the subscription root (root = 0).
        depth: usize,
    }
    /// Exclusion dropped the handler of `key`.
    Exclude "exclude" {
        /// The excluded item.
        key: MetadataKey,
        /// Handlers still alive after this drop.
        remaining: usize,
    }
    /// One handler was recomputed during a trigger-propagation round.
    PropagationStep "propagation_step" {
        /// The recomputed item.
        key: MetadataKey,
        /// Identifier of the propagation round (monotone per manager).
        round: u64,
        /// Distance from the origin in the inverted dependency graph.
        depth: usize,
        /// Whether the recomputation changed the stored value.
        changed: bool,
    }
    /// A periodic handler fired at a window boundary.
    PeriodicFired "periodic_fired" {
        /// The refreshed item.
        key: MetadataKey,
        /// The scheduled window boundary.
        boundary: Timestamp,
        /// The actual instant the refresh ran.
        fired_at: Timestamp,
        /// Whether the refresh ran a full window late (deadline miss).
        missed: bool,
    }
    /// A compute function panicked; the value became `Unavailable`.
    ComputeFailed "compute_failed" {
        /// The failing item.
        key: MetadataKey,
    }
    /// An evaluation overran its declared compute budget.
    DeadlineExceeded "deadline_exceeded" {
        /// The slow item.
        key: MetadataKey,
        /// The declared budget.
        budget: TimeSpan,
        /// The measured evaluation time.
        elapsed: TimeSpan,
    }
    /// A failed evaluation scheduled a backoff retry.
    RetryScheduled "retry_scheduled" {
        /// The failing item.
        key: MetadataKey,
        /// Retry number within the current failure episode (1-based).
        attempt: u32,
        /// Delay until the retry fires.
        delay: TimeSpan,
    }
    /// Repeated failures tripped the quarantine circuit breaker.
    QuarantineTripped "quarantine_tripped" {
        /// The quarantined item.
        key: MetadataKey,
        /// When the cool-down ends and the recovery probe runs.
        until: Timestamp,
    }
    /// A quarantined item's recovery probe succeeded.
    QuarantineRecovered "quarantine_recovered" {
        /// The recovered item.
        key: MetadataKey,
    }
    /// A refresh stored a changed value (the version is the handler's
    /// monotone store counter — the tracelint T1 monotonicity witness).
    ValueStored "value_stored" {
        /// The updated item.
        key: MetadataKey,
        /// The stored value's version.
        version: u64,
    }
    /// A sampled source update minted a root span: the anchor every
    /// downstream hop's lineage must resolve to (tracelint rule T8).
    /// Emitted once per sampled `fire_event` / `notify_changed` call,
    /// before the update is swept (per-event mode) or enqueued (epoch
    /// mode).
    SourceUpdate "source_update" {
        /// The updated source, rendered (`n1/rate` item or `n1!tick`
        /// event).
        origin: String,
        /// Whether the source is an item or an event.
        origin_kind: &'static str = DepSource::KINDS,
    }
    /// A stored value change was delivered to push observers — the end
    /// of a causal cascade, and the event whose lineage tracelint T8
    /// verifies back to a `source_update` anchor.
    Notified "notified" {
        /// The updated item.
        key: MetadataKey,
        /// The delivered value's version.
        version: u64,
        /// Observers the snapshot was delivered to.
        observers: usize,
    }
    /// An epoch flush swept a batch of coalesced source updates
    /// (epoch propagation mode only; the per-item recomputations still
    /// emit their own `propagation_step` records).
    EpochFlushed "epoch_flushed" {
        /// Identifier of the epoch (monotone per manager).
        epoch: u64,
        /// Distinct source updates swept by this epoch.
        origins: usize,
        /// Handlers recomputed by the sweep.
        recomputed: usize,
        /// Deepest recomputed handler's BFS distance from its origin.
        max_depth: usize,
    }
}

impl TraceEvent {
    /// Short machine-readable event name (used by the JSONL export and
    /// the profiler's pretty-printer).
    pub fn kind(&self) -> &'static str {
        self.tag().name()
    }

    /// The item the event concerns, if any (manager-wide events like
    /// [`TraceEvent::EpochFlushed`] have none).
    pub fn key(&self) -> Option<&MetadataKey> {
        let mut key = None;
        self.each_field(|_, val| {
            if let Val::Key(k) = val {
                key = Some(k);
            }
        });
        key
    }
}

/// `<kind> [<key>] <field>=<value>…`, fields in wire order.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut res = f.write_str(self.kind());
        self.each_field(|name, val| {
            res = res.and_then(|()| match val {
                Val::Key(key) => write!(f, " {key}"),
                val => write!(f, " {name}={val}"),
            });
        });
        res
    }
}

/// What a finished span covers, by name: the kind of the trace event
/// that closed the hop, or one of the two span-only kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKind(&'static str);

impl SpanKind {
    /// A backoff retry of a failed evaluation.
    pub const RETRY: SpanKind = SpanKind("retry");
    /// A quarantined item's recovery probe.
    pub const PROBE: SpanKind = SpanKind("probe");

    /// The kind's name, as the `sys.spans` `kind` column shows it.
    pub fn name(self) -> &'static str {
        self.0
    }
}

impl From<TraceKind> for SpanKind {
    fn from(kind: TraceKind) -> Self {
        SpanKind(kind.name())
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

/// The envelope around an event's own fields, in wire order, as the
/// rows of its table in `docs/TRACE.md`; written by
/// [`TraceRecord::to_json`], read by [`TraceRecord::from_json`].
const ENVELOPE_ROWS: &str = "\
| `seq` | u64 | always | per-manager emission sequence number |
| `at` | Timestamp | always | clock instant of emission |
| `event` | label | always | the event kind; the event's own fields follow |
| `span` | u64 | sampled hops | this hop's span id |
| `parent` | u64 | non-root spans | the causing hop's span id |
| `roots` | text | with `span` | comma-separated root span ids the hop descends from |
| `span_depth` | u32 | with `span` | hop count below the root |
| `span_start` | Timestamp | with `span` | when the hop started |
| `tid` | u64 | thread-id stamping on | compact id of the emitting thread |
| `part` | u64 | partitions of a plane | partition id of the emitting manager |
";

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
        out.push('{');
        let mut put = |name: &str, val: Val<'_>| push_field(&mut out, name, val);
        put("seq", self.seq.val());
        put("at", self.at.val());
        put("event", self.event.kind().val());
        self.event.each_field(&mut put);
        if let Some(span) = &self.span {
            put("span", span.span.val());
            if let Some(parent) = &span.parent {
                put("parent", parent.val());
            }
            // Roots are string-encoded (comma-separated) because the
            // flat JSONL dialect has scalar values only.
            let roots: Vec<String> = span.roots.iter().map(u64::to_string).collect();
            put("roots", roots.join(",").val());
            put("span_depth", span.depth.val());
            put("span_start", span.start.val());
        }
        if let Some(tid) = &self.tid {
            put("tid", tid.val());
        }
        if let Some(part) = &self.part {
            put("part", part.val());
        }
        out.push('}');
        out
    }

    /// Parses one line written by [`Self::to_json`]. Strict: an unknown
    /// kind, a missing or wrong-typed field and a field the kind does
    /// not declare are all errors naming the field.
    pub fn from_json(line: &str) -> Result<TraceRecord, String> {
        let mut fields = Fields(parse_flat_object(line)?);
        let kind: String = fields.take("event", &[])?;
        let tag = TraceKind::ALL.iter().find(|tag| tag.name() == kind);
        let tag = *tag.ok_or_else(|| format!("unknown event kind `{kind}`"))?;
        let record = TraceRecord {
            seq: fields.take("seq", &[])?,
            at: fields.take("at", &[])?,
            event: TraceEvent::from_fields(tag, &mut fields)?,
            span: match fields.take_opt("span", &[])? {
                Some(span) => {
                    let roots: String = fields.take("roots", &[])?;
                    let roots = roots.split(',').filter(|id| !id.is_empty());
                    let bad = |id| format!("field `roots` has the bad span id `{id}`");
                    Some(SpanContext {
                        span,
                        parent: fields.take_opt("parent", &[])?,
                        roots: roots
                            .map(|id| id.parse().map_err(|_| bad(id)))
                            .collect::<Result<_, _>>()?,
                        depth: fields.take("span_depth", &[])?,
                        start: fields.take("span_start", &[])?,
                    })
                }
                None => None,
            },
            tid: fields.take_opt("tid", &[])?,
            part: fields.take_opt("part", &[])?,
        };
        match fields.0.keys().min() {
            Some(name) => Err(format!("kind `{kind}` declares no field `{name}`")),
            None => Ok(record),
        }
    }
}

/// The fields of one parsed line; whatever is left after the record was
/// built is a field its kind does not declare.
struct Fields(HashMap<String, Json>);

impl Fields {
    fn take_opt<T: Wire>(&mut self, name: &str, labels: Labels) -> Result<Option<T>, String> {
        let bad = || format!("field `{name}` is not a valid {}", T::TYPE);
        let json = self.0.remove(name);
        json.map(|json| T::parse(json, labels).ok_or_else(bad))
            .transpose()
    }

    fn take<T: Wire>(&mut self, name: &str, labels: Labels) -> Result<T, String> {
        self.take_opt(name, labels)?
            .ok_or_else(|| format!("missing field `{name}`"))
    }
}

/// Appends `"name":value` to the object being written in `out`.
fn push_field(out: &mut String, name: &str, val: Val<'_>) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    match val {
        Val::Bare(v) => out.push_str(&v.to_string()),
        Val::Key(_) | Val::Quoted(_) => {
            out.push('"');
            push_escaped(out, &val.to_string());
            out.push('"');
        }
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

/// Parses one flat JSON object (string/number/bool values only — the
/// trace schema is flat by construction).
fn parse_flat_object(line: &str) -> Result<HashMap<String, Json>, String> {
    let body = line.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
    let mut rest = body.ok_or("not a JSON object")?.trim_start();
    let mut map = HashMap::new();
    while !rest.is_empty() {
        let (name, after) = parse_string(rest)?;
        let after = after.trim_start().strip_prefix(':');
        let after = after.ok_or_else(|| format!("expected ':' after `{name}`"))?;
        let after = after.trim_start();
        let quoted = after.starts_with('"');
        let (text, after) = if quoted {
            parse_string(after)?
        } else {
            let (token, after) = after.split_at(after.find(',').unwrap_or(after.len()));
            (token.trim_end().to_string(), after)
        };
        map.insert(name, Json { quoted, text });
        let after = after.trim_start();
        rest = after.strip_prefix(',').unwrap_or(after).trim_start();
    }
    Ok(map)
}

/// Parses the quoted JSON string `s` starts with, returning the
/// unescaped content and what follows the closing quote — the inverse
/// of [`push_escaped`].
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let body = s.strip_prefix('"').ok_or("expected a quoted string")?;
    let mut chars = body.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => match chars.next().map(|(_, c)| c) {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                    let cp = u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape")?;
                    out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                }
                _ => return Err("bad escape".to_string()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// `docs/TRACE.md`, rendered from the event table; a test below fails
/// when the checked-in file differs.
pub fn trace_markdown() -> String {
    let (retry, probe) = (SpanKind::RETRY.name(), SpanKind::PROBE.name());
    let mut out = format!(
        "# Trace schema\n\n\
         <!-- Generated from the event table in crates/core/src/trace.rs. Do not edit:\n     \
         regenerate with `BLESS=1 cargo test -p streammeta-core trace_doc`. -->\n\n\
         A trace is JSON Lines: one flat object per record, scalar values only, written by\n\
         `TraceRecord::to_json` and read back by `TraceRecord::from_json` (which\n\
         `tracelint` uses). Every record is the envelope below with the event's own fields\n\
         between `event` and `span`, in the order listed. The reader is strict: an unknown\n\
         kind, a missing or wrong-typed field and a field the kind does not declare are\n\
         errors. There is no version field: nothing would read one, adding it would rewrite\n\
         every checked-in fixture, and the strict reader already rejects a line that is not\n\
         of this schema. `Display` (`sys.trace.detail`, `render_trace`) prints\n\
         `<kind> [<key>] <field>=<value>…` in the same order.\n\n\
         ## Record envelope\n\n\
         | Field | Type | Present | Meaning |\n|---|---|---|---|\n{ENVELOPE_ROWS}\n\
         Types: `key` is an item key as `n<node>/<path>`; `Timestamp` and `TimeSpan` are\n\
         clock units as numbers; `label` is one of a closed set of strings; `text` is free.\n\n\
         ## Span kinds\n\n\
         The `kind` of a finished span (`sys.spans`) is the kind of the event that closed\n\
         the hop, or one of the two span-only kinds: `{retry}`, a backoff retry of a failed\n\
         evaluation, and `{probe}`, a quarantined item's recovery probe.\n\n\
         ## Events\n"
    );
    for event in TRACE_EVENTS {
        let _ = write!(out, "\n### `{}`\n\n{}\n\n", event.kind, event.doc.trim());
        out.push_str("| Field | Type | Meaning |\n|---|---|---|\n");
        for field in event.fields {
            let labels: Vec<String> = field.labels.iter().map(|l| format!("`{l}`")).collect();
            let sep = if labels.is_empty() { "" } else { ": " };
            let _ = writeln!(
                out,
                "| `{}` | {}{sep}{} | {} |",
                field.name,
                field.ty,
                labels.join(" \\| "),
                field.doc.trim()
            );
        }
    }
    out
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

/// A bounded in-memory ring: keeps the most recent `capacity` records,
/// counting the ones it had to evict. [`RingBufferSink`] (trace records)
/// and [`SpanStore`] (finished spans) are this type.
pub struct Ring<T> {
    capacity: usize,
    buf: Mutex<VecDeque<T>>,
    dropped: AtomicU64,
}

/// The in-memory trace sink: a ring of trace records.
pub type RingBufferSink = Ring<TraceRecord>;

/// The ring of finished spans backing the `sys.spans` catalog relation,
/// installed by [`crate::MetadataManager::enable_catalog_spans`].
/// Independent of the trace sink: spans are recorded here whenever
/// sampling mints them, even with no trace sink installed.
pub type SpanStore = Ring<SpanRecord>;

impl<T: Clone> Ring<T> {
    /// A ring holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Ring {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            dropped: AtomicU64::new(0),
        })
    }

    /// Maximum retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one record, evicting the oldest when full.
    pub fn record(&self, record: T) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.buf.lock().iter().cloned().collect()
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
}

impl RingBufferSink {
    /// The most recent `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let buf = self.buf.lock();
        let skip = buf.len().saturating_sub(n);
        buf.iter().skip(skip).cloned().collect()
    }

    /// The retained records as JSON Lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        let buf = self.buf.lock();
        buf.iter().map(|rec| rec.to_json() + "\n").collect()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, record: TraceRecord) {
        Ring::record(self, record);
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
    /// What the hop covered.
    pub kind: SpanKind,
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

    /// One event per kind of the table, in table order, with the JSON
    /// line of `rec(i, Timestamp(10 * i))` and the `Display` text. The
    /// JSON bytes are what `to_json` emitted before the table existed
    /// (a hand-written `match` per kind), so a reordered or retyped
    /// table row cannot change the wire format unnoticed.
    fn samples() -> Vec<(TraceEvent, &'static str, &'static str)> {
        let rate = || key("rate");
        vec![
            (
                TraceEvent::Subscribe { key: rate() },
                r#"{"seq":0,"at":0,"event":"subscribe","key":"n1/rate"}"#,
                "subscribe n1/rate",
            ),
            (
                TraceEvent::Unsubscribe { key: rate() },
                r#"{"seq":1,"at":10,"event":"unsubscribe","key":"n1/rate"}"#,
                "unsubscribe n1/rate",
            ),
            (
                TraceEvent::Include {
                    key: rate(),
                    mechanism: "on-demand",
                    depth: 2,
                },
                r#"{"seq":2,"at":20,"event":"include","key":"n1/rate","mechanism":"on-demand","depth":2}"#,
                "include n1/rate mechanism=on-demand depth=2",
            ),
            (
                TraceEvent::Exclude {
                    key: rate(),
                    remaining: 3,
                },
                r#"{"seq":3,"at":30,"event":"exclude","key":"n1/rate","remaining":3}"#,
                "exclude n1/rate remaining=3",
            ),
            (
                TraceEvent::PropagationStep {
                    round: 7,
                    key: key("cost"),
                    depth: 1,
                    changed: true,
                },
                r#"{"seq":4,"at":40,"event":"propagation_step","key":"n1/cost","round":7,"depth":1,"changed":true}"#,
                "propagation_step n1/cost round=7 depth=1 changed=true",
            ),
            (
                TraceEvent::PeriodicFired {
                    key: rate(),
                    boundary: Timestamp(100),
                    fired_at: Timestamp(105),
                    missed: false,
                },
                r#"{"seq":5,"at":50,"event":"periodic_fired","key":"n1/rate","boundary":100,"fired_at":105,"missed":false}"#,
                "periodic_fired n1/rate boundary=100 fired_at=105 missed=false",
            ),
            (
                TraceEvent::ComputeFailed { key: rate() },
                r#"{"seq":6,"at":60,"event":"compute_failed","key":"n1/rate"}"#,
                "compute_failed n1/rate",
            ),
            (
                TraceEvent::DeadlineExceeded {
                    key: rate(),
                    budget: TimeSpan(5),
                    elapsed: TimeSpan(9),
                },
                r#"{"seq":7,"at":70,"event":"deadline_exceeded","key":"n1/rate","budget":5,"elapsed":9}"#,
                "deadline_exceeded n1/rate budget=5 elapsed=9",
            ),
            (
                TraceEvent::RetryScheduled {
                    key: rate(),
                    attempt: 2,
                    delay: TimeSpan(12),
                },
                r#"{"seq":8,"at":80,"event":"retry_scheduled","key":"n1/rate","attempt":2,"delay":12}"#,
                "retry_scheduled n1/rate attempt=2 delay=12",
            ),
            (
                TraceEvent::QuarantineTripped {
                    key: rate(),
                    until: Timestamp(400),
                },
                r#"{"seq":9,"at":90,"event":"quarantine_tripped","key":"n1/rate","until":400}"#,
                "quarantine_tripped n1/rate until=400",
            ),
            (
                TraceEvent::QuarantineRecovered { key: rate() },
                r#"{"seq":10,"at":100,"event":"quarantine_recovered","key":"n1/rate"}"#,
                "quarantine_recovered n1/rate",
            ),
            (
                TraceEvent::ValueStored {
                    key: rate(),
                    version: 17,
                },
                r#"{"seq":11,"at":110,"event":"value_stored","key":"n1/rate","version":17}"#,
                "value_stored n1/rate version=17",
            ),
            (
                TraceEvent::SourceUpdate {
                    origin: "n1!tick \"q\"\\\n".to_string(),
                    origin_kind: "event",
                },
                r#"{"seq":12,"at":120,"event":"source_update","origin":"n1!tick \"q\"\\\n","origin_kind":"event"}"#,
                "source_update origin=n1!tick \"q\"\\\n origin_kind=event",
            ),
            (
                TraceEvent::Notified {
                    key: key("state.left/memory"),
                    version: 4,
                    observers: 2,
                },
                r#"{"seq":13,"at":130,"event":"notified","key":"n1/state.left/memory","version":4,"observers":2}"#,
                "notified n1/state.left/memory version=4 observers=2",
            ),
            (
                TraceEvent::EpochFlushed {
                    epoch: 7,
                    origins: 3,
                    recomputed: 12,
                    max_depth: 2,
                },
                r#"{"seq":14,"at":140,"event":"epoch_flushed","epoch":7,"origins":3,"recomputed":12,"max_depth":2}"#,
                "epoch_flushed epoch=7 origins=3 recomputed=12 max_depth=2",
            ),
        ]
    }

    /// A child hop with two roots, a thread id and a partition tag: every
    /// optional envelope field at once.
    fn dressed(mut record: TraceRecord) -> TraceRecord {
        record.span = Some(SpanContext {
            span: 12,
            parent: Some(7),
            roots: vec![1, 4],
            depth: 2,
            start: Timestamp(5),
        });
        record.tid = Some(1);
        record.part = Some(5);
        record
    }

    const DRESSED_LINE: &str = r#"{"seq":99,"at":990,"event":"notified","key":"n1/state.left/memory","version":4,"observers":2,"span":12,"parent":7,"roots":"1,4","span_depth":2,"span_start":5,"tid":1,"part":5}"#;

    #[test]
    fn golden_lines_pin_the_wire_format_of_every_kind() {
        let samples = samples();
        let tags: Vec<TraceKind> = samples.iter().map(|(event, ..)| event.tag()).collect();
        assert_eq!(tags, TraceKind::ALL, "one sample per table row, in order");
        for (i, (event, json, display)) in samples.iter().enumerate() {
            let record = TraceRecord::new(i as u64, Timestamp(10 * i as u64), event.clone());
            assert_eq!(record.to_json(), *json);
            assert_eq!(event.to_string(), *display);
        }
        // Keyless kinds have no key; every other kind's is its first field.
        for (event, ..) in &samples {
            let keyless = matches!(
                event,
                TraceEvent::SourceUpdate { .. } | TraceEvent::EpochFlushed { .. }
            );
            assert_eq!(event.key().is_none(), keyless, "{event}");
        }
        // The envelope: a root span carries no parent, a child hop all of it.
        let notified = TraceRecord::new(99, Timestamp(990), samples[13].0.clone());
        assert_eq!(dressed(notified).to_json(), DRESSED_LINE);
        let mut anchor = TraceRecord::new(98, Timestamp(980), samples[12].0.clone());
        anchor.span = Some(SpanContext::root(4, Timestamp(1)));
        assert_eq!(
            anchor.to_json(),
            r#"{"seq":98,"at":980,"event":"source_update","origin":"n1!tick \"q\"\\\n","origin_kind":"event","span":4,"roots":"4","span_depth":0,"span_start":1}"#
        );
    }

    #[test]
    fn every_kind_round_trips_with_and_without_the_optional_envelope() {
        for (i, (event, ..)) in samples().into_iter().enumerate() {
            let bare = rec(i as u64, event);
            let mut rooted = bare.clone();
            rooted.span = Some(SpanContext::root(3, Timestamp(2)));
            for record in [bare.clone(), rooted, dressed(bare)] {
                let line = record.to_json();
                assert_eq!(TraceRecord::from_json(&line), Ok(record), "{line}");
            }
        }
    }

    #[test]
    fn from_json_rejects_what_the_table_does_not_declare() {
        let cases = [
            // An unknown kind.
            (
                r#"{"seq":0,"at":0,"event":"teleport","key":"n1/a"}"#,
                "unknown event kind `teleport`",
            ),
            // A missing field, of the event and of the envelope.
            (
                r#"{"seq":0,"at":0,"event":"include","key":"n1/a","mechanism":"static"}"#,
                "missing field `depth`",
            ),
            (
                r#"{"at":0,"event":"subscribe","key":"n1/a"}"#,
                "missing field `seq`",
            ),
            (
                r#"{"seq":0,"at":0,"event":"subscribe","key":"n1/a","span":3}"#,
                "missing field `roots`",
            ),
            // A wrong-typed field: a string for a number, a number out of
            // range, a label outside its set, a key that is not one.
            (
                r#"{"seq":0,"at":0,"event":"exclude","key":"n1/a","remaining":"3"}"#,
                "field `remaining` is not a valid usize",
            ),
            (
                r#"{"seq":0,"at":0,"event":"retry_scheduled","key":"n1/a","attempt":4294967296,"delay":1}"#,
                "field `attempt` is not a valid u32",
            ),
            (
                r#"{"seq":0,"at":0,"event":"include","key":"n1/a","mechanism":"psychic","depth":0}"#,
                "field `mechanism` is not a valid label",
            ),
            (
                r#"{"seq":0,"at":0,"event":"subscribe","key":"rate"}"#,
                "field `key` is not a valid key",
            ),
            (
                r#"{"seq":0,"at":0,"event":"periodic_fired","key":"n1/a","boundary":1,"fired_at":2,"missed":0}"#,
                "field `missed` is not a valid bool",
            ),
            // A field the kind does not declare.
            (
                r#"{"seq":0,"at":0,"event":"subscribe","key":"n1/a","depth":1}"#,
                "kind `subscribe` declares no field `depth`",
            ),
            (
                r#"{"seq":0,"at":0,"event":"epoch_flushed","key":"n1/a","epoch":1,"origins":1,"recomputed":1,"max_depth":1}"#,
                "kind `epoch_flushed` declares no field `key`",
            ),
            // Not an object at all.
            ("not json", "not a JSON object"),
        ];
        for (line, expected) in cases {
            assert_eq!(TraceRecord::from_json(line), Err(expected.to_string()));
        }
    }

    #[test]
    fn envelope_rows_name_the_fields_the_writer_emits() {
        let names: Vec<&str> = ENVELOPE_ROWS
            .lines()
            .map(|row| row.split('`').nth(1).expect("| `name` | …"))
            .collect();
        let fields = parse_flat_object(DRESSED_LINE).unwrap();
        let notified = TRACE_EVENTS[TraceKind::Notified as usize].fields;
        assert_eq!(fields.len(), names.len() + notified.len());
        let at = |name: &str| DRESSED_LINE.find(&format!("\"{name}\":")).expect(name);
        assert!(names.windows(2).all(|pair| at(pair[0]) < at(pair[1])));
        // The event's own fields sit between `event` and `span`.
        assert!(notified
            .iter()
            .all(|field| at("event") < at(field.name) && at(field.name) < at("span")));
    }

    #[test]
    fn trace_doc_is_in_sync_with_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/TRACE.md");
        let rendered = trace_markdown();
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(path, &rendered).unwrap();
        }
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        assert!(
            on_disk == rendered,
            "docs/TRACE.md differs from the event table in crates/core/src/trace.rs; \
             regenerate it with\n    BLESS=1 cargo test -p streammeta-core trace_doc"
        );
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
                kind: TraceKind::SourceUpdate.into(),
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
}
