//! System catalog: the metadata graph exposed as typed relations.
//!
//! The paper's reflexive principle — metadata flows through the same
//! pub-sub machinery as data — is completed here: the manager's own
//! runtime state (handlers, dependencies, quarantine, the trace bus) is
//! materialised as *system relations* in the style of `pg_catalog`.
//!
//! A relation is defined once, as a table of [`RelationColumn`]s: name,
//! doc, stream type and the function that extracts the column's cell
//! from one row source. Everything else derives from that table — the
//! column list, the CQL schema, and the one access path,
//! [`MetadataManager::catalog_scan`], which hands a visitor one lazy
//! [`CatalogRow`] per row source: only the cells the visitor reads are
//! built. The handler relations read their rows from one snapshot of
//! the manager's handler map, which is ordered by key, so the first
//! scan after a change copies it without a sort and later scans reuse
//! it until the handler set changes. A handler formats its key text
//! once, on its first read. Once a visitor reads cells, the walk
//! prefetches the handler a fixed distance ahead, only the cache lines
//! the cells read, so the misses of successive rows overlap.
//! [`MetadataManager::catalog_rows`] is that scan keeping every cell of
//! every row, in one flat [`CatalogRows`] buffer.
//!
//! The `streammeta-cql` crate layers queryability on top: it registers
//! each relation as a stream source so `SELECT key FROM sys.handlers
//! WHERE p99 > period` is an installable continuous query firing
//! through normal observer delivery.

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use streammeta_time::{TimeSpan, Timestamp};

use crate::handler::Handler;
use crate::manager::MetadataManager;
use crate::trace::{RotatingFileSink, SpanRecord, TraceRecord};
use crate::value::{MetadataValue, VersionedValue};
use crate::{DepSource, Mechanism, MetadataKey, NodeId};

use ColumnType::{Bool, Int, Str};
use MetadataValue::{Text, Unavailable, U64};

/// The graph node under which continuous catalog queries install their
/// items (`META_NODE` minus one; both are far outside any real graph).
pub const CATALOG_NODE: NodeId = NodeId(u32::MAX - 1);

/// The stream type a column's cells convert to. Counts, spans and
/// instants all flatten to `Int`; any cell may also be unavailable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnType {
    /// Counts, ids, time spans and instants.
    Int,
    /// Text.
    Str,
    /// Flags.
    Bool,
}

/// Builds one cell from a row source; the timestamp is the scan's `now`.
type CellFn = fn(&RowSource<'_>, Timestamp) -> MetadataValue;

/// One column of a system relation.
#[derive(Clone, Copy, Debug)]
pub struct RelationColumn {
    /// Column name, as referenced in CQL.
    pub name: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// Stream type of the column's cells.
    pub ty: ColumnType,
    cell: CellFn,
}

const fn col(
    name: &'static str,
    doc: &'static str,
    ty: ColumnType,
    cell: CellFn,
) -> RelationColumn {
    RelationColumn {
        name,
        doc,
        ty,
        cell,
    }
}

/// The system relations of the catalog.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SystemRelation {
    /// `sys.items`: every included item with mechanism, period,
    /// deadline, version and staleness.
    Items,
    /// `sys.handlers`: per-handler runtime statistics — refcounts,
    /// compute counts, latency percentiles.
    Handlers,
    /// `sys.dependencies`: the runtime dependency graph, including
    /// unchosen dynamic alternatives (marked `certain = false`).
    Dependencies,
    /// `sys.subscriptions`: subscription refcounts per item.
    Subscriptions,
    /// `sys.quarantine`: containment state of items with a fallback
    /// policy.
    Quarantine,
    /// `sys.trace`: a bounded tail of the trace bus as rows (requires a
    /// [`crate::RingBufferSink`] installed as, or teed into, the trace
    /// sink).
    Trace,
    /// `sys.spans`: finished causal lineage spans (requires
    /// [`MetadataManager::enable_catalog_spans`] plus span sampling).
    Spans,
    /// `sys.partitions`: one row per partition of the owning
    /// [`crate::PartitionedMetadataPlane`] — node/handler counts, link
    /// state, remote-update totals. Empty on a stand-alone manager.
    Partitions,
    /// `sys.remote_subscriptions`: one row per live cross-partition
    /// proxy link of the owning plane. Empty on a stand-alone manager.
    RemoteSubscriptions,
}

impl SystemRelation {
    /// All relations, in catalog order.
    pub const ALL: [SystemRelation; 9] = [
        SystemRelation::Items,
        SystemRelation::Handlers,
        SystemRelation::Dependencies,
        SystemRelation::Subscriptions,
        SystemRelation::Quarantine,
        SystemRelation::Trace,
        SystemRelation::Spans,
        SystemRelation::Partitions,
        SystemRelation::RemoteSubscriptions,
    ];

    /// The relation's qualified name (`sys.items`, …).
    pub fn name(&self) -> &'static str {
        match self {
            SystemRelation::Items => "sys.items",
            SystemRelation::Handlers => "sys.handlers",
            SystemRelation::Dependencies => "sys.dependencies",
            SystemRelation::Subscriptions => "sys.subscriptions",
            SystemRelation::Quarantine => "sys.quarantine",
            SystemRelation::Trace => "sys.trace",
            SystemRelation::Spans => "sys.spans",
            SystemRelation::Partitions => "sys.partitions",
            SystemRelation::RemoteSubscriptions => "sys.remote_subscriptions",
        }
    }

    /// Looks a relation up by its qualified name.
    pub fn by_name(name: &str) -> Option<SystemRelation> {
        SystemRelation::ALL
            .iter()
            .copied()
            .find(|r| r.name() == name)
    }

    /// The relation's columns, in row order.
    pub fn columns(&self) -> &'static [RelationColumn] {
        match self {
            SystemRelation::Items => ITEMS_COLUMNS,
            SystemRelation::Handlers => HANDLERS_COLUMNS,
            SystemRelation::Dependencies => DEPENDENCIES_COLUMNS,
            SystemRelation::Subscriptions => SUBSCRIPTIONS_COLUMNS,
            SystemRelation::Quarantine => QUARANTINE_COLUMNS,
            SystemRelation::Trace => TRACE_COLUMNS,
            SystemRelation::Spans => SPANS_COLUMNS,
            SystemRelation::Partitions => PARTITIONS_COLUMNS,
            SystemRelation::RemoteSubscriptions => REMOTE_SUBSCRIPTIONS_COLUMNS,
        }
    }
}

// ---------------------------------------------------------------------
// Row sources: what a column's cell function reads
// ---------------------------------------------------------------------

/// What one row of a relation is built from. A relation's scan only
/// ever produces the variant its columns read.
pub(crate) enum RowSource<'a> {
    /// `sys.items`, `sys.handlers`, `sys.subscriptions`, `sys.quarantine`.
    Handler(HandlerRow<'a>),
    /// `sys.dependencies`.
    Edge(&'a Edge),
    /// `sys.trace`.
    Trace(TraceRow<'a>),
    /// `sys.spans`.
    Span(&'a SpanRecord),
    /// `sys.partitions`.
    Partition(&'a PartitionRow),
    /// `sys.remote_subscriptions`.
    Link(&'a LinkRow),
}

impl RowSource<'_> {
    fn handler(&self) -> &HandlerRow<'_> {
        match self {
            RowSource::Handler(row) => row,
            _ => unreachable!("column of a handler relation"),
        }
    }

    fn edge(&self) -> &Edge {
        match self {
            RowSource::Edge(edge) => edge,
            _ => unreachable!("column of sys.dependencies"),
        }
    }

    fn trace(&self) -> &TraceRow<'_> {
        match self {
            RowSource::Trace(row) => row,
            _ => unreachable!("column of sys.trace"),
        }
    }

    fn span(&self) -> &SpanRecord {
        match self {
            RowSource::Span(span) => span,
            _ => unreachable!("column of sys.spans"),
        }
    }

    fn partition(&self) -> &PartitionRow {
        match self {
            RowSource::Partition(row) => row,
            _ => unreachable!("column of sys.partitions"),
        }
    }

    fn link(&self) -> &LinkRow {
        match self {
            RowSource::Link(row) => row,
            _ => unreachable!("column of sys.remote_subscriptions"),
        }
    }
}

/// One handler as a row source. What several columns share is read
/// once, by the first cell that needs it, so the cells of one row
/// agree with each other (`version` and `degraded` come from the same
/// value snapshot).
pub(crate) struct HandlerRow<'a> {
    h: &'a Handler,
    value: OnceCell<VersionedValue>,
    quantiles: OnceCell<Option<[u64; 3]>>,
    containment: OnceCell<Containment>,
}

/// The containment fields `sys.quarantine` shows, copied out from
/// under the handler's containment lock.
struct Containment {
    streak: u32,
    attempt: u32,
    trips: u64,
    quarantined_until: Option<Timestamp>,
}

impl<'a> HandlerRow<'a> {
    fn new(h: &'a Handler) -> Self {
        HandlerRow {
            h,
            value: OnceCell::new(),
            quantiles: OnceCell::new(),
            containment: OnceCell::new(),
        }
    }

    fn value(&self) -> &VersionedValue {
        self.value.get_or_init(|| self.h.snapshot())
    }

    /// Compute-latency p50/p95/p99 by index.
    fn quantile(&self, i: usize) -> MetadataValue {
        self.quantiles
            .get_or_init(|| self.h.latency_quantiles())
            .map_or(Unavailable, |q| U64(q[i]))
    }

    fn containment(&self) -> &Containment {
        self.containment.get_or_init(|| {
            let st = self.h.containment.lock();
            Containment {
                streak: st.streak,
                attempt: st.attempt,
                trips: st.trips,
                quarantined_until: st.quarantined_until,
            }
        })
    }

    fn staleness(&self, now: Timestamp) -> MetadataValue {
        span_cell(self.value().staleness(now))
    }
}

/// One edge of the runtime dependency graph.
pub(crate) struct Edge {
    source: String,
    kind: &'static str,
    dependent: Arc<str>,
    role: Arc<str>,
    certain: bool,
}

/// The edges into `h`: first the analysis-time alternatives a dynamic
/// resolver did *not* pick for this inclusion, then the live edges —
/// what the inclusion actually reads.
fn edges(h: &Handler) -> Vec<Edge> {
    let dependent = h.key_text();
    let edge = |source: &DepSource, role: &Arc<str>, certain| Edge {
        source: source.to_string(),
        kind: source.kind(),
        dependent: dependent.clone(),
        role: role.clone(),
        certain,
    };
    let live: Vec<Edge> = h
        .resolved_deps
        .iter()
        .map(|d| edge(&d.source, &d.role, true))
        .collect();
    let mut all: Vec<Edge> = h
        .def
        .analysis_deps(h.key.node)
        .iter()
        .map(|(dep, _certain)| edge(&dep.target.resolve(h.key.node), &dep.role, false))
        .filter(|e| {
            !live
                .iter()
                .any(|l| l.source == e.source && l.role == e.role)
        })
        .collect();
    all.extend(live);
    all
}

/// One row of `sys.trace`: a record of the installed ring, or the
/// summary of the installed rotating file.
pub(crate) enum TraceRow<'a> {
    Record(&'a TraceRecord),
    File(&'a RotatingFileSink),
}

/// One partition of a plane, as `sys.partitions` shows it.
pub(crate) struct PartitionRow {
    pub(crate) part: usize,
    pub(crate) nodes: usize,
    pub(crate) handlers: usize,
    pub(crate) links: usize,
    pub(crate) up: bool,
    pub(crate) updates: u64,
}

/// One cross-partition proxy link, as `sys.remote_subscriptions` shows
/// it.
pub(crate) struct LinkRow {
    pub(crate) key: MetadataKey,
    pub(crate) part: usize,
    pub(crate) owner: usize,
    pub(crate) up: bool,
    pub(crate) updates: u64,
    pub(crate) version: u64,
}

// ---------------------------------------------------------------------
// Cell helpers
// ---------------------------------------------------------------------

/// A `fmt::Write` target on the stack. Nearly all catalog text (item
/// keys) is short, and an `Arc<str>` copied from a borrowed `str` is one
/// allocation where going through a `String` is two and a free.
struct StackText {
    buf: [u8; 96],
    len: usize,
}

impl std::fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(std::fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// The key's display text (`key.to_string()`) as a shared string.
pub(crate) fn key_text(key: &MetadataKey) -> Arc<str> {
    let mut text = StackText {
        buf: [0; 96],
        len: 0,
    };
    match write!(text, "{}/{}", key.node, key.item) {
        Ok(()) => Arc::from(std::str::from_utf8(&text.buf[..text.len]).expect("written as str")),
        // Longer than the buffer.
        Err(_) => Arc::from(key.to_string()),
    }
}

/// The mechanism label cell; each label is allocated once and shared by
/// every row.
fn mechanism_cell(mechanism: Mechanism) -> MetadataValue {
    static LABELS: [OnceLock<Arc<str>>; 4] = [const { OnceLock::new() }; 4];
    Text(
        LABELS[mechanism.ordinal()]
            .get_or_init(|| Arc::from(mechanism.label()))
            .clone(),
    )
}

fn span_cell(span: Option<TimeSpan>) -> MetadataValue {
    span.map_or(Unavailable, MetadataValue::Span)
}

fn usize_cell(n: usize) -> MetadataValue {
    U64(n as u64)
}

// ---------------------------------------------------------------------
// The column tables
// ---------------------------------------------------------------------

const KEY: RelationColumn = col("key", "qualified item key, `node/path`", Str, |s, _| {
    Text(s.handler().h.key_text().clone())
});
const NODE: RelationColumn = col("node", "graph node id", Int, |s, _| {
    U64(s.handler().h.key.node.0 as u64)
});
const ITEM: RelationColumn = col("item", "item path within the node", Str, |s, _| {
    Text(s.handler().h.key.item.as_arc().clone())
});
const MECHANISM: RelationColumn = col("mechanism", "update mechanism label", Str, |s, _| {
    mechanism_cell(s.handler().h.mechanism())
});
const PERIOD: RelationColumn = col(
    "period",
    "periodic window, unavailable otherwise",
    Int,
    |s, _| match s.handler().h.mechanism() {
        Mechanism::Periodic { window } => MetadataValue::Span(window),
        _ => Unavailable,
    },
);
const SUBSCRIPTIONS: RelationColumn = col(
    "subscriptions",
    "current subscription refcount",
    Int,
    |s, _| usize_cell(s.handler().h.subscriptions.load(Ordering::Relaxed)),
);

const ITEMS_COLUMNS: &[RelationColumn] = &[
    KEY,
    NODE,
    ITEM,
    MECHANISM,
    PERIOD,
    col(
        "deadline",
        "declared compute deadline, if any",
        Int,
        |s, _| span_cell(s.handler().h.def.deadline()),
    ),
    col("version", "stored value version", Int, |s, _| {
        U64(s.handler().value().version)
    }),
    col(
        "updated_at",
        "time of the last stored change",
        Int,
        |s, _| MetadataValue::Time(s.handler().value().updated_at),
    ),
    col(
        "degraded",
        "whether the current value is stale last-good",
        Bool,
        |s, _| MetadataValue::Bool(s.handler().value().degraded),
    ),
    col(
        "staleness",
        "age of a degraded value, unavailable when healthy",
        Int,
        |s, now| s.handler().staleness(now),
    ),
];

const HANDLERS_COLUMNS: &[RelationColumn] = &[
    KEY,
    NODE,
    ITEM,
    MECHANISM,
    PERIOD,
    SUBSCRIPTIONS,
    col("accesses", "consumer accesses", Int, |s, _| {
        U64(s.handler().h.access_count())
    }),
    col("updates", "stored value changes", Int, |s, _| {
        U64(s.handler().h.update_count())
    }),
    col("computes", "compute-function evaluations", Int, |s, _| {
        U64(s.handler().h.compute_count())
    }),
    col(
        "p50",
        "median compute latency (ns), needs latency profiling",
        Int,
        |s, _| s.handler().quantile(0),
    ),
    col(
        "p95",
        "95th-percentile compute latency (ns)",
        Int,
        |s, _| s.handler().quantile(1),
    ),
    col(
        "p99",
        "99th-percentile compute latency (ns)",
        Int,
        |s, _| s.handler().quantile(2),
    ),
    col(
        "epoch",
        "last epoch flush that recomputed the item (0 = never)",
        Int,
        |s, _| U64(s.handler().h.last_epoch()),
    ),
];

const DEPENDENCIES_COLUMNS: &[RelationColumn] = &[
    col(
        "source",
        "dependency source (item key or event key)",
        Str,
        |s, _| MetadataValue::text(&s.edge().source),
    ),
    col("source_kind", "`item` or `event`", Str, |s, _| {
        MetadataValue::text(s.edge().kind)
    }),
    col(
        "dependent",
        "the item that depends on the source",
        Str,
        |s, _| Text(s.edge().dependent.clone()),
    ),
    col(
        "role",
        "role name the compute function reads",
        Str,
        |s, _| Text(s.edge().role.clone()),
    ),
    col(
        "certain",
        "false for unchosen dynamic alternatives",
        Bool,
        |s, _| MetadataValue::Bool(s.edge().certain),
    ),
];

const SUBSCRIPTIONS_COLUMNS: &[RelationColumn] = &[KEY, NODE, ITEM, SUBSCRIPTIONS, MECHANISM];

const QUARANTINE_COLUMNS: &[RelationColumn] = &[
    KEY,
    col(
        "state",
        "`healthy`, `degraded` or `quarantined`",
        Str,
        |s, _| {
            let row = s.handler();
            MetadataValue::text(if row.containment().quarantined_until.is_some() {
                "quarantined"
            } else if row.value().degraded {
                "degraded"
            } else {
                "healthy"
            })
        },
    ),
    col("streak", "consecutive failed evaluations", Int, |s, _| {
        U64(s.handler().containment().streak as u64)
    }),
    col(
        "attempt",
        "retries scheduled in the current episode",
        Int,
        |s, _| U64(s.handler().containment().attempt as u64),
    ),
    col("trips", "lifetime quarantine entries", Int, |s, _| {
        U64(s.handler().containment().trips)
    }),
    col(
        "quarantined_until",
        "cool-down end, unavailable when open",
        Int,
        |s, _| {
            s.handler()
                .containment()
                .quarantined_until
                .map_or(Unavailable, MetadataValue::Time)
        },
    ),
    col(
        "staleness",
        "age of the stale last-good value",
        Int,
        |s, now| s.handler().staleness(now),
    ),
];

// An installed rotating file sink contributes one `trace_file` summary
// row so rotation is observable through the catalog (a
// wrapped-but-unnoticed trace is exactly the failure mode the rotating
// sink prevents).
const TRACE_COLUMNS: &[RelationColumn] = &[
    col("seq", "trace sequence number", Int, |s, _| {
        match s.trace() {
            TraceRow::Record(rec) => U64(rec.seq),
            TraceRow::File(file) => U64(file.records_written()),
        }
    }),
    col("at", "emission time", Int, |s, now| match s.trace() {
        TraceRow::Record(rec) => MetadataValue::Time(rec.at),
        TraceRow::File(_) => MetadataValue::Time(now),
    }),
    col("kind", "event kind", Str, |s, _| match s.trace() {
        TraceRow::Record(rec) => MetadataValue::text(rec.event.kind()),
        TraceRow::File(_) => MetadataValue::text("trace_file"),
    }),
    col("key", "item key the event concerns", Str, |s, _| {
        match s.trace() {
            TraceRow::Record(rec) => rec.event.key().map_or(Unavailable, |k| Text(key_text(k))),
            TraceRow::File(_) => Unavailable,
        }
    }),
    col(
        "detail",
        "human-readable event description",
        Str,
        |s, _| match s.trace() {
            TraceRow::Record(rec) => MetadataValue::text(rec.event.to_string()),
            TraceRow::File(file) => MetadataValue::text(format!(
                "trace_file path={} rotations={} records={}",
                file.path().display(),
                file.rotations(),
                file.records_written()
            )),
        },
    ),
];

const SPANS_COLUMNS: &[RelationColumn] = &[
    col("span", "span id (unique per sampled hop)", Int, |s, _| {
        U64(s.span().span)
    }),
    col(
        "parent",
        "parent span id, 0 for a root span",
        Int,
        |s, _| U64(s.span().parent.unwrap_or(0)),
    ),
    col(
        "root",
        "first root span of the causal chain",
        Int,
        |s, _| U64(s.span().root),
    ),
    col(
        "roots",
        "contributing root count (epoch coalescing > 1)",
        Int,
        |s, _| usize_cell(s.span().roots),
    ),
    col("key", "item key the span's work concerns", Str, |s, _| {
        s.span()
            .key
            .as_ref()
            .map_or(Unavailable, |k| Text(key_text(k)))
    }),
    col(
        "kind",
        "what the span covers (source_update, propagation_step, …)",
        Str,
        |s, _| MetadataValue::text(s.span().kind.name()),
    ),
    col("depth", "hop depth below the root", Int, |s, _| {
        U64(s.span().depth as u64)
    }),
    col("start", "span start time", Int, |s, _| {
        MetadataValue::Time(s.span().start)
    }),
    col("end", "span end time", Int, |s, _| {
        MetadataValue::Time(s.span().end)
    }),
    col("duration", "end - start", Int, |s, _| {
        MetadataValue::Span(TimeSpan(s.span().duration()))
    }),
];

const PARTITIONS_COLUMNS: &[RelationColumn] = &[
    col("part", "partition id", Int, |s, _| {
        usize_cell(s.partition().part)
    }),
    col(
        "nodes",
        "graph nodes attached (including proxy shadows)",
        Int,
        |s, _| usize_cell(s.partition().nodes),
    ),
    col("handlers", "live handlers on the partition", Int, |s, _| {
        usize_cell(s.partition().handlers)
    }),
    col(
        "links",
        "cross-partition proxy links homed here",
        Int,
        |s, _| usize_cell(s.partition().links),
    ),
    col(
        "up",
        "whether the partition's link is reachable",
        Bool,
        |s, _| MetadataValue::Bool(s.partition().up),
    ),
    col(
        "updates",
        "remote update messages applied to its proxies",
        Int,
        |s, _| U64(s.partition().updates),
    ),
];

const REMOTE_SUBSCRIPTIONS_COLUMNS: &[RelationColumn] = &[
    col("key", "remote item key the proxy mirrors", Str, |s, _| {
        Text(key_text(&s.link().key))
    }),
    col("part", "partition hosting the proxy item", Int, |s, _| {
        usize_cell(s.link().part)
    }),
    col("owner", "partition owning the real item", Int, |s, _| {
        usize_cell(s.link().owner)
    }),
    col(
        "state",
        "`up` or `down` (owner link reachability)",
        Str,
        |s, _| MetadataValue::text(if s.link().up { "up" } else { "down" }),
    ),
    col(
        "updates",
        "remote update messages applied to this proxy",
        Int,
        |s, _| U64(s.link().updates),
    ),
    col(
        "version",
        "owner-side version last received",
        Int,
        |s, _| U64(s.link().version),
    ),
];

// ---------------------------------------------------------------------
// The scan
// ---------------------------------------------------------------------

/// One row of a relation during a [`MetadataManager::catalog_scan`].
/// A cell is built when first read and kept while the row is visited,
/// so predicates reading a column twice see one cell, a projection
/// reuses what the predicates built, and a column nobody reads costs
/// nothing.
pub struct CatalogRow<'a> {
    source: RowSource<'a>,
    now: Timestamp,
    columns: &'static [RelationColumn],
    scratch: &'a mut Scratch,
}

/// The cells of the row being visited, shared by all rows of a scan.
struct Scratch {
    /// By column index: built and not yet moved out.
    cells: Vec<Option<MetadataValue>>,
    /// The slots of `cells` filled during this row.
    filled: Vec<usize>,
    /// Whether any row of this scan built a cell: from then on the
    /// handler walk prefetches the rows ahead.
    read: bool,
}

impl CatalogRow<'_> {
    fn build(&mut self, column: usize) -> MetadataValue {
        self.scratch.read = true;
        (self.columns[column].cell)(&self.source, self.now)
    }

    /// The cell of `column`, an index into
    /// [`SystemRelation::columns`].
    ///
    /// # Panics
    /// If `column` is not a column index of the relation.
    pub fn cell(&mut self, column: usize) -> &MetadataValue {
        if self.scratch.cells[column].is_none() {
            let built = self.build(column);
            self.scratch.cells[column] = Some(built);
            self.scratch.filled.push(column);
        }
        self.scratch.cells[column].as_ref().expect("just built")
    }

    /// The cells of `columns`, in that order, as an owned row. Cells
    /// already built are moved out of the row, so project last; a
    /// column listed twice is built twice.
    pub fn cells(&mut self, columns: &[usize]) -> Vec<MetadataValue> {
        let mut row = Vec::with_capacity(columns.len());
        for &column in columns {
            row.push(self.take(column));
        }
        row
    }

    /// The cell of `column`, moved out of the row if already built.
    fn take(&mut self, column: usize) -> MetadataValue {
        match self.scratch.cells[column].take() {
            Some(built) => built,
            None => self.build(column),
        }
    }
}

/// A materialised relation (see [`MetadataManager::catalog_rows`]):
/// every cell of every row, row after row in one buffer, so a snapshot
/// is one allocation however many rows it has. Indexing and
/// [`Self::iter`] yield rows as slices, ordered by the relation's
/// columns.
#[derive(Clone, PartialEq)]
pub struct CatalogRows {
    width: usize,
    cells: Vec<MetadataValue>,
}

impl CatalogRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The rows, in the relation's order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, MetadataValue> {
        self.cells.chunks_exact(self.width)
    }
}

impl std::ops::Index<usize> for CatalogRows {
    type Output = [MetadataValue];

    fn index(&self, row: usize) -> &[MetadataValue] {
        &self.cells[row * self.width..(row + 1) * self.width]
    }
}

impl<'a> IntoIterator for &'a CatalogRows {
    type Item = &'a [MetadataValue];
    type IntoIter = std::slice::ChunksExact<'a, MetadataValue>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Row by row, so a snapshot compares with rows built some other way.
impl PartialEq<Vec<Vec<MetadataValue>>> for CatalogRows {
    fn eq(&self, other: &Vec<Vec<MetadataValue>>) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

impl std::fmt::Debug for CatalogRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Where a scan's rows go: [`MetadataManager::catalog_scan`]'s visitor
/// and what it keeps, or the cells of a [`CatalogRows`].
trait RowSink {
    /// Called once before the rows, with how many there are at most.
    fn reserve(&mut self, rows: usize);
    fn row(&mut self, row: &mut CatalogRow<'_>);
}

/// A visitor and the values it kept.
struct Keep<F, T> {
    visit: F,
    kept: Vec<T>,
}

impl<F, T> RowSink for Keep<F, T>
where
    F: FnMut(&mut CatalogRow<'_>) -> Option<T>,
{
    fn reserve(&mut self, rows: usize) {
        self.kept.reserve(rows);
    }

    fn row(&mut self, row: &mut CatalogRow<'_>) {
        self.kept.extend((self.visit)(row));
    }
}

/// Every cell of every row, built straight into the buffer.
impl RowSink for CatalogRows {
    fn reserve(&mut self, rows: usize) {
        self.cells.reserve(rows * self.width);
    }

    fn row(&mut self, row: &mut CatalogRow<'_>) {
        for column in 0..self.width {
            let cell = row.build(column);
            self.cells.push(cell);
        }
    }
}

/// The per-scan state shared by all rows: the sink and the scratch
/// cells every [`CatalogRow`] borrows in turn.
struct Scan<S> {
    now: Timestamp,
    columns: &'static [RelationColumn],
    scratch: Scratch,
    sink: S,
}

impl<S: RowSink> Scan<S> {
    fn row(&mut self, source: RowSource<'_>) {
        self.sink.row(&mut CatalogRow {
            source,
            now: self.now,
            columns: self.columns,
            scratch: &mut self.scratch,
        });
        for column in self.scratch.filled.drain(..) {
            self.scratch.cells[column] = None;
        }
    }

    /// Visits `sources`, whose count is known up front.
    fn rows<'a>(&mut self, sources: impl ExactSizeIterator<Item = RowSource<'a>>) {
        self.sink.reserve(sources.len());
        for source in sources {
            self.row(source);
        }
    }
}

/// How many handlers ahead of the row being built the walk prefetches:
/// enough rows to cover a memory miss.
const PREFETCH_AHEAD: usize = 8;

impl MetadataManager {
    /// Scans one system relation: `visit` sees every row once, reads
    /// the cells it needs through the [`CatalogRow`] — only those are
    /// built — and returns what to keep of the row, or `None` to drop
    /// it. The kept values come back in the relation's key order:
    /// item-key order for the handler relations (so repeated scans of
    /// unchanged state are identical), sequence order for `sys.trace`
    /// and `sys.spans`.
    ///
    /// The handler relations walk one snapshot of the live handlers,
    /// shared by every scan until the handler set changes. The manager
    /// keeps its handlers in a key-ordered map, so the first scan after
    /// an inclusion or exclusion rebuilds the snapshot by copying the
    /// map's values under the bookkeeping lock, with no sort. No manager
    /// lock is held while `visit` runs. A visitor that keeps nothing (a
    /// count, a running aggregate) allocates nothing per row. Once a
    /// visitor has read a cell, the walk prefetches the few cache lines
    /// of the handler a fixed distance ahead that the cells read, so
    /// the memory misses of successive rows overlap.
    ///
    /// `sys.trace` has record rows only while the installed trace sink
    /// is or contains a [`crate::RingBufferSink`], and a `trace_file`
    /// row only while it is or contains a [`crate::RotatingFileSink`].
    pub fn catalog_scan<T>(
        &self,
        relation: SystemRelation,
        visit: impl FnMut(&mut CatalogRow<'_>) -> Option<T>,
    ) -> Vec<T> {
        let keep = Keep {
            visit,
            kept: Vec::new(),
        };
        self.scan_into(relation, keep).kept
    }

    /// Materialises one system relation, every cell of every row,
    /// ordered by the relation's columns (see
    /// [`SystemRelation::columns`]): the rows [`Self::catalog_scan`]
    /// visits, built into one buffer sized from the row count.
    pub fn catalog_rows(&self, relation: SystemRelation) -> CatalogRows {
        let rows = CatalogRows {
            width: relation.columns().len(),
            cells: Vec::new(),
        };
        self.scan_into(relation, rows)
    }

    fn scan_into<S: RowSink>(&self, relation: SystemRelation, sink: S) -> S {
        let columns = relation.columns();
        let mut scan = Scan {
            now: self.clock().now(),
            columns,
            scratch: Scratch {
                cells: vec![None; columns.len()],
                filled: Vec::with_capacity(columns.len()),
                read: false,
            },
            sink,
        };
        match relation {
            SystemRelation::Items
            | SystemRelation::Handlers
            | SystemRelation::Subscriptions
            | SystemRelation::Quarantine
            | SystemRelation::Dependencies => {
                // Already in key order; the edges of one item follow in
                // edge order.
                let handlers = self.handlers_by_key();
                scan.sink.reserve(handlers.len());
                for (i, h) in handlers.iter().enumerate() {
                    // Issued before this row's cells take their `Arc`
                    // references, whose locked increments would hold
                    // the prefetch back.
                    if scan.scratch.read {
                        if let Some(ahead) = handlers.get(i + PREFETCH_AHEAD) {
                            ahead.prefetch_catalog_lines();
                        }
                    }
                    match relation {
                        SystemRelation::Dependencies => {
                            for edge in &edges(h) {
                                scan.row(RowSource::Edge(edge));
                            }
                        }
                        SystemRelation::Quarantine if h.def.fallback().is_none() => {}
                        _ => scan.row(RowSource::Handler(HandlerRow::new(h))),
                    }
                }
            }
            SystemRelation::Trace => {
                let sink = self.trace_sink();
                let sink = sink.as_deref();
                let records = sink
                    .and_then(|sink| sink.ring())
                    .map(|ring| ring.snapshot())
                    .unwrap_or_default();
                let file = sink.and_then(|sink| sink.file());
                let rows = records
                    .iter()
                    .map(TraceRow::Record)
                    .chain(file.map(TraceRow::File))
                    .map(RowSource::Trace);
                scan.sink
                    .reserve(records.len() + usize::from(file.is_some()));
                for row in rows {
                    scan.row(row);
                }
            }
            SystemRelation::Spans => {
                let spans = self
                    .catalog_spans()
                    .map(|store| store.snapshot())
                    .unwrap_or_default();
                scan.rows(spans.iter().map(RowSource::Span));
            }
            SystemRelation::Partitions => {
                let parts = self
                    .plane()
                    .map(|plane| plane.partition_rows())
                    .unwrap_or_default();
                scan.rows(parts.iter().map(RowSource::Partition));
            }
            SystemRelation::RemoteSubscriptions => {
                let links = self
                    .plane()
                    .map(|plane| plane.link_rows())
                    .unwrap_or_default();
                scan.rows(links.iter().map(RowSource::Link));
            }
        }
        scan.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanSampling;
    use crate::{
        DepTarget, Dependency, EventKey, FallbackPolicy, ItemDef, MetadataKey, NodeRegistry,
        RingBufferSink, RotatingFileSink, Subscription, TeeSink, TraceSink,
    };
    use streammeta_time::{Clock, TimeSpan, VirtualClock};

    fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
        let clock = VirtualClock::shared();
        let manager = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(1));
        reg.define(ItemDef::static_value("size", 8u64));
        reg.define(
            ItemDef::periodic("rate", TimeSpan(10))
                .compute(|_| MetadataValue::F64(1.0))
                .build(),
        );
        reg.define(
            ItemDef::triggered("cost")
                .dep("rate", DepTarget::Local("rate".into()))
                .compute(|ctx| ctx.dep("rate"))
                .build(),
        );
        manager.attach_node(reg);
        (clock, manager)
    }

    #[test]
    fn relation_names_round_trip() {
        for rel in SystemRelation::ALL {
            assert_eq!(SystemRelation::by_name(rel.name()), Some(rel));
            assert!(!rel.columns().is_empty());
        }
        assert_eq!(SystemRelation::by_name("sys.nope"), None);
    }

    #[test]
    fn items_rows_cover_included_items() {
        let (_clock, manager) = setup();
        let _cost = manager
            .subscribe(MetadataKey::new(NodeId(1), "cost"))
            .unwrap();
        let rows = manager.catalog_rows(SystemRelation::Items);
        // cost + its dependency rate.
        assert_eq!(rows.len(), 2);
        let keys: Vec<String> = rows
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert!(keys.contains(&"n1/cost".to_string()) || keys.iter().any(|k| k.contains("cost")));
        // Sorted and deterministic.
        let again: Vec<String> = manager
            .catalog_rows(SystemRelation::Items)
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(keys, again);
    }

    #[test]
    fn dependencies_rows_carry_live_edges() {
        let (_clock, manager) = setup();
        let _cost = manager
            .subscribe(MetadataKey::new(NodeId(1), "cost"))
            .unwrap();
        let rows = manager.catalog_rows(SystemRelation::Dependencies);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row[0].as_text().unwrap().contains("rate"));
        assert_eq!(row[1].as_text(), Some("item"));
        assert!(row[2].as_text().unwrap().contains("cost"));
        assert_eq!(row[3].as_text(), Some("rate"));
        assert_eq!(row[4].as_bool(), Some(true));
    }

    #[test]
    fn trace_relation_reads_the_installed_ring() {
        let (clock, manager) = setup();
        assert!(manager.catalog_rows(SystemRelation::Trace).is_empty());
        // A ring installed as the plain trace sink — and one nested in a
        // tee — is what `sys.trace` materialises.
        let plain = RingBufferSink::new(16);
        let nested = RingBufferSink::new(16);
        for (sink, ring) in [
            (plain.clone() as Arc<dyn TraceSink>, plain),
            (TeeSink::new(vec![nested.clone()]), nested),
        ] {
            manager.set_trace_sink(Some(sink));
            let _rate = manager
                .subscribe(MetadataKey::new(NodeId(1), "rate"))
                .unwrap();
            clock.advance(TimeSpan(10));
            manager.periodic().advance_to(clock.now());
            assert!(!ring.is_empty());
            let rows = manager.catalog_rows(SystemRelation::Trace);
            assert_eq!(rows.len(), ring.len());
            assert_eq!(rows[0][2].as_text(), Some("subscribe"));
        }
    }

    #[test]
    fn trace_relation_reports_file_rotation() {
        let (_clock, manager) = setup();
        let dir = std::env::temp_dir().join(format!("streammeta_cat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = RotatingFileSink::create(dir.join("cat_trace.jsonl"), 4096).unwrap();
        // A file sink that exists but is not installed reports nothing.
        assert!(manager.catalog_rows(SystemRelation::Trace).is_empty());
        manager.set_trace_sink(Some(file.clone()));
        let rows = manager.catalog_rows(SystemRelation::Trace);
        assert_eq!(rows.len(), 1, "summary row even with no ring installed");
        assert_eq!(rows[0][2].as_text(), Some("trace_file"));
        let detail = rows[0][4].as_text().unwrap();
        assert!(detail.contains("rotations=0"), "{detail}");
        // Teed with a ring: the ring's records, then the summary row —
        // which counts records the file really received.
        let ring = RingBufferSink::new(16);
        manager.set_trace_sink(Some(TeeSink::new(vec![ring.clone(), file.clone()])));
        let _size = manager
            .subscribe(MetadataKey::new(NodeId(1), "size"))
            .unwrap();
        let rows = manager.catalog_rows(SystemRelation::Trace);
        assert_eq!(rows.len(), ring.len() + 1);
        let summary = &rows[rows.len() - 1];
        assert_eq!(summary[2].as_text(), Some("trace_file"));
        assert_eq!(summary[0].as_u64(), Some(ring.len() as u64));
        assert_eq!(file.records_written(), ring.len() as u64);
        manager.set_trace_sink(None);
        assert!(manager.catalog_rows(SystemRelation::Trace).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_relation_links_propagation_hops_to_their_root() {
        let (_clock, manager) = setup();
        assert!(manager.catalog_rows(SystemRelation::Spans).is_empty());
        let store = manager.enable_catalog_spans(64);
        manager.set_span_sampling(crate::trace::SpanSampling::Ratio(1));
        let _cost = manager
            .subscribe(MetadataKey::new(NodeId(1), "cost"))
            .unwrap();
        manager.notify_changed(MetadataKey::new(NodeId(1), "rate"));
        assert!(!store.snapshot().is_empty());
        let rows = manager.catalog_rows(SystemRelation::Spans);
        assert_eq!(rows.len(), store.len());
        let by_kind = |kind: &str| {
            rows.iter()
                .find(|r| r[5].as_text() == Some(kind))
                .unwrap_or_else(|| panic!("no {kind} span row"))
        };
        let root = by_kind("source_update");
        let hop = by_kind("propagation_step");
        // The root is parentless and self-rooted; the hop the update
        // caused parents to it and shares its root id.
        assert_eq!(root[1].as_u64(), Some(0));
        assert_eq!(root[2].as_u64(), root[0].as_u64());
        assert_eq!(hop[1].as_u64(), root[0].as_u64());
        assert_eq!(hop[2].as_u64(), root[0].as_u64());
        assert_eq!(hop[3].as_u64(), Some(1));
        assert!(hop[4].as_text().unwrap().contains("cost"));
        assert_eq!(hop[6].as_u64(), Some(1));
    }

    #[test]
    fn tail_returns_most_recent_records() {
        let (clock, manager) = setup();
        let sink = RingBufferSink::new(64);
        manager.set_trace_sink(Some(sink.clone()));
        let _rate = manager
            .subscribe(MetadataKey::new(NodeId(1), "rate"))
            .unwrap();
        clock.advance(TimeSpan(50));
        manager.periodic().advance_to(clock.now());
        let all = sink.snapshot();
        assert!(all.len() >= 2);
        let tail = sink.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].seq, all.last().unwrap().seq);
        assert!(sink.tail(1000).len() == all.len());
    }

    /// The row builder the column table replaced: every relation
    /// materialised positionally from handlers sorted up front. Kept as
    /// the reference the scan must still equal cell for cell.
    fn reference_rows(
        manager: &MetadataManager,
        relation: SystemRelation,
    ) -> Vec<Vec<MetadataValue>> {
        fn identity(h: &Handler) -> [MetadataValue; 3] {
            [
                MetadataValue::text(h.key.to_string()),
                MetadataValue::U64(h.key.node.0 as u64),
                MetadataValue::text(h.key.item.as_str()),
            ]
        }
        fn period_cell(h: &Handler) -> MetadataValue {
            match h.mechanism() {
                Mechanism::Periodic { window } => MetadataValue::Span(window),
                _ => MetadataValue::Unavailable,
            }
        }
        let now = manager.clock().now();
        let mut handlers: Vec<Arc<Handler>> = manager.with_handlers(|h| h.cloned().collect());
        handlers.sort_by(|a, b| a.key.cmp(&b.key));
        match relation {
            SystemRelation::Items => handlers
                .iter()
                .map(|h| {
                    let v = h.snapshot();
                    let mut row = identity(h).to_vec();
                    row.extend([
                        MetadataValue::text(h.def.mechanism().label()),
                        period_cell(h),
                        h.def
                            .deadline()
                            .map_or(MetadataValue::Unavailable, MetadataValue::Span),
                        MetadataValue::U64(v.version),
                        MetadataValue::Time(v.updated_at),
                        MetadataValue::Bool(v.degraded),
                        v.staleness(now)
                            .map_or(MetadataValue::Unavailable, MetadataValue::Span),
                    ]);
                    row
                })
                .collect(),
            SystemRelation::Handlers => handlers
                .iter()
                .map(|h| {
                    let quantiles = h.latency_quantiles();
                    let pct = |i: usize| {
                        quantiles.map_or(MetadataValue::Unavailable, |q| MetadataValue::U64(q[i]))
                    };
                    let mut row = identity(h).to_vec();
                    row.extend([
                        MetadataValue::text(h.def.mechanism().label()),
                        period_cell(h),
                        MetadataValue::U64(h.subscriptions.load(Ordering::Relaxed) as u64),
                        MetadataValue::U64(h.access_count()),
                        MetadataValue::U64(h.update_count()),
                        MetadataValue::U64(h.compute_count()),
                        pct(0),
                        pct(1),
                        pct(2),
                        MetadataValue::U64(h.last_epoch()),
                    ]);
                    row
                })
                .collect(),
            SystemRelation::Dependencies => {
                let mut rows = Vec::new();
                for h in &handlers {
                    let dependent = MetadataValue::text(h.key.to_string());
                    let mut live: Vec<(String, &'static str, Arc<str>)> = h
                        .resolved_deps
                        .iter()
                        .map(|d| {
                            let (src, kind) = match &d.source {
                                DepSource::Item(k) => (k.to_string(), "item"),
                                DepSource::Event(e) => (e.to_string(), "event"),
                            };
                            (src, kind, d.role.clone())
                        })
                        .collect();
                    for (dep, _certain) in h.def.analysis_deps(h.key.node) {
                        let source = dep.target.resolve(h.key.node);
                        let (src, kind) = match &source {
                            DepSource::Item(k) => (k.to_string(), "item"),
                            DepSource::Event(e) => (e.to_string(), "event"),
                        };
                        if !live.iter().any(|(s, _, r)| *s == src && *r == dep.role) {
                            rows.push(vec![
                                MetadataValue::text(&src),
                                MetadataValue::text(kind),
                                dependent.clone(),
                                MetadataValue::text(&*dep.role),
                                MetadataValue::Bool(false),
                            ]);
                        }
                    }
                    for (src, kind, role) in live.drain(..) {
                        rows.push(vec![
                            MetadataValue::text(src),
                            MetadataValue::text(kind),
                            dependent.clone(),
                            MetadataValue::text(&*role),
                            MetadataValue::Bool(true),
                        ]);
                    }
                }
                rows
            }
            SystemRelation::Subscriptions => handlers
                .iter()
                .map(|h| {
                    let mut row = identity(h).to_vec();
                    row.extend([
                        MetadataValue::U64(h.subscriptions.load(Ordering::Relaxed) as u64),
                        MetadataValue::text(h.def.mechanism().label()),
                    ]);
                    row
                })
                .collect(),
            SystemRelation::Quarantine => handlers
                .iter()
                .filter(|h| h.def.fallback().is_some())
                .map(|h| {
                    let v = h.snapshot();
                    let (streak, attempt, trips, until) = {
                        let st = h.containment.lock();
                        (st.streak, st.attempt, st.trips, st.quarantined_until)
                    };
                    let state = if until.is_some() {
                        "quarantined"
                    } else if v.degraded {
                        "degraded"
                    } else {
                        "healthy"
                    };
                    vec![
                        MetadataValue::text(h.key.to_string()),
                        MetadataValue::text(state),
                        MetadataValue::U64(streak as u64),
                        MetadataValue::U64(attempt as u64),
                        MetadataValue::U64(trips),
                        until.map_or(MetadataValue::Unavailable, MetadataValue::Time),
                        v.staleness(now)
                            .map_or(MetadataValue::Unavailable, MetadataValue::Span),
                    ]
                })
                .collect(),
            SystemRelation::Trace => {
                let sink = manager.trace_sink();
                let mut rows: Vec<Vec<MetadataValue>> = sink
                    .as_ref()
                    .and_then(|sink| sink.ring())
                    .map(|ring| {
                        ring.snapshot()
                            .into_iter()
                            .map(|rec| {
                                vec![
                                    MetadataValue::U64(rec.seq),
                                    MetadataValue::Time(rec.at),
                                    MetadataValue::text(rec.event.kind()),
                                    rec.event.key().map_or(MetadataValue::Unavailable, |k| {
                                        MetadataValue::text(k.to_string())
                                    }),
                                    MetadataValue::text(rec.event.to_string()),
                                ]
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                if let Some(file) = sink.as_ref().and_then(|sink| sink.file()) {
                    rows.push(vec![
                        MetadataValue::U64(file.records_written()),
                        MetadataValue::Time(now),
                        MetadataValue::text("trace_file"),
                        MetadataValue::Unavailable,
                        MetadataValue::text(format!(
                            "trace_file path={} rotations={} records={}",
                            file.path().display(),
                            file.rotations(),
                            file.records_written()
                        )),
                    ]);
                }
                rows
            }
            SystemRelation::Spans => manager
                .catalog_spans()
                .map(|store| {
                    store
                        .snapshot()
                        .into_iter()
                        .map(|s| {
                            vec![
                                MetadataValue::U64(s.span),
                                MetadataValue::U64(s.parent.unwrap_or(0)),
                                MetadataValue::U64(s.root),
                                MetadataValue::U64(s.roots as u64),
                                s.key.as_ref().map_or(MetadataValue::Unavailable, |k| {
                                    MetadataValue::text(k.to_string())
                                }),
                                MetadataValue::text(s.kind.name()),
                                MetadataValue::U64(s.depth as u64),
                                MetadataValue::Time(s.start),
                                MetadataValue::Time(s.end),
                                MetadataValue::Span(TimeSpan(s.duration())),
                            ]
                        })
                        .collect()
                })
                .unwrap_or_default(),
            // The plane's relations have their reference in `partition`.
            SystemRelation::Partitions | SystemRelation::RemoteSubscriptions => Vec::new(),
        }
    }

    /// A manager with every kind of row: static, on-demand, periodic
    /// (one with a deadline), triggered, event-triggered and dynamically
    /// resolved items on nodes whose numeric order differs from their
    /// text order, one item quarantined behind a failing compute, latency
    /// profiles, a ring and a file behind a tee, and spans.
    fn rich(dir: &std::path::Path) -> (Arc<MetadataManager>, Vec<Subscription>) {
        let clock = VirtualClock::shared();
        let manager = MetadataManager::new(clock.clone());
        manager.set_latency_profiling(true);
        let file = RotatingFileSink::create(dir.join("rich_trace.jsonl"), 1 << 20).unwrap();
        manager.set_trace_sink(Some(TeeSink::new(vec![RingBufferSink::new(512), file])));
        manager.enable_catalog_spans(512);
        manager.set_span_sampling(SpanSampling::Ratio(1));
        let mut keys = Vec::new();
        for node in [NodeId(9), NodeId(10), NodeId(100)] {
            let reg = NodeRegistry::new(node);
            reg.define(ItemDef::static_value("size", 8u64));
            reg.define(
                ItemDef::on_demand("now")
                    .compute(|ctx| MetadataValue::Time(ctx.now()))
                    .build(),
            );
            reg.define(
                ItemDef::periodic("rate", TimeSpan(10))
                    .deadline(TimeSpan(1_000_000))
                    .compute(|ctx| MetadataValue::U64(ctx.now().units()))
                    .build(),
            );
            reg.define(
                ItemDef::triggered("cost")
                    .dep_local("rate")
                    .on_event("tick")
                    .compute(|ctx| ctx.dep("rate"))
                    .build(),
            );
            let (rate, size) = (
                MetadataKey::new(node, "rate"),
                MetadataKey::new(NodeId(9), "size"),
            );
            reg.define(
                ItemDef::triggered("pick")
                    .dynamic_deps_with_alternatives(
                        move |_| vec![Dependency::new("src", DepTarget::Remote(rate.clone()))],
                        vec![Dependency::new("src", DepTarget::Remote(size.clone()))],
                    )
                    .compute(|ctx| ctx.dep("src"))
                    .build(),
            );
            reg.define(
                ItemDef::periodic("flaky", TimeSpan(10))
                    .fallback(FallbackPolicy {
                        max_retries: 1,
                        backoff: TimeSpan(3),
                        quarantine_after: 2,
                        cool_down: TimeSpan(1_000),
                    })
                    .compute(move |ctx| match ctx.now().units() {
                        // Healthy for two windows, then failing for good.
                        0..=20 => MetadataValue::U64(node.0 as u64),
                        _ => MetadataValue::Unavailable,
                    })
                    .build(),
            );
            manager.attach_node(reg);
            keys.extend(
                ["size", "now", "cost", "pick", "flaky"].map(|item| MetadataKey::new(node, item)),
            );
        }
        let subs: Vec<Subscription> = keys
            .into_iter()
            .map(|key| manager.subscribe(key).unwrap())
            .collect();
        for sub in &subs[..8] {
            clock.advance(TimeSpan(7));
            manager.periodic().advance_to(clock.now());
            manager.fire_event(EventKey::new(NodeId(10), "tick"));
            let _ = sub.get();
        }
        (manager, subs)
    }

    #[test]
    fn every_relation_equals_the_reference_builder() {
        let dir = std::env::temp_dir().join(format!("streammeta_cat_ref_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (manager, _subs) = rich(&dir);
        for relation in SystemRelation::ALL {
            let reference = reference_rows(&manager, relation);
            let planar = matches!(
                relation,
                SystemRelation::Partitions | SystemRelation::RemoteSubscriptions
            );
            assert_eq!(reference.is_empty(), planar, "{}", relation.name());
            assert_eq!(
                manager.catalog_rows(relation),
                reference,
                "{}",
                relation.name()
            );
        }
        // The fixture reaches the states the cells distinguish.
        let states: Vec<MetadataValue> =
            manager.catalog_scan(SystemRelation::Quarantine, |row| Some(row.cell(1).clone()));
        assert!(
            states.contains(&MetadataValue::text("quarantined")),
            "{states:?}"
        );
        let uncertain = manager.catalog_scan(SystemRelation::Dependencies, |row| {
            (row.cell(4) == &MetadataValue::Bool(false)).then_some(())
        });
        assert_eq!(uncertain.len(), 3, "one unchosen alternative per node");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every handler relation, scanned, equals the reference builder —
    /// which reads the live handler map, not the cached snapshot.
    fn assert_handler_relations_current(manager: &MetadataManager, step: &str) {
        for relation in [
            SystemRelation::Items,
            SystemRelation::Handlers,
            SystemRelation::Dependencies,
            SystemRelation::Subscriptions,
            SystemRelation::Quarantine,
        ] {
            assert_eq!(
                manager.catalog_rows(relation),
                reference_rows(manager, relation),
                "after {step}: {}",
                relation.name()
            );
        }
    }

    #[test]
    fn every_inclusion_and_exclusion_invalidates_the_snapshot() {
        let (_clock, manager) = setup();
        let key = |item: &str| MetadataKey::new(NodeId(1), item);
        assert_handler_relations_current(&manager, "nothing");
        let cost = manager.subscribe(key("cost")).unwrap();
        assert_handler_relations_current(&manager, "subscribe cost");
        let size = manager.subscribe(key("size")).unwrap();
        assert_handler_relations_current(&manager, "subscribe size");
        drop(cost);
        assert_handler_relations_current(&manager, "drop cost");
        assert!(manager.force_exclude(&key("size")));
        assert_handler_relations_current(&manager, "force_exclude size");
        drop(size);
        // A failed inclusion includes `rate`, then rolls it back.
        manager.registry(NodeId(1)).unwrap().define(
            ItemDef::triggered("broken")
                .dep_local("rate")
                .dep_local("missing")
                .compute(|ctx| ctx.dep("rate"))
                .build(),
        );
        assert!(manager.subscribe(key("broken")).is_err());
        assert_handler_relations_current(&manager, "rolled-back subscribe");
        manager
            .redefine(
                NodeId(1),
                ItemDef::triggered("cost")
                    .dep_local("size")
                    .compute(|ctx| ctx.dep("size"))
                    .build(),
            )
            .unwrap();
        assert_handler_relations_current(&manager, "redefine cost");
        let _cost = manager.subscribe(key("cost")).unwrap();
        assert_handler_relations_current(&manager, "re-subscribe cost");
        assert_eq!(
            manager.included_keys(),
            vec![key("cost"), key("size")],
            "the redefinition is what was included"
        );
    }

    #[test]
    fn the_snapshot_keeps_no_excluded_handler_alive() {
        let (_clock, manager) = setup();
        let key = MetadataKey::new(NodeId(1), "cost");
        let cost = manager.subscribe(key.clone()).unwrap();
        let handler = Arc::downgrade(cost.cached_handler());
        assert_eq!(manager.catalog_rows(SystemRelation::Handlers).len(), 2);
        drop(cost);
        assert!(handler.upgrade().is_none(), "dropped with its subscription");

        // A force-exclusion leaves the subscription as the last holder.
        let cost = manager.subscribe(key.clone()).unwrap();
        let handler = Arc::downgrade(cost.cached_handler());
        assert_eq!(manager.catalog_rows(SystemRelation::Handlers).len(), 2);
        assert!(manager.force_exclude(&key));
        assert!(handler.upgrade().is_some(), "pinned by the subscription");
        drop(cost);
        assert!(handler.upgrade().is_none(), "dropped with its last holder");
    }

    #[test]
    fn unprofiled_stats_neither_build_nor_invalidate_the_snapshot() {
        let (_clock, manager) = setup();
        let _cost = manager
            .subscribe(MetadataKey::new(NodeId(1), "cost"))
            .unwrap();
        assert!(manager.profiled_handler_stats().is_empty());
        assert!(manager.cached_handlers().is_none(), "built the snapshot");
        manager.catalog_rows(SystemRelation::Handlers);
        let built = manager.cached_handlers().expect("built by the scan");
        assert!(manager.profiled_handler_stats().is_empty());
        let kept = manager.cached_handlers().expect("still cached");
        assert!(Arc::ptr_eq(&built, &kept), "replaced the snapshot");
    }

    #[test]
    fn scan_builds_only_the_cells_read() {
        let (_clock, manager) = setup();
        let _cost = manager
            .subscribe(MetadataKey::new(NodeId(1), "cost"))
            .unwrap();
        // Nothing read, nothing kept: a count.
        let mut count = 0;
        let kept: Vec<()> = manager.catalog_scan(SystemRelation::Handlers, |_| {
            count += 1;
            None
        });
        assert!(kept.is_empty());
        assert_eq!(count, manager.handler_count());
        // A predicate on one column, a projection of another, for the
        // matching rows only; a cell read twice is one cell.
        let periodic = manager.catalog_scan(SystemRelation::Handlers, |row| {
            let period = row.cell(4).clone();
            assert_eq!(row.cell(4), &period);
            period.is_available().then(|| row.cells(&[2, 4]))
        });
        assert_eq!(
            periodic,
            vec![vec![
                MetadataValue::text("rate"),
                MetadataValue::Span(TimeSpan(10))
            ]]
        );
    }
}
