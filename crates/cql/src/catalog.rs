//! CQL over the framework's own state: the `sys.*` system relations.
//!
//! `streammeta-core` materialises the metadata graph as typed relations
//! ([`SystemRelation`]); this module makes them *queryable* three ways:
//!
//! 1. **Stream sources** — [`register_system_sources`] installs one
//!    graph source per relation, each periodically re-snapshotting its
//!    relation as a batch of tuples, so ordinary [`crate::compile`] /
//!    [`crate::install`] queries can range over `sys.handlers` exactly
//!    like over a data stream.
//! 2. **One-shot queries** — [`query_once`] evaluates a query in one
//!    scan of the relation ([`MetadataManager::catalog_scan`]), without
//!    touching the graph (the dashboard/CLI path). The scan builds only
//!    the cells the query reads: its predicates' columns for every row,
//!    the projected or aggregated ones for the rows that match.
//! 3. **Continuous queries** — [`install_continuous`] turns a query
//!    into a periodic metadata item on [`CATALOG_NODE`]; its matches
//!    re-evaluate on the manager's own update machinery and observers
//!    fire through normal observer delivery. This is the alerting
//!    primitive: `SELECT key FROM sys.handlers WHERE p99 > period`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use streammeta_core::{
    CatalogRow, ColumnType, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeRegistry,
    Subscription, SystemRelation, CATALOG_NODE,
};
use streammeta_graph::QueryGraph;
use streammeta_streams::{tuple, Element, Field, Generator, Schema, Value, ValueType};
use streammeta_time::{TimeSpan, Timestamp};

use crate::ast::{AggFn, CmpOp, PredicateRhs, Query, SelectList};
use crate::compile::{Catalog, Scope};
use crate::error::CqlError;
use crate::parser::parse;

/// The stream schema of a system relation, read off its column table
/// ([`SystemRelation::columns`]).
pub fn relation_schema(relation: SystemRelation) -> Schema {
    Schema::new(relation.columns().iter().map(|c| {
        let ty = match c.ty {
            ColumnType::Int => ValueType::Int,
            ColumnType::Str => ValueType::Str,
            ColumnType::Bool => ValueType::Bool,
        };
        Field::new(c.name, ty)
    }))
}

/// Converts one catalog cell to a stream value. Spans and instants
/// flatten to their integer time units so predicates can compare them
/// (`p99 > period`); unavailable cells and histograms become `Null`,
/// which no comparison matches.
pub fn cell_to_value(cell: &MetadataValue) -> Value {
    match cell {
        MetadataValue::Unavailable | MetadataValue::Histogram(_) => Value::Null,
        MetadataValue::F64(v) => Value::Float(*v),
        MetadataValue::I64(v) => Value::Int(*v),
        MetadataValue::U64(v) => Value::Int(*v as i64),
        MetadataValue::Bool(b) => Value::Bool(*b),
        MetadataValue::Text(s) => Value::Str(s.clone()),
        MetadataValue::Span(s) => Value::Int(s.0 as i64),
        MetadataValue::Time(t) => Value::Int(t.0 as i64),
    }
}

/// Numeric view of a catalog cell for predicate evaluation. Text,
/// unavailable cells and histograms are non-numeric: predicates over
/// them never match.
fn cell_f64(cell: &MetadataValue) -> Option<f64> {
    match cell {
        MetadataValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        other => other.as_f64(),
    }
}

/// A live stream source materialising one system relation: when polled
/// at or after a `refresh` boundary of manager time it snapshots the
/// relation once and emits its rows as one batch of tuples stamped with
/// the latest boundary reached.
struct CatalogSource {
    manager: Weak<MetadataManager>,
    relation: SystemRelation,
    schema: Schema,
    refresh: TimeSpan,
    next_at: Timestamp,
    batch: VecDeque<Element>,
}

impl CatalogSource {
    fn new(manager: &Arc<MetadataManager>, relation: SystemRelation, refresh: TimeSpan) -> Self {
        CatalogSource {
            manager: Arc::downgrade(manager),
            relation,
            schema: relation_schema(relation),
            refresh: TimeSpan(refresh.0.max(1)),
            next_at: manager.clock().now(),
            batch: VecDeque::new(),
        }
    }
}

impl Generator for CatalogSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_element(&mut self) -> Option<Element> {
        if let Some(e) = self.batch.pop_front() {
            return Some(e);
        }
        // Manager gone: the relation stream genuinely ends.
        let manager = self.manager.upgrade()?;
        let now = manager.clock().now();
        if self.next_at > now {
            // Nothing yet — being live, the engine will ask again.
            return None;
        }
        // One snapshot per poll however far the clock jumped: the
        // boundaries skipped in between would all have shown this state.
        let skipped = (now.0 - self.next_at.0) / self.refresh.0;
        let at = Timestamp(self.next_at.0 + skipped * self.refresh.0);
        self.next_at = at + self.refresh;
        let arity = self.schema.arity();
        self.batch = manager
            .catalog_scan(self.relation, |row| {
                let payload = tuple((0..arity).map(|c| cell_to_value(row.cell(c))));
                Some(Element::new(payload, at))
            })
            .into();
        self.batch.pop_front()
    }

    fn live(&self) -> bool {
        true
    }
}

/// Attaches `manager` as the catalog's system side: [`query_once`] and
/// [`install_continuous`] evaluate against its relations.
pub fn attach_system(catalog: &mut Catalog, manager: Arc<MetadataManager>) {
    catalog.system = Some(manager);
}

/// Registers all `sys.*` relations as live stream sources on
/// `graph`, refreshed every `refresh` units of manager time, so stream
/// queries (including joins and windows) can range over them. Requires
/// [`attach_system`] first; fails with [`CqlError::DuplicateSource`] if
/// a `sys.*` name is already taken.
pub fn register_system_sources(
    graph: &QueryGraph,
    catalog: &mut Catalog,
    refresh: TimeSpan,
) -> Result<(), CqlError> {
    let manager = catalog
        .system()
        .cloned()
        .ok_or_else(|| CqlError::Compile("attach_system before register_system_sources".into()))?;
    for relation in SystemRelation::ALL {
        let src = graph.source(
            relation.name(),
            Box::new(CatalogSource::new(&manager, relation, refresh)),
        );
        catalog.register(relation.name(), src)?;
    }
    Ok(())
}

/// How a relation query's matched rows project.
enum PlanOutput {
    /// The cells of these columns (`*` is every column), in key order.
    Columns(Vec<usize>),
    /// One row holding the aggregate (`col` is `None` for `COUNT(*)`).
    Aggregate { func: AggFn, col: Option<usize> },
}

/// Right-hand side of one resolved predicate.
enum RhsIx {
    Lit(i64),
    Col(usize),
}

/// A query resolved against one system relation's column table. The
/// cells it reads — predicate columns first, then the projected or
/// aggregated ones, for matching rows only — are the only ones a scan
/// builds.
struct RelationPlan {
    relation: SystemRelation,
    predicates: Vec<(usize, CmpOp, RhsIx)>,
    /// A predicate compares a `Str` column, and text never compares
    /// with a number: no row matches, so nothing is scanned.
    unsatisfiable: bool,
    output: PlanOutput,
    /// Output column labels.
    columns: Vec<String>,
}

/// A running aggregate over the numeric cells of matched rows.
struct Fold {
    /// Matched rows for `COUNT(*)`, numeric cells otherwise.
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Fold {
    fn new() -> Fold {
        Fold {
            count: 0,
            // What `Iterator::sum` starts from, so an empty SUM stays
            // bit-identical to summing an empty list.
            sum: std::iter::empty::<f64>().sum(),
            min: None,
            max: None,
        }
    }

    fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    fn finish(&self, func: AggFn) -> MetadataValue {
        let value = match func {
            AggFn::Count => Some(self.count as f64),
            AggFn::Sum => Some(self.sum),
            AggFn::Avg if self.count == 0 => None,
            AggFn::Avg => Some(self.sum / self.count as f64),
            AggFn::Min => self.min,
            AggFn::Max => self.max,
        };
        value.map_or(MetadataValue::Unavailable, MetadataValue::F64)
    }
}

impl RelationPlan {
    fn build(query: &Query) -> Result<RelationPlan, CqlError> {
        let relation = SystemRelation::by_name(&query.from.stream).ok_or_else(|| {
            CqlError::Compile(format!("unknown system relation {}", query.from.stream))
        })?;
        if query.join.is_some() {
            return Err(CqlError::Compile(
                "joins over system relations need stream sources (register_system_sources)".into(),
            ));
        }
        if query.from.range.is_some() {
            return Err(CqlError::Compile(
                "RANGE windows do not apply to relation snapshots".into(),
            ));
        }
        let table = relation.columns();
        let scope = Scope::single(query.from.binding(), relation_schema(relation));
        let is_text = |col: usize| table[col].ty == ColumnType::Str;
        let mut predicates = Vec::new();
        let mut unsatisfiable = false;
        for pred in &query.predicates {
            let col = scope.resolve(&pred.column)?;
            let rhs = match &pred.rhs {
                PredicateRhs::Literal(v) => RhsIx::Lit(*v),
                PredicateRhs::Column(c) => RhsIx::Col(scope.resolve(c)?),
            };
            unsatisfiable |= is_text(col) || matches!(rhs, RhsIx::Col(c) if is_text(c));
            predicates.push((col, pred.op, rhs));
        }
        let (output, columns) = match &query.select {
            SelectList::Star => (
                PlanOutput::Columns((0..table.len()).collect()),
                table.iter().map(|c| c.name.to_string()).collect(),
            ),
            SelectList::Columns(cols) => {
                let mut indices = Vec::new();
                let mut names = Vec::new();
                for c in cols {
                    indices.push(scope.resolve(c)?);
                    names.push(c.column.clone());
                }
                (PlanOutput::Columns(indices), names)
            }
            SelectList::Aggregate { func, arg } => {
                let col = match (func, arg) {
                    (AggFn::Count, None) => None,
                    (AggFn::Count, Some(_)) | (_, None) => {
                        return Err(CqlError::Compile("malformed aggregate".into()))
                    }
                    (_, Some(c)) => Some(scope.resolve(c)?),
                };
                let label = match func {
                    AggFn::Count => "count",
                    AggFn::Sum => "sum",
                    AggFn::Avg => "avg",
                    AggFn::Min => "min",
                    AggFn::Max => "max",
                };
                (
                    PlanOutput::Aggregate { func: *func, col },
                    vec![label.to_string()],
                )
            }
        };
        Ok(RelationPlan {
            relation,
            predicates,
            unsatisfiable,
            output,
            columns,
        })
    }

    fn matches(&self, row: &mut CatalogRow<'_>) -> bool {
        self.predicates.iter().all(|(col, op, rhs)| {
            let Some(l) = cell_f64(row.cell(*col)) else {
                return false;
            };
            let r = match rhs {
                RhsIx::Lit(v) => Some(*v as f64),
                RhsIx::Col(j) => cell_f64(row.cell(*j)),
            };
            let Some(r) = r else { return false };
            match op {
                CmpOp::Lt => l < r,
                CmpOp::Eq => l == r,
                CmpOp::Gt => l > r,
            }
        })
    }

    /// Scans the relation, handing `keep` the rows every predicate
    /// matches.
    fn scan<T>(
        &self,
        manager: &MetadataManager,
        mut keep: impl FnMut(&mut CatalogRow<'_>) -> Option<T>,
    ) -> Vec<T> {
        if self.unsatisfiable {
            return Vec::new();
        }
        manager.catalog_scan(self.relation, |row| {
            if self.matches(row) {
                keep(row)
            } else {
                None
            }
        })
    }

    /// Filters and projects the relation's current state. An aggregate
    /// folds as it scans, in scan order: every catalog cell is a whole
    /// number, so the order cannot show in a sum below 2^53.
    fn evaluate(&self, manager: &MetadataManager) -> Vec<Vec<MetadataValue>> {
        match &self.output {
            PlanOutput::Columns(indices) => self.scan(manager, |row| Some(row.cells(indices))),
            PlanOutput::Aggregate { func, col } => {
                let mut fold = Fold::new();
                self.scan(manager, |row| {
                    match col {
                        None => fold.count += 1,
                        Some(i) => {
                            if let Some(v) = cell_f64(row.cell(*i)) {
                                fold.add(v);
                            }
                        }
                    }
                    None::<()>
                });
                vec![vec![fold.finish(*func)]]
            }
        }
    }
}

/// Result of a one-shot relation query: labelled rows of catalog cells.
#[derive(Debug)]
pub struct RelationResult {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Matched (and projected) rows.
    pub rows: Vec<Vec<MetadataValue>>,
}

/// Evaluates `text` once against the current snapshot of a system
/// relation — no graph, no continuous execution. The catalog must have
/// a system side ([`attach_system`]).
pub fn query_once(catalog: &Catalog, text: &str) -> Result<RelationResult, CqlError> {
    let query = parse(text)?;
    let plan = RelationPlan::build(&query)?;
    let manager = catalog
        .system()
        .ok_or_else(|| CqlError::Compile("catalog has no system side (attach_system)".into()))?;
    let rows = plan.evaluate(manager);
    Ok(RelationResult {
        columns: plan.columns,
        rows,
    })
}

/// Counter naming installed continuous catalog queries (`catalog.q0`,
/// `catalog.q1`, …) uniquely across the process.
static NEXT_QUERY: AtomicU64 = AtomicU64::new(0);

/// A continuous query installed over a system relation.
///
/// The query lives as a periodic metadata item on [`CATALOG_NODE`]:
/// every `period` the item re-evaluates the relation snapshot, stores
/// the matched rows, and publishes a digest value. Because the digest
/// only changes when the *result set* changes, observers registered via
/// [`Self::observe`] fire exactly on result transitions — the normal
/// observer-delivery path of the metadata manager.
pub struct ContinuousQuery {
    manager: Arc<MetadataManager>,
    key: MetadataKey,
    columns: Vec<String>,
    matches: Arc<Mutex<Vec<Vec<MetadataValue>>>>,
    /// Keeps the item included for the query's lifetime.
    subscription: Subscription,
}

impl ContinuousQuery {
    /// The metadata key of the query's item on [`CATALOG_NODE`].
    pub fn key(&self) -> &MetadataKey {
        &self.key
    }

    /// Output column labels.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows matched by the most recent evaluation.
    pub fn matches(&self) -> Vec<Vec<MetadataValue>> {
        self.matches.lock().expect("matches lock").clone()
    }

    /// The current digest value (or aggregate result) of the query.
    pub fn current(&self) -> MetadataValue {
        self.subscription.get()
    }

    /// Registers a push observer on the query item: `callback` fires
    /// through normal observer delivery whenever the result set
    /// changes. Returns the observing subscription; dropping it
    /// deregisters the observer.
    pub fn observe(
        &self,
        callback: impl Fn(&streammeta_core::VersionedValue) + Send + Sync + 'static,
    ) -> Result<Subscription, CqlError> {
        self.manager
            .subscribe_with(self.key.clone(), callback)
            .map_err(|e| CqlError::Compile(format!("observer subscription failed: {e}")))
    }
}

impl std::fmt::Debug for ContinuousQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousQuery")
            .field("key", &self.key)
            .field("columns", &self.columns)
            .finish_non_exhaustive()
    }
}

/// Installs `text` as a continuous query over a system relation,
/// re-evaluated every `period` of manager time. See [`ContinuousQuery`].
pub fn install_continuous(
    catalog: &Catalog,
    text: &str,
    period: TimeSpan,
) -> Result<ContinuousQuery, CqlError> {
    let query = parse(text)?;
    let plan = RelationPlan::build(&query)?;
    let manager = catalog
        .system()
        .cloned()
        .ok_or_else(|| CqlError::Compile("catalog has no system side (attach_system)".into()))?;

    let registry = match manager.registry(CATALOG_NODE) {
        Some(r) => r,
        None => {
            let r = NodeRegistry::new(CATALOG_NODE);
            manager.attach_node(r.clone());
            r
        }
    };
    let path = format!("catalog.q{}", NEXT_QUERY.fetch_add(1, Ordering::Relaxed));
    let matches: Arc<Mutex<Vec<Vec<MetadataValue>>>> = Arc::new(Mutex::new(Vec::new()));
    let columns = plan.columns.clone();
    let aggregate = matches!(plan.output, PlanOutput::Aggregate { .. });
    let weak = Arc::downgrade(&manager);
    let matches_w = matches.clone();
    registry.define(
        ItemDef::periodic(path.as_str(), period)
            .doc(format!("continuous catalog query: {text}"))
            .compute(move |_ctx| {
                let Some(mgr) = weak.upgrade() else {
                    return MetadataValue::Unavailable;
                };
                let rows = plan.evaluate(&mgr);
                let value = if aggregate {
                    rows.first()
                        .and_then(|r| r.first())
                        .cloned()
                        .unwrap_or(MetadataValue::Unavailable)
                } else {
                    MetadataValue::text(digest(&rows))
                };
                *matches_w.lock().expect("matches lock") = rows;
                value
            })
            .build(),
    );
    let key = MetadataKey::new(CATALOG_NODE, path.as_str());
    let subscription = manager
        .subscribe(key.clone())
        .map_err(|e| CqlError::Compile(format!("installing {path} failed: {e}")))?;
    Ok(ContinuousQuery {
        manager,
        key,
        columns,
        matches,
        subscription,
    })
}

/// Digest of a result set: row count plus every projected cell, so any
/// change in the matched rows changes the stored value (and wakes
/// observers), while identical consecutive evaluations do not.
fn digest(rows: &[Vec<MetadataValue>]) -> String {
    let mut out = format!("{} rows", rows.len());
    for row in rows {
        out.push(';');
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            out.push_str(&cell.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use streammeta_core::{NodeId, RingBufferSink, TraceRecord, TraceSink};
    use streammeta_time::VirtualClock;

    /// A trace sink with no ring that counts how often one is looked
    /// for: once per snapshot of `sys.trace`.
    #[derive(Default)]
    struct CountLookups(AtomicUsize);

    impl TraceSink for CountLookups {
        fn record(&self, _record: TraceRecord) {}

        fn ring(&self) -> Option<&RingBufferSink> {
            self.0.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    #[test]
    fn a_poll_takes_one_snapshot_however_far_the_clock_jumped() {
        let clock = VirtualClock::shared();
        let manager = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(1));
        reg.define(ItemDef::static_value("size", 8u64));
        manager.attach_node(reg);
        let _size = manager
            .subscribe(MetadataKey::new(NodeId(1), "size"))
            .unwrap();
        let lookups = Arc::new(CountLookups::default());
        manager.set_trace_sink(Some(lookups.clone()));

        let mut empty = CatalogSource::new(&manager, SystemRelation::Trace, TimeSpan(1));
        let mut items = CatalogSource::new(&manager, SystemRelation::Items, TimeSpan(1));
        // The boundary at the start, then a million more in one step.
        assert!(empty.next_element().is_none());
        assert_eq!(
            items.next_element().map(|e| e.timestamp),
            Some(Timestamp(0))
        );
        assert!(items.next_element().is_none());
        assert_eq!(lookups.0.swap(0, Ordering::Relaxed), 1);
        clock.advance(TimeSpan(1_000_000));

        // An empty relation: one look, not one per boundary skipped.
        assert!(empty.next_element().is_none());
        assert_eq!(lookups.0.load(Ordering::Relaxed), 1);
        // A relation with a row: one batch, stamped with the boundary
        // reached, not a replay of every one skipped.
        let batch: Vec<Element> = std::iter::from_fn(|| items.next_element()).collect();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].timestamp, Timestamp(1_000_000));
        // Within the same refresh interval neither source looks again.
        assert!(empty.next_element().is_none() && items.next_element().is_none());
        assert_eq!(lookups.0.load(Ordering::Relaxed), 1);
        // A refresh that does not divide the jump stamps the boundary
        // before now and resumes on the grid.
        let mut coarse = CatalogSource::new(&manager, SystemRelation::Items, TimeSpan(300));
        clock.advance(TimeSpan(1_000));
        assert_eq!(
            coarse.next_element().map(|e| e.timestamp),
            Some(Timestamp(1_000_900))
        );
        assert_eq!(coarse.next_at, Timestamp(1_001_200));
    }
}
