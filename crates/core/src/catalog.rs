//! System catalog: the metadata graph exposed as typed relations.
//!
//! The paper's reflexive principle — metadata flows through the same
//! pub-sub machinery as data — is completed here: the manager's own
//! runtime state (handlers, dependencies, quarantine, the trace bus) is
//! materialised as *system relations* in the style of `pg_catalog`.
//! Each relation has a fixed column list ([`RelationColumn`]) and
//! [`MetadataManager::catalog_rows`] snapshots it as plain rows of
//! [`MetadataValue`] cells, sorted by key for determinism.
//!
//! The `streammeta-cql` crate layers queryability on top: it registers
//! each relation as a stream source so `SELECT key FROM sys.handlers
//! WHERE p99 > period` is an installable continuous query firing
//! through normal observer delivery.

use std::sync::Arc;

use crate::handler::Handler;
use crate::manager::MetadataManager;
use crate::value::MetadataValue;
use crate::NodeId;

/// The graph node under which continuous catalog queries install their
/// items (`META_NODE` minus one; both are far outside any real graph).
pub const CATALOG_NODE: NodeId = NodeId(u32::MAX - 1);

/// One column of a system relation.
#[derive(Clone, Copy, Debug)]
pub struct RelationColumn {
    /// Column name, as referenced in CQL.
    pub name: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

const fn col(name: &'static str, doc: &'static str) -> RelationColumn {
    RelationColumn { name, doc }
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

const ITEMS_COLUMNS: &[RelationColumn] = &[
    col("key", "qualified item key, `node/path`"),
    col("node", "graph node id"),
    col("item", "item path within the node"),
    col("mechanism", "update mechanism label"),
    col("period", "periodic window, unavailable otherwise"),
    col("deadline", "declared compute deadline, if any"),
    col("version", "stored value version"),
    col("updated_at", "time of the last stored change"),
    col("degraded", "whether the current value is stale last-good"),
    col(
        "staleness",
        "age of a degraded value, unavailable when healthy",
    ),
];

const HANDLERS_COLUMNS: &[RelationColumn] = &[
    col("key", "qualified item key, `node/path`"),
    col("node", "graph node id"),
    col("item", "item path within the node"),
    col("mechanism", "update mechanism label"),
    col("period", "periodic window, unavailable otherwise"),
    col("subscriptions", "current subscription refcount"),
    col("accesses", "consumer accesses"),
    col("updates", "stored value changes"),
    col("computes", "compute-function evaluations"),
    col(
        "p50",
        "median compute latency (ns), needs latency profiling",
    ),
    col("p95", "95th-percentile compute latency (ns)"),
    col("p99", "99th-percentile compute latency (ns)"),
    col(
        "epoch",
        "last epoch flush that recomputed the item (0 = never)",
    ),
];

const DEPENDENCIES_COLUMNS: &[RelationColumn] = &[
    col("source", "dependency source (item key or event key)"),
    col("source_kind", "`item` or `event`"),
    col("dependent", "the item that depends on the source"),
    col("role", "role name the compute function reads"),
    col("certain", "false for unchosen dynamic alternatives"),
];

const SUBSCRIPTIONS_COLUMNS: &[RelationColumn] = &[
    col("key", "qualified item key, `node/path`"),
    col("node", "graph node id"),
    col("item", "item path within the node"),
    col("subscriptions", "current subscription refcount"),
    col("mechanism", "update mechanism label"),
];

const QUARANTINE_COLUMNS: &[RelationColumn] = &[
    col("key", "qualified item key, `node/path`"),
    col("state", "`healthy`, `degraded` or `quarantined`"),
    col("streak", "consecutive failed evaluations"),
    col("attempt", "retries scheduled in the current episode"),
    col("trips", "lifetime quarantine entries"),
    col("quarantined_until", "cool-down end, unavailable when open"),
    col("staleness", "age of the stale last-good value"),
];

const TRACE_COLUMNS: &[RelationColumn] = &[
    col("seq", "trace sequence number"),
    col("at", "emission time"),
    col("kind", "event kind"),
    col("key", "item key the event concerns"),
    col("detail", "human-readable event description"),
];

const SPANS_COLUMNS: &[RelationColumn] = &[
    col("span", "span id (unique per sampled hop)"),
    col("parent", "parent span id, 0 for a root span"),
    col("root", "first root span of the causal chain"),
    col("roots", "contributing root count (epoch coalescing > 1)"),
    col("key", "item key the span's work concerns"),
    col(
        "kind",
        "what the span covers (source_update, propagation_step, …)",
    ),
    col("depth", "hop depth below the root"),
    col("start", "span start time"),
    col("end", "span end time"),
    col("duration", "end - start"),
];

const PARTITIONS_COLUMNS: &[RelationColumn] = &[
    col("part", "partition id"),
    col("nodes", "graph nodes attached (including proxy shadows)"),
    col("handlers", "live handlers on the partition"),
    col("links", "cross-partition proxy links homed here"),
    col("up", "whether the partition's link is reachable"),
    col("updates", "remote update messages applied to its proxies"),
];

const REMOTE_SUBSCRIPTIONS_COLUMNS: &[RelationColumn] = &[
    col("key", "remote item key the proxy mirrors"),
    col("part", "partition hosting the proxy item"),
    col("owner", "partition owning the real item"),
    col("state", "`up` or `down` (owner link reachability)"),
    col("updates", "remote update messages applied to this proxy"),
    col("version", "owner-side version last received"),
];

/// Cells describing one handler's identity: key, node, item.
fn identity(h: &Handler) -> [MetadataValue; 3] {
    [
        MetadataValue::text(h.key.to_string()),
        MetadataValue::U64(h.key.node.0 as u64),
        MetadataValue::text(h.key.item.as_str()),
    ]
}

fn period_cell(h: &Handler) -> MetadataValue {
    match h.mechanism() {
        crate::Mechanism::Periodic { window } => MetadataValue::Span(window),
        _ => MetadataValue::Unavailable,
    }
}

impl MetadataManager {
    /// Materialises one system relation as rows of cells, ordered by the
    /// relation's columns (see [`SystemRelation::columns`]) and sorted by
    /// item key so repeated snapshots of unchanged state are identical.
    ///
    /// `sys.trace` has record rows only while the installed trace sink
    /// is or contains a [`crate::RingBufferSink`], and a `trace_file`
    /// row only while it is or contains a [`crate::RotatingFileSink`].
    pub fn catalog_rows(&self, relation: SystemRelation) -> Vec<Vec<MetadataValue>> {
        let now = self.clock().now();
        match relation {
            SystemRelation::Items => self
                .handlers_snapshot()
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
            SystemRelation::Handlers => self
                .handlers_snapshot()
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
                        MetadataValue::U64(
                            h.subscriptions.load(std::sync::atomic::Ordering::Relaxed) as u64,
                        ),
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
                for h in self.handlers_snapshot() {
                    let dependent = MetadataValue::text(h.key.to_string());
                    // Live edges first: what this inclusion actually reads.
                    let mut live: Vec<(String, &'static str, Arc<str>)> = h
                        .resolved_deps
                        .iter()
                        .map(|d| {
                            let (src, kind) = match &d.source {
                                crate::DepSource::Item(k) => (k.to_string(), "item"),
                                crate::DepSource::Event(e) => (e.to_string(), "event"),
                            };
                            (src, kind, d.role.clone())
                        })
                        .collect();
                    // Then the analysis-time alternatives a dynamic
                    // resolver did *not* pick for this inclusion.
                    for (dep, _certain) in h.def.analysis_deps(h.key.node) {
                        let source = dep.target.resolve(h.key.node);
                        let (src, kind) = match &source {
                            crate::DepSource::Item(k) => (k.to_string(), "item"),
                            crate::DepSource::Event(e) => (e.to_string(), "event"),
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
            SystemRelation::Subscriptions => self
                .handlers_snapshot()
                .iter()
                .map(|h| {
                    let mut row = identity(h).to_vec();
                    row.extend([
                        MetadataValue::U64(
                            h.subscriptions.load(std::sync::atomic::Ordering::Relaxed) as u64,
                        ),
                        MetadataValue::text(h.def.mechanism().label()),
                    ]);
                    row
                })
                .collect(),
            SystemRelation::Quarantine => self
                .handlers_snapshot()
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
                let sink = self.trace_sink();
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
                // An installed rotating file sink contributes one
                // `trace_file` summary row so rotation is observable
                // through the catalog (a wrapped-but-unnoticed trace is
                // exactly the failure mode the rotating sink prevents).
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
            SystemRelation::Spans => self
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
                                MetadataValue::text(s.kind),
                                MetadataValue::U64(s.depth as u64),
                                MetadataValue::Time(s.start),
                                MetadataValue::Time(s.end),
                                MetadataValue::Span(streammeta_time::TimeSpan(s.duration())),
                            ]
                        })
                        .collect()
                })
                .unwrap_or_default(),
            SystemRelation::Partitions | SystemRelation::RemoteSubscriptions => {
                self.plane_rows(relation)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DepTarget, ItemDef, MetadataKey, NodeRegistry, RingBufferSink, RotatingFileSink, TeeSink,
        TraceSink,
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
        let arity = SystemRelation::Items.columns().len();
        for row in &rows {
            assert_eq!(row.len(), arity);
        }
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
            let arity = SystemRelation::Trace.columns().len();
            assert!(rows.iter().all(|r| r.len() == arity));
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
        let summary = rows.last().unwrap();
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
        let arity = SystemRelation::Spans.columns().len();
        assert_eq!(rows.len(), store.len());
        assert!(rows.iter().all(|r| r.len() == arity));
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
}
