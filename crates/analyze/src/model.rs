//! Typed model extraction.
//!
//! The analyzer never executes a compute function: it reads the *item
//! definitions* of every attached [`NodeRegistry`] (mechanism, period,
//! declared dependencies, dynamic-dependency alternatives, the
//! declarative `stateful`/`reset_on_read`/`implied_window` flags) plus
//! the purely structural runtime facts a static pass may use — which
//! items currently have handlers and how many subscription roots share
//! them. Dynamic resolvers are probed as pure functions of the
//! [`streammeta_core::ResolveCtx`] (empty graph / full graph), which by
//! contract runs no user compute code.
//!
//! [`NodeRegistry`]: streammeta_core::NodeRegistry

use std::collections::BTreeMap;

use streammeta_core::{
    DepSource, ItemDef, Mechanism, MetadataKey, MetadataManager, MetadataValue, NodeId,
};
use streammeta_time::TimeSpan;

/// The update mechanism of a modelled item, with the period made
/// directly comparable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MechKind {
    /// Computed once at inclusion.
    Static,
    /// Recomputed on every access.
    OnDemand,
    /// Recomputed every `period` time units.
    Periodic(TimeSpan),
    /// Recomputed when a dependency changes or an event fires.
    Triggered,
}

impl MechKind {
    fn of(m: Mechanism) -> MechKind {
        match m {
            Mechanism::Static => MechKind::Static,
            Mechanism::OnDemand => MechKind::OnDemand,
            Mechanism::Periodic { window } => MechKind::Periodic(window),
            Mechanism::Triggered => MechKind::Triggered,
        }
    }

    /// The refresh period, for periodic items.
    pub fn period(&self) -> Option<TimeSpan> {
        match self {
            MechKind::Periodic(w) => Some(*w),
            _ => None,
        }
    }
}

/// One dependency edge of the model.
#[derive(Clone, Debug)]
pub struct DepEdge {
    /// Role name the compute function reads the value under.
    pub role: String,
    /// The concrete source (item or event), resolved relative to the
    /// defining node.
    pub source: DepSource,
    /// `false` for declared fixed dependencies, `true` for edges a
    /// dynamic resolver *may* pick (declared alternatives and probe
    /// results).
    pub alternative: bool,
}

/// The extracted model of one item definition.
#[derive(Clone, Debug)]
pub struct ItemModel {
    /// The item's key (node + path).
    pub key: MetadataKey,
    /// Update mechanism with comparable period.
    pub mechanism: MechKind,
    /// Declared: compute carries state across evaluations.
    pub stateful: bool,
    /// Declared: evaluation resets the underlying measurement.
    pub reset_on_read: bool,
    /// Declared sampling interval of a stateful aggregate.
    pub implied_window: Option<TimeSpan>,
    /// Declared per-evaluation compute deadline, if any.
    pub deadline: Option<TimeSpan>,
    /// Whether a failure-containment fallback policy is declared.
    pub has_fallback: bool,
    /// All dependency edges static analysis should consider.
    pub deps: Vec<DepEdge>,
    /// Live subscription roots currently sharing the item's handler
    /// (0 when not included). Direct subscriptions and dependent
    /// inclusions both count — each is an access path.
    pub subscribers: usize,
}

impl ItemModel {
    /// Builds the model of one definition at `node`.
    pub fn of_def(node: NodeId, def: &ItemDef, subscribers: usize) -> ItemModel {
        let key = MetadataKey::new(node, def.path().clone());
        let deps = def
            .analysis_deps(node)
            .into_iter()
            .map(|(dep, certain)| DepEdge {
                role: dep.role.to_string(),
                source: dep.target.resolve(node),
                alternative: !certain,
            })
            .collect();
        ItemModel {
            key,
            mechanism: MechKind::of(def.mechanism()),
            stateful: def.is_stateful(),
            reset_on_read: def.resets_on_read(),
            implied_window: def.implied_window(),
            deadline: def.deadline(),
            has_fallback: def.fallback().is_some(),
            deps,
            subscribers,
        }
    }

    /// The item-typed dependency sources (events filtered out).
    pub fn item_deps(&self) -> impl Iterator<Item = (&MetadataKey, &DepEdge)> {
        self.deps.iter().filter_map(|e| match &e.source {
            DepSource::Item(k) => Some((k, e)),
            DepSource::Event(_) => None,
        })
    }
}

/// The whole-graph model the rule engine runs on.
#[derive(Clone, Debug, Default)]
pub struct GraphModel {
    /// All modelled items, keyed for deterministic iteration.
    pub items: BTreeMap<MetadataKey, ItemModel>,
    /// Whether the manager batches trigger propagation into epochs
    /// (A7's precondition): coalesced flushes change how often
    /// reset-on-read inputs are actually read.
    pub epoch_mode: bool,
}

impl GraphModel {
    /// Extracts the model of every item defined in every registry
    /// attached to `manager`, without executing any compute function.
    pub fn extract(manager: &MetadataManager) -> GraphModel {
        let mut model = GraphModel {
            epoch_mode: matches!(
                manager.propagation_mode(),
                streammeta_core::PropagationMode::Epoch(_)
            ),
            ..GraphModel::default()
        };
        for node in manager.nodes() {
            let Some(reg) = manager.registry(node) else {
                continue;
            };
            for def in reg.definitions() {
                let key = MetadataKey::new(node, def.path().clone());
                let subscribers = manager.subscription_count(&key);
                model
                    .items
                    .insert(key.clone(), ItemModel::of_def(node, &def, subscribers));
            }
        }
        model
    }

    /// Like [`Self::extract`], additionally counting one *pending*
    /// subscription root on `pending` — used by the subscription-time
    /// validator, where the subscription being checked does not exist
    /// yet.
    pub fn extract_with_pending(manager: &MetadataManager, pending: &MetadataKey) -> GraphModel {
        let mut model = Self::extract(manager);
        if let Some(item) = model.items.get_mut(pending) {
            item.subscribers += 1;
        }
        model
    }

    /// Whether `key` is defined in the model.
    pub fn defines(&self, key: &MetadataKey) -> bool {
        self.items.contains_key(key)
    }

    /// Distinct items that declare a (fixed or alternative) dependency
    /// on `key`, sorted.
    pub fn dependents_of(&self, key: &MetadataKey) -> Vec<&MetadataKey> {
        self.items
            .values()
            .filter(|item| item.item_deps().any(|(dep, _)| dep == key))
            .map(|item| &item.key)
            .collect()
    }

    /// The model's dependency edges rendered as rows of the
    /// `sys.dependencies` system relation (columns `source`,
    /// `source_kind`, `dependent`, `role`, `certain` — see
    /// [`streammeta_core::SystemRelation::Dependencies`]).
    ///
    /// This is the *static* view: it covers every defined item, included
    /// or not, and marks dynamic-resolver alternatives `certain =
    /// false`. The runtime catalog
    /// ([`MetadataManager::catalog_rows`]) covers only live handlers and
    /// knows which alternative each inclusion actually picked; on a
    /// graph with only fixed dependencies the two views agree row for
    /// row over the included items (see the parity test).
    pub fn dependency_rows(&self) -> Vec<Vec<MetadataValue>> {
        let mut rows = Vec::new();
        for item in self.items.values() {
            for edge in &item.deps {
                let (src, kind) = match &edge.source {
                    DepSource::Item(k) => (k.to_string(), "item"),
                    DepSource::Event(e) => (e.to_string(), "event"),
                };
                rows.push(vec![
                    MetadataValue::text(src),
                    MetadataValue::text(kind),
                    MetadataValue::text(item.key.to_string()),
                    MetadataValue::text(&*edge.role),
                    MetadataValue::Bool(!edge.alternative),
                ]);
            }
        }
        rows
    }

    /// The keys (transitively) reachable from `root` over item
    /// dependency edges, including `root` itself — the subtree a new
    /// subscription to `root` would include.
    pub fn reachable_from(&self, root: &MetadataKey) -> std::collections::BTreeSet<MetadataKey> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![root.clone()];
        while let Some(key) = stack.pop() {
            if !seen.insert(key.clone()) {
                continue;
            }
            if let Some(item) = self.items.get(&key) {
                for (dep, _) in item.item_deps() {
                    stack.push(dep.clone());
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use streammeta_core::{DepTarget, Dependency, ItemDef, MetadataValue, NodeRegistry};
    use streammeta_time::VirtualClock;

    fn manager_with(defs: Vec<ItemDef>) -> Arc<MetadataManager> {
        let mgr = MetadataManager::new(VirtualClock::shared());
        let reg = NodeRegistry::new(NodeId(0));
        for d in defs {
            reg.define(d);
        }
        mgr.attach_node(reg);
        mgr
    }

    #[test]
    fn extraction_reads_flags_and_mechanisms() {
        let mgr = manager_with(vec![
            ItemDef::periodic("rate", TimeSpan(50)).stateful().build(),
            ItemDef::on_demand("naive").reset_on_read().build(),
            ItemDef::triggered("avg")
                .dep_local("rate")
                .implied_window(TimeSpan(200))
                .build(),
        ]);
        let model = GraphModel::extract(&mgr);
        assert_eq!(model.items.len(), 3);
        let rate = &model.items[&MetadataKey::new(NodeId(0), "rate")];
        assert_eq!(rate.mechanism, MechKind::Periodic(TimeSpan(50)));
        assert!(rate.stateful && !rate.reset_on_read);
        let naive = &model.items[&MetadataKey::new(NodeId(0), "naive")];
        assert!(naive.reset_on_read);
        let avg = &model.items[&MetadataKey::new(NodeId(0), "avg")];
        assert_eq!(avg.implied_window, Some(TimeSpan(200)));
        assert_eq!(avg.deps.len(), 1);
        assert!(!avg.deps[0].alternative);
        assert_eq!(
            model.dependents_of(&MetadataKey::new(NodeId(0), "rate")),
            vec![&MetadataKey::new(NodeId(0), "avg")]
        );
    }

    #[test]
    fn extraction_captures_the_propagation_mode() {
        use streammeta_core::{EpochConfig, PropagationMode};
        let mgr = manager_with(vec![ItemDef::static_value("x", 1u64)]);
        assert!(!GraphModel::extract(&mgr).epoch_mode);
        mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig::default()));
        assert!(GraphModel::extract(&mgr).epoch_mode);
        mgr.set_propagation_mode(PropagationMode::PerEvent);
        assert!(!GraphModel::extract(&mgr).epoch_mode);
    }

    #[test]
    fn extraction_counts_live_subscribers() {
        let mgr = manager_with(vec![ItemDef::on_demand("x")
            .compute(|_| MetadataValue::U64(1))
            .build()]);
        let key = MetadataKey::new(NodeId(0), "x");
        let _s1 = mgr.subscribe(key.clone()).unwrap();
        let _s2 = mgr.subscribe(key.clone()).unwrap();
        let model = GraphModel::extract(&mgr);
        assert_eq!(model.items[&key].subscribers, 2);
        let pending = GraphModel::extract_with_pending(&mgr, &key);
        assert_eq!(pending.items[&key].subscribers, 3);
    }

    #[test]
    fn dependency_rows_agree_with_the_runtime_catalog() {
        use streammeta_core::SystemRelation;
        let mgr = manager_with(vec![
            ItemDef::periodic("rate", TimeSpan(10))
                .compute(|_| MetadataValue::F64(1.0))
                .build(),
            ItemDef::triggered("cost")
                .dep_local("rate")
                .compute(|ctx| ctx.dep("rate"))
                .build(),
        ]);
        // Include everything so the runtime relation covers the whole
        // graph; with only fixed dependencies both views must agree.
        let _sub = mgr.subscribe(MetadataKey::new(NodeId(0), "cost")).unwrap();
        fn render<'a>(rows: impl IntoIterator<Item = &'a [MetadataValue]>) -> Vec<String> {
            let mut v: Vec<String> = rows
                .into_iter()
                .map(|r| {
                    r.iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect();
            v.sort();
            v
        }
        let static_rows = render(
            GraphModel::extract(&mgr)
                .dependency_rows()
                .iter()
                .map(Vec::as_slice),
        );
        let runtime_rows = render(&mgr.catalog_rows(SystemRelation::Dependencies));
        assert!(!static_rows.is_empty());
        assert_eq!(static_rows, runtime_rows);
    }

    #[test]
    fn dependency_rows_mark_alternatives_uncertain() {
        let alt = MetadataKey::new(NodeId(0), "b");
        let mgr = manager_with(vec![
            ItemDef::static_value("b", 1u64),
            ItemDef::triggered("a")
                .dynamic_deps(move |_| vec![Dependency::new("src", DepTarget::Remote(alt.clone()))])
                .build(),
        ]);
        let rows = GraphModel::extract(&mgr).dependency_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1].as_text(), Some("item"));
        assert_eq!(rows[0][3].as_text(), Some("src"));
        assert_eq!(rows[0][4].as_bool(), Some(false));
    }

    #[test]
    fn dynamic_alternatives_are_marked() {
        let alt = MetadataKey::new(NodeId(0), "b");
        let alt2 = alt.clone();
        let mgr = manager_with(vec![
            ItemDef::static_value("b", 1u64),
            ItemDef::triggered("a")
                .dynamic_deps(move |_| {
                    vec![Dependency::new("src", DepTarget::Remote(alt2.clone()))]
                })
                .build(),
        ]);
        let model = GraphModel::extract(&mgr);
        let a = &model.items[&MetadataKey::new(NodeId(0), "a")];
        assert_eq!(a.deps.len(), 1);
        assert!(a.deps[0].alternative);
        let reach = model.reachable_from(&MetadataKey::new(NodeId(0), "a"));
        assert!(reach.contains(&alt));
    }
}
