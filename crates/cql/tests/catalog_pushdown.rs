//! The `sys.*` column tables and the pushed-down scan, checked against
//! the evaluation they replaced: materialise every row of the relation,
//! then filter, project and aggregate the finished rows. That reference
//! lives only here.

use std::sync::Arc;

use streammeta_core::{
    ColumnType, EventKey, FallbackPolicy, ItemDef, MetadataKey, MetadataManager, MetadataValue,
    NodeId, NodeRegistry, PartitionedMetadataPlane, RingBufferSink, RotatingFileSink, SpanSampling,
    Subscription, SystemRelation, TeeSink,
};
use streammeta_cql::{attach_system, cell_to_value, query_once, relation_schema, Catalog};
use streammeta_streams::{Value, ValueType};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

/// Partition 0 of a two-partition plane with rows in all nine
/// relations: periodic (profiled, one with a deadline), triggered,
/// on-demand and static items on nodes whose numeric order differs from
/// their text order, one item quarantined behind a failing compute, a
/// cross-partition link, a ring and a file behind a tee, and spans.
struct System {
    manager: Arc<MetadataManager>,
    _plane: Arc<PartitionedMetadataPlane>,
    _subs: Vec<Subscription>,
    dir: std::path::PathBuf,
}

impl Drop for System {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn system(tag: &str) -> System {
    let dir = std::env::temp_dir().join(format!("streammeta_cql_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clock = VirtualClock::shared();
    let plane = PartitionedMetadataPlane::new(clock.clone(), 2);
    let manager = plane.partition(0).clone();
    manager.set_latency_profiling(true);
    let file = RotatingFileSink::create(dir.join("trace.jsonl"), 1 << 20).unwrap();
    manager.set_trace_sink(Some(TeeSink::new(vec![RingBufferSink::new(256), file])));
    manager.enable_catalog_spans(256);
    manager.set_span_sampling(SpanSampling::Ratio(1));

    let owned_by = |part: usize| {
        let plane = plane.clone();
        (1u32..)
            .map(NodeId)
            .filter(move |n| plane.owner_of(*n) == part)
    };
    let remote = owned_by(1).next().unwrap();
    let reg = NodeRegistry::new(remote);
    reg.define(ItemDef::static_value("capacity", 64u64));
    plane.attach_node(reg);

    // Nodes 9.., 10.. and 100..: key order is not text order.
    let mut keys = Vec::new();
    for node in [9, 10, 100].map(|from| owned_by(0).find(|n| n.0 >= from).unwrap()) {
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
                .dep_remote("cap", MetadataKey::new(remote, "capacity"))
                .on_event("tick")
                .compute(|ctx| ctx.dep("rate"))
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
        plane.attach_node(reg);
        keys.extend(["size", "now", "cost", "flaky"].map(|item| MetadataKey::new(node, item)));
    }
    let subs: Vec<Subscription> = keys
        .iter()
        .map(|key| plane.subscribe(key.clone()).unwrap())
        .collect();
    for sub in &subs[..8] {
        clock.advance(TimeSpan(7));
        manager.periodic().advance_to(clock.now());
        plane.fire_event(EventKey::new(keys[0].node, "tick"));
        plane.pump();
        let _ = sub.get();
    }
    System {
        manager,
        _plane: plane,
        _subs: subs,
        dir,
    }
}

#[test]
fn every_relation_is_what_its_column_table_says() {
    let sys = system("table");
    for relation in SystemRelation::ALL {
        let table = relation.columns();
        let schema = relation_schema(relation);
        assert_eq!(schema.arity(), table.len(), "{}", relation.name());
        for (i, column) in table.iter().enumerate() {
            assert_eq!(
                schema.index_of(column.name),
                Some(i),
                "{}.{} is not a unique column name",
                relation.name(),
                column.name
            );
            let declared = match column.ty {
                ColumnType::Int => ValueType::Int,
                ColumnType::Str => ValueType::Str,
                ColumnType::Bool => ValueType::Bool,
            };
            assert_eq!(schema.fields()[i].ty, declared, "{}", column.name);
        }
        let rows = sys.manager.catalog_rows(relation);
        assert!(!rows.is_empty(), "{} has no rows", relation.name());
        for row in &rows {
            assert_eq!(row.len(), table.len(), "{}", relation.name());
            for (cell, field) in row.iter().zip(schema.fields()) {
                let fits = match cell_to_value(cell) {
                    Value::Null => true,
                    Value::Int(_) => field.ty == ValueType::Int,
                    Value::Str(_) => field.ty == ValueType::Str,
                    Value::Bool(_) => field.ty == ValueType::Bool,
                    Value::Float(_) => false,
                };
                assert!(
                    fits,
                    "{}.{}: {cell:?} is not a {:?}",
                    relation.name(),
                    field.name,
                    field.ty
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The reference: materialise, then filter
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Rhs {
    Lit(i64),
    Col(usize),
}

#[derive(Clone, Debug)]
enum Output {
    Star,
    Columns(Vec<usize>),
    Aggregate(&'static str, Option<usize>),
}

#[derive(Clone, Debug)]
struct Plan {
    relation: SystemRelation,
    predicates: Vec<(usize, char, Rhs)>,
    output: Output,
}

impl Plan {
    fn text(&self) -> String {
        let name = |c: usize| self.relation.columns()[c].name;
        let select = match &self.output {
            Output::Star => "*".to_string(),
            Output::Columns(cols) => cols.iter().map(|c| name(*c)).collect::<Vec<_>>().join(", "),
            Output::Aggregate(func, None) => format!("{func}(*)"),
            Output::Aggregate(func, Some(c)) => format!("{func}({})", name(*c)),
        };
        let mut text = format!("SELECT {select} FROM {}", self.relation.name());
        for (i, (col, op, rhs)) in self.predicates.iter().enumerate() {
            let rhs = match rhs {
                Rhs::Lit(v) => v.to_string(),
                Rhs::Col(c) => name(*c).to_string(),
            };
            let glue = if i == 0 { "WHERE" } else { "AND" };
            text.push_str(&format!(" {glue} {} {op} {rhs}", name(*col)));
        }
        text
    }

    /// What `query_once` did before the pushdown, over finished rows.
    fn reference(&self, rows: Vec<Vec<MetadataValue>>) -> Vec<Vec<MetadataValue>> {
        fn cell_f64(cell: &MetadataValue) -> Option<f64> {
            match cell {
                MetadataValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
                other => other.as_f64(),
            }
        }
        let matched = rows.into_iter().filter(|row| {
            self.predicates.iter().all(|(col, op, rhs)| {
                let Some(l) = row.get(*col).and_then(cell_f64) else {
                    return false;
                };
                let r = match rhs {
                    Rhs::Lit(v) => Some(*v as f64),
                    Rhs::Col(j) => row.get(*j).and_then(cell_f64),
                };
                let Some(r) = r else { return false };
                match op {
                    '<' => l < r,
                    '=' => l == r,
                    _ => l > r,
                }
            })
        });
        match &self.output {
            Output::Star => matched.collect(),
            Output::Columns(indices) => matched
                .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
                .collect(),
            Output::Aggregate(func, col) => {
                let cells: Vec<f64> = match col {
                    None => matched.map(|_| 1.0).collect(),
                    Some(i) => matched.filter_map(|r| cell_f64(&r[*i])).collect(),
                };
                let value = match *func {
                    "COUNT" => Some(cells.len() as f64),
                    "SUM" => Some(cells.iter().sum()),
                    "AVG" if cells.is_empty() => None,
                    "AVG" => Some(cells.iter().sum::<f64>() / cells.len() as f64),
                    "MIN" => cells.iter().copied().reduce(f64::min),
                    _ => cells.iter().copied().reduce(f64::max),
                };
                vec![vec![
                    value.map_or(MetadataValue::Unavailable, MetadataValue::F64)
                ]]
            }
        }
    }
}

/// Every output shape with every kind of predicate list, generated
/// from the relation's own rows: thresholds are cell values, so `<`, `=`
/// and `>` each split the relation somewhere.
fn plans(relation: SystemRelation, rows: &[Vec<MetadataValue>]) -> Vec<Plan> {
    let n = relation.columns().len();
    let text = (0..n).find(|&c| relation.columns()[c].ty == ColumnType::Str);
    let mut predicate_lists: Vec<Vec<(usize, char, Rhs)>> = vec![vec![]];
    for col in 0..n {
        // Literal thresholds: the column's smallest, middle and largest
        // numeric cell; a column without one (text, instants, cells
        // unavailable in every row) still gets a predicate, which must
        // match nothing.
        let mut numeric: Vec<i64> = rows
            .iter()
            .filter_map(|row| match &row[col] {
                MetadataValue::Bool(b) => Some(*b as i64),
                cell => cell.as_f64().map(|v| v as i64),
            })
            .collect();
        numeric.sort_unstable();
        numeric.dedup();
        let picks = match numeric.len() {
            0 => vec![0],
            len => vec![numeric[0], numeric[len / 2], numeric[len - 1]],
        };
        for lit in picks {
            for op in ['<', '=', '>'] {
                predicate_lists.push(vec![(col, op, Rhs::Lit(lit))]);
            }
        }
        // Column against column, and a conjunction reading `col` twice.
        let other = (col + 1) % n;
        predicate_lists.push(vec![(col, '>', Rhs::Col(other))]);
        predicate_lists.push(vec![(col, '=', Rhs::Col(col))]);
        predicate_lists.push(vec![(col, '>', Rhs::Lit(0)), (other, '<', Rhs::Col(col))]);
        if let Some(text) = text {
            predicate_lists.push(vec![(col, '<', Rhs::Col(text))]);
        }
    }
    let mut outputs = vec![
        Output::Star,
        Output::Columns((0..n).rev().collect()),
        Output::Aggregate("COUNT", None),
    ];
    for col in 0..n {
        outputs.push(Output::Columns(vec![col]));
        outputs.push(Output::Columns(vec![col, (col + 2) % n, col]));
        for func in ["SUM", "AVG", "MIN", "MAX"] {
            outputs.push(Output::Aggregate(func, Some(col)));
        }
    }
    let mut plans = Vec::new();
    for predicates in &predicate_lists {
        for output in &outputs {
            plans.push(Plan {
                relation,
                predicates: predicates.clone(),
                output: output.clone(),
            });
        }
    }
    plans
}

#[test]
fn pushed_down_queries_equal_materialise_then_filter() {
    let sys = system("diff");
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, sys.manager.clone());
    let mut checked = 0;
    for relation in SystemRelation::ALL {
        let rows = sys.manager.catalog_rows(relation);
        for plan in plans(relation, &rows) {
            let text = plan.text();
            let got = query_once(&catalog, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(got.rows, plan.reference(rows.clone()), "{text}");
            checked += 1;
        }
    }
    assert!(checked > 10_000, "only {checked} plans generated");
}

#[test]
fn the_benchmarks_queries_equal_materialise_then_filter() {
    let sys = system("bench");
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, sys.manager.clone());

    let items = sys.manager.catalog_rows(SystemRelation::Items);
    let count = Plan {
        relation: SystemRelation::Items,
        predicates: vec![],
        output: Output::Aggregate("COUNT", None),
    };
    let text = "SELECT COUNT(*) FROM sys.items";
    assert_eq!(count.text(), text);
    let got = query_once(&catalog, text).unwrap();
    assert_eq!(got.columns, ["count"]);
    assert_eq!(got.rows, count.reference(items));
    assert_eq!(
        got.rows,
        [[MetadataValue::F64(sys.manager.handler_count() as f64)]]
    );

    let handlers = sys.manager.catalog_rows(SystemRelation::Handlers);
    let column = |name: &str| {
        SystemRelation::Handlers
            .columns()
            .iter()
            .position(|c| c.name == name)
            .unwrap()
    };
    let never = Plan {
        relation: SystemRelation::Handlers,
        predicates: vec![(column("computes"), '>', Rhs::Lit(1_000_000_000))],
        output: Output::Columns(vec![column("key"), column("computes")]),
    };
    let text = "SELECT key, computes FROM sys.handlers WHERE computes > 1000000000";
    assert_eq!(never.text(), text);
    let got = query_once(&catalog, text).unwrap();
    assert_eq!(got.columns, ["key", "computes"]);
    assert_eq!(got.rows, never.reference(handlers.clone()));
    assert!(got.rows.is_empty());
    // The same query with a threshold some rows pass.
    let some = Plan {
        predicates: vec![(column("computes"), '>', Rhs::Lit(1))],
        ..never
    };
    let got = query_once(&catalog, &some.text()).unwrap();
    assert!(!got.rows.is_empty() && got.rows.len() < handlers.len());
    assert_eq!(got.rows, some.reference(handlers));
}
