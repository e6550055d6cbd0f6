//! Exact cost counts: heap allocations per operation, which no host can
//! blur. The binary installs a counting allocator over `System`; each
//! row runs its operation on a fixed fixture after a warm-up, counts the
//! allocations the calling thread made, and checks that three runs
//! agree. The table is committed as `docs/COSTS.md`, rendered here;
//! `BLESS=1 cargo test --test cost_counts` rewrites it. A change that
//! raises a count re-blesses and says why; one that lowers a count can
//! claim it without a timing run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    EventKey, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId, NodeRegistry,
    Subscription, SystemRelation,
};
use streammeta_time::VirtualClock;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the count is a
// const-initialised thread-local without destructor, which never
// allocates (and is skipped once the thread's locals are torn down).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocations one call of `op` makes on this thread, after two
/// warm-up calls; three counted calls must agree.
fn count(mut op: impl FnMut()) -> u64 {
    op();
    op();
    let runs = [(); 3].map(|()| {
        let before = ALLOCATIONS.with(Cell::get);
        op();
        ALLOCATIONS.with(Cell::get) - before
    });
    assert!(
        runs.iter().all(|&n| n == runs[0]),
        "runs disagree: {runs:?}"
    );
    runs[0]
}

fn manager() -> Arc<MetadataManager> {
    MetadataManager::new(VirtualClock::shared())
}

/// A manager with `n` static items, each subscribed.
fn catalog(n: u32) -> (Arc<MetadataManager>, Vec<Subscription>) {
    let manager = manager();
    let reg = NodeRegistry::new(NodeId(1));
    for i in 0..n {
        reg.define(ItemDef::static_value(format!("s{i}"), u64::from(i)));
    }
    manager.attach_node(reg);
    let subs = (0..n)
        .map(|i| {
            manager
                .subscribe(MetadataKey::new(NodeId(1), format!("s{i}")))
                .unwrap()
        })
        .collect();
    (manager, subs)
}

fn snapshot(n: u32, relation: SystemRelation) -> u64 {
    let (manager, _subs) = catalog(n);
    count(|| {
        std::hint::black_box(manager.catalog_rows(relation));
    })
}

/// A chain `c0 <- c1 <- … <- c{len-1}` on node 1: `c0` recomputes to
/// a new value on every `tick` event, each later item copies its
/// predecessor.
fn chain(len: u32) -> Arc<MetadataManager> {
    let manager = manager();
    let reg = NodeRegistry::new(NodeId(1));
    let ticks = AtomicU64::new(0);
    reg.define(
        ItemDef::triggered("c0")
            .on_event("tick")
            .compute(move |_| MetadataValue::U64(ticks.fetch_add(1, Ordering::Relaxed)))
            .build(),
    );
    for i in 1..len {
        let prev = format!("c{}", i - 1);
        reg.define(
            ItemDef::triggered(format!("c{i}"))
                .dep_local(prev.as_str())
                .compute(move |ctx| ctx.dep(&prev))
                .build(),
        );
    }
    manager.attach_node(reg);
    manager
}

fn last(len: u32) -> MetadataKey {
    MetadataKey::new(NodeId(1), format!("c{}", len - 1))
}

/// Fires `tick` over a subscribed chain of `reach` items.
fn fire(reach: u32) -> u64 {
    let manager = chain(reach);
    let _sub = manager.subscribe(last(reach)).unwrap();
    let tick = EventKey::new(NodeId(1), "tick");
    count(|| manager.fire_event(tick.clone()))
}

/// Every row of `docs/COSTS.md`: what is counted, and the count.
fn rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for n in [1_000, 4_000] {
        for relation in [SystemRelation::Items, SystemRelation::Handlers] {
            let what = format!("full `{}` snapshot, {n} handlers", relation.name());
            rows.push((what, snapshot(n, relation)));
        }
    }
    let (manager, subs) = catalog(4_000);
    rows.push((
        "`sys.handlers` scan that reads no cell, 4000 handlers".into(),
        count(|| {
            std::hint::black_box(manager.catalog_scan(SystemRelation::Handlers, |_| None::<()>));
        }),
    ));
    let key = subs[0].key().clone();
    rows.push((
        "`MetadataManager::read` of a static item".into(),
        count(|| {
            std::hint::black_box(manager.read(&key).unwrap());
        }),
    ));
    rows.push((
        "`Subscription::get` of a static item".into(),
        count(|| {
            std::hint::black_box(subs[0].get());
        }),
    ));
    drop(subs);
    let manager = chain(7);
    rows.push((
        "subscribe and drop: include and exclude a 7-item chain".into(),
        count(|| drop(manager.subscribe(last(7)).unwrap())),
    ));
    for reach in [1, 10] {
        rows.push((
            format!("per-event `fire_event`, reach {reach}"),
            fire(reach),
        ));
    }
    rows
}

fn render(rows: &[(String, u64)]) -> String {
    let mut doc = String::from(
        "# Exact cost counts\n\n\
         <!-- Generated by tests/cost_counts.rs; `BLESS=1 cargo test --test cost_counts` \
         rewrites it. -->\n\n\
         Heap allocations per operation on the calling thread, counted by a\n\
         counting global allocator after two warm-up runs; three counted runs\n\
         agree. Debug and release builds count the same. The fixtures are in\n\
         `tests/cost_counts.rs`.\n\n\
         | operation | allocations |\n\
         |---|---:|\n",
    );
    for (what, n) in rows {
        doc.push_str(&format!("| {what} | {n} |\n"));
    }
    doc
}

#[test]
fn cost_counts_doc_is_in_sync() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/COSTS.md");
    let rendered = render(&rows());
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let on_disk = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        on_disk == rendered,
        "docs/COSTS.md differs from the counts:\n{rendered}\nregenerate it with\n    \
         BLESS=1 cargo test --test cost_counts"
    );
}
