//! E19: which metadata reads touch the manager — the read-path contract.
//!
//! The paper's scalability argument (Sections 2.1, 4.2) assumes consumers
//! can access tailored metadata cheaply, concurrently and on the hot
//! path. 1 and 8 threads each read one static item `N` times per path:
//!
//! * `sub_get`  — through a shared [`Subscription`] handle (the cached
//!   handler): no manager bookkeeping, so exactly 0 shard reads;
//! * `key_read` — by [`MetadataKey`] through the manager: exactly one
//!   shard read lock per access, never the bookkeeping mutex.
//!
//! Those counts, and that every read returns 42, are the contract and
//! the whole output: they are the same on every run. What a read costs
//! is the benchmark's `core.subscription.read_ns_per_op` and
//! `core.shards.read_ns_per_op` (`BENCHMARK.json`).
//!
//! [`Subscription`]: streammeta_core::Subscription

use std::io::{self, Write};

use crate::table::Table;
use streammeta_core::{
    ItemDef, MetadataKey, MetadataManager, MetadataValue, Metric, NodeId, NodeRegistry,
};
use streammeta_time::VirtualClock;

const THREAD_COUNTS: [usize; 2] = [1, 8];
/// Reads per thread and path.
const N: u64 = 100_000;

/// Runs `threads` readers, each doing `N` reads through `read` and
/// asserting every value; returns the `ShardReads` delta.
fn shard_reads(
    manager: &MetadataManager,
    threads: usize,
    read: impl Fn() -> MetadataValue + Sync,
) -> u64 {
    let before = manager.metric(Metric::ShardReads).expect("slot metric");
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..N {
                    assert_eq!(read(), MetadataValue::U64(42));
                }
            });
        }
    });
    manager.metric(Metric::ShardReads).expect("slot metric") - before
}

pub fn e19(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "E19 — read-path contention: which reads take a shard lock"
    )?;
    writeln!(out, "{N} reads per thread of one static item\n")?;

    let manager = MetadataManager::new(VirtualClock::shared());
    let node = NodeId(0);
    let reg = NodeRegistry::new(node);
    reg.define(ItemDef::static_value("cfg.value", 42u64));
    manager.attach_node(reg);
    let key = MetadataKey::new(node, "cfg.value");
    let sub = manager.subscribe(key.clone()).expect("subscribe");

    let mut table = Table::new(&["mode", "threads", "reads", "shard reads"]);
    for threads in THREAD_COUNTS {
        let reads = threads as u64 * N;
        let via_sub = shard_reads(&manager, threads, || sub.get());
        assert_eq!(via_sub, 0, "Subscription::get touched the handler index");
        let via_key = shard_reads(&manager, threads, || manager.read(&key).expect("included"));
        assert_eq!(via_key, reads, "a key read is one shard read");
        for (mode, shard) in [("sub_get", via_sub), ("key_read", via_key)] {
            table.row(vec![
                mode.to_string(),
                threads.to_string(),
                reads.to_string(),
                shard.to_string(),
            ]);
        }
    }
    table.write(out)?;

    writeln!(
        out,
        "\nE19 invariants held: Subscription::get takes no shard lock, every key read takes exactly one, every read returned 42."
    )
}
