//! Reflexive meta-metadata: the manager's own runtime statistics exposed
//! as ordinary metadata items.
//!
//! The paper motivates runtime metadata with "analysis gives insight into
//! system behavior" — and the metadata framework itself is a system worth
//! observing. [`MetadataManager::install_meta_node`] attaches a synthetic
//! node ([`META_NODE`]) with one item per entry of the metric table
//! ([`crate::metrics`], listed in `docs/METRICS.md`) plus the compute rate
//! over a window.
//! Consumers — a profiler's `Recorder`, a load shedder, an optimizer —
//! subscribe to them through the normal pub-sub API, with the usual
//! tailored-provision guarantee: nothing is maintained until subscribed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_time::TimeSpan;

use crate::item::ItemDef;
use crate::manager::MetadataManager;
use crate::metrics::Metric;
use crate::registry::NodeRegistry;
use crate::{MetadataValue, NodeId};

/// The synthetic query-graph node owning the manager's self-describing
/// metadata items. Reserved; real graph nodes must not use this id.
pub const META_NODE: NodeId = NodeId(u32::MAX);

impl MetadataManager {
    /// Attaches the reflexive meta node and returns its registry.
    ///
    /// One on-demand item per entry of the metric table
    /// ([`Metric::meta_key`]; `Unavailable` while the component a metric
    /// reports on is not installed), plus `meta.computes_rate`, a
    /// periodic rate (computes per time unit) over `rate_window`.
    /// Installation defines items only — no handler exists and nothing
    /// is computed until something subscribes.
    pub fn install_meta_node(self: &Arc<Self>, rate_window: TimeSpan) -> Arc<NodeRegistry> {
        let reg = NodeRegistry::new(META_NODE);
        let read = |m: Metric| {
            let weak = self.weak_self();
            move || weak.upgrade().and_then(|mgr| mgr.metric(m))
        };
        for &m in Metric::ALL {
            let value = read(m);
            reg.define(
                ItemDef::on_demand(m.meta_key().item)
                    .doc(m.help())
                    .compute(move |_ctx| {
                        value().map_or(MetadataValue::Unavailable, MetadataValue::U64)
                    })
                    .build(),
            );
        }
        // Computes since the previous window boundary, over the window.
        // Only the manager evaluates the item, so the counter is readable.
        let computes = read(Metric::Computes);
        let last = AtomicU64::new(computes().unwrap_or(0));
        reg.define(
            ItemDef::periodic("meta.computes_rate", rate_window)
                .doc("compute evaluations per time unit, per window")
                .compute(move |ctx| {
                    let now = computes().unwrap_or(0);
                    let delta = now.saturating_sub(last.swap(now, Ordering::Relaxed));
                    match ctx.window() {
                        Some(w) if !w.is_zero() => MetadataValue::F64(delta as f64 / w.as_f64()),
                        _ => MetadataValue::Unavailable,
                    }
                })
                .build(),
        );
        self.attach_node(reg.clone());
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ItemDef, MetadataKey, RingBufferSink, RotatingFileSink, TeeSink};
    use streammeta_time::{Clock, TimeSpan, VirtualClock};

    fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
        let clock = VirtualClock::shared();
        let mgr = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(0));
        reg.define(
            ItemDef::on_demand("x")
                .compute(|_| MetadataValue::U64(7))
                .build(),
        );
        mgr.attach_node(reg);
        mgr.install_meta_node(TimeSpan(10));
        (clock, mgr)
    }

    #[test]
    fn install_defines_without_computing() {
        let (_clock, mgr) = setup();
        assert!(mgr.registry(META_NODE).is_some());
        assert_eq!(mgr.handler_count(), 0);
        assert_eq!(mgr.stats().computes, 0);
    }

    #[test]
    fn meta_handlers_counts_itself() {
        let (_clock, mgr) = setup();
        let handlers = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.handlers"))
            .unwrap();
        // The meta item's own handler is part of the count it reports.
        assert_eq!(handlers.get().as_u64(), Some(1));
        let _x = mgr.subscribe(MetadataKey::new(NodeId(0), "x")).unwrap();
        assert_eq!(handlers.get().as_u64(), Some(2));
    }

    #[test]
    fn computes_rate_measures_manager_activity() {
        let (clock, mgr) = setup();
        let rate = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.computes_rate"))
            .unwrap();
        let x = mgr.subscribe(MetadataKey::new(NodeId(0), "x")).unwrap();
        assert!(!rate.get().is_available());
        for _ in 0..20 {
            x.get(); // one on-demand compute each
        }
        clock.advance(TimeSpan(10));
        mgr.periodic().advance_to(clock.now());
        // 20 accesses of `x` in a 10-unit window, plus the boundary
        // evaluation of the rate item itself: (20 + 1) / 10.
        assert_eq!(rate.get_f64(), Some(2.1));
    }

    #[test]
    fn trace_eviction_accounting_separates_drops_from_rotations() {
        let (_clock, mgr) = setup();
        let dropped = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.trace_dropped"))
            .unwrap();
        let rotated = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.trace_rotated"))
            .unwrap();
        // Neither sink installed yet.
        assert!(!dropped.get().is_available());
        assert!(!rotated.get().is_available());
        // A 2-record ring installed as the plain trace sink: the third
        // record evicts one, and no file means no rotation count.
        mgr.set_trace_sink(Some(RingBufferSink::new(2)));
        let x = mgr.subscribe(MetadataKey::new(NodeId(0), "x")).unwrap();
        x.get();
        drop(x);
        assert!(dropped.get().as_u64().unwrap() > 0);
        assert!(!rotated.get().is_available());
        // A roomy file sink teed with a fresh ring: rotations stay 0, the
        // ring is found inside the tee, and ring drops are not
        // double-counted into the rotations.
        let dir = std::env::temp_dir().join(format!(
            "streammeta-meta-rot-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let file = RotatingFileSink::create(dir.join("t.jsonl"), 1 << 20).unwrap();
        mgr.set_trace_sink(Some(TeeSink::new(vec![
            RingBufferSink::new(2),
            file.clone(),
        ])));
        assert_eq!(dropped.get().as_u64(), Some(0));
        assert_eq!(rotated.get().as_u64(), Some(0));
        let x = mgr.subscribe(MetadataKey::new(NodeId(0), "x")).unwrap();
        drop(x);
        assert!(dropped.get().as_u64().unwrap() > 0);
        assert_eq!(rotated.get().as_u64(), Some(0));
        assert!(
            file.records_written() > 2,
            "the file kept what the ring lost"
        );
        // The file alone: no ring, so no drop count.
        mgr.set_trace_sink(Some(file));
        assert!(!dropped.get().is_available());
        assert_eq!(rotated.get().as_u64(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_counters_track_failures_and_misses() {
        let (clock, mgr) = setup();
        let reg = mgr.registry(NodeId(0)).unwrap();
        reg.define(
            ItemDef::on_demand("boom")
                .compute(|_| panic!("intentional"))
                .build(),
        );
        let failures = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.compute_failures"))
            .unwrap();
        let misses = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.deadline_misses"))
            .unwrap();
        assert_eq!(failures.get().as_u64(), Some(0));
        let boom = mgr.subscribe(MetadataKey::new(NodeId(0), "boom")).unwrap();
        assert_eq!(boom.get(), MetadataValue::Unavailable);
        assert_eq!(failures.get().as_u64(), Some(1));

        assert_eq!(misses.get().as_u64(), Some(0));
        reg.define(
            ItemDef::periodic("tick", TimeSpan(5))
                .compute(|ctx| MetadataValue::U64(ctx.now().units()))
                .build(),
        );
        let _tick = mgr.subscribe(MetadataKey::new(NodeId(0), "tick")).unwrap();
        // Jump four windows at once: the catch-up firings at t=5,10,15 all
        // complete a full window late; the one at t=20 is on time.
        clock.advance(TimeSpan(20));
        mgr.periodic().advance_to(clock.now());
        assert_eq!(misses.get().as_u64(), Some(3));
    }
}
