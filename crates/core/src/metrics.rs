//! The manager's metric table — the one place that knows which metrics
//! the manager has.
//!
//! Every view of the manager's own telemetry is derived from [`TABLE`]:
//! the `meta.*` items of the reflexive meta node ([`crate::meta`]),
//! [`ManagerStats`], the `streammeta_manager_*` Prometheus lines (the
//! profiler walks [`MetadataManager::metrics`]) and the generated
//! `docs/METRICS.md` ([`metrics_markdown`]). Adding a metric is one
//! table entry plus its bump site.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::manager::MetadataManager;
use crate::meta::META_NODE;
use crate::MetadataKey;

/// Whether a metric only ever grows (`Counter`) or moves both ways.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonic total; exported to Prometheus with a `_total` suffix.
    Counter,
    /// Current level.
    Gauge,
}

impl MetricKind {
    /// The kind as Prometheus spells it in a `# TYPE` line.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// Where a metric's value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// The metric's own slot in [`MetricSlots`], bumped in place.
    Slot,
    /// A projection of the one shared pass over the live handlers.
    Scan(fn(&HandlerScan) -> u64),
    /// Asked of an optional component; `None` while it is not installed.
    Probe(fn(&MetadataManager) -> Option<u64>),
}

struct Entry {
    name: &'static str,
    kind: MetricKind,
    source: Source,
    help: &'static str,
}

macro_rules! metric_table {
    ($($variant:ident $name:literal $kind:ident $source:expr, $help:literal;)*) => {
        /// One metric of the manager (see `docs/METRICS.md`).
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Metric {
            $(#[doc = $help] $variant,)*
        }

        impl Metric {
            /// Every metric, in table order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant,)*];
        }

        const TABLE: &[Entry] = &[
            $(Entry { name: $name, kind: MetricKind::$kind, source: $source, help: $help },)*
        ];
    };
}

metric_table! {
    Handlers "handlers" Gauge Source::Scan(|s| s.handlers),
        "live metadata handlers (included items)";
    Subscriptions "subscriptions" Gauge Source::Scan(|s| s.subscriptions),
        "sum of all subscription counts";
    Computes "computes" Counter Source::Slot,
        "total compute-function evaluations";
    Updates "updates" Counter Source::Slot,
        "total stored value changes";
    Accesses "accesses" Counter Source::Scan(|s| s.accesses),
        "total consumer accesses";
    Propagations "propagations" Counter Source::Slot,
        "total trigger-propagation rounds";
    PropagationDepth "propagation_depth" Gauge Source::Slot,
        "high-water BFS depth of propagation rounds in the current observation window";
    Epochs "epochs" Counter Source::Slot,
        "epoch flushes performed in epoch propagation mode";
    CoalescedUpdates "coalesced_updates" Counter Source::Slot,
        "source updates coalesced into an already-pending epoch entry";
    DeadlineMisses "deadline_misses" Counter Source::Slot,
        "periodic refreshes that completed a full window late";
    ComputeFailures "compute_failures" Counter Source::Slot,
        "contained compute-function panics";
    DeadlineOverruns "deadline_overruns" Counter Source::Slot,
        "evaluations that overran their declared compute deadline";
    Retries "retries" Counter Source::Slot,
        "backoff retries scheduled after failed evaluations";
    Quarantined "quarantined" Gauge Source::Scan(|s| s.quarantined),
        "currently quarantined metadata items";
    QuarantineTrips "quarantine_trips" Counter Source::Slot,
        "times the quarantine circuit breaker tripped";
    StaleServes "stale_serves" Counter Source::Slot,
        "reads served a degraded (stale last-good) value";
    TraceDropped "trace_dropped" Counter
        Source::Probe(|m| m.trace_sink()?.ring().map(|ring| ring.dropped())),
        "records evicted from the installed trace ring buffer (lost)";
    TraceRotated "trace_rotated" Counter
        Source::Probe(|m| m.trace_sink()?.file().map(|file| file.rotations())),
        "size-limit rotations of the installed trace file sink (records retained)";
    SpansDropped "spans_dropped" Counter
        Source::Probe(|m| m.catalog_spans().map(|store| store.dropped())),
        "finished spans evicted from the sys.spans ring";
    RemoteSubscriptions "remote_subscriptions" Gauge Source::Slot,
        "live cross-partition proxy links homed on this partition";
    RemoteUpdates "remote_updates" Counter Source::Slot,
        "cross-partition update messages applied to local proxies";
    FastReads "fast_reads" Counter Source::Scan(|s| s.fast_reads),
        "reads served through cached subscription handlers (no manager lock)";
    ShardReads "shard_reads" Counter Source::Slot,
        "key-based handler lookups served by the sharded index";
}

impl Metric {
    fn entry(self) -> &'static Entry {
        &TABLE[self as usize]
    }

    /// The metric's short name (`retries`).
    pub fn name(self) -> &'static str {
        self.entry().name
    }

    /// Counter or gauge.
    pub fn kind(self) -> MetricKind {
        self.entry().kind
    }

    /// One-line description.
    pub fn help(self) -> &'static str {
        self.entry().help
    }

    /// The key of the metric's item on the reflexive meta node
    /// (`meta.retries` on [`META_NODE`]).
    pub fn meta_key(self) -> MetadataKey {
        MetadataKey::new(META_NODE, format!("meta.{}", self.name()))
    }

    /// The metric's Prometheus name: `streammeta_manager_<name>`, with
    /// the conventional `_total` suffix on counters.
    pub fn prometheus_name(self) -> String {
        let counter = self.kind() == MetricKind::Counter;
        let suffix = if counter { "_total" } else { "" };
        format!("streammeta_manager_{}{suffix}", self.name())
    }
}

/// The manager's plain counters: one fixed slot per [`Metric`] (slots of
/// derived metrics stay unused), so a bump is a single relaxed
/// `fetch_add` on a compile-time index.
#[derive(Default)]
pub(crate) struct MetricSlots {
    slots: [AtomicU64; Metric::ALL.len()],
    /// Access counts of excluded handlers, folded in on removal so the
    /// access total survives handler death.
    pub(crate) retired_accesses: AtomicU64,
    /// Key-based accesses only. Cached-subscription reads count on their
    /// handler alone (one atomic on the hot path); `fast_reads` is
    /// derived as `total - key-based` where reported.
    pub(crate) key_accesses: AtomicU64,
}

impl MetricSlots {
    /// The raw slot of `m`, for the sites that need more than `+1`
    /// (`fetch_max`, `swap`, gauge decrements).
    #[inline]
    pub(crate) fn slot(&self, m: Metric) -> &AtomicU64 {
        &self.slots[m as usize]
    }

    /// Counts one event of `m` and returns the previous total.
    #[inline]
    pub(crate) fn bump(&self, m: Metric) -> u64 {
        self.slot(m).fetch_add(1, Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn get(&self, m: Metric) -> u64 {
        self.slot(m).load(Ordering::Relaxed)
    }
}

/// What one pass over the live handlers yields — the raw material of the
/// derived metrics.
#[derive(Default)]
struct HandlerScan {
    handlers: u64,
    subscriptions: u64,
    accesses: u64,
    fast_reads: u64,
    quarantined: u64,
}

/// Aggregate counters of the manager, used by the scalability experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManagerStats {
    /// Live handlers (included metadata items).
    pub handlers: usize,
    /// Sum of all subscription counts.
    pub subscriptions: usize,
    /// Total compute-function evaluations.
    pub computes: u64,
    /// Total stored value changes.
    pub updates: u64,
    /// Total consumer accesses.
    pub accesses: u64,
    /// Total trigger propagation rounds.
    pub propagations: u64,
    /// Compute functions that panicked (contained; the item reported
    /// `Unavailable` for that evaluation).
    pub compute_failures: u64,
    /// Periodic refreshes that completed a full window after their
    /// scheduled boundary.
    pub deadline_misses: u64,
    /// Reads served through a cached subscription handler (no manager
    /// lock of any kind).
    pub fast_reads: u64,
    /// Key-based handler lookups served by the sharded index (one shard
    /// read lock).
    pub shard_reads: u64,
    /// Evaluations that overran their declared compute deadline.
    pub deadline_overruns: u64,
    /// Backoff retries scheduled after failed evaluations.
    pub retries: u64,
    /// Times the quarantine circuit breaker tripped.
    pub quarantine_trips: u64,
    /// Reads that were served a degraded (stale last-good) value.
    pub stale_serves: u64,
    /// Epoch flushes performed in epoch propagation mode.
    pub epochs: u64,
    /// Source updates absorbed into an already-pending epoch entry
    /// (duplicate origins coalesced away before the sweep).
    pub coalesced_updates: u64,
}

impl MetadataManager {
    /// The single pass over the live handlers behind every derived
    /// metric, under one bookkeeping lock.
    fn scan_handlers(&self) -> HandlerScan {
        let mut scan = HandlerScan::default();
        self.for_each_handler(|h| {
            scan.handlers += 1;
            scan.subscriptions += h.subscriptions.load(Ordering::Relaxed) as u64;
            scan.accesses += h.access_count();
            scan.quarantined += u64::from(self.is_quarantined(h));
        });
        scan.accesses += self.slots.retired_accesses.load(Ordering::Relaxed);
        scan.fast_reads = scan
            .accesses
            .saturating_sub(self.slots.key_accesses.load(Ordering::Relaxed));
        scan
    }

    /// Reads `m`, walking the handlers (once per `scan` cell) only if
    /// `m` is a derived metric.
    fn read_metric(&self, m: Metric, scan: &mut Option<HandlerScan>) -> Option<u64> {
        match m.entry().source {
            Source::Slot => Some(self.slots.get(m)),
            Source::Scan(project) => {
                Some(project(scan.get_or_insert_with(|| self.scan_handlers())))
            }
            Source::Probe(probe) => probe(self),
        }
    }

    /// The current value of one metric. Plain counters are a single
    /// atomic load; only the derived ones (handlers, subscriptions,
    /// accesses, fast reads, quarantined) walk the handlers. `None`
    /// while the component a metric reports on is not installed.
    pub fn metric(&self, m: Metric) -> Option<u64> {
        self.read_metric(m, &mut None)
    }

    /// Every metric at once, in table order, from one pass over the
    /// handlers — what an exporter should call instead of one
    /// [`Self::metric`] per line.
    pub fn metrics(&self) -> Vec<(Metric, Option<u64>)> {
        let mut scan = None;
        let read = |&m| (m, self.read_metric(m, &mut scan));
        Metric::ALL.iter().map(read).collect()
    }

    /// Aggregate statistics: the named-field view of [`Self::metrics`]
    /// the scalability experiments use.
    pub fn stats(&self) -> ManagerStats {
        let scan = self.scan_handlers();
        let slot = |m| self.slots.get(m);
        ManagerStats {
            handlers: scan.handlers as usize,
            subscriptions: scan.subscriptions as usize,
            computes: slot(Metric::Computes),
            updates: slot(Metric::Updates),
            accesses: scan.accesses,
            propagations: slot(Metric::Propagations),
            compute_failures: slot(Metric::ComputeFailures),
            deadline_misses: slot(Metric::DeadlineMisses),
            fast_reads: scan.fast_reads,
            shard_reads: slot(Metric::ShardReads),
            deadline_overruns: slot(Metric::DeadlineOverruns),
            retries: slot(Metric::Retries),
            quarantine_trips: slot(Metric::QuarantineTrips),
            stale_serves: slot(Metric::StaleServes),
            epochs: slot(Metric::Epochs),
            coalesced_updates: slot(Metric::CoalescedUpdates),
        }
    }
}

/// `docs/METRICS.md`, rendered from the table; a test below fails when
/// the checked-in file differs.
pub fn metrics_markdown() -> String {
    let mut out = String::from(
        "# Manager metrics\n\n\
         <!-- Generated from the metric table in crates/core/src/metrics.rs. Do not edit:\n     \
         regenerate with `BLESS=1 cargo test -p streammeta-core metrics_doc`. -->\n\n\
         Each metric is an on-demand item on `META_NODE`, a `Metric` variant read by\n\
         `MetadataManager::metric` / `metrics` / `stats`, and a line of the profiler's\n\
         `Recorder::render_prometheus`. One whose component (trace ring, trace file, span\n\
         store) is not installed reads `Unavailable` / `None` and has no Prometheus line.\n\
         The periodic `meta.computes_rate` is the one meta item that is not a table metric.\n\n\
         | Meta item | `Metric::` | Kind | Prometheus | Meaning |\n\
         |---|---|---|---|---|\n",
    );
    for m in Metric::ALL {
        let _ = writeln!(
            out,
            "| `{}` | `{m:?}` | {} | `{}` | {} |",
            m.meta_key().item,
            m.kind().as_str(),
            m.prometheus_name(),
            m.help()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_doc_is_in_sync_with_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/METRICS.md");
        let rendered = metrics_markdown();
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(path, &rendered).unwrap();
        }
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        assert!(
            on_disk == rendered,
            "docs/METRICS.md differs from the metric table in crates/core/src/metrics.rs; \
             regenerate it with\n    BLESS=1 cargo test -p streammeta-core metrics_doc"
        );
    }
}
