//! Equi-width histograms — the "data distributions" metadata the paper
//! lists for stream sources (Section 1).
//!
//! A [`HistogramMonitor`] is an activatable probe: the processing path
//! calls [`HistogramMonitor::observe`] per element (cheap atomic bucket
//! increments when active, a single flag load when not). A periodic
//! metadata item snapshots it per window into a [`HistogramSnapshot`],
//! from which consumers — e.g. a selectivity estimator for a filter
//! predicate, or a query optimizer — derive range selectivities.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::monitor::Counter;

/// Activatable equi-width histogram over `i64` values.
#[derive(Debug)]
pub struct HistogramMonitor {
    /// Piggybacks activation handling on a counter (total observations).
    total: Arc<Counter>,
    lo: i64,
    hi: i64,
    width: u64,
    buckets: Vec<AtomicU64>,
    /// Values below `lo` / at or above the upper edge.
    underflow: AtomicU64,
    overflow: AtomicU64,
}

impl HistogramMonitor {
    /// A histogram over `[lo, hi)` with `buckets` equal-width buckets.
    pub fn new(lo: i64, hi: i64, buckets: usize) -> Arc<Self> {
        assert!(hi > lo, "empty histogram domain");
        assert!(buckets > 0, "histogram needs at least one bucket");
        let span = (hi - lo) as u64;
        let width = span.div_ceil(buckets as u64).max(1);
        Arc::new(HistogramMonitor {
            total: Counter::new(),
            lo,
            hi,
            width,
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        })
    }

    /// The activation counter; attach it to the item via
    /// [`crate::ItemDefBuilder::counter`] so inclusion switches the
    /// histogram on.
    pub fn activation(&self) -> &Arc<Counter> {
        &self.total
    }

    /// Records one observation if active. Hot path.
    #[inline]
    pub fn observe(&self, v: i64) {
        if !self.total.is_active() {
            return;
        }
        self.total.record();
        if v < self.lo {
            self.underflow.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = ((v - self.lo) as u64 / self.width) as usize;
        match self.buckets.get(idx) {
            Some(b) => {
                b.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A consistent-enough snapshot of the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot(Arc::new(SnapshotData {
            lo: self.lo,
            hi: self.hi,
            width: self.width,
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            underflow: self.underflow.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
        }))
    }

    /// [`HistogramSnapshot::percentile`] of the current counts for each
    /// of `ps`, without allocating: the counts are copied once into a
    /// stack array of `B` buckets and all ranks are found in one walk.
    ///
    /// # Panics
    /// If the histogram has more than `B` buckets.
    pub(crate) fn percentiles<const B: usize, const N: usize>(
        &self,
        ps: [f64; N],
    ) -> Option<[i64; N]> {
        let mut counts = [0; B];
        let counts = &mut counts[..self.buckets.len()];
        for (count, bucket) in counts.iter_mut().zip(&self.buckets) {
            *count = bucket.load(Ordering::Relaxed);
        }
        SnapshotData {
            lo: self.lo,
            hi: self.hi,
            width: self.width,
            counts: &*counts,
            underflow: self.underflow.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
        .percentiles(ps)
    }
}

/// An immutable histogram snapshot. One shared pointer wide, so the
/// histogram variant does not set the size of every
/// [`crate::MetadataValue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot(Arc<SnapshotData>);

/// The counts of a histogram with its domain; `C` holds the buckets (a
/// box in a [`HistogramSnapshot`], a stack array while ranking live
/// counts).
#[derive(Debug, PartialEq, Eq)]
struct SnapshotData<C = Box<[u64]>> {
    lo: i64,
    hi: i64,
    width: u64,
    counts: C,
    underflow: u64,
    overflow: u64,
}

impl<C: AsRef<[u64]>> SnapshotData<C> {
    /// Nearest-rank percentiles for each of `ps` (`0.0 < p <= 1.0`),
    /// each reported as the upper edge of the bucket holding its rank.
    /// Underflow ranks report the domain's lower edge, overflow ranks
    /// saturate at the upper edge. `None` before any observation.
    fn percentiles<const N: usize>(&self, ps: [f64; N]) -> Option<[i64; N]> {
        let counts = self.counts.as_ref();
        let total = counts.iter().sum::<u64>() + self.underflow + self.overflow;
        if total == 0 {
            return None;
        }
        let ranks = ps.map(|p| ((p * total as f64).ceil() as u64).clamp(1, total));
        let mut found = [None; N];
        let mut settle = |cum: u64, edge: i64| {
            for (slot, &rank) in found.iter_mut().zip(&ranks) {
                if slot.is_none() && rank <= cum {
                    *slot = Some(edge);
                }
            }
            found.iter().all(Option::is_some)
        };
        let mut cum = self.underflow;
        if !settle(cum, self.lo) {
            for (i, &count) in counts.iter().enumerate() {
                cum += count;
                // Bucket edges are spaced by the rounded-up width, so the
                // last edge can exceed the configured domain top when the
                // span is not divisible by the bucket count; clamp so the
                // reported percentile stays within `[lo, hi]`.
                let edge = (self.lo + ((i as u64 + 1) * self.width) as i64).min(self.hi);
                if settle(cum, edge) {
                    break;
                }
            }
        }
        Some(found.map(|v| v.unwrap_or(self.hi)))
    }
}

impl HistogramSnapshot {
    /// Total observations (including out-of-range).
    pub fn total(&self) -> u64 {
        self.0.counts.iter().sum::<u64>() + self.0.underflow + self.0.overflow
    }

    /// The first value classified as overflow. Bucket widths round up, so
    /// this can sit slightly above the configured `hi`; computed in `i128`
    /// because `lo + buckets * width` can exceed the `i64` range.
    fn upper_edge(&self) -> i128 {
        self.0.lo as i128 + (self.0.counts.len() as u128 * self.0.width as u128) as i128
    }

    /// The bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.0.counts
    }

    /// Estimated fraction of values `< bound` (linear interpolation
    /// within the boundary bucket). `None` before any observation.
    pub fn selectivity_lt(&self, bound: i64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let mut below = self.0.underflow as f64;
        for (i, &count) in self.0.counts.iter().enumerate() {
            let b_lo = self.0.lo + (i as u64 * self.0.width) as i64;
            let b_hi = b_lo + self.0.width as i64;
            if bound >= b_hi {
                below += count as f64;
            } else if bound > b_lo {
                let frac = (bound - b_lo) as f64 / self.0.width as f64;
                below += count as f64 * frac;
                break;
            } else {
                break;
            }
        }
        // Overflow holds everything at or above the upper bucket edge; once
        // `bound` clears that edge the tail mass counts as below it (the
        // mirror of the underflow term above). Without this the estimate
        // never reaches 1.0 after an out-of-range observation, even for
        // `bound == i64::MAX`.
        if bound as i128 > self.upper_edge() {
            below += self.0.overflow as f64;
        }
        Some(below / total as f64)
    }

    /// Estimated fraction of values equal to `v` (uniformity within the
    /// bucket). `None` before any observation.
    pub fn selectivity_eq(&self, v: i64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        if v < self.0.lo {
            return Some(0.0);
        }
        let idx = ((v - self.0.lo) as u64 / self.0.width) as usize;
        let Some(&count) = self.0.counts.get(idx) else {
            // Above the upper edge: attribute the overflow mass, spread over
            // one bucket width (the same uniformity convention as in-range
            // buckets). Returning 0.0 here would hide every observation that
            // landed above `hi`.
            return Some(self.0.overflow as f64 / self.0.width as f64 / total as f64);
        };
        Some(count as f64 / self.0.width as f64 / total as f64)
    }

    /// Nearest-rank percentile estimate (`0.0 < p <= 1.0`), reported as
    /// the upper edge of the bucket holding the rank. Underflow ranks
    /// report the domain's lower edge, overflow ranks saturate at the
    /// upper edge. `None` before any observation.
    pub fn percentile(&self, p: f64) -> Option<i64> {
        self.0.percentiles([p]).map(|[v]| v)
    }

    /// Renders `bucket_lo:count` pairs, for textual metadata export.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, &count) in self.0.counts.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let b_lo = self.0.lo + (i as u64 * self.0.width) as i64;
            let _ = write!(out, "{b_lo}:{count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(lo: i64, hi: i64, buckets: usize) -> Arc<HistogramMonitor> {
        let h = HistogramMonitor::new(lo, hi, buckets);
        h.activation().activate();
        h
    }

    #[test]
    fn inactive_histogram_records_nothing() {
        let h = HistogramMonitor::new(0, 100, 10);
        h.observe(5);
        assert_eq!(h.snapshot().total(), 0);
    }

    #[test]
    fn buckets_fill_correctly() {
        let h = active(0, 100, 10);
        for v in [0, 5, 9, 10, 55, 99] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.total(), 6);
        assert_eq!(s.counts()[0], 3); // 0,5,9
        assert_eq!(s.counts()[1], 1); // 10
        assert_eq!(s.counts()[5], 1); // 55
        assert_eq!(s.counts()[9], 1); // 99
    }

    #[test]
    fn out_of_range_tracked() {
        let h = active(0, 10, 2);
        h.observe(-1);
        h.observe(10);
        h.observe(100);
        let s = h.snapshot();
        assert_eq!(s.total(), 3);
        assert_eq!(s.counts().iter().sum::<u64>(), 0);
        assert_eq!(s.selectivity_lt(0), Some(1.0 / 3.0));
    }

    #[test]
    fn selectivity_lt_uniform() {
        let h = active(0, 100, 10);
        for v in 0..100 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.selectivity_lt(50), Some(0.5));
        assert_eq!(s.selectivity_lt(0), Some(0.0));
        assert_eq!(s.selectivity_lt(100), Some(1.0));
        // Interpolation inside a bucket.
        let sel = s.selectivity_lt(25).unwrap();
        assert!((sel - 0.25).abs() < 1e-9);
    }

    #[test]
    fn selectivity_eq_uniform() {
        let h = active(0, 10, 10);
        for v in 0..10 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert!((s.selectivity_eq(3).unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(s.selectivity_eq(-5), Some(0.0));
        assert_eq!(s.selectivity_eq(50), Some(0.0));
    }

    #[test]
    fn empty_snapshot_has_no_selectivity() {
        let h = active(0, 10, 2);
        assert_eq!(h.snapshot().selectivity_lt(5), None);
        assert_eq!(h.snapshot().selectivity_eq(5), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let h = active(0, 100, 10);
        for v in 0..100 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), Some(50));
        assert_eq!(s.percentile(0.95), Some(100));
        assert_eq!(s.percentile(0.05), Some(10));
        assert_eq!(
            HistogramMonitor::new(0, 10, 2).snapshot().percentile(0.5),
            None
        );
    }

    #[test]
    fn live_percentiles_equal_the_snapshot_ones() {
        // Underflow, in-range, overflow and an indivisible span.
        let h = active(0, 10, 3);
        for v in [-5, 0, 3, 4, 7, 9, 11, 50] {
            h.observe(v);
            let s = h.snapshot();
            let ps = [0.01, 0.2, 0.5, 0.95, 0.99, 1.0];
            assert_eq!(
                h.percentiles::<3, 6>(ps),
                Some(ps.map(|p| s.percentile(p).unwrap()))
            );
            // Ranks in any order.
            assert_eq!(
                h.percentiles::<8, 2>([0.99, 0.2]),
                Some([s.percentile(0.99).unwrap(), s.percentile(0.2).unwrap()])
            );
        }
        assert_eq!(active(0, 10, 3).percentiles::<3, 1>([0.5]), None);
    }

    #[test]
    fn percentile_saturates_at_domain_edges() {
        let h = active(0, 10, 2);
        h.observe(-5);
        h.observe(50);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.25), Some(0));
        assert_eq!(s.percentile(1.0), Some(10));
    }

    #[test]
    fn selectivity_lt_counts_overflow_tail() {
        let h = active(0, 100, 10);
        for v in 0..100 {
            h.observe(v);
        }
        h.observe(150);
        h.observe(10_000);
        let s = h.snapshot();
        // Regression: the overflow mass used to be in the denominator but
        // never in the numerator, so no bound could reach 1.0.
        assert_eq!(s.selectivity_lt(i64::MAX), Some(1.0));
        assert_eq!(s.selectivity_lt(100), Some(100.0 / 102.0));
        let sel = s.selectivity_lt(50).unwrap();
        assert!((sel - 50.0 / 102.0).abs() < 1e-9);
    }

    #[test]
    fn selectivity_eq_counts_overflow_mass() {
        let h = active(0, 10, 10);
        for v in 0..10 {
            h.observe(v);
        }
        h.observe(10);
        h.observe(999);
        let s = h.snapshot();
        // Regression: values at or above `hi` used to report 0.0 even with
        // overflow observations present.
        let eq = s.selectivity_eq(50).unwrap();
        assert!((eq - 2.0 / 12.0).abs() < 1e-9);
        assert_eq!(s.selectivity_eq(-5), Some(0.0));
    }

    #[test]
    fn percentile_clamped_to_hi_for_indivisible_span() {
        // Span 10 over 3 buckets -> width 4, raw top edge 12 > hi.
        let h = active(0, 10, 3);
        for v in 0..10 {
            h.observe(v);
        }
        h.observe(11);
        let s = h.snapshot();
        // Regression: the upper-bucket edge used to leak out unclamped.
        assert_eq!(s.percentile(1.0), Some(10));
        assert!(s.percentile(0.99).unwrap() <= 10);
    }

    #[test]
    fn render_lists_buckets() {
        let h = active(0, 4, 2);
        h.observe(0);
        h.observe(3);
        assert_eq!(h.snapshot().render(), "0:1 2:1");
    }

    #[test]
    #[should_panic(expected = "empty histogram domain")]
    fn empty_domain_rejected() {
        HistogramMonitor::new(5, 5, 2);
    }
}
