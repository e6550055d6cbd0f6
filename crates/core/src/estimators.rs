//! Statistical helpers used by metadata compute functions.
//!
//! These little estimators embody the measurement styles discussed in
//! Section 3 of the paper:
//!
//! * [`WindowDelta`] — counts per fixed time window, the building block of
//!   *periodic* rate handlers (Figure 4's correct solution).
//! * [`IntervalRate`] — the *naive on-demand* rate measurement that resets
//!   its counter on every access; it exists to reproduce the Figure 4
//!   anomaly and to demonstrate why the periodic mechanism is needed.
//! * [`OnlineAverage`], [`OnlineVariance`], [`Ewma`] — online aggregates
//!   for intra-node dependencies ("the average or variance of the join
//!   selectivity", Section 2.3).

use std::sync::Arc;

use parking_lot::Mutex;
use streammeta_time::{TimeSpan, Timestamp};

use crate::monitor::Counter;

/// Per-window delta of a shared [`Counter`].
///
/// `take_delta` returns how many events were recorded since the previous
/// call; periodic handlers call it exactly once per window boundary, so
/// `delta / window` is the exact rate over the window.
#[derive(Debug)]
pub struct WindowDelta {
    counter: Arc<Counter>,
    last: Mutex<u64>,
}

impl WindowDelta {
    /// Tracks deltas of `counter`, starting from its current value.
    pub fn new(counter: Arc<Counter>) -> Self {
        let last = Mutex::new(counter.value());
        WindowDelta { counter, last }
    }

    /// Events recorded since the previous call.
    pub fn take_delta(&self) -> u64 {
        let now = self.counter.value();
        let mut last = self.last.lock();
        let delta = now.saturating_sub(*last);
        *last = now;
        delta
    }

    /// Rate over a window of length `window`: `delta / window`.
    /// `None` for an empty window (before the first boundary).
    pub fn rate_over(&self, window: TimeSpan) -> Option<f64> {
        if window.is_zero() {
            // Consume the delta anyway so the first real window starts clean.
            self.take_delta();
            return None;
        }
        Some(self.take_delta() as f64 / window.as_f64())
    }
}

/// The naive reset-on-access rate measurement of Section 3.1.
///
/// Every sample computes `events since last sample / time since last
/// sample` and resets both. When two consumers share the item, their
/// accesses interfere — exactly the anomaly of Figure 4.
#[derive(Debug)]
pub struct IntervalRate {
    counter: Arc<Counter>,
    last: Mutex<(u64, Timestamp)>,
}

impl IntervalRate {
    /// Tracks `counter` starting at `origin`.
    pub fn new(counter: Arc<Counter>, origin: Timestamp) -> Self {
        let last = Mutex::new((counter.value(), origin));
        IntervalRate { counter, last }
    }

    /// Samples the rate at `now`, resetting the measurement interval.
    /// A zero-length interval reports rate 0 (the paper: "the value
    /// returned to the second consumer will often be zero").
    pub fn sample(&self, now: Timestamp) -> f64 {
        let count = self.counter.value();
        let mut last = self.last.lock();
        let (last_count, last_time) = *last;
        *last = (count, now);
        let elapsed = now.since(last_time);
        if elapsed.is_zero() {
            return 0.0;
        }
        count.saturating_sub(last_count) as f64 / elapsed.as_f64()
    }
}

/// Running arithmetic mean.
#[derive(Debug, Default)]
pub struct OnlineAverage {
    state: Mutex<(u64, f64)>, // (count, sum)
}

impl OnlineAverage {
    /// An empty average.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn observe(&self, x: f64) {
        let mut s = self.state.lock();
        s.0 += 1;
        s.1 += x;
    }

    /// The mean of all observations, `None` before the first.
    pub fn mean(&self) -> Option<f64> {
        let s = self.state.lock();
        (s.0 > 0).then(|| s.1 / s.0 as f64)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.state.lock().0
    }

    /// Forgets all observations.
    pub fn reset(&self) {
        *self.state.lock() = (0, 0.0);
    }
}

/// Running variance (Welford's algorithm).
#[derive(Debug, Default)]
pub struct OnlineVariance {
    state: Mutex<(u64, f64, f64)>, // (count, mean, m2)
}

impl OnlineVariance {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn observe(&self, x: f64) {
        let mut s = self.state.lock();
        s.0 += 1;
        let delta = x - s.1;
        s.1 += delta / s.0 as f64;
        let delta2 = x - s.1;
        s.2 += delta * delta2;
    }

    /// The population variance, `None` before the first observation.
    pub fn variance(&self) -> Option<f64> {
        let s = self.state.lock();
        (s.0 > 0).then(|| s.2 / s.0 as f64)
    }

    /// The running mean, `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        let s = self.state.lock();
        (s.0 > 0).then(|| s.1)
    }
}

/// Exponentially weighted moving average.
#[derive(Debug)]
pub struct Ewma {
    alpha: f64,
    state: Mutex<Option<f64>>,
}

impl Ewma {
    /// Smoothing factor `alpha` in `(0, 1]`: weight of the newest
    /// observation.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0,1]");
        Ewma {
            alpha,
            state: Mutex::new(None),
        }
    }

    /// Adds an observation.
    pub fn observe(&self, x: f64) {
        let mut s = self.state.lock();
        *s = Some(match *s {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        });
    }

    /// The smoothed value, `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        *self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_delta_counts_per_window() {
        let c = Counter::new();
        c.activate();
        let d = WindowDelta::new(c.clone());
        c.record_n(5);
        assert_eq!(d.take_delta(), 5);
        assert_eq!(d.take_delta(), 0);
        c.record_n(3);
        assert_eq!(d.rate_over(TimeSpan(30)), Some(0.1));
    }

    #[test]
    fn window_delta_zero_window_consumes() {
        let c = Counter::new();
        c.activate();
        let d = WindowDelta::new(c.clone());
        c.record_n(4);
        assert_eq!(d.rate_over(TimeSpan::ZERO), None);
        // The pending events were consumed; the next window starts clean.
        assert_eq!(d.take_delta(), 0);
    }

    #[test]
    fn interval_rate_measures_since_last_access() {
        let c = Counter::new();
        c.activate();
        let r = IntervalRate::new(c.clone(), Timestamp(0));
        c.record_n(5);
        assert_eq!(r.sample(Timestamp(50)), 0.1);
        // Immediately re-sampling sees nothing: the Figure 4 anomaly.
        assert_eq!(r.sample(Timestamp(50)), 0.0);
        c.record_n(1);
        assert_eq!(r.sample(Timestamp(60)), 0.1);
    }

    #[test]
    fn online_average() {
        let a = OnlineAverage::new();
        assert_eq!(a.mean(), None);
        a.observe(1.0);
        a.observe(3.0);
        assert_eq!(a.mean(), Some(2.0));
        assert_eq!(a.count(), 2);
        a.reset();
        assert_eq!(a.mean(), None);
    }

    #[test]
    fn online_variance_matches_direct_formula() {
        let v = OnlineVariance::new();
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for x in xs {
            v.observe(x);
        }
        assert!((v.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((v.variance().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_towards_constant() {
        let e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        for _ in 0..50 {
            e.observe(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }
}
