//! Activatable monitors.
//!
//! Some metadata items require the node to gather information on the hot
//! processing path — e.g. the input rate requires counting incoming
//! elements (Section 4.4.1). The paper's `addMetadata` activates such
//! monitoring code when an item is first included and `removeMetadata`
//! deactivates it again, so *unused* items cost nothing at runtime.
//!
//! A monitor is therefore a cheap atomic cell guarded by an activation
//! count. The hot path calls [`Counter::record`], which is a single relaxed
//! load when inactive. Several items may share a monitor (the input counter
//! feeds both `input_rate` and `input_count`), hence activation counts
//! rather than a flag.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared activation state of a monitor.
#[derive(Debug, Default)]
struct Activation {
    users: AtomicU64,
}

impl Activation {
    #[inline]
    fn is_active(&self) -> bool {
        self.users.load(Ordering::Relaxed) > 0
    }
    fn activate(&self) {
        self.users.fetch_add(1, Ordering::Relaxed);
    }
    /// Saturating: deactivating an inactive monitor is a no-op, so an
    /// unmatched call cannot wrap the count into a monitor that records
    /// forever.
    fn deactivate(&self) {
        let _ = self
            .users
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

/// An activatable event counter.
#[derive(Debug, Default)]
pub struct Counter {
    activation: Activation,
    count: AtomicU64,
}

impl Counter {
    /// A new, inactive counter.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one event if the monitor is active. Hot path.
    #[inline]
    pub fn record(&self) {
        self.record_n(1);
    }

    /// Records `n` events if the monitor is active. Hot path.
    #[inline]
    pub fn record_n(&self, n: u64) {
        if self.activation.is_active() {
            self.count.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The number of events recorded while active.
    pub fn value(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Registers one user of the monitor (typically an `on_include` hook).
    pub fn activate(&self) {
        self.activation.activate();
    }

    /// Deregisters one user (typically an `on_exclude` hook).
    pub fn deactivate(&self) {
        self.activation.deactivate();
    }

    /// Whether any user keeps the monitor active.
    pub fn is_active(&self) -> bool {
        self.activation.is_active()
    }
}

/// An activatable gauge holding an `f64`.
#[derive(Debug)]
pub struct Gauge {
    activation: Activation,
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            activation: Activation::default(),
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A new, inactive gauge reading 0.0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Stores `v` if the monitor is active. Hot path.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.activation.is_active() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `v` if the monitor is active (compare-and-swap loop).
    #[inline]
    pub fn add(&self, v: f64) {
        if !self.activation.is_active() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current reading.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Registers one user of the monitor.
    pub fn activate(&self) {
        self.activation.activate();
    }

    /// Deregisters one user.
    pub fn deactivate(&self) {
        self.activation.deactivate();
    }

    /// Whether any user keeps the monitor active.
    pub fn is_active(&self) -> bool {
        self.activation.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_counter_records_nothing() {
        let c = Counter::new();
        c.record();
        c.record_n(10);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn active_counter_records() {
        let c = Counter::new();
        c.activate();
        c.record();
        c.record_n(4);
        assert_eq!(c.value(), 5);
        c.deactivate();
        c.record();
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn activation_counts_nest() {
        let c = Counter::new();
        c.activate();
        c.activate();
        c.deactivate();
        assert!(c.is_active());
        c.record();
        assert_eq!(c.value(), 1);
        c.deactivate();
        assert!(!c.is_active());
    }

    #[test]
    fn over_deactivation_leaves_the_monitor_inactive() {
        let c = Counter::new();
        c.activate();
        c.deactivate();
        c.deactivate();
        c.record();
        assert_eq!(c.value(), 0);
        assert!(!c.is_active());
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(3.0); // inactive: ignored
        assert_eq!(g.value(), 0.0);
        g.activate();
        g.set(3.0);
        g.add(1.5);
        assert_eq!(g.value(), 4.5);
    }

    #[test]
    fn gauge_add_from_many_threads() {
        let g = Gauge::new();
        g.activate();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        g.add(1.0);
                    }
                });
            }
        });
        assert_eq!(g.value(), 4000.0);
    }

    #[test]
    fn counter_concurrent_records() {
        let c = Counter::new();
        c.activate();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.record();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
    }
}
