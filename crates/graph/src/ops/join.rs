//! Time-based sliding-window join (the running example of the paper's
//! Sections 2.5 and 3.3).
//!
//! The join expects *windowed* inputs: upstream window operators have
//! assigned each element a validity. On an arrival from one input the join
//! (i) purges expired elements from the opposite state, (ii) probes it for
//! predicate matches, and (iii) inserts the new element into its own
//! state — the classic symmetric evaluation.

use std::sync::Arc;

use streammeta_streams::{Element, Schema, Tuple, Value};
use streammeta_time::Timestamp;

use crate::monitors::NodeMonitors;
use crate::node::NodeBehavior;
use crate::ops::state::{JoinKey, Probe, SharedJoinState, StateImpl};

/// Join predicates.
#[derive(Clone)]
pub enum JoinPredicate {
    /// Equality of `left_col` and `right_col` (enables hash states).
    EqAttr {
        /// Column of the left input.
        left: usize,
        /// Column of the right input.
        right: usize,
    },
    /// `|left_col - right_col| <= eps` over floats.
    Within {
        /// Column of the left input.
        left: usize,
        /// Column of the right input.
        right: usize,
        /// Tolerance.
        eps: f64,
    },
    /// Cross product.
    True,
    /// Arbitrary user predicate over the two payloads.
    Custom(Arc<PredicateFn>),
}

/// Custom join predicate signature.
pub type PredicateFn = dyn Fn(&Tuple, &Tuple) -> bool + Send + Sync;

impl JoinPredicate {
    /// Evaluates the predicate on a (left, right) payload pair.
    pub fn eval(&self, left: &Tuple, right: &Tuple) -> bool {
        match self {
            JoinPredicate::EqAttr { left: l, right: r } => left.get(*l) == right.get(*r),
            JoinPredicate::Within {
                left: l,
                right: r,
                eps,
            } => {
                match (
                    left.get(*l).and_then(|v| v.as_float()),
                    right.get(*r).and_then(|v| v.as_float()),
                ) {
                    (Some(a), Some(b)) => (a - b).abs() <= *eps,
                    _ => false,
                }
            }
            JoinPredicate::True => true,
            JoinPredicate::Custom(f) => f(left, right),
        }
    }

    /// The storage key of an element arriving on `port`.
    pub fn key_of(&self, port: usize, payload: &Tuple) -> JoinKey {
        match self {
            JoinPredicate::EqAttr { left, right } => {
                let col = if port == 0 { *left } else { *right };
                payload
                    .get(col)
                    .and_then(|v| v.as_int())
                    .map_or(JoinKey::None, JoinKey::Int)
            }
            JoinPredicate::Within { left, right, .. } => {
                let col = if port == 0 { *left } else { *right };
                payload
                    .get(col)
                    .and_then(|v| v.as_float())
                    .map_or(JoinKey::None, JoinKey::Float)
            }
            _ => JoinKey::None,
        }
    }

    /// The probe an arrival on `port` runs against the opposite state.
    pub fn probe_of(&self, port: usize, payload: &Tuple) -> Probe {
        match self {
            JoinPredicate::EqAttr { left, right } => {
                let col = if port == 0 { *left } else { *right };
                payload
                    .get(col)
                    .and_then(|v| v.as_int())
                    .map_or(Probe::All, Probe::Key)
            }
            JoinPredicate::Within { left, right, eps } => {
                let col = if port == 0 { *left } else { *right };
                match payload.get(col).and_then(|v| v.as_float()) {
                    Some(v) => Probe::Range {
                        lo: v - eps,
                        hi: v + eps,
                    },
                    None => Probe::All,
                }
            }
            _ => Probe::All,
        }
    }

    /// Whether `state` can index this predicate (list always works).
    pub fn supports_state(&self, state: StateImpl) -> bool {
        match state {
            StateImpl::List => true,
            StateImpl::Hash => matches!(self, JoinPredicate::EqAttr { .. }),
            StateImpl::Ordered => matches!(
                self,
                JoinPredicate::EqAttr { .. } | JoinPredicate::Within { .. }
            ),
        }
    }

    /// Nominal cost of one predicate evaluation in abstract work units —
    /// the `predicate_cost` metadata item of Figure 3.
    pub fn nominal_cost(&self) -> f64 {
        match self {
            JoinPredicate::EqAttr { .. } => 1.0,
            JoinPredicate::Within { .. } => 2.0,
            JoinPredicate::True => 0.5,
            JoinPredicate::Custom(_) => 4.0,
        }
    }

    /// Label for static metadata.
    pub fn label(&self) -> &'static str {
        match self {
            JoinPredicate::EqAttr { .. } => "eq",
            JoinPredicate::Within { .. } => "within",
            JoinPredicate::True => "true",
            JoinPredicate::Custom(_) => "custom",
        }
    }
}

fn impl_label(state: StateImpl) -> &'static str {
    match state {
        StateImpl::List => "nested-loops",
        StateImpl::Hash => "hash-based",
        StateImpl::Ordered => "ordered",
    }
}

/// The symmetric sliding-window join behavior.
pub struct SlidingWindowJoin {
    predicate: JoinPredicate,
    left: SharedJoinState,
    right: SharedJoinState,
    monitors: Arc<NodeMonitors>,
    out_schema: Schema,
    implementation: &'static str,
}

impl SlidingWindowJoin {
    /// Builds a join over windowed inputs with the given state
    /// implementation for both sides.
    pub fn new(
        predicate: JoinPredicate,
        state_impl: StateImpl,
        left_schema: &Schema,
        right_schema: &Schema,
        monitors: Arc<NodeMonitors>,
    ) -> Self {
        assert!(
            predicate.supports_state(state_impl),
            "predicate {:?} cannot use {state_impl:?} states",
            predicate.label()
        );
        let implementation = impl_label(state_impl);
        SlidingWindowJoin {
            predicate,
            left: SharedJoinState::new(state_impl.build()),
            right: SharedJoinState::new(state_impl.build()),
            monitors,
            out_schema: left_schema.concat(right_schema),
            implementation,
        }
    }

    /// The shared left state (for module metadata installation).
    pub fn left_state(&self) -> &SharedJoinState {
        &self.left
    }

    /// The shared right state (for module metadata installation).
    pub fn right_state(&self) -> &SharedJoinState {
        &self.right
    }

    /// The predicate (for the `predicate_cost` metadata item).
    pub fn predicate(&self) -> &JoinPredicate {
        &self.predicate
    }

    /// Exchanges both state modules at runtime (Section 4.5), migrating
    /// the stored elements. Requires an equi-join predicate for hash
    /// states. Updates the behavior's implementation label.
    pub fn swap_state(&mut self, new_impl: StateImpl) {
        assert!(
            self.predicate.supports_state(new_impl),
            "predicate {:?} cannot use {new_impl:?} states",
            self.predicate.label()
        );
        let pred = self.predicate.clone();
        self.left.replace(new_impl, &|e| pred.key_of(0, &e.payload));
        let pred = self.predicate.clone();
        self.right
            .replace(new_impl, &|e| pred.key_of(1, &e.payload));
        self.implementation = impl_label(new_impl);
    }
}

impl NodeBehavior for SlidingWindowJoin {
    fn ports(&self) -> usize {
        2
    }

    fn process(&mut self, port: usize, element: &Element, _now: Timestamp, out: &mut Vec<Element>) {
        debug_assert!(port < 2, "join has two inputs");
        let (own, other) = if port == 0 {
            (&self.left, &self.right)
        } else {
            (&self.right, &self.left)
        };
        let t = element.timestamp;
        let mut candidates = 0u64;
        let mut overhead = 0u64;
        let (other_len, other_bytes) = {
            let mut other_state = other.lock();
            overhead += other_state.op_overhead(); // probe
            other_state.purge_expired(t);
            let probe = self.predicate.probe_of(port, &element.payload);
            other_state.for_candidates(probe, &mut |cand| {
                candidates += 1;
                let (lp, rp) = if port == 0 {
                    (&element.payload, &cand.payload)
                } else {
                    (&cand.payload, &element.payload)
                };
                if self.predicate.eval(lp, rp) {
                    let payload: Tuple = lp.iter().cloned().chain(rp.iter().cloned()).collect();
                    out.push(Element {
                        payload,
                        timestamp: t,
                        expiry: element.expiry.min(cand.expiry),
                    });
                }
            });
            (other_state.len(), other_state.bytes())
        };
        let (own_len, own_bytes) = {
            let mut own_state = own.lock();
            overhead += own_state.op_overhead(); // insert
            own_state.purge_expired(t);
            let own_key = self.predicate.key_of(port, &element.payload);
            own_state.insert(own_key, element.clone());
            (own_state.len(), own_state.bytes())
        };
        // The graph wrapper records one base work unit per element; the
        // join adds one unit per candidate pair considered plus the state
        // modules' per-operation overhead (hashing cost).
        self.monitors.pairs.record_n(candidates);
        self.monitors.work.record_n(candidates + overhead);
        self.monitors.state_len.set((own_len + other_len) as f64);
        self.monitors
            .state_bytes
            .set((own_bytes + other_bytes) as f64);
    }

    fn output_schema(&self) -> Schema {
        self.out_schema.clone()
    }

    fn implementation(&self) -> &'static str {
        self.implementation
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Convenience for tests: a two-column int payload `(key, seq)`.
pub fn kv_payload(key: i64, seq: i64) -> Tuple {
    [Value::Int(key), Value::Int(seq)].into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_streams::ValueType;
    use streammeta_time::TimeSpan;

    fn schema2() -> Schema {
        Schema::of(&[("k", ValueType::Int), ("seq", ValueType::Int)])
    }

    fn windowed(key: i64, seq: i64, ts: u64, window: u64) -> Element {
        Element::new(kv_payload(key, seq), Timestamp(ts)).with_window(TimeSpan(window))
    }

    fn join(state: StateImpl) -> SlidingWindowJoin {
        let m = NodeMonitors::new(2);
        m.pairs.activate();
        m.work.activate();
        m.state_len.activate();
        m.state_bytes.activate();
        SlidingWindowJoin::new(
            JoinPredicate::EqAttr { left: 0, right: 0 },
            state,
            &schema2(),
            &schema2(),
            m,
        )
    }

    #[test]
    fn matching_keys_join_within_window() {
        for state in [StateImpl::List, StateImpl::Hash] {
            let mut j = join(state);
            let mut out = Vec::new();
            j.process(0, &windowed(1, 100, 0, 10), Timestamp(0), &mut out);
            assert!(out.is_empty(), "nothing on the right yet");
            j.process(1, &windowed(1, 200, 5, 10), Timestamp(5), &mut out);
            assert_eq!(out.len(), 1, "{state:?}");
            let e = &out[0];
            assert_eq!(e.payload.len(), 4);
            assert_eq!(e.payload[1], Value::Int(100));
            assert_eq!(e.payload[3], Value::Int(200));
            assert_eq!(e.timestamp, Timestamp(5));
            // Result validity ends with the earlier input (t=0+10).
            assert_eq!(e.expiry, Timestamp(10));
        }
    }

    #[test]
    fn expired_elements_do_not_join() {
        let mut j = join(StateImpl::List);
        let mut out = Vec::new();
        j.process(0, &windowed(1, 1, 0, 10), Timestamp(0), &mut out);
        // Arrives at t=10: the left element expired exactly at 10.
        j.process(1, &windowed(1, 2, 10, 10), Timestamp(10), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn mismatched_keys_do_not_join() {
        let mut j = join(StateImpl::Hash);
        let mut out = Vec::new();
        j.process(0, &windowed(1, 1, 0, 100), Timestamp(0), &mut out);
        j.process(1, &windowed(2, 2, 1, 100), Timestamp(1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hash_state_considers_fewer_candidates_than_list() {
        let build = |state| {
            let mut j = join(state);
            let mut out = Vec::new();
            // 10 left elements with distinct keys.
            for k in 0..10 {
                j.process(0, &windowed(k, k, 0, 1000), Timestamp(0), &mut out);
            }
            // One right probe with key 3.
            j.process(1, &windowed(3, 99, 1, 1000), Timestamp(1), &mut out);
            (out.len(), j.monitors.pairs.value())
        };
        let (list_out, list_pairs) = build(StateImpl::List);
        let (hash_out, hash_pairs) = build(StateImpl::Hash);
        assert_eq!(list_out, hash_out, "same results");
        assert_eq!(list_pairs, 10, "list scans all");
        assert_eq!(hash_pairs, 1, "hash probes one bucket");
    }

    #[test]
    fn state_gauges_track_sizes() {
        let mut j = join(StateImpl::List);
        let mut out = Vec::new();
        j.process(0, &windowed(1, 1, 0, 10), Timestamp(0), &mut out);
        j.process(1, &windowed(1, 2, 1, 10), Timestamp(1), &mut out);
        assert_eq!(j.monitors.state_len.value(), 2.0);
        assert!(j.monitors.state_bytes.value() > 0.0);
        // Far in the future both sides purge on the next arrivals.
        j.process(0, &windowed(9, 9, 1000, 10), Timestamp(1000), &mut out);
        j.process(1, &windowed(8, 8, 1001, 10), Timestamp(1001), &mut out);
        assert_eq!(j.monitors.state_len.value(), 2.0, "only the new ones");
    }

    #[test]
    fn predicate_variants() {
        let lt: Tuple = [Value::Float(1.0)].into_iter().collect();
        let rt: Tuple = [Value::Float(1.3)].into_iter().collect();
        assert!(JoinPredicate::Within {
            left: 0,
            right: 0,
            eps: 0.5
        }
        .eval(&lt, &rt));
        assert!(!JoinPredicate::Within {
            left: 0,
            right: 0,
            eps: 0.1
        }
        .eval(&lt, &rt));
        assert!(JoinPredicate::True.eval(&lt, &rt));
        let custom = JoinPredicate::Custom(Arc::new(|l, r| l[0] == r[0]));
        assert!(!custom.eval(&lt, &rt));
        assert_eq!(JoinPredicate::True.key_of(0, &lt), JoinKey::None);
        assert_eq!(JoinPredicate::True.probe_of(0, &lt), Probe::All);
        assert_eq!(
            JoinPredicate::Within {
                left: 0,
                right: 0,
                eps: 0.5
            }
            .probe_of(0, &lt),
            Probe::Range { lo: 0.5, hi: 1.5 }
        );
        assert!(JoinPredicate::EqAttr { left: 0, right: 0 }.nominal_cost() > 0.0);
        assert!(JoinPredicate::Within {
            left: 0,
            right: 0,
            eps: 0.5
        }
        .supports_state(StateImpl::Ordered));
        assert!(!JoinPredicate::True.supports_state(StateImpl::Hash));
    }

    #[test]
    fn ordered_state_prunes_band_join_candidates() {
        let build = |state| {
            let m = NodeMonitors::new(2);
            m.pairs.activate();
            let mut j = SlidingWindowJoin::new(
                JoinPredicate::Within {
                    left: 0,
                    right: 0,
                    eps: 1.0,
                },
                state,
                &schema2(),
                &schema2(),
                m.clone(),
            );
            let mut out = Vec::new();
            // 20 left elements with keys 0..20.
            for k in 0..20 {
                j.process(0, &windowed(k, k, 0, 1000), Timestamp(0), &mut out);
            }
            // One right probe at key 10: matches 9, 10, 11.
            out.clear();
            j.process(1, &windowed(10, 99, 1, 1000), Timestamp(1), &mut out);
            (out.len(), m.pairs.value())
        };
        let (list_out, list_pairs) = build(StateImpl::List);
        let (ord_out, ord_pairs) = build(StateImpl::Ordered);
        assert_eq!(list_out, 3);
        assert_eq!(ord_out, 3, "same results");
        assert_eq!(list_pairs, 20, "list scans all");
        assert_eq!(ord_pairs, 3, "ordered probes the band only");
    }

    #[test]
    fn ordered_join_swaps_in_at_runtime() {
        let m = NodeMonitors::new(2);
        let mut j = SlidingWindowJoin::new(
            JoinPredicate::Within {
                left: 0,
                right: 0,
                eps: 1.0,
            },
            StateImpl::List,
            &schema2(),
            &schema2(),
            m,
        );
        let mut out = Vec::new();
        j.process(0, &windowed(5, 1, 0, 1000), Timestamp(0), &mut out);
        j.swap_state(StateImpl::Ordered);
        assert_eq!(j.implementation(), "ordered");
        // The migrated element still joins.
        j.process(1, &windowed(6, 2, 1, 1000), Timestamp(1), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot use")]
    fn hash_state_rejects_non_equi_predicate() {
        let m = NodeMonitors::new(2);
        SlidingWindowJoin::new(
            JoinPredicate::True,
            StateImpl::Hash,
            &schema2(),
            &schema2(),
            m,
        );
    }
}
