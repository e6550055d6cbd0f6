//! Property tests of the sliding-window join: both state implementations
//! must produce exactly the results of a brute-force reference model, and
//! window/aggregate invariants must hold for arbitrary inputs.

use std::collections::BTreeSet;

use proptest::prelude::*;
use streammeta_graph::{
    AggKind, JoinPredicate, NodeBehavior, NodeMonitors, SlidingWindowJoin, StateImpl,
    WindowAggregate,
};
use streammeta_streams::{tuple, Element, Schema, Value, ValueType};
use streammeta_time::{TimeSpan, Timestamp};

fn schema() -> Schema {
    Schema::of(&[("k", ValueType::Int), ("seq", ValueType::Int)])
}

/// (side, key, timestamp-increment, window): arrivals are interleaved
/// over both inputs with non-decreasing timestamps. Each carries the
/// window its upstream window operator had when it passed — a window
/// resized at runtime hands the join expiries that are not monotone.
type Arrival = (bool, i64, u64, u64);

/// Brute-force reference: all pairs (l, r) with matching keys and
/// overlapping validities, where validity = [ts, ts + window).
fn reference_join(arrivals: &[Arrival]) -> BTreeSet<(u64, u64)> {
    // Materialise (timestamp, key, seq, window) per side.
    let mut t = 0u64;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &(is_left, key, dt, window)) in arrivals.iter().enumerate() {
        t += dt;
        let rec = (t, key, i as u64, window);
        if is_left {
            left.push(rec);
        } else {
            right.push(rec);
        }
    }
    let mut out = BTreeSet::new();
    for &(lt, lk, lseq, lw) in &left {
        for &(rt, rk, rseq, rw) in &right {
            if lk != rk {
                continue;
            }
            // The later element joins if the earlier is still valid at
            // its timestamp (strict expiry: valid while now < ts+window).
            let (early, window, late) = if lt <= rt { (lt, lw, rt) } else { (rt, rw, lt) };
            if late < early + window {
                out.insert((lseq, rseq));
            }
        }
    }
    out
}

fn run_join(arrivals: &[Arrival], state: StateImpl) -> BTreeSet<(u64, u64)> {
    let m = NodeMonitors::new(2);
    let mut join = SlidingWindowJoin::new(
        JoinPredicate::EqAttr { left: 0, right: 0 },
        state,
        &schema(),
        &schema(),
        m,
    );
    let mut results = BTreeSet::new();
    let mut t = 0u64;
    let mut out = Vec::new();
    for (i, &(is_left, key, dt, window)) in arrivals.iter().enumerate() {
        t += dt;
        let e = Element::new(tuple([Value::Int(key), Value::Int(i as i64)]), Timestamp(t))
            .with_window(TimeSpan(window));
        out.clear();
        join.process(if is_left { 0 } else { 1 }, &e, Timestamp(t), &mut out);
        for r in &out {
            // Payload: [lk, lseq, rk, rseq].
            let lseq = r.payload[1].as_int().unwrap() as u64;
            let rseq = r.payload[3].as_int().unwrap() as u64;
            results.insert((lseq, rseq));
        }
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// List-, hash- and ordered-state joins all equal the brute-force
    /// reference, whatever order the stored elements expire in (the
    /// purge's no-scan fast path must never keep an expired element).
    #[test]
    fn join_matches_reference_model(
        arrivals in proptest::collection::vec(
            (prop::bool::ANY, 0i64..5, 0u64..15, 1u64..40), 1..60),
    ) {
        let expect = reference_join(&arrivals);
        let list = run_join(&arrivals, StateImpl::List);
        prop_assert_eq!(&list, &expect, "list join differs from reference");
        let hash = run_join(&arrivals, StateImpl::Hash);
        prop_assert_eq!(&hash, &expect, "hash join differs from reference");
        let ordered = run_join(&arrivals, StateImpl::Ordered);
        prop_assert_eq!(&ordered, &expect, "ordered join differs from reference");
    }

    /// The hash join never considers more candidate pairs than the list
    /// join (bucket pruning is sound).
    #[test]
    fn hash_join_considers_no_more_candidates(
        arrivals in proptest::collection::vec(
            (prop::bool::ANY, 0i64..5, 0u64..10), 1..60),
        window in 1u64..40,
    ) {
        let pairs_of = |state: StateImpl| {
            let m = NodeMonitors::new(2);
            m.pairs.activate();
            let mut join = SlidingWindowJoin::new(
                JoinPredicate::EqAttr { left: 0, right: 0 },
                state,
                &schema(),
                &schema(),
                m.clone(),
            );
            let mut t = 0u64;
            let mut out = Vec::new();
            for (i, &(is_left, key, dt)) in arrivals.iter().enumerate() {
                t += dt;
                let e = Element::new(
                    tuple([Value::Int(key), Value::Int(i as i64)]),
                    Timestamp(t),
                )
                .with_window(TimeSpan(window));
                out.clear();
                join.process(if is_left { 0 } else { 1 }, &e, Timestamp(t), &mut out);
            }
            m.pairs.value()
        };
        prop_assert!(pairs_of(StateImpl::Hash) <= pairs_of(StateImpl::List));
    }

    /// Band joins (|a - b| <= eps) over ordered state equal the
    /// brute-force reference, and the range probe never misses a match.
    #[test]
    fn band_join_matches_reference(
        arrivals in proptest::collection::vec(
            (prop::bool::ANY, 0i64..20, 0u64..10), 1..50),
        window in 1u64..40,
        eps in 0u64..4,
    ) {
        let eps = eps as f64;
        // Reference with the band predicate.
        let mut t = 0u64;
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (i, &(is_left, key, dt)) in arrivals.iter().enumerate() {
            t += dt;
            if is_left { left.push((t, key, i as u64)); } else { right.push((t, key, i as u64)); }
        }
        let mut expect = BTreeSet::new();
        for &(lt, lk, lseq) in &left {
            for &(rt, rk, rseq) in &right {
                if (lk - rk).abs() as f64 > eps { continue; }
                let (early, late) = if lt <= rt { (lt, rt) } else { (rt, lt) };
                if late < early + window {
                    expect.insert((lseq, rseq));
                }
            }
        }
        for state in [StateImpl::List, StateImpl::Ordered] {
            let m = NodeMonitors::new(2);
            let mut join = SlidingWindowJoin::new(
                JoinPredicate::Within { left: 0, right: 0, eps },
                state,
                &schema(),
                &schema(),
                m,
            );
            let mut got = BTreeSet::new();
            let mut t = 0u64;
            let mut out = Vec::new();
            for (i, &(is_left, key, dt)) in arrivals.iter().enumerate() {
                t += dt;
                let e = Element::new(
                    tuple([Value::Int(key), Value::Int(i as i64)]),
                    Timestamp(t),
                )
                .with_window(TimeSpan(window));
                out.clear();
                join.process(if is_left { 0 } else { 1 }, &e, Timestamp(t), &mut out);
                for r in &out {
                    got.insert((
                        r.payload[1].as_int().unwrap() as u64,
                        r.payload[3].as_int().unwrap() as u64,
                    ));
                }
            }
            prop_assert_eq!(&got, &expect, "state {:?}", state);
        }
    }

    /// A windowed count aggregate equals the number of elements whose
    /// validity covers the current arrival, and its `state_bytes` gauge
    /// equals a recount of those elements after every arrival.
    #[test]
    fn window_count_matches_reference(
        gaps in proptest::collection::vec(0u64..20, 1..50),
        window in 1u64..50,
    ) {
        let monitors = NodeMonitors::new(1);
        monitors.state_bytes.activate();
        let mut agg = WindowAggregate::new(AggKind::Count, 0, monitors.clone());
        let mut seen: Vec<Element> = Vec::new();
        let mut t = 0u64;
        for (i, dt) in gaps.iter().enumerate() {
            t += dt;
            // Payloads of different sizes, so a miscounted element shows.
            let e = Element::new(
                tuple([Value::Int(i as i64), Value::str("x".repeat(i % 5))]),
                Timestamp(t),
            )
            .with_window(TimeSpan(window));
            seen.push(e.clone());
            let mut out = Vec::new();
            agg.process(0, &e, Timestamp(t), &mut out);
            let got = out[0].payload[0].as_float().unwrap();
            let valid = || seen.iter().filter(|e| e.is_valid_at(Timestamp(t)));
            prop_assert_eq!(got, valid().count() as f64, "at t={}", t);
            let recount: usize = valid().map(|e| e.size_bytes()).sum();
            prop_assert_eq!(monitors.state_bytes.value(), recount as f64, "at t={}", t);
        }
    }
}
