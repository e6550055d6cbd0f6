//! Property tests of the sliding-window join and aggregate: every state
//! implementation must produce exactly the results of a brute-force
//! reference model, and the aggregates must equal a fold over the valid
//! elements, for arbitrary inputs and windows resized mid-stream.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use streammeta_graph::ops::JoinKey;
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

/// The windows of `arrivals` with a mid-run shrink: arrivals before
/// `shrink_at` get 60 more units, as if a resource manager cut the window
/// from 61–100 to 1–40 there.
fn shrunk(arrivals: &[Arrival], shrink_at: usize) -> Vec<Arrival> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &(side, key, dt, window))| {
            (
                side,
                key,
                dt,
                if i < shrink_at { window + 60 } else { window },
            )
        })
        .collect()
}

/// Drives one side's state directly: before each insert, the purge must
/// remove exactly the stored elements the reference finds expired.
fn check_purges(arrivals: &[Arrival], state: StateImpl) {
    let mut live = state.build();
    let mut reference: Vec<Timestamp> = Vec::new();
    let mut t = 0u64;
    for (i, &(_, key, dt, window)) in arrivals.iter().enumerate() {
        t += dt;
        let now = Timestamp(t);
        let expired = reference.iter().filter(|&&expiry| expiry <= now).count();
        reference.retain(|&expiry| now < expiry);
        assert_eq!(live.purge_expired(now), expired, "{state:?} at t={t}");
        let e = Element::new(tuple([Value::Int(key), Value::Int(i as i64)]), now)
            .with_window(TimeSpan(window));
        reference.push(e.expiry);
        live.insert(JoinKey::Int(key), e);
        assert_eq!(live.len(), reference.len(), "{state:?} at t={t}");
    }
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
    /// reference, whatever order the stored elements expire in, with or
    /// without a mid-run window shrink (a purge that visits only the
    /// buckets its expiry index names must never keep an expired
    /// element), and every purge removes exactly the expired elements.
    #[test]
    fn join_matches_reference_model(
        arrivals in proptest::collection::vec(
            (prop::bool::ANY, 0i64..5, 0u64..15, 1u64..40), 1..60),
        shrink_at in 0usize..60,
    ) {
        let arrivals = shrunk(&arrivals, shrink_at);
        let expect = reference_join(&arrivals);
        for state in [StateImpl::List, StateImpl::Hash, StateImpl::Ordered] {
            let got = run_join(&arrivals, state);
            prop_assert_eq!(&got, &expect, "{:?} join differs from reference", state);
            check_purges(&arrivals, state);
        }
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

    /// Every windowed aggregate equals the fold over the elements whose
    /// validity covers the current arrival, and its `state_bytes` gauge
    /// equals a recount of those elements, after every arrival. Windows
    /// are per arrival, so expiries are not monotone, and are cut from
    /// `big` to at most 9 units at `shrink_at` — the resource manager's
    /// shrink, after which new elements expire before old ones.
    #[test]
    fn window_count_matches_reference(
        arrivals in proptest::collection::vec((0u64..6, -50i64..50, 1u64..10), 1..80),
        big in 50u64..150,
        shrink_at in 0usize..40,
    ) {
        let mut aggs: Vec<_> = AGG_KINDS
            .iter()
            .map(|&kind| {
                let monitors = NodeMonitors::new(1);
                monitors.state_bytes.activate();
                (kind, WindowAggregate::new(kind, 0, monitors.clone()), monitors)
            })
            .collect();
        let mut seen: Vec<Element> = Vec::new();
        let mut t = 0u64;
        for (i, &(dt, v, window)) in arrivals.iter().enumerate() {
            t += dt;
            let window = if i < shrink_at { big + window } else { window };
            // Every seventh value is NULL, and payloads differ in size, so
            // a miscounted element shows.
            let value = if v % 7 == 0 { Value::Null } else { Value::Int(v) };
            let e = Element::new(tuple([value, Value::str("x".repeat(i % 5))]), Timestamp(t))
                .with_window(TimeSpan(window));
            seen.push(e.clone());
            let valid: Vec<&Element> =
                seen.iter().filter(|e| e.is_valid_at(Timestamp(t))).collect();
            let recount: usize = valid.iter().map(|e| e.size_bytes()).sum();
            for (kind, agg, monitors) in &mut aggs {
                let got = aggregate(agg, &e);
                let want = fold(*kind, &valid);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} at t={}", kind, t);
                let bytes = monitors.state_bytes.value();
                prop_assert_eq!(bytes, recount as f64, "{:?} at t={}", kind, t);
            }
        }
    }

    /// SUM and AVG over integer-valued windows — signed zeros and
    /// magnitudes up to 2^40 included — are bit-identical to the
    /// left-to-right fold, which is exact there; MIN and MAX equal it too.
    #[test]
    fn integer_windows_equal_the_fold_bit_for_bit(
        arrivals in proptest::collection::vec(
            (0u64..4, 1u64..30, prop_oneof![
                (-(1i64 << 40)..(1i64 << 40)).prop_map(Value::Int),
                (-1000i64..1000).prop_map(|v| Value::Float(v as f64)),
                Just(Value::Float(-0.0)),
                Just(Value::Float(0.0)),
                Just(Value::Int(0)),
            ]),
            1..60),
    ) {
        let windows: Vec<_> = arrivals.iter().map(|(dt, w, v)| (*dt, *w, v.clone())).collect();
        check_against_fold(&windows, |a, b| a.to_bits() == b.to_bits());
    }

    /// Windows of multiples of 2^-20 — magnitudes from 2^-20 to 2^93,
    /// with values cancelling others — sum to their exact sum (an `i128`
    /// count of 2^-20 units) correctly rounded, whatever expired before;
    /// AVG is that sum over the count.
    #[test]
    fn float_windows_sum_to_the_rounded_exact_sum(
        arrivals in proptest::collection::vec(
            (0u64..4, 1u64..30, -(1i64 << 53)..(1i64 << 53), 0u32..60, prop::bool::ANY),
            1..40),
    ) {
        let unit = (-20f64).exp2();
        let mut sum = WindowAggregate::new(AggKind::Sum, 0, NodeMonitors::new(1));
        let mut avg = WindowAggregate::new(AggKind::Avg, 0, NodeMonitors::new(1));
        let mut seen: Vec<(Element, i128)> = Vec::new();
        let mut t = 0u64;
        for &(dt, window, m, shift, cancel) in &arrivals {
            t += dt;
            // A cancelling arrival takes back an earlier value, so what is
            // left is the smaller values beside it.
            let k = match seen.len() {
                n if cancel && n > 0 => -seen[m.unsigned_abs() as usize % n].1,
                _ => (m as i128) << shift,
            };
            prop_assert_eq!(k as f64 as i128, k, "k has at most 53 significant bits");
            let e = Element::new(tuple([Value::Float(k as f64 * unit)]), Timestamp(t))
                .with_window(TimeSpan(window));
            seen.push((e.clone(), k));
            let valid: Vec<i128> = seen
                .iter()
                .filter(|(e, _)| e.is_valid_at(Timestamp(t)))
                .map(|&(_, k)| k)
                .collect();
            let exact = valid.iter().sum::<i128>() as f64 * unit;
            let got = aggregate(&mut sum, &e);
            prop_assert_eq!(got, exact, "sum at t={}", t);
            let mean = aggregate(&mut avg, &e);
            prop_assert_eq!(mean, exact / valid.len() as f64, "avg at t={}", t);
        }
    }

    /// With NaN and infinities in the window, every aggregate gives what
    /// the fold gives, and recovers once they expired.
    #[test]
    fn nan_and_infinite_windows_give_the_folds_result(
        arrivals in proptest::collection::vec(
            (0u64..4, 1u64..20, prop_oneof![
                (-100i64..100).prop_map(Value::Int),
                (-100i64..100).prop_map(Value::Int),
                Just(Value::Float(f64::NAN)),
                Just(Value::Float(f64::INFINITY)),
                Just(Value::Float(f64::NEG_INFINITY)),
            ]),
            1..60),
    ) {
        let windows: Vec<_> = arrivals.iter().map(|(dt, w, v)| (*dt, *w, v.clone())).collect();
        check_against_fold(&windows, |a, b| {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        });
    }
}

const AGG_KINDS: [AggKind; 5] = [
    AggKind::Count,
    AggKind::Sum,
    AggKind::Avg,
    AggKind::Min,
    AggKind::Max,
];

/// Feeds `e` to `agg`; returns the value it emits.
fn aggregate(agg: &mut WindowAggregate, e: &Element) -> f64 {
    let mut out = Vec::new();
    agg.process(0, e, e.timestamp, &mut out);
    out[0].payload[0]
        .as_float()
        .expect("aggregates emit floats")
}

/// The aggregate by folding column 0 of the valid elements left to right:
/// the definition the incremental operator must reproduce. AVG ignores
/// non-numeric values.
fn fold(kind: AggKind, valid: &[&Element]) -> f64 {
    let vals = || valid.iter().filter_map(|e| e.payload[0].as_float());
    match kind {
        AggKind::Count => valid.len() as f64,
        AggKind::Sum => vals().sum(),
        AggKind::Avg => match vals().count() {
            0 => 0.0,
            n => vals().sum::<f64>() / n as f64,
        },
        AggKind::Min => vals().fold(f64::INFINITY, f64::min),
        AggKind::Max => vals().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Runs all five aggregates over `(gap, window, value)` arrivals and
/// compares each output with [`fold`] under `same`. MIN and MAX compare
/// with `==`, which does not order the signed zeros.
fn check_against_fold(arrivals: &[(u64, u64, Value)], same: impl Fn(f64, f64) -> bool) {
    let mut aggs: Vec<(AggKind, WindowAggregate)> = AGG_KINDS
        .iter()
        .map(|&kind| (kind, WindowAggregate::new(kind, 0, NodeMonitors::new(1))))
        .collect();
    let mut seen: Vec<Element> = Vec::new();
    let mut t = 0u64;
    for (dt, window, value) in arrivals {
        t += dt;
        let e = Element::new(tuple([value.clone()]), Timestamp(t)).with_window(TimeSpan(*window));
        seen.push(e.clone());
        let valid: Vec<&Element> = seen
            .iter()
            .filter(|e| e.is_valid_at(Timestamp(t)))
            .collect();
        for (kind, agg) in &mut aggs {
            let (got, want) = (aggregate(agg, &e), fold(*kind, &valid));
            let ok = match kind {
                AggKind::Min | AggKind::Max => got == want,
                _ => same(got, want),
            };
            assert!(ok, "{kind:?} at t={t}: {got} vs the fold's {want}");
        }
    }
}

/// The sum of a window without a numeric value is `Iterator::sum`'s −0.0.
#[test]
fn empty_sum_is_negative_zero() {
    let mut sum = WindowAggregate::new(AggKind::Sum, 0, NodeMonitors::new(1));
    let e = Element::new(tuple([Value::Null]), Timestamp(0)).with_window(TimeSpan(5));
    assert_eq!(aggregate(&mut sum, &e).to_bits(), (-0.0f64).to_bits());
}

/// The cost of an arrival does not grow with the window: every aggregate
/// kind over a 10 000-unit window takes at most 3x the time per element of
/// a 10-unit one (best of five, steady state, one arrival per unit).
#[test]
fn aggregate_cost_per_element_does_not_grow_with_the_window() {
    const ARRIVALS: u64 = 10_000;
    let per_element = |window: u64| -> Duration {
        let elements: Vec<Element> = (0..2 * ARRIVALS)
            .map(|t| {
                Element::new(tuple([Value::Int((t % 97) as i64)]), Timestamp(t))
                    .with_window(TimeSpan(window))
            })
            .collect();
        let (fill, measured) = elements.split_at(ARRIVALS as usize);
        (0..5)
            .map(|_| {
                let mut aggs: Vec<WindowAggregate> = AGG_KINDS
                    .iter()
                    .map(|&kind| WindowAggregate::new(kind, 0, NodeMonitors::new(1)))
                    .collect();
                let mut out = Vec::new();
                for e in fill {
                    for agg in &mut aggs {
                        agg.process(0, e, e.timestamp, &mut out);
                    }
                    out.clear();
                }
                let start = Instant::now();
                for e in measured {
                    for agg in &mut aggs {
                        agg.process(0, e, e.timestamp, &mut out);
                    }
                    out.clear();
                }
                start.elapsed() / ARRIVALS as u32
            })
            .min()
            .expect("five runs")
    };
    let (small, large) = (per_element(10), per_element(10_000));
    assert!(
        large <= small * 3,
        "window 10: {small:?} per element, window 10 000: {large:?}"
    );
}
