//! An exact running sum of `f64` values under insertion and removal.
//!
//! A windowed SUM or AVG that re-folds its window on every arrival costs
//! O(window); one that keeps a plain running total drifts, because
//! floating-point addition does not undo. [`ExactSum`] keeps the finite
//! values as Shewchuk's non-overlapping partials (the `fsum` algorithm),
//! whose sum is exact, so removing a value is adding its negation and
//! [`ExactSum::sum`] is the correctly rounded sum of the values present.
//! That equals the left-to-right fold (`Iterator::sum`) bit for bit
//! whenever the fold is exact — integer values with Σ|v| ≤ 2^53, say —
//! and is the better answer when it is not. NaN and infinities are
//! counted instead of added, so they leave the sum when they leave the
//! window.

/// 2^512: finite values at or above it in magnitude are kept apart,
/// scaled by [`UNSCALE`], so no list of partials can overflow.
const BIG: f64 = f64::from_bits((1023 + 512) << 52);
/// 2^-512, the inverse of [`BIG`].
const UNSCALE: f64 = f64::from_bits((1023 - 512) << 52);

/// The exact sum of a multiset of `f64` values.
#[derive(Default, Debug)]
pub(crate) struct ExactSum {
    /// Partials of the finite values below [`BIG`] in magnitude: non-zero,
    /// non-overlapping, increasing in magnitude; their sum is exact.
    low: Vec<f64>,
    /// The same for the finite values at or above [`BIG`], each times
    /// 2^-512 (exact: the scaled value is still a normal number).
    high: Vec<f64>,
    /// Values present that [`Self::insert`] was given, of every kind.
    count: usize,
    nan: usize,
    pos_inf: usize,
    neg_inf: usize,
    /// Finite values other than −0.0: a zero sum is −0.0 only without
    /// one, as the fold from −0.0 gives.
    not_neg_zero: usize,
}

impl ExactSum {
    /// Adds `v` to the multiset.
    pub(crate) fn insert(&mut self, v: f64) {
        self.update(v, true);
    }

    /// Removes `v`, which must have been inserted and not yet removed.
    pub(crate) fn remove(&mut self, v: f64) {
        self.update(v, false);
    }

    fn update(&mut self, v: f64, insert: bool) {
        let step = |n: &mut usize| {
            if insert {
                *n += 1
            } else {
                *n -= 1
            }
        };
        step(&mut self.count);
        if v.is_nan() {
            step(&mut self.nan);
        } else if v == f64::INFINITY {
            step(&mut self.pos_inf);
        } else if v == f64::NEG_INFINITY {
            step(&mut self.neg_inf);
        } else {
            if v.to_bits() != (-0.0f64).to_bits() {
                step(&mut self.not_neg_zero);
            }
            let signed = if insert { v } else { -v };
            if v.abs() < BIG {
                add(&mut self.low, signed);
            } else {
                add(&mut self.high, signed * UNSCALE);
            }
        }
    }

    /// How many values are present.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The sum of the values present, correctly rounded: NaN if one is NaN
    /// or both infinities are present, else an infinity if one is present,
    /// else the finite values' exact sum rounded to nearest (±inf when it
    /// is beyond the `f64` range). The empty sum is −0.0, as for
    /// `Iterator::sum`.
    pub(crate) fn sum(&self) -> f64 {
        if self.nan > 0 || (self.pos_inf > 0 && self.neg_inf > 0) {
            return f64::NAN;
        }
        if self.pos_inf > 0 {
            return f64::INFINITY;
        }
        if self.neg_inf > 0 {
            return f64::NEG_INFINITY;
        }
        let total = if self.high.is_empty() {
            round(&self.low)
        } else {
            let mut all = self.low.clone();
            for &p in &self.high {
                add(&mut all, p * BIG);
            }
            let total = round(&all);
            // A scaled-up partial overflows only when the sum is at the
            // edge of the range or beyond it.
            if total.is_finite() {
                total
            } else {
                f64::INFINITY.copysign(round(&self.high))
            }
        };
        if total != 0.0 {
            total
        } else if self.not_neg_zero == 0 {
            -0.0
        } else {
            0.0
        }
    }
}

/// Adds `x` to non-overlapping `partials` exactly (Shewchuk's grow step:
/// each two-sum keeps its rounding error as a smaller partial).
fn add(partials: &mut Vec<f64>, mut x: f64) {
    let mut kept = 0;
    for j in 0..partials.len() {
        let mut y = partials[j];
        if x.abs() < y.abs() {
            std::mem::swap(&mut x, &mut y);
        }
        let hi = x + y;
        let lo = y - (hi - x);
        if lo != 0.0 {
            partials[kept] = lo;
            kept += 1;
        }
        x = hi;
    }
    partials.truncate(kept);
    if x != 0.0 {
        partials.push(x);
    }
}

/// The correctly rounded sum of non-overlapping partials in increasing
/// magnitude (the final step of `fsum`, half-even correction included).
fn round(partials: &[f64]) -> f64 {
    let mut n = partials.len();
    let Some(&top) = partials.last() else {
        return 0.0;
    };
    n -= 1;
    let (mut hi, mut lo) = (top, 0.0);
    while n > 0 {
        let x = hi;
        n -= 1;
        let y = partials[n];
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    // `hi + lo` is exact; if the partials below push `lo` past the halfway
    // point, round `hi` away from it.
    if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(values: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        for &v in values {
            s.insert(v);
        }
        s.sum()
    }

    #[test]
    fn sums_exactly_where_the_fold_rounds() {
        assert_eq!(sum_of(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum_of(&[0.1, 0.2, 0.3]), 0.6);
        // The fold rounds each 2^-53 away; the exact sum keeps them.
        let half_ulp = f64::EPSILON / 2.0;
        assert_eq!(sum_of(&[1.0, half_ulp, half_ulp]), 1.0 + f64::EPSILON);
        // Just above a tie rounds up, just at one to even.
        assert_eq!(sum_of(&[1.0, half_ulp, 1e-30]), 1.0 + f64::EPSILON);
        assert_eq!(sum_of(&[1.0, half_ulp]), 1.0);
    }

    #[test]
    fn removal_undoes_insertion_exactly() {
        let mut s = ExactSum::default();
        for v in [0.1, 1e300, -3.5, 1e-300, f64::MAX, 7.0] {
            s.insert(v);
        }
        for v in [1e300, 0.1, f64::MAX, 1e-300] {
            s.remove(v);
        }
        assert_eq!(s.sum(), 3.5);
        assert_eq!(s.count(), 2);
        s.remove(-3.5);
        s.remove(7.0);
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum().to_bits(), (-0.0f64).to_bits(), "empty again");
    }

    #[test]
    fn sums_beyond_the_range_overflow_and_recover() {
        let mut s = ExactSum::default();
        s.insert(f64::MAX);
        s.insert(f64::MAX);
        assert_eq!(s.sum(), f64::INFINITY);
        s.insert(-f64::MAX);
        assert_eq!(s.sum(), f64::MAX, "the exact sum is back in range");
        s.remove(f64::MAX);
        s.remove(f64::MAX);
        assert_eq!(s.sum(), -f64::MAX);
        s.insert(-f64::MAX);
        assert_eq!(s.sum(), f64::NEG_INFINITY);
    }

    #[test]
    fn signed_zeros_match_the_fold() {
        assert_eq!(sum_of(&[]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum_of(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum_of(&[-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[3.0, -3.0]).to_bits(), 0.0f64.to_bits());
    }
}
