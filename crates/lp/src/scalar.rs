//! The scalar-field abstraction the simplex solver is generic over.

use atsched_num::{Int, Ratio};
use std::fmt::{Debug, Display};

/// Numeric operations the simplex method needs.
///
/// Implemented for [`Ratio`] (exact; `is_zero` means literally zero) and
/// for `f64` (approximate; `is_zero` uses an absolute tolerance of
/// `1e-9`). The absolute tolerance is sound because the solver
/// equilibrates every tableau row to unit magnitude first — see
/// [`Scalar::row_scale`] — so `1e-9` acts as a *relative* threshold no
/// matter how the input model is scaled.
pub trait Scalar: Clone + PartialOrd + Debug + Display + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Exact conversion from a machine integer.
    fn from_i64(v: i64) -> Self;
    /// Sum.
    fn add(&self, other: &Self) -> Self;
    /// Difference.
    fn sub(&self, other: &Self) -> Self;
    /// Product.
    fn mul(&self, other: &Self) -> Self;
    /// Quotient. Callers guarantee `other` is not (numerically) zero.
    fn div(&self, other: &Self) -> Self;
    /// Additive inverse.
    fn neg(&self) -> Self;
    /// Is this (numerically) zero?
    fn is_zero(&self) -> bool;
    /// Is this exactly zero, tolerance aside? Skipping a product with an
    /// exact zero changes a sum by at most the sign of a zero, which no
    /// comparison reads. Exact fields answer [`Scalar::is_zero`].
    fn is_exactly_zero(&self) -> bool {
        self.is_zero()
    }
    /// A hashable image of the value, equal exactly when the values are
    /// identical (presolve's duplicate-row key).
    type Key: Eq + std::hash::Hash;
    /// This value's [`Scalar::Key`].
    fn key(&self) -> Self::Key;
    /// Strictly below (numerical) zero?
    fn is_negative(&self) -> bool;
    /// Strictly above (numerical) zero?
    fn is_positive(&self) -> bool {
        !self.is_zero() && !self.is_negative()
    }
    /// `self /= d` in place — the kernel of pivot-row scaling. The
    /// default just reassigns; implementations can skip work (e.g. when
    /// `self` is zero or `d` is one).
    fn div_in_place(&mut self, d: &Self) {
        *self = self.div(d);
    }
    /// `self -= f·s` in place — the kernel of row elimination. Callers
    /// guarantee `f` is nonzero; implementations may skip when `s` is
    /// zero.
    fn sub_mul_in_place(&mut self, f: &Self, s: &Self) {
        if !s.is_zero() {
            *self = self.sub(&f.mul(s));
        }
    }
    /// Row-equilibration hook. Given the largest absolute value in a
    /// tableau row (or cost vector), return the factor the row should be
    /// multiplied by to bring its magnitude near 1, or `None` to leave
    /// the row untouched.
    ///
    /// Exact fields return `None` — their comparisons are scale-free.
    /// `f64` returns the power of two `2^{-⌊log₂ max⌋}`: multiplying by
    /// it is exact (no rounding), and it turns the absolute `F64_EPS`
    /// zero test into a relative, Harris-style tolerance, so models
    /// scaled by `1e12` or `1e-6` classify pivots identically to their
    /// unit-scale counterparts.
    fn row_scale(_max_abs: &Self) -> Option<Self> {
        None
    }
    /// Could an exact field classify the *sign* of this value
    /// differently? Exact fields answer `false` — they never disagree
    /// with themselves. `f64` answers `true` inside a small band around
    /// its `F64_EPS` thresholds: a value that is not bit-exact zero but
    /// sits within the band may have either true sign once rounding is
    /// undone. The hybrid pipeline treats any pivot decision made on a
    /// marginal value as "the exact simplex might have chosen
    /// differently" and falls back.
    fn sign_is_marginal(&self) -> bool {
        false
    }
    /// Could an exact field order `self` vs `other` the other way?
    /// Exact fields answer `false`; `f64` answers `true` when the two
    /// are closer than the tolerance band yet further apart than the
    /// noise floor (a sub-noise difference reads as an exact tie, which
    /// both fields break by the same index rule — see
    /// [`Scalar::decisively_lt`]).
    fn order_is_marginal(&self, _other: &Self) -> bool {
        false
    }
    /// "Strictly less" as a *pivot decision*: exact fields compare
    /// exactly; `f64` additionally demands the gap exceed the noise
    /// floor, so that cancellation noise around an exact tie does not
    /// preempt the index tie-break the exact field would use. (A raw
    /// `<` here was the one observable divergence between the float and
    /// exact pivot walks: a −1e-17 noise "win" steals a ratio-test tie
    /// from the lower-index row.)
    fn decisively_lt(&self, other: &Self) -> bool {
        self < other
    }
    /// Lossy conversion for reporting.
    fn to_f64(&self) -> f64;
    /// Largest integer `≤ self` (exact for [`Ratio`]; rounds for `f64`).
    fn floor_int(&self) -> i64;
    /// Smallest integer `≥ self`.
    fn ceil_int(&self) -> i64;
    /// A *total* order for selection/sorting: never panics, even on
    /// values `PartialOrd` cannot order (`f64` NaN from a degenerate
    /// unchecked solve). Incomparable pairs read as equal for exact
    /// fields; `f64` delegates to [`f64::total_cmp`], which orders NaN
    /// deterministically instead.
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl Scalar for Ratio {
    type Key = Ratio;

    fn key(&self) -> Ratio {
        self.clone()
    }

    fn zero() -> Self {
        Ratio::zero()
    }

    fn one() -> Self {
        Ratio::one()
    }

    fn from_i64(v: i64) -> Self {
        Ratio::from_i64(v)
    }

    fn add(&self, other: &Self) -> Self {
        self + other
    }

    fn sub(&self, other: &Self) -> Self {
        self - other
    }

    fn mul(&self, other: &Self) -> Self {
        self * other
    }

    fn div(&self, other: &Self) -> Self {
        self / other
    }

    fn neg(&self) -> Self {
        -self
    }

    fn is_zero(&self) -> bool {
        Ratio::is_zero(self)
    }

    fn is_negative(&self) -> bool {
        Ratio::is_negative(self)
    }

    fn div_in_place(&mut self, d: &Self) {
        // Exact arithmetic: dividing zero (most tableau entries) or by
        // one is the identity.
        if Ratio::is_zero(self) || d.is_one() {
            return;
        }
        *self = &*self / d;
    }

    fn sub_mul_in_place(&mut self, f: &Self, s: &Self) {
        if Ratio::is_zero(s) {
            return;
        }
        *self = &*self - &(f * s);
    }

    fn to_f64(&self) -> f64 {
        Ratio::to_f64(self)
    }

    fn floor_int(&self) -> i64 {
        self.floor().to_i64().expect("Ratio::floor fits i64")
    }

    fn ceil_int(&self) -> i64 {
        self.ceil().to_i64().expect("Ratio::ceil fits i64")
    }
}

/// Absolute tolerance under which an `f64` tableau entry is treated as 0.
pub(crate) const F64_EPS: f64 = 1e-9;

/// Noise floor for marginality tests. On the equilibrated (unit-scale)
/// tableau, accumulated f64 rounding error is far below this, while the
/// smallest *genuinely nonzero* rational arising from small-integer LP
/// data is far above it — so a magnitude below the floor is read as "an
/// exact zero plus rounding noise" (both fields classify it the same
/// way: zero, or a tie broken by index) rather than as an ambiguous
/// decision. Without the floor, every degenerate LP — where exact-zero
/// reduced costs and exactly tied ratios are the norm — would be flagged
/// tie-suspect by its own cancellation noise.
pub(crate) const F64_NOISE: f64 = 1e-13;

impl Scalar for f64 {
    /// The bit pattern, with every NaN merged into one: two values share
    /// a key exactly when they print alike (so `-0` and `0` differ).
    type Key = u64;

    fn key(&self) -> u64 {
        if self.is_nan() {
            f64::NAN.to_bits()
        } else {
            self.to_bits()
        }
    }

    fn zero() -> Self {
        0.0
    }

    fn one() -> Self {
        1.0
    }

    fn from_i64(v: i64) -> Self {
        v as f64
    }

    fn add(&self, other: &Self) -> Self {
        self + other
    }

    fn sub(&self, other: &Self) -> Self {
        self - other
    }

    fn mul(&self, other: &Self) -> Self {
        self * other
    }

    fn div(&self, other: &Self) -> Self {
        self / other
    }

    fn neg(&self) -> Self {
        -self
    }

    fn is_zero(&self) -> bool {
        self.abs() <= F64_EPS
    }

    fn is_exactly_zero(&self) -> bool {
        *self == 0.0
    }

    fn is_negative(&self) -> bool {
        *self < -F64_EPS
    }

    fn sign_is_marginal(&self) -> bool {
        // The sign thresholds sit at ±F64_EPS; a value within twice that
        // of zero could land on either side of them once rounding is
        // undone — unless it is below the noise floor, in which case it
        // reads as an exact zero that both fields classify identically.
        let a = self.abs();
        a > F64_NOISE && a <= 2.0 * F64_EPS
    }

    fn order_is_marginal(&self, other: &Self) -> bool {
        let d = (*self - *other).abs();
        d > F64_NOISE && d <= 2.0 * F64_EPS
    }

    fn decisively_lt(&self, other: &Self) -> bool {
        *self < *other && (*other - *self) > F64_NOISE
    }

    fn row_scale(max_abs: &Self) -> Option<Self> {
        let m = max_abs.abs();
        if !m.is_finite() || m == 0.0 {
            return None;
        }
        // Exponent e with m·2⁻ᵉ ∈ [1, 2). Clamped so the scale itself
        // stays a finite normal (subnormal row maxima would otherwise
        // ask for 2^1074).
        let e = (m.log2().floor() as i32).clamp(-1020, 1020);
        if e == 0 {
            return None;
        }
        Some(2f64.powi(-e))
    }

    // No zero-skipping in the float kernels: subtracting a below-
    // tolerance value must still happen, bit-for-bit, to match the
    // out-of-place formulation.
    fn div_in_place(&mut self, d: &Self) {
        *self /= d;
    }

    fn sub_mul_in_place(&mut self, f: &Self, s: &Self) {
        *self -= f * s;
    }

    fn to_f64(&self) -> f64 {
        *self
    }

    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        f64::total_cmp(self, other)
    }

    fn floor_int(&self) -> i64 {
        // Snap values that are within tolerance of an integer first, so
        // 2.9999999998 floors to 3 rather than 2.
        let snapped = self.round();
        if (self - snapped).abs() <= 1e-6 {
            snapped as i64
        } else {
            self.floor() as i64
        }
    }

    fn ceil_int(&self) -> i64 {
        let snapped = self.round();
        if (self - snapped).abs() <= 1e-6 {
            snapped as i64
        } else {
            self.ceil() as i64
        }
    }
}

/// Convert an exact [`Int`] into any scalar (used by LP builders that are
/// generic over the field).
pub fn scalar_from_int<S: Scalar>(v: &Int) -> S {
    match v.to_i64() {
        Some(x) => S::from_i64(x),
        None => {
            // Fall back through the decimal representation; only reachable
            // for enormous constants, which our builders never produce.
            let mut acc = S::zero();
            let ten = S::from_i64(10);
            let s = v.to_string();
            let (neg, digits) = match s.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, s.as_str()),
            };
            for b in digits.bytes() {
                acc = acc.mul(&ten).add(&S::from_i64((b - b'0') as i64));
            }
            if neg {
                acc.neg()
            } else {
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_scalar_roundtrip() {
        let a = <Ratio as Scalar>::from_i64(7);
        let b = <Ratio as Scalar>::from_i64(2);
        assert_eq!(a.div(&b), Ratio::from_frac(7, 2));
        assert_eq!(a.div(&b).floor_int(), 3);
        assert_eq!(a.div(&b).ceil_int(), 4);
        assert!(a.sub(&a).is_zero());
        assert!(b.sub(&a).is_negative());
        assert!(a.sub(&b).is_positive());
    }

    #[test]
    fn f64_scalar_tolerances() {
        assert!(Scalar::is_zero(&1e-12));
        assert!(!Scalar::is_zero(&1e-6));
        assert!(Scalar::is_negative(&-1e-6));
        assert!(!Scalar::is_negative(&-1e-12));
        assert_eq!(2.9999999998f64.floor_int(), 3);
        assert_eq!(2.5f64.floor_int(), 2);
        assert_eq!(2.0000000001f64.ceil_int(), 2);
        assert_eq!(2.5f64.ceil_int(), 3);
    }

    #[test]
    fn total_cmp_is_total_even_on_nan() {
        use std::cmp::Ordering;
        // f64 delegates to the IEEE total order: NaN sorts above +∞,
        // so a max-by over a NaN-bearing slice picks deterministically
        // instead of panicking on an unordered pair.
        assert_eq!(Scalar::total_cmp(&1.0f64, &2.0), Ordering::Less);
        assert_eq!(Scalar::total_cmp(&f64::NAN, &f64::INFINITY), Ordering::Greater);
        assert_eq!(Scalar::total_cmp(&f64::NAN, &f64::NAN), Ordering::Equal);
        // Exact fields use the default (partial order is already total).
        let a = <Ratio as Scalar>::from_i64(1);
        let b = <Ratio as Scalar>::from_i64(2);
        assert_eq!(Scalar::total_cmp(&a, &b), Ordering::Less);
        assert_eq!(Scalar::total_cmp(&b, &b), Ordering::Equal);
    }

    #[test]
    fn row_scale_is_an_exact_power_of_two_near_the_inverse() {
        // Exact field: never scales.
        assert_eq!(<Ratio as Scalar>::row_scale(&Ratio::from_i64(1_000_000)), None);
        // f64: 2^-⌊log2⌋, bringing the magnitude into [1, 2).
        for m in [1e12f64, 3e-7, 1234.5, 0.001, 2.0_f64.powi(900)] {
            let s = <f64 as Scalar>::row_scale(&m).unwrap();
            let scaled = m * s;
            assert!((1.0..2.0).contains(&scaled), "{m} scaled to {scaled}");
            // The scale is a power of two: multiplying is exact.
            assert_eq!(s.to_bits() & ((1u64 << 52) - 1), 0);
        }
        // Already unit-magnitude rows are left untouched.
        assert_eq!(<f64 as Scalar>::row_scale(&1.5), None);
        // Degenerate maxima never produce a scale.
        assert_eq!(<f64 as Scalar>::row_scale(&0.0), None);
        assert_eq!(<f64 as Scalar>::row_scale(&f64::INFINITY), None);
        // Subnormal maxima are clamped to a finite scale.
        let s = <f64 as Scalar>::row_scale(&f64::from_bits(1)).unwrap_or(1.0);
        assert!(s.is_finite());
    }

    #[test]
    fn scalar_from_int_small_and_big() {
        let small = Int::from(123i64);
        assert_eq!(scalar_from_int::<f64>(&small), 123.0_f64);
        let big: Int = "123456789012345678901234567890".parse().unwrap();
        let as_ratio: Ratio = scalar_from_int(&big);
        assert_eq!(as_ratio, Ratio::from_int(big.clone()));
        let as_f64: f64 = scalar_from_int(&big);
        assert!((as_f64 - 1.2345678901234568e29).abs() / 1e29 < 1e-9);
        let neg: Int = "-42".parse().unwrap();
        assert_eq!(scalar_from_int::<f64>(&neg), -42.0);
    }
}
