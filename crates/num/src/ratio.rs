//! Exact rational numbers over [`Int`].
//!
//! Invariants maintained by every constructor and operation:
//! * the denominator is strictly positive,
//! * numerator and denominator are coprime,
//! * zero is represented as `0/1`.
//!
//! When both parts of every operand fit 64 bits, `+ − × ÷` and `cmp`
//! run word-sized kernels: u128 cross-products, a u64 binary gcd and
//! u64 division. Wider operands, or a sum whose cross-products overflow
//! u128, take the general [`Int`] path. Both build their results
//! through [`Int`]'s canonical constructors, so a value has one
//! representation however it was computed and the derived `Eq`/`Hash`
//! stay sound.

use crate::int::ParseIntError;
use crate::int::{gcd_u64, Int};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number (always normalized).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: Int,
    den: Int,
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::zero()
    }
}

impl Ratio {
    /// The rational 0.
    pub fn zero() -> Self {
        Ratio { num: Int::zero(), den: Int::one() }
    }

    /// The rational 1.
    pub fn one() -> Self {
        Ratio { num: Int::one(), den: Int::one() }
    }

    /// Construct an already-normalized rational without running gcd.
    ///
    /// Callers must guarantee the invariants (positive denominator,
    /// coprime parts, zero as `0/1`); debug builds verify them.
    #[inline]
    fn raw(num: Int, den: Int) -> Self {
        debug_assert!(den.is_positive(), "Ratio::raw: non-positive denominator");
        debug_assert!(
            crate::gcd(&num, &den).is_one() || num.is_zero(),
            "Ratio::raw: non-coprime parts"
        );
        debug_assert!(!num.is_zero() || den.is_one(), "Ratio::raw: zero not 0/1");
        Ratio { num, den }
    }

    /// Construct `num/den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: Int, den: Int) -> Self {
        assert!(!den.is_zero(), "Ratio with zero denominator");
        if num.is_zero() {
            return Ratio::zero();
        }
        // Integer fast path: nothing to reduce when the denominator is 1.
        if den.is_one() {
            return Ratio::raw(num, den);
        }
        if let (Some((nn, n)), Some((dn, d))) = (num.word(), den.word()) {
            let g = gcd_u64(n, d);
            return Ratio::from_word_parts(nn != dn, (n / g) as u128, (d / g) as u128);
        }
        let g = crate::gcd(&num, &den);
        let mut num = &num / &g;
        let mut den = &den / &g;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Ratio { num, den }
    }

    /// An integer as a rational.
    pub fn from_int(v: Int) -> Self {
        Ratio { num: v, den: Int::one() }
    }

    /// An `i64` as a rational.
    pub fn from_i64(v: i64) -> Self {
        Ratio::from_int(Int::from(v))
    }

    /// `a/b` from machine integers.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    pub fn from_frac(a: i64, b: i64) -> Self {
        Ratio::new(Int::from(a), Int::from(b))
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &Int {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &Int {
        &self.den
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// True iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff the denominator is 1.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// True iff the value is exactly 1.
    pub fn is_one(&self) -> bool {
        self.num.is_one() && self.den.is_one()
    }

    /// Sign as -1/0/+1.
    pub fn signum(&self) -> i8 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        Ratio { num: self.num.abs(), den: self.den.clone() }
    }

    /// Largest integer `≤ self`.
    pub fn floor(&self) -> Int {
        self.num.div_floor(&self.den)
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(&self) -> Int {
        self.num.div_ceil_int(&self.den)
    }

    /// Fractional part `self - floor(self)` (in `[0, 1)`).
    pub fn fract(&self) -> Ratio {
        self - &Ratio::from_int(self.floor())
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "Ratio::recip of zero");
        // num and den are already coprime, so the reciprocal is a sign-
        // adjusted swap — no gcd needed.
        if self.num.is_negative() {
            Ratio::raw(-self.den.clone(), self.num.abs())
        } else {
            Ratio::raw(self.den.clone(), self.num.clone())
        }
    }

    /// Lossy conversion to `f64`.
    ///
    /// Operands too large for the finite `f64` range are each shifted
    /// down to ~600 significant bits (with [`Int::to_f64`] rounding the
    /// rest to nearest-even) and the *net* power of two is re-applied at
    /// the end, so huge numerators/denominators of very different sizes
    /// (as produced by long exact simplex runs) keep their true ratio
    /// instead of inheriting a shared-shift truncation. Values beyond
    /// the `f64` range saturate to ±inf / ±0.
    pub fn to_f64(&self) -> f64 {
        // Word-sized parts convert exactly as the `i128` route below
        // would (both round the same integer to nearest-even), and
        // round-to-nearest division is symmetric under negation.
        if let Some(w) = self.word() {
            let q = w.num as f64 / w.den as f64;
            return if w.neg { -q } else { q };
        }
        let nb = self.num.bits();
        let db = self.den.bits();
        if nb <= 1000 && db <= 1000 {
            // Both operands convert to finite doubles directly; one
            // correctly rounded division does the rest.
            return self.num.to_f64() / self.den.to_f64();
        }
        // Keep ~600 bits of each operand (any error is ~2^-600 relative,
        // far below f64 resolution) and track the scale separately.
        let ns = nb.saturating_sub(600);
        let ds = db.saturating_sub(600);
        let q = self.num.shr(ns as u32).to_f64() / self.den.shr(ds as u32).to_f64();
        scale_by_pow2(q, ns as i64 - ds as i64)
    }

    /// The smaller of two rationals (by value).
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals (by value).
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// `self^exp` for a (possibly negative) machine exponent.
    ///
    /// # Panics
    /// Panics on `0^negative`.
    pub fn pow(&self, exp: i32) -> Ratio {
        if exp >= 0 {
            Ratio { num: self.num.pow(exp as u32), den: self.den.pow(exp as u32) }
        } else {
            self.recip().pow(-exp)
        }
    }
}

/// `x · 2^e` with saturation: overflow lands on ±inf, underflow on
/// signed zero, and no intermediate `powi` is ever asked for an
/// exponent outside the finite range.
fn scale_by_pow2(x: f64, mut e: i64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    if e > 2100 {
        return if x > 0.0 { f64::INFINITY } else { f64::NEG_INFINITY };
    }
    if e < -2200 {
        return if x > 0.0 { 0.0 } else { -0.0 };
    }
    let mut x = x;
    while e != 0 {
        let step = e.clamp(-1000, 1000);
        x *= 2f64.powi(step as i32);
        e -= step;
        if x == 0.0 || !x.is_finite() {
            break;
        }
    }
    x
}

// --- arithmetic ---------------------------------------------------------------

/// A ratio whose numerator magnitude and denominator both fit a `u64`,
/// in sign-magnitude form: the operand of the word-sized kernels.
#[derive(Clone, Copy)]
struct Word {
    neg: bool,
    num: u64,
    den: u64,
}

/// `gcd(m, d)` for a wide `m` and a nonzero word `d`: one u128
/// remainder first when `m` does not fit a word (rare), then binary.
#[inline]
fn gcd_wide(m: u128, d: u64) -> u64 {
    match u64::try_from(m) {
        Ok(m) => gcd_u64(m, d),
        Err(_) => gcd_u64((m % d as u128) as u64, d),
    }
}

/// `m / d` for a wide `m` and a nonzero word `d`, dividing in u64
/// whenever `m` fits one.
#[inline]
fn div_wide(m: u128, d: u64) -> u128 {
    match u64::try_from(m) {
        _ if d == 1 => m,
        Ok(m) => (m / d) as u128,
        Err(_) => m / d as u128,
    }
}

/// Signed sum of two sign-magnitude values; `None` if the magnitude
/// overflows u128.
#[inline]
fn signed_sum(an: bool, a: u128, bn: bool, b: u128) -> Option<(bool, u128)> {
    if an == bn {
        a.checked_add(b).map(|m| (an, m))
    } else if a >= b {
        Some((an, a - b))
    } else {
        Some((bn, b - a))
    }
}

impl Ratio {
    /// The word-sized view, when both parts fit 64 bits.
    #[inline]
    fn word(&self) -> Option<Word> {
        let (neg, num) = self.num.word()?;
        let (_, den) = self.den.word()?;
        Some(Word { neg, num, den })
    }

    /// Build from coprime sign-magnitude parts (`den > 0`).
    #[inline]
    fn from_word_parts(neg: bool, num: u128, den: u128) -> Ratio {
        if num == 0 {
            return Ratio::zero();
        }
        Ratio::raw(Int::from_sign_u128(if neg { -1 } else { 1 }, num), Int::from_sign_u128(1, den))
    }

    /// Word-sized `x ± y` (`y.neg` already flipped for a difference),
    /// Knuth 4.5.1 like [`Ratio::add_big`]. `None` when a
    /// cross-product sum overflows u128.
    #[inline]
    fn add_word(x: Word, y: Word) -> Option<Ratio> {
        if x.den == y.den {
            let (neg, m) = signed_sum(x.neg, x.num as u128, y.neg, y.num as u128)?;
            if m == 0 || x.den == 1 {
                return Some(Ratio::from_word_parts(neg, m, 1));
            }
            let g = gcd_wide(m, x.den);
            return Some(Ratio::from_word_parts(neg, div_wide(m, g), (x.den / g) as u128));
        }
        let d1 = gcd_u64(x.den, y.den);
        let (db, dd) = (x.den / d1, y.den / d1);
        let (neg, t) =
            signed_sum(x.neg, x.num as u128 * dd as u128, y.neg, y.num as u128 * db as u128)?;
        if t == 0 || d1 == 1 {
            return Some(Ratio::from_word_parts(neg, t, x.den as u128 * y.den as u128));
        }
        let d2 = gcd_wide(t, d1);
        Some(Ratio::from_word_parts(neg, div_wide(t, d2), db as u128 * (y.den / d2) as u128))
    }

    /// Word-sized `x · y`: cross-cancel first, so the result is reduced
    /// and the u128 products cannot overflow.
    #[inline]
    fn mul_word(x: Word, y: Word) -> Ratio {
        if x.num == 0 || y.num == 0 {
            return Ratio::zero();
        }
        let g1 = gcd_u64(x.num, y.den);
        let g2 = gcd_u64(y.num, x.den);
        let num = (x.num / g1) as u128 * (y.num / g2) as u128;
        let den = (x.den / g2) as u128 * (y.den / g1) as u128;
        Ratio::from_word_parts(x.neg != y.neg, num, den)
    }

    /// Word-sized comparison: sign first, then exact u128
    /// cross-products.
    #[inline]
    fn cmp_word(x: Word, y: Word) -> Ordering {
        let sign = |w: Word| {
            if w.num == 0 {
                0
            } else if w.neg {
                -1
            } else {
                1
            }
        };
        let (sx, sy) = (sign(x), sign(y));
        if sx != sy || sx == 0 {
            return sx.cmp(&sy);
        }
        let ord = (x.num as u128 * y.den as u128).cmp(&(y.num as u128 * x.den as u128));
        if x.neg {
            ord.reverse()
        } else {
            ord
        }
    }

    /// Normalize `num / den` when `den` is a known-positive denominator
    /// shared by both addends, so a single gcd against the (usually
    /// word-sized) denominator suffices.
    #[inline]
    fn with_shared_den(num: Int, den: &Int) -> Ratio {
        if num.is_zero() {
            return Ratio::zero();
        }
        if den.is_one() {
            return Ratio::raw(num, Int::one());
        }
        let g = crate::gcd(&num, den);
        if g.is_one() {
            Ratio::raw(num, den.clone())
        } else {
            Ratio::raw(&num / &g, den / &g)
        }
    }

    /// Shared implementation of `+` / `-`: the word-sized kernel when
    /// both operands are word-sized and the sum fits, else
    /// [`Ratio::add_big`].
    fn add_impl(x: &Ratio, y: &Ratio, negate_y: bool) -> Ratio {
        if let (Some(a), Some(mut b)) = (x.word(), y.word()) {
            b.neg ^= negate_y && b.num != 0;
            if let Some(r) = Ratio::add_word(a, b) {
                return r;
            }
        }
        Ratio::add_big(x, y, negate_y)
    }

    /// `+` / `-` over [`Int`] (Knuth 4.5.1: for reduced inputs the
    /// result is reduced by construction, so no full gcd over the
    /// combined numerator is ever needed).
    fn add_big(x: &Ratio, y: &Ratio, negate_y: bool) -> Ratio {
        // Same denominator: combine numerators, reduce against den once.
        if x.den == y.den {
            let num = if negate_y { &x.num - &y.num } else { &x.num + &y.num };
            return Ratio::with_shared_den(num, &x.den);
        }
        let d1 = crate::gcd(&x.den, &y.den);
        if d1.is_one() {
            // Coprime denominators: (a·d ± c·b)/(b·d) is already in
            // lowest terms.
            let cross = &y.num * &x.den;
            let lhs = &x.num * &y.den;
            let num = if negate_y { &lhs - &cross } else { &lhs + &cross };
            if num.is_zero() {
                return Ratio::zero();
            }
            return Ratio::raw(num, &x.den * &y.den);
        }
        // General case: t = a·(d/d1) ± c·(b/d1); the only factor shared
        // with the denominator divides d1.
        let db = &x.den / &d1;
        let dd = &y.den / &d1;
        let cross = &y.num * &db;
        let lhs = &x.num * &dd;
        let t = if negate_y { &lhs - &cross } else { &lhs + &cross };
        if t.is_zero() {
            return Ratio::zero();
        }
        let d2 = crate::gcd(&t, &d1);
        if d2.is_one() {
            Ratio::raw(t, &x.den * &dd)
        } else {
            Ratio::raw(&t / &d2, &db * &(&y.den / &d2))
        }
    }

    /// `×` over [`Int`].
    fn mul_big(x: &Ratio, y: &Ratio) -> Ratio {
        if x.is_zero() || y.is_zero() {
            return Ratio::zero();
        }
        // Integer × integer: nothing to reduce.
        if x.den.is_one() && y.den.is_one() {
            return Ratio::raw(&x.num * &y.num, Int::one());
        }
        // Reduce cross factors first to keep intermediates small; for
        // reduced inputs the result is then reduced by construction and
        // the denominator stays positive.
        let g1 = crate::gcd(&x.num, &y.den);
        let g2 = crate::gcd(&y.num, &x.den);
        let num = &(&x.num / &g1) * &(&y.num / &g2);
        let den = &(&x.den / &g2) * &(&y.den / &g1);
        Ratio::raw(num, den)
    }

    /// Ordering over [`Int`].
    fn cmp_big(x: &Ratio, y: &Ratio) -> Ordering {
        // Shared denominator (including integer vs integer): compare
        // numerators directly, no multiplication.
        if x.den == y.den {
            return x.num.cmp(&y.num);
        }
        // Denominators positive: a/b vs c/d  ⇔  a·d vs c·b.
        match x.num.signum().cmp(&y.num.signum()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        (&x.num * &y.den).cmp(&(&y.num * &x.den))
    }
}

impl<'b> Add<&'b Ratio> for &Ratio {
    type Output = Ratio;
    fn add(self, rhs: &'b Ratio) -> Ratio {
        Ratio::add_impl(self, rhs, false)
    }
}

impl<'b> Sub<&'b Ratio> for &Ratio {
    type Output = Ratio;
    fn sub(self, rhs: &'b Ratio) -> Ratio {
        Ratio::add_impl(self, rhs, true)
    }
}

impl<'b> Mul<&'b Ratio> for &Ratio {
    type Output = Ratio;
    fn mul(self, rhs: &'b Ratio) -> Ratio {
        match (self.word(), rhs.word()) {
            (Some(a), Some(b)) => Ratio::mul_word(a, b),
            _ => Ratio::mul_big(self, rhs),
        }
    }
}

impl<'b> Div<&'b Ratio> for &Ratio {
    type Output = Ratio;
    fn div(self, rhs: &'b Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "Ratio division by zero");
        match (self.word(), rhs.word()) {
            // The reciprocal of a word is a word: the sign stays on the
            // numerator side, the parts swap.
            (Some(a), Some(b)) => Ratio::mul_word(a, Word { neg: b.neg, num: b.den, den: b.num }),
            _ => self * &rhs.recip(),
        }
    }
}

macro_rules! forward_ratio_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Ratio> for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: Ratio) -> Ratio {
                (&self).$method(&rhs)
            }
        }
        impl<'b> $trait<&'b Ratio> for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: &'b Ratio) -> Ratio {
                (&self).$method(rhs)
            }
        }
        impl $trait<Ratio> for &Ratio {
            type Output = Ratio;
            fn $method(self, rhs: Ratio) -> Ratio {
                self.$method(&rhs)
            }
        }
    };
}

forward_ratio_binop!(Add, add);
forward_ratio_binop!(Sub, sub);
forward_ratio_binop!(Mul, mul);
forward_ratio_binop!(Div, div);

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio { num: -self.num, den: self.den }
    }
}

impl Neg for &Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio { num: -self.num.clone(), den: self.den.clone() }
    }
}

impl AddAssign<&Ratio> for Ratio {
    fn add_assign(&mut self, rhs: &Ratio) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Ratio> for Ratio {
    fn sub_assign(&mut self, rhs: &Ratio) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Ratio> for Ratio {
    fn mul_assign(&mut self, rhs: &Ratio) {
        *self = &*self * rhs;
    }
}

impl DivAssign<&Ratio> for Ratio {
    fn div_assign(&mut self, rhs: &Ratio) {
        *self = &*self / rhs;
    }
}

impl std::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |a, b| a + b)
    }
}

impl<'a> std::iter::Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |a, b| &a + b)
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio::from_i64(v)
    }
}

impl From<Int> for Ratio {
    fn from(v: Int) -> Self {
        Ratio::from_int(v)
    }
}

// --- ordering -------------------------------------------------------------------

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.word(), other.word()) {
            (Some(a), Some(b)) => Ratio::cmp_word(a, b),
            _ => Ratio::cmp_big(self, other),
        }
    }
}

// --- formatting -------------------------------------------------------------------

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({self})")
    }
}

/// Error when parsing a [`Ratio`] from an `a` or `a/b` string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError(String);

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for ParseRatioError {}

impl From<ParseIntError> for ParseRatioError {
    fn from(e: ParseIntError) -> Self {
        ParseRatioError(e.0)
    }
}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => Ok(Ratio::from_int(s.parse::<Int>()?)),
            Some((n, d)) => {
                let num: Int = n.parse()?;
                let den: Int = d.parse()?;
                if den.is_zero() {
                    return Err(ParseRatioError(s.to_owned()));
                }
                Ok(Ratio::new(num, den))
            }
        }
    }
}

// --- serde ------------------------------------------------------------------------

#[cfg(feature = "serde")]
impl serde::Serialize for Ratio {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for Ratio {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

// --- tests ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(a: i64, b: i64) -> Ratio {
        Ratio::from_frac(a, b)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(2, -4).numer(), &Int::from(-1i64));
        assert_eq!(r(2, -4).denom(), &Int::from(2i64));
        assert_eq!(r(0, 7), Ratio::zero());
        assert_eq!(r(0, 7).denom(), &Int::one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(Int::one(), Int::zero());
    }

    #[test]
    fn arithmetic_small() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(r(9, 5).floor(), Int::from(1i64));
        assert_eq!(r(9, 5).ceil(), Int::from(2i64));
        assert_eq!(r(-9, 5).floor(), Int::from(-2i64));
        assert_eq!(r(-9, 5).ceil(), Int::from(-1i64));
        assert_eq!(r(10, 5).floor(), Int::from(2i64));
        assert_eq!(r(10, 5).ceil(), Int::from(2i64));
        assert_eq!(r(9, 5).fract(), r(4, 5));
        assert_eq!(r(-9, 5).fract(), r(1, 5));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(9, 5) < r(2, 1));
        assert!(r(9, 5) > r(17, 10));
        assert_eq!(r(3, 6).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(r(9, 5).to_string(), "9/5");
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!("9/5".parse::<Ratio>().unwrap(), r(9, 5));
        assert_eq!("-7".parse::<Ratio>().unwrap(), r(-7, 1));
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("a/b".parse::<Ratio>().is_err());
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        // Huge operands still produce a finite, accurate quotient.
        let big =
            Ratio::new(Int::from(10i64).pow(400), Int::from(10i64).pow(400) * Int::from(3i64));
        assert!((big.to_f64() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn to_f64_mismatched_operand_sizes() {
        // Operands of very different bit lengths: the old shared-shift
        // path zeroed the smaller one (treating 1/huge as 1/1). The net
        // scale must survive instead — saturating to ±inf / signed zero
        // where the true value leaves the f64 range.
        let huge = Int::from(10i64).pow(400); // ~1329 bits
        let tiny_over_huge = Ratio::new(Int::one(), huge.clone());
        assert_eq!(tiny_over_huge.to_f64(), 0.0, "1e-400 underflows to +0, not to 1.0");
        assert!(tiny_over_huge.to_f64().is_sign_positive());
        assert!((-tiny_over_huge).to_f64().is_sign_negative());
        let huge_over_tiny = Ratio::new(huge.clone(), Int::one());
        assert_eq!(huge_over_tiny.to_f64(), f64::INFINITY);
        assert_eq!((-huge_over_tiny).to_f64(), f64::NEG_INFINITY);
        // Ratios of two huge operands keep full f64 accuracy.
        let q = Ratio::new(&huge * &Int::from(7i64), &huge * &Int::from(9i64));
        assert!((q.to_f64() - 7.0 / 9.0).abs() < 1e-15);
        // A large-but-representable value with a small denominator: the
        // one shifted operand must come back on the right scale.
        let q = Ratio::new(Int::one().shl(1020), Int::from(3i64));
        let expect = 2f64.powi(510) / 3.0 * 2f64.powi(510);
        assert!((q.to_f64() - expect).abs() / expect < 1e-15);
    }

    #[test]
    fn pow_negative() {
        assert_eq!(r(2, 3).pow(2), r(4, 9));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(2, 3).pow(0), Ratio::one());
    }

    #[test]
    fn sum_iterator() {
        let vals = [r(1, 2), r(1, 3), r(1, 6)];
        let s: Ratio = vals.iter().sum();
        assert_eq!(s, Ratio::one());
    }

    /// `num/den` normalized over [`Int`] alone, bypassing the word
    /// kernel in [`Ratio::new`].
    fn new_big(num: Int, den: Int) -> Ratio {
        if num.is_zero() {
            return Ratio::zero();
        }
        let g = crate::gcd(&num, &den);
        let (mut num, mut den) = (&num / &g, &den / &g);
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Ratio { num, den }
    }

    /// `Ratio::to_f64` through the `Int` conversions alone.
    fn int_path_f64(v: &Ratio) -> f64 {
        v.numer().to_f64() / v.denom().to_f64()
    }

    fn hash_of(v: &Ratio) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Numerators biased to the word-kernel boundaries: i64's ends, the
    /// u64-range magnitudes beyond them, and their neighbours.
    fn edgy_num(raw: i128, sel: u8) -> Int {
        const EDGES: [i128; 10] = [
            0,
            1,
            -1,
            i64::MAX as i128,
            i64::MIN as i128,
            u64::MAX as i128,
            -(u64::MAX as i128),
            1 << 63,
            (1 << 32) + 1,
            (u64::MAX as i128) + 1,
        ];
        let v = match sel % 4 {
            0 => EDGES[raw.unsigned_abs() as usize % EDGES.len()],
            1 => {
                EDGES[raw.unsigned_abs() as usize % EDGES.len()].wrapping_add((sel % 5) as i128 - 2)
            }
            2 => raw % (1 << 20),
            _ => raw % (u64::MAX as i128 + 2),
        };
        Int::from(v)
    }

    /// Nonzero denominators across the u64 range, biased to its top;
    /// one in eight is negative, for `Ratio::new` to normalize.
    fn edgy_den(raw: u128, sel: u8) -> Int {
        const EDGES: [u128; 7] = [1, 2, 3, u64::MAX as u128, (1 << 63) - 1, 1 << 63, (1 << 63) + 1];
        let v = match sel % 4 {
            0 => EDGES[raw as usize % EDGES.len()],
            1 => EDGES[raw as usize % EDGES.len()] + (sel % 3) as u128,
            2 => 1 + raw % 1000,
            _ => 1 + raw % (u64::MAX as u128),
        };
        if sel >= 224 {
            -Int::from(v)
        } else {
            Int::from(v)
        }
    }

    #[test]
    fn word_kernels_at_the_edges() {
        let max = Ratio::from_int(Int::from(u64::MAX));
        // u64::MAX² overflows i128's positive range: a two-limb value.
        let sq = &max * &max;
        assert!(sq.numer().is_medium());
        assert_eq!(sq, Ratio::mul_big(&max, &max));
        // i64::MIN / u64::MAX and friends stay exact and reduced.
        let a = Ratio::new(Int::from(i64::MIN), Int::from(u64::MAX));
        let b = Ratio::new(Int::from(i64::MAX), Int::from(1u64 << 63));
        assert_eq!(&a + &b, Ratio::add_big(&a, &b, false));
        assert_eq!(&a - &b, Ratio::add_big(&a, &b, true));
        assert_eq!(a.cmp(&b), Ratio::cmp_big(&a, &b));
        // Same-sign magnitudes near 2^128 overflow the u128 sum and take
        // the Int path.
        let big = Ratio::new(Int::from(u64::MAX), Int::from(u64::MAX - 1));
        let other = Ratio::new(Int::from(u64::MAX - 2), Int::from(u64::MAX));
        assert_eq!(&big + &other, Ratio::add_big(&big, &other, false));
        assert_eq!(&(-&big) - &other, Ratio::add_big(&-&big, &other, true));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// The word-sized kernels against the [`Int`] path: equal
        /// values, equal representation (so equal hashes), and equal
        /// ordering, at i64's ends, u64-range parts, and sums or
        /// products that overflow i64 and i128.
        #[test]
        fn prop_word_kernels_match_the_int_path(
            (na, sa, da, ta) in (any::<i128>(), any::<u8>(), any::<u128>(), any::<u8>()),
            (nb, sb, db, tb) in (any::<i128>(), any::<u8>(), any::<u128>(), any::<u8>()),
        ) {
            let (xn, xd) = (edgy_num(na, sa), edgy_den(da, ta));
            let (yn, yd) = (edgy_num(nb, sb), edgy_den(db, tb));
            let x = Ratio::new(xn.clone(), xd.clone());
            let y = Ratio::new(yn.clone(), yd.clone());
            prop_assert_eq!(&x, &new_big(xn, xd));
            prop_assert_eq!(&y, &new_big(yn, yd));
            let pairs = [
                (&x + &y, Ratio::add_big(&x, &y, false)),
                (&x - &y, Ratio::add_big(&x, &y, true)),
                (&x * &y, Ratio::mul_big(&x, &y)),
            ];
            for (word, big) in pairs {
                prop_assert_eq!(&word, &big);
                prop_assert_eq!(hash_of(&word), hash_of(&big));
                prop_assert_eq!(word.numer().is_inline(), big.numer().is_inline());
                prop_assert!(word.denom().is_positive());
            }
            prop_assert_eq!(x.to_f64().to_bits(), int_path_f64(&x).to_bits());
            if !y.is_zero() {
                let q = &x / &y;
                let big = Ratio::mul_big(&x, &y.recip());
                prop_assert_eq!(&q, &big);
                prop_assert_eq!(hash_of(&q), hash_of(&big));
            }
            prop_assert_eq!(x.cmp(&y), Ratio::cmp_big(&x, &y));
            prop_assert_eq!(x.cmp(&x.clone()), Ordering::Equal);
            // A value computed two ways is one value.
            let back = &(&x + &y) - &y;
            prop_assert_eq!(&back, &x);
            prop_assert_eq!(hash_of(&back), hash_of(&x));
        }
    }

    proptest! {
        #[test]
        fn prop_field_axioms(
            (a, b) in (any::<i32>(), 1i32..1000),
            (c, d) in (any::<i32>(), 1i32..1000),
            (e, f) in (any::<i32>(), 1i32..1000),
        ) {
            let x = r(a as i64, b as i64);
            let y = r(c as i64, d as i64);
            let z = r(e as i64, f as i64);
            prop_assert_eq!(&x + &y, &y + &x);
            prop_assert_eq!(&(&x + &y) + &z, &x + &(&y + &z));
            prop_assert_eq!(&x * &y, &y * &x);
            prop_assert_eq!(&(&x * &y) * &z, &x * &(&y * &z));
            prop_assert_eq!(&x * &(&y + &z), &(&x * &y) + &(&x * &z));
            prop_assert_eq!(&(&x - &y) + &y, x);
        }

        #[test]
        fn prop_cmp_matches_f64(
            (a, b) in (-10_000i64..10_000, 1i64..10_000),
            (c, d) in (-10_000i64..10_000, 1i64..10_000),
        ) {
            let x = r(a, b);
            let y = r(c, d);
            let fx = a as f64 / b as f64;
            let fy = c as f64 / d as f64;
            if (fx - fy).abs() > 1e-9 {
                prop_assert_eq!(x < y, fx < fy);
            }
        }

        #[test]
        fn prop_floor_ceil_bracket((a, b) in (any::<i32>(), 1i32..1000)) {
            let x = r(a as i64, b as i64);
            let fl = Ratio::from_int(x.floor());
            let ce = Ratio::from_int(x.ceil());
            prop_assert!(fl <= x && x <= ce);
            prop_assert!(&ce - &fl <= Ratio::one());
        }

        #[test]
        fn prop_parse_roundtrip((a, b) in (any::<i64>(), 1i64..i64::MAX)) {
            let x = r(a, b);
            let back: Ratio = x.to_string().parse().unwrap();
            prop_assert_eq!(back, x);
        }

        #[test]
        fn prop_recip((a, b) in (1i64..100_000, 1i64..100_000)) {
            let x = r(a, b);
            prop_assert_eq!(&x * &x.recip(), Ratio::one());
        }
    }
}
