//! Signed integers with a small-word fast path.
//!
//! Representation is a three-variant enum:
//!
//! * `Small(i128)` — any value that fits a signed 128-bit machine word
//!   lives inline. Add/sub/mul/div/cmp/hash on small values never touch
//!   the heap; overflow is detected with checked arithmetic and promotes
//!   to the fixed-width representation.
//! * `Medium { sign, len, mag: [u64; 4] }` — sign/magnitude with up to
//!   four little-endian limbs held *on the stack*. Most promotions out
//!   of `Small` during exact simplex pivots land on 2–4 limbs, so this
//!   tier keeps the common overflow path heap-free (modelled on
//!   ark-ff's fixed-width `BigInteger` limb types).
//! * `Big { sign, mag }` — `sign ∈ {-1, +1}` plus a little-endian vector
//!   of `u64` limbs with no trailing (most-significant) zero limbs,
//!   exactly the classic sign-magnitude bignum.
//!
//! **Canonical-form invariant:** a value is `Small` *iff* it fits
//! `i128`; otherwise it is `Medium` *iff* its trimmed magnitude has at
//! most four limbs; only ≥ 5-limb magnitudes are `Big`. `Medium`
//! padding limbs above `len` are always zero. Every constructor and
//! operation demotes results that shrank, so equal values always share
//! one representation and the derived `Eq`/`Hash` stay consistent
//! (cache keys built on `Int` survive arbitrary op sequences).
//!
//! The big backend keeps the two optimizations that matter for the exact
//! simplex workload: Karatsuba multiplication above a limb threshold and
//! Knuth Algorithm D long division (both validated against `u128` ground
//! truth and property tests). In the scheduling LPs virtually every
//! tableau entry stays word-sized, so the big path is the rare slow lane,
//! not the common case.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Limbs at or above this length use Karatsuba multiplication.
const KARATSUBA_THRESHOLD: usize = 32;

/// Magnitude of `i128::MIN`, the one value whose absolute value does not
/// itself fit `i128`.
const I128_MIN_MAG: u128 = 1u128 << 127;

/// The internal representation. `Small` holds every value in the `i128`
/// range; `Medium` holds 2–4-limb magnitudes on the stack; `Big` holds
/// everything else (see the module docs for the canonical-form
/// invariant that makes derived `Eq`/`Hash` sound).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i128),
    Medium {
        /// -1 or +1 (zero is always `Small(0)`).
        sign: i8,
        /// Number of significant limbs (2..=4); limbs above are zero so
        /// the derived `Eq`/`Hash` see one bit pattern per value.
        len: u8,
        /// Little-endian magnitude, zero-padded above `len`.
        mag: [u64; 4],
    },
    Big {
        /// -1 or +1 (zero is always `Small(0)`).
        sign: i8,
        /// Little-endian magnitude; no high zero limbs; always at least
        /// five limbs (shorter magnitudes demote to `Medium`/`Small`).
        mag: Vec<u64>,
    },
}

/// Limb capacity of the stack-allocated `Medium` tier.
const MEDIUM_LIMBS: usize = 4;

/// An arbitrary-precision signed integer with an inline word-sized fast
/// path.
///
/// See the [crate docs](crate) for why this exists. All arithmetic is
/// exact; operations never overflow (they promote to a heap
/// representation instead).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int(Repr);

impl Default for Int {
    fn default() -> Self {
        Int::zero()
    }
}

/// Stack-allocated limb view of a word-sized magnitude (so mixed
/// small/big operations can reuse the limb algorithms without
/// allocating).
struct SmallLimbs {
    buf: [u64; 2],
    len: usize,
}

impl SmallLimbs {
    #[inline]
    fn of(m: u128) -> SmallLimbs {
        let lo = m as u64;
        let hi = (m >> 64) as u64;
        let len = if hi != 0 {
            2
        } else if lo != 0 {
            1
        } else {
            0
        };
        SmallLimbs { buf: [lo, hi], len }
    }

    #[inline]
    fn as_slice(&self) -> &[u64] {
        &self.buf[..self.len]
    }
}

#[inline]
fn sign_of_i128(v: i128) -> i8 {
    (v > 0) as i8 - (v < 0) as i8
}

impl Int {
    /// The integer 0.
    pub fn zero() -> Self {
        Int(Repr::Small(0))
    }

    /// The integer 1.
    pub fn one() -> Self {
        Int(Repr::Small(1))
    }

    #[inline]
    fn small(v: i128) -> Self {
        Int(Repr::Small(v))
    }

    /// The inline value, when this is word-sized.
    #[inline]
    fn as_small(&self) -> Option<i128> {
        match self.0 {
            Repr::Small(v) => Some(v),
            _ => None,
        }
    }

    /// True when the value is held in the inline machine-word
    /// representation (exposed so representation-boundary tests can
    /// assert promotion and demotion; not meaningful for callers
    /// otherwise — the representations are behaviorally identical).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Small(_))
    }

    /// True when the value is held in the fixed-width stack-allocated
    /// tier (2–4 limbs beyond the `i128` range). Like
    /// [`Int::is_inline`], only meaningful for representation tests.
    pub fn is_medium(&self) -> bool {
        matches!(self.0, Repr::Medium { .. })
    }

    /// Construct from a sign and a trimmed limb slice, picking the
    /// canonical tier for the magnitude's length.
    fn from_sign_limbs(sign: i8, limbs: &[u64]) -> Self {
        match limbs.len() {
            0 => Int::zero(),
            1 | 2 => {
                let m = (limbs[0] as u128) | ((*limbs.get(1).unwrap_or(&0) as u128) << 64);
                Int::from_sign_u128(sign, m)
            }
            3 | 4 => {
                debug_assert!(sign == 1 || sign == -1);
                let mut mag = [0u64; MEDIUM_LIMBS];
                mag[..limbs.len()].copy_from_slice(limbs);
                Int(Repr::Medium { sign, len: limbs.len() as u8, mag })
            }
            _ => {
                debug_assert!(sign == 1 || sign == -1);
                Int(Repr::Big { sign, mag: limbs.to_vec() })
            }
        }
    }

    /// Construct from a raw sign and magnitude, normalizing (trims high
    /// zero limbs, demotes to the stack tiers whenever the magnitude
    /// fits them).
    fn from_sign_mag(sign: i8, mut mag: Vec<u64>) -> Self {
        trim(&mut mag);
        if mag.len() > MEDIUM_LIMBS {
            debug_assert!(sign == 1 || sign == -1);
            return Int(Repr::Big { sign, mag });
        }
        Int::from_sign_limbs(sign, &mag)
    }

    /// Construct from a sign and a `u128` magnitude, demoting to the
    /// inline representation whenever the signed value fits `i128`.
    #[inline]
    pub(crate) fn from_sign_u128(sign: i8, m: u128) -> Self {
        if m == 0 {
            return Int::zero();
        }
        debug_assert!(sign == 1 || sign == -1);
        if sign > 0 {
            if m <= i128::MAX as u128 {
                return Int::small(m as i128);
            }
        } else if m <= I128_MIN_MAG {
            // `m as i128` wraps 2^127 to i128::MIN, whose negation is
            // itself — exactly the value we want.
            return Int::small((m as i128).wrapping_neg());
        }
        // Past the i128 range with a u128 magnitude: always two limbs.
        Int(Repr::Medium { sign, len: 2, mag: [m as u64, (m >> 64) as u64, 0, 0] })
    }

    /// Run `f` over the sign-magnitude view of this value, materializing
    /// small magnitudes on the stack.
    #[inline]
    fn with_view<R>(&self, f: impl FnOnce(i8, &[u64]) -> R) -> R {
        match &self.0 {
            Repr::Small(v) => {
                let limbs = SmallLimbs::of(v.unsigned_abs());
                f(sign_of_i128(*v), limbs.as_slice())
            }
            Repr::Medium { sign, len, mag } => f(*sign, &mag[..*len as usize]),
            Repr::Big { sign, mag } => f(*sign, mag),
        }
    }

    /// Sign and magnitude when the magnitude fits a `u64` — the
    /// operand shape of `Ratio`'s word-sized kernels (`true` = negative).
    #[inline]
    pub(crate) fn word(&self) -> Option<(bool, u64)> {
        match self.0 {
            Repr::Small(v) => u64::try_from(v.unsigned_abs()).ok().map(|m| (v < 0, m)),
            _ => None,
        }
    }

    /// True iff this is 0.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// True iff this is 1.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// True iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// The sign as -1 / 0 / +1.
    pub fn signum(&self) -> i8 {
        match &self.0 {
            Repr::Small(v) => sign_of_i128(*v),
            Repr::Medium { sign, .. } => *sign,
            Repr::Big { sign, .. } => *sign,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        match &self.0 {
            Repr::Small(v) => {
                if *v == 0 {
                    Int::zero()
                } else {
                    Int::from_sign_u128(1, v.unsigned_abs())
                }
            }
            Repr::Medium { len, mag, .. } => Int(Repr::Medium { sign: 1, len: *len, mag: *mag }),
            Repr::Big { mag, .. } => Int(Repr::Big { sign: 1, mag: mag.clone() }),
        }
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match &self.0 {
            Repr::Small(v) => (128 - v.unsigned_abs().leading_zeros()) as u64,
            Repr::Medium { len, mag, .. } => {
                let l = *len as usize;
                (l as u64) * 64 - mag[l - 1].leading_zeros() as u64
            }
            Repr::Big { mag, .. } => match mag.last() {
                None => 0,
                Some(&hi) => (mag.len() as u64) * 64 - hi.leading_zeros() as u64,
            },
        }
    }

    /// True iff the magnitude is even.
    pub fn is_even(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => v & 1 == 0,
            Repr::Medium { mag, .. } => mag[0] & 1 == 0,
            Repr::Big { mag, .. } => mag[0] & 1 == 0,
        }
    }

    /// Quotient and remainder of truncated division (`q` rounds toward
    /// zero; `r` has the sign of `self`, with `self == q*rhs + r` and
    /// `|r| < |rhs|`).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &Int) -> (Int, Int) {
        assert!(!rhs.is_zero(), "Int division by zero");
        if let (Some(a), Some(b)) = (self.as_small(), rhs.as_small()) {
            // The single overflowing case is i128::MIN / -1 = 2^127.
            return match a.checked_div(b) {
                Some(q) => (Int::small(q), Int::small(a % b)),
                None => (Int::from_sign_u128(1, I128_MIN_MAG), Int::zero()),
            };
        }
        if self.is_zero() {
            return (Int::zero(), Int::zero());
        }
        self.with_view(|sa, ma| {
            rhs.with_view(|sb, mb| {
                let (q_mag, r_mag) = mag_div_rem(ma, mb);
                (Int::from_sign_mag(sa * sb, q_mag), Int::from_sign_mag(sa, r_mag))
            })
        })
    }

    /// Euclidean division: quotient rounded toward negative infinity.
    pub fn div_floor(&self, rhs: &Int) -> Int {
        let (q, r) = self.div_rem(rhs);
        if !r.is_zero() && (r.signum() * rhs.signum()) < 0 {
            q - Int::one()
        } else {
            q
        }
    }

    /// Ceiling division: quotient rounded toward positive infinity.
    pub fn div_ceil_int(&self, rhs: &Int) -> Int {
        let (q, r) = self.div_rem(rhs);
        if !r.is_zero() && (r.signum() * rhs.signum()) > 0 {
            q + Int::one()
        } else {
            q
        }
    }

    /// `self^exp` by binary exponentiation. `0^0 == 1`.
    pub fn pow(&self, exp: u32) -> Int {
        let mut base = self.clone();
        let mut exp = exp;
        let mut acc = Int::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Shift left by `n` bits (multiply by 2^n).
    pub fn shl(&self, n: u32) -> Int {
        match &self.0 {
            Repr::Small(0) => Int::zero(),
            Repr::Small(v) => {
                let m = v.unsigned_abs();
                if n <= m.leading_zeros() {
                    // The shifted magnitude still fits u128.
                    Int::from_sign_u128(sign_of_i128(*v), m << n)
                } else {
                    let limbs = SmallLimbs::of(m);
                    Int::from_sign_mag(sign_of_i128(*v), mag_shl(limbs.as_slice(), n as usize))
                }
            }
            _ => self.with_view(|sign, mag| Int::from_sign_mag(sign, mag_shl(mag, n as usize))),
        }
    }

    /// Shift the magnitude right by `n` bits, truncating toward zero.
    pub fn shr(&self, n: u32) -> Int {
        match &self.0 {
            Repr::Small(v) => {
                if n >= 128 {
                    return Int::zero();
                }
                Int::from_sign_u128(
                    if sign_of_i128(*v) == 0 { 1 } else { sign_of_i128(*v) },
                    v.unsigned_abs() >> n,
                )
            }
            _ => self.with_view(|sign, mag| Int::from_sign_mag(sign, mag_shr(mag, n as usize))),
        }
    }

    /// Lossy conversion to `f64`, correctly rounded to nearest-even;
    /// values beyond the finite `f64` range saturate to ±inf.
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            // `i128 as f64` rounds to nearest-even per the Rust spec.
            Repr::Small(v) => *v as f64,
            _ => self.with_view(|sign, mag| {
                let v = mag_to_f64(mag);
                if sign < 0 {
                    -v
                } else {
                    v
                }
            }),
        }
    }

    /// Checked conversion to `i64`.
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Checked conversion to `i128`.
    pub fn to_i128(&self) -> Option<i128> {
        self.as_small()
    }

    /// Checked conversion to `u64` (fails for negatives).
    pub fn to_u64(&self) -> Option<u64> {
        match self.0 {
            Repr::Small(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Compare magnitudes only (ignoring sign).
    pub fn cmp_abs(&self, other: &Int) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            return a.unsigned_abs().cmp(&b.unsigned_abs());
        }
        // Mixed tiers can carry equal magnitudes at the 2^127 boundary
        // (`Small(i128::MIN)` vs a positive two-limb value), so compare
        // limbs rather than trusting tier rank.
        self.with_view(|_, ma| other.with_view(|_, mb| mag_cmp(ma, mb)))
    }
}

/// Correctly rounded (nearest-even) conversion of a little-endian limb
/// magnitude to `f64`, saturating to `f64::INFINITY` past the finite
/// range.
fn mag_to_f64(mag: &[u64]) -> f64 {
    let bits = match mag.last() {
        None => return 0.0,
        Some(&hi) => mag.len() as u64 * 64 - hi.leading_zeros() as u64,
    };
    if bits <= 64 {
        // `u64 as f64` rounds to nearest-even per the Rust spec.
        return mag[0] as f64;
    }
    if bits > 1024 {
        return f64::INFINITY;
    }
    // Pull the top 54 bits (53-bit mantissa + round bit) into one word
    // and fold everything below the window into a sticky bit.
    let shift = (bits - 54) as usize;
    let limb = shift / 64;
    let off = shift % 64;
    let mut top = mag[limb] >> off;
    if off != 0 {
        if let Some(&next) = mag.get(limb + 1) {
            top |= next << (64 - off);
        }
    }
    debug_assert_eq!(top >> 53, 1, "window must be led by the magnitude's msb");
    let mut sticky = mag[..limb].iter().any(|&l| l != 0);
    if off != 0 {
        sticky |= mag[limb] & ((1u64 << off) - 1) != 0;
    }
    let round = top & 1 == 1;
    let mut mant = top >> 1;
    if round && (sticky || mant & 1 == 1) {
        // Rounding 2^53 - 1 up makes 2^53: still exact in f64, and the
        // scaling below carries it into the next binade (or to +inf at
        // the very top — exactly IEEE overflow behavior).
        mant += 1;
    }
    // `shift + 1 <= 971`, so the power itself never overflows; the
    // product is exact or overflows to +inf (mant is a ≤ 54-bit
    // integer and the scale is a power of two).
    (mant as f64) * 2f64.powi(shift as i32 + 1)
}

// --- conversions -----------------------------------------------------------

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        Int::small(v as i128)
    }
}

impl From<u64> for Int {
    fn from(v: u64) -> Self {
        Int::small(v as i128)
    }
}

impl From<i32> for Int {
    fn from(v: i32) -> Self {
        Int::small(v as i128)
    }
}

impl From<usize> for Int {
    fn from(v: usize) -> Self {
        Int::small(v as i128)
    }
}

impl From<i128> for Int {
    fn from(v: i128) -> Self {
        Int::small(v)
    }
}

impl From<u128> for Int {
    fn from(v: u128) -> Self {
        if v == 0 {
            Int::zero()
        } else {
            Int::from_sign_u128(1, v)
        }
    }
}

/// Error when parsing an [`Int`] from a decimal string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntError(pub(crate) String);

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big-integer literal: {}", self.0)
    }
}

impl std::error::Error for ParseIntError {}

impl FromStr for Int {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Word-sized fast path: `i128::from_str` accepts exactly the
        // grammar below (optional sign, then digits) and fails on
        // overflow, in which case we fall through to the chunked path.
        if let Ok(v) = s.parse::<i128>() {
            return Ok(Int::small(v));
        }
        let (sign, digits) = match s.as_bytes().first() {
            Some(b'-') => (-1i8, &s[1..]),
            Some(b'+') => (1, &s[1..]),
            _ => (1, s),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseIntError(s.to_owned()));
        }
        // Consume 19 decimal digits (one u64-sized chunk) per step.
        let mut acc = Int::zero();
        let chunk_base = Int::from(10_000_000_000_000_000_000u64); // 10^19
        let bytes = digits.as_bytes();
        let mut idx = 0;
        let first_len = {
            let rem = bytes.len() % 19;
            if rem == 0 {
                19.min(bytes.len())
            } else {
                rem
            }
        };
        while idx < bytes.len() {
            let len = if idx == 0 { first_len } else { 19 };
            let chunk = &digits[idx..idx + len];
            let val: u64 = chunk.parse().expect("ascii digits");
            if idx == 0 {
                acc = Int::from(val);
            } else {
                acc = &(&acc * &chunk_base) + &Int::from(val);
            }
            idx += len;
        }
        if sign < 0 {
            acc = -acc;
        }
        Ok(acc)
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_small() {
            return f.pad_integral(v >= 0, "", &v.unsigned_abs().to_string());
        }
        self.with_view(|sign, mag| {
            // Repeatedly divide by 10^19, collecting low-order chunks.
            let mut chunks: Vec<u64> = Vec::new();
            let mut mag = mag.to_vec();
            while !mag.is_empty() {
                let rem = mag_div_single_in_place(&mut mag, 10_000_000_000_000_000_000u64);
                trim(&mut mag);
                chunks.push(rem);
            }
            let mut s = String::with_capacity(chunks.len() * 19);
            for (i, chunk) in chunks.iter().rev().enumerate() {
                if i == 0 {
                    s.push_str(&chunk.to_string());
                } else {
                    s.push_str(&format!("{chunk:019}"));
                }
            }
            f.pad_integral(sign >= 0, "", &s)
        })
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

// --- ordering ---------------------------------------------------------------

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            return a.cmp(&b);
        }
        match self.signum().cmp(&other.signum()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        // Same sign, at least one operand beyond the inline range:
        // magnitude decides, reversed for negatives.
        let mag_ord = self.cmp_abs(other);
        if self.signum() >= 0 {
            mag_ord
        } else {
            mag_ord.reverse()
        }
    }
}

// --- arithmetic on references (canonical impls) ------------------------------

/// Signed addition over sign-magnitude views (the mixed / big-big path).
fn add_views(sa: i8, ma: &[u64], sb: i8, mb: &[u64]) -> Int {
    if sa == 0 {
        return Int::from_sign_mag(sb, mb.to_vec());
    }
    if sb == 0 {
        return Int::from_sign_mag(sa, ma.to_vec());
    }
    if sa == sb {
        Int::from_sign_mag(sa, mag_add(ma, mb))
    } else {
        match mag_cmp(ma, mb) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::from_sign_mag(sa, mag_sub(ma, mb)),
            Ordering::Less => Int::from_sign_mag(sb, mag_sub(mb, ma)),
        }
    }
}

impl<'b> Add<&'b Int> for &Int {
    type Output = Int;
    fn add(self, rhs: &'b Int) -> Int {
        if let (Some(a), Some(b)) = (self.as_small(), rhs.as_small()) {
            if let Some(s) = a.checked_add(b) {
                return Int::small(s);
            }
            // Overflow ⇒ same signs; the magnitude is |a| + |b| ≤ 2^128.
            let (m, carry) = a.unsigned_abs().overflowing_add(b.unsigned_abs());
            let sign = if a < 0 { -1 } else { 1 };
            if carry {
                return Int(Repr::Medium { sign, len: 3, mag: [m as u64, (m >> 64) as u64, 1, 0] });
            }
            return Int::from_sign_u128(sign, m);
        }
        self.with_view(|sa, ma| rhs.with_view(|sb, mb| add_views(sa, ma, sb, mb)))
    }
}

impl<'b> Sub<&'b Int> for &Int {
    type Output = Int;
    fn sub(self, rhs: &'b Int) -> Int {
        if let (Some(a), Some(b)) = (self.as_small(), rhs.as_small()) {
            if let Some(d) = a.checked_sub(b) {
                return Int::small(d);
            }
            // Overflow ⇒ opposite signs; the magnitude is |a| + |b|.
            let (m, carry) = a.unsigned_abs().overflowing_add(b.unsigned_abs());
            let sign = if a < 0 { -1 } else { 1 };
            if carry {
                return Int(Repr::Medium { sign, len: 3, mag: [m as u64, (m >> 64) as u64, 1, 0] });
            }
            return Int::from_sign_u128(sign, m);
        }
        self.with_view(|sa, ma| rhs.with_view(|sb, mb| add_views(sa, ma, -sb, mb)))
    }
}

impl<'b> Mul<&'b Int> for &Int {
    type Output = Int;
    fn mul(self, rhs: &'b Int) -> Int {
        if let (Some(a), Some(b)) = (self.as_small(), rhs.as_small()) {
            if let Some(p) = a.checked_mul(b) {
                return Int::small(p);
            }
            let sign = sign_of_i128(a) * sign_of_i128(b);
            let mag = mul_u128_full(a.unsigned_abs(), b.unsigned_abs());
            return Int::from_sign_mag(sign, mag);
        }
        if self.is_zero() || rhs.is_zero() {
            return Int::zero();
        }
        self.with_view(|sa, ma| {
            rhs.with_view(|sb, mb| Int::from_sign_mag(sa * sb, mag_mul(ma, mb)))
        })
    }
}

impl<'b> Div<&'b Int> for &Int {
    type Output = Int;
    fn div(self, rhs: &'b Int) -> Int {
        self.div_rem(rhs).0
    }
}

impl<'b> Rem<&'b Int> for &Int {
    type Output = Int;
    fn rem(self, rhs: &'b Int) -> Int {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Int> for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                (&self).$method(&rhs)
            }
        }
        impl<'b> $trait<&'b Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &'b Int) -> Int {
                (&self).$method(rhs)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        match self.0 {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => Int::small(n),
                None => Int::from_sign_u128(1, I128_MIN_MAG),
            },
            // Canonicalize: magnitude 2^127 demotes to Small(i128::MIN)
            // exactly when the sign flips to negative.
            Repr::Medium { sign, len, mag } => Int::from_sign_limbs(-sign, &mag[..len as usize]),
            Repr::Big { sign, mag } => Int::from_sign_mag(-sign, mag),
        }
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        self.clone().neg()
    }
}

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, rhs: &Int) {
        *self = &*self * rhs;
    }
}

impl std::iter::Sum for Int {
    fn sum<I: Iterator<Item = Int>>(iter: I) -> Int {
        iter.fold(Int::zero(), |a, b| a + b)
    }
}

// --- gcd ---------------------------------------------------------------------

/// Stein's binary GCD on machine words: shift/subtract only, no
/// division. One body for both word sizes: `gcd_u128` is the workhorse
/// of `Int`'s gcd, `gcd_u64` the reduction step of `Ratio`'s word-sized
/// kernels.
macro_rules! binary_gcd {
    ($name:ident, $word:ty) => {
        #[inline]
        pub(crate) fn $name(mut a: $word, mut b: $word) -> $word {
            if a == 0 {
                return b;
            }
            if b == 0 {
                return a;
            }
            // Integer denominators make 1 the common operand; the loop
            // below would take one round per bit to find it.
            if a == 1 || b == 1 {
                return 1;
            }
            let shift = (a | b).trailing_zeros();
            a >>= a.trailing_zeros();
            loop {
                b >>= b.trailing_zeros();
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                b -= a;
                if b == 0 {
                    break;
                }
            }
            a << shift
        }
    };
}

binary_gcd!(gcd_u64, u64);
binary_gcd!(gcd_u128, u128);

/// Gcd on magnitudes; result is non-negative. Word-sized operands take
/// the binary-GCD fast path; big operands run Euclid until both
/// remainders have demoted into word range (which one division step
/// usually achieves), then finish binary.
pub(crate) fn gcd(a: &Int, b: &Int) -> Int {
    let mut a = a.abs();
    let mut b = b.abs();
    loop {
        if let (Some(x), Some(y)) = (a.as_small(), b.as_small()) {
            return Int::from_u128_mag(gcd_u128(x.unsigned_abs(), y.unsigned_abs()));
        }
        if b.is_zero() {
            return a;
        }
        let r = &a % &b;
        a = b;
        b = r;
    }
}

impl Int {
    /// Non-negative value from a raw `u128` magnitude (demoting).
    #[inline]
    fn from_u128_mag(m: u128) -> Int {
        if m == 0 {
            Int::zero()
        } else {
            Int::from_sign_u128(1, m)
        }
    }
}

// --- magnitude (unsigned little-endian limb vector) helpers -------------------

fn trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in long.iter().enumerate() {
        let s = limb as u128 + *short.get(i).unwrap_or(&0) as u128 + carry as u128;
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Requires `a >= b` (as magnitudes).
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &ai) in a.iter().enumerate() {
        let bi = *b.get(i).unwrap_or(&0);
        let (d, b1) = ai.overflowing_sub(bi);
        let (d, b2) = d.overflowing_sub(borrow);
        out.push(d);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

/// Full 256-bit product of two `u128` magnitudes, as limbs.
fn mul_u128_full(a: u128, b: u128) -> Vec<u64> {
    let (a0, a1) = (a as u64 as u128, (a >> 64) as u64 as u128);
    let (b0, b1) = (b as u64 as u128, (b >> 64) as u64 as u128);
    // Partial products: a·b = a1b1·2^128 + (a1b0 + a0b1)·2^64 + a0b0.
    let ll = a0 * b0;
    let lh = a0 * b1;
    let hl = a1 * b0;
    let hh = a1 * b1;
    let mut out = vec![ll as u64, (ll >> 64) as u64, hh as u64, (hh >> 64) as u64];
    let mut add_shifted = |p: u128| {
        let mut carry = 0u64;
        for (i, part) in [p as u64, (p >> 64) as u64].into_iter().enumerate() {
            let s = out[1 + i] as u128 + part as u128 + carry as u128;
            out[1 + i] = s as u64;
            carry = (s >> 64) as u64;
        }
        let mut k = 3;
        while carry != 0 {
            let s = out[k] as u128 + carry as u128;
            out[k] = s as u64;
            carry = (s >> 64) as u64;
            k += 1;
        }
    };
    add_shifted(lh);
    add_shifted(hl);
    trim(&mut out);
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) >= KARATSUBA_THRESHOLD {
        karatsuba_mul(a, b)
    } else {
        schoolbook_mul(a, b)
    }
}

fn schoolbook_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

/// Karatsuba multiplication: splits at `m = min(len)/2`-ish and recurses.
fn karatsuba_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let m = a.len().min(b.len()) / 2;
    debug_assert!(m >= 1);
    let (a0, a1) = a.split_at(m);
    let (b0, b1) = b.split_at(m);
    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)*(b0+b1) - z0 - z2
    let z0 = mag_mul_trimmed(a0, b0);
    let z2 = mag_mul_trimmed(a1, b1);
    let a01 = mag_add(&trimmed(a0), &trimmed(a1));
    let b01 = mag_add(&trimmed(b0), &trimmed(b1));
    let mut z1 = mag_mul(&a01, &b01);
    z1 = mag_sub(&z1, &z0);
    z1 = mag_sub(&z1, &z2);
    // result = z0 + z1 << 64m + z2 << 128m
    let mut out = vec![0u64; a.len() + b.len()];
    add_into(&mut out, &z0, 0);
    add_into(&mut out, &z1, m);
    add_into(&mut out, &z2, 2 * m);
    trim(&mut out);
    out
}

fn trimmed(a: &[u64]) -> Vec<u64> {
    let mut v = a.to_vec();
    trim(&mut v);
    v
}

fn mag_mul_trimmed(a: &[u64], b: &[u64]) -> Vec<u64> {
    let a = trimmed(a);
    let b = trimmed(b);
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    mag_mul(&a, &b)
}

/// `out[offset..] += addend` with carry propagation.
fn add_into(out: &mut [u64], addend: &[u64], offset: usize) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < addend.len() || carry != 0 {
        let a = *addend.get(i).unwrap_or(&0);
        let s = out[offset + i] as u128 + a as u128 + carry as u128;
        out[offset + i] = s as u64;
        carry = (s >> 64) as u64;
        i += 1;
    }
}

fn mag_shl(mag: &[u64], n: usize) -> Vec<u64> {
    let limb_shift = n / 64;
    let bit_shift = n % 64;
    let mut out = vec![0u64; mag.len() + limb_shift + 1];
    for (i, &l) in mag.iter().enumerate() {
        if bit_shift == 0 {
            out[i + limb_shift] |= l;
        } else {
            out[i + limb_shift] |= l << bit_shift;
            out[i + limb_shift + 1] |= l >> (64 - bit_shift);
        }
    }
    trim(&mut out);
    out
}

fn mag_shr(mag: &[u64], n: usize) -> Vec<u64> {
    let limb_shift = n / 64;
    let bit_shift = n % 64;
    if limb_shift >= mag.len() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(mag.len() - limb_shift);
    for i in limb_shift..mag.len() {
        let mut l = mag[i] >> bit_shift;
        if bit_shift > 0 && i + 1 < mag.len() {
            l |= mag[i + 1] << (64 - bit_shift);
        }
        out.push(l);
    }
    trim(&mut out);
    out
}

/// Divide magnitude by a single limb in place; returns the remainder.
fn mag_div_single_in_place(mag: &mut [u64], d: u64) -> u64 {
    debug_assert!(d != 0);
    let mut rem = 0u128;
    for l in mag.iter_mut().rev() {
        let cur = (rem << 64) | *l as u128;
        *l = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    rem as u64
}

/// Knuth Algorithm D long division on magnitudes. Returns `(quotient,
/// remainder)`.
fn mag_div_rem(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    debug_assert!(!v.is_empty());
    match mag_cmp(u, v) {
        Ordering::Less => return (Vec::new(), u.to_vec()),
        Ordering::Equal => return (vec![1], Vec::new()),
        Ordering::Greater => {}
    }
    if v.len() == 1 {
        let mut q = u.to_vec();
        let rem = mag_div_single_in_place(&mut q, v[0]);
        trim(&mut q);
        let r = if rem == 0 { Vec::new() } else { vec![rem] };
        return (q, r);
    }

    // Normalize: shift so the divisor's top bit is set.
    let shift = v.last().unwrap().leading_zeros() as usize;
    let vn = mag_shl(v, shift);
    let mut un = mag_shl(u, shift);
    debug_assert_eq!(vn.len(), v.len());
    un.resize(u.len() + 1, 0); // ensure an extra high limb

    let n = vn.len();
    let m = un.len() - n - 1; // quotient has m+1 limbs
    let b: u128 = 1 << 64;
    let d1 = vn[n - 1] as u128;
    let d0 = vn[n - 2] as u128;

    let mut q = vec![0u64; m + 1];
    for j in (0..=m).rev() {
        let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = num / d1;
        let mut rhat = num % d1;
        loop {
            if qhat >= b || qhat * d0 > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += d1;
                if rhat < b {
                    continue;
                }
            }
            break;
        }

        // Multiply and subtract: un[j..j+n+1] -= qhat * vn.
        let mut carry: u128 = 0;
        let mut borrow: u64 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let (d, b1) = un[j + i].overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow);
            un[j + i] = d;
            borrow = b1 as u64 + b2 as u64;
        }
        let (d, b1) = un[j + n].overflowing_sub(carry as u64);
        let (d, b2) = d.overflowing_sub(borrow);
        un[j + n] = d;

        if b1 || b2 {
            // qhat was one too large: add the divisor back.
            qhat -= 1;
            let mut c = 0u64;
            for i in 0..n {
                let s = un[j + i] as u128 + vn[i] as u128 + c as u128;
                un[j + i] = s as u64;
                c = (s >> 64) as u64;
            }
            un[j + n] = un[j + n].wrapping_add(c);
        }
        q[j] = qhat as u64;
    }

    trim(&mut q);
    let mut r = mag_shr(&un[..n], shift);
    trim(&mut r);
    (q, r)
}

// --- serde (decimal strings: robust and readable) -----------------------------

#[cfg(feature = "serde")]
impl serde::Serialize for Int {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for Int {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

// --- tests --------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn int(v: i128) -> Int {
        Int::from(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(Int::zero().is_zero());
        assert!(Int::one().is_one());
        assert_eq!(Int::zero(), Int::from(0i64));
        assert_eq!(Int::zero().to_string(), "0");
        assert_eq!((-Int::one()).to_string(), "-1");
        assert_eq!(Int::zero().bits(), 0);
        assert_eq!(Int::one().bits(), 1);
        assert_eq!(Int::from(256u64).bits(), 9);
    }

    #[test]
    fn from_i64_extremes() {
        assert_eq!(Int::from(i64::MIN).to_string(), i64::MIN.to_string());
        assert_eq!(Int::from(i64::MAX).to_string(), i64::MAX.to_string());
        assert_eq!(Int::from(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(Int::from(i64::MAX).to_i64(), Some(i64::MAX));
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(int(2) + int(3), int(5));
        assert_eq!(int(-2) + int(3), int(1));
        assert_eq!(int(2) + int(-3), int(-1));
        assert_eq!(int(-2) + int(-3), int(-5));
        assert_eq!(int(7) - int(7), Int::zero());
        assert_eq!(int(0) - int(7), int(-7));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(int(6) * int(-7), int(-42));
        assert_eq!(int(-6) * int(-7), int(42));
        assert_eq!(int(0) * int(-7), Int::zero());
    }

    #[test]
    fn div_rem_truncates_toward_zero() {
        assert_eq!(int(7).div_rem(&int(2)), (int(3), int(1)));
        assert_eq!(int(-7).div_rem(&int(2)), (int(-3), int(-1)));
        assert_eq!(int(7).div_rem(&int(-2)), (int(-3), int(1)));
        assert_eq!(int(-7).div_rem(&int(-2)), (int(3), int(-1)));
    }

    #[test]
    fn div_floor_and_ceil() {
        assert_eq!(int(7).div_floor(&int(2)), int(3));
        assert_eq!(int(-7).div_floor(&int(2)), int(-4));
        assert_eq!(int(7).div_ceil_int(&int(2)), int(4));
        assert_eq!(int(-7).div_ceil_int(&int(2)), int(-3));
        assert_eq!(int(8).div_floor(&int(2)), int(4));
        assert_eq!(int(8).div_ceil_int(&int(2)), int(4));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = int(5).div_rem(&Int::zero());
    }

    #[test]
    fn pow_small() {
        assert_eq!(int(3).pow(0), Int::one());
        assert_eq!(int(3).pow(4), int(81));
        assert_eq!(int(-2).pow(5), int(-32));
        assert_eq!(int(10).pow(19).to_string(), "10000000000000000000");
    }

    #[test]
    fn display_and_parse_roundtrip_large() {
        let s = "123456789012345678901234567890123456789";
        let v: Int = s.parse().unwrap();
        assert_eq!(v.to_string(), s);
        let neg: Int = format!("-{s}").parse().unwrap();
        assert_eq!(neg.to_string(), format!("-{s}"));
        assert!(neg < Int::zero());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Int>().is_err());
        assert!("-".parse::<Int>().is_err());
        assert!("12a".parse::<Int>().is_err());
        assert!("1 2".parse::<Int>().is_err());
    }

    #[test]
    fn ordering_mixed_signs() {
        assert!(int(-5) < int(3));
        assert!(int(3) < int(5));
        assert!(int(-3) > int(-5));
        assert!(Int::zero() > int(-1));
        assert!(Int::zero() < int(1));
    }

    #[test]
    fn shifts() {
        assert_eq!(int(1).shl(70).shr(70), int(1));
        assert_eq!(int(5).shl(3), int(40));
        assert_eq!(int(40).shr(3), int(5));
        assert_eq!(int(41).shr(3), int(5)); // truncates
        assert_eq!(int(-40).shr(3), int(-5));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(gcd(&int(12), &int(18)), int(6));
        assert_eq!(gcd(&int(-12), &int(18)), int(6));
        assert_eq!(gcd(&int(0), &int(5)), int(5));
        assert_eq!(gcd(&int(0), &int(0)), Int::zero());
        assert_eq!(gcd(&int(7), &int(13)), int(1));
    }

    #[test]
    fn gcd_big_operands_reduce() {
        let a = int(6) * Int::from(10i64).pow(40);
        let b = int(9) * Int::from(10i64).pow(40);
        assert_eq!(gcd(&a, &b), int(3) * Int::from(10i64).pow(40));
        // Mixed big/small still lands on the word-sized gcd.
        assert_eq!(gcd(&a, &int(9)), int(3));
    }

    #[test]
    fn to_f64_small_and_huge() {
        assert_eq!(int(12345).to_f64(), 12345.0);
        assert_eq!(int(-12345).to_f64(), -12345.0);
        let big = Int::from(10i64).pow(40);
        let f = big.to_f64();
        assert!((f - 1e40).abs() / 1e40 < 1e-12);
    }

    #[test]
    fn to_f64_rounds_to_nearest_even() {
        // msb at bit 160 → the 53-bit mantissa window covers bits
        // 160..=108, the round bit sits at 107.
        let base = Int::one().shl(160);
        let half = Int::one().shl(107);
        let ulp = Int::one().shl(108);
        // Exact tie on an even mantissa: rounds down.
        assert_eq!((&base + &half).to_f64(), base.to_f64());
        // One past the tie (sticky bit set): rounds up a full ulp.
        assert_eq!((&(&base + &half) + &Int::one()).to_f64(), (&base + &ulp).to_f64());
        assert_eq!((&base + &ulp).to_f64(), 2f64.powi(160) + 2f64.powi(108));
        // Exact tie on an odd mantissa: rounds up to the even neighbor.
        let odd_tie = &(&base + &ulp) + &half;
        assert_eq!(odd_tie.to_f64(), (&base + &Int::one().shl(109)).to_f64());
        // Negative values mirror exactly.
        assert_eq!((-(&base + &half)).to_f64(), -(base.to_f64()));
    }

    #[test]
    fn to_f64_saturates_at_f64_max_scale() {
        // The largest finite double, (2^53 - 1)·2^971, converts exactly.
        let max = (&Int::one().shl(53) - &Int::one()).shl(971);
        assert_eq!(max.to_f64(), f64::MAX);
        assert_eq!((-max.clone()).to_f64(), f64::MIN);
        // Halfway into the next binade overflows to +inf (IEEE round-to-
        // nearest overflow), as does anything farther out.
        let halfway = (&Int::one().shl(54) - &Int::one()).shl(970);
        assert_eq!(halfway.to_f64(), f64::INFINITY);
        assert_eq!(Int::one().shl(1100).to_f64(), f64::INFINITY);
        assert_eq!((-Int::one().shl(1100)).to_f64(), f64::NEG_INFINITY);
    }

    #[test]
    fn medium_tier_boundaries() {
        // 2^127 (= |i128::MIN|) is the smallest non-inline magnitude and
        // lands on the stack tier; negating it demotes back to inline.
        let m = int(i128::MIN).abs();
        assert!(!m.is_inline() && m.is_medium());
        assert!((-m).is_inline());
        // Four limbs stay Medium; the first five-limb value is heap Big.
        let four = Int::one().shl(255);
        assert!(four.is_medium());
        let five = Int::one().shl(256);
        assert!(!five.is_medium() && !five.is_inline());
        // Arithmetic across the limb-count boundary re-canonicalizes.
        let back = &five / &int(2);
        assert!(back.is_medium());
        assert_eq!(back, four);
        let carry = &int(i128::MIN) + &int(i128::MIN);
        assert!(carry.is_medium(), "128-bit carry path must stay on the stack");
        assert_eq!(&carry - &int(i128::MIN), int(i128::MIN));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands big enough to trip the Karatsuba path.
        let mut a_mag = Vec::new();
        let mut b_mag = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..(KARATSUBA_THRESHOLD * 2 + 3) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            a_mag.push(x);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b_mag.push(x);
        }
        let kar = karatsuba_mul(&a_mag, &b_mag);
        let sch = schoolbook_mul(&a_mag, &b_mag);
        assert_eq!(kar, sch);
    }

    #[test]
    fn division_identity_large() {
        let a: Int = "987654321098765432109876543210987654321098765432109".parse().unwrap();
        let b: Int = "123456789012345678901".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r.cmp_abs(&b) == Ordering::Less);
    }

    #[test]
    fn division_algorithm_d_addback_path() {
        // Crafted operand pattern known to exercise the add-back branch:
        // divisor with max-limb prefix.
        let u = Int::from_sign_mag(1, vec![0, 0, 0x8000000000000000, 0x7fffffffffffffff]);
        let v = Int::from_sign_mag(1, vec![u64::MAX, 0x8000000000000000]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(&(&q * &v) + &r, u);
        assert!(r.cmp_abs(&v) == Ordering::Less);
    }

    #[test]
    fn promotion_and_demotion_at_i128_boundaries() {
        let max = int(i128::MAX);
        let min = int(i128::MIN);
        assert!(max.is_inline() && min.is_inline());

        // One past the boundary promotes; stepping back demotes.
        let over = &max + &Int::one();
        assert!(!over.is_inline());
        assert_eq!(over.to_string(), "170141183460469231731687303715884105728");
        let back = &over - &Int::one();
        assert!(back.is_inline());
        assert_eq!(back, max);

        let under = &min - &Int::one();
        assert!(!under.is_inline());
        assert_eq!(under.to_string(), "-170141183460469231731687303715884105729");
        let back = &under + &Int::one();
        assert!(back.is_inline());
        assert_eq!(back, min);

        // The asymmetric corner: |i128::MIN| fits the small repr only
        // as i128::MIN itself; its negation must stay inline.
        let neg_min = -min.clone();
        assert!(!neg_min.is_inline(), "2^127 exceeds i128::MAX");
        assert_eq!((-neg_min.clone()).to_i128(), Some(i128::MIN));
        assert!((-neg_min).is_inline());

        // i128::MIN / -1 is the one overflowing small division.
        let (q, r) = min.div_rem(&int(-1));
        assert_eq!(q.to_string(), "170141183460469231731687303715884105728");
        assert!(r.is_zero());
    }

    #[test]
    fn small_overflow_carry_edges() {
        // |a| + |b| == 2^128 exactly: the carry limb path.
        let a = int(i128::MIN);
        let sum = &a + &a;
        assert_eq!(sum.to_string(), "-340282366920938463463374607431768211456");
        assert_eq!(&sum - &a, a);
        // Largest positive doubling.
        let b = int(i128::MAX);
        let sum = &b + &b;
        assert_eq!(sum.to_string(), "340282366920938463463374607431768211454");
        assert_eq!(&sum - &b, b);
    }

    #[test]
    fn small_mul_overflow_matches_decimal() {
        let a = int(i128::MAX);
        let p = &a * &a;
        assert!(!p.is_inline());
        assert_eq!(
            p.to_string(),
            "28948022309329048855892746252171976962977213799489202546401021394546514198529"
        );
        assert_eq!(&p / &a, a);
        let m = int(i128::MIN);
        let p = &m * &m;
        assert_eq!(p, Int::one().shl(254));
    }

    #[test]
    fn hash_eq_consistency_across_representations() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Int| {
            let mut hasher = DefaultHasher::new();
            v.hash(&mut hasher);
            hasher.finish()
        };
        // The same value reached via a promote/demote round trip must
        // hash identically to the directly constructed one.
        for v in [0i128, 1, -1, i64::MIN as i128, i64::MAX as i128, i128::MAX, i128::MIN] {
            let direct = int(v);
            let round_trip = &(&int(v) + &int(i128::MAX)) - &int(i128::MAX);
            assert_eq!(direct, round_trip, "{v}");
            assert_eq!(h(&direct), h(&round_trip), "{v}");
            let shifted = int(v).shl(130).shr(130);
            // Truncating shr loses low bits only for negatives rounded
            // toward zero — shl/shr is exact, so this must round-trip.
            assert_eq!(direct, shifted, "{v}");
            assert_eq!(h(&direct), h(&shifted), "{v}");
        }
    }

    proptest! {
        #[test]
        fn prop_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let r = int(a as i128) + int(b as i128);
            prop_assert_eq!(r, int(a as i128 + b as i128));
        }

        #[test]
        fn prop_mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let r = int(a as i128) * int(b as i128);
            prop_assert_eq!(r, int(a as i128 * b as i128));
        }

        #[test]
        fn prop_div_rem_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |v| *v != 0)) {
            let (q, r) = int(a as i128).div_rem(&int(b as i128));
            prop_assert_eq!(q, int(a as i128 / b as i128));
            prop_assert_eq!(r, int(a as i128 % b as i128));
        }

        #[test]
        fn prop_div_rem_identity_big(
            a in proptest::collection::vec(any::<u64>(), 1..8),
            b in proptest::collection::vec(any::<u64>(), 1..5),
        ) {
            let a = Int::from_sign_mag(1, a);
            let b = Int::from_sign_mag(1, b);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(&(&q * &b) + &r, a);
            prop_assert!(r.cmp_abs(&b) == Ordering::Less);
            prop_assert!(!r.is_negative());
        }

        #[test]
        fn prop_display_parse_roundtrip(
            mag in proptest::collection::vec(any::<u64>(), 0..6),
            neg in any::<bool>(),
        ) {
            let mut v = Int::from_sign_mag(1, mag);
            if neg { v = -v; }
            let s = v.to_string();
            let back: Int = s.parse().unwrap();
            prop_assert_eq!(back, v);
        }

        #[test]
        fn prop_mul_karatsuba_consistency(
            a in proptest::collection::vec(any::<u64>(), 64..80),
            b in proptest::collection::vec(any::<u64>(), 64..80),
        ) {
            let mut a = a; trim(&mut a);
            let mut b = b; trim(&mut b);
            prop_assume!(!a.is_empty() && !b.is_empty());
            prop_assert_eq!(mag_mul(&a, &b), schoolbook_mul(&a, &b));
        }

        #[test]
        fn prop_mul_u128_full_matches_schoolbook(a in any::<u128>(), b in any::<u128>()) {
            prop_assume!(a != 0 && b != 0);
            let la = SmallLimbs::of(a);
            let lb = SmallLimbs::of(b);
            prop_assert_eq!(mul_u128_full(a, b), schoolbook_mul(la.as_slice(), lb.as_slice()));
        }

        #[test]
        fn prop_gcd_divides_both(a in any::<i64>(), b in any::<i64>()) {
            let g = gcd(&int(a as i128), &int(b as i128));
            if !g.is_zero() {
                prop_assert!((int(a as i128) % &g).is_zero());
                prop_assert!((int(b as i128) % &g).is_zero());
            } else {
                prop_assert_eq!(a, 0);
                prop_assert_eq!(b, 0);
            }
        }

        #[test]
        fn prop_binary_gcd_matches_euclid(a in any::<u128>(), b in any::<u128>()) {
            let euclid = |(mut a, mut b): (u128, u128)| {
                while b != 0 {
                    let r = a % b;
                    a = b;
                    b = r;
                }
                a
            };
            prop_assert_eq!(gcd_u128(a, b), euclid((a, b)));
            let (a, b) = (a as u64, b as u64);
            prop_assert_eq!(u128::from(gcd_u64(a, b)), euclid((a.into(), b.into())));
        }

        #[test]
        fn prop_shl_shr_roundtrip(mag in proptest::collection::vec(any::<u64>(), 1..5), n in 0u32..200) {
            let v = Int::from_sign_mag(1, mag);
            prop_assume!(!v.is_zero());
            prop_assert_eq!(v.shl(n).shr(n), v);
        }

        #[test]
        fn prop_canonical_form_is_invariant(a in any::<i128>(), b in any::<i128>()) {
            // Any op result in the i128 range must be inline, and any
            // outside must not be — the representation is a function of
            // the value alone.
            let x = int(a);
            let y = int(b);
            for v in [&x + &y, &x - &y, &x * &y, -&x] {
                let in_range = v.to_string().parse::<i128>().is_ok();
                prop_assert_eq!(v.is_inline(), in_range, "{}", v);
            }
        }
    }
}
