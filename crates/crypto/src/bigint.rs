//! Arbitrary-precision unsigned (and minimally signed) integer arithmetic.
//!
//! Just enough number theory for RSA: schoolbook multiplication, Knuth
//! Algorithm D division, modular exponentiation, Miller–Rabin primality
//! testing and modular inverses via the extended Euclidean algorithm.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limbs
//! (the canonical form of zero is an empty limb vector).
//!
//! Exponentiation and Miller–Rabin under an odd modulus of up to 4096
//! bits run on a fixed-width Montgomery kernel: residues are `[u64; K]`
//! stack arrays for K ∈ {4, 8, 16, 32, 64} (the modulus zero-padded to
//! the narrowest that holds it), one interleaved multiply-and-reduce
//! pass per product, a dedicated squaring routine, and no heap
//! allocation per product. Exponents of at most 32 bits use
//! left-to-right square-and-multiply, longer ones a sliding 5-bit
//! window. Even and wider moduli take the same ladder over `mulmod`.
//! Every path computes the same unique residue, so results never
//! depend on which one ran.

use std::cmp::Ordering;

/// Source of randomness for prime generation and Miller–Rabin bases.
///
/// Defined here (rather than depending on an RNG crate) so the simulator's
/// deterministic PRNG can drive key generation reproducibly.
pub trait Rng64 {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A small, fast, deterministic PRNG (SplitMix64) adequate for generating
/// *test* RSA keys reproducibly. Not a CSPRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zeros.
    limbs: Vec<u64>,
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.limbs.is_empty() {
            write!(f, "0")?;
        } else {
            for (i, l) in self.limbs.iter().rev().enumerate() {
                if i == 0 {
                    write!(f, "{l:x}")?;
                } else {
                    write!(f, "{l:016x}")?;
                }
            }
        }
        write!(f, ")")
    }
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From big-endian bytes (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// To big-endian bytes with no leading zeros (zero encodes as empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.limbs.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        let mut iter = self.limbs.iter().rev();
        let top = iter.next().unwrap();
        let top_bytes = top.to_be_bytes();
        let skip = top.leading_zeros() as usize / 8;
        out.extend_from_slice(&top_bytes[skip..]);
        for limb in iter {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// To exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit (used by RSA I2OSP).
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True if zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Test bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Value as `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let a = limb as u128;
            let b = *short.get(i).unwrap_or(&0) as u128;
            let sum = a + b + carry as u128;
            out.push(sum as u64);
            carry = (sum >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, o1) = a.overflowing_sub(b);
            let (d2, o2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (o1 | o2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Compare.
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift right by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder: `(self / divisor, self % divisor)`.
    ///
    /// Knuth TAOCP vol. 2 Algorithm 4.3.1 D with 64-bit limbs.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        // Single-limb divisor: simple long division.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        let n = v.len();
        // Ensure u has at least n+1 limbs and one extra headroom limb.
        u.push(0);
        let m = u.len() - n - 1;
        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;

        for j in (0..=m).rev() {
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = num / v[n - 1] as u128;
            let mut rhat = num % v[n - 1] as u128;
            // Refine the 2-limb estimate against the next limb (D3).
            while qhat >= b || qhat * v[n - 2] as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }
            // D4: multiply and subtract u[j..=j+n] -= qhat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let sub = (p as u64) as i128;
                let cur = u[j + i] as i128 - sub + borrow;
                if cur < 0 {
                    u[j + i] = (cur + (1i128 << 64)) as u64;
                    borrow = -1;
                } else {
                    u[j + i] = cur as u64;
                    borrow = 0;
                }
            }
            let cur = u[j + n] as i128 - carry as i128 + borrow;
            if cur < 0 {
                // D6: estimate was one too large; add back.
                u[j + n] = (cur + (1i128 << 64)) as u64;
                qhat -= 1;
                let mut carry2 = 0u128;
                for i in 0..n {
                    let sum = u[j + i] as u128 + v[i] as u128 + carry2;
                    u[j + i] = sum as u64;
                    carry2 = sum >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u64);
            } else {
                u[j + n] = cur as u64;
            }
            q[j] = qhat as u64;
        }

        let mut qn = BigUint { limbs: q };
        qn.normalize();
        let mut rem = BigUint {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        (qn, rem.shr(shift))
    }

    /// `self % m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `(self * other) % m`.
    pub fn mulmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self % d` for a single-limb divisor, without allocating.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let d = d as u128;
        self.limbs
            .iter()
            .rev()
            .fold(0u128, |r, &l| ((r << 64) | l as u128) % d) as u64
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli of up to 4096 bits — the RSA sign/verify and
    /// Miller–Rabin case — run on the fixed-width Montgomery kernel;
    /// even and wider moduli multiply and divide with
    /// [`BigUint::mulmod`]. Both use the same exponent ladder and
    /// return identical values for identical inputs. Each call builds
    /// the modulus's context afresh; the crate's repeated
    /// exponentiations under one modulus (CRT signing, Miller–Rabin
    /// rounds) keep a `Modulus` instead.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        Modulus::new(m).modpow(self, exp)
    }

    /// Greatest common divisor (binary-free, Euclid via div_rem).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` mod `m`, if it exists.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() {
            return None;
        }
        // Extended Euclid tracking only the coefficient of `self`.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = SignedBig::zero();
        let mut t1 = SignedBig::from_biguint(BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            let t2 = t0.sub(&t1.mul_biguint(&q));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return None;
        }
        Some(t0.rem_euclid(m))
    }

    /// Uniform random value with exactly `bits` significant bits
    /// (top bit forced to 1).
    pub fn random_bits(bits: usize, rng: &mut dyn Rng64) -> BigUint {
        assert!(bits > 0);
        let limbs_needed = bits.div_ceil(64);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.next_u64());
        }
        // Mask off excess bits, set the top bit.
        let top_bits = bits - (limbs_needed - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        let last = limbs.last_mut().unwrap();
        *last &= mask;
        *last |= 1u64 << (top_bits - 1);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Uniform random value in `[0, bound)` by rejection sampling.
    pub fn random_below(bound: &BigUint, rng: &mut dyn Rng64) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bit_len();
        let limbs_needed = bits.div_ceil(64);
        let top_bits = bits - (limbs_needed - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut limbs = Vec::with_capacity(limbs_needed);
            for _ in 0..limbs_needed {
                limbs.push(rng.next_u64());
            }
            *limbs.last_mut().unwrap() &= mask;
            let mut n = BigUint { limbs };
            n.normalize();
            if n.cmp_big(bound) == Ordering::Less {
                return n;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime(&self, rounds: usize, rng: &mut dyn Rng64) -> bool {
        if self.is_zero() {
            return false;
        }
        if let Some(v) = self.to_u64() {
            if v < 2 {
                return false;
            }
            if v == 2 || v == 3 {
                return true;
            }
        }
        if !self.is_odd() {
            return false;
        }
        // Trial division by small primes.
        for &p in SMALL_PRIMES {
            if self.to_u64() == Some(p) {
                return true;
            }
            if self.rem_u64(p) == 0 {
                return false;
            }
        }
        // Write self-1 = d * 2^s.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut s = 0usize;
        let mut d = n_minus_1.clone();
        while !d.is_odd() {
            d = d.shr(1);
            s += 1;
        }
        let two = BigUint::from_u64(2);
        let n_minus_3 = self.sub(&BigUint::from_u64(3));
        let modulus = Modulus::new(self);
        for _ in 0..rounds {
            // a in [2, n-2]
            let a = BigUint::random_below(&n_minus_3, rng).add(&two);
            if !modulus.miller_rabin_round(&a, &d, s, &n_minus_1) {
                return false;
            }
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn gen_prime(bits: usize, rng: &mut dyn Rng64) -> BigUint {
        assert!(bits >= 4, "prime too small");
        loop {
            let mut candidate = BigUint::random_bits(bits, rng);
            // Force odd.
            if !candidate.is_odd() {
                candidate = candidate.add(&BigUint::one());
                if candidate.bit_len() != bits {
                    continue;
                }
            }
            if candidate.is_probable_prime(24, rng) {
                return candidate;
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

/// Exponents of at most this many bits — every RSA public exponent in
/// use (65537 has 17) — take plain left-to-right square-and-multiply:
/// a window table would cost more products than it saves.
const SHORT_EXP_BITS: usize = 32;

/// Modular arithmetic under one modulus, in some representation of
/// the residues. The exponent ladder ([`pow`]) and the Miller–Rabin
/// round are written once against it.
trait ModArith {
    /// A fully reduced residue in this representation.
    type Elem: Clone + PartialEq;
    /// The modulus.
    fn modulus(&self) -> &BigUint;
    /// `x mod m`, in this representation.
    fn enter(&self, x: &BigUint) -> Self::Elem;
    /// The value of a residue.
    fn leave(&self, x: &Self::Elem) -> BigUint;
    /// The residue of 1.
    fn one(&self) -> Self::Elem;
    /// `a·b mod m`.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// `a² mod m`.
    fn sqr(&self, a: &Self::Elem) -> Self::Elem {
        self.mul(a, a)
    }
}

/// `base^exp` in `ar`'s representation: left-to-right
/// square-and-multiply for short exponents, otherwise a left-to-right
/// sliding window of up to 5 bits over the 16 odd powers `base^1` to
/// `base^31` (one table product per window, ~1 per 6 exponent bits).
fn pow<A: ModArith>(ar: &A, base: &A::Elem, exp: &BigUint) -> A::Elem {
    let bits = exp.bit_len();
    if bits == 0 {
        return ar.one();
    }
    if bits <= SHORT_EXP_BITS {
        let mut acc = base.clone();
        for i in (0..bits - 1).rev() {
            acc = ar.sqr(&acc);
            if exp.bit(i) {
                acc = ar.mul(&acc, base);
            }
        }
        return acc;
    }
    // table[i] = base^(2i+1).
    let square = ar.sqr(base);
    let mut table: [A::Elem; 16] = std::array::from_fn(|_| base.clone());
    for i in 1..16 {
        table[i] = ar.mul(&table[i - 1], &square);
    }
    // The window of at most 5 exponent bits whose top bit is `top - 1`
    // (a set bit), shortened to end on a set bit: (lowest bit, value).
    let window = |top: usize| {
        let mut lo = top.saturating_sub(5);
        while !exp.bit(lo) {
            lo += 1;
        }
        let value = (lo..top)
            .rev()
            .fold(0, |v, b| v << 1 | usize::from(exp.bit(b)));
        (lo, value)
    };
    let (mut i, first) = window(bits);
    let mut acc = table[first >> 1].clone();
    while i > 0 {
        if exp.bit(i - 1) {
            let (lo, value) = window(i);
            for _ in lo..i {
                acc = ar.sqr(&acc);
            }
            acc = ar.mul(&acc, &table[value >> 1]);
            i = lo;
        } else {
            acc = ar.sqr(&acc);
            i -= 1;
        }
    }
    acc
}

/// One Miller–Rabin round for the odd modulus `m = d·2^s + 1`: false
/// iff the base `a` witnesses that `m` is composite.
fn miller_rabin_round<A: ModArith>(
    ar: &A,
    a: &BigUint,
    d: &BigUint,
    s: usize,
    m_minus_1: &BigUint,
) -> bool {
    let minus_one = ar.enter(m_minus_1);
    let mut x = pow(ar, &ar.enter(a), d);
    if x == ar.one() || x == minus_one {
        return true;
    }
    for _ in 1..s {
        x = ar.sqr(&x);
        if x == minus_one {
            return true;
        }
    }
    false
}

/// Montgomery arithmetic at a fixed width of `K` limbs.
///
/// Residues are `[u64; K]` stack arrays scaled by `R = 2^(64K)`, and
/// products and squares allocate nothing; because `K` is a
/// compile-time constant every loop bound is known and the compiler
/// specializes each width. A modulus with fewer than `K` limbs is
/// zero-padded, which Montgomery reduction allows: it needs only an
/// odd `m < R`.
#[derive(Clone)]
pub(crate) struct MontCtx<const K: usize> {
    /// The modulus, zero-padded to `K` limbs.
    m: [u64; K],
    /// `-m^{-1} mod 2^64`.
    n0inv: u64,
    /// `R² mod m`: a product with it converts into Montgomery form.
    rr: [u64; K],
    /// `R mod m`, the Montgomery form of 1.
    one: [u64; K],
    /// The modulus as a `BigUint`, for reducing inputs wider than `K`.
    modulus: BigUint,
}

/// The limbs of `x` (at most `K` of them), zero-padded to `K`.
fn padded<const K: usize>(x: &BigUint) -> [u64; K] {
    let mut out = [0u64; K];
    out[..x.limbs.len()].copy_from_slice(&x.limbs);
    out
}

impl<const K: usize> MontCtx<K> {
    fn new(m: &BigUint) -> Box<MontCtx<K>> {
        debug_assert!(m.is_odd() && m.limbs.len() <= K);
        // Newton–Hensel iteration: each step doubles the number of
        // correct low bits of m₀⁻¹ mod 2^64 (seeding with m₀ gives 3).
        let m0 = m.limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let mut ctx = Box::new(MontCtx {
            m: padded(m),
            n0inv: inv.wrapping_neg(),
            rr: padded(&BigUint::one().shl(128 * K).rem(m)),
            one: [0; K],
            modulus: m.clone(),
        });
        ctx.one = ctx.mul(&ctx.rr, &padded(&BigUint::one()));
        ctx
    }

    /// `t + top·R` reduced into `[0, m)`, given that it is below `2m`.
    fn reduce_once(&self, mut t: [u64; K], top: u64) -> [u64; K] {
        let over = top != 0
            || t.iter()
                .zip(&self.m)
                .rev()
                .find(|(ti, mi)| ti != mi)
                .is_none_or(|(ti, mi)| ti > mi);
        if over {
            let mut borrow = false;
            for (ti, &mi) in t.iter_mut().zip(&self.m) {
                let (d1, b1) = ti.overflowing_sub(mi);
                let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
                *ti = d2;
                borrow = b1 | b2;
            }
        }
        t
    }
}

impl<const K: usize> ModArith for MontCtx<K> {
    type Elem = [u64; K];

    fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    fn enter(&self, x: &BigUint) -> [u64; K] {
        // A product with rr needs only x·rr < m·R, so any x below R
        // goes in unreduced.
        if x.limbs.len() <= K {
            self.mul(&padded(x), &self.rr)
        } else {
            self.mul(&padded(&x.rem(&self.modulus)), &self.rr)
        }
    }

    fn leave(&self, x: &[u64; K]) -> BigUint {
        let mut unit = [0u64; K];
        unit[0] = 1;
        let mut out = BigUint {
            limbs: self.mul(x, &unit).to_vec(),
        };
        out.normalize();
        out
    }

    fn one(&self) -> [u64; K] {
        self.one
    }

    /// Montgomery product `a·b·R⁻¹ mod m`, fully reduced, with the
    /// multiply and the reduction interleaved limb by limb of `a`. Needs
    /// `a·b < m·R`: both below `m`, or one below `m` and the other below
    /// `R`.
    fn mul(&self, a: &[u64; K], b: &[u64; K]) -> [u64; K] {
        // The accumulator is t plus a top limb; it stays below 2m. Each
        // outer step adds a_i·b and u·m in one pass over the limbs (two
        // carry chains), u chosen so the low limb cancels, and shifts
        // down one limb.
        let mut t = [0u64; K];
        let mut top = 0u64;
        for &ai in a {
            let x = t[0] as u128 + ai as u128 * b[0] as u128;
            let u = (x as u64).wrapping_mul(self.n0inv);
            let y = (x as u64) as u128 + u as u128 * self.m[0] as u128;
            let (mut cx, mut cy) = ((x >> 64) as u64, (y >> 64) as u64);
            for j in 1..K {
                let x = t[j] as u128 + ai as u128 * b[j] as u128 + cx as u128;
                let y = (x as u64) as u128 + u as u128 * self.m[j] as u128 + cy as u128;
                t[j - 1] = y as u64;
                (cx, cy) = ((x >> 64) as u64, (y >> 64) as u64);
            }
            let x = top as u128 + cx as u128;
            let y = (x as u64) as u128 + cy as u128;
            t[K - 1] = y as u64;
            top = (x >> 64) as u64 + (y >> 64) as u64;
        }
        self.reduce_once(t, top)
    }

    /// Montgomery square `a²·R⁻¹ mod m` for `a < m`: the full 2K-limb
    /// square first, computing each cross product `a_i·a_j` once and
    /// doubling, then K reduction steps — about 3K²/2 limb products
    /// where [`ModArith::mul`] takes 2K².
    fn sqr(&self, a: &[u64; K]) -> [u64; K] {
        let mut buf = [[0u64; K]; 2];
        let t = buf.as_flattened_mut();
        // Cross products a_i·a_j, i < j.
        for i in 0..K {
            let mut carry = 0u64;
            for j in i + 1..K {
                let x = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
                t[i + j] = x as u64;
                carry = (x >> 64) as u64;
            }
            t[i + K] = carry;
        }
        // Double them and add the squares a_i².
        let (mut shift, mut c) = (0u64, 0u64);
        for i in 0..K {
            let sq = a[i] as u128 * a[i] as u128;
            let (lo, hi) = (t[2 * i], t[2 * i + 1]);
            let dlo = lo << 1 | shift;
            let dhi = hi << 1 | lo >> 63;
            shift = hi >> 63;
            let x = dlo as u128 + (sq as u64) as u128 + c as u128;
            let y = dhi as u128 + (sq >> 64) + (x >> 64);
            t[2 * i] = x as u64;
            t[2 * i + 1] = y as u64;
            c = (y >> 64) as u64;
        }
        debug_assert_eq!((shift, c), (0, 0), "a² < R²");
        // Reduce: K steps of adding u·m at limb i so that limb cancels;
        // the result is the upper K limbs plus `top`, below 2m since
        // a² < m·R.
        let mut top = 0u64;
        for i in 0..K {
            let u = t[i].wrapping_mul(self.n0inv);
            let mut carry = 0u64;
            for j in 0..K {
                let x = t[i + j] as u128 + u as u128 * self.m[j] as u128 + carry as u128;
                t[i + j] = x as u64;
                carry = (x >> 64) as u64;
            }
            let x = t[i + K] as u128 + carry as u128 + top as u128;
            t[i + K] = x as u64;
            top = (x >> 64) as u64;
        }
        self.reduce_once(buf[1], top)
    }
}

/// Plain residues reduced by Knuth division after every product: the
/// path for moduli the Montgomery kernel does not take (even ones and
/// those wider than 4096 bits).
#[derive(Clone)]
pub(crate) struct Schoolbook(BigUint);

impl ModArith for Schoolbook {
    type Elem = BigUint;

    fn modulus(&self) -> &BigUint {
        &self.0
    }

    fn enter(&self, x: &BigUint) -> BigUint {
        x.rem(&self.0)
    }

    fn leave(&self, x: &BigUint) -> BigUint {
        x.clone()
    }

    fn one(&self) -> BigUint {
        BigUint::one().rem(&self.0)
    }

    fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mulmod(b, &self.0)
    }
}

/// A modulus prepared for exponentiation: an odd modulus of up to 4096
/// bits gets a Montgomery context at the narrowest width that holds it
/// (4, 8, 16, 32 or 64 limbs — 8 for 512-bit CRT primes, 16 for a
/// 1024-bit RSA modulus); any other modulus gets [`Schoolbook`].
/// Building one costs a Knuth division (`R² mod m`), so callers that
/// exponentiate repeatedly under one modulus keep it.
#[derive(Clone)]
pub(crate) enum Modulus {
    Limbs4(Box<MontCtx<4>>),
    Limbs8(Box<MontCtx<8>>),
    Limbs16(Box<MontCtx<16>>),
    Limbs32(Box<MontCtx<32>>),
    Limbs64(Box<MontCtx<64>>),
    Schoolbook(Schoolbook),
}

/// Run `$body` with `$ar` bound to the [`ModArith`] behind a [`Modulus`],
/// monomorphized per width.
macro_rules! dispatch {
    ($modulus:expr, $ar:ident => $body:expr) => {
        match $modulus {
            Modulus::Limbs4(ctx) => {
                let $ar = &**ctx;
                $body
            }
            Modulus::Limbs8(ctx) => {
                let $ar = &**ctx;
                $body
            }
            Modulus::Limbs16(ctx) => {
                let $ar = &**ctx;
                $body
            }
            Modulus::Limbs32(ctx) => {
                let $ar = &**ctx;
                $body
            }
            Modulus::Limbs64(ctx) => {
                let $ar = &**ctx;
                $body
            }
            Modulus::Schoolbook($ar) => $body,
        }
    };
}

impl Modulus {
    pub(crate) fn new(m: &BigUint) -> Modulus {
        if !m.is_odd() {
            return Modulus::Schoolbook(Schoolbook(m.clone()));
        }
        match m.limbs.len() {
            ..=4 => Modulus::Limbs4(MontCtx::new(m)),
            5..=8 => Modulus::Limbs8(MontCtx::new(m)),
            9..=16 => Modulus::Limbs16(MontCtx::new(m)),
            17..=32 => Modulus::Limbs32(MontCtx::new(m)),
            33..=64 => Modulus::Limbs64(MontCtx::new(m)),
            _ => Modulus::Schoolbook(Schoolbook(m.clone())),
        }
    }

    /// The modulus.
    pub(crate) fn value(&self) -> &BigUint {
        dispatch!(self, ar => ar.modulus())
    }

    /// `base^exp mod m`.
    pub(crate) fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        dispatch!(self, ar => ar.leave(&pow(ar, &ar.enter(base), exp)))
    }

    /// One Miller–Rabin round (see [`miller_rabin_round`]).
    fn miller_rabin_round(&self, a: &BigUint, d: &BigUint, s: usize, m_minus_1: &BigUint) -> bool {
        dispatch!(self, ar => miller_rabin_round(ar, a, d, s, m_minus_1))
    }
}

impl std::fmt::Debug for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.value().fmt(f)
    }
}

/// Primes below 1000 for trial division.
const SMALL_PRIMES: &[u64] = &[
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// A sign-magnitude integer used only by the extended Euclidean algorithm.
#[derive(Debug, Clone)]
struct SignedBig {
    negative: bool,
    mag: BigUint,
}

impl SignedBig {
    fn zero() -> Self {
        SignedBig {
            negative: false,
            mag: BigUint::zero(),
        }
    }

    fn from_biguint(mag: BigUint) -> Self {
        SignedBig {
            negative: false,
            mag,
        }
    }

    fn mul_biguint(&self, other: &BigUint) -> SignedBig {
        let mag = self.mag.mul(other);
        SignedBig {
            negative: self.negative && !mag.is_zero(),
            mag,
        }
    }

    fn sub(&self, other: &SignedBig) -> SignedBig {
        match (self.negative, other.negative) {
            (false, false) => {
                if self.mag.cmp_big(&other.mag) != Ordering::Less {
                    SignedBig {
                        negative: false,
                        mag: self.mag.sub(&other.mag),
                    }
                } else {
                    SignedBig {
                        negative: true,
                        mag: other.mag.sub(&self.mag),
                    }
                }
            }
            (false, true) => SignedBig {
                negative: false,
                mag: self.mag.add(&other.mag),
            },
            (true, false) => {
                let mag = self.mag.add(&other.mag);
                SignedBig {
                    negative: !mag.is_zero(),
                    mag,
                }
            }
            (true, true) => {
                // (-a) - (-b) = b - a
                if other.mag.cmp_big(&self.mag) != Ordering::Less {
                    SignedBig {
                        negative: false,
                        mag: other.mag.sub(&self.mag),
                    }
                } else {
                    SignedBig {
                        negative: true,
                        mag: self.mag.sub(&other.mag),
                    }
                }
            }
        }
    }

    /// Value reduced into `[0, m)`.
    fn rem_euclid(&self, m: &BigUint) -> BigUint {
        let r = self.mag.rem(m);
        if self.negative && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn bytes_roundtrip() {
        for v in [0u128, 1, 255, 256, u64::MAX as u128, u128::MAX, 1 << 64] {
            let n = big(v);
            let bytes = n.to_bytes_be();
            assert_eq!(BigUint::from_bytes_be(&bytes), n, "v={v}");
        }
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0]), BigUint::zero());
    }

    #[test]
    fn padded_bytes() {
        assert_eq!(big(1).to_bytes_be_padded(4).unwrap(), vec![0, 0, 0, 1]);
        assert_eq!(big(0x1_0000).to_bytes_be_padded(2), None);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(big(5).add(&big(7)), big(12));
        assert_eq!(big(12).sub(&big(7)), big(5));
        assert_eq!(
            big(u64::MAX as u128).add(&big(1)),
            big(u64::MAX as u128 + 1)
        );
        assert_eq!(
            big(u128::MAX).add(&big(1)).to_bytes_be(),
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, u64::MAX as u128),
            (12345, 6789),
            (u64::MAX as u128, u64::MAX as u128),
            ((1 << 63) + 12345, (1 << 60) + 999),
        ];
        for (a, b) in cases {
            assert_eq!(big(a).mul(&big(b)), big(a * b), "{a}*{b}");
        }
    }

    #[test]
    fn div_rem_matches_u128() {
        let cases = [
            (100u128, 7u128),
            (u128::MAX, 3),
            (u128::MAX, u64::MAX as u128),
            ((1 << 100) + 12345, (1 << 40) + 17),
            (1, 2),
            (0, 5),
            (81985529216486895, 81985529216486895),
        ];
        for (a, b) in cases {
            let (q, r) = big(a).div_rem(&big(b));
            assert_eq!(q, big(a / b), "{a}/{b} quotient");
            assert_eq!(r, big(a % b), "{a}%{b} remainder");
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..200 {
            let a = BigUint::random_bits(1 + (rng.next_u64() % 512) as usize, &mut rng);
            let b = BigUint::random_bits(1 + (rng.next_u64() % 256) as usize, &mut rng);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            assert!(r.cmp_big(&b) == Ordering::Less);
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(64), big(1 << 64));
        assert_eq!(big(1 << 64).shr(64), big(1));
        assert_eq!(big(0b1011).shl(3), big(0b1011000));
        assert_eq!(big(0b1011000).shr(3), big(0b1011));
        assert_eq!(big(7).shr(10), BigUint::zero());
    }

    #[test]
    fn modpow_known() {
        // 4^13 mod 497 = 445
        assert_eq!(big(4).modpow(&big(13), &big(497)), big(445));
        // Fermat: a^(p-1) = 1 mod p
        let p = big(1_000_000_007);
        let a = big(123_456_789);
        assert_eq!(a.modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        // mod 1 is 0
        assert_eq!(big(5).modpow(&big(3), &BigUint::one()), BigUint::zero());
        assert_eq!(
            big(5).modpow(&BigUint::zero(), &BigUint::one()),
            BigUint::zero()
        );
    }

    /// Right-to-left square-and-multiply over `mulmod`: the reference
    /// the exponent ladder and both arithmetics are checked against.
    fn reference_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut result = BigUint::one().rem(m);
        let mut b = base.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mulmod(&b, m);
            }
            b = b.mulmod(&b, m);
        }
        result
    }

    /// A random odd modulus of exactly `limbs` limbs (top bit set).
    fn odd_modulus(limbs: usize, rng: &mut SplitMix64) -> BigUint {
        let m = BigUint::random_bits(64 * limbs, rng);
        if m.is_odd() {
            m
        } else {
            m.add(&BigUint::one())
        }
    }

    #[test]
    fn modulus_width_is_the_narrowest_that_holds_it() {
        let mut rng = SplitMix64::new(0x3d7);
        for (limbs, width) in [(1, 4), (3, 4), (4, 4), (5, 8), (8, 8), (12, 16), (16, 16)] {
            let got = match Modulus::new(&odd_modulus(limbs, &mut rng)) {
                Modulus::Limbs4(_) => 4,
                Modulus::Limbs8(_) => 8,
                Modulus::Limbs16(_) => 16,
                Modulus::Limbs32(_) => 32,
                Modulus::Limbs64(_) => 64,
                Modulus::Schoolbook(_) => 0,
            };
            assert_eq!(got, width, "{limbs}-limb modulus");
        }
        for m in [
            odd_modulus(8, &mut rng).add(&BigUint::one()),
            odd_modulus(65, &mut rng),
        ] {
            assert!(matches!(Modulus::new(&m), Modulus::Schoolbook(_)));
        }
    }

    #[test]
    fn montgomery_modpow_matches_schoolbook() {
        // The campaign's widths (8 limbs for CRT primes, 16 for the
        // 1024-bit modulus) and zero-padded ones (3, 5, 12 limbs), with
        // edge bases and the exponents RSA uses.
        let mut rng = SplitMix64::new(0x5eed_40d5);
        for limbs in [3, 5, 8, 12, 16] {
            let m = odd_modulus(limbs, &mut rng);
            let modulus = Modulus::new(&m);
            let m_minus_1 = m.sub(&BigUint::one());
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                m_minus_1.clone(),
                m.clone(),
                m.add(&BigUint::one()),
                BigUint::random_below(&m, &mut rng),
                BigUint::random_bits(64 * limbs + 64, &mut rng),
            ];
            let exps = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64(65537),
                BigUint::random_bits(33, &mut rng),
                BigUint::random_bits(64 * limbs, &mut rng),
                // Window edges: one long zero run, then all ones.
                BigUint::one().shl(64 * limbs - 1),
                BigUint::one().shl(70).sub(&BigUint::one()),
            ];
            for base in &bases {
                for exp in &exps {
                    let want = reference_modpow(base, exp, &m);
                    assert_eq!(modulus.modpow(base, exp), want, "{limbs} limbs");
                    assert_eq!(base.modpow(exp, &m), want, "{limbs} limbs");
                }
            }
        }
    }

    #[test]
    fn schoolbook_path_matches_reference() {
        // Even moduli and moduli wider than 4096 bits skip Montgomery.
        let mut rng = SplitMix64::new(0xe7e7);
        let even = odd_modulus(4, &mut rng).add(&BigUint::one());
        let wide = odd_modulus(65, &mut rng);
        for m in [even, wide] {
            let base = BigUint::random_bits(m.bit_len() + 7, &mut rng);
            for exp in [
                BigUint::zero(),
                BigUint::from_u64(65537),
                BigUint::random_bits(70, &mut rng),
            ] {
                assert_eq!(base.modpow(&exp, &m), reference_modpow(&base, &exp, &m));
            }
        }
    }

    #[test]
    fn miller_rabin_rounds_agree_across_arithmetics() {
        // Keygen's verdicts must not depend on which arithmetic runs
        // the round: check the Montgomery kernel against Schoolbook on
        // primes, products of primes and random odd numbers.
        let mut rng = SplitMix64::new(0x3141);
        let p = BigUint::gen_prime(256, &mut rng);
        let q = BigUint::gen_prime(256, &mut rng);
        let mut candidates = vec![
            p.clone(),
            q.clone(),
            p.mul(&q),
            BigUint::gen_prime(512, &mut rng),
        ];
        candidates.extend((0..4).map(|_| odd_modulus(8, &mut rng)));
        for m in candidates {
            let m_minus_1 = m.sub(&BigUint::one());
            let mut d = m_minus_1.clone();
            let mut s = 0;
            while !d.is_odd() {
                d = d.shr(1);
                s += 1;
            }
            let mont = Modulus::new(&m);
            let plain = Schoolbook(m.clone());
            let n_minus_3 = m.sub(&BigUint::from_u64(3));
            for _ in 0..4 {
                let a = BigUint::random_below(&n_minus_3, &mut rng).add(&BigUint::from_u64(2));
                assert_eq!(
                    mont.miller_rabin_round(&a, &d, s, &m_minus_1),
                    miller_rabin_round(&plain, &a, &d, s, &m_minus_1),
                );
            }
        }
    }

    #[test]
    fn rem_u64_matches_rem() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..50 {
            let x = BigUint::random_bits(1 + (rng.next_u64() % 600) as usize, &mut rng);
            for d in [1u64, 2, 3, 997, u64::MAX, rng.next_u64() | 1] {
                assert_eq!(Some(x.rem_u64(d)), x.rem(&BigUint::from_u64(d)).to_u64());
            }
        }
        assert_eq!(BigUint::zero().rem_u64(7), 0);
    }

    #[test]
    fn gcd_and_inverse() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        let inv = big(3).mod_inverse(&big(11)).unwrap();
        assert_eq!(inv, big(4)); // 3*4 = 12 = 1 mod 11
        assert!(big(6).mod_inverse(&big(9)).is_none()); // gcd 3
                                                        // Large: e=65537 mod a big odd modulus
        let mut rng = SplitMix64::new(7);
        let m = BigUint::gen_prime(128, &mut rng);
        let e = big(65537);
        let d = e.mod_inverse(&m).unwrap();
        assert_eq!(e.mulmod(&d, &m), BigUint::one());
    }

    #[test]
    fn primality_small() {
        let mut rng = SplitMix64::new(1);
        let primes = [2u64, 3, 5, 17, 97, 257, 65537, 1_000_000_007];
        let composites = [
            1u64,
            4,
            15,
            91,
            561, /* Carmichael */
            65536,
            1_000_000_008,
        ];
        for p in primes {
            assert!(
                BigUint::from_u64(p).is_probable_prime(16, &mut rng),
                "{p} should be prime"
            );
        }
        for c in composites {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut rng = SplitMix64::new(99);
        let p = BigUint::gen_prime(96, &mut rng);
        assert_eq!(p.bit_len(), 96);
        assert!(p.is_odd());
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = SplitMix64::new(5);
        let bound = big(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&bound, &mut rng);
            assert!(v.cmp_big(&bound) == Ordering::Less);
        }
    }
}
