//! Deterministic PRNG (xoshiro256**) and distribution samplers.

/// xoshiro256** by Blackman & Vigna — fast, high-quality, and tiny.
/// Seeded via SplitMix64 so any `u64` seed yields a good state.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent stream (for per-entity RNGs).
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0x9e3779b97f4a7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`. Debiased via Lemire's method.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        let mut m = (self.next_u64() as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo);
        lo + self.next_below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Choose an index by weight. Weights need not be normalized.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        self.choose_by_total(weights, total)
    }

    /// [`SimRng::weighted_choice`] over `table`'s weights, without
    /// re-summing them: the same index for the same RNG state.
    ///
    /// # Panics
    /// Panics if the table is empty or sums to zero.
    pub fn weighted_pick(&mut self, table: &WeightTable) -> usize {
        self.choose_by_total(&table.weights, table.total)
    }

    /// The linear scan behind both weighted draws; `total` is
    /// `weights.iter().sum()`.
    fn choose_by_total(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(total > 0.0, "weights must sum to > 0");
        let mut roll = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            roll -= w;
            if roll < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Pick a uniformly random element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty());
        &items[self.next_below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle. The paper shuffled the order in which MTAs
    /// were probed to avoid concentrating load on one domain (§5.2).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Weights for [`SimRng::weighted_pick`], summed once. The total is
/// the same `iter().sum()`, in the same order, that
/// [`SimRng::weighted_choice`] computes per draw, so both draw the same
/// indices bit for bit.
#[derive(Debug, Clone)]
pub struct WeightTable {
    weights: Vec<f64>,
    total: f64,
}

impl WeightTable {
    /// Sum `weights` once.
    pub fn new(weights: Vec<f64>) -> WeightTable {
        let total = weights.iter().sum();
        WeightTable { weights, total }
    }

    /// The weights, in order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Their sum.
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// A Zipf-distributed sampler over ranks `1..=n` with exponent `s`,
/// using a precomputed CDF (fine for the dataset sizes here). Used to
/// model the query-demand skew behind the paper's TwoWeekMX deciles.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build for `n` ranks with exponent `s` (> 0).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `[0, n)` (0-based).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The probability mass of rank `i` (0-based).
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(SimRng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn bounds_respected() {
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            assert!(rng.next_below(10) < 10);
            let v = rng.range(5, 8);
            assert!((5..8).contains(&v));
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(SimRng::new(1).next_below(1), 0);
    }

    #[test]
    fn chance_statistics() {
        let mut rng = SimRng::new(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn weighted_choice_statistics() {
        let mut rng = SimRng::new(13);
        let weights = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_choice(&weights)] += 1;
        }
        assert!((800..1200).contains(&counts[0]), "{counts:?}");
        assert!((2700..3300).contains(&counts[1]), "{counts:?}");
        assert!((5700..6300).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn weight_table_draws_what_weighted_choice_draws() {
        let weights: Vec<f64> = (1..=50).map(|i| 1.0 / f64::from(i)).collect();
        let table = WeightTable::new(weights.clone());
        assert_eq!(table.total(), weights.iter().sum::<f64>());
        let (mut a, mut b) = (SimRng::new(29), SimRng::new(29));
        for _ in 0..10_000 {
            assert_eq!(a.weighted_pick(&table), b.weighted_choice(&weights));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SimRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(19);
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // PMF sums to 1.
        let total: f64 = (0..1000).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fork_streams_differ() {
        let mut root = SimRng::new(23);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
