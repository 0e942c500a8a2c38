//! The benchmark's own samplers. `--seed` drives these and nothing else:
//! the product only ever sees the inputs they generate.

/// SplitMix64 — small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent generator for sub-stream `stream` of this seed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut base = SplitMix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        SplitMix64(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`exponent`) over `n` items, ranks mapped to items through a
/// seeded shuffle so the hot items are not the low vertex ids (which the
/// generators tend to make the hubs).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, rng: &mut SplitMix64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut item_of_rank: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, item_of_rank }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u);
        self.item_of_rank[rank.min(self.item_of_rank.len() - 1)]
    }

    /// The items of the `k` most likely ranks.
    pub fn hottest(&self, k: usize) -> &[u32] {
        &self.item_of_rank[..k.min(self.item_of_rank.len())]
    }
}

/// Due times, in nanoseconds from the start of a round, of `count`
/// arrivals of a Poisson process with `rate_per_s` arrivals per second.
pub fn poisson_schedule(rng: &mut SplitMix64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut due = Vec::with_capacity(count);
    let mut t = 0.0f64;
    for _ in 0..count {
        t += -rng.unit().ln() / rate_per_s;
        due.push((t * 1e9) as u64);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert!((0..64).all(|_| a.next_u64() == b.next_u64()));
        let mut f0 = SplitMix64::fork(7, 0);
        let mut f1 = SplitMix64::fork(7, 1);
        assert!((0..64).filter(|_| f0.next_u64() == f1.next_u64()).count() < 2);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_repeats_per_seed() {
        let due = poisson_schedule(&mut SplitMix64::new(3), 500.0, 20_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap_s = *due.last().unwrap() as f64 / 1e9 / due.len() as f64;
        assert!((mean_gap_s * 500.0 - 1.0).abs() < 0.03, "{mean_gap_s}");
        assert_eq!(
            due,
            poisson_schedule(&mut SplitMix64::new(3), 500.0, 20_000)
        );
        assert_ne!(
            due,
            poisson_schedule(&mut SplitMix64::new(4), 500.0, 20_000)
        );
    }

    #[test]
    fn zipf_is_skewed_towards_its_hottest_items() {
        let mut rng = SplitMix64::new(9);
        let zipf = Zipf::new(1000, 1.3, &mut rng);
        let hot: Vec<u32> = zipf.hottest(10).to_vec();
        let hits = (0..10_000)
            .filter(|_| hot.contains(&zipf.sample(&mut rng)))
            .count();
        // H(10, 1.3) / H(1000, 1.3) ≈ 0.61.
        assert!((5_500..6_700).contains(&hits), "{hits}");
    }
}
