//! Zipfian key sampling for the A11 global-view workloads.
//!
//! The follow-up paper's map evaluation (like YCSB and most KV-store
//! literature) draws keys from a Zipf distribution: key rank `i` (1-based)
//! has probability proportional to `1 / i^θ`. θ = 0.99 is the YCSB
//! default ("hot" skew: ~10% of keys absorb most operations), θ = 0.9 is
//! a milder skew. Skew is what makes privatization interesting — a hot
//! key's shard either is local (free) or costs exactly one message,
//! whereas a flat layout pays per-hop communication no matter how hot the
//! key is.
//!
//! The sampler precomputes the normalized CDF once (O(n) build, ~8 MB for
//! a million keys) and draws by binary search (O(log n) per sample), so
//! the measured loop costs no harmonic-series math. Ranks are mapped to
//! key ids by a fixed multiplicative shuffle so that the hottest keys are
//! not the numerically smallest ones (which would otherwise cluster in
//! one bucket region of small tables).

use rand::Rng;

/// Precomputed Zipf(θ) sampler over `n` keys.
pub struct ZipfSampler {
    /// `cdf[i]` = P(rank <= i), strictly increasing, `cdf[n-1] == 1.0`.
    cdf: Vec<f64>,
    n: u64,
}

impl ZipfSampler {
    /// Build the CDF for `n` keys with exponent `theta` (θ = 0 is
    /// uniform; larger is more skewed).
    pub fn new(n: u64, theta: f64) -> ZipfSampler {
        assert!(n > 0, "need at least one key");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let norm = acc;
        for c in cdf.iter_mut() {
            *c /= norm;
        }
        ZipfSampler { cdf, n }
    }

    /// Draw one key id in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0f64..1.0f64);
        let rank = self.cdf.partition_point(|&c| c < u) as u64;
        self.key_of_rank(rank.min(self.n - 1))
    }

    /// The key id holding `rank` (0 = hottest). A fixed odd-multiplier
    /// shuffle spreads hot ranks across the whole key space; it is a
    /// bijection on `0..n` only when `n` is a power of two, so for other
    /// sizes we fall back to the identity.
    fn key_of_rank(&self, rank: u64) -> u64 {
        if self.n.is_power_of_two() {
            rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) & (self.n - 1)
        } else {
            rank
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_is_normalized_and_monotone() {
        let z = ZipfSampler::new(1000, 0.99);
        assert!((z.cdf.last().copied().unwrap() - 1.0).abs() < 1e-12);
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn samples_stay_in_range_and_skew_toward_hot_keys() {
        let n = 1u64 << 12;
        let z = ZipfSampler::new(n, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; n as usize];
        let draws = 200_000;
        for _ in 0..draws {
            let k = z.sample(&mut rng);
            assert!(k < n);
            counts[k as usize] += 1;
        }
        // The hottest key absorbs far more than uniform share.
        let hot = counts[z.key_of_rank(0) as usize];
        assert!(
            hot as f64 > 20.0 * draws as f64 / n as f64,
            "rank-0 key must be hot: {hot} of {draws}"
        );
        // But the tail is still exercised.
        let touched = counts.iter().filter(|&&c| c > 0).count();
        assert!(touched > n as usize / 8, "tail coverage: {touched}");
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let n = 256u64;
        let z = ZipfSampler::new(n, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 100_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let expect = draws as f64 / n as f64;
        assert!(counts
            .iter()
            .all(|&c| (c as f64) > expect * 0.5 && (c as f64) < expect * 1.5));
    }

    #[test]
    fn rank_shuffle_is_a_bijection_on_pow2() {
        let z = ZipfSampler::new(1 << 10, 0.9);
        let mut seen = std::collections::HashSet::new();
        for r in 0..(1u64 << 10) {
            assert!(seen.insert(z.key_of_rank(r)));
        }
    }
}
