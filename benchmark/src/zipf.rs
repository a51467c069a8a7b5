//! A self-contained Zipf sampler (inverse CDF over a precomputed table).
//!
//! Rank `r` (0-based) is drawn with probability proportional to
//! `1 / (r + 1)^theta`. The table costs 8 bytes per rank, which is nothing
//! at the 2^16 keys the map workloads use, and sampling is exact — no
//! rejection, no approximation of the harmonic number.

use crate::rng::Rng;

pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`, rank 0 the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c <= u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a log-log plot the rank-frequency curve of Zipf(theta) is a line
    /// of slope -theta; fit it over the first 64 ranks, where every rank
    /// has thousands of samples.
    #[test]
    fn rank_frequency_slope_matches_theta() {
        let theta = 0.99;
        let z = Zipf::new(1 << 16, theta);
        let mut rng = Rng::new(7, 0);
        let mut freq = vec![0u64; 1 << 16];
        for _ in 0..2_000_000 {
            freq[z.sample(&mut rng) as usize] += 1;
        }
        let pts: Vec<(f64, f64)> = (0..64)
            .map(|r| (((r + 1) as f64).ln(), (freq[r] as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let (sx, sy) = pts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
        let (sxx, sxy) = pts
            .iter()
            .fold((0.0, 0.0), |a, p| (a.0 + p.0 * p.0, a.1 + p.0 * p.1));
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!(
            (slope + theta).abs() < 0.03,
            "rank-frequency slope {slope}, expected {}",
            -theta
        );
        assert!(freq.iter().all(|&f| f < 2_000_000 / 5), "no rank dominates");
        assert!(freq[0] > freq[63], "rank 0 is the most popular");
    }

    #[test]
    fn same_seed_same_ranks() {
        let z = Zipf::new(1000, 0.99);
        let a: Vec<u64> = {
            let mut r = Rng::new(3, 1);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(3, 1);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k < 1000));
    }
}
