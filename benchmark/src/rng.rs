//! SplitMix64: the benchmark's only source of randomness. Every input the
//! library sees (key streams, op mixes, remote-owner choices) is drawn from
//! one of these, seeded from `--seed`, so the same seed gives the same inputs.

pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`: lanes keep the drivers' and the
    /// workloads' inputs independent of each other under one `--seed`.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
