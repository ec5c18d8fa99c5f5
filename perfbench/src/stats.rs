//! The one percentile rule every metric uses, and the seeded generator
//! the workloads derive their inputs from.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it (`p` in `0..=100`). `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// [`percentile`] over integer samples that are already sorted.
pub fn percentile_sorted_u64(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p)])
}

/// Zero-based index of the nearest-rank `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The median by the same rule (the lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// SplitMix64: a tiny, well-mixed generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
