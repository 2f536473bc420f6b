//! Order statistics and digests shared by the workloads and `compare`.

/// Sub-buckets per power of two: values below `2^(SUB_BITS + 1)` are
/// counted exactly, larger ones to within a relative `2^-SUB_BITS`.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear histogram of durations in nanoseconds. Its memory is
/// fixed, so a long run costs no more resident memory than a short one.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB], total: 0 }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize - SUB)
    }

    /// The smallest value counted in bucket `i`.
    fn lower(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let shift = (i >> SUB_BITS) - 1;
        (((i & (SUB - 1)) + SUB) as u64) << shift
    }

    /// Counts one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Values counted.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile, `p` in `(0, 1]`: the (bucket of the)
    /// smallest value with at least `p` of the sample at or below it.
    /// Zero when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64 * p).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(i);
            }
        }
        unreachable!("rank {rank} is within the {} counted values", self.total)
    }
}

/// The three quartiles of `values` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method). Needs at least two values; one value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The `q`-quantile of `values`, `q` in [0, 1], interpolating linearly
/// between the closest ranks. NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let Some(last) = data.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = last as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    data[lo] + (data[hi] - data[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn nearest_rank_percentiles() {
        let h = hist(&(1..=100).rev().collect::<Vec<_>>());
        let got: Vec<u64> = [0.5, 0.99, 0.991, 1.0].iter().map(|&p| h.percentile(p)).collect();
        assert_eq!(got, vec![50, 99, 100, 100]);
        assert_eq!(hist(&[7]).percentile(0.01), 7);
        assert_eq!(Histogram::default().percentile(0.5), 0);
        // Ten values: p50 is the 5th smallest, p99 the 10th.
        let ten = hist(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3]);
        assert_eq!((ten.percentile(0.5), ten.percentile(0.99)), (3, 9));
    }

    #[test]
    fn large_values_land_within_the_bucket_precision() {
        let values: Vec<u64> =
            (0..5000u64).map(|i| (i.wrapping_mul(2_654_435_761) % 1_000_003) * 997 + 1).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let a = hist(&values);
        assert_eq!(a.len(), 5000);
        for p in [0.01f64, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[(5000.0 * p).ceil() as usize - 1];
            let got = a.percentile(p);
            assert!(got <= exact && exact - got <= exact >> SUB_BITS, "p{p}: {got} vs {exact}");
        }
        for v in [0, 1, 1023, 1024, 2047, 2048, 2049, 1 << 40, u64::MAX] {
            let lower = Histogram::lower(Histogram::index(v));
            assert!(lower <= v && v - lower <= v >> SUB_BITS, "{v} -> {lower}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!((quantile(&xs, 0.1), quantile(&xs, 0.9)), (1.0, 9.0));
        assert_eq!(quantile(&[10.0, 20.0], 0.1), 11.0);
    }
}
