//! The statistics every reported number goes through: percentiles and
//! the "ten samples beyond" rule, quartile spread, failure accounting,
//! the seeded generator and the hash behind answers and fingerprints.

/// Nearest-rank percentile (`p` in 0–100) over an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest percentile an `n`-sample run supports: the largest of the
/// usual tail percentiles that still has at least ten samples beyond
/// it. `None` below twenty samples, where even the median has fewer
/// than ten on each side.
pub fn supported_tail(n: usize) -> Option<f64> {
    // In tenths of a percent, so that 100 samples × 10 % is exactly ten.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250), (50.0, 500)]
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= 10_000)
        .map(|(p, _)| p)
}

/// `statistics.quantiles(values, n=4)` of Python (exclusive method):
/// the first and third quartile the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: usize| {
        // 1-based position q*(n+1)/4 with linear interpolation.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds in `BENCHMARK.json` are set from.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// What became of the requests a run attempted. A request that is
/// refused (BUSY after the retry budget), errors or returns the wrong
/// bytes is a failure; it never contributes a latency sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub refused: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.mismatched
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.refused += other.refused;
        self.mismatched += other.mismatched;
    }
}

/// splitmix64: the one seeded source behind request order, literals,
/// churn victims and arrival times. (TPC-H rows come from the
/// generator's own RNG, seeded with the same `--seed`.)
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, fed eight bytes at a time where it can: answers are checked
/// by length and this hash on every response, so it must cost far less
/// than the request it checks (an 8 MB document hashes in about a
/// millisecond).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        std::hash::Hasher::write(&mut h, bytes);
        h.0
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
            self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
        }
        for &b in words.remainder() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0); // ten samples beyond
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 5.5 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn refused_requests_count_as_failures() {
        let t = Tally { attempted: 100, errors: 1, refused: 3, mismatched: 1 };
        assert_eq!(t.failed(), 5);
        assert!((t.failed_frac() - 0.05).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], Rng::new(8).next_u64());
        let mut r = Rng::new(1);
        let mean = (0..20_000).map(|_| r.unit()).sum::<f64>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
    }

    #[test]
    fn fnv_sees_every_byte() {
        let a = Fnv::of(b"<suppliers><supplier/></suppliers>");
        assert_ne!(a, Fnv::of(b"<suppliers><supplier/></supplierz>"));
        assert_ne!(a, Fnv::of(b"<suppliers><supplier/></suppliers> "));
        assert_eq!(a, Fnv::of(b"<suppliers><supplier/></suppliers>"));
    }
}
