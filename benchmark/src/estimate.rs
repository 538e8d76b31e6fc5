//! How a number is estimated from a run's cycles. Part of the benchmark's
//! definition: see README.md, "How a number is estimated".

/// Something timed between two calibration slices: a phase round (work =
/// examples) or a first call of a fresh `Func` (work = 1).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub work: f64,
    pub seconds: f64,
    /// Index of the last slice that ended before this started. The slice
    /// after it has index `slice_before + 1`.
    pub slice_before: usize,
}

impl Timed {
    /// Calibration units per second next to this item: the mean of its two
    /// neighbouring slices.
    fn units_per_s(&self, slices: &[f64]) -> f64 {
        (slices[self.slice_before] + slices[self.slice_before + 1]) / 2.0
    }

    /// Work per thousand calibration units.
    pub fn per_kcu(&self, slices: &[f64]) -> f64 {
        self.work / self.seconds / self.units_per_s(slices) * 1000.0
    }

    /// Calibration units per piece of work.
    pub fn cu(&self, slices: &[f64]) -> f64 {
        self.seconds * self.units_per_s(slices) / self.work
    }
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The gated estimator: the median over cycles of each round's normalised
/// rate. Each round is paired with the slices on either side of it, so a
/// host that changes speed mid-run moves a round and its divisor together.
pub fn paired_median(items: &[Timed], f: impl Fn(&Timed) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// every bound in BENCHMARK.json is compared with.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// The tail of a latency sample: the highest of the listed percentiles that
/// still has at least ten samples beyond it, falling back to the median.
/// Returns `(percentile, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // In hundredths of a percent, so the count beyond is exact.
    for p in [9999usize, 9990, 9900, 9500, 9000] {
        let beyond = n * (10_000 - p) / 10_000;
        if beyond >= 10 {
            return (p as f64 / 100.0, v[n - 1 - beyond]);
        }
    }
    (50.0, median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_median_cancels_a_host_that_halves_its_speed() {
        // Three cycles; in the second the host runs at half speed, so the
        // round does half the work and its slices count half the units.
        let slices = [1000.0, 1000.0, 500.0, 500.0];
        let items = [
            Timed { work: 100.0, seconds: 0.5, slice_before: 0 },
            Timed { work: 50.0, seconds: 0.5, slice_before: 2 },
            Timed { work: 100.0, seconds: 0.5, slice_before: 0 },
        ];
        let raw: Vec<f64> = items.iter().map(|t| t.work / t.seconds).collect();
        assert_eq!(raw, vec![200.0, 100.0, 200.0]);
        for t in &items {
            assert_eq!(t.per_kcu(&slices), 200.0);
        }
        assert_eq!(paired_median(&items, |t| t.per_kcu(&slices)), 200.0);
    }

    #[test]
    fn a_round_uses_the_mean_of_its_two_neighbours() {
        let slices = [1000.0, 3000.0];
        let t = Timed { work: 1.0, seconds: 0.25, slice_before: 0 };
        assert_eq!(t.cu(&slices), 500.0);
        assert_eq!(t.per_kcu(&slices), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 10], n=4) == [-1.25, 5.5, 12.25]
        assert_eq!(quartiles(&[1.0, 10.0]), [-1.25, 5.5, 12.25]);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly ten beyond it, p99.9 leaves one.
        assert_eq!(tail(&v), (99.0, 989.0));
        let v: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 237.0));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 89.0));
        // Too few samples for any tail: the median stands in.
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 49.0));
    }
}
