//! Reductions of per-step samples: the median, plus the highest tail
//! percentile that still has at least ten samples beyond it.

/// Tail percentiles considered, highest first.
const TAIL_LADDER: &[f64] = &[99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A reduced sample set; the count always travels with the figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples reduced.
    pub n: usize,
    /// Their median.
    pub median: f64,
    /// `(percentile, value)` of the highest tail percentile with at
    /// least [`TAIL_MIN_BEYOND`] samples beyond it, if any qualifies.
    pub tail: Option<(f64, f64)>,
    /// Smallest and largest sample.
    pub range: (f64, f64),
}

impl Summary {
    /// Reduce `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_LADDER
            .iter()
            .find(|&&p| (n as f64 * (1.0 - p / 100.0)).floor() as usize >= TAIL_MIN_BEYOND)
            .map(|&p| (p, quantile(&sorted, p / 100.0)));
        Some(Summary {
            n,
            median: quantile(&sorted, 0.5),
            tail,
            range: (sorted[0], sorted[n - 1]),
        })
    }

    /// One line for the report: median, sample count and the tail (or
    /// why there is none).
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.6} {unit}"),
            None => format!("no tail percentile: fewer than {TAIL_MIN_BEYOND} samples beyond p75"),
        };
        format!(
            "median {:.6} {unit} over n = {} (range {:.6} to {:.6}); {tail}",
            self.median, self.n, self.range.0, self.range.1
        )
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_reports_its_sample_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
        assert_eq!(Summary::of(&[4.0, 1.0, 2.0, 3.0]).unwrap().median, 2.5);
        assert!(Summary::of(&[]).is_none());
        assert!(s.describe("s").contains("n = 3"));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).unwrap().tail, None);
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = Summary::of(&samples).unwrap().tail.unwrap();
        assert_eq!(p, 75.0);
        assert!(samples.iter().filter(|&&x| x > v).count() >= TAIL_MIN_BEYOND);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).unwrap().tail.unwrap().0, 99.0);
    }
}
