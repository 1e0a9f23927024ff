//! Order statistics used by every workload: nearest-rank percentiles for
//! latencies and the quartiles Python's `statistics.quantiles(n=4)` gives
//! (its default "exclusive" method), so the spread this benchmark reports
//! is the spread a reader recomputes from the raw samples.

/// Nearest-rank `q`-percentile (`0 < q <= 100`) of `samples`: the
/// smallest sample with at least `q`% of the samples at or below it.
/// Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (`q = 50` nearest rank would bias low on even counts, so this
/// averages the two middle samples like `statistics.median`).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartile, exactly as `statistics.quantiles(data, n=4)`
/// computes them (method "exclusive"). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest of `candidates` (percentiles, ascending) that still has at
/// least ten samples beyond it in a sample of `n`.
pub fn tail_percentile_ok(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q / 100.0) >= 10.0
}

/// Summary of one metric's samples within a run: count, median and
/// quartiles, printed with every result.
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Nearest-rank p90, p95, p99.
    pub tail: [f64; 3],
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let median = median(samples)?;
        let (q1, q3) = quartiles(samples).unwrap_or((median, median));
        let p = |q| percentile(samples, q).unwrap_or(median);
        Some(Summary {
            n: samples.len(),
            median,
            q1,
            q3,
            tail: [p(90.0), p(95.0), p(99.0)],
        })
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}",
            self.n, self.median, self.q1, self.q3, self.tail[0], self.tail[1], self.tail[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 3, 7, 15, 31], n=4) == [2.0, 7.0, 23.0]
        assert_eq!(quartiles(&[31.0, 1.0, 15.0, 3.0, 7.0]), Some((2.0, 23.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_percentile_ok(1000, 99.0));
        assert!(!tail_percentile_ok(999, 99.0));
        assert!(tail_percentile_ok(200, 95.0));
        assert!(!tail_percentile_ok(150, 95.0));
    }
}
