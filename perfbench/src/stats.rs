//! Sample buffers, quantiles and process memory readings.

use std::time::Duration;

/// A preallocated buffer of timings in microseconds: recording never
/// allocates inside a timed phase.
#[derive(Debug, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

/// A percentile with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, elapsed: Duration) {
        self.values.push(elapsed.as_secs_f64() * 1e6);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn summary(&self) -> Summary {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Summary {
            p50: quantile(&sorted, 0.5),
            p99: quantile(&sorted, 0.99),
            n: sorted.len(),
        }
    }

    pub fn p50(&self) -> f64 {
        self.summary().p50
    }

    /// The mean of the middle 80% of the samples. For timings that fall
    /// into two modes, as set-ups and restarts do (the server's accept
    /// loop polls every millisecond, so a first connection waits either
    /// not at all or a whole poll), the median jumps between the modes
    /// with the share that lands in each, while this moves only by that
    /// share times the gap; trimming keeps a rare stall out.
    pub fn trimmed_mean(&self) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let cut = sorted.len() / 10;
        let middle = &sorted[cut..sorted.len() - cut];
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// Linear interpolation between the closest ranks of sorted data; NaN
/// when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        let mut s = Samples::with_capacity(10);
        for us in [1, 1, 1, 1, 1, 2, 2, 2, 2, 1_000] {
            s.push(Duration::from_micros(us));
        }
        assert!((s.trimmed_mean() - 1.5).abs() < 1e-9);
    }
}
