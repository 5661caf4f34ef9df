//! Order statistics over timing and error samples.

use std::time::Duration;

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between the two closest ranks (the "linear" method of NumPy's
/// `percentile`). Sorts a copy; `None` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, p)
}

/// [`quantile`] over an already ascending slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    let frac = rank - below as f64;
    Some(sorted[below] + (sorted[above] - sorted[below]) * frac)
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The median over consecutive windows of `window` values of each
/// window's `p`-quantile. A window is a stretch of a run; a stall of the
/// machine that covers less than half the windows leaves this figure
/// alone, while a change to the program that slows half the windows or
/// more moves it. A trailing partial window is dropped unless it is the
/// only one.
pub fn windowed_quantile(values: &[f64], window: usize, p: f64) -> Option<f64> {
    let window = window.max(1);
    let per_window: Vec<f64> = if values.len() < 2 * window {
        vec![quantile(values, p)?]
    } else {
        values
            .chunks_exact(window)
            .filter_map(|w| quantile(w, p))
            .collect()
    };
    median(&per_window)
}

/// Splits a closed loop into slices and reports the median over slices of
/// their rates (operations per busy second) and of their latency
/// quantiles.
#[derive(Debug)]
pub struct Slicer {
    slice: Duration,
    busy: Duration,
    ops: u64,
    latencies: Vec<f64>,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p90s: Vec<f64>,
    samples: usize,
}

/// The median-over-slices figures of a [`Slicer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceSummary {
    pub rate_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub slices: usize,
    pub samples: usize,
}

impl Slicer {
    /// Slices closed only by [`Slicer::close`].
    pub fn per_pass() -> Self {
        Self::new(Duration::MAX)
    }

    /// Slices of `slice` busy time each.
    pub fn new(slice: Duration) -> Self {
        Self {
            slice,
            busy: Duration::ZERO,
            ops: 0,
            latencies: Vec::new(),
            rates: Vec::new(),
            p50s: Vec::new(),
            p90s: Vec::new(),
            samples: 0,
        }
    }

    /// Record `ops` operations that kept the loop busy for `busy`, with
    /// the latency (µs) of the call when it is one the workload reports.
    pub fn record(&mut self, busy: Duration, ops: u64, latency_us: Option<f64>) {
        self.busy += busy;
        self.ops += ops;
        self.latencies.extend(latency_us);
        if self.busy >= self.slice {
            self.close();
        }
    }

    /// Close the open slice, if it holds anything. A workload that runs
    /// a fixed stream of work several times makes its slicer with
    /// [`Slicer::per_pass`] and closes one slice per pass, so that every
    /// slice covers the same work in every run.
    pub fn close(&mut self) {
        if self.busy > Duration::ZERO {
            self.rates.push(self.ops as f64 / self.busy.as_secs_f64());
        }
        if let (Some(p50), Some(p90)) = (
            quantile(&self.latencies, 0.5),
            quantile(&self.latencies, 0.9),
        ) {
            self.p50s.push(p50);
            self.p90s.push(p90);
        }
        self.samples += self.latencies.len();
        self.busy = Duration::ZERO;
        self.ops = 0;
        self.latencies.clear();
    }

    /// Median figures over the closed slices; a trailing open slice
    /// counts only when no slice was closed.
    pub fn finish(mut self) -> SliceSummary {
        if self.rates.is_empty() {
            self.close();
        }
        let nan = f64::NAN;
        SliceSummary {
            rate_per_s: median(&self.rates).unwrap_or(nan),
            p50_us: median(&self.p50s).unwrap_or(nan),
            p90_us: median(&self.p90s).unwrap_or(nan),
            slices: self.rates.len(),
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_uniform_ladder() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&v, 0.99).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn windowed_quantile_is_the_median_window() {
        // Ten windows of 100 values 1..=100; four windows stall at 10_000.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100 + 1)).collect();
        for x in &mut v[200..600] {
            *x = 10_000.0;
        }
        let pooled = quantile(&v, 0.9).unwrap();
        assert!(pooled > 1_000.0, "{pooled}");
        let windowed = windowed_quantile(&v, 100, 0.9).unwrap();
        assert!((windowed - 90.1).abs() < 1e-9, "{windowed}");
        // Six stalled windows of ten: the figure moves.
        for x in &mut v[600..800] {
            *x = 10_000.0;
        }
        assert_eq!(windowed_quantile(&v, 100, 0.9), Some(10_000.0));
        // Too few values for two windows: the plain quantile.
        assert_eq!(
            windowed_quantile(&v[..150], 100, 0.5),
            quantile(&v[..150], 0.5)
        );
        assert_eq!(windowed_quantile(&[], 100, 0.5), None);
    }

    #[test]
    fn slicer_reports_the_median_slice() {
        let ms = Duration::from_millis;
        let run = |stalled: &[usize]| {
            let mut s = Slicer::new(ms(10));
            // Five slices of 10 ms: a fast one does 100 ops at 1 µs
            // latency, a slow one 10 ops at 1000 µs.
            for slice in 0..5 {
                let (n, lat) = if stalled.contains(&slice) {
                    (10, 1000.0)
                } else {
                    (100, 1.0)
                };
                for _ in 0..n {
                    s.record(ms(10) / n, 1, Some(lat));
                }
            }
            s.record(ms(1), 1, Some(5.0)); // a trailing partial slice
            s.finish()
        };
        let sum = run(&[1, 3]);
        assert_eq!(sum.slices, 5);
        assert_eq!(sum.samples, 320);
        assert!(
            (sum.rate_per_s - 10_000.0).abs() < 1e-6,
            "{}",
            sum.rate_per_s
        );
        assert_eq!((sum.p50_us, sum.p90_us), (1.0, 1.0));
        // Slow in three slices of five: the figures move.
        let sum = run(&[0, 2, 4]);
        assert!((sum.rate_per_s - 1_000.0).abs() < 1e-6);
        assert_eq!((sum.p50_us, sum.p90_us), (1000.0, 1000.0));

        // Fewer ops than one slice: the partial slice is the answer.
        let mut s = Slicer::new(ms(100));
        s.record(ms(2), 4, Some(3.0));
        s.record(ms(2), 0, Some(5.0));
        let sum = s.finish();
        assert_eq!(sum.slices, 1);
        assert!((sum.rate_per_s - 1_000.0).abs() < 1e-9);
        assert_eq!(sum.p50_us, 4.0);
    }

    #[test]
    fn slicer_per_pass_closes_by_hand() {
        let us = Duration::from_micros;
        let mut s = Slicer::per_pass();
        for pass in 1..=3u64 {
            for _ in 0..4 {
                s.record(us(10 * pass), 1, None);
            }
            s.record(us(5), 0, Some(pass as f64));
            s.close();
        }
        s.close(); // nothing open: no empty slice
        assert_eq!(s.rates.len(), 3);
        assert!((s.rates[1] - 4.0 / 85e-6).abs() < 1e-6);
        assert_eq!(s.p50s, [1.0, 2.0, 3.0]);
        assert_eq!(s.finish().p50_us, 2.0);
    }
}
