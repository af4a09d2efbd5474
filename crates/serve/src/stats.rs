//! Latency summaries for the load generator and the bench harness.

use axnn_obs::json::{join, num};
use axnn_obs::{Hist, HistSpec};

/// Nearest-rank percentile over an already **sorted** slice: the smallest
/// sample such that at least `p`% of the distribution is ≤ it (the
/// convention the workspace reports use — no interpolation, every quoted
/// latency is one that actually happened).
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// p50/p95/p99 + moments of one latency population, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Arithmetic mean, microseconds.
    pub mean_us: f64,
    /// Worst observed sample, microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes a sample population (consumes and sorts it).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let count = samples.len();
        let mean_us = samples.iter().sum::<f64>() / count as f64;
        LatencySummary {
            count,
            p50_us: percentile_sorted(&samples, 50.0),
            p95_us: percentile_sorted(&samples, 95.0),
            p99_us: percentile_sorted(&samples, 99.0),
            mean_us,
            max_us: samples[count - 1],
        }
    }

    /// The summary's fields as hand-written JSON members (no braces), for
    /// embedding into a larger object.
    pub fn json_members(&self) -> String {
        format!(
            "\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"mean_us\": {}, \"max_us\": {}",
            self.count,
            num(self.p50_us),
            num(self.p95_us),
            num(self.p99_us),
            num(self.mean_us),
            num(self.max_us),
        )
    }
}

/// One server-reported stage's latency population: a summary plus a
/// fixed-geometry histogram (the server's metrics-window geometry, so
/// client-observed and server-observed distributions line up bucket for
/// bucket).
#[derive(Debug, Clone)]
pub struct Stage {
    /// Nearest-rank percentile summary, microseconds.
    pub summary: LatencySummary,
    /// Fixed-geometry histogram of the same samples.
    pub hist: Hist,
}

impl Stage {
    /// Summarizes `samples` and records every one into a fresh `spec`
    /// histogram.
    pub fn from_samples(samples: Vec<f64>, spec: HistSpec) -> Stage {
        let mut hist = Hist::new(spec);
        hist.record_all(samples.iter().copied());
        Stage {
            summary: LatencySummary::from_samples(samples),
            hist,
        }
    }

    /// `{"summary": {...}, "hist": {...}}` — the hist with its geometry,
    /// bucket counts and the samples that fell outside `[lo, hi)`.
    pub fn to_json(&self) -> String {
        let spec = self.hist.spec();
        format!(
            "{{\"summary\": {{{}}}, \"hist\": {{\"lo\": {}, \"hi\": {}, \
             \"buckets\": {}, \"counts\": [{}], \"underflow\": {}, \"overflow\": {}}}}}",
            self.summary.json_members(),
            num(spec.lo),
            num(spec.hi),
            spec.buckets,
            join(self.hist.bucket_counts(), ", "),
            self.hist.underflow(),
            self.hist.overflow(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_records_every_sample_in_the_given_geometry() {
        let stage = Stage::from_samples(vec![100.0, 200.0, 300.0], HistSpec::new(0.0, 1000.0, 10));
        assert_eq!(stage.summary.count, 3);
        assert_eq!(stage.hist.spec().buckets, 10);
        let counts = stage.hist.bucket_counts();
        assert_eq!(counts.len(), 10);
        assert_eq!(counts.iter().sum::<u64>(), 3);
        // Out-of-range samples are counted too, as under/overflow.
        let wide = Stage::from_samples(vec![-5.0, 5e9], crate::server::compute_spec());
        assert_eq!(wide.hist.count(), 2);
        assert_eq!((wide.hist.underflow(), wide.hist.overflow()), (1, 1));
        assert_eq!(wide.hist.spec(), crate::server::compute_spec());
    }

    #[test]
    fn empty_population_is_all_zeros() {
        assert_eq!(LatencySummary::from_samples(Vec::new()).count, 0);
    }

    #[test]
    fn nearest_rank_on_a_known_population() {
        // 1..=100: nearest-rank pX is exactly X.
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = LatencySummary::from_samples(samples);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p95_us, 95.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
        assert_eq!(s.mean_us, 50.5);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let s = LatencySummary::from_samples(vec![7.5]);
        assert_eq!(
            (s.p50_us, s.p95_us, s.p99_us, s.max_us),
            (7.5, 7.5, 7.5, 7.5)
        );
    }

    #[test]
    fn percentile_p0_and_p100_hit_the_extremes() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        // p=0 rounds its rank of 0 up to the first sample (nearest-rank
        // percentiles are always real samples, never an extrapolation)...
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        // ...and p=100 is exactly the max, never past the end.
        assert_eq!(percentile_sorted(&sorted, 100.0), 4.0);
        // Out-of-range p stays clamped to the population.
        assert_eq!(percentile_sorted(&sorted, 250.0), 4.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_single_sample_answers_every_p() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_sorted(&[42.0], p), 42.0, "p={p}");
        }
    }

    #[test]
    fn percentile_duplicates_do_not_skew_the_rank() {
        // Eight duplicates then two outliers: p50 must sit in the
        // duplicate mass, p95/p100 on the outliers.
        let sorted = [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 9.0, 11.0];
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 80.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 90.0), 9.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 11.0);
        let all_same = [3.0; 7];
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_sorted(&all_same, p), 3.0);
        }
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let s = LatencySummary::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.p50_us, 2.0);
        assert_eq!(s.max_us, 3.0);
    }
}
