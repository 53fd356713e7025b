//! Measurement collection: histograms and counters.
//!
//! Experiments report latency distributions (p50/p99/p999), throughput, and
//! derived ratios. The log-bucketed histogram gives bounded-memory
//! percentile estimates with ≤ ~2% relative error per bucket, which is far
//! below the effect sizes the paper's claims are about (integer factors).

use std::fmt;

use crate::time::Ns;

/// Number of linear sub-buckets per power-of-two bucket (error ≤ 1/32).
const SUBBUCKETS: u64 = 32;
const SUBBUCKET_BITS: u32 = 5;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use hyperion_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((480..=530).contains(&p50));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUBBUCKETS {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUBBUCKET_BITS;
        let sub = (value >> shift) - SUBBUCKETS;
        ((shift + 1) as u64 * SUBBUCKETS + sub) as usize
    }

    fn bucket_value(index: usize) -> u64 {
        let index = index as u64;
        if index < SUBBUCKETS {
            return index;
        }
        let shift = index / SUBBUCKETS - 1;
        let sub = index % SUBBUCKETS;
        // Upper edge of the bucket (conservative percentile estimate).
        // The topmost bucket's edge is 2^64, which overflows u64 — widen
        // and saturate; callers clamp to the observed max anyway.
        let edge = (((SUBBUCKETS + sub + 1) as u128) << shift) - 1;
        edge.min(u64::MAX as u128) as u64
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration sample.
    pub fn record_ns(&mut self, value: Ns) {
        self.record(value.0);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the exact sample values (not bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at the given percentile (0–100), estimated from bucket edges.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Convenience accessor: (p50, p99, p99.9).
    pub fn tail(&self) -> (u64, u64, u64) {
        (
            self.percentile(50.0),
            self.percentile(99.0),
            self.percentile(99.9),
        )
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p50, p99, p999) = self.tail();
        write!(
            f,
            "n={} mean={:.1} min={} p50={} p99={} p99.9={} max={}",
            self.count,
            self.mean(),
            self.min(),
            p50,
            p99,
            p999,
            self.max
        )
    }
}

/// A labeled monotonically increasing counter set.
///
/// Used by models to count the *structural* quantities the paper argues
/// about: CPU-mediated hops, data copies, DRAM bounces, RTTs.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        for e in &mut self.entries {
            if e.0 == name {
                e.1 += delta;
                return;
            }
        }
        self.entries.push((name, delta));
    }

    /// Increments the named counter by one.
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Returns the value of the named counter (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|e| e.0 == name)
            .map(|e| e.1)
            .unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (name, v) in other.iter() {
            self.add(name, v);
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, v) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={v}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
        assert_eq!(h.tail(), (0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.percentile(0.0), 777);
        assert_eq!(h.percentile(50.0), 777);
        assert_eq!(h.percentile(99.9), 777);
        assert_eq!(h.percentile(100.0), 777);
        assert_eq!(h.tail(), (777, 777, 777));
    }

    #[test]
    fn all_samples_in_the_top_bucket_clamp_to_the_observed_max() {
        // Identical huge samples land in one log bucket whose upper edge
        // is far above the sample; every percentile must clamp to the
        // exact observed max, not the bucket edge.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(u64::MAX - 3);
        }
        assert_eq!(h.percentile(0.0), u64::MAX - 3);
        assert_eq!(h.percentile(50.0), u64::MAX - 3);
        assert_eq!(h.percentile(99.9), u64::MAX - 3);
        assert_eq!(h.max(), u64::MAX - 3);
    }

    #[test]
    fn p999_on_small_n_is_the_max_sample() {
        // With N << 1000 the 99.9th-percentile rank rounds up to the last
        // sample: p999 must equal the max, and the tail stays ordered.
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50_000] {
            h.record(v);
        }
        let (p50, p99, p999) = h.tail();
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(p999, h.max());
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUBBUCKETS {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUBBUCKETS - 1);
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = (p / 100.0 * 100_000.0) as u64;
            let est = h.percentile(p);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.05, "p{p}: est {est} vs exact {exact}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.bump("hops");
        c.add("hops", 2);
        c.bump("copies");
        assert_eq!(c.get("hops"), 3);
        assert_eq!(c.get("copies"), 1);
        assert_eq!(c.get("missing"), 0);
        let mut d = Counters::new();
        d.add("hops", 10);
        c.merge(&d);
        assert_eq!(c.get("hops"), 13);
    }
}
