//! The metrics registry: counters, gauges, log₂-bucketed histograms,
//! and scoped timers.

use crate::snapshot::Snapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1`
/// holds values whose bit length is `i`, i.e. `[2^(i-1), 2^i)`.
pub(crate) const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations (latencies in cycles
/// or nanoseconds, speculation depths, set occupancies...).
///
/// Exact count/sum/min/max are tracked alongside the buckets, so the
/// mean is exact and only the percentiles are bucket-resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
    pub(crate) buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
    }
}

fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        _ => (1u64 << (i - 1), ((1u128 << i) - 1) as u64),
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile: the midpoint of the bucket holding the
    /// rank-`q` observation, clamped into `[min, max]`. `q` is in `[0, 1]`.
    ///
    /// Boundary behaviour (pinned by tests):
    /// - **empty histogram** — returns 0, indistinguishable from a
    ///   histogram of zeros; check [`count`](Self::count) first when
    ///   the distinction matters;
    /// - **`q = 0.0`** (and anything below, including `-∞`) — the
    ///   midpoint of the smallest observation's bucket, clamped into
    ///   `[min, max]`; bucket resolution, so not necessarily exactly
    ///   [`min`](Self::min);
    /// - **`q = 1.0`** (and anything above, including `+∞`) — the
    ///   midpoint of the largest observation's bucket, clamped into
    ///   `[min, max]`; never exceeds [`max`](Self::max) but may fall
    ///   below it;
    /// - **NaN** — treated as `q = 0.0` (rank of the smallest
    ///   observation), not a panic and not a sentinel.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return (lo + (hi - lo) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Serialises the histogram through the binary snapshot codec.
    /// Sparse encoding: only non-empty buckets are written.
    pub fn save_bin(&self, w: &mut crate::bin::Writer) {
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.min);
        w.u64(self.max);
        let live = self.buckets.iter().filter(|&&n| n > 0).count();
        w.usize(live);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                w.u8(i as u8);
                w.u64(n);
            }
        }
    }

    /// Rebuilds a histogram written by [`Histogram::save_bin`].
    ///
    /// # Errors
    ///
    /// [`crate::bin::BinError`] on a truncated stream or an
    /// out-of-range bucket index.
    pub fn load_bin(r: &mut crate::bin::Reader<'_>) -> Result<Self, crate::bin::BinError> {
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let mut buckets = [0u64; BUCKETS];
        for _ in 0..r.usize()? {
            let i = r.u8()? as usize;
            let n = r.u64()?;
            let slot = buckets
                .get_mut(i)
                .ok_or_else(|| crate::bin::BinError::Corrupt(format!("bucket index {i}")))?;
            *slot = n;
        }
        Ok(Self { count, sum, min, max, buckets })
    }

    /// Condensed view with the standard percentiles.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// The histogram of observations recorded in `self` but not in
    /// `earlier` (bucket-wise saturating subtraction). `earlier` must be
    /// a prior snapshot of the same series for the result to be
    /// meaningful; min/max are re-derived from the surviving buckets at
    /// bucket resolution.
    pub fn diff(&self, earlier: &Self) -> Self {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for (i, bucket) in buckets.iter_mut().enumerate() {
            let n = self.buckets[i].saturating_sub(earlier.buckets[i]);
            *bucket = n;
            count += n;
            if n > 0 {
                let (lo, hi) = bucket_bounds(i);
                min = min.min(lo);
                max = max.max(hi.min(self.max));
            }
        }
        Self { count, sum: self.sum.saturating_sub(earlier.sum), min, max, buckets }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Exact mean (0.0 when empty).
    pub mean: f64,
    /// Median, at bucket resolution.
    pub p50: u64,
    /// 95th percentile, at bucket resolution.
    pub p95: u64,
    /// 99th percentile, at bucket resolution.
    pub p99: u64,
}

/// A named-metric registry. All mutating entry points branch on the
/// enabled flag first, so a disabled registry costs one branch per call.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    enabled: bool,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// A disabled, empty registry: every recording call is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether recording calls take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off. Already-recorded values are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Adds 1 to a monotonic counter.
    pub fn incr(&mut self, name: &str) {
        self.incr_by(name, 1);
    }

    /// Adds `delta` to a monotonic counter.
    pub fn incr_by(&mut self, name: &str, delta: u64) {
        if self.enabled {
            let c = entry_or_default(&mut self.counters, name);
            *c = c.saturating_add(delta);
        }
    }

    /// Sets a gauge to an instantaneous value.
    pub fn gauge(&mut self, name: &str, value: i64) {
        if self.enabled {
            *entry_or_default(&mut self.gauges, name) = value;
        }
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        if self.enabled {
            entry_or_default(&mut self.histograms, name).observe(value);
        }
    }

    /// Folds a free-standing histogram (e.g. a raw always-on counter
    /// struct maintained outside the registry) into the named series.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        if self.enabled {
            entry_or_default(&mut self.histograms, name).merge(h);
        }
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (0 when never set).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, when at least one observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Runs `f`, recording its wall-clock duration (nanoseconds) into the
    /// named histogram.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.observe(name, ns);
        out
    }

    /// Starts a detached timer; pass it back to [`Registry::stop_timer`]
    /// (or any registry) to record the elapsed nanoseconds. Detached so
    /// the registry stays usable while the timer runs.
    pub fn start_timer(&self, name: impl Into<String>) -> ScopedTimer {
        ScopedTimer { name: name.into(), start: Instant::now() }
    }

    /// Records a [`ScopedTimer`]'s elapsed time into its histogram.
    pub fn stop_timer(&mut self, timer: ScopedTimer) {
        if self.enabled {
            let ns = u64::try_from(timer.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.observe(&timer.name, ns);
        }
    }

    /// Folds every series of `other` into this registry: counters add
    /// (saturating), gauges take `other`'s value (last-writer-wins, in
    /// merge order), histograms fold bucket-wise via
    /// [`Histogram::merge`]. Merging respects this registry's enabled
    /// flag, so a disabled aggregate stays empty.
    pub fn merge(&mut self, other: &Registry) {
        if !self.enabled {
            return;
        }
        for (name, &delta) in &other.counters {
            let c = entry_or_default(&mut self.counters, name);
            *c = c.saturating_add(delta);
        }
        for (name, &value) in &other.gauges {
            *entry_or_default(&mut self.gauges, name) = value;
        }
        for (name, h) in &other.histograms {
            entry_or_default(&mut self.histograms, name).merge(h);
        }
    }

    /// Serialises every series (and the enabled flag) through the
    /// binary snapshot codec.
    pub fn save_bin(&self, w: &mut crate::bin::Writer) {
        w.bool(self.enabled);
        w.usize(self.counters.len());
        for (name, &v) in &self.counters {
            w.str(name);
            w.u64(v);
        }
        w.usize(self.gauges.len());
        for (name, &v) in &self.gauges {
            w.str(name);
            w.i64(v);
        }
        w.usize(self.histograms.len());
        for (name, h) in &self.histograms {
            w.str(name);
            h.save_bin(w);
        }
    }

    /// Rebuilds a registry written by [`Registry::save_bin`].
    ///
    /// # Errors
    ///
    /// [`crate::bin::BinError`] on a truncated or corrupt stream.
    pub fn load_bin(r: &mut crate::bin::Reader<'_>) -> Result<Self, crate::bin::BinError> {
        let enabled = r.bool()?;
        let mut counters = BTreeMap::new();
        for _ in 0..r.usize()? {
            let name = r.str()?;
            counters.insert(name, r.u64()?);
        }
        let mut gauges = BTreeMap::new();
        for _ in 0..r.usize()? {
            let name = r.str()?;
            gauges.insert(name, r.i64()?);
        }
        let mut histograms = BTreeMap::new();
        for _ in 0..r.usize()? {
            let name = r.str()?;
            histograms.insert(name, Histogram::load_bin(r)?);
        }
        Ok(Self { enabled, counters, gauges, histograms })
    }

    /// Captures every series into an immutable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_sorted(self.counters.iter(), self.gauges.iter(), self.histograms.iter())
    }

    /// Drops every recorded series (the enabled flag is untouched).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// True when no series has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

fn entry_or_default<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    // Avoids allocating the key on the hot (existing-entry) path.
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("just inserted")
}

/// A running wall-clock timer bound to a histogram name; see
/// [`Registry::start_timer`].
#[derive(Debug)]
#[must_use = "a timer only records when passed to Registry::stop_timer"]
pub struct ScopedTimer {
    name: String,
    start: Instant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter_value("x"), 0);
        r.incr("x");
        r.incr_by("x", 41);
        assert_eq!(r.counter_value("x"), 42);
        assert_eq!(r.counter_value("never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge("depth", 3);
        r.gauge("depth", -7);
        assert_eq!(r.gauge_value("depth"), -7);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::disabled();
        r.incr("c");
        r.gauge("g", 5);
        r.observe("h", 100);
        let t = r.start_timer("t");
        r.stop_timer(t);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn enable_toggle_preserves_history() {
        let mut r = Registry::new();
        r.incr("c");
        r.set_enabled(false);
        r.incr("c");
        r.set_enabled(true);
        r.incr("c");
        assert_eq!(r.counter_value("c"), 2);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(3), (4, 7));
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn histogram_summary_tracks_exact_and_bucketed_stats() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1100);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 220.0).abs() < 1e-9);
        // p50 falls in bucket [16,31] -> midpoint 23.
        assert_eq!(s.p50, 23);
        // p99 falls in the bucket containing 1000, clamped to max.
        assert!(s.p99 >= 512 && s.p99 <= 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().summary();
        assert_eq!((s.count, s.min, s.max, s.p50, s.p99), (0, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn histogram_diff_isolates_the_interval() {
        let mut h = Histogram::new();
        h.observe(5);
        h.observe(9);
        let before = h.clone();
        h.observe(1000);
        h.observe(1001);
        let d = h.diff(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 2001);
        assert_eq!(d.quantile(0.5), 767); // midpoint of [512,1023]
    }

    #[test]
    fn merge_folds_everything_in() {
        let mut a = Histogram::new();
        a.observe(4);
        let mut b = Histogram::new();
        b.observe(1000);
        b.observe(2);
        a.merge(&b);
        assert_eq!((a.count(), a.sum(), a.min(), a.max()), (3, 1006, 2, 1000));
        let mut r = Registry::new();
        r.merge_histogram("h", &a);
        assert_eq!(r.histogram("h").map(Histogram::count), Some(3));
        let mut off = Registry::disabled();
        off.merge_histogram("h", &a);
        assert!(off.is_empty());
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.observe(v * 7 % 513);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn quantile_boundaries_are_pinned() {
        // Empty: 0 for every q, finite or not.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 1.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }

        let mut h = Histogram::new();
        for v in [3u64, 50, 700, 9001] {
            h.observe(v);
        }
        // q=0 (and anything at or below it): bucket [2,3] has midpoint
        // 2, clamped up to min=3. Out-of-range q behaves like 0.0.
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(-1.0), 3);
        assert_eq!(h.quantile(f64::NEG_INFINITY), 3);
        // q=1 (and anything at or above it): bucket [8192,16383] has
        // midpoint 12287, clamped down to max=9001.
        assert_eq!(h.quantile(1.0), 9001);
        assert_eq!(h.quantile(2.0), 9001);
        assert_eq!(h.quantile(f64::INFINITY), 9001);
        // NaN behaves as q=0, without panicking.
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));

        // Bucket resolution, made visible: with observations {33, 50}
        // the q=0 answer is the [32,63] midpoint 47, NOT min=33.
        let mut coarse = Histogram::new();
        coarse.observe(33);
        coarse.observe(50);
        assert_eq!(coarse.quantile(0.0), 47);
        assert_eq!(coarse.quantile(1.0), 47);

        // A single observation answers every quantile with itself.
        let mut one = Histogram::new();
        one.observe(42);
        for q in [0.0, 0.25, 0.5, 1.0, f64::NAN] {
            assert_eq!(one.quantile(q), 42, "single-sample histogram at q={q}");
        }
    }

    #[test]
    fn registry_merge_folds_all_series() {
        let mut a = Registry::new();
        a.incr_by("shared", 2);
        a.incr_by("only_a", 1);
        a.gauge("depth", 3);
        a.observe("lat", 4);
        let mut b = Registry::new();
        b.incr_by("shared", 40);
        b.incr_by("only_b", 7);
        b.gauge("depth", -9);
        b.observe("lat", 1000);
        b.observe("other", 2);
        a.merge(&b);
        assert_eq!(a.counter_value("shared"), 42);
        assert_eq!(a.counter_value("only_a"), 1);
        assert_eq!(a.counter_value("only_b"), 7);
        assert_eq!(a.gauge_value("depth"), -9);
        let lat = a.histogram("lat").expect("merged");
        assert_eq!((lat.count(), lat.sum(), lat.min(), lat.max()), (2, 1004, 4, 1000));
        assert_eq!(a.histogram("other").map(Histogram::count), Some(1));
    }

    #[test]
    fn registry_merge_is_order_insensitive_for_counters_and_histograms() {
        let mut shards = Vec::new();
        for s in 0..4u64 {
            let mut r = Registry::new();
            r.incr_by("trials", s + 1);
            r.observe("misses", s * 100);
            shards.push(r);
        }
        let mut fwd = Registry::new();
        for r in &shards {
            fwd.merge(r);
        }
        let mut rev = Registry::new();
        for r in shards.iter().rev() {
            rev.merge(r);
        }
        assert_eq!(fwd.counter_value("trials"), rev.counter_value("trials"));
        assert!(fwd.snapshot().counters().eq(rev.snapshot().counters()));
        assert_eq!(fwd.histogram("misses"), rev.histogram("misses"));
    }

    #[test]
    fn registry_merge_respects_disabled_aggregate() {
        let mut src = Registry::new();
        src.incr("c");
        let mut off = Registry::disabled();
        off.merge(&src);
        assert!(off.is_empty());
    }

    #[test]
    fn registry_merge_saturates_counters() {
        let mut a = Registry::new();
        a.incr_by("c", u64::MAX - 1);
        let mut b = Registry::new();
        b.incr_by("c", 10);
        a.merge(&b);
        assert_eq!(a.counter_value("c"), u64::MAX);
    }

    #[test]
    fn time_records_a_duration() {
        let mut r = Registry::new();
        let out = r.time("phase.ns", || 7u32);
        assert_eq!(out, 7);
        assert_eq!(r.histogram("phase.ns").map(Histogram::count), Some(1));
    }

    #[test]
    fn clear_keeps_enabled_flag() {
        let mut r = Registry::new();
        r.incr("a");
        r.clear();
        assert!(r.is_empty());
        assert!(r.is_enabled());
    }

    #[test]
    fn registries_round_trip_through_the_binary_codec() {
        let mut reg = Registry::new();
        reg.incr_by("jobs.done", 41);
        reg.gauge("queue.depth", -3);
        for v in [1u64, 1, 8, 1 << 40, u64::MAX] {
            reg.observe("lat.ns", v);
        }
        let mut w = crate::bin::Writer::new();
        reg.save_bin(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::bin::Reader::new(&bytes);
        let back = Registry::load_bin(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(back.counter_value("jobs.done"), 41);
        assert_eq!(back.gauge_value("queue.depth"), -3);
        let (a, b) = (reg.histogram("lat.ns").unwrap(), back.histogram("lat.ns").unwrap());
        assert_eq!(a.summary(), b.summary());
        assert!(back.is_enabled());

        // Truncation at every byte boundary is an error, never a panic.
        for cut in 0..bytes.len() {
            let mut r = crate::bin::Reader::new(&bytes[..cut]);
            assert!(Registry::load_bin(&mut r).is_err(), "cut at {cut}");
        }
    }
}
