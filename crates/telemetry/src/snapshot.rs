//! Point-in-time captures of a [`Registry`](crate::Registry) with
//! interval (diff) semantics.

use std::fmt;

use crate::json::Value;
use crate::registry::Histogram;

/// An immutable capture of every series in a registry. Two snapshots of
/// the same registry can be [diffed](Snapshot::diff) to meter exactly one
/// experiment phase.
///
/// Workloads keep a snapshot per operation, so it is stored compactly:
/// each kind of series is one exact-size slice sorted by name (a B-tree's
/// spare node slots — eleven 552-byte [`Histogram`]s for a map of three —
/// were once most of a snapshot's size), and every series name lives in
/// one shared buffer that each series indexes by range. A snapshot is
/// thus four heap allocations however many series it holds. Equality
/// compares the series, not the buffer.
#[derive(Clone, Default)]
pub struct Snapshot {
    /// Every series name back to back.
    names: Box<str>,
    counters: Box<[(Name, u64)]>,
    gauges: Box<[(Name, i64)]>,
    histograms: Box<[(Name, Histogram)]>,
}

/// A series name: its byte range in [`Snapshot::names`].
#[derive(Copy, Clone, Debug, Default)]
struct Name {
    start: u32,
    end: u32,
}

impl Snapshot {
    /// Captures series given in ascending name order (as a
    /// `BTreeMap` iterates them).
    ///
    /// # Panics
    ///
    /// Panics if the names add up to 4 GiB or more.
    pub(crate) fn from_sorted<'a>(
        counters: impl ExactSizeIterator<Item = (&'a String, &'a u64)>,
        gauges: impl ExactSizeIterator<Item = (&'a String, &'a i64)>,
        histograms: impl ExactSizeIterator<Item = (&'a String, &'a Histogram)>,
    ) -> Self {
        let mut names = String::new();
        let mut name = |k: &str| {
            let offset = |len: usize| u32::try_from(len).expect("snapshot names fit in 4 GiB");
            let start = offset(names.len());
            names.push_str(k);
            Name { start, end: offset(names.len()) }
        };
        let counters = counters.map(|(k, &v)| (name(k), v)).collect();
        let gauges = gauges.map(|(k, &v)| (name(k), v)).collect();
        let histograms = histograms.map(|(k, h)| (name(k), h.clone())).collect();
        Snapshot { names: names.into_boxed_str(), counters, gauges, histograms }
    }

    fn name(&self, n: Name) -> &str {
        &self.names[n.start as usize..n.end as usize]
    }

    /// The value of series `name` in one of this snapshot's name-sorted
    /// slices.
    fn find<'a, V>(&self, series: &'a [(Name, V)], name: &str) -> Option<&'a V> {
        let i = series.binary_search_by(|&(k, _)| self.name(k).cmp(name)).ok()?;
        Some(&series[i].1)
    }

    /// Counter value at capture time (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.find(&self.counters, name).copied().unwrap_or(0)
    }

    /// Gauge value at capture time (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.find(&self.gauges, name).copied().unwrap_or(0)
    }

    /// Histogram at capture time, if the series exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.find(&self.histograms, name)
    }

    /// Every counter, in ascending name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|&(k, v)| (self.name(k), v))
    }

    /// Every gauge, in ascending name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|&(k, v)| (self.name(k), v))
    }

    /// Every histogram, in ascending name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (self.name(*k), h))
    }

    /// Keeps only the counters whose name satisfies `keep`. The dropped
    /// names stay in the name buffer.
    pub fn retain_counters(&mut self, mut keep: impl FnMut(&str) -> bool) {
        let counters = std::mem::take(&mut self.counters);
        self.counters =
            counters.into_vec().into_iter().filter(|&(k, _)| keep(self.name(k))).collect();
    }

    /// The interval between `earlier` and `self`: counters and histograms
    /// subtract (saturating, so series born after `earlier` pass through),
    /// gauges keep the later value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(k, v)| (k, v.saturating_sub(earlier.counter(self.name(k)))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let d = match earlier.histogram(self.name(*k)) {
                    Some(e) => h.diff(e),
                    None => h.clone(),
                };
                (*k, d)
            })
            .collect();
        Snapshot { names: self.names.clone(), counters, gauges: self.gauges.clone(), histograms }
    }

    /// Serializes the snapshot as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: summary}}`.
    pub fn to_json(&self) -> Value {
        let counters = self.counters().map(|(k, v)| (k.to_string(), Value::UInt(v))).collect();
        let gauges = self.gauges().map(|(k, v)| (k.to_string(), Value::Int(v))).collect();
        let histograms = self
            .histograms()
            .map(|(k, h)| {
                let s = h.summary();
                (
                    k.to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::UInt(s.count)),
                        ("sum".into(), Value::UInt(s.sum)),
                        ("min".into(), Value::UInt(s.min)),
                        ("max".into(), Value::UInt(s.max)),
                        ("mean".into(), Value::Float(s.mean)),
                        ("p50".into(), Value::UInt(s.p50)),
                        ("p95".into(), Value::UInt(s.p95)),
                        ("p99".into(), Value::UInt(s.p99)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.counters().eq(other.counters())
            && self.gauges().eq(other.gauges())
            && self.histograms().eq(other.histograms())
    }
}

impl Eq for Snapshot {}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("counters", &self.counters().collect::<Vec<_>>())
            .field("gauges", &self.gauges().collect::<Vec<_>>())
            .field("histograms", &self.histograms().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.incr_by("tlb.dtlb.hits", 10);
        r.incr_by("tlb.dtlb.misses", 3);
        r.gauge("spec.depth", 4);
        r.observe("lat", 100);
        r.observe("lat", 200);
        r
    }

    #[test]
    fn diff_subtracts_counters_and_keeps_new_series() {
        let mut r = sample_registry();
        let before = r.snapshot();
        r.incr_by("tlb.dtlb.hits", 5);
        r.incr("fresh.counter");
        r.observe("lat", 400);
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("tlb.dtlb.hits"), 5);
        assert_eq!(d.counter("tlb.dtlb.misses"), 0);
        assert_eq!(d.counter("fresh.counter"), 1);
        assert_eq!(d.histogram("lat").map(Histogram::count), Some(1));
        assert_eq!(d.histogram("lat").map(Histogram::sum), Some(400));
    }

    #[test]
    fn json_text_is_pinned() {
        // The exact text the B-tree-backed snapshot serialised to: the
        // compact storage must not change a byte of `--metrics-out` output.
        let mut r = sample_registry();
        let before = r.snapshot();
        r.incr_by("tlb.dtlb.hits", 5);
        r.incr("a.first");
        r.observe("lat", 400);
        r.gauge("z.last", -2);
        assert_eq!(
            r.snapshot().to_json().to_string(),
            r#"{"counters":{"a.first":1,"tlb.dtlb.hits":15,"tlb.dtlb.misses":3},"gauges":{"spec.depth":4,"z.last":-2},"histograms":{"lat":{"count":3,"sum":700,"min":100,"max":400,"mean":233.33333333333334,"p50":191,"p95":383,"p99":383}}}"#
        );
        assert_eq!(
            r.snapshot().diff(&before).to_json().to_string(),
            r#"{"counters":{"a.first":1,"tlb.dtlb.hits":5,"tlb.dtlb.misses":0},"gauges":{"spec.depth":4,"z.last":-2},"histograms":{"lat":{"count":1,"sum":400,"min":256,"max":400,"mean":400,"p50":383,"p95":383,"p99":383}}}"#
        );
    }

    #[test]
    fn equality_compares_series_not_the_name_buffer() {
        let mut r = sample_registry();
        r.incr("exec.block.hits");
        let mut filtered = r.snapshot();
        filtered.retain_counters(|name| !name.starts_with("exec."));
        // `filtered` still carries the dropped name in its buffer.
        assert_eq!(filtered, sample_registry().snapshot());
        assert_ne!(r.snapshot(), sample_registry().snapshot());
        let mut other = sample_registry();
        other.incr("tlb.dtlb.misses");
        assert_ne!(other.snapshot(), sample_registry().snapshot(), "values count too");
        // Same values under other names differ.
        let mut renamed = Registry::new();
        renamed.incr_by("tlb.dtlb.hitz", 10);
        renamed.incr_by("tlb.dtlb.misses", 3);
        renamed.gauge("spec.depth", 4);
        renamed.observe("lat", 100);
        renamed.observe("lat", 200);
        assert_ne!(renamed.snapshot(), sample_registry().snapshot());
    }

    #[test]
    fn diff_of_identical_snapshots_is_zero() {
        let r = sample_registry();
        let s = r.snapshot();
        let d = s.diff(&s.clone());
        assert!(d.counters().all(|(_, v)| v == 0));
        assert!(d.histograms().all(|(_, h)| h.count() == 0));
    }

    #[test]
    fn to_json_contains_every_series() {
        let s = sample_registry().snapshot();
        let v = s.to_json();
        let counters = v.get("counters").expect("counters");
        assert_eq!(counters.get("tlb.dtlb.hits").and_then(Value::as_u64), Some(10));
        assert_eq!(
            v.get("gauges").and_then(|g| g.get("spec.depth")).and_then(Value::as_i64),
            Some(4)
        );
        let lat = v.get("histograms").and_then(|h| h.get("lat")).expect("lat");
        assert_eq!(lat.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(lat.get("sum").and_then(Value::as_u64), Some(300));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let s = sample_registry().snapshot();
        let text = s.to_json().to_string();
        let parsed = crate::json::parse(&text).expect("valid json");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("tlb.dtlb.misses")).and_then(Value::as_u64),
            Some(3)
        );
    }
}
