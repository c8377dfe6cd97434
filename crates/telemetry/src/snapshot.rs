//! Point-in-time captures of a [`Registry`](crate::Registry) with
//! interval (diff) semantics.

use crate::json::Value;
use crate::registry::Histogram;

/// An immutable capture of every series in a registry. Two snapshots of
/// the same registry can be [diffed](Snapshot::diff) to meter exactly one
/// experiment phase.
///
/// Each kind of series is one exact-size slice sorted by name: workloads
/// keep a snapshot per operation, and a B-tree's spare node slots (eleven
/// 552-byte [`Histogram`]s for a map of three) were most of one's size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: Box<[(Box<str>, u64)]>,
    gauges: Box<[(Box<str>, i64)]>,
    histograms: Box<[(Box<str>, Histogram)]>,
}

/// The value of series `name` in a name-sorted slice.
fn find<'a, V>(series: &'a [(Box<str>, V)], name: &str) -> Option<&'a V> {
    let i = series.binary_search_by(|(k, _)| (**k).cmp(name)).ok()?;
    Some(&series[i].1)
}

impl Snapshot {
    /// Captures series given in ascending name order (as a
    /// `BTreeMap` iterates them).
    pub(crate) fn from_sorted<'a>(
        counters: impl ExactSizeIterator<Item = (&'a String, &'a u64)>,
        gauges: impl ExactSizeIterator<Item = (&'a String, &'a i64)>,
        histograms: impl ExactSizeIterator<Item = (&'a String, &'a Histogram)>,
    ) -> Self {
        Snapshot {
            counters: counters.map(|(k, &v)| (k.as_str().into(), v)).collect(),
            gauges: gauges.map(|(k, &v)| (k.as_str().into(), v)).collect(),
            histograms: histograms.map(|(k, h)| (k.as_str().into(), h.clone())).collect(),
        }
    }

    /// Counter value at capture time (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        find(&self.counters, name).copied().unwrap_or(0)
    }

    /// Gauge value at capture time (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        find(&self.gauges, name).copied().unwrap_or(0)
    }

    /// Histogram at capture time, if the series exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        find(&self.histograms, name)
    }

    /// Every counter, in ascending name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (&**k, *v))
    }

    /// Every gauge, in ascending name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (&**k, *v))
    }

    /// Every histogram, in ascending name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (&**k, h))
    }

    /// Keeps only the counters whose name satisfies `keep`.
    pub fn retain_counters(&mut self, mut keep: impl FnMut(&str) -> bool) {
        let counters = std::mem::take(&mut self.counters);
        self.counters = counters.into_vec().into_iter().filter(|(k, _)| keep(k)).collect();
    }

    /// The interval between `earlier` and `self`: counters and histograms
    /// subtract (saturating, so series born after `earlier` pass through),
    /// gauges keep the later value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let d = match earlier.histogram(k) {
                    Some(e) => h.diff(e),
                    None => h.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot { counters, gauges: self.gauges.clone(), histograms }
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
