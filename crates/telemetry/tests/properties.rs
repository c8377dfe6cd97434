//! Property tests for the metrics registry and the JSON layer.

use pacman_telemetry::json::{self, Value};
use pacman_telemetry::{Registry, Snapshot};
use proptest::prelude::*;

/// One recording call against a registry.
#[derive(Clone, Debug)]
enum Op {
    Incr(u8),
    IncrBy(u8, u64),
    Gauge(u8, i64),
    Observe(u8, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Incr),
        (0u8..8, any::<u64>()).prop_map(|(k, v)| Op::IncrBy(k, v >> 8)),
        (0u8..8, any::<i64>()).prop_map(|(k, v)| Op::Gauge(k, v)),
        // Shifted so no realistic op sequence saturates a histogram sum,
        // which would break the diff-equals-interval identity below.
        (0u8..8, any::<u64>()).prop_map(|(k, v)| Op::Observe(k, v >> 16)),
    ]
}

fn apply(reg: &mut Registry, ops: &[Op]) {
    for op in ops {
        let name = |k: u8| format!("series.{k}");
        match *op {
            Op::Incr(k) => reg.incr(&name(k)),
            Op::IncrBy(k, v) => reg.incr_by(&name(k), v),
            Op::Gauge(k, v) => reg.gauge(&name(k), v),
            Op::Observe(k, v) => reg.observe(&name(k), v),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn disabled_registry_stays_empty(ops in prop::collection::vec(arb_op(), 0..64)) {
        let mut reg = Registry::disabled();
        apply(&mut reg, &ops);
        prop_assert!(reg.is_empty());
        for k in 0..8u8 {
            prop_assert_eq!(reg.counter_value(&format!("series.{k}")), 0);
            prop_assert_eq!(reg.gauge_value(&format!("series.{k}")), 0);
            prop_assert!(reg.histogram(&format!("series.{k}")).is_none());
        }
        let snap = reg.snapshot();
        prop_assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn diff_of_interval_equals_interval_ops(
        before_ops in prop::collection::vec(arb_op(), 0..32),
        interval_ops in prop::collection::vec(arb_op(), 0..32),
    ) {
        // Recording A, snapshotting, recording B: diff(B-snap, A-snap)
        // must equal recording B alone (counters and histogram counts).
        let mut reg = Registry::new();
        apply(&mut reg, &before_ops);
        let base = reg.snapshot();
        apply(&mut reg, &interval_ops);
        let d = reg.snapshot().diff(&base);

        let mut fresh = Registry::new();
        apply(&mut fresh, &interval_ops);
        let expect = fresh.snapshot();

        for k in 0..8u8 {
            let name = format!("series.{k}");
            prop_assert_eq!(d.counter(&name), expect.counter(&name));
            let got = d.histogram(&name).map(|h| (h.count(), h.sum()));
            let want = expect.histogram(&name).map(|h| (h.count(), h.sum()));
            // A series observed only before the interval diffs to count 0,
            // while the fresh registry never saw it at all.
            prop_assert_eq!(got.unwrap_or((0, 0)), want.unwrap_or((0, 0)));
        }
    }

    #[test]
    fn merge_is_commutative_over_counters_and_histograms(
        ops_a in prop::collection::vec(arb_op(), 0..48),
        ops_b in prop::collection::vec(arb_op(), 0..48),
    ) {
        // Shard merge order must not change exported counters or
        // histograms. (Gauges are deliberately excluded: they are
        // last-writer-wins, so merge order is their semantics.)
        let mut a = Registry::new();
        apply(&mut a, &ops_a);
        let mut b = Registry::new();
        apply(&mut b, &ops_b);

        let mut ab = Registry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Registry::new();
        ba.merge(&b);
        ba.merge(&a);

        let (sab, sba) = (ab.snapshot(), ba.snapshot());
        prop_assert!(sab.counters().eq(sba.counters()));
        prop_assert!(sab.histograms().eq(sba.histograms()));
    }

    #[test]
    fn merge_is_associative_over_all_series(
        ops_a in prop::collection::vec(arb_op(), 0..32),
        ops_b in prop::collection::vec(arb_op(), 0..32),
        ops_c in prop::collection::vec(arb_op(), 0..32),
    ) {
        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c), exported-snapshot-wise. This one
        // covers gauges too: last-writer-wins is associative as long as
        // left-to-right order is preserved.
        let mut a = Registry::new();
        apply(&mut a, &ops_a);
        let mut b = Registry::new();
        apply(&mut b, &ops_b);
        let mut c = Registry::new();
        apply(&mut c, &ops_c);

        let mut left = Registry::new();
        left.merge(&a);
        left.merge(&b);
        let mut left_total = Registry::new();
        left_total.merge(&left);
        left_total.merge(&c);

        let mut right = Registry::new();
        right.merge(&b);
        right.merge(&c);
        let mut right_total = Registry::new();
        right_total.merge(&a);
        right_total.merge(&right);

        let (sl, sr) = (left_total.snapshot(), right_total.snapshot());
        prop_assert_eq!(sl, sr);
    }

    #[test]
    fn snapshot_json_round_trips(ops in prop::collection::vec(arb_op(), 0..64)) {
        let mut reg = Registry::new();
        apply(&mut reg, &ops);
        let snap = reg.snapshot();
        let text = snap.to_json().to_string();
        let parsed = json::parse(&text).expect("serializer emits valid JSON");
        for (name, v) in snap.counters() {
            let got = parsed
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64);
            prop_assert_eq!(got, Some(v));
        }
        for (name, h) in snap.histograms() {
            let got = parsed
                .get("histograms")
                .and_then(|c| c.get(name))
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64);
            prop_assert_eq!(got, Some(h.count()));
        }
    }

    #[test]
    fn arbitrary_strings_survive_json(s in prop::collection::vec(any::<u32>(), 0..24)) {
        let s: String = s
            .into_iter()
            .filter_map(char::from_u32)
            .collect();
        let v = Value::Object(vec![("k".into(), Value::str(s.clone()))]);
        let parsed = json::parse(&v.to_string()).expect("valid");
        prop_assert_eq!(parsed.get("k").and_then(Value::as_str), Some(s.as_str()));
    }
}
