//! The metric catalogue, the result line, and the simulated-statistics
//! digest.

use pacman_telemetry::bin::fnv1a;
use pacman_telemetry::json::{to_jsonl_line, Value};

/// End-to-end metrics, printed by an untraced run (`--trace 0`) of every
/// workload: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pac_tests_per_cpu_s", "tests/cpu_s"),
    ("op_p50_cpu_ms", "ms"),
    ("op_p95_cpu_ms", "ms"),
    ("sim_instr_per_cpu_s", "instr/cpu_s"),
    ("sim_ms_per_pac_test", "sim_ms"),
    ("verdict_accuracy", "fraction"),
    ("ok_op_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`) of every
/// workload. README.md gives each one's definition and the end-to-end
/// metric it should move; a layer the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("qarma.pac_ns", "ns"),
    ("qarma.batch_ns_per_lane", "ns"),
    ("uarch.pac_memo_misses_per_op", "count"),
    ("uarch.host_ns_per_instr", "ns"),
    ("uarch.retired_per_pac_test", "instr"),
    ("uarch.cycles_per_pac_test", "cycles"),
    ("uarch.block.hit_ratio", "fraction"),
    ("uarch.pac_memo.hit_ratio", "fraction"),
    ("uarch.dtlb.miss_ratio", "fraction"),
    ("uarch.l2tlb.miss_ratio", "fraction"),
    ("uarch.walks_per_kinstr", "count"),
    ("uarch.l1d.miss_ratio", "fraction"),
    ("uarch.spec.episodes_per_pac_test", "count"),
    ("uarch.phase.decode_ns_per_instr", "ns"),
    ("uarch.phase.dispatch_ns_per_instr", "ns"),
    ("uarch.phase.memory_ns_per_instr", "ns"),
    ("uarch.phase.qarma_ns_per_instr", "ns"),
    ("kernel.syscalls_per_pac_test", "count"),
    ("core.trial_us", "us"),
    ("core.shard_setup_us", "us"),
    ("core.boot_ms", "ms"),
    ("core.pool.reboots_per_op", "count"),
    ("core.pool.fresh_boots_per_op", "count"),
    ("core.pool.fresh_frames_per_op", "count"),
    ("core.pool.seeded_boots_per_op", "count"),
    ("core.snapshot_us", "us"),
    ("core.restore_us", "us"),
    ("core.snapshot_bytes", "bytes"),
    ("runner.shards_per_op", "count"),
    ("runner.first_shard_ms", "ms"),
    ("runner.last_shard_gap_ms", "ms"),
    ("runner.empty_campaign_us", "us"),
    ("runner.retries", "count"),
    ("daemon.accept_ms", "ms"),
    ("daemon.queue_ms", "ms"),
    ("daemon.run_ms", "ms"),
    ("daemon.bulk_job_ms", "ms"),
    ("daemon.backpressure", "count"),
    ("daemon.checkpoints_per_s", "1/s"),
    ("daemon.snapshot_bytes", "bytes"),
    ("daemon.snapshot_load_us", "us"),
    ("cli.records_per_job", "count"),
    ("cli.output_bytes_per_job", "bytes"),
    ("cli.one_shot_ms", "ms"),
    ("telemetry.merge_us", "us"),
    ("telemetry.snapshot_us", "us"),
    ("ledger.campaign_unexplained_pct", "%"),
    ("ledger.job_unexplained_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.generator_late_ms_p95", "ms"),
    ("bench.wall_op_p50_ms", "ms"),
    ("bench.wall_op_p95_ms", "ms"),
    ("bench.steal_pct", "%"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong output.
    pub failed: u64,
    /// Output checks that are not tied to one operation (e.g. a
    /// determinism or byte-identity check) and failed.
    pub check_failures: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records metric `name` (which must be in the run's catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records a failed check that invalidates the run.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.check_failures.push(what.into());
    }

    /// The result line for `catalogue`: every catalogue metric exactly
    /// once, with its unit. A missing, duplicated, unknown or non-finite
    /// metric is a defect of this benchmark and panics.
    pub fn line(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        for (name, _) in &self.values {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in this run's catalogue"
            );
        }
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                assert!(valid_name(name) && valid_unit(unit), "bad metric {name} [{unit}]");
                let mut found = self.values.iter().filter(|(n, _)| *n == name);
                let (_, value) = found.next().unwrap_or_else(|| panic!("metric {name} missing"));
                assert!(found.next().is_none(), "metric {name} set twice");
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                let entry = vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::str(unit)),
                ];
                (name.to_string(), Value::Object(entry))
            })
            .collect();
        let correct = self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0;
        to_jsonl_line(&Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    }
}

/// The simulated statistics one operation produced, in [`SimStats::KEYS`]
/// order. They depend only on the operation's inputs, never on host
/// timing, worker count or pool state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats([u64; SimStats::KEYS.len()]);

impl SimStats {
    /// Digest keys. `cpu.cycles` counts the simulated cycles spent inside
    /// PAC tests (the shards' machine-lifetime cycle gauges do not add
    /// up); `pac.tests` counts oracle tests or brute-force guesses and
    /// `pac.verdicts_matching` those whose verdict matched ground truth
    /// (oracle tests) or windows whose result did (brute force).
    pub const KEYS: [&'static str; 23] = [
        "cpu.retired",
        "cpu.cycles",
        "cpu.syscalls",
        "tlb.dtlb.hits",
        "tlb.dtlb.misses",
        "tlb.l2.hits",
        "tlb.l2.misses",
        "tlb.walks",
        "tlb.itlb.user.misses",
        "tlb.itlb.kernel.misses",
        "cache.l1i.misses",
        "cache.l1d.hits",
        "cache.l1d.misses",
        "cache.l2.hits",
        "cache.l2.misses",
        "exec.block.hits",
        "exec.block.misses",
        "exec.pac.memo_hits",
        "exec.pac.memo_misses",
        "spec.episodes",
        "spec.insts",
        "pac.tests",
        "pac.verdicts_matching",
    ];

    /// Builds the stats from a counter lookup (registry counters) plus the
    /// three values that are not plain counters.
    pub fn new(counter: impl Fn(&str) -> u64, test_cycles: u64, tests: u64, matching: u64) -> Self {
        SimStats(std::array::from_fn(|i| match Self::KEYS[i] {
            "cpu.cycles" => test_cycles,
            "pac.tests" => tests,
            "pac.verdicts_matching" => matching,
            key => counter(key),
        }))
    }

    /// The value of digest key `key`.
    pub fn get(&self, key: &str) -> u64 {
        let i = Self::KEYS.iter().position(|k| *k == key).expect("digest key");
        self.0[i]
    }

    /// Adds `other` key by key.
    pub fn add(&mut self, other: &SimStats) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// `num` per `den` key, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0 {
            0.0
        } else {
            self.get(num) as f64 / d as f64
        }
    }

    /// Misses over accesses for a hits/misses counter pair.
    pub fn miss_ratio(&self, hits: &str, misses: &str) -> f64 {
        let total = self.get(hits) + self.get(misses);
        if total == 0 {
            0.0
        } else {
            self.get(misses) as f64 / total as f64
        }
    }
}

/// The per-operation statistics of one full cycle of a workload's
/// inputs: what a simulator-only change must leave identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// One entry per input of the cycle, in input order.
    pub per_op: Vec<SimStats>,
}

impl Digest {
    /// Key-wise totals over the cycle.
    pub fn total(&self) -> SimStats {
        let mut t = SimStats::default();
        for s in &self.per_op {
            t.add(s);
        }
        t
    }

    /// FNV-1a over every per-operation value, in order.
    pub fn fingerprint(&self) -> u64 {
        let bytes: Vec<u8> =
            self.per_op.iter().flat_map(|s| s.0.iter().flat_map(|v| v.to_le_bytes())).collect();
        fnv1a(&bytes)
    }

    /// The digest line printed ahead of the result line.
    pub fn line(&self, workload: &str, seed: u64) -> String {
        let total = self.total();
        let counters =
            SimStats::KEYS.iter().map(|k| ((*k).to_string(), Value::UInt(total.get(k)))).collect();
        to_jsonl_line(&Value::Object(vec![(
            "digest".into(),
            Value::Object(vec![
                ("workload".into(), Value::str(workload)),
                ("seed".into(), Value::UInt(seed)),
                ("ops".into(), Value::UInt(self.per_op.len() as u64)),
                ("fnv1a".into(), Value::str(format!("{:#018x}", self.fingerprint()))),
                ("counters".into(), Value::Object(counters)),
            ]),
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_telemetry::json::parse;

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| n).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        assert!(!valid_name("op p50"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("uarch.phase.decode_ns_per_instr"));
        assert!(!valid_unit("ms per op"));
        assert!(valid_unit("1/s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, want, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let mut r = Report { attempted: 3, ..Report::default() };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        let v = parse(r.line(END_TO_END).trim_end()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        let m = v.get("metrics").unwrap().get("op_p95_cpu_ms").unwrap();
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(3.5));
        r.fail_check("stream diverged");
        let v = parse(r.line(END_TO_END).trim_end()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn a_missing_metric_is_a_defect() {
        Report { attempted: 1, ..Report::default() }.line(END_TO_END);
    }
}
