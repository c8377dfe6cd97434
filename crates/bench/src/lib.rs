//! The experiment harness.
//!
//! Every table and figure in the paper's evaluation is one row of
//! [`experiments::EXPERIMENTS`] (see DESIGN.md §3 for the index);
//! `pacman-cli reproduce` regenerates them into `results/`, and
//! [`claims`] holds each artefact to the paper. The `harness = false`
//! targets in `benches/` are the performance timing loops; `perf_micro`
//! uses Criterion for wall-clock measurements of the workspace's own
//! hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use pacman_core::fault::{mix64, FaultPlan, FaultSite, RetryPolicy};
use pacman_core::report::{AsciiChart, Table};
use pacman_core::{System, SystemConfig};
use pacman_telemetry::json::Value;

pub mod claims;
pub mod experiments;

/// The standard experiment configuration (OS noise enabled, the attack's
/// default timing source).
pub fn noisy_config() -> SystemConfig {
    SystemConfig::default()
}

/// A noise-free configuration for experiments that need clean statistics.
pub fn quiet_config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    cfg
}

/// Boots a noise-free system for experiments that need clean statistics.
pub fn quiet_system() -> System {
    System::boot(quiet_config())
}

/// The worker count for parallelised experiments (`PACMAN_JOBS`, default:
/// available parallelism), echoed so runs are self-describing.
pub fn jobs() -> usize {
    let jobs = pacman_runner::default_jobs();
    println!("  jobs: {jobs} (override with PACMAN_JOBS)");
    jobs
}

/// Prints the experiment banner.
pub fn banner(id: &str, paper_artifact: &str) {
    println!("==================================================================");
    println!("PACMAN reproduction - {id}: {paper_artifact}");
    println!("==================================================================");
}

/// Prints one paper-vs-measured comparison line.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<46} paper: {paper:<18} measured: {measured}");
}

/// Reads an experiment-scale override from the environment (`PACMAN_<VAR>`).
pub fn scale(var: &str, default: usize) -> usize {
    scale_from(|k| std::env::var(k).ok(), var, default)
}

/// [`scale`] with an injected lookup, so tests can exercise the parsing
/// without mutating process-global environment state.
pub fn scale_from(lookup: impl Fn(&str) -> Option<String>, var: &str, default: usize) -> usize {
    lookup(&format!("PACMAN_{var}")).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Asserts with a visible PASS/FAIL line instead of a bare panic, then
/// panics on failure so `cargo bench` reports it.
pub fn check(name: &str, ok: bool) {
    println!("  [{}] {name}", if ok { "PASS" } else { "FAIL" });
    assert!(ok, "shape check failed: {name}");
}

/// One experiment's measured numbers as named fields, written as
/// `BENCH_<id>.json` and printed through its [`Display`](fmt::Display).
///
/// Tables and charts are serialized cell for cell. The paper
/// experiments are written by `pacman-cli reproduce` through
/// [`Artifact::write_tolerant`]; the perf targets call
/// [`Artifact::write`], which emits into the current directory — or
/// `$PACMAN_BENCH_DIR` when set.
#[derive(Clone, Debug)]
pub struct Artifact {
    id: String,
    fields: Vec<(String, Field)>,
}

/// One artefact field, kept as built so it prints as it was drawn.
#[derive(Clone, Debug)]
enum Field {
    Json(Value),
    Table(Table),
    Chart(AsciiChart),
}

impl Field {
    fn to_json(&self) -> Value {
        let strs = |v: &[String]| Value::Array(v.iter().map(Value::str).collect());
        match self {
            Field::Json(v) => v.clone(),
            Field::Table(t) => Value::Object(vec![
                ("title".into(), Value::str(&t.title)),
                ("headers".into(), strs(&t.headers)),
                ("rows".into(), Value::Array(t.rows.iter().map(|r| strs(r)).collect())),
            ]),
            Field::Chart(c) => {
                let point = |&(x, y): &(usize, u64)| {
                    Value::Object(vec![
                        ("x".into(), Value::UInt(x as u64)),
                        ("y".into(), Value::UInt(y)),
                    ])
                };
                let series = c.series.iter().map(|(label, points)| {
                    Value::Object(vec![
                        ("label".into(), Value::str(label)),
                        ("points".into(), Value::Array(points.iter().map(point).collect())),
                    ])
                });
                Value::Object(vec![
                    ("title".into(), Value::str(&c.title)),
                    ("series".into(), Value::Array(series.collect())),
                ])
            }
        }
    }
}

impl Artifact {
    /// Starts an artefact for experiment `id` (used in the file name).
    pub fn new(id: &str, description: &str) -> Self {
        let mut art = Self { id: id.to_string(), fields: Vec::new() };
        art.text("record", "bench").text("experiment", id).text("description", description);
        art
    }

    /// Adds an arbitrary JSON field.
    pub fn field(&mut self, key: &str, value: Value) -> &mut Self {
        self.fields.push((key.to_string(), Field::Json(value)));
        self
    }

    /// Adds an unsigned-integer field (counters, cycles, knees).
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.field(key, Value::UInt(value))
    }

    /// Adds a floating-point field (overheads, milliseconds).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.field(key, Value::Float(value))
    }

    /// Adds a string field.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, Value::str(value))
    }

    /// Adds a [`Table`], serialized as its title, headers and every
    /// row's cells exactly as displayed.
    pub fn table(&mut self, key: &str, table: &Table) -> &mut Self {
        self.fields.push((key.to_string(), Field::Table(table.clone())));
        self
    }

    /// Adds an [`AsciiChart`], serialized as its series of
    /// `{label, points:[{x,y}]}` objects.
    pub fn chart(&mut self, key: &str, chart: &AsciiChart) -> &mut Self {
        self.fields.push((key.to_string(), Field::Chart(chart.clone())));
        self
    }

    /// The artefact as one JSON object (field order = insertion order).
    pub fn to_json(&self) -> Value {
        Value::Object(self.fields.iter().map(|(k, f)| (k.clone(), f.to_json())).collect())
    }

    /// Writes `BENCH_<id>.json` under `dir` and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`std::fs::write`] failure.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.id));
        let mut text = self.to_json().to_string();
        text.push('\n');
        std::fs::write(&path, text)?;
        Ok(path)
    }

    /// The artefact's fault-stream index: a stable hash of its id, so
    /// each artefact sees its own deterministic injected-IO decisions.
    fn fault_index(&self) -> u64 {
        self.id.bytes().fold(0u64, |acc, b| mix64(acc, u64::from(b)))
    }

    /// [`Artifact::write_to`] under a fault plan: injected IO errors
    /// (and real ones) retry within the policy's budget; the last error
    /// surfaces only after the budget is exhausted.
    ///
    /// # Errors
    ///
    /// The final attempt's failure — injected or real — once `retry`'s
    /// budget is spent.
    pub fn write_tolerant(
        &self,
        dir: &Path,
        faults: &FaultPlan,
        retry: RetryPolicy,
    ) -> io::Result<PathBuf> {
        let index = self.fault_index();
        let mut last: Option<io::Error> = None;
        for attempt in 0..retry.max_attempts.max(1) {
            if faults.fires(FaultSite::ArtifactWrite, index, retry.fault_attempt(attempt)) {
                last = Some(io::Error::other(format!(
                    "injected fault: artifact write for BENCH_{} (attempt {attempt})",
                    self.id
                )));
                continue;
            }
            match self.write_to(dir) {
                Ok(path) => return Ok(path),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("artifact write: empty retry budget")))
    }

    /// Writes the artefact to `$PACMAN_BENCH_DIR` (default: current
    /// directory) and prints where it landed. Runs under the
    /// environment's fault plan: injected write failures retry within
    /// the default budget, and the artefact records whether faults were
    /// active (`faults_active`).
    ///
    /// A failed write always lands on stderr. When `$PACMAN_BENCH_DIR`
    /// was set explicitly the caller asked for the artefact (CI is
    /// collecting them for `pacman-cli verify`), so the failure is fatal:
    /// the process exits nonzero instead of letting a bad directory turn
    /// into a silently missing artefact.
    pub fn write(&self) {
        let faults = FaultPlan::from_env();
        let mut art = self.clone();
        art.field("faults_active", Value::Bool(faults.is_active()));
        let dir = std::env::var("PACMAN_BENCH_DIR").ok();
        let strict = dir.is_some();
        let dir = dir.unwrap_or_else(|| ".".into());
        match art.write_tolerant(Path::new(&dir), &faults, RetryPolicy::default()) {
            Ok(path) => println!("  artefact: {}", path.display()),
            Err(e) => {
                eprintln!("error: failed to write BENCH_{}.json into '{dir}': {e}", self.id);
                if strict {
                    eprintln!("error: $PACMAN_BENCH_DIR was set explicitly; aborting");
                    std::process::exit(2);
                }
            }
        }
    }
}

/// The artefact for a reader: tables and charts drawn as they were
/// built, every other field (the `record` tag aside) as `key = value`.
impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, field) in self.fields.iter().filter(|(key, _)| key != "record") {
            match field {
                Field::Json(Value::Str(s)) => writeln!(f, "{key} = {s}")?,
                Field::Json(v) => writeln!(f, "{key} = {v}")?,
                Field::Table(t) => write!(f, "{t}")?,
                Field::Chart(c) => write!(f, "{c}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_injected_overrides() {
        // Injected lookup instead of std::env::set_var: mutating the
        // process environment races with other tests in the same binary.
        let env = |k: &str| (k == "PACMAN_TEST_SCALE_VAR").then(|| "17".to_string());
        assert_eq!(scale_from(env, "TEST_SCALE_VAR", 3), 17);
        assert_eq!(scale_from(env, "TEST_SCALE_VAR_MISSING", 3), 3);
        assert_eq!(scale_from(|_| Some("banana".into()), "TEST_SCALE_VAR", 3), 3);
        // The real environment of a test run carries no PACMAN_* vars, so
        // the delegating wrapper falls through to the default.
        assert_eq!(scale("TEST_SCALE_VAR_UNSET_IN_TESTS", 5), 5);
    }

    #[test]
    fn artifact_serializes_tables_cell_for_cell() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".to_string(), "x,\"y\"".to_string()]);
        let mut chart = AsciiChart::new("lat");
        chart.series("stride 1".to_string(), vec![(1, 60), (12, 95)]);
        let mut art = Artifact::new("demo", "serialization test");
        art.num("count", 7).float("ratio", 0.5).text("note", "ok");
        art.table("matrix", &t);
        art.chart("sweep", &chart);

        let parsed = pacman_telemetry::json::parse(&art.to_json().to_string()).expect("valid JSON");
        assert_eq!(parsed.get("record").and_then(Value::as_str), Some("bench"));
        assert_eq!(parsed.get("experiment").and_then(Value::as_str), Some("demo"));
        assert_eq!(parsed.get("count").and_then(Value::as_u64), Some(7));
        let matrix = parsed.get("matrix").expect("table field");
        assert_eq!(matrix.get("title").and_then(Value::as_str), Some("demo"));
        let rows = matrix.get("rows").and_then(Value::as_array).expect("rows");
        assert_eq!(rows[0].as_array().unwrap()[1].as_str(), Some("x,\"y\""));
        let series = parsed.get("sweep").and_then(|c| c.get("series")).unwrap();
        let s0 = &series.as_array().unwrap()[0];
        assert_eq!(s0.get("label").and_then(Value::as_str), Some("stride 1"));
        let p1 = &s0.get("points").and_then(Value::as_array).unwrap()[1];
        assert_eq!(p1.get("x").and_then(Value::as_u64), Some(12));
        assert_eq!(p1.get("y").and_then(Value::as_u64), Some(95));
    }

    #[test]
    fn artifact_displays_tables_and_charts_as_drawn_and_scalars_as_key_value() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row_of(&["1", "2"]);
        let mut chart = AsciiChart::new("lat");
        chart.series("stride 1".to_string(), vec![(1, 60)]);
        let mut art = Artifact::new("demo", "display test");
        art.num("count", 7).text("note", "ok").table("matrix", &t).chart("sweep", &chart);
        let shown = art.to_string();
        assert_eq!(
            shown,
            format!(
                "experiment = demo\ndescription = display test\ncount = 7\nnote = ok\n{t}{chart}"
            )
        );
    }

    #[test]
    fn artifact_write_to_produces_the_named_file() {
        let dir = std::env::temp_dir().join(format!("pacman-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut art = Artifact::new("unit", "write test");
        art.num("answer", 42);
        let path = art.write_to(&dir).expect("write");
        assert!(path.ends_with("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).expect("read back");
        let parsed = pacman_telemetry::json::parse(text.trim()).expect("valid JSON");
        assert_eq!(parsed.get("answer").and_then(Value::as_u64), Some(42));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_write_tolerant_retries_injected_faults_within_budget() {
        let dir = std::env::temp_dir().join(format!("pacman-bench-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut art = Artifact::new("fault_unit", "tolerant write test");
        art.num("answer", 42);
        let index = art.fault_index();
        // A seed whose artifact-write stream fires on attempt 0 but not
        // attempt 1: the write must succeed on the retry.
        let seed = (0..500u64)
            .find(|&s| {
                let probe = FaultPlan::new(s, 0.5);
                probe.fires(FaultSite::ArtifactWrite, index, 0)
                    && !probe.fires(FaultSite::ArtifactWrite, index, 1)
            })
            .expect("a qualifying seed exists in 0..500");
        let plan = FaultPlan::new(seed, 0.5);
        let path = art.write_tolerant(&dir, &plan, RetryPolicy::default()).expect("retry succeeds");
        assert!(path.ends_with("BENCH_fault_unit.json"));
        assert!(plan.injected() >= 1, "the first attempt was injected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_write_tolerant_exhausts_on_permanent_faults() {
        let dir = std::env::temp_dir().join(format!("pacman-bench-fault2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut art = Artifact::new("fault_unit2", "budget exhaustion test");
        art.num("answer", 42);
        // Rate 1.0 without reseeding replays the firing decision every
        // attempt: the budget must exhaust with the injected error.
        let plan = FaultPlan::new(9, 1.0);
        let err = art
            .write_tolerant(&dir, &plan, RetryPolicy { max_attempts: 3, reseed: false })
            .expect_err("rate-1.0 faults exhaust the budget");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(!dir.join("BENCH_fault_unit2.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_write_tolerant_passes_through_without_faults() {
        let dir = std::env::temp_dir().join(format!("pacman-bench-fault3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut art = Artifact::new("fault_unit3", "disabled-plan test");
        art.num("answer", 42);
        let plan = FaultPlan::disabled();
        let path = art
            .write_tolerant(&dir, &plan, RetryPolicy::default())
            .expect("disabled plan never blocks a write");
        assert!(path.ends_with("BENCH_fault_unit3.json"));
        assert_eq!(plan.injected(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_write_to_surfaces_io_errors() {
        let mut art = Artifact::new("unit_err", "error-path test");
        art.num("answer", 42);
        let missing = std::env::temp_dir().join("pacman-bench-no-such-dir-913/deeper");
        let err = art.write_to(&missing).expect_err("missing directory must error");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn systems_boot() {
        let q = quiet_system();
        assert_eq!(q.kernel.crash_count(), 0);
        let set = q.pick_quiet_dtlb_set();
        assert!(set < 256);
        let n = System::boot(noisy_config());
        assert!(n.machine.config().os_noise > 0.0);
    }
}
