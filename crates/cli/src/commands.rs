//! Subcommand implementations.

use std::error::Error;
use std::fmt::Write as _;

use pacman_bench::experiments::{self, Ctx, Experiment, EXPERIMENTS};
use pacman_bench::{claims, Artifact};
use pacman_core::conformance::{run_conformance, ConformConfig};
use pacman_core::fault::{FaultPlan, Tolerance};
use pacman_core::jump2win::centred_windows;
use pacman_core::parallel::{
    oracle_distribution, oracle_distribution_observed, parallel_brute, parallel_jump2win, probe,
    Channel, ExperimentError,
};
use pacman_core::report::Table;
use pacman_core::{System, SystemConfig};
use pacman_isa::ptr::with_pac_field;
use pacman_ref::{self_test, Divergence, SelfTestResult};
use pacman_telemetry::json::{to_jsonl_line, Value};
use pacman_telemetry::{trace, Snapshot};

use crate::args::{Args, Kind, Opt};
use crate::jobctx;
use crate::service;

/// One CLI command, declared once. `Args::parse`, [`dispatch`], the
/// daemon's job allowlist and `--help` all read it from [`COMMANDS`].
pub struct Command {
    /// The command word.
    pub name: &'static str,
    /// The `--help` summary; further lines are indented under the first.
    pub summary: &'static str,
    /// The options and flags it accepts (`--help` is accepted by every
    /// command).
    pub options: &'static [Opt],
    /// The positional subjects it accepts after the command word (empty:
    /// none).
    pub subjects: &'static [&'static str],
    /// Whether `pacmand` may run it as a job.
    pub daemon_job: bool,
    /// The implementation.
    pub run: fn(&Args) -> CliResult,
}

/// Every option, declared once with its kind, range, default and help.
/// A name declared twice differs in default or help by command. Upper
/// bounds cap what one command line, a daemon job's included, can ask for.
#[rustfmt::skip]
mod opt {
    use super::{Kind, Opt};
    use pacman_core::conformance;
    pub const JSON: Opt = Opt::flag("json", "emit JSONL on stdout");
    pub const QUIET_NOISE: Opt = Opt::flag("quiet-noise", "disable the OS-noise model");
    pub const METRICS_OUT: Opt = Opt::text("metrics-out", "F", None, "write the JSONL records to file F");
    pub const TRACE_OUT: Opt = Opt::text("trace-out", "F", None, "write shard/fault spans to F as Chrome trace JSON");
    pub const JOBS: Opt = Opt::uint("jobs", 1..=1024, None, "max shards of one campaign in flight at once");
    pub const FAULT_RATE: Opt = Opt { name: "fault-rate", kind: Kind::Rate, help: "injected fault rate; 0 disables" };
    pub const SEED: Opt = Opt::uint("seed", 0..=u64::MAX, Some(0xA11CE), "kernel key seed");
    pub const TRIALS: Opt = Opt::uint("trials", 1..=100_000, Some(50), "oracle trials per PAC class");
    pub const CHANNEL: Opt = Opt { name: "channel", help: "oracle side channel",
        kind: Kind::Choice { choices: &["data", "instr", "cache"], default: "data" } };
    // A PAC is 16 bits: 65536 candidates are the whole space.
    pub const WINDOW: Opt = Opt::uint("window", 1..=65536, Some(512), "PAC candidates centred on the true PAC");
    pub const PROGRAMS: Opt = Opt::uint("programs", 1..=1_000_000, Some(conformance::DEFAULT_PROGRAMS as u64), "conform: program count");
    pub const CONFORM_SEED: Opt = Opt::uint("seed", 0..=u64::MAX, Some(conformance::DEFAULT_SEED), "conform: program generator seed");
    pub const STEPS: Opt = Opt::uint("steps", 1..=1_000_000, Some(conformance::DEFAULT_MAX_STEPS), "conform: retire budget per program");
    pub const SKIP_SELF_TEST: Opt = Opt::flag("skip-self-test", "conform: skip the injected-bug self-test");
    pub const PROFILE_TRIALS: Opt = Opt::uint("trials", 1..=100_000, Some(8), "profile oracle: trials per PAC class");
    pub const PROFILE_WINDOW: Opt = Opt::uint("window", 1..=65536, Some(64), "profile brute: PAC candidates");
    pub const PROFILE_TRACE_OUT: Opt = Opt::text("trace-out", "F", Some("trace.json"), "profile: Chrome trace file");
    pub const TOP: Opt = Opt::uint("top", 1..=1000, Some(10), "profile: rows per hot-opcode/hot-block table");
    pub const EXPERIMENT: Opt = Opt::text("only", "ID", None, "reproduce: regenerate a single artifact");
    pub const OUT: Opt = Opt::text("out", "D", Some("results"), "reproduce: artifact directory");
    pub const DIR: Opt = Opt::text("dir", "D", None, "verify: artifact directory (else PACMAN_BENCH_DIR, else .)");
    pub const ARTIFACT: Opt = Opt::text("only", "ID", None, "verify: check a single artifact's claims");
    pub const SOCKET: Opt = Opt::text("socket", "P", Some("pacmand.sock"), "daemon/client: socket path");
    pub const STDIO: Opt = Opt::flag("stdio", "daemon: serve one session stream on stdin/stdout");
    pub const WORKERS: Opt = Opt::uint("workers", 1..=1024, None, "daemon: executor threads, and jobs run at once");
    pub const STATE_DIR: Opt = Opt::text("state-dir", "D", None, "daemon: keep checksummed snapshots in D");
    pub const CHECKPOINT_EVERY: Opt = Opt::uint("checkpoint-every", 1..=u64::MAX, Some(256), "daemon: output records per checkpoint");
    pub const RESUME: Opt = Opt::flag("resume", "daemon: continue the sessions of the --state-dir snapshot");
    pub const SESSION: Opt = Opt::text("session", "S", Some("cli"), "client: session name");
    pub const SUBMIT: Opt = Opt::text("submit", "CMD", None, "client: submit one quoted command line as a job");
    pub const ATTACH: Opt = Opt::flag("attach", "client: reattach to --session, stream it to completion");
    pub const SHUTDOWN: Opt = Opt::flag("shutdown", "client: ask the daemon to drain and exit");
}
use opt::*;

/// Every command, in `--help` order. Anything a command does not
/// declare is a usage error: a misspelled option must fail loudly, not
/// parse as an ignored key.
///
/// Daemon jobs are the trial-driving and reporting commands. `profile`
/// is not one (it arms the process-wide profiler and flight recorder,
/// which cannot be scoped to one tenant), nor are the `daemon`/`client`
/// entry points themselves.
// Laid out as a table, one block per command; rustfmt would give every
// field its own line.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    Command { name: "oracle", subjects: &[], daemon_job: true, run: cmd_oracle,
        summary: "run the section-8.1 PAC oracle and print verdicts",
        options: &[SEED, TRIALS, CHANNEL, JOBS, FAULT_RATE, METRICS_OUT, TRACE_OUT, JSON, QUIET_NOISE] },
    Command { name: "brute", subjects: &[], daemon_job: true, run: cmd_brute,
        summary: "brute-force a PAC over a candidate window (section 8.2)",
        options: &[SEED, WINDOW, JOBS, FAULT_RATE, METRICS_OUT, TRACE_OUT, JSON, QUIET_NOISE] },
    Command { name: "jump2win", subjects: &[], daemon_job: true, run: cmd_jump2win,
        summary: "the section-8.3 end-to-end control-flow hijack",
        options: &[SEED, WINDOW, JOBS, FAULT_RATE, METRICS_OUT, JSON, QUIET_NOISE] },
    // sweep, census, mitigations and os show their EXPERIMENTS rows.
    Command { name: "sweep", subjects: &[], daemon_job: true,
        run: |a| show_rows(a, &["fig5a", "fig5b", "fig5c", "fig6"]),
        summary: "the section-7 reverse-engineering sweeps (Figures 5-6)",
        options: &[JOBS, FAULT_RATE, METRICS_OUT, TRACE_OUT, JSON] },
    Command { name: "census", subjects: &[], daemon_job: true,
        run: |a| show_rows(a, &["sec43"]),
        summary: "the section-4.3 gadget census over a synthetic image",
        options: &[JOBS, METRICS_OUT, JSON] },
    Command { name: "conform", subjects: &[], daemon_job: true, run: cmd_conform,
        summary: "differential conformance fuzzing of the speculative core\n\
                  against the architectural reference machine",
        options: &[PROGRAMS, CONFORM_SEED, STEPS, JOBS, FAULT_RATE, METRICS_OUT, TRACE_OUT, JSON,
                   SKIP_SELF_TEST] },
    // The System-driven attacks only: sweep and census build their
    // machines outside the config path the profile flag rides on.
    Command { name: "profile", subjects: &["oracle", "brute"], daemon_job: false, run: cmd_profile,
        summary: "run an experiment (oracle|brute) with the simulator\n\
                  self-profiler and flight recorder armed, write a Chrome\n\
                  trace and print hot-opcode/hot-block reports",
        options: &[SEED, PROFILE_TRIALS, PROFILE_WINDOW, CHANNEL, JOBS, FAULT_RATE, METRICS_OUT,
                   PROFILE_TRACE_OUT, TOP, JSON, QUIET_NOISE] },
    Command { name: "mitigations", subjects: &[], daemon_job: true,
        run: |a| show_rows(a, &["sec9"]),
        summary: "the section-9 countermeasure matrix",
        options: &[METRICS_OUT, JSON] },
    Command { name: "os", subjects: &[], daemon_job: true,
        run: |a| show_rows(a, &["sec62"]),
        summary: "PacmanOS (section 6.2) bare-metal experiments",
        options: &[METRICS_OUT, JSON] },
    Command { name: "timeline", subjects: &[], daemon_job: true, run: cmd_timeline,
        summary: "print the Figure 3 speculation-event timelines",
        options: &[SEED, METRICS_OUT, JSON, QUIET_NOISE] },
    // Not a daemon job: it writes files into a directory of its own
    // choosing, not onto a session stream.
    Command { name: "reproduce", subjects: &[], daemon_job: false, run: cmd_reproduce,
        summary: "regenerate the paper's tables and figures (the EXPERIMENTS\n\
                  table) as BENCH_<id>.json artifacts under --out",
        options: &[EXPERIMENT, OUT, JOBS, FAULT_RATE, METRICS_OUT] },
    Command { name: "verify", subjects: &[], daemon_job: true, run: cmd_verify,
        summary: "diff BENCH_<id>.json artifacts against the paper claims",
        options: &[DIR, ARTIFACT, METRICS_OUT, JSON] },
    Command { name: "daemon", subjects: &[], daemon_job: false, run: service::cmd_daemon,
        summary: "run pacmand, the multi-tenant experiment daemon: serve\n\
                  sessions over a Unix socket (or --stdio), schedule\n\
                  submitted command lines fair-share across tenants, and\n\
                  stream results back incrementally (DESIGN.md section 12)",
        options: &[SOCKET, WORKERS, STATE_DIR, CHECKPOINT_EVERY, STDIO, RESUME] },
    Command { name: "client", subjects: &[], daemon_job: false, run: service::cmd_client,
        summary: "drive a running pacmand: submit one job and stream its\n\
                  session records, ping/status, or request shutdown",
        options: &[SOCKET, SESSION, SUBMIT, SHUTDOWN, ATTACH] },
];

/// The command named `name`.
pub fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The `--help` text: a header, each command with the names of its
/// options, every distinct option declaration once, then the notes.
pub fn usage() -> String {
    let mut out = String::from(
        "pacman-cli - drive the PACMAN (ISCA 2022) reproduction\n\n\
         usage: pacman-cli <command> [options], or --help anywhere for this text\n\ncommands:\n",
    );
    let mut distinct: Vec<&Opt> = Vec::new();
    for c in COMMANDS {
        let mut lines: Vec<String> = c.summary.lines().map(String::from).collect();
        let mut names = String::new();
        for o in c.options {
            if names.len() + o.name.len() > 60 {
                lines.push(std::mem::take(&mut names));
            }
            let _ = write!(names, "--{} ", o.name);
        }
        lines.push(names);
        for (i, line) in lines.iter().enumerate() {
            let name = if i == 0 { c.name } else { "" };
            let _ = writeln!(out, "  {name:<12} {}", line.trim_end());
        }
        for o in c.options {
            if !distinct.iter().any(|d| d.name == o.name && d.help == o.help) {
                distinct.push(o);
            }
        }
    }
    out.push_str("\noptions:\n");
    for o in distinct {
        let _ = writeln!(out, "{o}");
    }
    out + USAGE_NOTES
}

/// The prose of `--help`, after the option list.
const USAGE_NOTES: &str = "
--jobs defaults to PACMAN_JOBS, else all cores; the shared worker pool
is sized once per process from the same, or by daemon --workers.
--fault-rate defaults to PACMAN_FAULT_RATE when PACMAN_FAULT_SEED is
set, else off. --window 65536 sweeps the whole 16-bit PAC space.

Trial-driving commands cut their work into fixed shards and run up to
--jobs of them at once on the process-wide worker pool; for a
fixed --seed the merged result is identical at every job count. A
panicking or faulted shard is retried within a bounded budget; one that
exhausts it ends the run with 'shard_failure' and 'partial_failure'
JSONL records and a nonzero exit. PACMAN_FAULT_SEED (with
PACMAN_FAULT_RATE or --fault-rate) injects such faults
deterministically; retried runs stay bit-identical to fault-free ones.

'conform' runs seeded random programs on the speculative core and on an
in-order reference machine in lockstep, checks committed state at every
retire boundary, and shrinks any diverging program to a minimal
reproducer. Unless --skip-self-test is given it then fails unless it
detects every bug injected into deliberately broken cores.

'profile' reruns oracle or brute with the per-opcode retire profiler
and the flight recorder armed: it writes --trace-out and prints hot
opcodes, hot basic blocks and a decode/dispatch/memory/QARMA breakdown
of simulated cycles and wall-clock time.

--json (or --metrics-out) streams one JSON record per trial, event or
row, then, for commands that drive the simulated machine, a 'metrics'
record with every counter and histogram. 'sweep', 'census',
'mitigations' and 'os' print their EXPERIMENTS rows, or stream each as
the 'bench' record 'reproduce' writes; 'reproduce' emits a 'reproduced'
record per artifact. 'verify' ends with a 'verify_summary' record and
exits nonzero if any paper claim is out of tolerance.
";

pub type CliResult = Result<(), Box<dyn Error>>;

/// Routes a parsed command line to its implementation.
///
/// # Errors
///
/// Any subcommand failure (oracle errors, failed attacks, ...).
pub fn dispatch(args: &Args) -> CliResult {
    // A typed error, not a panic: `main` prints usage before dispatch,
    // but the daemon feeds client-submitted command lines straight in,
    // and an empty one must come back as a job failure — never abort
    // the process.
    let Some(cmd) = args.command.and_then(find) else {
        return Err("no command given (try --help)".into());
    };
    (cmd.run)(args)
}

fn config(args: &Args) -> Result<SystemConfig, Box<dyn Error>> {
    let mut cfg = SystemConfig { kernel_seed: args.num("seed")?, ..SystemConfig::default() };
    if args.flag("quiet-noise") {
        cfg.machine.os_noise = 0.0;
    }
    Ok(cfg)
}

/// The `--jobs` per-campaign shard cap, else `PACMAN_JOBS`, else the
/// machine's available parallelism.
fn jobs(args: &Args) -> usize {
    args.num("jobs").unwrap_or_else(|_| pacman_runner::default_jobs())
}

/// The resolved fault-tolerance policy: `PACMAN_FAULT_SEED` /
/// `PACMAN_FAULT_RATE` from the environment, with `--fault-rate`
/// overriding the rate (0 disables injection even when the environment
/// enables it; the retry budget applies either way).
fn tolerance(args: &Args) -> Tolerance {
    let mut tol = Tolerance::from_env();
    if let Ok(rate) = args.rate("fault-rate") {
        tol.faults = tol.faults.with_rate(rate);
    }
    tol
}

/// The `--channel` side channel.
fn channel(args: &Args) -> Channel {
    match args.text("channel") {
        Ok("instr") => Channel::Instr,
        Ok("cache") => Channel::Cache,
        _ => Channel::Data,
    }
}

/// Reports a sharded experiment failure: the `--trace-out` trace (a
/// faulted run's trace is exactly the one worth opening), one
/// `shard_failure` JSONL record per permanently failed or cancelled
/// shard, a closing `partial_failure` summary, then the (nonzero-exit)
/// error. Everything already emitted stays flushed — partial evidence is
/// the point.
fn fail_sharded(mut emit: Emitter, err: ExperimentError, trace: Option<&String>) -> Box<dyn Error> {
    let _ = trace_write(trace);
    if let ExperimentError::Shards(partial) = &err {
        for f in &partial.failures {
            emit.record(&Value::Object(vec![
                ("record".into(), Value::str("shard_failure")),
                ("shard".into(), Value::UInt(f.shard as u64)),
                ("attempts".into(), Value::UInt(u64::from(f.attempts))),
                ("panicked".into(), Value::Bool(f.panicked)),
                ("cancelled".into(), Value::Bool(f.cancelled)),
                ("message".into(), Value::str(f.message.clone())),
            ]));
        }
        emit.record(&Value::Object(vec![
            ("record".into(), Value::str("partial_failure")),
            ("shards_total".into(), Value::UInt(partial.total as u64)),
            ("shards_completed".into(), Value::UInt(partial.completed as u64)),
            ("retries".into(), Value::UInt(partial.retries)),
            ("failures".into(), Value::UInt(partial.failures.len() as u64)),
        ]));
        eprintln!("error: {partial}");
    }
    if let Err(close_err) = emit.close() {
        eprintln!("error: {close_err}");
    }
    Box::new(err)
}

/// The `--metrics-out` file with line-commit durability: every record
/// is written and flushed as one complete line, and a write that fails
/// partway is rolled back to the last committed line boundary. The
/// partial-failure and panic-isolation paths rely on this — records
/// emitted before a shard failure must survive on disk as parseable
/// JSONL with no truncated trailing line, even if the process dies
/// before `close()` runs.
struct MetricsFile {
    path: String,
    file: std::fs::File,
    /// Bytes known to hold complete, flushed JSONL lines.
    committed: u64,
}

impl MetricsFile {
    /// Appends one complete line, flushing it through to the OS. On any
    /// failure the file is truncated back to the last committed line so
    /// no torn tail is ever observable.
    fn append_line(&mut self, line: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        let result = self.file.write_all(line).and_then(|()| self.file.flush());
        match result {
            Ok(()) => {
                self.committed += line.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Best effort: a failed rollback leaves the tail torn,
                // but the write error is surfaced either way.
                let _ = self.file.set_len(self.committed);
                Err(e)
            }
        }
    }
}

/// JSONL sink for `--json` (stdout) and `--metrics-out` (file). Inactive
/// when neither was requested, at the cost of one branch per record.
struct Emitter {
    json_stdout: bool,
    out: Option<MetricsFile>,
    write_error: Option<std::io::Error>,
}

impl Emitter {
    /// Builds the sink, creating the `--metrics-out` file *eagerly*: an
    /// unwritable path must fail before any trials run, not after the
    /// whole experiment has completed.
    fn from_args(args: &Args) -> Result<Self, Box<dyn Error>> {
        let out = match args.text("metrics-out").ok() {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create --metrics-out file '{path}': {e}"))?;
                Some(MetricsFile { path: path.to_string(), file, committed: 0 })
            }
            None => None,
        };
        Ok(Self { json_stdout: args.flag("json"), out, write_error: None })
    }

    /// Whether any JSONL output was requested. A daemon job context
    /// counts: the session stream consumes the records even when the
    /// submitted command line asked for no local sink.
    fn active(&self) -> bool {
        self.json_stdout || self.out.is_some() || jobctx::active()
    }

    /// Whether the human-readable report should be suppressed (stdout
    /// is reserved for JSONL, or belongs to the daemon process, whose
    /// tenants only see their session stream).
    fn quiet(&self) -> bool {
        self.json_stdout || jobctx::active()
    }

    fn record(&mut self, value: &Value) {
        if !self.active() {
            return;
        }
        let line = to_jsonl_line(value);
        jobctx::tee(&line);
        if self.json_stdout {
            print!("{line}");
        }
        // After a write error the file stays frozen at its last
        // committed line; close() surfaces the first failure.
        if self.write_error.is_none() {
            if let Some(out) = &mut self.out {
                if let Err(e) = out.append_line(line.as_bytes()) {
                    self.write_error = Some(e);
                }
            }
        }
    }

    /// Appends the final `metrics` record built from `snap`, then closes.
    fn finish(mut self, snap: &Snapshot) -> CliResult {
        let mut fields = vec![("record".to_string(), Value::str("metrics"))];
        if let Value::Object(rest) = snap.to_json() {
            fields.extend(rest);
        }
        self.record(&Value::Object(fields));
        self.close()
    }

    /// Reports any write failure (every record line was already flushed
    /// through when it was committed).
    fn close(mut self) -> CliResult {
        if let Some(out) = &self.out {
            if let Some(e) = self.write_error.take() {
                return Err(format!("writing --metrics-out file '{}' failed: {e}", out.path).into());
            }
        }
        Ok(())
    }
}

/// Arms the process-wide flight recorder when `--trace-out` was given,
/// returning the destination path. Stale events from an earlier
/// in-process command are discarded — the trace should cover exactly
/// this run.
fn trace_arm(args: &Args) -> Option<String> {
    let path = args.text("trace-out").ok()?.to_string();
    trace::recorder().take();
    trace::enable();
    Some(path)
}

/// Stops recording and writes the collected spans as a Chrome
/// trace-event JSON file (no-op when `--trace-out` was absent). Runs on
/// the failure path too: a faulted run's trace is exactly the one worth
/// opening in Perfetto.
fn trace_write(path: Option<&String>) -> CliResult {
    let Some(path) = path else { return Ok(()) };
    trace::disable();
    let events = trace::recorder().take();
    std::fs::write(path, trace::chrome_trace_json(&events))
        .map_err(|e| format!("cannot write --trace-out file '{path}': {e}").into())
}

fn cmd_oracle(args: &Args) -> CliResult {
    let channel = channel(args);
    let trials: usize = args.num("trials")?;
    let jobs = jobs(args);
    let tol = tolerance(args);
    let mut emit = Emitter::from_args(args)?;
    let tr = trace_arm(args);
    let cfg = config(args)?;
    let out = match oracle_distribution_observed(
        &cfg,
        channel,
        1,
        trials,
        jobs,
        emit.active(),
        &tol,
        |i, tp| tp ^ (1 + i as u16),
        // Live per-shard progress onto the session stream when running
        // as a daemon job; a no-op in one-shot runs.
        |p| jobctx::progress(p.shard, p.shards, p.completed, p.retries),
    ) {
        Ok(out) => out,
        Err(e) => return Err(fail_sharded(emit, e, tr.as_ref())),
    };
    if !emit.quiet() {
        println!("target {:#x}, {trials} trials per class, {jobs} jobs", out.target);
    }
    for r in &out.records {
        emit.record(&r.to_json());
    }
    if !emit.quiet() {
        println!("correct PAC detected:   {}/{trials}", out.correct_detected);
        println!("wrong PAC rejected:     {}/{trials}", out.incorrect_clean);
        println!("kernel crashes:         {}", out.crashes);
    }
    emit.finish(&out.telemetry.snapshot())?;
    trace_write(tr.as_ref())
}

/// `window` brute candidates centred on the true PAC of the data
/// channel's target, placed by one [`probe`] on a pooled worker system
/// (the kernel seed pins the layout, so every shard sees the same
/// target). Returns the target and the candidates.
fn centred_brute_window(
    cfg: &SystemConfig,
    window: u32,
) -> Result<(u64, Vec<u16>), ExperimentError> {
    let (target, true_pac) = probe(cfg, |sys| Channel::Data.target(sys))?;
    let start = true_pac.wrapping_sub((window / 2) as u16);
    Ok((target, (0..window).map(|i| start.wrapping_add(i as u16)).collect()))
}

fn cmd_brute(args: &Args) -> CliResult {
    let window: u32 = args.num("window")?;
    let jobs = jobs(args);
    let tol = tolerance(args);
    let mut emit = Emitter::from_args(args)?;
    let tr = trace_arm(args);
    let cfg = config(args)?;
    let (target, candidates) = centred_brute_window(&cfg, window)?;
    let clock = cfg.machine.clock_hz;
    if !emit.quiet() {
        println!("sweeping {window} candidates for the PAC of {target:#x} ({jobs} jobs) ...");
    }
    let out = match parallel_brute(&cfg, Channel::Data, 5, &candidates, jobs, emit.active(), &tol) {
        Ok(out) => out,
        Err(e) => return Err(fail_sharded(emit, e, tr.as_ref())),
    };
    let outcome = out.outcome;
    emit.record(&Value::Object(vec![
        ("record".into(), Value::str("brute")),
        ("target".into(), Value::UInt(target)),
        ("jobs".into(), Value::UInt(jobs as u64)),
        ("found".into(), outcome.found.map_or(Value::Null, |p| Value::UInt(u64::from(p)))),
        ("guesses_tested".into(), Value::UInt(outcome.guesses_tested)),
        ("syscalls".into(), Value::UInt(outcome.syscalls)),
        ("cycles".into(), Value::UInt(outcome.cycles)),
        ("crashes".into(), Value::UInt(outcome.crashes)),
        ("ms_per_guess".into(), Value::Float(outcome.ms_per_guess(clock))),
    ]));
    if !emit.quiet() {
        match outcome.found {
            Some(p) => println!("FOUND: PAC = {p:#06x} after {} guesses", outcome.guesses_tested),
            None => println!("no PAC found in the window ({} guesses)", outcome.guesses_tested),
        }
        println!(
            "simulated cost: {:.2} ms/guess, crashes: {}",
            outcome.ms_per_guess(clock),
            outcome.crashes
        );
    }
    emit.finish(&out.telemetry.snapshot())?;
    trace_write(tr.as_ref())
}

fn cmd_jump2win(args: &Args) -> CliResult {
    let window: u32 = args.num("window")?;
    let jobs = jobs(args);
    let tol = tolerance(args);
    let mut emit = Emitter::from_args(args)?;
    let cfg = config(args)?;
    let windows = centred_windows(&cfg, window)?;
    let (report, telemetry) = match parallel_jump2win(&cfg, windows, jobs, emit.active(), &tol) {
        Ok(out) => out,
        Err(e) => return Err(fail_sharded(emit, e, None)),
    };
    emit.record(&Value::Object(vec![
        ("record".into(), Value::str("jump2win")),
        ("jobs".into(), Value::UInt(jobs as u64)),
        ("pac_win".into(), Value::UInt(u64::from(report.pac_win))),
        ("pac_vtable".into(), Value::UInt(u64::from(report.pac_vtable))),
        ("guesses_tested".into(), Value::UInt(report.guesses_tested)),
        ("syscalls".into(), Value::UInt(report.syscalls)),
        ("cycles".into(), Value::UInt(report.cycles)),
        ("crashes".into(), Value::UInt(report.crashes)),
        ("hijacked".into(), Value::Bool(report.hijacked)),
    ]));
    if !emit.quiet() {
        println!("PAC(win, IA)    = {:#06x}", report.pac_win);
        println!("PAC(vtable, DA) = {:#06x}", report.pac_vtable);
        println!("guesses tested  = {}", report.guesses_tested);
        println!("hijacked        = {}", report.hijacked);
        println!("kernel crashes  = {}", report.crashes);
    }
    // Flush the JSONL stream before reporting the attack verdict, so a
    // failed hijack still leaves complete machine-readable evidence.
    emit.finish(&telemetry.snapshot())?;
    if !report.hijacked {
        return Err("control flow was not hijacked".into());
    }
    Ok(())
}

/// One `conform` JSONL record per (minimized) divergence: the full
/// repro — scenario seed, retire step, mismatch kind/detail and the
/// program/handler listings — so a CI failure ships its own test case.
fn divergence_record(d: &Divergence) -> Value {
    let listing = |insts: &[String]| Value::Array(insts.iter().map(Value::str).collect());
    Value::Object(vec![
        ("record".into(), Value::str("conform")),
        ("seed".into(), Value::UInt(d.seed)),
        ("step".into(), Value::UInt(d.step)),
        ("pc".into(), Value::UInt(d.pc)),
        ("kind".into(), Value::str(d.kind)),
        ("detail".into(), Value::str(d.detail.clone())),
        ("program".into(), listing(&d.program_text())),
        ("handler".into(), listing(&d.handler_text())),
    ])
}

/// One `conform_self_test` JSONL record per deliberately broken core.
fn self_test_record(r: &SelfTestResult) -> Value {
    let mut fields = vec![
        ("record".into(), Value::str("conform_self_test")),
        ("bug".into(), Value::str(r.name)),
        ("scenarios_run".into(), Value::UInt(r.scenarios_run)),
        ("detected".into(), Value::Bool(r.detected())),
    ];
    if let Some(d) = &r.divergence {
        fields.push(("seed".into(), Value::UInt(d.seed)));
        fields.push(("kind".into(), Value::str(d.kind)));
        fields.push(("detail".into(), Value::str(d.detail.clone())));
        fields.push((
            "program".into(),
            Value::Array(d.program_text().iter().map(|s| Value::str(s.clone())).collect()),
        ));
    }
    Value::Object(fields)
}

/// Scenarios per broken configuration the self-test may burn before
/// giving up (detection typically lands within the first handful).
const SELF_TEST_BUDGET: u64 = 64;

fn cmd_conform(args: &Args) -> CliResult {
    let programs: usize = args.num("programs")?;
    let seed: u64 = args.num("seed")?;
    let max_steps: u64 = args.num("steps")?;
    let jobs = jobs(args);
    let tol = tolerance(args);
    let mut emit = Emitter::from_args(args)?;
    let tr = trace_arm(args);
    let cfg = ConformConfig { programs, seed, max_steps, ..ConformConfig::default() };
    if !emit.quiet() {
        println!(
            "differential conformance: {programs} programs, seed {seed:#x}, \
             {max_steps}-step budget, {jobs} jobs ..."
        );
    }
    let report = match run_conformance(&cfg, jobs, &tol) {
        Ok(report) => report,
        Err(e) => return Err(fail_sharded(emit, e, tr.as_ref())),
    };
    for d in &report.divergences {
        emit.record(&divergence_record(d));
        if !emit.quiet() {
            println!(
                "DIVERGENCE seed {:#x} step {} pc {:#x} [{}]: {}",
                d.seed, d.step, d.pc, d.kind, d.detail
            );
            for line in d.program_text() {
                println!("    {line}");
            }
        }
    }
    if !emit.quiet() {
        println!("programs: {}, divergences: {}", report.programs, report.divergences.len());
    }

    let self_results = if args.flag("skip-self-test") {
        Vec::new()
    } else {
        self_test(seed, SELF_TEST_BUDGET, max_steps)
    };
    let detected = self_results.iter().filter(|r| r.detected()).count();
    for r in &self_results {
        emit.record(&self_test_record(r));
        if !emit.quiet() {
            match &r.divergence {
                Some(d) => println!(
                    "self-test {}: detected after {} scenarios ({} at step {})",
                    r.name, r.scenarios_run, d.kind, d.step
                ),
                None => println!(
                    "self-test {}: NOT detected within {} scenarios",
                    r.name, r.scenarios_run
                ),
            }
        }
    }

    let self_test_ok = detected == self_results.len();
    let ok = report.conforms() && self_test_ok;
    emit.record(&Value::Object(vec![
        ("record".into(), Value::str("conform_summary")),
        ("programs".into(), Value::UInt(report.programs)),
        ("seed".into(), Value::UInt(seed)),
        ("jobs".into(), Value::UInt(jobs as u64)),
        ("divergences".into(), Value::UInt(report.divergences.len() as u64)),
        ("self_test_bugs_detected".into(), Value::UInt(detected as u64)),
        ("self_test_expected".into(), Value::UInt(self_results.len() as u64)),
        ("retries".into(), Value::UInt(report.retries)),
        ("ok".into(), Value::Bool(ok)),
    ]));
    // Flush the JSONL stream (divergence repros included) before the
    // verdict decides the exit code, like jump2win does.
    emit.finish(&report.telemetry.snapshot())?;
    trace_write(tr.as_ref())?;
    if !report.conforms() {
        return Err(format!(
            "speculative core diverged from the reference machine on {} of {} programs",
            report.divergences.len(),
            report.programs
        )
        .into());
    }
    if !self_test_ok {
        return Err(format!(
            "conformance self-test missed {} of {} injected bugs",
            self_results.len() - detected,
            self_results.len()
        )
        .into());
    }
    Ok(())
}

/// Groups `profile.<kind>.<key>.<field>` counters from a snapshot by
/// their middle component (mnemonic, block PC, or phase name).
fn profile_family<'a>(
    snap: &'a Snapshot,
    prefix: &str,
) -> std::collections::BTreeMap<&'a str, std::collections::BTreeMap<&'a str, u64>> {
    let mut out: std::collections::BTreeMap<&str, std::collections::BTreeMap<&str, u64>> =
        std::collections::BTreeMap::new();
    for (name, v) in snap.counters() {
        let Some(rest) = name.strip_prefix(prefix) else { continue };
        let Some((key, field)) = rest.rsplit_once('.') else { continue };
        out.entry(key).or_default().insert(field, v);
    }
    out
}

fn cmd_profile(args: &Args) -> CliResult {
    let experiment = args.subject.unwrap_or("oracle");
    let channel = channel(args);
    let top: usize = args.num("top")?;
    let jobs = jobs(args);
    let tol = tolerance(args);
    let trials: usize = args.num("trials")?;
    let window: u32 = args.num("window")?;
    let mut emit = Emitter::from_args(args)?;
    // Profiling exists to produce the trace and the report, so the
    // recorder is always armed; --trace-out only moves the destination.
    let trace_path = args.text("trace-out")?.to_string();
    trace::recorder().take();
    trace::enable();
    let mut cfg = config(args)?;
    cfg.machine.profile = true;
    if !emit.quiet() {
        println!("profiling '{experiment}' ({jobs} jobs) ...");
    }
    let run = match experiment {
        "oracle" => oracle_distribution(&cfg, channel, 1, trials, jobs, true, &tol, |i, tp| {
            tp ^ (1 + i as u16)
        })
        .map(|out| out.telemetry),
        _ => centred_brute_window(&cfg, window).and_then(|(_, candidates)| {
            parallel_brute(&cfg, Channel::Data, 5, &candidates, jobs, true, &tol)
                .map(|out| out.telemetry)
        }),
    };
    let registry = match run {
        Ok(reg) => reg,
        Err(e) => return Err(fail_sharded(emit, e, Some(&trace_path))),
    };
    let snap = registry.snapshot();
    trace::disable();
    let dropped = trace::recorder().dropped();
    let events = trace::recorder().take();
    std::fs::write(&trace_path, trace::chrome_trace_json(&events))
        .map_err(|e| format!("cannot write --trace-out file '{trace_path}': {e}"))?;

    let opcodes = profile_family(&snap, "profile.opcode.");
    let blocks = profile_family(&snap, "profile.block.");
    let phases = profile_family(&snap, "profile.phase.");
    let field = |f: &std::collections::BTreeMap<&str, u64>, k: &str| f.get(k).copied().unwrap_or(0);
    let mut op_rows: Vec<(&str, u64, u64)> =
        opcodes.iter().map(|(k, f)| (*k, field(f, "retired"), field(f, "cycles"))).collect();
    op_rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    op_rows.truncate(top);
    let mut block_rows: Vec<(&str, u64, u64, u64)> = blocks
        .iter()
        .map(|(k, f)| (*k, field(f, "entries"), field(f, "insts"), field(f, "cycles")))
        .collect();
    block_rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    block_rows.truncate(top);

    for (rank, (mnem, retired, cycles)) in op_rows.iter().enumerate() {
        emit.record(&Value::Object(vec![
            ("record".into(), Value::str("profile_opcode")),
            ("rank".into(), Value::UInt(rank as u64 + 1)),
            ("opcode".into(), Value::str(*mnem)),
            ("retired".into(), Value::UInt(*retired)),
            ("cycles".into(), Value::UInt(*cycles)),
        ]));
    }
    for (rank, (pc, entries, insts, cycles)) in block_rows.iter().enumerate() {
        emit.record(&Value::Object(vec![
            ("record".into(), Value::str("profile_block")),
            ("rank".into(), Value::UInt(rank as u64 + 1)),
            ("pc".into(), Value::str(*pc)),
            ("entries".into(), Value::UInt(*entries)),
            ("insts".into(), Value::UInt(*insts)),
            ("cycles".into(), Value::UInt(*cycles)),
        ]));
    }
    for (phase, f) in &phases {
        emit.record(&Value::Object(vec![
            ("record".into(), Value::str("profile_phase")),
            ("phase".into(), Value::str(*phase)),
            ("events".into(), Value::UInt(field(f, "events"))),
            ("cycles".into(), Value::UInt(field(f, "cycles"))),
            ("wall_ns".into(), Value::UInt(field(f, "wall_ns"))),
        ]));
    }
    emit.record(&Value::Object(vec![
        ("record".into(), Value::str("profile_summary")),
        ("experiment".into(), Value::str(experiment)),
        ("trace_path".into(), Value::str(trace_path.clone())),
        ("trace_events".into(), Value::UInt(events.len() as u64)),
        ("trace_dropped".into(), Value::UInt(dropped)),
        ("opcodes_seen".into(), Value::UInt(opcodes.len() as u64)),
        ("blocks_seen".into(), Value::UInt(blocks.len() as u64)),
    ]));

    if !emit.quiet() {
        let mut t = Table::new(
            format!("hot opcodes (top {} of {} by simulated cycles)", op_rows.len(), opcodes.len()),
            &["opcode", "retired", "cycles", "cyc/inst"],
        );
        for (mnem, retired, cycles) in &op_rows {
            t.row(&[
                (*mnem).to_string(),
                retired.to_string(),
                cycles.to_string(),
                format!("{:.1}", *cycles as f64 / (*retired).max(1) as f64),
            ]);
        }
        println!("{t}");
        let mut t = Table::new(
            format!(
                "hot blocks (top {} of {} by simulated cycles)",
                block_rows.len(),
                blocks.len()
            ),
            &["block", "entries", "insts", "cycles"],
        );
        for (pc, entries, insts, cycles) in &block_rows {
            t.row(&[(*pc).to_string(), entries.to_string(), insts.to_string(), cycles.to_string()]);
        }
        println!("{t}");
        let mut t = Table::new("pipeline phases", &["phase", "events", "sim cycles", "wall ns"]);
        for (phase, f) in &phases {
            t.row(&[
                (*phase).to_string(),
                field(f, "events").to_string(),
                field(f, "cycles").to_string(),
                field(f, "wall_ns").to_string(),
            ]);
        }
        println!("{t}");
        println!("trace: {trace_path} ({} events, {dropped} dropped)", events.len());
    }
    emit.finish(&snap)
}

fn cmd_timeline(args: &Args) -> CliResult {
    let mut emit = Emitter::from_args(args)?;
    let mut sys = System::boot(config(args)?);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let sc = sys.gadget.instr_gadget;
    for (label, pac) in [("CORRECT", true_pac), ("WRONG", true_pac ^ 5)] {
        sys.train_gadget(sc, 16)?;
        // Scoped tracing: enabled for exactly the trigger syscall.
        let (result, events) = sys.trigger_gadget_traced(sc, with_pac_field(target, pac));
        result?;
        if !emit.quiet() {
            println!("--- instruction gadget, {label} PAC ---");
        }
        for e in events.iter().rev().take(8).rev() {
            emit.record(&Value::Object(vec![
                ("record".into(), Value::str("spec_event")),
                ("guess".into(), Value::str(label)),
                ("event".into(), Value::str(e.to_string())),
            ]));
            if !emit.quiet() {
                println!("  {e}");
            }
        }
    }
    emit.finish(&sys.telemetry_snapshot())
}

/// Renders the actual value of one claim field for the matrix, truncated
/// so serialized tables/charts do not blow the column out.
fn render_got(value: Option<&Value>) -> String {
    match value {
        None => "-".into(),
        Some(v) => {
            let s = v.to_string();
            if s.chars().count() > 24 {
                let head: String = s.chars().take(21).collect();
                format!("{head}...")
            } else {
                s
            }
        }
    }
}

/// One row of the verification matrix (artifact, field, paper, expected,
/// got, status): onto `table`, and as a JSONL `verdict` record.
fn verdict(table: &mut Table, emit: &mut Emitter, row: [&str; 6]) {
    table.row_of(&row);
    let keys = ["record", "artifact", "field", "paper", "expected", "got", "status"];
    let values = ["verdict"].into_iter().chain(row).map(Value::str);
    emit.record(&Value::Object(keys.into_iter().map(String::from).zip(values).collect()));
}

/// Runs `rows` in order under one [`Ctx`] built from `--jobs` and
/// `--fault-rate`, hands each artifact to `sink`, and ends the JSONL
/// stream with the context's `metrics` record. A row whose campaign ran
/// out of retries ends the run with `shard_failure`/`partial_failure`
/// records, like every sharded command.
fn run_rows(
    args: &Args,
    rows: &[&Experiment],
    mut sink: impl FnMut(&mut Emitter, &Experiment, &Ctx, Artifact) -> CliResult,
) -> CliResult {
    let ctx = Ctx::new(jobs(args), tolerance(args));
    let mut emit = Emitter::from_args(args)?;
    let tr = trace_arm(args);
    for row in rows {
        let art = match (row.run)(&ctx) {
            Ok(art) => art,
            Err(e) => {
                let _ = trace_write(tr.as_ref());
                return Err(match e.downcast::<ExperimentError>() {
                    Ok(e) => fail_sharded(emit, *e, None),
                    Err(e) => format!("{}: {e}", row.id).into(),
                });
            }
        };
        sink(&mut emit, row, &ctx, art)?;
    }
    emit.finish(&ctx.telemetry().snapshot())?;
    trace_write(tr.as_ref())
}

/// A command that shows the [`EXPERIMENTS`] rows `ids`: each artifact
/// printed, or streamed as its one `bench` JSONL record, exactly as
/// `reproduce` writes it.
fn show_rows(args: &Args, ids: &[&str]) -> CliResult {
    let rows = ids
        .iter()
        .map(|id| experiments::find(id).ok_or_else(|| format!("no experiment '{id}'")))
        .collect::<Result<Vec<_>, _>>()?;
    run_rows(args, &rows, |emit, _, _, art| {
        if !emit.quiet() {
            println!("{art}");
        }
        emit.record(&art.to_json());
        Ok(())
    })
}

/// Regenerates the [`EXPERIMENTS`] rows (all, or `--only ID`), their
/// campaigns sharded on the executor, and writes each artifact into
/// `--out` under the run's fault plan.
fn cmd_reproduce(args: &Args) -> CliResult {
    let rows: Vec<&Experiment> = match args.text("only").ok() {
        Some(id) => vec![experiments::find(id).ok_or_else(|| {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            format!("--only got unknown experiment '{id}' (expected one of: {})", ids.join(", "))
        })?],
        None => EXPERIMENTS.iter().collect(),
    };
    let out = std::path::Path::new(args.text("out")?);
    std::fs::create_dir_all(out)
        .map_err(|e| format!("cannot create --out dir '{}': {e}", out.display()))?;
    run_rows(args, &rows, |emit, row, ctx, art| {
        let path = art
            .write_tolerant(out, &ctx.tol.faults, ctx.tol.retry)
            .map_err(|e| format!("{}: cannot write its artifact: {e}", row.id))?;
        println!("{:<16} {:<22} {}", row.id, row.paper, path.display());
        emit.record(&Value::Object(vec![
            ("record".into(), Value::str("reproduced")),
            ("experiment".into(), Value::str(row.id)),
            ("paper".into(), Value::str(row.paper)),
            ("path".into(), Value::str(path.display().to_string())),
        ]));
        Ok(())
    })
}

fn cmd_verify(args: &Args) -> CliResult {
    let mut emit = Emitter::from_args(args)?;
    let env_dir = || std::env::var("PACMAN_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let dir = args.text("dir").map_or_else(|_| env_dir(), String::from);
    let ids = claims::artifact_ids();
    let only = args.text("only").ok();
    if let Some(id) = only.filter(|id| !ids.contains(id)) {
        let ids = ids.join(", ");
        return Err(format!("--only got unknown artifact '{id}' (expected one of: {ids})").into());
    }
    let checked: Vec<&str> = ids.into_iter().filter(|id| only.is_none_or(|o| o == *id)).collect();
    let mut table = Table::new(
        format!("paper-claims verification ({dir})"),
        &["artifact", "field", "paper claim", "expected", "got", "status"],
    );
    let (mut pass, mut fail, mut missing) = (0usize, 0usize, 0usize);
    let mut artifacts_loaded = 0usize;
    for id in checked.iter().copied() {
        let path = std::path::Path::new(&dir).join(format!("BENCH_{id}.json"));
        let artifact = match std::fs::read_to_string(&path) {
            Ok(text) => match pacman_telemetry::json::parse(text.trim()) {
                Ok(v) => v,
                Err(e) => {
                    fail += 1;
                    let why = format!("unparseable: {e}");
                    verdict(
                        &mut table,
                        &mut emit,
                        [id, "(artifact)", "-", "valid JSON", &why, "fail"],
                    );
                    continue;
                }
            },
            Err(_) => {
                missing += 1;
                let row = [id, "(artifact)", "-", "file present", "absent", "missing"];
                verdict(&mut table, &mut emit, row);
                continue;
            }
        };
        artifacts_loaded += 1;
        for claim in claims::for_artifact(id) {
            let status = claim.check(&artifact);
            match status {
                claims::Verdict::Pass => pass += 1,
                claims::Verdict::Fail(_) => fail += 1,
                claims::Verdict::Missing => missing += 1,
            }
            let got = render_got(artifact.get(claim.field));
            let expected = claim.expect.describe();
            let row = [id, claim.field, claim.paper, &expected, &got, status.status()];
            verdict(&mut table, &mut emit, row);
        }
    }
    let ok = fail == 0 && missing == 0;
    if !emit.quiet() {
        println!("{table}");
        println!(
            "claims: {pass} pass, {fail} fail, {missing} missing \
             ({artifacts_loaded}/{} artifacts loaded from '{dir}')",
            checked.len()
        );
        println!("verdict: {}", if ok { "all claims in tolerance" } else { "OUT OF TOLERANCE" });
    }
    let summary = Value::Object(vec![
        ("record".into(), Value::str("verify_summary")),
        ("dir".into(), Value::str(dir.clone())),
        ("artifacts_expected".into(), Value::UInt(checked.len() as u64)),
        ("artifacts_loaded".into(), Value::UInt(artifacts_loaded as u64)),
        ("pass".into(), Value::UInt(pass as u64)),
        ("fail".into(), Value::UInt(fail as u64)),
        ("missing".into(), Value::UInt(missing as u64)),
        ("faults_active".into(), Value::Bool(FaultPlan::from_env().is_active())),
        ("ok".into(), Value::Bool(ok)),
    ]);
    emit.record(&summary);
    emit.close()?;
    if !ok {
        return Err(format!("{fail} claim(s) out of tolerance, {missing} missing").into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgsError;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).expect("parses")
    }

    /// Parses and dispatches one command line, as `main` does.
    fn run(line: &str) -> CliResult {
        dispatch(&Args::parse(line.split_whitespace().map(String::from))?)
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run("frobnicate").is_err());
    }

    #[test]
    fn an_empty_command_is_a_usage_error_not_a_panic() {
        // The daemon reuses dispatch for client-submitted command
        // lines; an empty line must surface as a typed error.
        let err = run("").expect_err("empty command errors");
        assert!(err.to_string().contains("no command"), "{err}");
    }

    #[test]
    fn oracle_command_runs_end_to_end() {
        run("oracle --trials 2 --quiet-noise").expect("oracle runs");
    }

    #[test]
    fn oracle_cache_channel_runs() {
        run("oracle --trials 1 --channel cache --quiet-noise").expect("cache oracle");
    }

    #[test]
    fn oracle_rejects_bad_channels() {
        assert!(run("oracle --trials 1 --channel pigeon --quiet-noise").is_err());
    }

    #[test]
    fn brute_command_finds_the_pac_in_a_small_window() {
        run("brute --window 8 --quiet-noise").expect("brute runs");
    }

    #[test]
    fn jump2win_command_succeeds_with_a_window() {
        run("jump2win --window 12 --quiet-noise").expect("jump2win runs");
    }

    #[test]
    fn census_command_runs() {
        run("census").expect("census runs");
    }

    #[test]
    fn timeline_command_runs() {
        run("timeline --quiet-noise").expect("timeline runs");
    }

    #[test]
    fn oracle_metrics_out_writes_valid_jsonl() {
        let path = std::env::temp_dir().join("pacman_cli_oracle_metrics_test.jsonl");
        let path_str = path.to_str().expect("utf-8 temp path");
        run(&format!("oracle --trials 2 --quiet-noise --metrics-out {path_str}"))
            .expect("oracle runs");
        let text = std::fs::read_to_string(&path).expect("metrics file written");
        std::fs::remove_file(&path).ok();
        let records = pacman_telemetry::json::parse_jsonl(&text).expect("valid JSONL");
        // 2 trials per class = 4 trial records, then the metrics snapshot.
        assert_eq!(records.len(), 5);
        for r in &records[..4] {
            assert_eq!(r.get("record").and_then(Value::as_str), Some("trial"));
            assert_eq!(r.get("channel").and_then(Value::as_str), Some("dtlb-data"));
            assert!(r.get("correct").and_then(Value::as_bool).is_some());
            assert!(r.get("ground_truth").and_then(Value::as_bool).is_some());
            assert!(r.get("cycles").and_then(Value::as_u64).unwrap() > 0);
        }
        let metrics = &records[4];
        assert_eq!(metrics.get("record").and_then(Value::as_str), Some("metrics"));
        let counters = metrics.get("counters").expect("counters object");
        // Every modelled TLB and cache level must show activity.
        for series in [
            "tlb.itlb.user.hits",
            "tlb.itlb.user.misses",
            "tlb.itlb.kernel.hits",
            "tlb.itlb.kernel.misses",
            "tlb.dtlb.hits",
            "tlb.dtlb.misses",
            "tlb.l2.hits",
            "tlb.l2.misses",
            "cache.l1i.hits",
            "cache.l1i.misses",
            "cache.l1d.hits",
            "cache.l1d.misses",
            "cache.l2.hits",
            "cache.l2.misses",
            "oracle.trials",
        ] {
            let v = counters.get(series).and_then(Value::as_u64);
            assert!(v.is_some_and(|v| v > 0), "counter {series} missing or zero: {v:?}");
        }
        assert!(metrics.get("histograms").and_then(|h| h.get("oracle.trial.cycles")).is_some());
    }

    /// Fresh temp dir for one test; removed by the caller.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pacman_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn read_jsonl(path: &std::path::Path) -> Vec<Value> {
        let text = std::fs::read_to_string(path).expect("metrics file written");
        pacman_telemetry::json::parse_jsonl(&text).expect("valid JSONL")
    }

    #[test]
    fn unknown_options_and_flags_are_rejected() {
        let err = run("oracle --banana 1").expect_err("unknown option");
        assert!(err.to_string().contains("--banana"), "{err}");
        let err = run("sweep --full").expect_err("foreign flag");
        assert!(err.to_string().contains("--full"), "{err}");
        let err = run("census --functions 16").expect_err("no census size option");
        assert!(err.to_string().contains("unknown option --functions"), "{err}");
        let err = run("census --trials 3").expect_err("foreign option");
        assert!(err.to_string().contains("--trials"), "{err}");
    }

    #[test]
    fn metrics_out_fails_eagerly_for_unwritable_paths() {
        let err = run("oracle --trials 1 --metrics-out /nonexistent-dir-3313/deeper/out.jsonl")
            .expect_err("unwritable metrics path");
        assert!(err.to_string().contains("cannot create --metrics-out"), "{err}");
    }

    #[test]
    fn jump2win_metrics_out_includes_report_and_snapshot() {
        let dir = temp_dir("jump2win");
        let path = dir.join("out.jsonl");
        let path_str = path.to_str().expect("utf-8 temp path");
        run(&format!("jump2win --window 12 --quiet-noise --metrics-out {path_str}"))
            .expect("jump2win runs");
        let records = read_jsonl(&path);
        std::fs::remove_dir_all(&dir).ok();
        let j2w = records
            .iter()
            .find(|r| r.get("record").and_then(Value::as_str) == Some("jump2win"))
            .expect("jump2win record");
        assert_eq!(j2w.get("hijacked").and_then(Value::as_bool), Some(true));
        assert!(j2w.get("guesses_tested").and_then(Value::as_u64).unwrap() > 0);
        let metrics = records.last().expect("metrics record");
        assert_eq!(metrics.get("record").and_then(Value::as_str), Some("metrics"));
    }

    /// Runs `command` with `--metrics-out` and asserts it streams
    /// exactly the committed `results/BENCH_<id>.json` line of each of
    /// `ids`, then the `metrics` record, which it returns.
    fn assert_streams_committed_rows(command: &str, ids: &[&str]) -> Value {
        let dir = temp_dir(&format!("rows_{command}"));
        let out = dir.join("out.jsonl");
        run(&format!("{command} --metrics-out {}", out.display()))
            .unwrap_or_else(|e| panic!("{command}: {e}"));
        let text = std::fs::read_to_string(&out).expect("metrics file written");
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        assert_eq!(lines.len(), ids.len() + 1, "{command}: one bench line per row, then metrics");
        for (line, id) in lines.iter().zip(ids) {
            let committed = format!("{}/../../results/BENCH_{id}.json", env!("CARGO_MANIFEST_DIR"));
            let committed = std::fs::read_to_string(committed).expect("committed result");
            assert_eq!(*line, committed, "{command}: {id} differs from results/");
        }
        let metrics = pacman_telemetry::json::parse(lines[ids.len()].trim()).expect("JSON");
        assert_eq!(metrics.get("record").and_then(Value::as_str), Some("metrics"));
        metrics
    }

    #[test]
    fn census_mitigations_and_os_stream_their_rows_committed_bench_lines() {
        assert_streams_committed_rows("census", &["sec43"]);
        assert_streams_committed_rows("mitigations", &["sec9"]);
        assert_streams_committed_rows("os", &["sec62"]);
    }

    #[test]
    fn sweep_streams_its_rows_committed_bench_lines_and_machine_counters() {
        let metrics = assert_streams_committed_rows("sweep", &["fig5a", "fig5b", "fig5c", "fig6"]);
        let walks =
            metrics.get("counters").and_then(|c| c.get("tlb.walks")).and_then(Value::as_u64);
        assert!(walks.is_some_and(|w| w > 0), "sweeps must cause page walks: {walks:?}");
    }

    #[test]
    fn rows_that_exhaust_their_retries_end_in_a_typed_partial_failure() {
        let dir = temp_dir("rows_exhaust");
        let out = dir.join("out.jsonl");
        for command in [
            "sweep --fault-rate 1".to_string(),
            format!("reproduce --only fig5a --fault-rate 1 --out {}", dir.display()),
        ] {
            let err = run(&format!("{command} --metrics-out {}", out.display()))
                .expect_err("rate 1.0 exhausts every shard's retry budget");
            assert!(err.to_string().contains("shards completed"), "{command}: {err}");
            let kinds: Vec<String> = read_jsonl(&out)
                .iter()
                .map(|r| r.get("record").and_then(Value::as_str).unwrap_or_default().to_string())
                .collect();
            assert_eq!(kinds.first().map(String::as_str), Some("shard_failure"), "{command}");
            assert_eq!(kinds.last().map(String::as_str), Some("partial_failure"), "{command}");
        }
        let written = std::fs::read_dir(&dir).expect("dir").count();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(written, 1, "only the JSONL file: no artifact written");
    }

    #[test]
    fn verify_passes_over_example_artifacts() {
        let dir = temp_dir("verify_pass");
        for id in claims::artifact_ids() {
            claims::example_artifact(id).write_to(&dir).expect("example artifact");
        }
        let out = dir.join("verdicts.jsonl");
        let cmd = format!("verify --dir {} --metrics-out {}", dir.display(), out.display());
        run(&cmd).expect("all example artifacts verify");
        let records = read_jsonl(&out);
        std::fs::remove_dir_all(&dir).ok();
        let summary = records.last().expect("verify_summary record");
        assert_eq!(summary.get("record").and_then(Value::as_str), Some("verify_summary"));
        assert_eq!(summary.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            summary.get("artifacts_loaded").and_then(Value::as_u64),
            Some(claims::artifact_ids().len() as u64)
        );
        let verdicts =
            records.iter().filter(|r| r.get("record").and_then(Value::as_str) == Some("verdict"));
        let statuses: Vec<_> = verdicts
            .map(|r| r.get("status").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert!(!statuses.is_empty());
        assert!(statuses.iter().all(|s| s == "pass"), "all verdicts pass: {statuses:?}");
    }

    #[test]
    fn verify_fails_on_a_perturbed_artifact() {
        let dir = temp_dir("verify_fail");
        for id in claims::artifact_ids() {
            claims::example_artifact(id).write_to(&dir).expect("example artifact");
        }
        // Perturb one structural value out of tolerance.
        std::fs::write(
            dir.join("BENCH_fig6.json"),
            "{\"record\":\"bench\",\"experiment\":\"fig6\",\"itlb_ways\":99}\n",
        )
        .expect("perturbed artifact");
        let err = run(&format!("verify --dir {}", dir.display()))
            .expect_err("perturbed artifact must fail verification");
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.to_string().contains("out of tolerance"), "{err}");
    }

    #[test]
    fn jobs_option_is_accepted_by_trial_commands() {
        run("oracle --trials 2 --quiet-noise --jobs 4").expect("oracle --jobs");
        run("brute --window 8 --quiet-noise --jobs 2").expect("brute --jobs");
        run("census --jobs 3").expect("census --jobs");
        let err = run("mitigations --jobs 2").expect_err("foreign option");
        assert!(err.to_string().contains("--jobs"), "{err}");
    }

    #[test]
    fn runner_option_is_rejected_by_every_command() {
        for Command { name: command, .. } in COMMANDS {
            let err = run(&format!("{command} --runner executor"))
                .expect_err("--runner is not an option");
            assert!(err.to_string().contains("unknown option --runner"), "{command}: {err}");
        }
    }

    #[test]
    fn every_declared_flag_and_option_parses_as_declared() {
        for cmd in COMMANDS {
            for opt in cmd.options {
                let (c, name) = (cmd.name, opt.name);
                if let Kind::Flag = opt.kind {
                    // A flag takes no value: a second `--name` still parses.
                    let a = parse(&format!("{c} --{name} --{name}"));
                    assert!(a.flag(name), "{c}: --{name} did not parse as a flag");
                    continue;
                }
                let alone = Args::parse([c.to_string(), format!("--{name}")]);
                assert_eq!(alone, Err(ArgsError::MissingValue(name.into())), "{c}: --{name}");
                // A value of the option's kind, and whether it was stored.
                let (value, stored): (String, fn(&Args, &str) -> bool) = match opt.kind {
                    Kind::Uint { min, .. } => (min.to_string(), |a, n| a.num::<u64>(n).is_ok()),
                    Kind::Rate => ("0.5".into(), |a, n| a.rate(n) == Ok(0.5)),
                    Kind::Choice { choices, .. } => (choices[1].into(), |a, n| a.text(n).is_ok()),
                    _ => ("v".into(), |a, n| a.text(n) == Ok("v")),
                };
                let a = parse(&format!("{c} --{name} {value}"));
                assert!(stored(&a, name), "{c}: --{name} {value} is not key/value");
                assert!(!a.flag(name), "{c}: --{name} parsed as a flag");
            }
        }
    }

    #[test]
    fn degenerate_and_oversized_values_are_usage_errors() {
        for (line, option) in [
            ("brute --window 0", "--window"),
            ("jump2win --window 0", "--window"),
            ("oracle --trials 0", "--trials"),
            ("oracle --jobs 0", "--jobs"),
            ("brute --window 4000000000", "--window"),
            ("profile brute --window 4000000000", "--window"),
            ("jump2win --window 65537", "--window"),
            ("profile --top 0", "--top"),
            ("daemon --workers 0", "--workers"),
            ("daemon --checkpoint-every 0", "--checkpoint-every"),
        ] {
            let err = Args::parse(line.split_whitespace().map(String::from)).expect_err(line);
            assert!(matches!(err, ArgsError::BadValue { .. }), "{line}: {err:?}");
            assert!(err.to_string().contains(option), "{line}: {err}");
        }
    }

    #[test]
    fn help_text_matches_its_snapshot() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/help.txt");
        if std::env::var_os("PACMAN_BLESS").is_some_and(|v| v == "1") {
            std::fs::write(path, usage()).expect("bless snapshot");
        }
        let expected = std::fs::read_to_string(path).expect("help snapshot");
        assert_eq!(usage(), expected, "--help changed; re-bless with PACMAN_BLESS=1 if intended");
    }

    #[test]
    fn conform_accepts_skip_self_test() {
        let dir = temp_dir("conform_skip_self_test");
        let path = dir.join("conform.jsonl");
        run(&format!(
            "conform --programs 2 --seed 7 --skip-self-test --metrics-out {}",
            path.display()
        ))
        .expect("conform --skip-self-test runs");
        let records = read_jsonl(&path);
        std::fs::remove_dir_all(&dir).ok();
        let summary = records
            .iter()
            .find(|r| r.get("record").and_then(Value::as_str) == Some("conform_summary"))
            .expect("conform_summary record");
        assert_eq!(summary.get("self_test_expected").and_then(Value::as_u64), Some(0));
        assert_eq!(summary.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn verify_only_checks_one_artifact_and_skips_history() {
        let dir = temp_dir("verify_only");
        claims::example_artifact("perf_trace").write_to(&dir).expect("example artifact");
        let out = dir.join("only.jsonl");
        let cmd = format!(
            "verify --dir {} --only perf_trace --metrics-out {}",
            dir.display(),
            out.display()
        );
        run(&cmd).expect("single present artifact passes despite 23 absent ones");
        let records = read_jsonl(&out);
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("readable dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        files.sort();
        let err = run(&format!("verify --dir {} --only nonsense", dir.display()))
            .expect_err("unknown --only id");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(files, ["BENCH_perf_trace.json", "only.jsonl"], "verify writes no files");
        assert!(err.to_string().contains("unknown artifact 'nonsense'"), "{err}");
        let summary = records.last().expect("verify_summary");
        assert_eq!(summary.get("record").and_then(Value::as_str), Some("verify_summary"));
        assert_eq!(summary.get("artifacts_expected").and_then(Value::as_u64), Some(1));
        assert_eq!(summary.get("missing").and_then(Value::as_u64), Some(0));
        assert_eq!(summary.get("ok").and_then(Value::as_bool), Some(true));
        assert!(records.iter().all(|r| r
            .get("artifact")
            .and_then(Value::as_str)
            .unwrap_or("perf_trace")
            == "perf_trace"));
    }

    #[test]
    fn verify_reports_missing_artifacts() {
        let dir = temp_dir("verify_missing");
        let err = run(&format!("verify --dir {}", dir.display()))
            .expect_err("empty artifact dir must fail verification");
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn reproduce_writes_the_committed_artifact_and_rejects_unknown_ids() {
        let dir = temp_dir("reproduce_only");
        let out = dir.join("reproduce.jsonl");
        let cmd = format!(
            "reproduce --only table2 --out {} --metrics-out {}",
            dir.display(),
            out.display()
        );
        run(&cmd).expect("reproduce --only table2 runs");
        let written = std::fs::read(dir.join("BENCH_table2.json")).expect("artifact written");
        let records = read_jsonl(&out);
        let err = run(&format!("reproduce --only nonsense --out {}", dir.display()))
            .expect_err("unknown --only id");
        std::fs::remove_dir_all(&dir).ok();
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_table2.json");
        assert_eq!(written, std::fs::read(committed).expect("committed result"));
        assert_eq!(records[0].get("record").and_then(Value::as_str), Some("reproduced"));
        assert_eq!(records[0].get("experiment").and_then(Value::as_str), Some("table2"));
        assert_eq!(records.last().and_then(|r| r.get("record")?.as_str()), Some("metrics"));
        let msg = err.to_string();
        assert!(msg.contains("unknown experiment 'nonsense'"), "{msg}");
        for e in EXPERIMENTS {
            assert!(msg.contains(e.id), "{msg} omits {}", e.id);
        }
    }

    /// Drops `runner.*` counters from every metrics record so a faulted
    /// run can be compared bit-for-bit against its fault-free baseline:
    /// the retry bookkeeping is the only permitted difference.
    fn without_runner_counters(records: &[Value]) -> Vec<Value> {
        records
            .iter()
            .cloned()
            .map(|record| match record {
                Value::Object(fields) => Value::Object(
                    fields
                        .into_iter()
                        .map(|(key, value)| match (key.as_str(), value) {
                            ("counters", Value::Object(counters)) => (
                                key,
                                Value::Object(
                                    counters
                                        .into_iter()
                                        .filter(|(name, _)| !name.starts_with("runner."))
                                        .collect(),
                                ),
                            ),
                            (_, value) => (key, value),
                        })
                        .collect(),
                ),
                other => other,
            })
            .collect()
    }

    fn runner_counter(records: &[Value], name: &str) -> u64 {
        records
            .last()
            .expect("metrics record")
            .get("counters")
            .expect("counters object")
            .get(name)
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    #[test]
    fn faulted_runs_within_budget_match_fault_free_baselines() {
        let dir = temp_dir("faults_budget");
        for (tag, cmd) in [
            ("oracle", "oracle --trials 4 --jobs 4 --quiet-noise"),
            ("brute", "brute --window 8 --jobs 4 --quiet-noise"),
        ] {
            let base = dir.join(format!("{tag}_base.jsonl"));
            run(&format!("{cmd} --fault-rate 0 --metrics-out {}", base.display()))
                .expect("fault-free baseline");
            let baseline = read_jsonl(&base);
            // Fault decisions are a pure function of (plan seed, rate,
            // site, shard, attempt) — not of wall-clock or scheduling —
            // so walking a small rate ladder deterministically finds a
            // rate that injects at least one fault while every shard
            // still survives its retry budget. The ladder, not a pinned
            // rate, keeps this test valid under any PACMAN_FAULT_SEED
            // the environment may export.
            let mut matched = false;
            for rate in ["0.2", "0.25", "0.3", "0.35"] {
                let out = dir.join(format!("{tag}_{rate}.jsonl"));
                let run =
                    run(&format!("{cmd} --fault-rate {rate} --metrics-out {}", out.display()));
                if run.is_err() {
                    continue; // budget exhausted at this rate; try lower odds elsewhere
                }
                let faulted = read_jsonl(&out);
                if runner_counter(&faulted, "runner.retries") == 0 {
                    continue; // no fault fired; climb the ladder
                }
                assert!(runner_counter(&faulted, "runner.faults_injected") > 0);
                assert_eq!(runner_counter(&faulted, "runner.shard_failures"), 0);
                assert_eq!(
                    without_runner_counters(&faulted),
                    without_runner_counters(&baseline),
                    "{tag}: retried aggregates must be bit-identical to the fault-free run"
                );
                matched = true;
                break;
            }
            assert!(matched, "{tag}: no ladder rate injected faults within the retry budget");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_rate_one_exhausts_the_budget_with_a_typed_partial_failure() {
        let dir = temp_dir("faults_exhaust");
        let out = dir.join("out.jsonl");
        // Rate 1.0 fires on every (shard, attempt) decision regardless of
        // seed, so every shard must exhaust its budget: a typed partial
        // failure with per-shard evidence, never a panic.
        let err = run(&format!(
            "oracle --trials 4 --jobs 2 --quiet-noise --fault-rate 1 --metrics-out {}",
            out.display()
        ))
        .expect_err("rate 1.0 must exhaust every shard's retry budget");
        let records = read_jsonl(&out);
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.to_string().contains("shards completed"), "{err}");
        let failures: Vec<_> = records
            .iter()
            .filter(|r| r.get("record").and_then(Value::as_str) == Some("shard_failure"))
            .collect();
        assert!(!failures.is_empty(), "per-shard failure evidence must be recorded");
        for f in &failures {
            assert!(f.get("shard").and_then(Value::as_u64).is_some());
            assert!(f.get("attempts").and_then(Value::as_u64).is_some());
            assert!(f.get("panicked").and_then(Value::as_bool).is_some());
            assert!(f.get("message").and_then(Value::as_str).is_some());
        }
        let partial = records
            .iter()
            .find(|r| r.get("record").and_then(Value::as_str) == Some("partial_failure"))
            .expect("partial_failure summary record");
        assert_eq!(partial.get("shards_completed").and_then(Value::as_u64), Some(0));
        assert!(partial.get("shards_total").and_then(Value::as_u64).unwrap() > 0);
        assert_eq!(
            partial.get("failures").and_then(Value::as_u64),
            partial.get("shards_total").and_then(Value::as_u64)
        );
    }

    #[test]
    fn fault_rate_option_is_validated() {
        let err = run("oracle --trials 1 --fault-rate 1.5").expect_err("rate > 1");
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
        let err = run("oracle --trials 1 --fault-rate nan-ish").expect_err("garbage");
        assert!(err.to_string().contains("not a number"), "{err}");
        let err = run("census --fault-rate 0.5").expect_err("foreign option");
        assert!(err.to_string().contains("--fault-rate"), "{err}");
    }

    /// Serializes tests that arm the process-wide flight recorder: two
    /// concurrent `trace_arm`/`take` sequences would steal each other's
    /// events. Tests that never enable tracing are unaffected.
    static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn profile_command_writes_a_round_trippable_trace_and_hot_reports() {
        let _guard = trace_lock();
        let dir = temp_dir("profile");
        let trace_path = dir.join("trace.json");
        let out = dir.join("out.jsonl");
        run(&format!(
            "profile oracle --trials 2 --quiet-noise --top 5 --trace-out {} --metrics-out {}",
            trace_path.display(),
            out.display()
        ))
        .expect("profile oracle runs");
        let text = std::fs::read_to_string(&trace_path).expect("trace written");
        let events = trace::parse_chrome_trace(&text).expect("trace round-trips");
        // Concurrent tests may add events to the global recorder, so
        // assert supersets only: this run's lifecycle spans must be in.
        assert!(!events.is_empty());
        assert!(events.iter().any(|e| e.name == "shards.run"), "run-level span present");
        assert!(events.iter().any(|e| e.name == "shard.exec"), "per-shard spans present");
        let records = read_jsonl(&out);
        let opcode_rows: Vec<_> = records
            .iter()
            .filter(|r| r.get("record").and_then(Value::as_str) == Some("profile_opcode"))
            .collect();
        assert!(!opcode_rows.is_empty() && opcode_rows.len() <= 5, "top-N opcode rows");
        for r in &opcode_rows {
            assert!(r.get("retired").and_then(Value::as_u64).unwrap() > 0);
            assert!(r.get("cycles").and_then(Value::as_u64).unwrap() > 0);
        }
        assert!(records
            .iter()
            .any(|r| r.get("record").and_then(Value::as_str) == Some("profile_block")));
        let phase_rows: Vec<_> = records
            .iter()
            .filter(|r| r.get("record").and_then(Value::as_str) == Some("profile_phase"))
            .collect();
        assert_eq!(phase_rows.len(), 4, "decode/dispatch/memory/qarma");
        let summary = records
            .iter()
            .find(|r| r.get("record").and_then(Value::as_str) == Some("profile_summary"))
            .expect("profile_summary record");
        assert!(summary.get("trace_events").and_then(Value::as_u64).unwrap() > 0);
        // The merged machine snapshot carries the raw profile counters.
        let metrics = records.last().expect("metrics record");
        assert_eq!(metrics.get("record").and_then(Value::as_str), Some("metrics"));
        let counters = metrics.get("counters").expect("counters object");
        assert!(
            counters.get("profile.opcode.ldr.retired").and_then(Value::as_u64).unwrap() > 0,
            "profiled loads must be attributed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_rejects_unknown_experiments_and_foreign_subjects() {
        let err = run("profile sweep").expect_err("unsupported experiment");
        assert!(err.to_string().contains("profile cannot run"), "{err}");
        let err = run("oracle extra --trials 1").expect_err("foreign subject");
        assert!(err.to_string().contains("unexpected argument 'extra'"), "{err}");
    }

    #[test]
    fn trace_out_on_oracle_emits_a_valid_chrome_trace() {
        let _guard = trace_lock();
        let dir = temp_dir("trace_out");
        let trace_path = dir.join("oracle_trace.json");
        run(&format!("oracle --trials 2 --quiet-noise --trace-out {}", trace_path.display()))
            .expect("oracle runs");
        let text = std::fs::read_to_string(&trace_path).expect("trace written");
        let events = trace::parse_chrome_trace(&text).expect("trace parses");
        assert!(events.iter().any(|e| e.name == "shard.queue_wait"));
        assert!(events.iter().any(|e| e.name == "shards.run"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_survives_a_faulted_partial_failure() {
        let _guard = trace_lock();
        let dir = temp_dir("trace_fault");
        let trace_path = dir.join("faulted_trace.json");
        run(&format!(
            "oracle --trials 2 --jobs 2 --quiet-noise --fault-rate 1 --trace-out {}",
            trace_path.display()
        ))
        .expect_err("rate 1.0 exhausts the budget");
        let text = std::fs::read_to_string(&trace_path).expect("trace written on failure too");
        let events = trace::parse_chrome_trace(&text).expect("trace parses");
        assert!(events.iter().any(|e| e.name == "shard.retry"), "injected faults visible");
        assert!(events.iter().any(|e| e.name == "shard.fail"), "permanent failures visible");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_out_has_no_truncated_trailing_line_after_partial_failure() {
        let dir = temp_dir("faults_durability");
        let out = dir.join("out.jsonl");
        run(&format!(
            "oracle --trials 4 --jobs 2 --quiet-noise --fault-rate 1 --metrics-out {}",
            out.display()
        ))
        .expect_err("rate 1.0 must exhaust every shard's retry budget");
        let text = std::fs::read_to_string(&out).expect("metrics file written");
        std::fs::remove_dir_all(&dir).ok();
        // Every record emitted before the failure must be durable as a
        // complete line: newline-terminated, no torn tail.
        assert!(!text.is_empty(), "partial evidence must be on disk");
        assert!(text.ends_with('\n'), "no truncated trailing line");
        let records = pacman_telemetry::json::parse_jsonl(&text).expect("valid JSONL");
        assert!(records
            .iter()
            .any(|r| r.get("record").and_then(Value::as_str) == Some("shard_failure")));
    }

    #[test]
    fn emitter_latches_write_errors_and_freezes_the_file() {
        let dir = temp_dir("emitter_errors");
        let path = dir.join("frozen.jsonl");
        std::fs::write(&path, "").expect("create");
        // A read-only handle makes every write fail, exercising the
        // error-latching path without faking a full disk.
        let file = std::fs::OpenOptions::new().read(true).open(&path).expect("read-only open");
        let out = MetricsFile { path: path.display().to_string(), file, committed: 0 };
        let mut emit = Emitter { json_stdout: false, out: Some(out), write_error: None };
        emit.record(&Value::Object(vec![("record".into(), Value::str("a"))]));
        emit.record(&Value::Object(vec![("record".into(), Value::str("b"))]));
        let err = emit.close().expect_err("write failure surfaces on close");
        assert!(err.to_string().contains("frozen.jsonl"), "{err}");
        let text = std::fs::read_to_string(&path).expect("readable");
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.is_empty(), "nothing past the committed boundary: {text:?}");
    }

    #[test]
    fn verify_summary_records_whether_faults_were_active() {
        let dir = temp_dir("verify_faults_field");
        for id in claims::artifact_ids() {
            claims::example_artifact(id).write_to(&dir).expect("example artifact");
        }
        let out = dir.join("verdicts.jsonl");
        let cmd = format!("verify --dir {} --metrics-out {}", dir.display(), out.display());
        run(&cmd).expect("verify runs");
        let records = read_jsonl(&out);
        std::fs::remove_dir_all(&dir).ok();
        let summary = records.last().expect("verify_summary record");
        let faults_active = summary.get("faults_active").and_then(Value::as_bool);
        assert_eq!(faults_active, Some(pacman_core::FaultPlan::from_env().is_active()));
    }
}
