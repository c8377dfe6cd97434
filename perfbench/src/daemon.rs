//! The `daemon_tenants` workload: the real `pacman-cli daemon` in durable
//! mode, driven over one stdio connection carrying two sessions. A bulk
//! tenant keeps a large oracle campaign queued; an interactive tenant
//! submits small oracle and brute-force jobs open-loop (Poisson arrivals
//! at a fixed mean rate), each timed from the moment it was due. Timings
//! run on the daemon's CPU clock ([`probes::cpu_ns`]).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pacman_core::fault::Tolerance;
use pacman_core::parallel::{oracle_distribution, parallel_brute, Channel};
use pacman_core::{pool, SystemConfig};
use pacman_daemon::DaemonSnapshot;
use pacman_runner::{mix64, DEFAULT_SHARDS};
use pacman_telemetry::bin::fnv1a;
use pacman_telemetry::json::{parse, to_jsonl_line, Value};
use pacman_telemetry::{trace, SpanEvent};

use crate::inproc::{self, GroundTruth, Kind, JOBS};
use crate::probes::{self, BENCH_TID};
use crate::report::{Digest, Report, SimStats};
use crate::stats::{median, min_samples_for, ms_between, percentile, OpenLoop, TAIL_SAMPLES};
use crate::stream::{classify, Demux};
use crate::Ctx;

/// Interactive jobs offered per second (mean of Poisson arrivals): well
/// under what two workers serve next to the bulk tenant, so latency
/// reflects queueing behind bulk shards rather than an overloaded daemon.
pub const RATE: f64 = 20.0;
/// Trial pairs of an interactive oracle job (8 shards of at most one).
pub const INTER_TRIALS: usize = 4;
/// Candidates of an interactive brute-force job.
pub const INTER_WINDOW: usize = 16;
/// Trial pairs of a bulk oracle job.
pub const BULK_TRIALS: usize = 1000;
/// Bulk jobs kept submitted at all times. One, resubmitted as it
/// finishes: with two, both daemon workers could end up on bulk jobs, an
/// interactive job then waited for a whole bulk job, and median latency
/// moved by 15 % from run to run with how often that happened.
pub const BULK_QUEUED: usize = 1;
/// Output records between the daemon's checkpoints.
const CHECKPOINT_EVERY: &str = "2048";
/// Daemon spawns timed for `setup_s`.
const SETUP_REPS: usize = 5;
/// How long to wait for any single daemon reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

const BULK: &str = "bulk";
const INTER: &str = "inter";

/// One interactive command of the input cycle, with its checked
/// one-shot reference output.
struct Interactive {
    command: String,
    kind: Kind,
    cfg: SystemConfig,
    reference: Vec<String>,
    stats: SimStats,
}

/// The interactive inputs: an oracle and a brute-force job on each of two
/// seed-derived kernels (with the bulk kernel, as many as a worker's
/// machine pool holds), oracle jobs first.
fn interactive_commands(seed: u64) -> Vec<(Kind, u64, String)> {
    let kernels = [0, 1].map(|k| mix64(seed, 300 + k) % 1_000_000);
    let oracle = kernels.map(|k| {
        (Kind::Oracle, k, format!("oracle --trials {INTER_TRIALS} --jobs {JOBS} --seed {k}"))
    });
    let brute = kernels.map(|k| {
        (Kind::Brute, k, format!("brute --window {INTER_WINDOW} --jobs {JOBS} --seed {k}"))
    });
    oracle.into_iter().chain(brute).collect()
}

/// The order the open loop submits interactive inputs in, repeated: one
/// job in four is a brute-force job. Brute-force jobs queue for more
/// executor rounds than oracle jobs, so latency is bimodal; at this mix
/// the median falls inside the oracle mode and p95 inside the
/// brute-force mode rather than in the gap between them.
const SCHEDULE: [usize; 8] = [0, 1, 2, 0, 1, 0, 1, 3];

fn bulk_command(seed: u64) -> String {
    format!("oracle --trials {BULK_TRIALS} --jobs {JOBS} --seed {}", mix64(seed, 302) % 1_000_000)
}

/// Parses a `--metrics-out` style JSONL text into records.
fn records(lines: &[String]) -> Result<Vec<Value>, String> {
    lines.iter().map(|l| parse(l).map_err(|e| format!("unparsable job output: {e}"))).collect()
}

fn field_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Checks one interactive command's output against `System::true_pac`
/// ground truth and extracts its simulated statistics.
fn check_output(kind: Kind, truth: GroundTruth, lines: &[String]) -> Result<SimStats, String> {
    let recs = records(lines)?;
    let metrics = recs
        .iter()
        .find(|r| r.get("record").and_then(Value::as_str) == Some("metrics"))
        .ok_or("no metrics record")?;
    let counters = metrics.get("counters").ok_or("metrics record without counters")?;
    let counter = |k: &str| field_u64(counters, k);
    match kind {
        Kind::Oracle => {
            let trials: Vec<&Value> = recs
                .iter()
                .filter(|r| r.get("record").and_then(Value::as_str) == Some("trial"))
                .collect();
            if trials.len() != 2 * INTER_TRIALS {
                return Err(format!("{} trial records", trials.len()));
            }
            let mut matching = 0;
            for t in &trials {
                let truth_says = field_u64(t, "guess") == u64::from(truth.true_pac);
                if t.get("ground_truth").and_then(Value::as_bool) != Some(truth_says)
                    || field_u64(t, "target") != truth.target
                {
                    return Err("trial record disagrees with System::true_pac".into());
                }
                matching +=
                    u64::from(t.get("correct").and_then(Value::as_bool) == Some(truth_says));
            }
            let cycles = metrics
                .get("histograms")
                .and_then(|h| h.get("oracle.trial.cycles"))
                .map_or(0, |h| field_u64(h, "sum"));
            Ok(SimStats::new(counter, cycles, trials.len() as u64, matching))
        }
        Kind::Brute => {
            let b = recs
                .iter()
                .find(|r| r.get("record").and_then(Value::as_str) == Some("brute"))
                .ok_or("no brute record")?;
            if field_u64(b, "crashes") != 0 {
                return Err(format!("{} kernel crashes", field_u64(b, "crashes")));
            }
            if field_u64(b, "target") != truth.target {
                return Err("brute target disagrees with ground truth".into());
            }
            // The CLI centres its window on the true PAC.
            let found = b.get("found").and_then(Value::as_u64);
            if found != Some(u64::from(truth.true_pac)) {
                return Err(format!("found {found:?}, true PAC {}", truth.true_pac));
            }
            Ok(SimStats::new(counter, field_u64(b, "cycles"), field_u64(b, "guesses_tested"), 1))
        }
    }
}

/// One line of the daemon's stdout, stamped when it arrived. Job
/// completions also carry the daemon's CPU clock ([`probes::cpu_ns`]).
type Arrival = (Instant, Option<u64>, String);

/// A running daemon child and the thread reading its stdout.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<Arrival>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(cli: &Path, state_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(state_dir);
        let mut child = Command::new(cli)
            .args(["daemon", "--stdio", "--workers", "2", "--checkpoint-every", CHECKPOINT_EVERY])
            .arg("--state-dir")
            .arg(state_dir)
            .env("PACMAN_JOBS", JOBS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let pid = child.id();
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        let done = line.contains("\"job_done\"") || line.contains("\"job_failed\"");
                        let cpu = done.then(|| probes::cpu_ns(pid));
                        if tx.send((at, cpu, line)).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        Ok(Daemon { stdin: child.stdin.take(), child, rx, reader: Some(reader) })
    }

    /// Writes one request line; returns when it was written.
    fn request(&mut self, fields: &[(&str, &str)]) -> Result<Instant, String> {
        let obj = fields.iter().map(|(k, v)| ((*k).to_string(), Value::str(*v))).collect();
        let line = to_jsonl_line(&Value::Object(obj));
        let stdin = self.stdin.as_mut().ok_or("daemon stdin already closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("daemon stdin: {e}"))?;
        Ok(Instant::now())
    }

    /// The next line of the daemon's stdout before `deadline`: `None`
    /// once stdout has closed, an error when the deadline passes.
    fn next_line(&self, deadline: Instant) -> Result<Option<Arrival>, String> {
        match self.rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => Ok(Some(line)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err("the daemon stopped answering".into()),
        }
    }

    /// Waits for the exited child and its reader thread.
    fn reap(&mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| format!("waiting for the daemon: {e}"))?;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// Never leaves the child or its reader running, even on an error path.
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Some(r) = self.reader.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = r.join();
        }
    }
}

/// A bulk job's completion.
struct BulkDone {
    at: Instant,
    /// The daemon's CPU clock at completion, in ns.
    cpu_ns: u64,
    ms: f64,
    tests: u64,
    retired: u64,
}

/// One interactive job's timeline.
struct InterJob {
    slot: usize,
    input: usize,
    due: Instant,
    /// The daemon's CPU clock when the job was due, in ns.
    due_cpu_ns: u64,
    sent: Instant,
    traced: bool,
}

/// The live session: the daemon, its demultiplexed stream, and what the
/// bulk and interactive tenants have seen so far.
struct Tenants<'a> {
    daemon: Daemon,
    demux: Demux<Instant>,
    inputs: &'a [Interactive],
    /// The run seed, for the arrival schedule.
    seed: u64,
    bulk_command: String,
    bulk_fnv: Option<u64>,
    bulk_on: bool,
    bulk: Vec<BulkDone>,
    inter: Vec<InterJob>,
    /// The daemon's CPU clock at each finished job's completion, by slot.
    done_cpu_ns: BTreeMap<usize, u64>,
    problems: Vec<String>,
    span_base: (Instant, u64),
}

impl<'a> Tenants<'a> {
    fn submit(&mut self, session: &str, tag: usize, command: &str) -> Result<usize, String> {
        let at = self.daemon.request(&[
            ("type", "submit"),
            ("session", session),
            ("command", command),
        ])?;
        Ok(self.demux.submitted(session, tag, at))
    }

    fn submit_bulk(&mut self) -> Result<(), String> {
        let command = self.bulk_command.clone();
        self.submit(BULK, usize::MAX, &command).map(drop)
    }

    /// Routes one daemon line; handles finished jobs.
    fn on_line(&mut self, (at, cpu_ns, line): Arrival) -> Result<(), String> {
        let record = classify(&line)?;
        let Some(slot) = self.demux.feed(at, record) else { return Ok(()) };
        let cpu_ns = cpu_ns.unwrap_or(0);
        self.done_cpu_ns.insert(slot, cpu_ns);
        let job = &mut self.demux.jobs[slot];
        let lines = std::mem::take(&mut job.lines);
        if let Some(e) = &job.error {
            self.problems.push(format!("job {slot} ({}) failed: {e}", job.session));
        } else if job.session == BULK {
            let joined = lines.join("\n");
            let fnv = fnv1a(joined.as_bytes());
            if *self.bulk_fnv.get_or_insert(fnv) != fnv {
                self.problems.push("bulk job output differs from the first bulk job's".into());
            }
            let metrics = lines.last().and_then(|l| parse(l).ok());
            let retired = metrics
                .as_ref()
                .and_then(|m| m.get("counters"))
                .map_or(0, |c| field_u64(c, "cpu.retired"));
            if retired == 0 {
                self.problems.push(format!("bulk job produced {} lines", lines.len()));
            }
            let start = job.first_output.unwrap_or(at);
            self.bulk.push(BulkDone {
                at,
                cpu_ns,
                ms: ms_between(start, at),
                tests: (lines.len() - 1) as u64,
                retired,
            });
            if self.bulk_on {
                self.submit_bulk()?;
            }
        } else {
            let input = job.tag;
            if lines != self.inputs[input].reference {
                self.problems.push(format!(
                    "job {slot} ({}) stream differs from its one-shot --metrics-out run",
                    self.inputs[input].command
                ));
                job.error = Some("wrong output".into());
            }
        }
        Ok(())
    }

    /// Processes daemon records until `until` (or until `stop` holds).
    fn pump(&mut self, until: Instant, stop: impl Fn(&Self) -> bool) -> Result<(), String> {
        while !stop(self) {
            let wait = until.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return Ok(());
            }
            match self.daemon.rx.recv_timeout(wait) {
                Ok(arrival) => self.on_line(arrival)?,
                Err(RecvTimeoutError::Timeout) => return Ok(()),
                Err(RecvTimeoutError::Disconnected) => return Err("daemon stream ended".into()),
            }
        }
        Ok(())
    }

    /// Closes stdin and routes the rest of the stream: queued bulk jobs
    /// finish before the daemon reports `daemon_drained` and exits.
    fn drain(&mut self) -> Result<(), String> {
        drop(self.daemon.stdin.take());
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut drained = false;
        while let Some(arrival) = self.daemon.next_line(deadline)? {
            drained |= arrival.2.contains("\"daemon_drained\"");
            self.on_line(arrival)?;
        }
        self.daemon.reap()?;
        if drained {
            Ok(())
        } else {
            Err("the daemon did not report daemon_drained".into())
        }
    }

    /// Stops resubmitting bulk jobs, closes both sessions and drains the
    /// daemon; returns every problem seen on this daemon.
    fn close(&mut self) -> Vec<String> {
        self.bulk_on = false;
        let closed = [BULK, INTER].iter().try_for_each(|s| {
            self.daemon.request(&[("type", "close_session"), ("session", s)]).map(drop)
        });
        if let Err(e) = closed.and_then(|()| self.drain()) {
            self.problems.push(e);
        }
        self.problems.iter().chain(&self.demux.errors).cloned().collect()
    }

    fn finished(&self, slot: usize) -> bool {
        self.demux.jobs[slot].finished.is_some()
    }

    /// Submits interactive input `input` and waits for it (warm-up).
    fn run_one(&mut self, input: usize) -> Result<(), String> {
        let command = self.inputs[input].command.clone();
        let slot = self.submit(INTER, input, &command)?;
        self.pump(Instant::now() + REPLY_TIMEOUT, |t| t.finished(slot))?;
        if !self.finished(slot) {
            return Err(format!("warm-up job '{command}' did not finish"));
        }
        Ok(())
    }

    /// The open loop: `n` interactive jobs due at a mean of `RATE` per
    /// second, starting with position `first` of the input schedule, then
    /// waits for all of them.
    fn open_loop(&mut self, n: usize, first: usize, traced: bool) -> Result<(), String> {
        let sched =
            OpenLoop::poisson(Instant::now(), RATE, n, mix64(self.seed, 400 + first as u64));
        let from = self.inter.len();
        for i in 0..n {
            let due = sched.due(i);
            self.pump(due, |_| false)?;
            let due_cpu_ns = probes::cpu_ns(self.daemon.child.id());
            let input = SCHEDULE[(first + i) % SCHEDULE.len()];
            let command = self.inputs[input].command.clone();
            let slot = self.submit(INTER, input, &command)?;
            let sent = self.demux.jobs[slot].submitted;
            self.inter.push(InterJob { slot, input, due, due_cpu_ns, sent, traced });
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        self.pump(deadline, |t| t.inter[from..].iter().all(|j| t.finished(j.slot)))?;
        if !self.inter[from..].iter().all(|j| self.finished(j.slot)) {
            return Err("interactive jobs did not finish".into());
        }
        Ok(())
    }

    fn us(&self, t: Instant) -> u64 {
        let (base, base_us) = self.span_base;
        base_us + t.saturating_duration_since(base).as_micros() as u64
    }

    /// Bench-side spans of the traced interactive jobs: the whole job
    /// from its due time, and its accept, queue and run phases.
    fn record_spans(&self) {
        let rec = trace::recorder();
        for j in self.inter.iter().filter(|j| j.traced) {
            let job = &self.demux.jobs[j.slot];
            let (Some(acc), Some(first), Some(done)) =
                (job.accepted, job.first_output, job.finished)
            else {
                continue;
            };
            let args = vec![
                ("session".to_string(), Value::str(INTER)),
                ("job".to_string(), Value::UInt(job.id.unwrap_or(0))),
                ("command".to_string(), Value::str(self.inputs[j.input].command.clone())),
            ];
            for (name, from, to) in [
                ("daemon.job", j.due, done),
                ("daemon.accept", j.sent, acc),
                ("daemon.queue", acc, first),
                ("daemon.run", first, done),
            ] {
                rec.record(SpanEvent {
                    name: name.into(),
                    cat: "daemon".into(),
                    tid: BENCH_TID,
                    shard: None,
                    start_us: self.us(from),
                    dur_us: Some(self.us(to).saturating_sub(self.us(from))),
                    args: args.clone(),
                });
            }
        }
    }
}

/// The run's inputs: interactive commands with one-shot references.
fn prepare(ctx: &Ctx, r: &mut Report) -> Result<Vec<Interactive>, String> {
    let mut out = Vec::new();
    for (i, (kind, kseed, command)) in interactive_commands(ctx.seed).into_iter().enumerate() {
        let cfg = SystemConfig { kernel_seed: kseed, ..SystemConfig::default() };
        let truth = GroundTruth::of(&cfg);
        let file = ctx.out.join(format!("reference-{i}.jsonl"));
        let (_, text) = probes::one_shot(&ctx.cli, &command, &file)?;
        let reference: Vec<String> = text.lines().map(str::to_string).collect();
        let stats = match check_output(kind, truth, &reference) {
            Ok(s) => s,
            Err(e) => {
                r.fail_check(format!("one-shot '{command}': {e}"));
                SimStats::default()
            }
        };
        out.push(Interactive { command, kind, cfg, reference, stats });
    }
    Ok(out)
}

/// Starts a daemon and brings it to where the timed loop begins: spawn,
/// first `pong`, both sessions open, and one warm-up run of every
/// interactive input (which fills the daemon workers' machine pools).
fn start<'a>(
    ctx: &Ctx,
    inputs: &'a [Interactive],
    state_dir: &Path,
) -> Result<Tenants<'a>, String> {
    let mut t = Tenants {
        daemon: Daemon::spawn(&ctx.cli, state_dir)?,
        demux: Demux::default(),
        inputs,
        seed: ctx.seed,
        bulk_command: bulk_command(ctx.seed),
        bulk_fnv: None,
        bulk_on: true,
        bulk: Vec::new(),
        inter: Vec::new(),
        done_cpu_ns: BTreeMap::new(),
        problems: Vec::new(),
        span_base: (Instant::now(), trace::recorder().now_us()),
    };
    t.daemon.request(&[("type", "ping")])?;
    t.pump(Instant::now() + REPLY_TIMEOUT, |t| t.demux.pongs > 0)?;
    if t.demux.pongs == 0 {
        return Err("no pong from the daemon".into());
    }
    for s in [BULK, INTER] {
        t.daemon.request(&[("type", "open_session"), ("session", s)])?;
    }
    for input in 0..inputs.len() {
        t.run_one(input)?;
    }
    Ok(t)
}

/// Everything a daemon run measured.
struct Measured {
    inter: Vec<InterJob>,
    jobs: Demux<Instant>,
    bulk: Vec<BulkDone>,
    done_cpu_ns: BTreeMap<usize, u64>,
    rss_mb: f64,
    wall_s: f64,
    /// Share of CPU time the host stole during the open loop, in %.
    steal_pct: f64,
    tests_per_cpu_s: f64,
    instr_per_cpu_s: f64,
}

/// Set-up, then `stretches` open-loop stretches of `n` jobs each (the
/// second traced when `traced`), then an orderly drain.
fn measure(
    ctx: &Ctx,
    inputs: &[Interactive],
    state_dir: &Path,
    stretches: &[(usize, bool)],
    r: &mut Report,
) -> Result<(Measured, f64), String> {
    // Set-up, timed `SETUP_REPS` times from a cold state directory on the
    // CPU clock (this process's and the daemon's CPU time); every daemon
    // but the last is drained and its output checks kept.
    let mut times = Vec::new();
    let mut t = loop {
        let cpu0 = probes::self_cpu_ns();
        let mut t = start(ctx, inputs, state_dir)?;
        let cpu = probes::self_cpu_ns().saturating_sub(cpu0) + probes::cpu_ns(t.daemon.child.id());
        times.push(cpu as f64 / 1e9);
        if times.len() == SETUP_REPS {
            break t;
        }
        for p in t.close() {
            r.fail_check(format!("set-up daemon: {p}"));
        }
    };
    let setup_s = median(&times);
    let rec = trace::recorder();
    let t0 = Instant::now();
    for _ in 0..BULK_QUEUED {
        t.submit_bulk()?;
    }
    let loop_start = Instant::now();
    let steal0 = probes::steal_ticks();
    let mut first = 0;
    for &(n, traced) in stretches {
        if traced {
            rec.take();
            trace::enable();
            t.span_base = (Instant::now(), rec.now_us());
        }
        t.open_loop(n, first, traced)?;
        first += n;
    }
    let loop_end = Instant::now();
    let steal_pct = probes::steal_pct(steal0, probes::steal_ticks());
    t.record_spans();
    let rss_mb = probes::peak_rss_mb(t.daemon.child.id()).unwrap_or(0.0);
    // Throughput between bulk completions inside the open loop, on the
    // daemon's CPU clock: whole bulk jobs ran back to back in that window.
    let in_loop: Vec<&BulkDone> =
        t.bulk.iter().filter(|b| b.at >= loop_start && b.at <= loop_end).collect();
    let (tests_per_cpu_s, instr_per_cpu_s) = match (in_loop.first(), in_loop.last()) {
        (Some(a), Some(b)) if b.cpu_ns > a.cpu_ns => {
            let span = (b.cpu_ns - a.cpu_ns) as f64 / 1e9;
            let mut tests: u64 = in_loop[1..].iter().map(|x| x.tests).sum();
            let mut retired: u64 = in_loop[1..].iter().map(|x| x.retired).sum();
            for j in &t.inter {
                let done = t.demux.jobs[j.slot].finished.expect("finished");
                if done > a.at && done <= b.at {
                    tests += inputs[j.input].stats.get("pac.tests");
                    retired += inputs[j.input].stats.get("cpu.retired");
                }
            }
            (tests as f64 / span, retired as f64 / span)
        }
        _ => {
            r.fail_check("fewer than two bulk jobs finished inside the open loop");
            (0.0, 0.0)
        }
    };
    for p in t.close() {
        r.fail_check(p);
    }
    Ok((
        Measured {
            inter: t.inter,
            jobs: t.demux,
            bulk: t.bulk,
            done_cpu_ns: t.done_cpu_ns,
            rss_mb,
            wall_s: t0.elapsed().as_secs_f64(),
            steal_pct,
            tests_per_cpu_s,
            instr_per_cpu_s,
        },
        setup_s,
    ))
}

fn digest(inputs: &[Interactive]) -> Digest {
    Digest { per_op: inputs.iter().map(|i| i.stats.clone()).collect() }
}

/// Latencies of the interactive jobs, from due time to `job_done`.
struct Latencies {
    /// Wall time.
    wall_ms: Vec<f64>,
    /// On the daemon's CPU clock: its CPU time over the interval ÷ `JOBS`
    /// (the bulk tenant keeps both executor workers busy throughout).
    cpu_ms: Vec<f64>,
    /// Jobs that failed or produced wrong output.
    failed: u64,
}

fn latencies(m: &Measured, traced: Option<bool>) -> Latencies {
    let mut l = Latencies { wall_ms: Vec::new(), cpu_ms: Vec::new(), failed: 0 };
    for j in m.inter.iter().filter(|j| traced.is_none_or(|t| j.traced == t)) {
        let job = &m.jobs.jobs[j.slot];
        l.wall_ms.push(ms_between(j.due, job.finished.expect("finished")));
        let done_cpu = m.done_cpu_ns.get(&j.slot).copied().unwrap_or(0);
        l.cpu_ms.push(done_cpu.saturating_sub(j.due_cpu_ns) as f64 / 1e6 / JOBS as f64);
        l.failed += u64::from(job.error.is_some());
    }
    l
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let inputs = prepare(ctx, &mut r)?;
    let n = ((ctx.seconds * RATE).ceil() as usize).max(min_samples_for(95.0, TAIL_SAMPLES));
    let (m, setup_s) = measure(ctx, &inputs, &ctx.out.join("state"), &[(n, false)], &mut r)?;
    let lat = latencies(&m, None);
    r.attempted = lat.cpu_ms.len() as u64;
    r.failed = lat.failed;
    let d = digest(&inputs);
    println!("{}", d.line(&ctx.workload, ctx.seed).trim_end());
    let total = d.total();
    let clock = GroundTruth::of(&inputs[0].cfg).clock_hz;
    r.set("setup_s", setup_s);
    r.set("pac_tests_per_cpu_s", m.tests_per_cpu_s);
    r.set("op_p50_cpu_ms", percentile(&lat.cpu_ms, 50.0).unwrap_or(0.0));
    r.set("op_p95_cpu_ms", percentile(&lat.cpu_ms, 95.0).unwrap_or(0.0));
    r.set("sim_instr_per_cpu_s", m.instr_per_cpu_s);
    r.set("sim_ms_per_pac_test", total.ratio("cpu.cycles", "pac.tests") / clock as f64 * 1e3);
    r.set("verdict_accuracy", verdict_accuracy(&inputs));
    r.set("ok_op_frac", (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64);
    r.set("peak_rss_mb", m.rss_mb);
    Ok(r)
}

/// Share of interactive verdicts matching ground truth: per oracle test,
/// per brute-force window.
fn verdict_accuracy(inputs: &[Interactive]) -> f64 {
    let (mut matching, mut total) = (0, 0);
    for i in inputs {
        matching += i.stats.get("pac.verdicts_matching");
        total += match i.kind {
            Kind::Oracle => i.stats.get("pac.tests"),
            Kind::Brute => 1,
        };
    }
    matching as f64 / total.max(1) as f64
}

/// What running the interactive schedule in process measured.
#[derive(Default)]
struct InProcess {
    /// Per-op wall time.
    wall_ms: Vec<f64>,
    /// Per-op CPU-clock latency: this process's CPU time ÷ `JOBS`.
    cpu_lat_ms: Vec<f64>,
    /// This process's CPU time over all ops.
    cpu_s: f64,
    snaps: Vec<pacman_telemetry::Snapshot>,
}

/// Runs the interactive schedule in process, `reps` times.
fn in_process(inputs: &[Interactive], reps: usize, profile: bool) -> InProcess {
    let tol = Tolerance::default();
    let mut out = InProcess::default();
    for _ in 0..reps {
        for i in SCHEDULE.map(|k| &inputs[k]) {
            let mut cfg = i.cfg.clone();
            cfg.machine.profile = profile;
            let cpu0 = probes::self_cpu_ns();
            let t = Instant::now();
            let reg = match i.kind {
                Kind::Oracle => oracle_distribution(
                    &cfg,
                    Channel::Data,
                    1,
                    INTER_TRIALS,
                    JOBS,
                    true,
                    &tol,
                    |i, tp| tp ^ (1 + i as u16),
                )
                .map(|o| o.telemetry),
                Kind::Brute => {
                    let truth = GroundTruth::of(&cfg);
                    let start = truth.true_pac.wrapping_sub((INTER_WINDOW / 2) as u16);
                    let window: Vec<u16> =
                        (0..INTER_WINDOW).map(|k| start.wrapping_add(k as u16)).collect();
                    parallel_brute(
                        &cfg,
                        Channel::Data,
                        inproc::BRUTE_SAMPLES,
                        &window,
                        JOBS,
                        true,
                        &tol,
                    )
                    .map(|o| o.telemetry)
                }
            };
            out.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let cpu_s = probes::self_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
            out.cpu_lat_ms.push(cpu_s * 1e3 / JOBS as f64);
            out.cpu_s += cpu_s;
            if let Ok(reg) = reg {
                out.snaps.push(reg.snapshot());
            }
        }
    }
    out
}

/// `--trace 1`: the per-layer metrics.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let inputs = prepare(ctx, &mut r)?;
    let n = ((ctx.seconds * 0.4 * RATE).ceil() as usize).max(inputs.len());
    let state_dir = ctx.out.join("state");
    let (m, _) = measure(ctx, &inputs, &state_dir, &[(n, false), (n, true)], &mut r)?;
    let lat = latencies(&m, None);
    r.attempted = lat.cpu_ms.len() as u64;
    r.failed = lat.failed;

    let d = digest(&inputs);
    inproc::uarch_ratios(&d, &mut r);
    // The same commands in process: host cost per instruction, pool
    // behaviour, phase attribution, and the in-process time the job
    // ledger subtracts.
    let pool0 = pool::stats();
    let plain = in_process(&inputs, 5, false);
    let pool1 = pool::stats();
    let profiled = in_process(&inputs, 1, true);
    let retired: u64 = plain.snaps.iter().map(|s| s.counter("cpu.retired")).sum();
    r.set("uarch.host_ns_per_instr", plain.cpu_s * 1e9 / retired.max(1) as f64);
    inproc::phase_ns_per_instr(&profiled.snaps, &mut r);
    let ops = plain.wall_ms.len().max(1) as f64;
    r.set("core.pool.reboots_per_op", (pool1.reboots - pool0.reboots) as f64 / ops);
    r.set("core.pool.fresh_boots_per_op", (pool1.fresh_boots - pool0.fresh_boots) as f64 / ops);
    r.set("core.pool.fresh_frames_per_op", (pool1.fresh_frames - pool0.fresh_frames) as f64 / ops);
    r.set("core.pool.seeded_boots_per_op", (pool1.seeded_boots - pool0.seeded_boots) as f64 / ops);

    let (setup_us, trial_us) =
        inproc::common_probes(ctx, &inputs[0].cfg, 1, &inputs[0].command, &mut r);
    let snapshot_path = state_dir.join("pacmand.snapshot");
    match std::fs::metadata(&snapshot_path) {
        Ok(meta) => {
            r.set("daemon.snapshot_bytes", meta.len() as f64);
            let rec = trace::recorder();
            let start = rec.now_us();
            let mut times = Vec::new();
            for _ in 0..11 {
                let t = Instant::now();
                let loaded = DaemonSnapshot::read_file(&snapshot_path);
                times.push(t.elapsed().as_secs_f64() * 1e6);
                if !matches!(loaded, Ok(Some(_))) {
                    r.fail_check("the daemon's checkpoint does not load");
                }
            }
            rec.complete("probe.daemon.snapshot_load", "bench", BENCH_TID, None, start, Vec::new());
            r.set("daemon.snapshot_load_us", median(&times));
        }
        Err(e) => {
            r.fail_check(format!("no daemon checkpoint: {e}"));
            r.set("daemon.snapshot_bytes", 0.0);
            r.set("daemon.snapshot_load_us", 0.0);
        }
    }
    inproc::write_trace(ctx, &mut r);

    // Daemon-layer phases of the interactive jobs.
    let mut accept = Vec::new();
    let mut queue = Vec::new();
    let mut run = Vec::new();
    let mut late = Vec::new();
    let mut shards = Vec::new();
    let mut first_shard = Vec::new();
    let mut gap = Vec::new();
    let mut retries = 0;
    for j in &m.inter {
        let job = &m.jobs.jobs[j.slot];
        let (Some(acc), Some(first), Some(done)) = (job.accepted, job.first_output, job.finished)
        else {
            continue;
        };
        accept.push(ms_between(j.sent, acc));
        queue.push(ms_between(acc, first));
        run.push(ms_between(first, done));
        late.push(ms_between(j.due, j.sent));
        let input = &inputs[j.input];
        if input.kind == Kind::Oracle {
            shards.push(job.progress.len() as f64);
            if let [a, .., y, z] = job.progress[..] {
                first_shard.push(ms_between(acc, a));
                gap.push(ms_between(y, z));
            }
        }
    }
    for i in &inputs {
        let recs = records(&i.reference).unwrap_or_default();
        retries += recs
            .iter()
            .filter_map(|v| v.get("counters"))
            .map(|c| field_u64(c, "runner.retries"))
            .sum::<u64>();
    }
    r.set("daemon.accept_ms", median(&accept));
    r.set("daemon.queue_ms", median(&queue));
    r.set("daemon.run_ms", median(&run));
    r.set("daemon.bulk_job_ms", median(&m.bulk.iter().map(|b| b.ms).collect::<Vec<_>>()));
    r.set("daemon.backpressure", m.jobs.backpressure as f64);
    r.set("daemon.checkpoints_per_s", m.jobs.checkpoints as f64 / m.wall_s);
    r.set("runner.shards_per_op", median(&shards));
    r.set("runner.first_shard_ms", median(&first_shard));
    r.set("runner.last_shard_gap_ms", median(&gap));
    r.set("runner.retries", retries as f64);
    r.set("bench.generator_late_ms_p95", percentile(&late, 95.0).unwrap_or(0.0));
    let plain_lat = latencies(&m, Some(false));
    let traced_lat = latencies(&m, Some(true));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.set(
        "bench.trace_overhead_pct",
        (mean(&traced_lat.cpu_ms) / mean(&plain_lat.cpu_ms) - 1.0) * 100.0,
    );
    r.set("bench.wall_op_p50_ms", percentile(&plain_lat.wall_ms, 50.0).unwrap_or(0.0));
    r.set("bench.wall_op_p95_ms", percentile(&plain_lat.wall_ms, 95.0).unwrap_or(0.0));
    r.set("bench.steal_pct", m.steal_pct);
    // Job ledger, in wall time: interactive latency against accept +
    // queue + the same commands' in-process time.
    let job_ms = median(&lat.wall_ms);
    let in_proc_ms = median(&plain.wall_ms);
    r.set(
        "ledger.job_unexplained_pct",
        (job_ms - (median(&accept) + median(&queue) + in_proc_ms)) / job_ms * 100.0,
    );
    // Campaign ledger of the in-process runs, on the CPU clock.
    let tests_per_op = SCHEDULE.iter().map(|&k| inputs[k].stats.get("pac.tests")).sum::<u64>()
        as f64
        / SCHEDULE.len() as f64;
    let explained =
        (DEFAULT_SHARDS as f64 * setup_us + tests_per_op * trial_us) / JOBS as f64 / 1e3;
    let op_ms = median(&plain.cpu_lat_ms);
    r.set("ledger.campaign_unexplained_pct", (op_ms - explained) / op_ms * 100.0);
    Ok(r)
}
