//! `pacmand` service-load generator: hundreds of concurrent tenant
//! sessions taking turns for the daemon's job slots (one per executor
//! worker) with real experiment jobs, every job's shards sharing one
//! executor.
//!
//! The `service_load` artefact pins the daemon's production claims:
//!
//! - **scale** — >=200 concurrent sessions, each submitting real
//!   oracle campaigns, all completing;
//! - **latency** — p50/p99 submit-to-`job_done` latency and sustained
//!   jobs/sec under that concurrency;
//! - **isolation** — one session's injected panic yields exactly one
//!   `job_failed` on that session; every other job in every session
//!   completes, the panicking tenant's own later job completes, and
//!   the daemon keeps serving (the multi-tenant contract from
//!   DESIGN.md §12).

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use pacman_bench::{banner, check, compare, quiet_config, scale, Artifact};
use pacman_core::fault::Tolerance;
use pacman_core::parallel::{oracle_distribution, Channel};
use pacman_daemon::{Daemon, DaemonConfig, JobRunner, JobSink};
use pacman_telemetry::json::Value;

/// Job commands: `oracle <seed> <trials>` runs a real PAC-oracle
/// campaign on the shared executor; `boom` is the injected fault.
struct LoadRunner;

impl JobRunner for LoadRunner {
    fn run(&self, command: &str, sink: &JobSink) -> Result<(), String> {
        let mut words = command.split_whitespace();
        match words.next() {
            Some("oracle") => {
                let seed: u64 = words.next().and_then(|w| w.parse().ok()).unwrap_or(1);
                let trials: usize = words.next().and_then(|w| w.parse().ok()).unwrap_or(2);
                let mut cfg = quiet_config();
                cfg.kernel_seed = seed;
                let out = oracle_distribution(
                    &cfg,
                    Channel::Data,
                    1,
                    trials,
                    2,
                    false,
                    &Tolerance::default(),
                    |i, tp| tp ^ (1 + i as u16),
                )
                .map_err(|e| e.to_string())?;
                sink.record(&format!(
                    "{{\"record\":\"verdict\",\"correct_detected\":{},\"trials\":{trials}}}",
                    out.correct_detected
                ));
                Ok(())
            }
            Some("boom") => panic!("injected tenant fault"),
            other => Err(format!("unknown load command {other:?}")),
        }
    }
}

/// One tenant: submits jobs one at a time, measuring submit-to-done
/// latency for each, and reports what failed.
struct SessionReport {
    latencies_us: Vec<f64>,
    completed: u64,
    unexpected_failures: u64,
    injected_failures: u64,
}

fn run_session(daemon: &Daemon, index: usize, jobs: usize, trials: usize) -> SessionReport {
    let name = format!("tenant-{index}");
    let handle = daemon.open_session(&name).expect("open session");
    let mut report = SessionReport {
        latencies_us: Vec::with_capacity(jobs),
        completed: 0,
        unexpected_failures: 0,
        injected_failures: 0,
    };
    // Tenant 0 leads with the fault drill: a panicking job whose
    // failure must stay scoped to this session — its own next jobs
    // included.
    let inject = index == 0;
    let commands: Vec<String> = (0..usize::from(inject))
        .map(|_| "boom".to_string())
        .chain((0..jobs).map(|j| format!("oracle {} {trials}", 0xA11CE + (index * 251 + j) as u64)))
        .collect();
    for command in &commands {
        let submitted = Instant::now();
        let id = handle.submit(command).expect("submit job");
        loop {
            let Some(record) = handle.next_record() else { panic!("stream ended mid-job") };
            match record.get("type").and_then(Value::as_str) {
                Some("job_done") if record.get("job").and_then(Value::as_u64) == Some(id) => {
                    report.latencies_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                    report.completed += 1;
                    break;
                }
                Some("job_failed") if record.get("job").and_then(Value::as_u64) == Some(id) => {
                    if command == "boom" {
                        report.injected_failures += 1;
                    } else {
                        report.unexpected_failures += 1;
                    }
                    break;
                }
                _ => {}
            }
        }
    }
    let _ = handle.close();
    report
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    banner("Bservice", "pacmand under load: concurrent tenants, latency, fault isolation");
    let sessions = scale("SESSIONS", 200);
    let session_jobs = scale("SESSION_JOBS", 2);
    let trials = scale("SERVICE_TRIALS", 2);
    let workers = pacman_runner::Executor::global().workers();
    let daemon = Arc::new(Daemon::start(
        DaemonConfig { session_queue: 8, job_attempts: 1 },
        Arc::new(LoadRunner),
    ));

    let start = Instant::now();
    let reports: Vec<SessionReport> = thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let daemon = Arc::clone(&daemon);
                scope.spawn(move || run_session(&daemon, i, session_jobs, trials))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread")).collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let mut latencies_us: Vec<f64> =
        reports.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
    latencies_us.sort_by(f64::total_cmp);
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let unexpected: u64 = reports.iter().map(|r| r.unexpected_failures).sum();
    let injected: u64 = reports.iter().map(|r| r.injected_failures).sum();
    let jobs_per_sec = completed as f64 / wall.max(1e-9);
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);

    // The daemon outlived the drill: it still opens sessions and runs
    // jobs after the injected panic, then drains cleanly.
    let survived = {
        let control = daemon.open_session("control").expect("daemon refused a post-drill session");
        control.submit(&format!("oracle 7 {trials}")).expect("submit control job");
        let mut done = false;
        while let Some(r) = control.next_record() {
            match r.get("type").and_then(Value::as_str) {
                Some("job_done") => {
                    done = true;
                    break;
                }
                Some("job_failed") => break,
                _ => {}
            }
        }
        let _ = control.close();
        done
    };
    let metrics = daemon.metrics();
    let backpressure = metrics.counter_value("daemon.backpressure");
    let drained = daemon.drain();
    let drained_ok = drained.get("type").and_then(Value::as_str) == Some("daemon_drained");
    let isolated = injected == 1 && unexpected == 0 && survived;

    let expected_jobs = (sessions * session_jobs) as u64; // injected 'boom' not counted
    println!("  {sessions} sessions x {session_jobs} jobs on {workers} workers");
    println!("  jobs completed:    {completed} / {expected_jobs} submitted (+1 control)");
    println!("  throughput:        {jobs_per_sec:10.1} jobs/s over {wall:.2} s");
    println!("  job latency:       p50 {p50:.0} us, p99 {p99:.0} us");
    println!("  fault drill:       {injected} injected failure, {unexpected} collateral");
    println!("  backpressure:      {backpressure} blocked submits");
    println!();

    let mut art = Artifact::new(
        "service_load",
        "pacmand service load: concurrent sessions, latency, isolation",
    );
    art.num("sessions", sessions as u64)
        .num("jobs", completed)
        .num("workers", workers as u64)
        .float("jobs_per_sec", jobs_per_sec)
        .float("p50_latency_us", p50)
        .float("p99_latency_us", p99)
        .num("injected_failures", injected)
        .num("unexpected_failed_jobs", unexpected)
        .field("panic_isolated", Value::Bool(isolated))
        .field("daemon_survived", Value::Bool(survived))
        .field("drained_clean", Value::Bool(drained_ok));
    art.write();

    compare("concurrent sessions", ">=200", &format!("{sessions}"));
    compare("job throughput", "sustained", &format!("{jobs_per_sec:.1} jobs/s"));
    compare("fault isolation", "1 injected, 0 collateral", &format!("{injected}, {unexpected}"));

    check("drove >=200 concurrent sessions", sessions >= 200);
    check("every non-injected job completed", completed == expected_jobs);
    check("the injected panic failed exactly its own job", isolated);
    check("the daemon drained cleanly after the load", drained_ok);
}
