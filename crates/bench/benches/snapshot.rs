//! Durable-campaign snapshot costs: `System` snapshot/restore latency,
//! daemon checkpoint write/load latency, and — the production gate —
//! the end-to-end overhead periodic checkpointing adds to a real
//! campaign pushed through the daemon.
//!
//! The `snapshot` artefact pins the DESIGN.md §13 claims:
//!
//! - **latency** — how long one `System::snapshot`/`restore` pair and
//!   one daemon checkpoint write/load take;
//! - **fidelity** — a restored system is bit-identical (cycles and the
//!   full telemetry export agree);
//! - **overhead** — running the same campaign with checkpointing on
//!   costs at most 10% more wall time than with it off.

use std::sync::Arc;
use std::time::Instant;

use pacman_bench::{banner, check, compare, quiet_config, scale, Artifact};
use pacman_core::fault::Tolerance;
use pacman_core::parallel::{oracle_distribution, Channel};
use pacman_core::System;
use pacman_daemon::snapshot::DaemonSnapshot;
use pacman_daemon::{CheckpointPolicy, Daemon, JobRunner, JobSink};
use pacman_telemetry::json::Value;

/// Job command `campaign <seed> <records>`: a real (small) PAC-oracle
/// campaign, its result fanned out over `records` output records so
/// the stream is long enough to cross checkpoint cadence boundaries.
struct SnapRunner {
    trials: usize,
}

impl JobRunner for SnapRunner {
    fn run(&self, command: &str, sink: &JobSink) -> Result<(), String> {
        let mut words = command.split_whitespace();
        let _ = words.next(); // "campaign"
        let seed: u64 = words.next().and_then(|w| w.parse().ok()).unwrap_or(1);
        let records: usize = words.next().and_then(|w| w.parse().ok()).unwrap_or(1);
        let mut cfg = quiet_config();
        cfg.kernel_seed = seed;
        let out = oracle_distribution(
            &cfg,
            Channel::Data,
            1,
            self.trials,
            2,
            false,
            &Tolerance::default(),
            |i, tp| tp ^ (1 + i as u16),
        )
        .map_err(|e| e.to_string())?;
        for r in 0..records {
            sink.record(&format!(
                "{{\"record\":\"trial\",\"i\":{r},\"correct\":{}}}",
                out.correct_detected
            ));
        }
        Ok(())
    }
}

/// Drives `jobs` campaign jobs through one session and returns
/// (wall seconds, checkpoint_written records observed).
fn drive(daemon: &Daemon, jobs: usize, records: usize) -> (f64, u64) {
    let start = Instant::now();
    let handle = daemon.open_session("bench").expect("open session");
    for j in 0..jobs {
        handle.submit(&format!("campaign {} {records}", 0xBEEF + j as u64)).expect("submit");
    }
    let mut done = 0;
    let mut checkpoints = 0;
    while done < jobs {
        let Some(record) = handle.next_record() else { panic!("stream ended mid-campaign") };
        match record.get("type").and_then(Value::as_str) {
            Some("job_done") => done += 1,
            Some("job_failed") => panic!("bench campaign job failed: {record:?}"),
            Some("checkpoint_written") => checkpoints += 1,
            _ => {}
        }
    }
    (start.elapsed().as_secs_f64(), checkpoints)
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner("Bsnapshot", "durable campaigns: snapshot latency and checkpoint overhead");
    let jobs = scale("SNAP_JOBS", 12);
    let records = scale("SNAP_RECORDS", 32);
    let trials = scale("SNAP_TRIALS", 96);
    let every = scale("SNAP_EVERY", 64) as u64;
    let reps = scale("SNAP_REPS", 10).max(1) as u32;
    let runner = || Arc::new(SnapRunner { trials });
    let state = std::env::temp_dir().join(format!("pacman-bench-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&state).expect("create bench state dir");
    let path = state.join("pacmand.snapshot");

    // -- System snapshot/restore latency and fidelity ------------------
    let sys = System::boot(quiet_config());
    let mut blob = Vec::new();
    let t = Instant::now();
    for _ in 0..reps {
        blob = sys.snapshot();
    }
    let system_snapshot_us = t.elapsed().as_secs_f64() / f64::from(reps) * 1e6;
    let mut restored = System::restore(&blob).expect("snapshot loads");
    let t = Instant::now();
    for _ in 1..reps {
        restored = System::restore(&blob).expect("snapshot loads");
    }
    let system_restore_us = t.elapsed().as_secs_f64() / f64::from(reps.max(2) - 1) * 1e6;
    let roundtrip_ok = restored.machine.cycles == sys.machine.cycles
        && restored.telemetry_snapshot() == sys.telemetry_snapshot();

    // -- campaign overhead: plain vs durable daemon, best-of-2 each ----
    let mut baseline_wall_s = f64::INFINITY;
    for _ in 0..2 {
        let daemon = Daemon::start(runner());
        let (wall, _) = drive(&daemon, jobs, records);
        daemon.drain();
        baseline_wall_s = baseline_wall_s.min(wall);
    }
    let mut durable_wall_s = f64::INFINITY;
    let mut checkpoints = 0;
    for _ in 0..2 {
        let daemon =
            Daemon::start_durable(CheckpointPolicy::new(path.clone(), every), runner(), false);
        let (wall, n) = drive(&daemon, jobs, records);
        daemon.drain();
        durable_wall_s = durable_wall_s.min(wall);
        checkpoints = n;
    }
    let checkpoint_overhead_pct =
        ((durable_wall_s - baseline_wall_s) / baseline_wall_s * 100.0).max(0.0);

    // -- daemon checkpoint write / load latency ------------------------
    // Measured with a populated daemon (open session, run telemetry,
    // restorable machine-pool blobs are the CLI's concern, not cut here).
    let daemon = Daemon::start_durable(CheckpointPolicy::new(path.clone(), every), runner(), false);
    let (_, _) = drive(&daemon, 2, records);
    let t = Instant::now();
    for _ in 0..reps {
        daemon.checkpoint_now().expect("checkpoint writes");
    }
    let checkpoint_write_us = t.elapsed().as_secs_f64() / f64::from(reps) * 1e6;
    let t = Instant::now();
    for _ in 0..reps {
        let loaded = DaemonSnapshot::read_file(&path).expect("snapshot loads");
        assert!(loaded.is_some(), "checkpoint file vanished");
    }
    let resume_restore_us = t.elapsed().as_secs_f64() / f64::from(reps) * 1e6;
    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);

    println!("  {jobs} jobs x {records} records, checkpoint every {every} records");
    println!("  System snapshot:   {system_snapshot_us:10.1} us ({} bytes)", blob.len());
    println!("  System restore:    {system_restore_us:10.1} us");
    println!("  checkpoint write:  {checkpoint_write_us:10.1} us");
    println!("  checkpoint load:   {resume_restore_us:10.1} us");
    println!(
        "  campaign wall:     {baseline_wall_s:.3} s plain, {durable_wall_s:.3} s durable \
         ({checkpoints} checkpoints, +{checkpoint_overhead_pct:.1}%)"
    );
    println!();

    let mut art =
        Artifact::new("snapshot", "durable campaigns: snapshot latency and checkpoint overhead");
    art.num("jobs", jobs as u64)
        .num("records_per_job", records as u64)
        .num("checkpoint_every", every)
        .num("snapshot_bytes", blob.len() as u64)
        .float("system_snapshot_us", system_snapshot_us)
        .float("system_restore_us", system_restore_us)
        .float("checkpoint_write_us", checkpoint_write_us)
        .float("resume_restore_us", resume_restore_us)
        .float("baseline_wall_s", baseline_wall_s)
        .float("durable_wall_s", durable_wall_s)
        .float("checkpoint_overhead_pct", checkpoint_overhead_pct)
        .num("checkpoints_written", checkpoints)
        .field("roundtrip_ok", Value::Bool(roundtrip_ok));
    art.write();

    compare(
        "snapshot fidelity",
        "bit-identical",
        if roundtrip_ok { "bit-identical" } else { "DIVERGED" },
    );
    compare(
        "checkpoint overhead",
        "<=10% of campaign wall",
        &format!("{checkpoint_overhead_pct:.1}%"),
    );
    compare("checkpoint cadence", ">=1 periodic checkpoint", &format!("{checkpoints}"));

    check("a restored System is bit-identical", roundtrip_ok);
    check("periodic checkpoints were cut mid-campaign", checkpoints >= 1);
    check("checkpointing costs <=10% of campaign runtime", checkpoint_overhead_pct <= 10.0);
}
