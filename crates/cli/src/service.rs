//! The `daemon` and `client` subcommands: `pacmand` serving over a
//! Unix socket or stdio, and a line-protocol client for driving it.
//!
//! The daemon side wires three pieces together: `pacman_daemon`'s
//! scheduling core, the CLI's own `dispatch` as the [`JobRunner`] (so a
//! submitted command line behaves exactly like the one-shot CLI), and
//! the [`jobctx`] thread-local that tees every emitted
//! record onto the owning session's stream. Protocol and lifecycle
//! semantics are documented in DESIGN.md §12.

use std::error::Error;
use std::io::Write;
use std::sync::{Arc, Mutex};

use pacman_daemon::net;
use pacman_daemon::{CheckpointPolicy, Daemon, JobRunner, JobSink};
use pacman_telemetry::json::{to_jsonl_line, Value};

use crate::args::Args;
use crate::commands::{self, CliResult};
use crate::jobctx;

/// Runs client-submitted command lines through the CLI's `dispatch`
/// with the session's [`JobSink`] installed, so every `Emitter` record
/// tees verbatim onto the session stream and campaign drivers report
/// live shard progress.
pub struct DispatchRunner;

impl JobRunner for DispatchRunner {
    fn run(&self, command: &str, sink: &JobSink) -> Result<(), String> {
        let parsed =
            Args::parse(command.split_whitespace().map(String::from)).map_err(|e| e.to_string())?;
        let Some(cmd) = parsed.command.and_then(commands::find) else {
            return Err("no command given".to_string());
        };
        if !cmd.daemon_job {
            return Err(format!("command '{}' is not available as a daemon job", cmd.name));
        }
        // A process-global switch would let one tenant reconfigure
        // every other tenant's execution; refuse it per job.
        if parsed.text("trace-out").is_ok() {
            return Err(
                "--trace-out arms the process-wide flight recorder; unavailable in daemon jobs"
                    .into(),
            );
        }
        let _guard = jobctx::install(sink.clone());
        commands::dispatch(&parsed).map_err(|e| e.to_string())
    }
}

/// Builds the durable-mode [`CheckpointPolicy`] from `--state-dir` /
/// `--checkpoint-every`.
fn checkpoint_policy(args: &Args, state_dir: &str) -> Result<CheckpointPolicy, Box<dyn Error>> {
    let dir = std::path::PathBuf::from(state_dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create state dir '{state_dir}': {e}"))?;
    Ok(CheckpointPolicy::new(dir.join("pacmand.snapshot"), args.num("checkpoint-every")?))
}

/// `pacman-cli daemon`: serve sessions until a client sends `shutdown`
/// (socket mode) or stdin reaches EOF (`--stdio`), then drain and
/// print the `daemon_drained` record. With `--state-dir` the daemon is
/// durable (periodic snapshots, `--resume` continues a killed run).
pub fn cmd_daemon(args: &Args) -> CliResult {
    // `--workers` sizes the one executor every session's shards share,
    // and with it how many jobs the daemon runs at once.
    let workers = args.num("workers").unwrap_or_else(|_| pacman_runner::default_jobs());
    pacman_runner::Executor::init_global(workers)?;
    let daemon = match args.text("state-dir").ok() {
        Some(dir) => {
            let policy = checkpoint_policy(args, dir)?;
            Arc::new(Daemon::start_durable(policy, Arc::new(DispatchRunner), args.flag("resume")))
        }
        None => {
            if args.flag("resume") {
                return Err("--resume needs --state-dir to know where the snapshot lives".into());
            }
            Arc::new(Daemon::start(Arc::new(DispatchRunner)))
        }
    };
    // Announce the resume outcome (daemon_resumed or resume_warning)
    // before serving, so operators and drill scripts see it even though
    // no client connection exists yet.
    if let Some(report) = daemon.resume_report() {
        print!("{}", to_jsonl_line(&report));
        let _ = std::io::stdout().flush();
    }
    if args.flag("stdio") {
        let writer = Arc::new(Mutex::new(std::io::stdout()));
        net::serve_connection(&daemon, std::io::stdin().lock(), Arc::clone(&writer));
        let report = daemon.drain();
        let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = w.write_all(to_jsonl_line(&report).as_bytes());
        let _ = w.flush();
        return Ok(());
    }
    serve_socket(args, daemon)
}

#[cfg(unix)]
fn serve_socket(args: &Args, daemon: Arc<Daemon>) -> CliResult {
    let path = args.text("socket")?;
    eprintln!("pacmand: listening on {path}");
    let report = net::serve_unix(daemon, std::path::Path::new(path))
        .map_err(|e| format!("serving '{path}' failed: {e}"))?;
    print!("{}", to_jsonl_line(&report));
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_args: &Args, _daemon: Arc<Daemon>) -> CliResult {
    Err("unix sockets are unavailable on this platform; use 'daemon --stdio'".into())
}

/// One request line, JSON-escaped through the shared serializer so
/// submitted command text survives quoting intact.
fn request(kind: &str, fields: &[(&str, &str)]) -> String {
    let mut obj = vec![("type".to_string(), Value::str(kind))];
    for (k, v) in fields {
        obj.push(((*k).to_string(), Value::str(*v)));
    }
    to_jsonl_line(&Value::Object(obj))
}

/// `pacman-cli client`: submit one job over the daemon socket and
/// stream its session records to stdout, and/or request shutdown.
/// Without `--submit` or `--shutdown` it pings the daemon and prints
/// the status record.
#[cfg(unix)]
pub fn cmd_client(args: &Args) -> CliResult {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let path = args.text("socket")?;
    let stream = UnixStream::connect(path)
        .map_err(|e| format!("cannot connect to pacmand at '{path}': {e}"))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let read_record =
        |reader: &mut BufReader<UnixStream>| -> Result<Option<Value>, Box<dyn Error>> {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            print!("{line}");
            let value = pacman_telemetry::json::parse(line.trim_end())
                .map_err(|e| format!("daemon sent unparsable record: {e}"))?;
            Ok(Some(value))
        };

    let session = args.text("session")?;
    let submit = args.text("submit").ok();
    let mut job_failed = false;
    if submit.is_some() || args.flag("attach") {
        writer.write_all(request("open_session", &[("session", session)]).as_bytes())?;
        if let Some(command) = submit {
            let job = request("submit", &[("session", session), ("command", command)]);
            writer.write_all(job.as_bytes())?;
            writer.write_all(request("close_session", &[("session", session)]).as_bytes())?;
        }
        writer.flush()?;
        while let Some(record) = read_record(&mut reader)? {
            match record.get("type").and_then(Value::as_str) {
                // --attach: reattach to an existing session, typically
                // one a restarted daemon resumed from a checkpoint, and
                // close it once its in-flight job finishes.
                Some("job_done") if submit.is_none() => {
                    writer
                        .write_all(request("close_session", &[("session", session)]).as_bytes())?;
                    writer.flush()?;
                }
                Some("job_failed") => job_failed = true,
                Some("session_closed") => break,
                // A refused open/submit means session_closed never
                // comes; stop reading instead of hanging.
                Some("error") => {
                    job_failed = true;
                    break;
                }
                _ => {}
            }
        }
    } else if !args.flag("shutdown") {
        writer.write_all(request("ping", &[]).as_bytes())?;
        writer.write_all(request("status", &[]).as_bytes())?;
        writer.flush()?;
        let _ = read_record(&mut reader)?;
        let _ = read_record(&mut reader)?;
    }
    if args.flag("shutdown") {
        writer.write_all(request("shutdown", &[]).as_bytes())?;
        writer.flush()?;
    }
    if job_failed {
        return Err("daemon job failed (see the job_failed/error record above)".into());
    }
    Ok(())
}

#[cfg(not(unix))]
pub fn cmd_client(_args: &Args) -> CliResult {
    Err("unix sockets are unavailable on this platform".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_and_collect(daemon: &Daemon, session: &str, command: &str) -> (Vec<Value>, bool) {
        let handle = daemon.open_session(session).unwrap();
        handle.submit(command).unwrap();
        let mut records = Vec::new();
        let mut failed = false;
        while let Some(r) = handle.next_record() {
            match r.get("type").and_then(Value::as_str) {
                Some("job_done") => break,
                Some("job_failed") => {
                    failed = true;
                    records.push(r);
                    break;
                }
                _ => records.push(r),
            }
        }
        let _ = handle.close();
        (records, failed)
    }

    fn output_lines(records: &[Value]) -> Vec<String> {
        records
            .iter()
            .filter(|r| r.get("type").and_then(Value::as_str) == Some("job_output"))
            .map(|r| r.get("line").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn a_daemon_job_streams_the_same_records_as_a_one_shot_run() {
        let dir = std::env::temp_dir().join(format!("pacmand-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("oneshot.jsonl");
        let cmd = "oracle --trials 2 --seed 11 --quiet-noise --jobs 2";

        // One-shot CLI run, records captured via --metrics-out.
        let one_shot = format!("{cmd} --metrics-out {}", metrics.display());
        let parsed = Args::parse(one_shot.split_whitespace().map(String::from)).unwrap();
        commands::dispatch(&parsed).unwrap();
        let file = std::fs::read_to_string(&metrics).unwrap();
        let file_lines: Vec<&str> = file.lines().collect();

        // The same command as a daemon job, records teed by jobctx.
        let daemon = Daemon::start(Arc::new(DispatchRunner));
        let (records, failed) = submit_and_collect(&daemon, "parity", cmd);
        assert!(!failed);
        let streamed = output_lines(&records);
        assert_eq!(streamed, file_lines, "daemon stream diverged from the one-shot CLI run");
        // Campaign progress rode along: one record per merged shard,
        // the count matching the plan each record reports.
        let progress: Vec<_> = records
            .iter()
            .filter(|r| r.get("type").and_then(Value::as_str) == Some("job_progress"))
            .collect();
        assert!(!progress.is_empty(), "no job_progress records streamed");
        let shards = progress[0].get("shards").and_then(Value::as_u64).unwrap() as usize;
        assert_eq!(progress.len(), shards);
        daemon.drain();
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn forbidden_job_commands_fail_the_job_not_the_daemon() {
        let daemon = Daemon::start(Arc::new(DispatchRunner));
        for cmd in [
            "profile oracle",
            "daemon",
            "client",
            "oracle --runner scoped",
            "oracle --trace-out t.json",
            "census --functions 16",
            "",
        ] {
            let session = format!("forbid-{}", cmd.split_whitespace().next().unwrap_or("empty"));
            let (records, failed) = submit_and_collect(&daemon, &session, cmd);
            assert!(failed, "command {cmd:?} should be refused, records: {records:?}");
        }
        // The daemon still runs legitimate jobs afterwards.
        let (_, failed) = submit_and_collect(&daemon, "after", "timeline --seed 1 --quiet-noise");
        assert!(!failed);
        daemon.drain();
    }

    #[test]
    fn a_hostile_window_fails_its_job_and_the_daemon_keeps_serving() {
        // Rejected while parsing, before any candidate is allocated: the
        // window alone would ask for gigabytes.
        let daemon = Daemon::start(Arc::new(DispatchRunner));
        let (records, failed) = submit_and_collect(&daemon, "hostile", "brute --window 4000000000");
        assert!(failed, "records: {records:?}");
        let error = records.last().and_then(|r| r.get("error")).and_then(Value::as_str);
        assert!(error.is_some_and(|e| e.contains("--window")), "records: {records:?}");
        let (_, failed) =
            submit_and_collect(&daemon, "after", "oracle --trials 2 --quiet-noise --jobs 2");
        assert!(!failed);
        daemon.drain();
    }
}
