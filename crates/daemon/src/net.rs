//! Transports for the `pacmand` line protocol: any `BufRead`/`Write`
//! pair (stdio mode) and, on Unix, a `UnixListener` socket server.
//!
//! Both transports share [`serve_connection`], which owns one client's
//! request loop. Session records flow through per-session forwarder
//! threads onto the connection's shared writer, so long-running jobs
//! stream incrementally while the request loop stays responsive. A
//! connection's sessions are closed when the client closes them, at
//! EOF, and on `shutdown` — the daemon never leaks a tenant whose
//! client vanished.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

use pacman_telemetry::json::{to_jsonl_line, Value};

use crate::protocol::{self, Request};
use crate::service::{Daemon, SessionHandle};

/// Writes one record as a JSONL line and flushes, so a client polling
/// the stream never waits on a buffer.
fn write_record<W: Write>(writer: &Mutex<W>, record: &Value) {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = w.write_all(to_jsonl_line(record).as_bytes());
    let _ = w.flush();
}

/// Pumps one session's record stream onto the connection writer until
/// the session closes (its channel hangs up after `session_closed`).
fn spawn_forwarder<W: Write + Send + 'static>(
    handle: &mut SessionHandle,
    writer: Arc<Mutex<W>>,
) -> Option<thread::JoinHandle<()>> {
    let rx = handle.take_records()?;
    // Not named after the session: a name with a NUL byte would panic
    // the spawn.
    thread::Builder::new()
        .name("pacmand-fwd".into())
        .spawn(move || {
            for record in rx {
                write_record(&writer, &record);
            }
        })
        .ok()
}

/// Serves one client connection: reads request lines from `reader`,
/// writes response records to `writer`. Returns `true` when the client
/// requested a daemon `shutdown` (the caller then drains), `false` on
/// plain EOF. Every session the connection opened is closed before
/// returning, so queued jobs finish and final telemetry is streamed.
pub fn serve_connection<R, W>(daemon: &Daemon, reader: R, writer: Arc<Mutex<W>>) -> bool
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let mut sessions: HashMap<String, SessionHandle> = HashMap::new();
    let mut forwarders = Vec::new();
    let mut shutdown = false;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_request(&line) {
            Err(e) => write_record(&writer, &protocol::error(&e)),
            Ok(Request::Ping) => write_record(&writer, &protocol::pong()),
            Ok(Request::Status) => write_record(&writer, &daemon.status()),
            Ok(Request::OpenSession { session }) => match daemon.open_session(&session) {
                Ok(mut handle) => {
                    if let Some(f) = spawn_forwarder(&mut handle, Arc::clone(&writer)) {
                        forwarders.push(f);
                    }
                    sessions.insert(session, handle);
                }
                Err(e) => write_record(&writer, &protocol::error(&e.to_string())),
            },
            Ok(Request::Submit { session, command }) => match sessions.get(&session) {
                Some(handle) => {
                    // Blocks under backpressure; the forwarder thread
                    // keeps records flowing meanwhile.
                    if let Err(e) = handle.submit(&command) {
                        write_record(&writer, &protocol::error(&e.to_string()));
                    }
                }
                None => {
                    let msg = format!("unknown session '{session}' on this connection");
                    write_record(&writer, &protocol::error(&msg));
                }
            },
            Ok(Request::CloseSession { session }) => match sessions.remove(&session) {
                // Synchronous: waits for the session's queued jobs, so
                // the `session_closed` record is on the wire when the
                // next request is read.
                Some(handle) => {
                    let _ = handle.close();
                }
                None => {
                    let msg = format!("unknown session '{session}' on this connection");
                    write_record(&writer, &protocol::error(&msg));
                }
            },
            Ok(Request::Shutdown) => {
                shutdown = true;
                break;
            }
        }
    }
    for (_, handle) in sessions.drain() {
        let _ = handle.close();
    }
    for f in forwarders {
        let _ = f.join();
    }
    shutdown
}

#[cfg(unix)]
pub use unix_socket::serve_unix;

#[cfg(unix)]
mod unix_socket {
    use super::*;
    use std::io::BufReader;
    use std::os::unix::net::UnixListener;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Binds `path` and serves connections until a client sends
    /// `shutdown`, then drains the daemon and returns its
    /// `daemon_drained` record.
    ///
    /// Accepting is a non-blocking poll so the shutdown flag is
    /// noticed promptly. After shutdown, already-accepted connections
    /// run until their clients disconnect — drain waits for them, so
    /// no accepted job is dropped.
    pub fn serve_unix(daemon: Arc<Daemon>, path: &Path) -> std::io::Result<Value> {
        // A stale socket file from a crashed daemon would fail the
        // bind; nothing is listening on it, so replace it.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut connections = Vec::new();
        while !stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let reader = BufReader::new(stream.try_clone()?);
                    stream.set_nonblocking(false)?;
                    let writer = Arc::new(Mutex::new(stream));
                    let daemon = Arc::clone(&daemon);
                    let stop = Arc::clone(&stop);
                    let conn = thread::Builder::new().name("pacmand-conn".to_string()).spawn(
                        move || {
                            if serve_connection(&daemon, reader, writer) {
                                stop.store(true, Ordering::Release);
                            }
                        },
                    )?;
                    connections.push(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        for conn in connections {
            let _ = conn.join();
        }
        let report = daemon.drain();
        let _ = std::fs::remove_file(path);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{DaemonConfig, JobRunner, JobSink};
    use std::io::Cursor;

    fn echo_daemon() -> Daemon {
        let runner: Arc<dyn JobRunner> = Arc::new(|command: &str, sink: &JobSink| {
            if command == "fail" {
                return Err("requested failure".to_string());
            }
            sink.record(&format!("{{\"record\":\"echo\",\"command\":\"{command}\"}}"));
            Ok(())
        });
        Daemon::start(DaemonConfig::default(), runner)
    }

    fn run_script(daemon: &Daemon, script: &str) -> (bool, Vec<Value>) {
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shutdown =
            serve_connection(daemon, Cursor::new(script.to_string()), Arc::clone(&writer));
        let bytes = writer.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let records = pacman_telemetry::json::parse_jsonl(&text).unwrap();
        (shutdown, records)
    }

    fn types_of<'a>(records: &'a [Value], session: &str) -> Vec<&'a str> {
        records
            .iter()
            .filter(|r| r.get("session").and_then(Value::as_str) == Some(session))
            .filter_map(|r| r.get("type").and_then(Value::as_str))
            .collect()
    }

    #[test]
    fn a_scripted_connection_runs_a_session_end_to_end() {
        let daemon = echo_daemon();
        let script = concat!(
            r#"{"type":"ping"}"#,
            "\n",
            r#"{"type":"open_session","session":"s1"}"#,
            "\n",
            r#"{"type":"submit","session":"s1","command":"hello"}"#,
            "\n",
            r#"{"type":"close_session","session":"s1"}"#,
            "\n",
        );
        let (shutdown, records) = run_script(&daemon, script);
        assert!(!shutdown);
        assert_eq!(records[0].get("type").and_then(Value::as_str), Some("pong"));
        let s1 = types_of(&records, "s1");
        assert_eq!(
            s1,
            ["session_opened", "job_accepted", "job_output", "job_done", "session_closed"]
        );
        daemon.drain();
    }

    #[test]
    fn protocol_errors_echo_back_without_dropping_the_connection() {
        let daemon = echo_daemon();
        let script = concat!(
            "this is not json\n",
            r#"{"type":"submit","session":"ghost","command":"x"}"#,
            "\n",
            r#"{"type":"ping"}"#,
            "\n",
        );
        let (shutdown, records) = run_script(&daemon, script);
        assert!(!shutdown);
        let types: Vec<_> =
            records.iter().filter_map(|r| r.get("type").and_then(Value::as_str)).collect();
        assert_eq!(types, ["error", "error", "pong"]);
        daemon.drain();
    }

    #[test]
    fn any_session_name_serves_end_to_end() {
        let daemon = echo_daemon();
        let script = concat!(
            r#"{"type":"open_session","session":"nul\u0000name"}"#,
            "\n",
            r#"{"type":"submit","session":"nul\u0000name","command":"x"}"#,
            "\n",
        );
        let (_, records) = run_script(&daemon, script);
        assert!(types_of(&records, "nul\0name").contains(&"job_done"));
        daemon.drain();
    }

    #[test]
    fn eof_closes_dangling_sessions_and_shutdown_is_reported() {
        let daemon = echo_daemon();
        // Session left open at EOF: serve_connection must close it.
        let (shutdown, records) = run_script(
            &daemon,
            concat!(
                r#"{"type":"open_session","session":"dangling"}"#,
                "\n",
                r#"{"type":"submit","session":"dangling","command":"work"}"#,
                "\n",
            ),
        );
        assert!(!shutdown);
        assert!(types_of(&records, "dangling").contains(&"session_closed"));
        let (shutdown, _) = run_script(&daemon, "{\"type\":\"shutdown\"}\n");
        assert!(shutdown);
        daemon.drain();
    }

    #[cfg(unix)]
    #[test]
    fn the_unix_socket_server_round_trips_and_drains() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        use std::time::Duration;

        let dir = std::env::temp_dir().join(format!("pacmand-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pacmand.sock");
        let daemon = Arc::new(echo_daemon());
        let server = {
            let daemon = Arc::clone(&daemon);
            let path = path.clone();
            thread::spawn(move || serve_unix(daemon, &path))
        };
        let stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "{{\"type\":\"open_session\",\"session\":\"net\"}}").unwrap();
        writeln!(writer, "{{\"type\":\"submit\",\"session\":\"net\",\"command\":\"ping\"}}")
            .unwrap();
        writeln!(writer, "{{\"type\":\"close_session\",\"session\":\"net\"}}").unwrap();
        writeln!(writer, "{{\"type\":\"shutdown\"}}").unwrap();
        let mut seen = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            let record = pacman_telemetry::json::parse(line.trim_end()).unwrap();
            let t = record.get("type").and_then(Value::as_str).unwrap().to_string();
            let done = t == "session_closed";
            seen.push(t);
            if done {
                break;
            }
        }
        drop(writer);
        drop(reader);
        let report = server.join().unwrap().unwrap();
        assert_eq!(report.get("type").and_then(Value::as_str), Some("daemon_drained"));
        assert_eq!(report.get("sessions").and_then(Value::as_u64), Some(1));
        assert!(seen.contains(&"job_done".to_string()), "records seen: {seen:?}");
        assert!(!path.exists(), "socket file should be removed after drain");
    }
}
