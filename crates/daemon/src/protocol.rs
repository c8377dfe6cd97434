//! The `pacmand` wire protocol: JSONL request parsing and response
//! building.
//!
//! Framing is one JSON object per `\n`-terminated line in both
//! directions — the same JSONL shape every other record stream in the
//! workspace uses (`--metrics-out` files, bench artifacts, the verify
//! history), parsed and emitted by `pacman_telemetry::json` so no new
//! syntax enters the tree. Requests are tagged by a `"type"` field;
//! responses are likewise tagged and always carry the `session` they
//! belong to (when one applies), so a client multiplexing several
//! sessions over one connection can demultiplex by field, not by
//! ordering.
//!
//! The full request/response vocabulary and the session lifecycle it
//! drives are documented in DESIGN.md §12.

use pacman_telemetry::json::{parse, Value};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a named session; the name scopes every later record.
    OpenSession { session: String },
    /// Submit one experiment command line to a session's queue.
    Submit { session: String, command: String },
    /// Close a session after its queued jobs finish.
    CloseSession { session: String },
    /// Liveness probe.
    Ping,
    /// Daemon-wide queue/telemetry snapshot.
    Status,
    /// Graceful drain: finish queued work, then exit.
    Shutdown,
}

/// Parses one request line. Errors are human-readable strings the
/// server echoes back in an [`error`] record — a malformed line never
/// tears down the connection, let alone the daemon.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "request is missing a string \"type\" field".to_string())?;
    let session = |v: &Value| {
        v.get("session")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{kind} request is missing a string \"session\" field"))
    };
    match kind {
        "open_session" => Ok(Request::OpenSession { session: session(&value)? }),
        "submit" => {
            let command = value
                .get("command")
                .and_then(Value::as_str)
                .ok_or_else(|| "submit request is missing a string \"command\" field".to_string())?
                .to_string();
            Ok(Request::Submit { session: session(&value)?, command })
        }
        "close_session" => Ok(Request::CloseSession { session: session(&value)? }),
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type '{other}'")),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `session_opened`: the session exists and will receive records.
pub fn session_opened(session: &str, opened_at: u64) -> Value {
    obj(vec![
        ("type", Value::str("session_opened")),
        ("session", Value::str(session)),
        ("opened_at", Value::UInt(opened_at)),
    ])
}

/// `job_accepted`: the command is queued as job `job` of its session.
pub fn job_accepted(session: &str, job: u64) -> Value {
    obj(vec![
        ("type", Value::str("job_accepted")),
        ("session", Value::str(session)),
        ("job", Value::UInt(job)),
    ])
}

/// `backpressure`: the session queue is full; the submit will be
/// accepted once capacity frees. Sent at most once per blocked submit.
pub fn backpressure(session: &str, queued: usize, capacity: usize) -> Value {
    obj(vec![
        ("type", Value::str("backpressure")),
        ("session", Value::str(session)),
        ("queued", Value::UInt(queued as u64)),
        ("capacity", Value::UInt(capacity as u64)),
    ])
}

/// `job_output`: one verbatim JSONL record produced by the job. The
/// payload rides as a string so the daemon's framing never rewrites
/// the job's own records — clients that strip the envelope recover a
/// byte-identical stream to the one-shot CLI run.
pub fn job_output(session: &str, job: u64, line: &str) -> Value {
    obj(vec![
        ("type", Value::str("job_output")),
        ("session", Value::str(session)),
        ("job", Value::UInt(job)),
        ("line", Value::str(line)),
    ])
}

/// `job_progress`: a campaign shard merged; streamed live as the
/// executor's ordered event stream delivers, not at end-of-run.
pub fn job_progress(
    session: &str,
    job: u64,
    shard: usize,
    shards: usize,
    completed: usize,
    retries: u64,
) -> Value {
    obj(vec![
        ("type", Value::str("job_progress")),
        ("session", Value::str(session)),
        ("job", Value::UInt(job)),
        ("shard", Value::UInt(shard as u64)),
        ("shards", Value::UInt(shards as u64)),
        ("completed", Value::UInt(completed as u64)),
        ("retries", Value::UInt(retries)),
    ])
}

/// `job_done`: the job succeeded.
pub fn job_done(session: &str, job: u64) -> Value {
    obj(vec![
        ("type", Value::str("job_done")),
        ("session", Value::str(session)),
        ("job", Value::UInt(job)),
    ])
}

/// `job_failed`: the job returned an error or panicked. Scoped to the
/// session — the daemon and every other session carry on.
pub fn job_failed(session: &str, job: u64, error: &str) -> Value {
    obj(vec![
        ("type", Value::str("job_failed")),
        ("session", Value::str(session)),
        ("job", Value::UInt(job)),
        ("error", Value::str(error)),
    ])
}

/// `session_closed`: terminal session record carrying final counts and
/// the session's telemetry snapshot.
pub fn session_closed(
    session: &str,
    jobs_done: u64,
    jobs_failed: u64,
    telemetry: Value,
    closed_at: u64,
) -> Value {
    obj(vec![
        ("type", Value::str("session_closed")),
        ("session", Value::str(session)),
        ("jobs_done", Value::UInt(jobs_done)),
        ("jobs_failed", Value::UInt(jobs_failed)),
        ("telemetry", telemetry),
        ("closed_at", Value::UInt(closed_at)),
    ])
}

/// `resumed`: a restarted daemon re-enqueued job `job` from a
/// checkpoint. The job re-runs from scratch with its first `emitted`
/// output records suppressed, so the stream continues where the
/// pre-restart daemon left off; a client stitching across the restart
/// keeps exactly `emitted` pre-crash `job_output` lines for this job
/// and appends everything that follows.
pub fn resumed(session: &str, job: u64, emitted: u64) -> Value {
    obj(vec![
        ("type", Value::str("resumed")),
        ("session", Value::str(session)),
        ("job", Value::UInt(job)),
        ("emitted", Value::UInt(emitted)),
    ])
}

/// `checkpoint_written`: a snapshot covering at least the first
/// `records` daemon-wide output records is durably on disk. Sent on the
/// stream of the session whose record crossed the cadence boundary,
/// *after* the file rename — per-session FIFO ordering makes it a
/// durable watermark: every record counted by the checkpoint precedes
/// it on the wire.
pub fn checkpoint_written(session: &str, records: u64) -> Value {
    obj(vec![
        ("type", Value::str("checkpoint_written")),
        ("session", Value::str(session)),
        ("records", Value::UInt(records)),
    ])
}

/// `daemon_resumed`: startup summary after a successful snapshot load.
pub fn daemon_resumed(sessions: u64, jobs: u64) -> Value {
    obj(vec![
        ("type", Value::str("daemon_resumed")),
        ("sessions", Value::UInt(sessions)),
        ("jobs", Value::UInt(jobs)),
    ])
}

/// `resume_warning`: `--resume` found a snapshot it could not load
/// (torn, corrupt, or from another format version); the daemon
/// cold-started instead. The campaign state is lost but the daemon is
/// healthy.
pub fn resume_warning(error: &str) -> Value {
    obj(vec![("type", Value::str("resume_warning")), ("error", Value::str(error))])
}

/// `pong`: liveness reply.
pub fn pong() -> Value {
    obj(vec![("type", Value::str("pong"))])
}

/// `daemon_drained`: the final record a draining daemon emits, after
/// every session closed and every worker joined.
pub fn daemon_drained(sessions: u64, jobs_done: u64, jobs_failed: u64, drained_at: u64) -> Value {
    obj(vec![
        ("type", Value::str("daemon_drained")),
        ("sessions", Value::UInt(sessions)),
        ("jobs_done", Value::UInt(jobs_done)),
        ("jobs_failed", Value::UInt(jobs_failed)),
        ("drained_at", Value::UInt(drained_at)),
    ])
}

/// `error`: request-level failure echoed to the offending client.
pub fn error(message: &str) -> Value {
    obj(vec![("type", Value::str("error")), ("error", Value::str(message))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_telemetry::json::to_jsonl_line;

    #[test]
    fn requests_round_trip_through_the_line_format() {
        let cases = [
            (
                r#"{"type":"open_session","session":"a"}"#,
                Request::OpenSession { session: "a".into() },
            ),
            (
                r#"{"type":"submit","session":"a","command":"oracle --trials 4"}"#,
                Request::Submit { session: "a".into(), command: "oracle --trials 4".into() },
            ),
            (
                r#"{"type":"close_session","session":"a"}"#,
                Request::CloseSession { session: "a".into() },
            ),
            (r#"{"type":"ping"}"#, Request::Ping),
            (r#"{"type":"status"}"#, Request::Status),
            (r#"{"type":"shutdown"}"#, Request::Shutdown),
        ];
        for (line, want) in cases {
            assert_eq!(parse_request(line).unwrap(), want, "line {line}");
        }
    }

    #[test]
    fn malformed_requests_describe_their_defect() {
        let bad = [
            ("not json", "bad request JSON"),
            (r#"{"session":"a"}"#, "missing a string \"type\""),
            (r#"{"type":"warp"}"#, "unknown request type 'warp'"),
            (r#"{"type":"submit","session":"a"}"#, "missing a string \"command\""),
            (r#"{"type":"open_session"}"#, "missing a string \"session\""),
        ];
        for (line, needle) in bad {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "error for {line:?} was {err:?}");
        }
    }

    #[test]
    fn resume_records_carry_their_watermarks() {
        let r = resumed("s", 4, 117);
        assert_eq!(r.get("type").and_then(Value::as_str), Some("resumed"));
        assert_eq!(r.get("job").and_then(Value::as_u64), Some(4));
        assert_eq!(r.get("emitted").and_then(Value::as_u64), Some(117));
        let c = checkpoint_written("s", 640);
        assert_eq!(c.get("type").and_then(Value::as_str), Some("checkpoint_written"));
        assert_eq!(c.get("records").and_then(Value::as_u64), Some(640));
        let w = resume_warning("snapshot checksum mismatch");
        assert_eq!(w.get("type").and_then(Value::as_str), Some("resume_warning"));
        assert!(w.get("error").and_then(Value::as_str).unwrap().contains("checksum"));
        // All survive the JSONL wire format.
        for record in [r, c, w] {
            let reparsed = parse(to_jsonl_line(&record).trim_end()).unwrap();
            assert_eq!(reparsed, record);
        }
    }

    #[test]
    fn job_output_envelopes_preserve_the_inner_line_verbatim() {
        let inner = r#"{"record":"verdict","hits":3}"#;
        let wrapped = job_output("s", 1, inner);
        assert_eq!(wrapped.get("line").and_then(Value::as_str), Some(inner));
        // The envelope itself survives a serialize/parse round trip.
        let reparsed = parse(to_jsonl_line(&wrapped).trim_end()).unwrap();
        assert_eq!(reparsed.get("line").and_then(Value::as_str), Some(inner));
    }

    /// Space-separated pieces of request lines, so generated input also
    /// reaches past the JSON parser into field validation.
    const FRAGMENTS: &str = r#"{ } [ ] : , " \ null -1 1e999 "type" "session" "command" "submit" "open_session" "status" "\u0000" "\ud800""#;

    proptest::proptest! {
        #[test]
        fn parse_request_never_panics_on_hostile_lines(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
            pieces in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..24),
        ) {
            let fragments: Vec<&str> = FRAGMENTS.split(' ').collect();
            let spliced: String =
                pieces.iter().map(|&i| fragments[usize::from(i) % fragments.len()]).collect();
            for line in [String::from_utf8_lossy(&bytes).into_owned(), spliced] {
                if let Err(e) = parse_request(&line) {
                    proptest::prop_assert!(!e.is_empty(), "an empty error for {line:?}");
                }
            }
        }
    }
}
