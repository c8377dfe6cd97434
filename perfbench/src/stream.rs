//! Demultiplexing the daemon's JSONL stream by session and job.
//!
//! One connection carries every session. Responses name their session,
//! and all but `job_accepted` also name their job; a session's submits
//! are accepted in submission order, so the n-th `job_accepted` of a
//! session belongs to its n-th submit.

use std::collections::{BTreeMap, VecDeque};

use pacman_telemetry::json::{parse, Value};

/// One daemon record, classified.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// `job_accepted`.
    Accepted { session: String, job: u64 },
    /// `job_output`: one verbatim JSONL line of the job.
    Output { session: String, job: u64, line: String },
    /// `job_progress`: a campaign shard merged.
    Progress { session: String, job: u64 },
    /// `job_done`.
    Done { session: String, job: u64 },
    /// `job_failed`.
    Failed { session: String, job: u64, error: String },
    /// `backpressure`: a submit blocked on a full session queue.
    Backpressure,
    /// `checkpoint_written`.
    Checkpoint,
    /// `pong`.
    Pong,
    /// `error`: a refused request.
    Error(String),
    /// Anything else (`session_opened`, `session_closed`, `status`,
    /// `daemon_drained`, ...).
    Other(String),
}

/// Parses and classifies one line of the daemon stream.
pub fn classify(line: &str) -> Result<Record, String> {
    let v = parse(line.trim_end()).map_err(|e| format!("unparsable daemon record: {e}"))?;
    let kind = v.get("type").and_then(Value::as_str).ok_or("daemon record without a type")?;
    let session = || v.get("session").and_then(Value::as_str).unwrap_or_default().to_string();
    let job = || v.get("job").and_then(Value::as_u64).ok_or(format!("{kind} record without a job"));
    let text = |key| v.get(key).and_then(Value::as_str).unwrap_or_default().to_string();
    Ok(match kind {
        "job_accepted" => Record::Accepted { session: session(), job: job()? },
        "job_output" => Record::Output { session: session(), job: job()?, line: text("line") },
        "job_progress" => Record::Progress { session: session(), job: job()? },
        "job_done" => Record::Done { session: session(), job: job()? },
        "job_failed" => Record::Failed { session: session(), job: job()?, error: text("error") },
        "backpressure" => Record::Backpressure,
        "checkpoint_written" => Record::Checkpoint,
        "pong" => Record::Pong,
        "error" => Record::Error(text("error")),
        other => Record::Other(other.to_string()),
    })
}

/// Everything observed about one submitted job. `T` is the clock type
/// (`Instant` in the benchmark, plain numbers in tests).
#[derive(Clone, Debug)]
pub struct Job<T> {
    /// Caller's label for the command (e.g. its index in the input cycle).
    pub tag: usize,
    /// Session the job was submitted on.
    pub session: String,
    /// When the submit was written.
    pub submitted: T,
    /// Daemon-assigned job id, once accepted.
    pub id: Option<u64>,
    /// When `job_accepted` arrived.
    pub accepted: Option<T>,
    /// When the first `job_output` or `job_progress` arrived.
    pub first_output: Option<T>,
    /// Arrival times of `job_progress` records.
    pub progress: Vec<T>,
    /// The job's output lines, in order.
    pub lines: Vec<String>,
    /// When `job_done` or `job_failed` arrived.
    pub finished: Option<T>,
    /// The failure message of a `job_failed`.
    pub error: Option<String>,
}

/// Routes daemon records to the jobs they belong to.
#[derive(Debug)]
pub struct Demux<T> {
    /// Every submitted job, in submission order.
    pub jobs: Vec<Job<T>>,
    /// Per session: submits awaiting acceptance, and accepted ids.
    sessions: BTreeMap<String, (VecDeque<usize>, BTreeMap<u64, usize>)>,
    /// `backpressure` records seen.
    pub backpressure: u64,
    /// `checkpoint_written` records seen.
    pub checkpoints: u64,
    /// `pong` records seen.
    pub pongs: u64,
    /// Protocol errors: refused requests and records for unknown jobs.
    pub errors: Vec<String>,
}

impl<T: Copy> Default for Demux<T> {
    fn default() -> Self {
        Demux {
            jobs: Vec::new(),
            sessions: BTreeMap::new(),
            backpressure: 0,
            checkpoints: 0,
            pongs: 0,
            errors: Vec::new(),
        }
    }
}

impl<T: Copy> Demux<T> {
    /// Notes a submit written on `session`; returns the job's index.
    pub fn submitted(&mut self, session: &str, tag: usize, at: T) -> usize {
        let slot = self.jobs.len();
        self.jobs.push(Job {
            tag,
            session: session.to_string(),
            submitted: at,
            id: None,
            accepted: None,
            first_output: None,
            progress: Vec::new(),
            lines: Vec::new(),
            finished: None,
            error: None,
        });
        self.sessions.entry(session.to_string()).or_default().0.push_back(slot);
        slot
    }

    fn slot(&mut self, session: &str, job: u64) -> Option<usize> {
        let found = self.sessions.get(session).and_then(|(_, ids)| ids.get(&job).copied());
        if found.is_none() {
            self.errors.push(format!("record for unknown job {session}/{job}"));
        }
        found
    }

    /// Routes one record that arrived at `at`. Returns the index of the
    /// job it finished, if it finished one.
    pub fn feed(&mut self, at: T, record: Record) -> Option<usize> {
        match record {
            Record::Accepted { session, job } => {
                let Some(slot) = self.sessions.get_mut(&session).and_then(|s| s.0.pop_front())
                else {
                    self.errors.push(format!("job_accepted without a submit on {session}"));
                    return None;
                };
                self.sessions.get_mut(&session).expect("session").1.insert(job, slot);
                let j = &mut self.jobs[slot];
                j.id = Some(job);
                j.accepted = Some(at);
                None
            }
            Record::Output { session, job, line } => {
                let slot = self.slot(&session, job)?;
                let j = &mut self.jobs[slot];
                j.first_output.get_or_insert(at);
                j.lines.push(line);
                None
            }
            Record::Progress { session, job } => {
                let slot = self.slot(&session, job)?;
                let j = &mut self.jobs[slot];
                j.first_output.get_or_insert(at);
                j.progress.push(at);
                None
            }
            Record::Done { session, job } => {
                let slot = self.slot(&session, job)?;
                self.jobs[slot].finished = Some(at);
                Some(slot)
            }
            Record::Failed { session, job, error } => {
                let slot = self.slot(&session, job)?;
                self.jobs[slot].finished = Some(at);
                self.jobs[slot].error = Some(error);
                Some(slot)
            }
            Record::Backpressure => {
                self.backpressure += 1;
                None
            }
            Record::Checkpoint => {
                self.checkpoints += 1;
                None
            }
            Record::Pong => {
                self.pongs += 1;
                None
            }
            Record::Error(e) => {
                self.errors.push(e);
                None
            }
            Record::Other(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(d: &mut Demux<u64>, at: u64, line: &str) -> Option<usize> {
        d.feed(at, classify(line).unwrap())
    }

    #[test]
    fn interleaved_sessions_are_routed_by_session_and_job() {
        let mut d = Demux::default();
        let bulk = d.submitted("bulk", 100, 0);
        let a = d.submitted("inter", 0, 1);
        let b = d.submitted("inter", 1, 2);
        // Job ids are per session: both sessions use id 1.
        assert_eq!(feed(&mut d, 3, r#"{"type":"job_accepted","session":"bulk","job":1}"#), None);
        feed(&mut d, 4, r#"{"type":"job_accepted","session":"inter","job":1}"#);
        feed(&mut d, 5, r#"{"type":"job_output","session":"bulk","job":1,"line":"B1"}"#);
        feed(&mut d, 6, r#"{"type":"job_accepted","session":"inter","job":2}"#);
        feed(&mut d, 7, r#"{"type":"job_progress","session":"inter","job":2,"shard":0}"#);
        feed(&mut d, 8, r#"{"type":"job_output","session":"inter","job":1,"line":"A1"}"#);
        feed(&mut d, 9, r#"{"type":"job_output","session":"inter","job":2,"line":"X1"}"#);
        feed(&mut d, 10, r#"{"type":"checkpoint_written","session":"inter","records":3}"#);
        feed(&mut d, 11, r#"{"type":"job_output","session":"inter","job":1,"line":"A2"}"#);
        assert_eq!(feed(&mut d, 12, r#"{"type":"job_done","session":"inter","job":2}"#), Some(b));
        let failed = r#"{"type":"job_failed","session":"inter","job":1,"error":"boom"}"#;
        assert_eq!(feed(&mut d, 13, failed), Some(a));
        assert_eq!(feed(&mut d, 14, r#"{"type":"job_done","session":"bulk","job":1}"#), Some(bulk));

        assert_eq!(d.jobs[a].lines, ["A1", "A2"]);
        assert_eq!(d.jobs[a].error.as_deref(), Some("boom"));
        assert_eq!((d.jobs[a].accepted, d.jobs[a].first_output), (Some(4), Some(8)));
        assert_eq!(d.jobs[b].lines, ["X1"]);
        assert_eq!(d.jobs[b].first_output, Some(7), "progress counts as first output");
        assert_eq!(d.jobs[b].progress, [7]);
        assert_eq!(d.jobs[bulk].lines, ["B1"]);
        assert_eq!(d.jobs[bulk].finished, Some(14));
        assert_eq!(d.checkpoints, 1);
        assert!(d.errors.is_empty(), "{:?}", d.errors);
    }

    #[test]
    fn stray_records_are_reported_not_misrouted() {
        let mut d: Demux<u64> = Demux::default();
        feed(&mut d, 0, r#"{"type":"job_accepted","session":"ghost","job":1}"#);
        feed(&mut d, 1, r#"{"type":"job_output","session":"ghost","job":9,"line":"x"}"#);
        feed(&mut d, 2, r#"{"type":"error","error":"unknown request type 'warp'"}"#);
        feed(&mut d, 3, r#"{"type":"backpressure","session":"s","queued":16,"capacity":16}"#);
        assert_eq!(d.errors.len(), 3);
        assert_eq!(d.backpressure, 1);
        assert!(classify("not json").is_err());
        assert!(classify(r#"{"type":"job_done","session":"s"}"#).is_err());
    }
}
