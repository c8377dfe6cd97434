//! Zero-dependency metrics layer for the PACMAN reproduction.
//!
//! Every quantitative claim in the paper — TLB reverse-engineering knees
//! (§7, Figures 5–6), oracle accuracy (§8.1), brute-force timing (§8.2) —
//! used to live only in printed tables. This crate gives the workspace a
//! machine-readable spine:
//!
//! - [`Registry`] — named monotonic [counters](Registry::incr_by),
//!   [gauges](Registry::gauge), and log₂-bucketed latency
//!   [histograms](Registry::observe) with p50/p95/p99 summaries;
//! - [`ScopedTimer`] — RAII wall-clock timing into a histogram;
//! - [`Snapshot`] / [`Snapshot::diff`] — point-in-time captures with
//!   interval semantics, so a caller can meter one experiment phase;
//! - [`json`] — a hand-rolled serializer *and* minimal parser (the
//!   workspace deliberately has no serde), plus JSONL helpers;
//! - [`bin`] — the little-endian binary codec snapshot files encode
//!   through, with typed truncation/corruption errors;
//! - [`span`] — timed span events with thread+shard attribution and a
//!   bounded ring-buffer [`FlightRecorder`];
//! - [`trace`] — the process-wide recorder plus a Chrome trace-event
//!   exporter/parser (`trace.json`, viewable in Perfetto).
//!
//! Cost discipline mirrors `SpecTrace`: every mutating entry point
//! branches on [`Registry::is_enabled`] first, so a disabled registry
//! costs one predictable branch per call site. The simulator's own hot
//! paths go further and keep raw `u64` fields, exporting into a
//! `Registry` only at snapshot boundaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bin;
pub mod json;
mod registry;
mod snapshot;
pub mod span;
pub mod trace;

pub use registry::{Histogram, HistogramSummary, Registry, ScopedTimer};
pub use snapshot::Snapshot;
pub use span::{FlightRecorder, SpanEvent};
