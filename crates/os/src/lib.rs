//! PacmanOS — the bare-metal experiment environment of paper §6.2.
//!
//! The paper's reverse engineering needed "complete control of the
//! hardware, e.g., configuring and probing arbitrary model-specific
//! registers (MSRs), creating arbitrary paging configurations, and
//! performing noiseless reverse engineering experiments, without
//! interference from other system software" — so the authors wrote
//! PacmanOS, a Rust environment that boots directly on the M1 and runs a
//! single experiment per boot.
//!
//! This crate reproduces that tool against the workspace's simulated
//! machine:
//!
//! - [`BareMetal`] — boots the machine straight into EL1 with no kernel:
//!   MSR probing (by *executing* `MRS`/`MSR`, exactly how a bare-metal
//!   probe discovers which encodings trap), arbitrary page-table
//!   configuration including aliases, and state quiescing between trials;
//! - [`Experiment`] / [`BareMetal::run`] — the one-experiment-per-boot
//!   harness;
//! - [`experiments`] — built-in experiments: the MSR inventory, timer
//!   resolution measurement, and an automated TLB-parameter search that
//!   rediscovers the Figure 6 organisation without being told any stride.
//!
//! # Example
//!
//! ```
//! use pacman_os::{experiments::MsrInventory, BareMetal};
//!
//! let mut os = BareMetal::boot_default();
//! let report = os.run(&mut MsrInventory::new());
//! assert_eq!(report.name, "msr-inventory");
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod experiment;
pub mod experiments;

pub use env::{BareMetal, MsrAccess};
pub use experiment::{Experiment, ExperimentReport};
