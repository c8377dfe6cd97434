//! Static PACMAN-gadget detection (paper §4.3).
//!
//! The paper built a Ghidra script that scans the XNU kernel image for
//! PACMAN gadgets: it enumerates conditional branches, inspects 32
//! instructions down *both* branch directions, and reports a gadget when
//! the destination register of an `AUT` instruction later appears as the
//! address source of a memory access (data gadget) or an indirect branch
//! (instruction gadget), tracking dataflow through registers only.
//!
//! This crate reimplements that analysis from scratch over this
//! workspace's binary encoding, plus a synthetic kernel-image generator
//! with realistic PA-using function shapes so the §4.3 census can be
//! regenerated at any scale:
//!
//! - [`scan`] — the scanner;
//! - [`synth`] — the synthetic kernel-image generator.
//!
//! The sharded census runs these on the shard harness as
//! `pacman_core::parallel::parallel_census`.
//!
//! # Example
//!
//! ```
//! use pacman_gadget::scan::{scan_image, ScanConfig};
//! use pacman_gadget::synth::{synthesize, ImageSpec};
//!
//! let image = synthesize(&ImageSpec { functions: 50, seed: 7, ..ImageSpec::default() });
//! let report = scan_image(&image.bytes, &ScanConfig::default());
//! assert!(report.total() > 0, "PA-heavy code must contain gadgets");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scan;
pub mod synth;

pub use scan::{scan_image, Gadget, GadgetKind, ScanConfig, ScanReport};
pub use synth::{synthesize, ImageSpec, SynthImage};
