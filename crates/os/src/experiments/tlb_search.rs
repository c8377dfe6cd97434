//! Automated TLB-parameter search.
//!
//! The paper's §7 sweeps were driven by a human reading latency plots.
//! This experiment automates the discovery: given *no prior knowledge*
//! of strides or associativities, it searches power-of-two strides for
//! the smallest one that produces reload-latency jumps, then finds the
//! minimal eviction-set size at that stride. Applied three times —
//! data-side L1, data-side L2, instruction-side L1 — it reconstructs the
//! Figure 6 organisation:
//!
//! - set count = the smallest conflicting stride (in pages);
//! - associativity = the minimal eviction-set size at that stride.

use pacman_isa::ptr::PAGE_SIZE;

use crate::env::BareMetal;
use crate::experiment::Experiment;

/// Discovered parameters of one TLB level.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct TlbSearchResult {
    /// Smallest conflicting stride, in pages (= set count).
    pub sets: u64,
    /// Minimal eviction-set size (= ways).
    pub ways: usize,
}

/// The full search experiment.
#[derive(Debug, Default)]
pub struct TlbParameterSearch {
    /// Data-side L1 result (expected 256 sets × 12 ways).
    pub dtlb: Option<TlbSearchResult>,
    /// Shared L2 result (expected 2048 sets × 23 ways).
    pub l2: Option<TlbSearchResult>,
    /// Instruction-side L1 result (expected 32 sets × 4 ways).
    pub itlb: Option<TlbSearchResult>,
}

/// Maximum eviction-set size the search will try.
const MAX_N: usize = 32;
/// Samples per probe point.
const SAMPLES: usize = 5;

impl TlbParameterSearch {
    /// Creates the experiment.
    pub fn new() -> Self {
        Self::default()
    }

    /// One trial: cold machine, touch `x`, access `n` candidates at
    /// `stride_pages`, reload `x` and report the median latency.
    fn data_trial(os: &mut BareMetal, x: u64, stride_pages: u64, n: usize) -> u64 {
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            os.quiesce();
            os.load(x).expect("mapped");
            for i in 1..=n as u64 {
                // The 128-byte stagger keeps the candidates out of x's
                // L1D set (the paper's §7.2 formula).
                os.load(x + i * stride_pages * PAGE_SIZE + i * 128).expect("mapped");
            }
            samples.push(os.timed_load(x).expect("mapped"));
        }
        samples.sort_unstable();
        samples[samples.len() / 2]
    }

    /// Instruction-side trial: fetch `x`, fetch candidates, reload as
    /// data (§7.3 methodology).
    fn fetch_trial(os: &mut BareMetal, x: u64, stride_pages: u64, n: usize) -> u64 {
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            os.quiesce();
            os.fetch(x).expect("mapped");
            for i in 1..=n as u64 {
                os.fetch(x + i * stride_pages * PAGE_SIZE + i * 128).expect("mapped");
            }
            samples.push(os.timed_load(x).expect("mapped"));
        }
        samples.sort_unstable();
        samples[samples.len() / 2]
    }

    /// Maps the trial addresses for one (region, stride).
    fn map_trial_pages(os: &mut BareMetal, x: u64, stride_pages: u64) {
        os.map_page_at(x);
        for i in 1..=MAX_N as u64 {
            os.map_page_at(x + i * stride_pages * PAGE_SIZE);
        }
    }

    /// The minimal eviction-set size at `stride` that crosses `threshold`
    /// (in the `rising` direction), if any within [`MAX_N`].
    fn min_n(
        os: &mut BareMetal,
        threshold: u64,
        stride: u64,
        trial: &impl Fn(&mut BareMetal, u64, u64, usize) -> u64,
        rising: bool,
    ) -> Option<usize> {
        let x = os.reserve_span(stride * (MAX_N as u64 + 1) + 1);
        Self::map_trial_pages(os, x, stride);
        (1..=MAX_N).find(|&n| {
            let m = trial(os, x, stride, n);
            if rising {
                m >= threshold
            } else {
                m <= threshold
            }
        })
    }

    /// Parameter inference: the associativity is the minimal eviction-set
    /// size at a stride so large that every candidate surely shares the
    /// target's set; the set count is then the *smallest* stride at which
    /// that same minimal size still evicts (any smaller stride spreads
    /// the candidates over several sets and needs proportionally more of
    /// them).
    fn search(
        os: &mut BareMetal,
        threshold: u64,
        max_stride: u64,
        trial: impl Fn(&mut BareMetal, u64, u64, usize) -> u64,
        rising: bool,
    ) -> Option<TlbSearchResult> {
        let ways = Self::min_n(os, threshold, max_stride, &trial, rising)?;
        let mut sets = max_stride;
        let mut stride = max_stride / 2;
        while stride >= 1 {
            match Self::min_n(os, threshold, stride, &trial, rising) {
                Some(n) if n == ways => {
                    sets = stride;
                    stride /= 2;
                }
                _ => break,
            }
        }
        Some(TlbSearchResult { sets, ways })
    }
}

impl Experiment for TlbParameterSearch {
    fn name(&self) -> &'static str {
        "tlb-parameter-search"
    }

    fn run(&mut self, os: &mut BareMetal, lines: &mut Vec<String>) -> bool {
        // L1 data side: first latency plateau above the hot baseline.
        self.dtlb = Self::search(os, 90, 4096, Self::data_trial, true);
        // L2: deeper plateau (the search naturally lands on the larger
        // stride because smaller strides saturate at the L1-miss level).
        self.l2 = Self::search(os, 110, 4096, Self::data_trial, true);
        // Instruction side: the *drop* below the invisible-entry level.
        self.itlb = Self::search(os, 90, 4096, Self::fetch_trial, false);

        for (name, r, expected) in [
            ("L1 dTLB", self.dtlb, (256, 12)),
            ("L2 TLB", self.l2, (2048, 23)),
            ("L1 iTLB", self.itlb, (32, 4)),
        ] {
            match r {
                Some(res) => lines.push(format!(
                    "{name}: {} sets x {} ways (expected {} x {})",
                    res.sets, res.ways, expected.0, expected.1
                )),
                None => lines.push(format!("{name}: not found")),
            }
        }
        self.dtlb == Some(TlbSearchResult { sets: 256, ways: 12 })
            && self.l2 == Some(TlbSearchResult { sets: 2048, ways: 23 })
            && self.itlb == Some(TlbSearchResult { sets: 32, ways: 4 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_rediscovers_figure6_with_no_priors() {
        let mut os = BareMetal::boot_default();
        let mut exp = TlbParameterSearch::new();
        let report = os.run(&mut exp);
        assert!(report.ok, "{report}");
        assert_eq!(exp.dtlb, Some(TlbSearchResult { sets: 256, ways: 12 }));
        assert_eq!(exp.l2, Some(TlbSearchResult { sets: 2048, ways: 23 }));
        assert_eq!(exp.itlb, Some(TlbSearchResult { sets: 32, ways: 4 }));
    }
}
