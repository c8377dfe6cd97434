//! Timer evaluation and threshold calibration (paper §7.4, Figure 7).
//!
//! Collects latency distributions of known-hit and known-miss loads under
//! a chosen timing source, and derives the hit/miss decision threshold.
//! With the defaults this reproduces the §7.4 result: multi-thread-timer
//! dTLB hits never measure beyond 27 ticks, misses never below 32, and 30
//! is a sound threshold.

use pacman_uarch::{TimingSource, Trap};

use crate::evict::EvictionSet;
use crate::system::System;

/// A latency histogram for one access population.
#[derive(Clone, Eq, PartialEq, Debug, Default)]
pub struct LatencyHistogram {
    samples: Vec<u64>,
}

impl LatencyHistogram {
    /// Adds one measurement.
    pub fn record(&mut self, ticks: u64) {
        self.samples.push(ticks);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum observed latency.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Maximum observed latency.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Median observed latency.
    pub fn median(&self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut s = self.samples.clone();
        s.sort_unstable();
        Some(s[s.len() / 2])
    }

    /// Bucketised counts `(tick, count)` for plotting, sorted by tick.
    pub fn buckets(&self) -> Vec<(u64, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for &s in &self.samples {
            *counts.entry(s).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }

    /// Fraction of samples at or below `ticks`.
    pub fn fraction_at_or_below(&self, ticks: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&s| s <= ticks).count() as f64 / self.samples.len() as f64
    }
}

/// The Figure 7 experiment output: hit and miss distributions for one
/// timing source, plus the derived threshold.
#[derive(Clone, Debug)]
pub struct TimerEvaluation {
    /// Timing source measured.
    pub source: TimingSource,
    /// L1-dTLB-hit (and L1D-hit) loads.
    pub dtlb_hits: LatencyHistogram,
    /// dTLB-miss / L2-TLB-hit loads.
    pub dtlb_misses: LatencyHistogram,
    /// Full-walk loads.
    pub walks: LatencyHistogram,
    /// A threshold separating hits from dTLB misses, if the
    /// distributions separate.
    pub threshold: Option<u64>,
}

impl TimerEvaluation {
    /// Whether this timer can drive the attack (distributions disjoint).
    pub fn is_usable(&self) -> bool {
        self.threshold.is_some()
    }
}

/// Runs the Figure 7 measurement for the machine's current timing source.
///
/// `samples` loads per population. Uses attacker-private pages only.
///
/// # Errors
///
/// Propagates traps from the attacker's own loads (setup bugs only).
pub fn evaluate_timer(sys: &mut System, samples: usize) -> Result<TimerEvaluation, Trap> {
    let source = sys.machine.timing_source();
    let page = sys.alloc_user_region(1);
    sys.ensure_user_page(page);
    let reset = EvictionSet::l2_reset_for_target(sys, page);

    let mut dtlb_hits = LatencyHistogram::default();
    let mut dtlb_misses = LatencyHistogram::default();
    let mut walks = LatencyHistogram::default();
    // Built on first use, after the first hit sample, and reused.
    let mut dtlb_evict = None;

    for _ in 0..samples {
        // Hit: touch, then measure.
        sys.machine.user_load(page)?;
        dtlb_hits.record(sys.machine.timed_user_load(page)?);

        // dTLB miss, L2 TLB hit: evict from the dTLB only by filling the
        // dTLB set with same-set addresses (stride 256 pages).
        let dtlb_evict = dtlb_evict.get_or_insert_with(|| EvictionSet::dtlb_for_target(sys, page));
        for &a in dtlb_evict.addrs() {
            sys.machine.user_load(a)?;
        }
        dtlb_misses.record(sys.machine.timed_user_load(page)?);

        // Walk: evict from the whole hierarchy.
        for &a in reset.addrs() {
            sys.machine.user_load(a)?;
        }
        walks.record(sys.machine.timed_user_load(page)?);
    }

    let threshold = derive_threshold(&dtlb_hits, &dtlb_misses);
    Ok(TimerEvaluation { source, dtlb_hits, dtlb_misses, walks, threshold })
}

/// Derives a midpoint threshold if the populations are disjoint.
pub fn derive_threshold(hits: &LatencyHistogram, misses: &LatencyHistogram) -> Option<u64> {
    let hi = hits.max()?;
    let lo = misses.min()?;
    (hi < lo).then(|| (hi + lo) / 2)
}

/// The Table 1 row data: a timer's EL0 accessibility and whether it
/// resolves the dTLB hit/miss gap.
#[derive(Clone, Debug)]
pub struct TimerRow {
    /// Human-readable name.
    pub name: &'static str,
    /// The MSR (or mechanism) behind it.
    pub register: &'static str,
    /// Whether EL0 can read it without kernel help.
    pub el0_by_default: bool,
    /// Whether the measured distributions separate.
    pub usable_for_attack: bool,
}

/// Regenerates Table 1 by actually measuring each source on `sys`.
///
/// # Errors
///
/// Propagates traps from the measurement loads.
pub fn table1(sys: &mut System) -> Result<Vec<TimerRow>, Trap> {
    let original = sys.machine.timing_source();
    let mut rows = Vec::new();
    for (name, register, source, el0) in [
        ("System Counter (24 MHz)", "CNTPCT_EL0", TimingSource::SystemCounter, true),
        ("Apple Performance Counter", "PMC0", TimingSource::Pmc0, false),
        ("Multi-thread Counter", "(shared memory)", TimingSource::MultiThread, true),
    ] {
        // PMC0 needs the kext first (§6.1).
        if source == TimingSource::Pmc0 {
            let pmc = sys.pmc;
            pmc.enable(&mut sys.kernel, &mut sys.machine);
        }
        sys.machine.set_timing_source(source);
        let eval = evaluate_timer(sys, 100)?;
        rows.push(TimerRow {
            name,
            register,
            el0_by_default: el0,
            usable_for_attack: eval.is_usable(),
        });
    }
    sys.machine.set_timing_source(original);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    fn quiet_system() -> System {
        let mut cfg = SystemConfig::default();
        cfg.machine.os_noise = 0.0;
        System::boot(cfg)
    }

    #[test]
    fn multi_thread_timer_separates_with_threshold_near_30() {
        let mut sys = quiet_system();
        let eval = evaluate_timer(&mut sys, 200).unwrap();
        assert!(eval.is_usable());
        let hit_max = eval.dtlb_hits.max().unwrap();
        let miss_min = eval.dtlb_misses.min().unwrap();
        // §7.4: hits never beyond 27, misses never below 32.
        assert!(hit_max <= 27, "hit max {hit_max}");
        assert!(miss_min >= 32, "miss min {miss_min}");
        let t = eval.threshold.unwrap();
        assert!((28..=34).contains(&t), "derived threshold {t} not ≈30");
        // Walks are slower still.
        assert!(eval.walks.median().unwrap() > eval.dtlb_misses.median().unwrap());
    }

    #[test]
    fn system_counter_is_too_coarse() {
        let mut sys = quiet_system();
        sys.machine.set_timing_source(TimingSource::SystemCounter);
        let eval = evaluate_timer(&mut sys, 100).unwrap();
        assert!(!eval.is_usable(), "a 24 MHz counter must not resolve ~35-cycle gaps");
    }

    #[test]
    fn pmc0_works_once_unlocked() {
        let mut sys = quiet_system();
        let pmc = sys.pmc;
        pmc.enable(&mut sys.kernel, &mut sys.machine);
        sys.machine.set_timing_source(TimingSource::Pmc0);
        let eval = evaluate_timer(&mut sys, 100).unwrap();
        assert!(eval.is_usable());
        // Cycle-accurate plateaus: hits ≈ 60, dTLB misses ≈ 95 (Fig 5a).
        let hit_med = eval.dtlb_hits.median().unwrap();
        let miss_med = eval.dtlb_misses.median().unwrap();
        assert!((58..=66).contains(&hit_med), "hit median {hit_med}");
        assert!((93..=101).contains(&miss_med), "miss median {miss_med}");
    }

    #[test]
    fn table1_reproduces_the_papers_rows() {
        let mut sys = quiet_system();
        let rows = table1(&mut sys).unwrap();
        assert_eq!(rows.len(), 3);
        let by_name: std::collections::HashMap<_, _> = rows.iter().map(|r| (r.name, r)).collect();
        assert!(!by_name["System Counter (24 MHz)"].usable_for_attack);
        assert!(by_name["Apple Performance Counter"].usable_for_attack);
        assert!(by_name["Multi-thread Counter"].usable_for_attack);
        assert!(!by_name["Apple Performance Counter"].el0_by_default);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = LatencyHistogram::default();
        for v in [5u64, 3, 9, 3] {
            h.record(v);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.median(), Some(5));
        assert_eq!(h.buckets(), vec![(3, 2), (5, 1), (9, 1)]);
        assert!((h.fraction_at_or_below(5) - 0.75).abs() < 1e-9);
    }
}
