//! The timer-resolution experiment (§6.1's motivating measurement).

use pacman_uarch::TimingSource;

use crate::env::BareMetal;
use crate::experiment::Experiment;

/// Measures, for every timing source, whether back-to-back loads of a
/// hot line versus a dTLB-missing line are distinguishable — the
/// property that decides whether a timer can drive the attack.
#[derive(Debug, Default)]
pub struct TimerResolution {
    /// `(source, hit_ticks, miss_ticks, usable)` per source.
    pub measurements: Vec<(TimingSource, u64, u64, bool)>,
}

impl TimerResolution {
    /// Creates the experiment.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Experiment for TimerResolution {
    fn name(&self) -> &'static str {
        "timer-resolution"
    }

    fn run(&mut self, os: &mut BareMetal, lines: &mut Vec<String>) -> bool {
        self.measurements.clear();
        let page = os.alloc_pages(1);
        for source in [TimingSource::SystemCounter, TimingSource::Pmc0, TimingSource::MultiThread] {
            os.machine.set_timing_source(source);
            // Hot: warm everything, measure.
            os.load(page).expect("mapped");
            let hit = os.timed_load(page).expect("mapped");
            // Translation-cold, cache-warm: flush only the TLBs. This is
            // the ~55-cycle gap the attack has to resolve; a usable timer
            // needs several ticks across it (quantisation headroom).
            os.flush_tlbs();
            let miss = os.timed_load(page).expect("mapped");
            let usable = miss > hit + 8;
            lines.push(format!(
                "{source:?}: hit {hit} ticks, TLB-cold {miss} ticks -> {}",
                if usable { "usable" } else { "too coarse" }
            ));
            self.measurements.push((source, hit, miss, usable));
        }
        os.machine.set_timing_source(TimingSource::Pmc0);
        // The 24 MHz counter must be the only unusable one.
        let by_source = |s: TimingSource| {
            self.measurements.iter().find(|(src, ..)| *src == s).map(|&(_, _, _, u)| u)
        };
        by_source(TimingSource::SystemCounter) == Some(false)
            && by_source(TimingSource::Pmc0) == Some(true)
            && by_source(TimingSource::MultiThread) == Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_system_counter_is_too_coarse() {
        let mut os = BareMetal::boot_default();
        let mut exp = TimerResolution::new();
        let report = os.run(&mut exp);
        assert!(report.ok, "{report}");
        assert_eq!(exp.measurements.len(), 3);
    }
}
