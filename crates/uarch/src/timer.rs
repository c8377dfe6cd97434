//! The timers of paper Table 1 and §6.1.
//!
//! | timer | model |
//! |---|---|
//! | `CNTPCT_EL0` | cycles scaled to 24 MHz — EL0-readable but too coarse |
//! | `PMC0` | the raw cycle counter — EL1-only unless a kext sets `PMCR0` |
//! | multi-thread counter | a shared variable incremented by a dedicated timer thread; modelled as `cycles * rate` plus bounded jitter (no `isb` in the increment loop, §6.1) |
//!
//! The multi-thread timer's tick rate and jitter are calibrated so the
//! §7.4 decision threshold (30 ticks: dTLB hits ≤ 27, misses ≥ 32)
//! emerges from the model.

use rand::rngs::SmallRng;
use rand::Rng;

/// Timing source used by the measurement helpers.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum TimingSource {
    /// Apple `PMC0` cycle counter (requires the kext-enabled EL0 access).
    Pmc0,
    /// The userspace multi-thread counter (no privileges required).
    #[default]
    MultiThread,
    /// The 24 MHz architected system counter (`CNTPCT_EL0`).
    SystemCounter,
}

/// Converts the global cycle count into each timer's reading.
#[derive(Clone, Debug)]
pub struct Timers {
    /// `CNTFRQ_EL0` value (24 MHz).
    system_counter_hz: u64,
    /// Core cycles per system-counter tick, precomputed at construction
    /// so `cntpct` divides by a value known to be nonzero.
    cycles_per_tick: u64,
    /// Whether a kext has made `PMC0` readable at EL0 (`PMCR0` bit).
    pub pmc0_el0_enabled: bool,
    /// Multi-thread counter increments per cycle, expressed as a rational
    /// `num/den` (default 2/5 = one increment per 2.5 cycles).
    mt_rate: (u64, u64),
    /// Bounded jitter (± this many ticks) on multi-thread reads, from the
    /// racing increment loop having no serialisation barriers.
    mt_jitter: u64,
    /// Monotonicity guard for jittered reads.
    last_mt: u64,
}

impl Timers {
    /// Creates the timer block.
    ///
    /// # Panics
    ///
    /// Panics when `system_counter_hz` is zero or faster than `clock_hz`:
    /// the cycles-per-tick ratio would be zero and every `cntpct` read
    /// would divide by it. `MachineConfig::validate` reports the same
    /// condition as a typed error before any `Timers` is built.
    pub fn new(clock_hz: u64, system_counter_hz: u64) -> Self {
        assert!(
            system_counter_hz > 0 && clock_hz >= system_counter_hz,
            "timer ratio invalid: clock_hz {clock_hz} must be >= system_counter_hz \
             {system_counter_hz} > 0 (cycles-per-tick would be zero)"
        );
        Self {
            system_counter_hz,
            cycles_per_tick: clock_hz / system_counter_hz,
            pmc0_el0_enabled: false,
            mt_rate: (2, 5),
            mt_jitter: 1,
            last_mt: 0,
        }
    }

    /// The `CNTFRQ_EL0` value.
    pub fn cntfrq(&self) -> u64 {
        self.system_counter_hz
    }

    /// The `CNTPCT_EL0` reading at `cycles`.
    pub fn cntpct(&self, cycles: u64) -> u64 {
        // 3.2 GHz / 24 MHz ≈ 133 cycles per tick.
        cycles / self.cycles_per_tick
    }

    /// The `PMC0` reading (raw cycles).
    pub fn pmc0(&self, cycles: u64) -> u64 {
        cycles
    }

    /// The multi-thread counter reading: a racing increment loop sampled
    /// at `cycles`, with bounded jitter but guaranteed monotonic.
    pub fn multi_thread(&mut self, cycles: u64, rng: &mut SmallRng) -> u64 {
        let base = cycles * self.mt_rate.0 / self.mt_rate.1;
        let jitter = rng.gen_range(0..=2 * self.mt_jitter) as i64 - self.mt_jitter as i64;
        let v = base.saturating_add_signed(jitter).max(self.last_mt);
        self.last_mt = v;
        v
    }

    /// Reads the selected source. `PMC0` at EL0 without the kext
    /// enablement returns `None` (the `MRS` would trap — Table 1).
    pub fn read(
        &mut self,
        source: TimingSource,
        cycles: u64,
        at_el0: bool,
        rng: &mut SmallRng,
    ) -> Option<u64> {
        match source {
            TimingSource::Pmc0 => {
                if at_el0 && !self.pmc0_el0_enabled {
                    None
                } else {
                    Some(self.pmc0(cycles))
                }
            }
            TimingSource::MultiThread => Some(self.multi_thread(cycles, rng)),
            TimingSource::SystemCounter => Some(self.cntpct(cycles)),
        }
    }

    /// Serialises the mutable timer state (everything else is fixed at
    /// construction from the machine configuration).
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        w.bool(self.pmc0_el0_enabled);
        w.u64(self.last_mt);
    }

    /// Restores state written by [`Timers::save_state`].
    ///
    /// # Errors
    ///
    /// [`pacman_telemetry::bin::BinError`] on truncation or corruption.
    pub fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        self.pmc0_el0_enabled = r.bool()?;
        self.last_mt = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn timers() -> Timers {
        Timers::new(3_200_000_000, 24_000_000)
    }

    #[test]
    fn system_counter_is_coarse() {
        let t = timers();
        // ~133 cycles per tick: a 60-cycle L1 hit and a 95-cycle dTLB miss
        // are indistinguishable — the Table 1 motivation for better timers.
        assert_eq!(t.cntpct(0), 0);
        assert_eq!(t.cntpct(60), 0);
        assert_eq!(t.cntpct(95), 0);
        assert_eq!(t.cntpct(133), 1);
    }

    #[test]
    fn pmc0_is_cycle_accurate_but_gated() {
        let mut t = timers();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(t.read(TimingSource::Pmc0, 1234, false, &mut rng), Some(1234));
        assert_eq!(t.read(TimingSource::Pmc0, 1234, true, &mut rng), None, "EL0 read traps");
        t.pmc0_el0_enabled = true;
        assert_eq!(t.read(TimingSource::Pmc0, 1234, true, &mut rng), Some(1234));
    }

    #[test]
    fn multi_thread_counter_resolves_the_threshold() {
        // §7.4: with threshold 30, 60-cycle (hit) vs 95-cycle (miss)
        // deltas must separate under jitter. Sample many measurement pairs.
        let mut t = timers();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut cycles = 0u64;
        for _ in 0..500 {
            let t1 = t.multi_thread(cycles, &mut rng);
            cycles += 60;
            let t2 = t.multi_thread(cycles, &mut rng);
            let hit_delta = t2 - t1;
            cycles += 1000;
            let t3 = t.multi_thread(cycles, &mut rng);
            cycles += 95;
            let t4 = t.multi_thread(cycles, &mut rng);
            let miss_delta = t4 - t3;
            cycles += 1000;
            assert!(hit_delta <= 27, "hit measured {hit_delta} ticks (> 27)");
            assert!(miss_delta >= 32, "miss measured {miss_delta} ticks (< 32)");
        }
    }

    #[test]
    fn multi_thread_counter_is_monotonic() {
        let mut t = timers();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut last = 0;
        for c in (0..10_000).step_by(3) {
            let v = t.multi_thread(c, &mut rng);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn cntfrq_reports_24mhz() {
        assert_eq!(timers().cntfrq(), 24_000_000);
    }

    #[test]
    #[should_panic(expected = "timer ratio invalid")]
    fn inverted_ratio_is_rejected_at_construction() {
        // clock slower than the system counter: cycles-per-tick would be 0
        // and the old code divided by it on every `cntpct` read.
        let _ = Timers::new(24_000_000, 3_200_000_000);
    }

    #[test]
    #[should_panic(expected = "timer ratio invalid")]
    fn zero_counter_frequency_is_rejected_at_construction() {
        let _ = Timers::new(3_200_000_000, 0);
    }
}
