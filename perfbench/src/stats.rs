//! Order statistics and the open-loop schedule.

use std::time::{Duration, Instant};

use pacman_runner::mix64;

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` (0..=100) among `n`
/// sorted samples: the smallest rank whose share of samples at or below
/// it reaches `p`.
fn rank(n: usize, p: f64) -> usize {
    debug_assert!(n > 0 && (0.0..=100.0).contains(&p));
    // Round the product first so that e.g. 95 % of 200 is exactly rank
    // 190 rather than 190.00000000000003 rounding up to 191.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of `values` (any order); `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// Median of `values` (the nearest-rank 50th percentile), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The fewest samples for which percentile `p` leaves at least `tail`
/// samples beyond it.
pub fn min_samples_for(p: f64, tail: usize) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= tail).expect("some sample count satisfies the tail")
}

/// An open-loop send schedule: request `i` is due at a fixed time
/// whether or not earlier requests have finished, so a stall delays
/// every later request and that delay is charged to their latency.
///
/// Gaps between requests are exponential (Poisson arrivals, as from
/// independent users) and drawn from a seed. A fixed period would sample
/// a periodic server, such as one running back-to-back bulk jobs, at a
/// few phases only, and the median latency would then depend on how the
/// two periods happen to line up in a run.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    start: Instant,
    offsets: Vec<Duration>,
}

impl OpenLoop {
    /// `n` requests at a mean of `rate` per second from `start`.
    pub fn poisson(start: Instant, rate: f64, n: usize, seed: u64) -> Self {
        let mut at = 0.0;
        let offsets = (0..n as u64)
            .map(|i| {
                let due = Duration::from_secs_f64(at);
                // Uniform in (0, 1] from the top 53 bits.
                let u = ((mix64(seed, i) >> 11) + 1) as f64 / (1u64 << 53) as f64;
                at += -u.ln() / rate;
                due
            })
            .collect();
        OpenLoop { start, offsets }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.offsets[i]
    }
}

/// Milliseconds from `earlier` to `later` (0 when `later` precedes it).
pub fn ms_between(earlier: Instant, later: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Unsorted input is sorted internally.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 80.0), Some(4.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond_it() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(min_samples_for(95.0, TAIL_SAMPLES), 200);
        assert_eq!(min_samples_for(99.0, TAIL_SAMPLES), 1000);
        assert_eq!(min_samples_for(50.0, TAIL_SAMPLES), 20);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let sched = OpenLoop::poisson(t0, 10.0, 4, 7);
        assert_eq!(sched.due(0), t0);
        // Request 3 was sent 40 ms late and finished 25 ms after it was
        // sent: its latency is 65 ms, not the 25 ms the server saw.
        let sent = sched.due(3) + Duration::from_millis(40);
        let done = sent + Duration::from_millis(25);
        assert!((ms_between(sched.due(3), done) - 65.0).abs() < 1e-6);
        assert!((ms_between(sched.due(3), sent) - 40.0).abs() < 1e-6);
        assert_eq!(ms_between(done, sent), 0.0);
    }

    #[test]
    fn poisson_schedules_keep_their_rate_and_repeat_per_seed() {
        let t0 = Instant::now();
        let n = 20_000;
        let a = OpenLoop::poisson(t0, 20.0, n, 1);
        assert_eq!(a.offsets, OpenLoop::poisson(t0, 20.0, n, 1).offsets);
        assert_ne!(a.offsets, OpenLoop::poisson(t0, 20.0, n, 2).offsets);
        assert!(a.offsets.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = ms_between(t0, a.due(n - 1)) / (n - 1) as f64;
        assert!((mean_gap - 50.0).abs() < 2.0, "mean gap {mean_gap} ms at 20/s");
    }
}
