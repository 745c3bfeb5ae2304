//! Open-loop arithmetic: the send schedule, due-time latency, generator
//! lateness, and the rule that turns a fixed-rate ladder into `slo_qps`.
//!
//! Requests are due on a fixed schedule whatever the system does. Latency
//! is measured from the due time, not the send time, so a stall in the
//! generator or the system is charged to every request it delays. How late
//! the generator itself sent is reported separately, as a check on the
//! measurement.

use std::time::Duration;

use crate::stats;

/// Offset of request `i` from the start of a run at `rate` requests/s.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Times of one request, in seconds since the run started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency as the user sees it: from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request (never negative: the
    /// generator does not send early).
    pub fn lateness_ms(&self) -> f64 {
        ((self.sent - self.due) * 1e3).max(0.0)
    }
}

/// What one fixed-rate rung observed.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// Latencies of completed requests, in due order.
    pub latencies_ms: Vec<f64>,
    pub shed: u64,
    pub timeouts: u64,
    pub errors: u64,
}

/// A backlog grows when requests late in the rung wait clearly longer than
/// requests early in it: the median latency of the last quarter exceeds
/// that of the first quarter by more than half the latency limit. A stable
/// queue has stationary latencies; an overloaded one grows without bound.
pub fn backlog_growing(latencies_due_order: &[f64], limit_ms: f64) -> bool {
    let n = latencies_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = stats::median(&latencies_due_order[..q]);
    let last = stats::median(&latencies_due_order[n - q..]);
    last - first > limit_ms / 2.0
}

/// A rung passes when its p99 (with at least ten samples beyond it) is
/// within the limit, nothing was shed, timed out or failed, and the
/// backlog did not grow.
pub fn rung_passes(r: &Rung, limit_ms: f64) -> bool {
    let Some(p99) = stats::tail(&r.latencies_ms, 0.99) else {
        return false;
    };
    p99 <= limit_ms
        && r.shed == 0
        && r.timeouts == 0
        && r.errors == 0
        && !backlog_growing(&r.latencies_ms, limit_ms)
}

/// Split a phase's rung into consecutive windows of at least
/// [`stats::TAIL_WINDOW`] requests each (shed and failed requests are spread
/// over the windows in proportion).
pub fn windows(r: &Rung) -> Vec<Rung> {
    let ranges = stats::windows(r.latencies_ms.len(), stats::TAIL_WINDOW);
    let n = ranges.len() as u64;
    let share = |x: u64, i: u64| x * (i + 1) / n - x * i / n;
    ranges
        .into_iter()
        .enumerate()
        .map(|(i, range)| Rung {
            latencies_ms: r.latencies_ms[range].to_vec(),
            shed: share(r.shed, i as u64),
            timeouts: share(r.timeouts, i as u64),
            errors: share(r.errors, i as u64),
        })
        .collect()
}

/// A phase passes when a majority of its windows pass the rung rule, so
/// one stall burst in a noisy machine cannot decide it on its own.
pub fn majority_passes(r: &Rung, limit_ms: f64) -> bool {
    let w = windows(r);
    2 * w.iter().filter(|w| rung_passes(w, limit_ms)).count() > w.len()
}

/// Median over a phase's windows of a per-window latency statistic.
pub fn window_median(r: &Rung, stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let per: Vec<f64> = windows(r)
        .iter()
        .filter_map(|w| stat(&w.latencies_ms))
        .collect();
    (!per.is_empty()).then(|| stats::median(&per))
}

/// Geometric ladder around `nominal`: `below` rungs under it and `above`
/// over it, consecutive rungs `step` apart (0.05 = 5%), rounded to whole
/// requests per second. `nominal` is rung `below`.
pub fn ladder(nominal: f64, step: f64, below: usize, above: usize) -> Vec<f64> {
    (-(below as i32)..=above as i32)
        .map(|j| (nominal * (1.0 + step).powi(j)).round())
        .collect()
}

/// Highest passing rung, found by bisection over the ladder with one
/// rung's outcome already known (the nominal rate's run). Assumes a rung
/// that fails implies every higher rung fails. Returns 0 when no probed
/// rung passes.
pub fn highest_passing(
    rungs: &[f64],
    known: usize,
    known_pass: bool,
    mut probe: impl FnMut(f64) -> bool,
) -> f64 {
    // Invariant: rung `lo` passes (or lo == -1), rung `hi` fails (or hi == len).
    let (mut lo, mut hi) = if known_pass {
        (known as i64, rungs.len() as i64)
    } else {
        (-1, known as i64)
    };
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(rungs[mid as usize]) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if lo < 0 {
        0.0
    } else {
        rungs[lo as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time() {
        // Due at 1.000 s, sent 0.4 ms late, done 1.5 ms after it was due.
        let t = Timing {
            due: 1.0,
            sent: 1.0004,
            done: 1.0015,
        };
        assert!((t.latency_ms() - 1.5).abs() < 1e-9);
        assert!((t.lateness_ms() - 0.4).abs() < 1e-9);
        // A stalled generator: the wait before sending counts as latency.
        let stalled = Timing {
            due: 2.0,
            sent: 2.010,
            done: 2.0105,
        };
        assert!((stalled.latency_ms() - 10.5).abs() < 1e-9);
        assert!((stalled.lateness_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(due_offset(0, 2000.0), Duration::ZERO);
        assert_eq!(due_offset(2000, 2000.0), Duration::from_secs(1));
        assert_eq!(due_offset(1, 4000.0), Duration::from_micros(250));
    }

    fn rung(lat: Vec<f64>) -> Rung {
        Rung {
            latencies_ms: lat,
            ..Rung::default()
        }
    }

    #[test]
    fn rung_fails_on_p99_shed_timeout_or_backlog() {
        let ok = rung(vec![1.0; 1000]);
        assert!(rung_passes(&ok, 2.0));

        let mut slow_tail = vec![1.0; 1000];
        for x in slow_tail.iter_mut().take(11) {
            *x = 3.0;
        }
        assert!(!rung_passes(&rung(slow_tail), 2.0), "p99 over the limit");

        let mut shed = ok.clone();
        shed.shed = 1;
        assert!(!rung_passes(&shed, 2.0));
        let mut timeout = ok.clone();
        timeout.timeouts = 1;
        assert!(!rung_passes(&timeout, 2.0));
        let mut failed = ok.clone();
        failed.errors = 1;
        assert!(!rung_passes(&failed, 2.0));

        // Latency climbing steadily from 0.2 ms to 1.9 ms: p99 is within
        // the limit, but the queue is growing.
        let growing: Vec<f64> = (0..1000).map(|i| 0.2 + 1.7 * i as f64 / 999.0).collect();
        assert!(stats::tail(&growing, 0.99).unwrap() <= 2.0);
        assert!(backlog_growing(&growing, 2.0));
        assert!(!rung_passes(&rung(growing), 2.0));

        // Too few samples to support a p99 never passes.
        assert!(!rung_passes(&rung(vec![1.0; 999]), 2.0));
    }

    #[test]
    fn windows_vote_and_report_medians() {
        // Three windows; one holds a stall burst (p99 over the limit).
        let mut lat = vec![1.0; 3 * stats::TAIL_WINDOW];
        for x in lat.iter_mut().skip(stats::TAIL_WINDOW).take(50) {
            *x = 9.0;
        }
        let r = rung(lat.clone());
        let w = windows(&r);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|w| w.latencies_ms.len() == stats::TAIL_WINDOW));
        assert!(
            !rung_passes(&r, 2.0),
            "the burst fails the phase as a whole"
        );
        assert!(majority_passes(&r, 2.0), "but only one window of three");
        assert_eq!(window_median(&r, |v| stats::tail(v, 0.99)), Some(1.0));

        // Two bursts out of three windows fail the majority.
        for x in lat.iter_mut().skip(2 * stats::TAIL_WINDOW).take(50) {
            *x = 9.0;
        }
        assert!(!majority_passes(&rung(lat), 2.0));

        // Shed requests are spread over the windows, never dropped.
        let mut shed = rung(vec![1.0; 3 * stats::TAIL_WINDOW]);
        shed.shed = 2;
        assert_eq!(windows(&shed).iter().map(|w| w.shed).sum::<u64>(), 2);
        assert!(
            !majority_passes(&shed, 2.0)
                || windows(&shed).iter().filter(|w| w.shed > 0).count() < 2
        );
    }

    #[test]
    fn ladder_rungs_stay_within_step() {
        let l = ladder(2000.0, 0.05, 20, 42);
        assert_eq!(l.len(), 63);
        assert_eq!(l[20], 2000.0);
        assert!(l[0] < 800.0 && *l.last().unwrap() > 15000.0);
        for w in l.windows(2) {
            assert!(w[1] / w[0] <= 1.051 && w[1] > w[0]);
        }
    }

    #[test]
    fn bisection_finds_the_highest_passing_rung() {
        let l = ladder(1000.0, 0.05, 0, 42);
        let limit = 4321.0;
        let mut probes = 0;
        let got = highest_passing(&l, 5, true, |r| {
            probes += 1;
            r <= limit
        });
        let want = l
            .iter()
            .copied()
            .filter(|&r| r <= limit)
            .fold(0.0, f64::max);
        assert_eq!(got, want);
        assert!(probes <= 6, "{probes} probes");
        // Known rung fails: search below it; nothing passes -> 0.
        assert_eq!(highest_passing(&l, 5, false, |_| false), 0.0);
        assert_eq!(highest_passing(&l, 5, false, |r| r < 1060.0), 1050.0);
    }
}
