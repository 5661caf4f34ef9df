//! The open-loop generator: requests fall due at fixed intervals whatever
//! the server is doing, and each is timed from when it was due, so a
//! stall charges its wait to every request queued behind it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Fixed-interval arrivals: request `i` is due `i / rate` seconds after
/// the trial starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    interval_ns: f64,
    len: usize,
}

impl Schedule {
    /// `rate_per_s` arrivals per second for `duration`.
    pub fn new(rate_per_s: f64, duration: Duration) -> Self {
        let len = (rate_per_s * duration.as_secs_f64()).round().max(1.0) as usize;
        Self {
            interval_ns: 1e9 / rate_per_s,
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Due time of request `i`, in nanoseconds after the start.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * self.interval_ns).round() as u64
    }
}

/// What one open-loop trial observed.
#[derive(Debug)]
pub struct Trial<T> {
    /// Requests handed to the server.
    pub sent: usize,
    /// Requests the server refused at submission.
    pub refused: usize,
    /// How late the generator sent each request, in nanoseconds after its
    /// due time.
    pub late_ns: Vec<u64>,
    /// Per completed request: its index and the nanoseconds from its due
    /// time to the moment the generator saw it complete.
    pub latency_ns: Vec<(usize, u64)>,
    /// The completed requests, in completion order.
    pub completed: Vec<(usize, T)>,
    /// The trial stopped sending early because the oldest outstanding
    /// request was older than the abort limit (a runaway backlog).
    pub aborted: bool,
}

/// Run one trial from a single thread. `submit(i)` hands request `i` to
/// the server and returns its handle, or `None` when the server refused
/// it; `done(&handle)` polls without blocking. Between due times the
/// generator spins on the oldest outstanding request, so completions are
/// seen within one poll of happening (requests complete in order with a
/// single FIFO worker). Sending stops early once the oldest outstanding
/// request has waited `abort_after`; everything sent is still collected.
pub fn run_open_loop<T>(
    schedule: &Schedule,
    abort_after: Duration,
    mut submit: impl FnMut(usize) -> Option<T>,
    mut done: impl FnMut(&T) -> bool,
) -> Trial<T> {
    let abort_ns = abort_after.as_nanos() as u64;
    let mut trial = Trial {
        sent: 0,
        refused: 0,
        late_ns: Vec::with_capacity(schedule.len()),
        latency_ns: Vec::with_capacity(schedule.len()),
        completed: Vec::with_capacity(schedule.len()),
        aborted: false,
    };
    let mut outstanding: VecDeque<(usize, T)> = VecDeque::new();
    let start = Instant::now();
    let mut next = 0;
    loop {
        let now = start.elapsed().as_nanos() as u64;
        let sending = next < schedule.len() && !trial.aborted;
        if sending && schedule.due_ns(next) <= now {
            trial.late_ns.push(now - schedule.due_ns(next));
            match submit(next) {
                Some(handle) => {
                    outstanding.push_back((next, handle));
                    trial.sent += 1;
                }
                None => trial.refused += 1,
            }
            next += 1;
            continue;
        }
        match outstanding.front() {
            Some((i, handle)) => {
                if done(handle) {
                    let seen = start.elapsed().as_nanos() as u64;
                    trial
                        .latency_ns
                        .push((*i, seen.saturating_sub(schedule.due_ns(*i))));
                    trial
                        .completed
                        .push(outstanding.pop_front().expect("front exists"));
                } else if sending && now.saturating_sub(schedule.due_ns(*i)) > abort_ns {
                    trial.aborted = true;
                }
            }
            None if !sending => break,
            None => std::hint::spin_loop(),
        }
    }
    trial
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn schedule_spaces_requests_evenly() {
        let s = Schedule::new(4_000.0, Duration::from_millis(500));
        assert_eq!(s.len(), 2_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 250_000);
        assert_eq!(s.due_ns(1_999), 499_750_000);
    }

    #[test]
    fn instant_server_sees_every_request_on_time() {
        let s = Schedule::new(20_000.0, Duration::from_millis(20));
        let trial = run_open_loop(&s, Duration::from_secs(1), Some, |_| true);
        assert_eq!(trial.sent, s.len());
        assert_eq!(trial.completed.len(), s.len());
        assert!(!trial.aborted);
        // Completions are collected in due order, each timed from its due
        // time, so latency ≥ lateness for every request.
        for (k, &(i, lat)) in trial.latency_ns.iter().enumerate() {
            assert_eq!(i, k);
            assert!(lat >= trial.late_ns[i]);
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // 10k/s: one request every 100 µs. Request 5's submission stalls
        // for 3 ms, so requests 6..=34 fall due during the stall and are
        // sent late; the schedule does not slip.
        let s = Schedule::new(10_000.0, Duration::from_millis(10));
        let trial = run_open_loop(
            &s,
            Duration::from_secs(1),
            |i| {
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                Some(i)
            },
            |_| true,
        );
        assert_eq!(trial.sent, 100);
        // Request 6 fell due 0.6 ms in and could only go out after the
        // stall ended, ≥ 3.5 ms in: it is charged the wait.
        assert!(trial.late_ns[6] >= 2_500_000, "{}", trial.late_ns[6]);
        // The requests queued behind the stall go out back to back while
        // their due times keep advancing, so their lateness shrinks: the
        // generator catches up instead of shifting the schedule.
        assert!(
            trial.late_ns[6] >= trial.late_ns[30] + 2_000_000,
            "{} vs {}",
            trial.late_ns[6],
            trial.late_ns[30]
        );
        // Request 5 itself completed ≥ 3 ms after it was due.
        let (_, lat5) = trial.latency_ns[5];
        assert!(lat5 >= 3_000_000);
    }

    #[test]
    fn refusals_and_runaway_backlogs_are_reported() {
        let s = Schedule::new(10_000.0, Duration::from_millis(50));
        let trial = run_open_loop(
            &s,
            Duration::from_secs(1),
            |i| (i % 2 == 0).then_some(i),
            |_| true,
        );
        assert_eq!(trial.refused, 250);
        assert_eq!(trial.sent, 250);

        // A server that stalls for about 5 ms: the generator stops sending
        // once the oldest request is 2 ms old, then drains what it sent.
        let polls = Cell::new(0u32);
        let trial = run_open_loop(&s, Duration::from_millis(2), Some, |_| {
            polls.set(polls.get() + 1);
            if polls.get() < 100 {
                std::thread::sleep(Duration::from_micros(50));
                false
            } else {
                true
            }
        });
        assert!(trial.aborted);
        assert!(trial.sent < s.len());
        assert_eq!(trial.completed.len(), trial.sent);
    }
}
