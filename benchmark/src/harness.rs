//! What every workload's measured loop shares: windows closed by the worker
//! itself, a stop flag set from a drop guard, and a watchdog.
//!
//! A run's value is taken from the better half of its windows (see
//! `stats::good_half_mean`). The worker closes its own windows (it reads the clock for every 32nd
//! latency sample anyway), so no third thread wakes at a boundary and the
//! process never has more runnable threads than the workload states.

use crate::stats::{good_half_mean, Hist};
use crate::sys;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Durable workloads take a durability cut (`sync`) at every this-many-th
/// window boundary: twice a second.
pub const SYNC_EVERY_WINDOWS: usize = 5;

/// Shared by the workers of one measured phase; every worker runs to
/// `t0 + count * window` on the same absolute deadlines.
#[derive(Clone, Copy)]
pub struct WindowPlan {
    pub t0: Instant,
    pub window: Duration,
    pub count: usize,
}

impl WindowPlan {
    pub fn starting_now(window: Duration, count: usize) -> Self {
        Self {
            t0: Instant::now(),
            window,
            count,
        }
    }

    /// A plan whose first deadline never comes: fixed-count phases (warm-up)
    /// end on their op count.
    pub fn unbounded() -> Self {
        Self::starting_now(Duration::from_secs(86_400), 1)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Win {
    pub dur_ns: u64,
    pub ops: u64,
    /// Process CPU time spent during the window (read by every thread; the
    /// summary uses the leader's).
    pub cpu_ns: u64,
    /// Median latency of the ops this worker timed during the window.
    pub p50_ns: f64,
}

pub struct Pacer {
    plan: WindowPlan,
    next: usize,
    start: Instant,
    start_ops: u64,
    start_cpu: u64,
    /// The calling thread is a load generator: its CPU time is not the
    /// system's and is left out of the windows' CPU time.
    generator: bool,
    pub wins: Vec<Win>,
    /// Every closed window's latencies.
    pub hist: Hist,
}

impl Pacer {
    fn system_cpu_ns(generator: bool) -> u64 {
        let own = if generator { sys::thread_cpu_ns() } else { 0 };
        sys::process_cpu_ns() - own
    }

    pub fn start(plan: WindowPlan, generator: bool) -> Self {
        Self {
            plan,
            next: 1,
            start: Instant::now(),
            start_ops: 0,
            start_cpu: Self::system_cpu_ns(generator),
            generator,
            wins: Vec::with_capacity(plan.count),
            hist: Hist::default(),
        }
    }

    /// Whether the window about to be closed ends with a durability cut.
    pub fn sync_due(&self) -> bool {
        (self.wins.len() + 1).is_multiple_of(SYNC_EVERY_WINDOWS)
    }

    #[inline]
    pub fn due(&self, now: Instant) -> bool {
        now >= self.plan.t0 + self.plan.window * self.next as u32
    }

    /// Closes the current window at "now" with `ops` done since the phase
    /// began; true once the last planned window is closed. A worker that was
    /// descheduled across several deadlines closes one long window and skips
    /// the deadlines it missed, so no window is empty.
    pub fn close(&mut self, ops: u64, window_hist: &mut Hist) -> bool {
        self.close_at(Instant::now(), ops, window_hist)
    }

    fn close_at(&mut self, now: Instant, ops: u64, window_hist: &mut Hist) -> bool {
        let cpu = Self::system_cpu_ns(self.generator);
        self.wins.push(Win {
            dur_ns: (now - self.start).as_nanos() as u64,
            ops: ops - self.start_ops,
            cpu_ns: cpu - self.start_cpu,
            p50_ns: window_hist.quantile(0.5),
        });
        self.hist.merge(window_hist);
        window_hist.clear();
        self.start = now;
        self.start_ops = ops;
        self.start_cpu = cpu;
        while self.next <= self.plan.count && self.due(now) {
            self.next += 1;
        }
        self.next > self.plan.count
    }
}

/// Sets the phase's stop flag when a worker unwinds, so a failed check ends
/// the other workers at their next batch instead of after the full run. A
/// worker that finishes normally leaves the flag alone: its peers end on the
/// same deadline and would otherwise lose their last window.
pub struct StopGuard<'a>(pub &'a AtomicBool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Ends the process with a non-zero code, naming the workload, when a phase
/// overruns three times its time budget. Disarmed by dropping it.
pub struct Watchdog {
    disarm: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn arm(workload: &str, phase: &str, budget: Duration) -> Self {
        let (disarm, rx) = mpsc::channel::<()>();
        let limit = budget * 3;
        let what = format!("{workload} ({phase})");
        let thread = std::thread::spawn(move || {
            if rx.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                eprintln!(
                    "benchmark: workload {what} exceeded 3x its time budget ({limit:?}); aborting"
                );
                std::process::exit(3);
            }
        });
        Self {
            disarm: Some(disarm),
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.disarm.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What one worker brings back from a phase.
pub struct WorkerOut {
    pub wins: Vec<Win>,
    pub hist: Hist,
    pub attempted: u64,
    pub failed: u64,
    /// CPU time of this thread over the phase.
    pub thread_cpu_ns: u64,
}

/// One measured phase of a workload, all workers merged.
pub struct Measured {
    pub rate: Vec<f64>,
    pub cpu_us_per_op: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub hist: Hist,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub process_cpu_ns: u64,
    /// Per worker, in spawn order.
    pub thread_cpu_ns: Vec<u64>,
}

impl Measured {
    /// Worker 0 is the leader: its CPU readings are the windows' CPU time.
    pub fn merge(workers: Vec<WorkerOut>) -> Self {
        let n = workers.iter().map(|w| w.wins.len()).min().unwrap_or(0);
        let mut rate = Vec::with_capacity(n);
        let mut cpu_us_per_op = Vec::with_capacity(n);
        let mut p50_us = Vec::with_capacity(n);
        for i in 0..n {
            let ops: u64 = workers.iter().map(|w| w.wins[i].ops).sum();
            rate.push(
                workers
                    .iter()
                    .map(|w| w.wins[i].ops as f64 * 1e9 / w.wins[i].dur_ns.max(1) as f64)
                    .sum(),
            );
            cpu_us_per_op.push(workers[0].wins[i].cpu_ns as f64 / 1e3 / ops.max(1) as f64);
            p50_us.push(
                workers.iter().map(|w| w.wins[i].p50_ns).sum::<f64>() / workers.len() as f64 / 1e3,
            );
        }
        let mut hist = Hist::default();
        for w in &workers {
            hist.merge(&w.hist);
        }
        Self {
            rate,
            cpu_us_per_op,
            p50_us,
            ops: workers
                .iter()
                .flat_map(|w| w.wins.iter().map(|x| x.ops))
                .sum(),
            attempted: workers.iter().map(|w| w.attempted).sum(),
            failed: workers.iter().map(|w| w.failed).sum(),
            process_cpu_ns: workers[0].wins.iter().map(|x| x.cpu_ns).sum(),
            thread_cpu_ns: workers.iter().map(|w| w.thread_cpu_ns).collect(),
            hist,
        }
    }

    /// The run's values: see [`good_half_mean`] for why not the median window.
    pub fn ops_per_s(&self) -> f64 {
        good_half_mean(&self.rate, true)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        good_half_mean(&self.cpu_us_per_op, false)
    }

    pub fn p50_us(&self) -> f64 {
        good_half_mean(&self.p50_us, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(ops: u64, ms: u64, cpu_ms: u64) -> Win {
        Win {
            dur_ns: ms * 1_000_000,
            ops,
            cpu_ns: cpu_ms * 1_000_000,
            p50_ns: 0.0,
        }
    }

    fn worker(wins: Vec<Win>) -> WorkerOut {
        WorkerOut {
            wins,
            hist: Hist::default(),
            attempted: 0,
            failed: 0,
            thread_cpu_ns: 0,
        }
    }

    #[test]
    fn windows_sum_threads_and_the_run_value_skips_a_burst() {
        // Two threads, three windows; the second window is hit by a burst.
        let a = worker(vec![
            win(500, 500, 900),
            win(100, 500, 400),
            win(520, 500, 950),
        ]);
        let b = worker(vec![win(500, 500, 0), win(120, 500, 0), win(480, 500, 0)]);
        let m = Measured::merge(vec![a, b]);
        assert_eq!(m.rate, vec![2000.0, 440.0, 2000.0]);
        assert_eq!(m.ops_per_s(), 2000.0);
        assert_eq!(m.cpu_us_per_op(), 950.0);
        // CPU per op: the leader's process-CPU reading over both threads' ops.
        assert_eq!(m.cpu_us_per_op[0], 900.0);
        assert_eq!(m.ops, 2220);
        assert_eq!(m.process_cpu_ns, 2_250_000_000);
    }

    // The pacer tests pass the clock in: on a shared host a sleeping test
    // thread wakes late by more than any window a test can afford.
    #[test]
    fn pacer_closes_the_planned_number_of_windows() {
        let plan = WindowPlan::starting_now(Duration::from_millis(5), 3);
        let mut p = Pacer::start(plan, false);
        let mut ops = 0;
        for us in (0..).step_by(100) {
            let now = plan.t0 + Duration::from_micros(us);
            ops += 1;
            if p.due(now) && p.close_at(now, ops, &mut Hist::default()) {
                break;
            }
        }
        assert_eq!(p.wins.len(), 3);
        assert_eq!(p.wins.iter().map(|w| w.ops).sum::<u64>(), ops);
        assert!(p.wins.iter().all(|w| w.ops > 0));
    }

    #[test]
    fn pacer_skips_deadlines_it_slept_through() {
        let plan = WindowPlan::starting_now(Duration::from_millis(2), 4);
        let mut p = Pacer::start(plan, false);
        let late = plan.t0 + Duration::from_millis(7);
        assert!(p.due(late));
        // One long window stands for the three missed deadlines.
        assert!(!p.close_at(late, 10, &mut Hist::default()));
        let end = plan.t0 + Duration::from_millis(9);
        assert!(p.close_at(end, 20, &mut Hist::default()));
        assert_eq!(p.wins.len(), 2);
    }

    #[test]
    fn stop_guard_sets_the_flag_on_unwind() {
        let stop = AtomicBool::new(false);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = StopGuard(&stop);
            panic!("worker failed");
        }));
        assert!(r.is_err() && stop.load(Ordering::Acquire));
        let quiet = AtomicBool::new(false);
        drop(StopGuard(&quiet));
        assert!(!quiet.load(Ordering::Acquire));
    }

    #[test]
    fn disarmed_watchdog_lets_the_process_live() {
        drop(Watchdog::arm("lib-read", "test", Duration::from_secs(3600)));
    }
}
