//! Time the hypervisor steals from this machine's CPUs.
//!
//! On a shared host, other tenants come and go for tens of seconds at a
//! time. While they run, every wake-up and every kernel here slows down
//! (a 7% steal share was measured to stretch the wire p90 by 80%). So each
//! round of phases starts only once the host has been quiet for a moment,
//! within a bounded waiting budget per run; a background log samples the
//! steal share all through the run, so the serving figures can be read from
//! the windows the host left alone; and the training throughput is timed in
//! CPU time of its thread, which the kernel keeps free of stolen time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A phase may start once one sample interval saw at most this share of
/// CPU time stolen.
const QUIET_STEAL: f64 = 0.02;
const SAMPLE: Duration = Duration::from_millis(500);

/// Cumulative steal and total CPU time of the machine, in clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// Read the machine-wide CPU line of `/proc/stat`; `None` where it does
/// not exist.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some(CpuTimes {
        steal: *fields.get(7)?,
        total: fields.iter().sum(),
    })
}

/// Share of CPU time stolen between two readings (0 when unknown).
pub fn steal_share(from: Option<CpuTimes>, to: Option<CpuTimes>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) if b.total > a.total => {
            b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// CPU time of the calling thread in seconds (`/proc/thread-self/schedstat`).
/// The kernel leaves stolen time out of it. A running thread's figure moves
/// at scheduler ticks (a few milliseconds), so it suits stretches of seconds,
/// such as a training stage. 0 where the file does not exist.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// A background thread that samples the machine's CPU times every few
/// milliseconds, so any stretch of the run can be given its steal share
/// afterwards.
pub struct StealLog {
    samples: Arc<Mutex<Vec<(Instant, CpuTimes)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StealLog {
    /// Start sampling every `every`.
    pub fn start(every: Duration) -> Self {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                // The last sample is taken after `stop` was asked for, so
                // a stopped log covers everything up to that call.
                loop {
                    if let Some(t) = cpu_times() {
                        samples
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((Instant::now(), t));
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(every);
                }
            })
        };
        Self {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// Steal share between the last sample at or before `from` and the
    /// first at or after `to`; 0 when the log does not cover the stretch.
    pub fn share(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        let a = samples.iter().rev().find(|(t, _)| *t <= from);
        let b = samples.iter().find(|(t, _)| *t >= to);
        match (a, b) {
            (Some(a), Some(b)) => steal_share(Some(a.1), Some(b.1)),
            _ => 0.0,
        }
    }

    /// Stop the sampling thread and wait for it. Shares read afterwards
    /// cover every stretch that ended before this call.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for StealLog {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Waits for a quiet host before each phase, within one budget per run.
pub struct QuietGate {
    budget: Duration,
    waited: Duration,
}

impl QuietGate {
    /// A gate that waits at most `budget` in total.
    pub fn new(budget: Duration) -> Self {
        Self {
            budget,
            waited: Duration::ZERO,
        }
    }

    /// Sample the steal share until one interval is quiet or the budget is
    /// spent.
    pub fn wait(&mut self) {
        let started = Instant::now();
        loop {
            let before = cpu_times();
            std::thread::sleep(SAMPLE);
            let quiet = before.is_none() || steal_share(before, cpu_times()) <= QUIET_STEAL;
            if quiet || self.waited + started.elapsed() >= self.budget {
                break;
            }
        }
        self.waited += started.elapsed();
    }

    /// Total time spent waiting so far.
    pub fn waited(&self) -> Duration {
        self.waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        let a = Some(CpuTimes {
            steal: 10,
            total: 1_000,
        });
        let b = Some(CpuTimes {
            steal: 30,
            total: 1_400,
        });
        assert_eq!(steal_share(a, b), 0.05);
        assert_eq!(steal_share(b, a), 0.0);
        assert_eq!(steal_share(None, b), 0.0);
    }

    #[test]
    fn the_steal_log_covers_only_what_it_sampled_and_stops() {
        let before = Instant::now();
        let mut log = StealLog::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(50));
        let inside = Instant::now() - Duration::from_millis(30);
        let share = log.share(inside, inside + Duration::from_millis(10));
        assert!((0.0..=1.0).contains(&share));
        // Nothing was sampled before the log started.
        assert_eq!(log.share(before, before + Duration::from_millis(1)), 0.0);
        let last = Instant::now();
        log.stop();
        assert!(log.thread.is_none());
        // A stopped log covers what ended before `stop`.
        let samples = log.samples.lock().unwrap();
        assert!(samples.last().is_some_and(|(t, _)| *t >= last));
    }

    #[test]
    fn thread_cpu_time_grows_with_work_and_not_with_sleep() {
        let t0 = thread_cpu_s();
        std::thread::sleep(Duration::from_millis(50));
        let t1 = thread_cpu_s();
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let t2 = thread_cpu_s();
        assert!(t1 - t0 < 0.02, "sleeping used {} s", t1 - t0);
        assert!(t2 - t1 > 0.0, "busy work used no CPU time");
    }

    #[test]
    fn the_gate_never_waits_past_its_budget() {
        let mut gate = QuietGate::new(Duration::from_millis(300));
        for _ in 0..3 {
            gate.wait();
        }
        // Each wait takes at least one sample; once the budget is spent the
        // gate stops waiting for quiet.
        assert!(gate.waited() < Duration::from_millis(300) + 4 * SAMPLE);
    }
}
