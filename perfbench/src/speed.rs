//! Host-speed normalization of wall times.
//!
//! The benchmark runs on shared hosts whose speed moves in spells of
//! seconds to minutes: on a shared 2-core host one fixed 59 ms planner
//! call took 55–150 ms within a minute, so raw walls moved by 0.2–0.5 of
//! their median between identical runs. Timing a fixed calibration kernel
//! between operations measures the host's current speed, and each
//! operation's wall is scaled to what it would read at a reference speed.
//!
//! The kernel is std-only benchmark code (a hash-map update loop over a
//! fixed key sequence into a freshly allocated table of about 400 KiB),
//! so no change to the program can move it. Its slowdown tracks the
//! planner's: over 150 s on that host, 10 s medians of a full-size mmt@16
//! search moved by 0.18 (quartile spread over median) and of dlrm@32 by
//! 0.21, while their ratio to the time of this kernel (run twice as long)
//! moved by 0.035 and 0.044. A pure floating-point loop tracked far worse
//! (0.16 and 0.18). The kernel must run on the threads that do the timed
//! work: see [`HostSpeed::set_threads`].

use crate::report::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::thread;
use std::time::{Duration, Instant};

/// Kernel time, in ms, that defines the reference speed; a normalized
/// wall reads what the wall would at that speed. A round figure near the
/// kernel's time on that 2-core host (5-12 ms across its speed states);
/// it scales every normalized time by the same constant.
pub const REFERENCE_MS: f64 = 5.0;
/// Distinct keys of the kernel's table.
const KEYS: u64 = 1 << 14;
/// Table updates per kernel run.
const UPDATES: u64 = 200_000;
/// Least time between two kernel runs; [`HostSpeed::tick`] does nothing
/// sooner.
const INTERVAL: Duration = Duration::from_millis(100);
/// Kernel runs behind the current speed: its median resists one
/// preempted run.
const WINDOW: usize = 3;

type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The host's current speed, from the latest kernel runs.
pub struct HostSpeed {
    threads: usize,
    recent: Vec<f64>,
    last: Instant,
    /// Every kernel time, in ms.
    history: Vec<f64>,
}

impl HostSpeed {
    /// A single-thread calibration; runs the kernel [`WINDOW`] times.
    pub fn new() -> Self {
        let mut speed = HostSpeed {
            threads: 1,
            recent: Vec::with_capacity(WINDOW),
            last: Instant::now(),
            history: Vec::new(),
        };
        for _ in 0..WINDOW {
            speed.sample();
        }
        speed
    }

    /// Calibrates for timed work that keeps `threads` threads busy at
    /// once: from now on the kernel runs on that many threads together
    /// and records their mean time, so it sees the state of as many cores.
    /// Restarts the window with [`WINDOW`] runs.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
        self.recent.clear();
        for _ in 0..WINDOW {
            self.sample();
        }
    }

    /// Runs the kernel once on each calibrated thread and records the mean
    /// time.
    pub fn sample(&mut self) {
        let ms = if self.threads == 1 {
            kernel_ms()
        } else {
            thread::scope(|scope| {
                let runs: Vec<_> = (0..self.threads).map(|_| scope.spawn(kernel_ms)).collect();
                runs.into_iter()
                    .map(|r| r.join().expect("calibration thread panicked"))
                    .sum::<f64>()
                    / self.threads as f64
            })
        };
        self.last = Instant::now();
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ms);
        self.history.push(ms);
    }

    /// Runs the kernel when [`INTERVAL`] has passed since its last run.
    /// Call it before and after each timed operation.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Factor that turns a wall measured now into a reference-speed wall
    /// (below 1 while the host is slower than the reference).
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / median(&self.recent)
    }

    /// The factor at the run's median kernel time (over every thread
    /// count), and the kernel runs behind it.
    pub fn run_scale(&self) -> (f64, usize) {
        (REFERENCE_MS / median(&self.history), self.history.len())
    }
}

/// One run of the kernel, in ms.
fn kernel_ms() -> f64 {
    let t0 = Instant::now();
    let mut table = Table::with_capacity_and_hasher(KEYS as usize, Default::default());
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KEYS;
        *table.entry(key).or_insert(0) += i;
        acc ^= table.get(&(key ^ 1)).copied().unwrap_or(0);
    }
    std::hint::black_box(acc);
    drop(table);
    t0.elapsed().as_secs_f64() * 1e3
}
