//! Metric collection, summary statistics and the result line.
//!
//! Every run prints a human-readable table (metric, value, unit, sample
//! count, meaning) followed by one JSON object on the last line of
//! standard output. With `--trace 0` the JSON carries the end-to-end
//! metrics, with `--trace 1` the per-layer metrics; the names match the
//! lists in `BENCHMARK.json`.

use crate::speed::HostSpeed;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, reported by every workload. The meaning of the
/// operation behind `p50_ms`/`p99_ms` and of the work counted by
/// `throughput_per_s` is per workload (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 when it is a count or a ratio).
    pub samples: usize,
    /// What the number is on this workload.
    pub note: String,
}

/// Everything a run reports.
pub struct Report {
    workload: &'static str,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    /// Workload-level figures named after the quantities they stand for
    /// (plan_sweep_s, serve_p99_ms, error_rate, ...): printed, not in the
    /// JSON line.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            end_to_end: Vec::new(),
            layers: Vec::new(),
            extra: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records one attempted operation; `Err` counts it as failed and
    /// keeps the first distinct reasons for the printout.
    pub fn outcome(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.problems.len() < 50 && !self.problems.contains(&why) {
                self.problems.push(why);
            }
        }
    }

    pub fn end_to_end(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a declared end-to-end metric"));
        self.end_to_end.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.into(),
        });
    }

    pub fn layer(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.layers.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: 0,
            note: String::new(),
        });
    }

    pub fn extra(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.extra.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.into(),
        });
    }

    /// Puts the per-layer metrics in `declared` order, adding a 0 for each
    /// layer this workload does not exercise.
    ///
    /// # Panics
    ///
    /// When a workload reported a layer metric that is not declared.
    pub fn fill_layers(&mut self, declared: &[(String, &'static str)]) {
        for m in &self.layers {
            assert!(
                declared.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "undeclared per-layer metric {} [{}]",
                m.name,
                m.unit
            );
        }
        let mut reported = std::mem::take(&mut self.layers);
        self.layers = declared
            .iter()
            .map(
                |(name, unit)| match reported.iter().position(|m| m.name == *name) {
                    Some(i) => reported.swap_remove(i),
                    None => Metric {
                        name: name.clone(),
                        unit,
                        value: 0.0,
                        samples: 0,
                        note: "not exercised by this workload".into(),
                    },
                },
            )
            .collect();
    }

    /// Prints the table and the result line. `trace` selects which metric
    /// list the JSON carries.
    pub fn print(&self, trace: bool) {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("workload {}", self.workload);
        let sections: [(&str, &[Metric]); 3] = [
            ("end-to-end", &self.end_to_end),
            ("workload figures", &self.extra),
            ("per-layer", &self.layers),
        ];
        for (title, metrics) in sections {
            if metrics.is_empty() {
                continue;
            }
            println!("-- {title}");
            for m in metrics {
                let samples = if m.samples > 0 {
                    format!("n={}", m.samples)
                } else {
                    String::new()
                };
                println!(
                    "  {:<34} {:>16.6} {:<6} {:<8} {}",
                    m.name, m.value, m.unit, samples, m.note
                );
            }
        }
        println!(
            "  {:<34} {:>16.6} {:<6} n={}",
            "error_rate", error_rate, "ratio", self.attempted
        );
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
        let metrics = if trace {
            &self.layers
        } else {
            &self.end_to_end
        };
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Per-cell walls (seconds, at the reference host speed) of a closed loop
/// over a fixed list of cells.
pub struct Passes {
    /// Normalized walls of each cell's successful runs; NaN for a cell
    /// that never succeeded.
    pub walls: Vec<Vec<f64>>,
    /// Cells run, failed ones included.
    pub cells_run: usize,
}

impl Passes {
    /// One pass over every cell: the sum of per-cell median walls.
    pub fn pass_s(&self) -> f64 {
        self.walls.iter().map(|w| median(w)).sum()
    }

    /// Each cell's median wall, in ms.
    pub fn cell_medians_ms(&self) -> Vec<f64> {
        self.walls.iter().map(|w| median(w) * 1e3).collect()
    }

    /// The fewest runs any cell had.
    pub fn min_runs(&self) -> usize {
        self.walls.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Runs passes over `n` cells, each pass in a fresh seeded order, until
/// `seconds` have passed and every cell has run at least once.
/// `run_cell(i)` returns cell `i`'s wall in seconds, which is scaled to
/// the reference host speed; its outcome is recorded in `out`, and a
/// failed run leaves no sample.
pub fn passes(
    n: usize,
    rng: &mut Rng,
    seconds: f64,
    speed: &mut HostSpeed,
    out: &mut Report,
    mut run_cell: impl FnMut(usize) -> Result<f64, String>,
) -> Passes {
    let mut walls = vec![Vec::new(); n];
    let mut ran = vec![false; n];
    let mut cells_run = 0;
    let start = Instant::now();
    'passes: loop {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for i in order {
            if ran.iter().all(|&r| r) && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            ran[i] = true;
            cells_run += 1;
            speed.tick();
            let result = run_cell(i);
            speed.tick();
            if let Ok(wall) = result {
                walls[i].push(wall * speed.scale());
            }
            out.outcome(result.map(|_| ()));
        }
    }
    for w in &mut walls {
        if w.is_empty() {
            w.push(f64::NAN);
        }
    }
    Passes { walls, cells_run }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
