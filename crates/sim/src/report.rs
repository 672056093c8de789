//! Simulation results and errors.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use gp_cluster::DeviceId;
use gp_cost::Pass;
use gp_sched::StageId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One executed task instance on the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpan {
    /// The device (replica) that ran the task.
    pub device: DeviceId,
    /// The stage the task belongs to.
    pub stage: StageId,
    /// Stage-local micro-batch index.
    pub mb: u32,
    /// Forward or backward.
    pub pass: Pass,
    /// Start time, seconds from iteration start.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// Metrics of one simulated training iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Makespan of the iteration (including gradient allreduce), seconds.
    pub iteration_time: f64,
    /// Training throughput in samples per second (`B / iteration_time`).
    pub throughput: f64,
    /// Mean fraction of time devices spent computing.
    pub utilization: f64,
    /// `1 - utilization`: the pipeline-bubble share the paper's warm-up /
    /// cool-down analysis is about.
    pub bubble_fraction: f64,
    /// Time until every stage has started working (the warm-up phase).
    pub warmup_time: f64,
    /// Busy seconds per device.
    pub per_device_busy: Vec<f64>,
    /// Peak memory per device in bytes (parameters + optimizer states +
    /// stashed activations).
    pub peak_memory_bytes: Vec<u64>,
    /// All executed tasks, sorted by the total key
    /// `(start, device, stage, mb, pass)`: start time first, ties broken
    /// by device id, then stage id, then micro-batch, then forward before
    /// backward. The key is unique per span, so the order is fully
    /// determined by the strategy.
    pub timeline: Vec<TaskSpan>,
    /// The mini-batch size the iteration processed.
    pub mini_batch: u64,
}

impl SimReport {
    /// The highest peak memory across devices.
    pub fn max_peak_memory(&self) -> u64 {
        self.peak_memory_bytes.iter().copied().max().unwrap_or(0)
    }

    /// A 64-bit FNV-1a digest over every field of the report, bit-exact:
    /// scalar metrics enter as their IEEE-754 bit patterns and the whole
    /// timeline is folded span by span. Two reports have equal fingerprints
    /// iff they are byte-identical (modulo hash collisions), which makes
    /// this the drift detector for golden tests and the `sim_profile`
    /// smoke: any behaviour change in the engine — timing, memory
    /// accounting, span ordering — moves the fingerprint.
    ///
    /// # Examples
    ///
    /// ```
    /// use gp_cluster::Cluster;
    /// use gp_ir::zoo::{self, MmtConfig};
    /// use gp_partition::{GraphPipePlanner, Planner};
    ///
    /// let model = zoo::mmt(&MmtConfig::tiny());
    /// let cluster = Cluster::summit_like(4);
    /// let plan = GraphPipePlanner::new().plan(&model, &cluster, 32)?;
    /// let a = gp_sim::simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule)?;
    /// let b = gp_sim::simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule)?;
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(FNV_PRIME);
        };
        mix(self.mini_batch);
        mix(self.per_device_busy.len() as u64);
        mix(self.iteration_time.to_bits());
        mix(self.throughput.to_bits());
        mix(self.utilization.to_bits());
        mix(self.bubble_fraction.to_bits());
        mix(self.warmup_time.to_bits());
        for &busy in &self.per_device_busy {
            mix(busy.to_bits());
        }
        for &peak in &self.peak_memory_bytes {
            mix(peak);
        }
        mix(self.timeline.len() as u64);
        for span in &self.timeline {
            mix(span.device.0 as u64);
            mix(span.stage.0 as u64);
            mix(span.mb as u64);
            mix(span.pass as u64);
            mix(span.start.to_bits());
            mix(span.end.to_bits());
        }
        h
    }
}

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The task orders are mutually inconsistent: no device can make
    /// progress although tasks remain.
    Deadlock {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks in the iteration.
        total: usize,
    },
    /// The schedule does not provide a task order for every stage.
    MissingSchedule {
        /// Stages in the strategy.
        stages: usize,
        /// Task orders provided.
        schedules: usize,
    },
    /// The iteration has more task instances than the engine's 32-bit
    /// task ids can name.
    TooManyTasks {
        /// Task instances in the iteration.
        tasks: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { completed, total } => write!(
                f,
                "pipeline deadlocked after {completed}/{total} tasks; \
                 the schedule violates cross-stage dependencies"
            ),
            SimError::MissingSchedule { stages, schedules } => write!(
                f,
                "schedule covers {schedules} stages but the strategy has {stages}"
            ),
            SimError::TooManyTasks { tasks } => write!(
                f,
                "the iteration has {tasks} tasks; the simulator indexes at most {}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for SimError {}
