//! Per-stage task orders (the micro-batch schedules `Pi_i` of §3/§6).
//!
//! `ScheduleTask` in Algorithm 2 "adopts greedy scheduling that schedules
//! backward passes as early as possible". Concretely each stage runs a
//! kFkB order: `l` warm-up forwards, then alternating groups of `k`
//! backwards and `k` forwards, then the remaining backwards — with `l`
//! chosen as the minimal in-flight count from
//! [`crate::inflight::assign_in_flight`].
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::inflight::InFlightTable;
use crate::stage::{StageGraph, StageId};
use gp_cost::Pass;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// One forward or backward pass of one micro-batch on one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Task {
    /// Forward or backward.
    pub pass: Pass,
    /// Micro-batch index within the mini-batch (stage-local numbering).
    pub mb: u32,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pass {
            Pass::Forward => write!(f, "F{}", self.mb + 1),
            Pass::Backward => write!(f, "B{}", self.mb + 1),
        }
    }
}

/// Errors raised when a task order violates condition C4 of §3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Forward passes are out of order or duplicated.
    ForwardOrder(StageId),
    /// Backward passes are out of order or duplicated.
    BackwardOrder(StageId),
    /// A backward pass precedes its own forward pass.
    BackwardBeforeForward(StageId, u32),
    /// The schedule does not contain exactly `B / b` passes per direction.
    WrongTaskCount(StageId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::ForwardOrder(s) => {
                write!(f, "stage {s}: forward passes out of order (C4)")
            }
            ScheduleError::BackwardOrder(s) => {
                write!(f, "stage {s}: backward passes out of order (C4)")
            }
            ScheduleError::BackwardBeforeForward(s, mb) => {
                write!(
                    f,
                    "stage {s}: backward of micro-batch {mb} precedes its forward (C4)"
                )
            }
            ScheduleError::WrongTaskCount(s) => {
                write!(f, "stage {s}: wrong number of scheduled passes")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The ordered task list of one stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSchedule {
    /// The stage this order belongs to.
    pub stage: StageId,
    /// Warm-up length `l` in micro-batches.
    pub warmup: u64,
    /// The complete ordered pass list for one training iteration.
    pub tasks: Vec<Task>,
}

impl StageSchedule {
    /// Builds the kFkB order for a stage with `num_micro_batches` tasks per
    /// direction, warm-up `warmup` (clamped to feasible values) and group
    /// size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `num_micro_batches == 0` or `k == 0`.
    pub fn kfkb(stage: StageId, num_micro_batches: u64, warmup: u64, k: u64) -> Self {
        assert!(num_micro_batches > 0, "need at least one micro-batch");
        assert!(k > 0, "kFkB requires k >= 1");
        let m = num_micro_batches;
        let l = warmup.max(k).min(m);
        let mut tasks = Vec::with_capacity(2 * m as usize);
        for mb in 0..l {
            tasks.push(Task {
                pass: Pass::Forward,
                mb: mb as u32,
            });
        }
        let (mut next_f, mut next_b) = (l, 0u64);
        while next_b < m {
            for _ in 0..k {
                if next_b < next_f && next_b < m {
                    tasks.push(Task {
                        pass: Pass::Backward,
                        mb: next_b as u32,
                    });
                    next_b += 1;
                }
            }
            for _ in 0..k {
                if next_f < m {
                    tasks.push(Task {
                        pass: Pass::Forward,
                        mb: next_f as u32,
                    });
                    next_f += 1;
                }
            }
        }
        StageSchedule {
            stage,
            warmup: l,
            tasks,
        }
    }

    /// Peak number of in-flight micro-batches over the whole order
    /// (forwards executed minus backwards executed, maximized over
    /// prefixes).
    pub fn peak_in_flight_micro_batches(&self) -> u64 {
        let mut cur: i64 = 0;
        let mut peak: i64 = 0;
        for t in &self.tasks {
            match t.pass {
                Pass::Forward => cur += 1,
                Pass::Backward => cur -= 1,
            }
            peak = peak.max(cur);
        }
        peak as u64
    }

    /// Peak in-flight samples (micro-batches times micro-batch size).
    pub fn peak_in_flight_samples(&self, micro_batch: u64) -> u64 {
        self.peak_in_flight_micro_batches() * micro_batch
    }

    /// Checks condition C4: forwards in order, backwards in order, and each
    /// forward before its backward; exactly `num_micro_batches` of each.
    ///
    /// # Errors
    ///
    /// Returns the first violated clause as a [`ScheduleError`].
    pub fn validate_c4(&self, num_micro_batches: u64) -> Result<(), ScheduleError> {
        let mut next_f = 0u32;
        let mut next_b = 0u32;
        for t in &self.tasks {
            match t.pass {
                Pass::Forward => {
                    if t.mb != next_f {
                        return Err(ScheduleError::ForwardOrder(self.stage));
                    }
                    next_f += 1;
                }
                Pass::Backward => {
                    if t.mb != next_b {
                        return Err(ScheduleError::BackwardOrder(self.stage));
                    }
                    if t.mb >= next_f {
                        return Err(ScheduleError::BackwardBeforeForward(self.stage, t.mb));
                    }
                    next_b += 1;
                }
            }
        }
        if next_f as u64 != num_micro_batches || next_b as u64 != num_micro_batches {
            return Err(ScheduleError::WrongTaskCount(self.stage));
        }
        Ok(())
    }
}

/// The complete static schedule of a strategy: one task order per stage.
///
/// # Examples
///
/// ```
/// use gp_sched::{PipelineSchedule, StageId, StageSchedule};
///
/// // Two 1F1B stages over 4 micro-batches; the upstream stage warms up
/// // one extra micro-batch.
/// let schedule = PipelineSchedule {
///     per_stage: vec![
///         StageSchedule::kfkb(StageId(0), 4, 2, 1),
///         StageSchedule::kfkb(StageId(1), 4, 1, 1),
///     ],
/// };
/// assert_eq!(schedule.stage(StageId(0)).warmup, 2);
/// assert_eq!(schedule.stage(StageId(0)).tasks.len(), 8); // 4 F + 4 B
/// assert_eq!(schedule.stage(StageId(1)).peak_in_flight_micro_batches(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSchedule {
    /// Task orders indexed by stage id.
    pub per_stage: Vec<StageSchedule>,
}

impl PipelineSchedule {
    /// The schedule of a stage.
    pub fn stage(&self, id: StageId) -> &StageSchedule {
        &self.per_stage[id.index()]
    }

    /// Validates C4 for every stage against the stage graph's micro-batch
    /// counts.
    ///
    /// # Errors
    ///
    /// Returns the first stage's violation.
    pub fn validate_c4(&self, sg: &StageGraph) -> Result<(), ScheduleError> {
        for s in &self.per_stage {
            let m = sg.stage(s.stage).num_micro_batches(sg.mini_batch());
            s.validate_c4(m)?;
        }
        Ok(())
    }
}

/// Generates the full pipeline schedule from a stage graph and its
/// in-flight table (the output of Algorithm 2 applied to every stage).
pub fn schedule_tasks(sg: &StageGraph, inflight: &InFlightTable) -> PipelineSchedule {
    let per_stage = sg
        .stages()
        .map(|s| {
            let m = s.num_micro_batches(sg.mini_batch());
            let warmup = inflight.micro_batches(sg, s.id);
            StageSchedule::kfkb(s.id, m, warmup, s.kfkb)
        })
        .collect();
    PipelineSchedule { per_stage }
}

/// Dense index over every task instance `(stage, micro-batch, pass)` of
/// one training iteration.
///
/// Stages own contiguous index blocks in id order. Within a stage the
/// block is **replica-major**: replica `r` of a stage with `d` replicas
/// runs micro-batches `mb % d == r`, and its tasks
/// `[F(r), B(r), F(r + d), B(r + d), ...]` form one contiguous run, replica
/// 0 first. Every device's tasks are therefore contiguous, so a per-task
/// column walked in queue order moves forward through memory; a stage with
/// one replica is laid out `[F(0), B(0), F(1), B(1), ...]`. The index is
/// what lets per-task state live in flat, preallocated columns instead of
/// hash maps — `gp-sim`'s relaxation engine keys its timeline-key column
/// and its device-queue slab by it.
///
/// # Examples
///
/// ```
/// use gp_cluster::{Cluster, DeviceRange};
/// use gp_cost::Pass;
/// use gp_ir::zoo;
/// use gp_sched::{Stage, StageGraph, StageId, TaskIndex};
///
/// let model = zoo::mlp_chain(2, 8);
/// let ops = model.linearize();
/// let cluster = Cluster::tiny_test(3);
/// let stages = vec![
///     Stage { id: StageId(0), ops: ops[..3].to_vec(),
///             devices: DeviceRange::new(0, 1), micro_batch: 2, kfkb: 1 },
///     // Two replicas: device 1 runs micro-batches 0 and 2, device 2 runs 1 and 3.
///     Stage { id: StageId(1), ops: ops[3..].to_vec(),
///             devices: DeviceRange::new(1, 2), micro_batch: 2, kfkb: 1 },
/// ];
/// let sg = StageGraph::new(model.graph(), &cluster, stages, 8)?;
/// let idx = TaskIndex::new(&sg);
/// assert_eq!(idx.len(), 16); // 2 stages x 4 micro-batches x 2 passes
/// assert_eq!(idx.stage_tasks(StageId(1)), 8..16);
/// // Replica 1 of stage 1 owns the second half of the stage's block.
/// assert_eq!(idx.replica_tasks(StageId(1), 1), 12..16);
/// assert_eq!(idx.index(StageId(1), 1, Pass::Forward), 12);
/// let i = idx.index(StageId(1), 3, Pass::Backward);
/// assert_eq!(i, 15);
/// assert_eq!(idx.task_at(i), (StageId(1), 3, Pass::Backward));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskIndex {
    /// One block per stage, in stage id order.
    blocks: Vec<StageBlock>,
    total: usize,
}

/// The index block of one stage: `m` micro-batches over `dp` replicas, so
/// replica `r` runs `per + (r < rem)` of them, where `per = m / dp` and
/// `rem = m % dp`.
#[derive(Debug, Clone, Copy)]
struct StageBlock {
    offset: usize,
    dp: u32,
    per: u32,
    rem: u32,
}

impl StageBlock {
    /// Micro-batches (not tasks) of replicas `0..r`.
    #[inline]
    fn replica_base(&self, r: u32) -> usize {
        r as usize * self.per as usize + r.min(self.rem) as usize
    }
}

impl TaskIndex {
    /// Builds the index for a stage graph (each stage contributes
    /// `2 * B / b_i` task instances).
    pub fn new(sg: &StageGraph) -> TaskIndex {
        let mut blocks = Vec::with_capacity(sg.len());
        let mut total = 0usize;
        for s in sg.stages() {
            let m = s.num_micro_batches(sg.mini_batch());
            let dp = s.dp_degree().max(1) as u64;
            blocks.push(StageBlock {
                offset: total,
                dp: dp as u32,
                per: (m / dp) as u32,
                rem: (m % dp) as u32,
            });
            total += 2 * m as usize;
        }
        TaskIndex { blocks, total }
    }

    /// The dense index of `(stage, mb)`'s forward task and the replica
    /// that runs it (`mb % d`); the backward task is the next index.
    ///
    /// `mb` must be below the stage's micro-batch count: an out-of-range
    /// `mb` aliases another task (checked by a `debug_assert`; release
    /// builds do not pay for the bounds check on this hot path).
    ///
    /// # Panics
    ///
    /// Panics if `stage` does not belong to the indexed graph, and — in
    /// debug builds — if `mb` is out of range for the stage.
    #[inline]
    pub fn locate(&self, stage: StageId, mb: u32) -> (usize, u32) {
        let b = &self.blocks[stage.index()];
        debug_assert!(
            (mb as usize) < b.dp as usize * b.per as usize + b.rem as usize,
            "micro-batch {mb} out of range for {stage}"
        );
        if b.dp == 1 {
            return (b.offset + 2 * mb as usize, 0);
        }
        let (j, r) = (mb / b.dp, mb % b.dp);
        (b.offset + 2 * (b.replica_base(r) + j as usize), r)
    }

    /// The dense index of one task instance.
    ///
    /// # Panics
    ///
    /// Same as [`TaskIndex::locate`].
    #[inline]
    pub fn index(&self, stage: StageId, mb: u32, pass: Pass) -> usize {
        self.locate(stage, mb).0 + pass as usize
    }

    /// Total number of task instances across all stages.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the iteration has no tasks (never true for a validated
    /// stage graph with a positive mini-batch).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The contiguous index range owned by a stage.
    pub fn stage_tasks(&self, stage: StageId) -> Range<usize> {
        let b = &self.blocks[stage.index()];
        b.offset..b.offset + 2 * b.replica_base(b.dp)
    }

    /// The contiguous index range owned by one replica of a stage (empty
    /// when the stage has more replicas than micro-batches and `replica`
    /// gets none).
    ///
    /// # Panics
    ///
    /// Panics if `stage` does not belong to the indexed graph; `replica`
    /// must be below the stage's data-parallel degree.
    pub fn replica_tasks(&self, stage: StageId, replica: u32) -> Range<usize> {
        let b = &self.blocks[stage.index()];
        debug_assert!(replica < b.dp, "replica {replica} out of range for {stage}");
        b.offset + 2 * b.replica_base(replica)..b.offset + 2 * b.replica_base(replica + 1)
    }

    /// Inverts a dense index back to `(stage, micro-batch, pass)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn task_at(&self, i: usize) -> (StageId, u32, Pass) {
        assert!(i < self.total, "task index {i} out of range");
        // The last block starting at or before i owns it.
        let s = self.blocks.partition_point(|b| b.offset <= i) - 1;
        let b = &self.blocks[s];
        let local = i - b.offset;
        let pass = if local.is_multiple_of(2) {
            Pass::Forward
        } else {
            Pass::Backward
        };
        // The first `rem` replicas run `per + 1` micro-batches, the rest `per`.
        let k = local / 2;
        let (per, rem) = (b.per as usize, b.rem as usize);
        let long = rem * (per + 1);
        let (r, j) = if k < long {
            (k / (per + 1), k % (per + 1))
        } else {
            (rem + (k - long) / per, (k - long) % per)
        };
        let mb = r + j * b.dp as usize;
        (StageId(s as u32), mb as u32, pass)
    }
}

/// The producer micro-batches (of size `b_producer`) that cover consumer
/// micro-batch `mb_consumer` of size `b_consumer`.
///
/// Micro-batches partition the sample axis contiguously, so the covering
/// set is a range. With power-of-two sizes the cover is exact.
pub fn covering_micro_batches(b_producer: u64, b_consumer: u64, mb_consumer: u32) -> Range<u32> {
    let lo = (mb_consumer as u64 * b_consumer) / b_producer;
    let hi = ((mb_consumer as u64 + 1) * b_consumer).div_ceil(b_producer);
    lo as u32..hi as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(s: &StageSchedule) -> String {
        s.tasks
            .iter()
            .map(Task::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn sink_1f1b_alternates() {
        let s = StageSchedule::kfkb(StageId(0), 4, 1, 1);
        assert_eq!(render(&s), "F1 B1 F2 B2 F3 B3 F4 B4");
        assert_eq!(s.peak_in_flight_micro_batches(), 1);
        s.validate_c4(4).unwrap();
    }

    #[test]
    fn classic_1f1b_with_warmup_two() {
        let s = StageSchedule::kfkb(StageId(0), 4, 2, 1);
        assert_eq!(render(&s), "F1 F2 B1 F3 B2 F4 B3 B4");
        assert_eq!(s.peak_in_flight_micro_batches(), 2);
        s.validate_c4(4).unwrap();
    }

    #[test]
    fn kfkb_groups_of_two() {
        let s = StageSchedule::kfkb(StageId(0), 4, 2, 2);
        assert_eq!(render(&s), "F1 F2 B1 B2 F3 F4 B3 B4");
        assert_eq!(s.peak_in_flight_micro_batches(), 2);
        s.validate_c4(4).unwrap();
    }

    #[test]
    fn warmup_clamped_to_micro_batch_count() {
        let s = StageSchedule::kfkb(StageId(0), 2, 8, 1);
        assert_eq!(render(&s), "F1 F2 B1 B2");
        assert_eq!(s.warmup, 2);
        s.validate_c4(2).unwrap();
    }

    #[test]
    fn warmup_at_least_k() {
        let s = StageSchedule::kfkb(StageId(0), 8, 1, 2);
        assert_eq!(s.warmup, 2);
        s.validate_c4(8).unwrap();
        assert_eq!(s.peak_in_flight_micro_batches(), 2);
    }

    #[test]
    fn peak_matches_warmup() {
        for m in [1u64, 2, 4, 8, 16] {
            for l in 1..=m {
                for k in [1u64, 2, 4] {
                    let s = StageSchedule::kfkb(StageId(0), m, l, k);
                    s.validate_c4(m).unwrap();
                    assert_eq!(
                        s.peak_in_flight_micro_batches(),
                        l.max(k).min(m),
                        "m={m} l={l} k={k}: {}",
                        render(&s)
                    );
                }
            }
        }
    }

    #[test]
    fn c4_catches_reordered_forwards() {
        let mut s = StageSchedule::kfkb(StageId(3), 4, 2, 1);
        // Swap the two warm-up forwards.
        s.tasks.swap(0, 1);
        assert_eq!(
            s.validate_c4(4),
            Err(ScheduleError::ForwardOrder(StageId(3)))
        );
    }

    #[test]
    fn c4_catches_backward_before_forward() {
        let s = StageSchedule {
            stage: StageId(1),
            warmup: 1,
            tasks: vec![
                Task {
                    pass: Pass::Backward,
                    mb: 0,
                },
                Task {
                    pass: Pass::Forward,
                    mb: 0,
                },
            ],
        };
        assert_eq!(
            s.validate_c4(1),
            Err(ScheduleError::BackwardBeforeForward(StageId(1), 0))
        );
    }

    #[test]
    fn c4_catches_wrong_count() {
        let s = StageSchedule::kfkb(StageId(0), 4, 1, 1);
        assert_eq!(
            s.validate_c4(8),
            Err(ScheduleError::WrongTaskCount(StageId(0)))
        );
    }

    #[test]
    fn covering_micro_batches_uniform() {
        assert_eq!(covering_micro_batches(4, 4, 3), 3..4);
    }

    #[test]
    fn covering_micro_batches_producer_smaller() {
        // Consumer batch of 4 needs two producer batches of 2.
        assert_eq!(covering_micro_batches(2, 4, 0), 0..2);
        assert_eq!(covering_micro_batches(2, 4, 1), 2..4);
    }

    #[test]
    fn covering_micro_batches_producer_larger() {
        // Consumer batch of 2 fits inside one producer batch of 4.
        assert_eq!(covering_micro_batches(4, 2, 0), 0..1);
        assert_eq!(covering_micro_batches(4, 2, 1), 0..1);
        assert_eq!(covering_micro_batches(4, 2, 2), 1..2);
    }

    #[test]
    fn task_index_roundtrip() {
        use crate::stage::StageGraph;
        use gp_cluster::{Cluster, DeviceRange};

        // Two stages with different micro-batch sizes: 4 + 2 micro-batches.
        let model = gp_ir::zoo::mlp_chain(2, 8);
        let ops = model.linearize();
        let stages = vec![
            crate::Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            crate::Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch: 4,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(model.graph(), &Cluster::tiny_test(2), stages, 8).unwrap();
        let idx = TaskIndex::new(&sg);
        assert_eq!(idx.len(), 2 * 4 + 2 * 2);
        assert!(!idx.is_empty());
        assert_eq!(idx.stage_tasks(StageId(0)), 0..8);
        assert_eq!(idx.stage_tasks(StageId(1)), 8..12);
        // Every dense index inverts to the tuple that produced it.
        let mut seen = vec![false; idx.len()];
        for (stage, m) in [(StageId(0), 4u32), (StageId(1), 2u32)] {
            for mb in 0..m {
                for pass in [Pass::Forward, Pass::Backward] {
                    let i = idx.index(stage, mb, pass);
                    assert_eq!(idx.task_at(i), (stage, mb, pass));
                    assert!(!seen[i], "index {i} assigned twice");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "dense indices must be a bijection");
    }

    /// A stage graph over an MLP chain cut into `dps.len()` contiguous
    /// stages; stage `i` has `dps[i]` replicas (devices laid out in stage
    /// order) and micro-batch size `mbs[i]`.
    fn replicated_graph(dps: &[u32], mbs: &[u64], mini_batch: u64) -> StageGraph {
        use gp_cluster::{Cluster, DeviceRange};
        let n = dps.len();
        let model = gp_ir::zoo::mlp_chain(n, 8);
        let ops = model.linearize();
        let mut first = 0;
        let stages = (0..n)
            .map(|i| {
                let stage = crate::Stage {
                    id: StageId(i as u32),
                    ops: ops[i * ops.len() / n..(i + 1) * ops.len() / n].to_vec(),
                    devices: DeviceRange::new(first, dps[i]),
                    micro_batch: mbs[i],
                    kfkb: 1,
                };
                first += dps[i];
                stage
            })
            .collect();
        let cluster = Cluster::tiny_test(first as usize);
        StageGraph::new(model.graph(), &cluster, stages, mini_batch).unwrap()
    }

    #[test]
    fn task_index_is_replica_major() {
        // 5 micro-batches over 2 replicas: replica 0 runs 0, 2, 4 and
        // replica 1 runs 1, 3 — each as one contiguous block.
        let sg = replicated_graph(&[1, 2], &[1, 1], 5);
        let idx = TaskIndex::new(&sg);
        assert_eq!(idx.stage_tasks(StageId(1)), 10..20);
        assert_eq!(idx.replica_tasks(StageId(1), 0), 10..16);
        assert_eq!(idx.replica_tasks(StageId(1), 1), 16..20);
        let order: Vec<(u32, Pass)> = idx
            .stage_tasks(StageId(1))
            .map(|i| {
                let (_, mb, pass) = idx.task_at(i);
                (mb, pass)
            })
            .collect();
        let (f, b) = (Pass::Forward, Pass::Backward);
        assert_eq!(
            order,
            [
                (0, f),
                (0, b),
                (2, f),
                (2, b),
                (4, f),
                (4, b),
                (1, f),
                (1, b),
                (3, f),
                (3, b)
            ]
        );
        assert_eq!(idx.locate(StageId(1), 3), (18, 1));
        // More replicas than micro-batches: the spare replicas own nothing.
        let sg = replicated_graph(&[3, 1], &[2, 2], 4);
        let idx = TaskIndex::new(&sg);
        assert_eq!(idx.replica_tasks(StageId(0), 0), 0..2);
        assert_eq!(idx.replica_tasks(StageId(0), 1), 2..4);
        assert_eq!(idx.replica_tasks(StageId(0), 2), 4..4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On random replicated stage graphs the index is a bijection,
        /// each replica's tasks form one contiguous block in
        /// `(micro-batch, pass)` order, replica blocks tile their stage's
        /// block, and stage blocks tile the whole index in id order.
        #[test]
        fn task_index_roundtrips_on_replicated_graphs(
            stages in 1usize..6,
            log_mini in 3u32..7,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = seed;
            let mut next = |n: u64| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            let dps: Vec<u32> = (0..stages).map(|_| 1 + next(5) as u32).collect();
            let mbs: Vec<u64> = (0..stages).map(|_| 1 << next(4)).collect();
            let sg = replicated_graph(&dps, &mbs, 1 << log_mini);
            let idx = TaskIndex::new(&sg);
            let mut seen = vec![false; idx.len()];
            let mut next_stage = 0;
            for s in sg.stages() {
                let block = idx.stage_tasks(s.id);
                proptest::prop_assert_eq!(block.start, next_stage);
                next_stage = block.end;
                let m = s.num_micro_batches(sg.mini_batch()) as u32;
                proptest::prop_assert_eq!(block.len(), 2 * m as usize);
                let d = s.dp_degree() as u32;
                let mut next_replica = block.start;
                for r in 0..d {
                    let ids = idx.replica_tasks(s.id, r);
                    proptest::prop_assert_eq!(ids.start, next_replica);
                    next_replica = ids.end;
                    let mut expect = ids.clone();
                    for mb in (r..m).step_by(d as usize) {
                        for pass in [Pass::Forward, Pass::Backward] {
                            let i = idx.index(s.id, mb, pass);
                            proptest::prop_assert_eq!(Some(i), expect.next());
                            proptest::prop_assert_eq!(idx.task_at(i), (s.id, mb, pass));
                            proptest::prop_assert!(!seen[i], "index {} assigned twice", i);
                            seen[i] = true;
                        }
                        proptest::prop_assert_eq!(idx.locate(s.id, mb), (idx.index(s.id, mb, Pass::Forward), r));
                    }
                    proptest::prop_assert_eq!(expect.next(), None);
                }
                proptest::prop_assert_eq!(next_replica, block.end);
            }
            proptest::prop_assert_eq!(next_stage, idx.len());
            proptest::prop_assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn task_index_rejects_out_of_range() {
        let model = gp_ir::zoo::mlp_chain(2, 8);
        let ops = model.linearize();
        let stages = vec![crate::Stage {
            id: StageId(0),
            ops,
            devices: gp_cluster::DeviceRange::new(0, 1),
            micro_batch: 2,
            kfkb: 1,
        }];
        let sg =
            crate::StageGraph::new(model.graph(), &gp_cluster::Cluster::tiny_test(1), stages, 8)
                .unwrap();
        let idx = TaskIndex::new(&sg);
        let _ = idx.task_at(idx.len());
    }

    #[test]
    fn task_display() {
        let f = Task {
            pass: Pass::Forward,
            mb: 0,
        };
        let b = Task {
            pass: Pass::Backward,
            mb: 3,
        };
        assert_eq!(f.to_string(), "F1");
        assert_eq!(b.to_string(), "B4");
    }
}
