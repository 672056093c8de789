//! The discrete-event pipeline execution engine.
//!
//! Simulates one training iteration of a strategy: every stage replica is a
//! device executing its task order (from `gp-sched`) in order, non
//! preemptively; activations/gradients hop between stages over the cluster
//! links; data-parallel stages allreduce their gradients at the end of the
//! iteration. Because per-device task orders are fixed and dependencies
//! point backwards in each queue, makespan computation reduces to a
//! longest-path relaxation over the task DAG — no global event queue is
//! needed, and the result is deterministic.
//!
//! # Arena layout
//!
//! The engine is built for 512+ devices and 10k+ micro-batches, so the hot
//! path never hashes, never grows a container, and touches 20 bytes per
//! task:
//!
//! * every task instance has a dense `u32` id from [`gp_sched::TaskIndex`],
//!   which is replica-major: each device's tasks are one contiguous block,
//!   so a device walking its queue walks forward through every per-task
//!   column;
//! * device queues live in one contiguous slab of task ids cut by
//!   per-device offsets (4 bytes per task). A device serves one stage
//!   replica, so `(micro-batch, pass)` decode from the id's offset in the
//!   device's block and durations come from a per-device `[fwd, bwd]` pair;
//! * the only per-task state is one `u128` column holding each task's
//!   **timeline key** `(start bits, device, offset in the device's block)`,
//!   written when the task commits; `u128::MAX` means "not run yet". A
//!   dependency's completion is read back as `start + duration` — the same
//!   float addition on the same operands that produced the task's end when
//!   it committed, so the value is bit-identical to a stored completion
//!   time;
//! * dependency edges are per-stage CSR rows with the two possible
//!   transfer times (intra-/inter-node) precomputed per edge, so a
//!   dependency probe is an index walk plus one `max`;
//! * the relaxation itself is event-driven: a device that blocks on a
//!   missing dependency records that task and parks on the *producer
//!   device's* waiter list (an intrusive list over three per-device
//!   columns); when the producer commits that task it pushes exactly those
//!   waiters back on the ready stack. Total work is
//!   `O(tasks + dependency edges)` — no repeated full-device scans;
//! * activation memory is a running per-device watermark updated as tasks
//!   complete. A device's queue executes serially, so its completions are
//!   already in time order and the old sort-all-events pass is redundant
//!   (equal-time charge/release pairs only arise for zero-duration stages,
//!   which stash zero bytes — see DESIGN.md §"Memory accounting");
//! * finalization reads warm-up off the key column (each stage owns a
//!   contiguous block of it), drops the queue slab, sorts the column in
//!   place — start bits first, so the sort *is* the timeline order — and
//!   decodes each key into a span with `end = start + duration`.
//!
//! [`SimOptions::parallelism`] switches on the deterministic parallel mode:
//! device queues are striped over `crossbeam::thread::scope` workers that
//! relax the same queue slab concurrently against a shared atomic
//! start-time column, with a barrier per round; the keys are packed from
//! it after the last round. Every task's start time is a pure function of
//! its dependencies' times (a unique longest-path fixpoint), so worker
//! interleaving cannot change any value and reports are byte-identical to
//! the sequential engine's (see DESIGN.md §"Determinism").
//!
//! Modeling notes (see DESIGN.md §"The modeling contract"):
//!
//! * replica `r` of a stage with `d` replicas processes micro-batches
//!   `mb % d == r`, matching the planner's memory accounting;
//! * links are delay-only (no contention); same-device transfers are free;
//! * activation memory is charged at forward completion and released at
//!   backward completion, plus static parameter/optimizer state.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::report::{SimError, SimReport, TaskSpan};
use gp_cluster::{Cluster, DeviceId};
use gp_cost::{CostModel, Pass};
use gp_ir::Graph;
use gp_obs::Telemetry;
use gp_sched::{covering_micro_batches, PipelineSchedule, StageGraph, StageId, TaskIndex};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;

/// Tuning knobs for [`simulate_with`].
///
/// The default is the sequential engine. `parallelism > 1` relaxes device
/// queues on that many scoped worker threads; the report is byte-identical
/// either way, so the knob is purely a wall-clock lever for large
/// simulations on idle cores.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Number of relaxation worker threads; `0` and `1` both mean the
    /// sequential engine. Clamped to the device count.
    pub parallelism: usize,
}

impl SimOptions {
    /// Sets [`SimOptions::parallelism`], builder style.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }
}

/// One dependency edge of a stage: the peer stage, its micro-batch size,
/// and the transfer time of the edge payload over each link class
/// (already zero when the payload is zero bytes or the peer shares the
/// device).
#[derive(Debug, Clone, Copy)]
struct DepEdge {
    stage: u32,
    micro_batch: u64,
    t_intra: f64,
    t_inter: f64,
}

/// What a device runs: one replica of one stage, whose tasks are the
/// contiguous id block starting at `first_id`. A task at offset `k` of the
/// block is micro-batch `replica + (k / 2) * dp`, forward when `k` is even.
/// A replica of a stage with more replicas than micro-batches has an empty
/// block and an empty queue.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceInfo {
    stage: u32,
    replica: u32,
    dp: u32,
    first_id: u32,
    /// `[forward, backward]` duration of one of the stage's tasks.
    dur: [f64; 2],
    act_charge: u64,
}

impl DeviceInfo {
    /// `(micro-batch, pass bit)` of the task at `offset` in the block.
    #[inline]
    fn decode(&self, offset: u32) -> (u32, usize) {
        (
            self.replica + (offset >> 1) * self.dp,
            (offset & 1) as usize,
        )
    }
}

/// The timeline key of a task that started at `start_bits` on `dev`, at
/// `offset` in the device's block: ordering keys orders spans by
/// `(start, device, stage, mb, pass)`, because start times are
/// non-negative (so bit order is numeric order), a device serves a single
/// stage, and block offsets grow with `(mb, pass)`.
#[inline]
fn pack_key(start_bits: u64, dev: u32, offset: u32) -> u128 {
    ((start_bits as u128) << 64) | ((dev as u128) << 32) | offset as u128
}

/// A key column entry of a task that has not run.
const NOT_RUN: u128 = u128::MAX;

/// Everything the relaxation needs, precomputed into flat arenas.
struct Prep {
    n_dev: usize,
    idx: TaskIndex,
    // Per-stage columns (indexed by stage id).
    param_bytes: Vec<u64>,
    first_dev: Vec<u32>,
    dp: Vec<u32>,
    micro_batch: Vec<u64>,
    /// `[forward, backward]` task duration.
    dur: Vec<[f64; 2]>,
    // Forward/backward dependency CSR rows per stage.
    fdep_off: Vec<usize>,
    fdeps: Vec<DepEdge>,
    bdep_off: Vec<usize>,
    bdeps: Vec<DepEdge>,
    // Per-device columns.
    dev: Vec<DeviceInfo>,
    /// Queue of device `d` is `queues[dev_off[d]..dev_off[d + 1]]`.
    dev_off: Vec<usize>,
    static_mem: Vec<u64>,
    node_of: Vec<u32>,
}

impl Prep {
    /// Builds the arenas and the device-queue slab (returned separately so
    /// finalization can free it before the timeline is allocated).
    fn new(
        graph: &Graph,
        cluster: &Cluster,
        sg: &StageGraph,
        schedule: &PipelineSchedule,
        idx: TaskIndex,
    ) -> (Prep, Vec<u32>) {
        let cost = CostModel::new(cluster);
        let n_dev = cluster.device_count();
        let n = sg.len();

        let mut dur = vec![[0.0f64; 2]; n];
        let mut act_charge = vec![0u64; n];
        let mut param_bytes = vec![0u64; n];
        let mut first_dev = vec![0u32; n];
        let mut dp = vec![1u32; n];
        let mut micro_batch = vec![1u64; n];
        for s in sg.stages() {
            let i = s.id.index();
            dur[i] = [
                cost.stage_time(graph, &s.ops, s.micro_batch, Pass::Forward),
                cost.stage_time(graph, &s.ops, s.micro_batch, Pass::Backward),
            ];
            act_charge[i] = cost.stage_activation_bytes_per_sample(graph, &s.ops) * s.micro_batch;
            param_bytes[i] = cost.stage_param_bytes(graph, &s.ops);
            first_dev[i] = s.devices.first().0;
            dp[i] = s.dp_degree() as u32;
            micro_batch[i] = s.micro_batch;
        }

        // Dependency CSR rows. The payload of the edge `p -> s` is
        // `crossing_bytes_per_sample * b_consumer`; precomputing the two
        // link-class transfer times per edge removes all link math from
        // the relaxation (and reproduces the legacy float exactly — the
        // same `latency + bytes / bandwidth` expression on the same
        // payload).
        let intra = cluster.intra_link();
        let inter = cluster.inter_link();
        // `owner` is the stage whose dependency row the edge sits on: the
        // payload scales with *its* micro-batch size (a forward receives
        // activations for its own micro-batch; a backward receives the
        // gradient of its own output), exactly as the per-probe legacy
        // engine computed it.
        let edge = |from: StageId, to: StageId, owner: StageId, peer: StageId| -> DepEdge {
            let bytes =
                cost.crossing_bytes_per_sample(graph, &sg.stage(from).ops, &sg.stage(to).ops)
                    * sg.stage(owner).micro_batch;
            let time = |t: f64| if bytes > 0 { t } else { 0.0 };
            DepEdge {
                stage: peer.0,
                micro_batch: sg.stage(peer).micro_batch,
                t_intra: time(intra.transfer_time(bytes)),
                t_inter: time(inter.transfer_time(bytes)),
            }
        };
        let mut fdep_off = Vec::with_capacity(n + 1);
        let mut fdeps = Vec::new();
        let mut bdep_off = Vec::with_capacity(n + 1);
        let mut bdeps = Vec::new();
        for s in sg.stages() {
            fdep_off.push(fdeps.len());
            fdeps.extend(sg.preds(s.id).iter().map(|&p| edge(p, s.id, s.id, p)));
            bdep_off.push(bdeps.len());
            bdeps.extend(sg.succs(s.id).iter().map(|&t| edge(s.id, t, s.id, t)));
        }
        fdep_off.push(fdeps.len());
        bdep_off.push(bdeps.len());

        // Devices partition across stages (C3): replica `r` of a stage is
        // its `r`-th device and owns the replica's id block.
        let mut dev = vec![DeviceInfo::default(); n_dev];
        for s in sg.stages() {
            let i = s.id.index();
            for r in 0..dp[i] {
                dev[(first_dev[i] + r) as usize] = DeviceInfo {
                    stage: s.id.0,
                    replica: r,
                    dp: dp[i],
                    first_id: idx.replica_tasks(s.id, r).start as u32,
                    dur: dur[i],
                    act_charge: act_charge[i],
                };
            }
        }

        // Device-queue slab: a device's queue is its stage's task order
        // filtered to the replica's micro-batches — count, cut offsets,
        // fill with dense ids.
        let mut counts = vec![0usize; n_dev];
        for s in sg.stages() {
            let (first, d) = (first_dev[s.id.index()], dp[s.id.index()]);
            for task in &schedule.stage(s.id).tasks {
                counts[(first + task.mb % d) as usize] += 1;
            }
        }
        let mut dev_off = Vec::with_capacity(n_dev + 1);
        let mut total = 0usize;
        for &c in &counts {
            dev_off.push(total);
            total += c;
        }
        dev_off.push(total);
        let mut cursor = dev_off[..n_dev].to_vec();
        let mut queues = vec![0u32; total];
        for s in sg.stages() {
            let first = first_dev[s.id.index()];
            for task in &schedule.stage(s.id).tasks {
                let (fwd, r) = idx.locate(s.id, task.mb);
                let d = (first + r) as usize;
                queues[cursor[d]] = (fwd + task.pass as usize) as u32;
                cursor[d] += 1;
            }
        }

        let mut static_mem = vec![0u64; n_dev];
        for s in sg.stages() {
            let stat = param_bytes[s.id.index()] / gp_ir::BYTES_PER_ELEMENT
                * gp_cost::BYTES_PER_PARAM_STATE;
            for d in s.devices.iter() {
                static_mem[d.index()] += stat;
            }
        }
        let node_of = (0..n_dev as u32)
            .map(|d| cluster.node_of(DeviceId(d)) as u32)
            .collect();

        let prep = Prep {
            n_dev,
            idx,
            param_bytes,
            first_dev,
            dp,
            micro_batch,
            dur,
            fdep_off,
            fdeps,
            bdep_off,
            bdeps,
            dev,
            dev_off,
            static_mem,
            node_of,
        };
        (prep, queues)
    }

    /// The queue slice of a device.
    #[inline]
    fn queue<'q>(&self, queues: &'q [u32], dev: usize) -> &'q [u32] {
        &queues[self.dev_off[dev]..self.dev_off[dev + 1]]
    }

    /// Transfer delay of `edge`'s payload from `from` to `me` (free on the
    /// same device, zero when the payload is empty).
    #[inline]
    fn hop(&self, edge: &DepEdge, from: u32, me: u32) -> f64 {
        if from == me {
            0.0
        } else if self.node_of[from as usize] == self.node_of[me as usize] {
            edge.t_intra
        } else {
            edge.t_inter
        }
    }

    /// Earliest time every dependency of task `id` — micro-batch `mb`,
    /// pass bit `pass` of the stage device `me` serves — has arrived, or
    /// `Err((dep, producer))` naming the first dependency that has not run
    /// yet and the device that will run it.
    ///
    /// `start_of` returns a task's start time once it has run; its
    /// completion is `start + duration`, the exact float the producer
    /// computed as its end. The accumulated value is a max over
    /// per-dependency arrival times, so it is independent of evaluation
    /// order — which is what makes the parallel mode's answers bit-equal
    /// to the sequential engine's.
    #[inline]
    fn ready_time(
        &self,
        id: usize,
        mb: u32,
        pass: usize,
        me: u32,
        start_of: &impl Fn(usize) -> Option<f64>,
    ) -> Result<f64, (usize, u32)> {
        let s = self.dev[me as usize].stage as usize;
        let b_me = self.micro_batch[s];
        let mut ready = 0.0f64;
        // Uniform micro-batch sizes (the overwhelmingly common case) cover
        // exactly the peer's same-numbered micro-batch; skipping the
        // `covering_micro_batches` divisions there is a measurable win at
        // 10k+ micro-batches.
        let cover = |b_peer: u64| -> std::ops::Range<u32> {
            if b_peer == b_me {
                mb..mb + 1
            } else {
                covering_micro_batches(b_peer, b_me, mb)
            }
        };
        let edges = if pass == 0 {
            &self.fdeps[self.fdep_off[s]..self.fdep_off[s + 1]]
        } else {
            // A backward first waits for its own forward: the previous id
            // of the same block, on the same device.
            let Some(st) = start_of(id - 1) else {
                return Err((id - 1, me));
            };
            ready = ready.max(st + self.dur[s][0]);
            &self.bdeps[self.bdep_off[s]..self.bdep_off[s + 1]]
        };
        for e in edges {
            for mb_p in cover(e.micro_batch) {
                let (fwd, r) = self.idx.locate(StageId(e.stage), mb_p);
                let dep = fwd + pass;
                let from = self.first_dev[e.stage as usize] + r;
                let Some(st) = start_of(dep) else {
                    return Err((dep, from));
                };
                let end = st + self.dur[e.stage as usize][pass];
                ready = ready.max(end + self.hop(e, from, me));
            }
        }
        Ok(ready)
    }
}

/// Per-device mutable state of one relaxation (sequential: all devices;
/// parallel: the worker's stripe, indexed by stripe position).
#[derive(Debug, Clone)]
struct DeviceState {
    head: usize,
    busy_until: f64,
    busy_total: f64,
    cur_mem: u64,
    peak_mem: u64,
}

impl DeviceState {
    fn new(static_mem: u64) -> DeviceState {
        DeviceState {
            head: 0,
            busy_until: 0.0,
            busy_total: 0.0,
            cur_mem: static_mem,
            peak_mem: static_mem,
        }
    }

    /// Commits one scheduled task that starts at `start`: advances the
    /// queue head, the busy clock, and the activation watermark (charge at
    /// forward completion, release at backward completion).
    #[inline]
    fn commit(&mut self, info: &DeviceInfo, pass: usize, start: f64) {
        let duration = info.dur[pass];
        self.busy_until = start + duration;
        self.busy_total += duration;
        self.head += 1;
        if pass == 0 {
            self.cur_mem += info.act_charge;
            self.peak_mem = self.peak_mem.max(self.cur_mem);
        } else {
            self.cur_mem -= info.act_charge;
        }
    }
}

/// Output of a relaxation, merged across workers in the parallel mode.
struct Relaxed {
    /// The timeline-key column, indexed by dense task id.
    keys: Vec<u128>,
    busy_until: Vec<f64>,
    busy_total: Vec<f64>,
    peak_mem: Vec<u64>,
    /// Engine-mechanics counters for telemetry: deterministic for the
    /// sequential engine; `rounds` for the parallel one (whose count can
    /// vary with interleaving — it never reaches report data). All zero
    /// for whichever engine did not run.
    parks: u64,
    wakes: u64,
    rounds: u64,
}

/// End of a device's waiter list.
const NONE: u32 = u32::MAX;

/// Sequential relaxation: an explicit ready stack of devices plus, per
/// device, an intrusive list of the devices waiting on one of its tasks.
/// A blocked device records the first missing dependency and parks on its
/// producer's list; the producer re-pushes it exactly when that task
/// commits, so every task is examined `O(1 + its dependency count)` times.
fn relax_sequential(prep: &Prep, queues: &[u32]) -> Result<Relaxed, SimError> {
    let n_dev = prep.n_dev;
    let mut keys = vec![NOT_RUN; prep.idx.len()];
    let mut waiting_on = vec![0u32; n_dev];
    let mut waiter_head = vec![NONE; n_dev];
    let mut waiter_next = vec![NONE; n_dev];
    let mut dev = (0..n_dev)
        .map(|d| DeviceState::new(prep.static_mem[d]))
        .collect::<Vec<_>>();
    let mut stack: Vec<u32> = (0..n_dev as u32).collect();
    let total = queues.len();
    let mut remaining = total;
    let mut parks = 0u64;
    let mut wakes = 0u64;

    while let Some(d) = stack.pop() {
        let queue = prep.queue(queues, d as usize);
        let info = &prep.dev[d as usize];
        let state = &mut dev[d as usize];
        while state.head < queue.len() {
            let id = queue[state.head];
            let offset = id - info.first_id;
            let (mb, pass) = info.decode(offset);
            let start_of = |dep: usize| {
                let key = keys[dep];
                (key != NOT_RUN).then(|| f64::from_bits((key >> 64) as u64))
            };
            match prep.ready_time(id as usize, mb, pass, d, &start_of) {
                Err((dep, producer)) => {
                    waiting_on[d as usize] = dep as u32;
                    waiter_next[d as usize] = waiter_head[producer as usize];
                    waiter_head[producer as usize] = d;
                    parks += 1;
                    break;
                }
                Ok(ready) => {
                    let start = state.busy_until.max(ready);
                    keys[id as usize] = pack_key(start.to_bits(), d, offset);
                    state.commit(info, pass, start);
                    remaining -= 1;
                    // Wake the devices parked on this task; the others on
                    // the list wait for a later task of this device.
                    let (mut prev, mut w) = (NONE, waiter_head[d as usize]);
                    while w != NONE {
                        let next = waiter_next[w as usize];
                        if waiting_on[w as usize] == id {
                            if prev == NONE {
                                waiter_head[d as usize] = next;
                            } else {
                                waiter_next[prev as usize] = next;
                            }
                            stack.push(w);
                            wakes += 1;
                        } else {
                            prev = w;
                        }
                        w = next;
                    }
                }
            }
        }
    }
    if remaining > 0 {
        return Err(SimError::Deadlock {
            completed: total - remaining,
            total,
        });
    }
    Ok(Relaxed {
        keys,
        busy_until: dev.iter().map(|s| s.busy_until).collect(),
        busy_total: dev.iter().map(|s| s.busy_total).collect(),
        peak_mem: dev.iter().map(|s| s.peak_mem).collect(),
        parks,
        wakes,
        rounds: 0,
    })
}

/// Round states of the parallel relaxation.
const RUN: u8 = 0;
const FINISHED: u8 = 1;
const DEADLOCKED: u8 = 2;

/// Parallel relaxation: devices stripe over `workers` scoped threads
/// (`dev % workers`), each sweeping its own queues against a shared atomic
/// start-time column (`u64::MAX` until the task runs). Rounds are
/// separated by barriers; the leader calls the iteration finished when all
/// tasks are scheduled and deadlocked when a whole round makes no progress
/// anywhere (the done-set is then a fixpoint). Every value a worker
/// publishes is the unique longest-path solution for that task, so the
/// merged result is byte-identical to [`relax_sequential`]'s regardless of
/// thread interleaving.
fn relax_parallel(prep: &Prep, queues: &[u32], workers: usize) -> Result<Relaxed, SimError> {
    let n = prep.idx.len();
    let n_dev = prep.n_dev;
    let total = queues.len();
    let starts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let barrier = Barrier::new(workers);
    let round_progress = AtomicUsize::new(0);
    let scheduled_total = AtomicUsize::new(0);
    let state_flag = AtomicU8::new(RUN);
    let rounds = AtomicUsize::new(0);
    let start_of = |dep: usize| {
        let bits = starts[dep].load(Ordering::Acquire);
        (bits != u64::MAX).then(|| f64::from_bits(bits))
    };

    let worker = |w: usize| -> Vec<(usize, DeviceState)> {
        let mut owned: Vec<(usize, DeviceState)> = (w..n_dev)
            .step_by(workers)
            .map(|d| (d, DeviceState::new(prep.static_mem[d])))
            .collect();
        loop {
            let mut local = 0usize;
            // Sweep owned devices to a local fixpoint; peers may publish
            // new start times mid-sweep, which only adds progress.
            loop {
                let mut sweep = 0usize;
                for (d, state) in owned.iter_mut() {
                    let queue = prep.queue(queues, *d);
                    let info = &prep.dev[*d];
                    while state.head < queue.len() {
                        let id = queue[state.head];
                        let (mb, pass) = info.decode(id - info.first_id);
                        let ready = prep.ready_time(id as usize, mb, pass, *d as u32, &start_of);
                        let Ok(ready) = ready else { break };
                        let start = state.busy_until.max(ready);
                        starts[id as usize].store(start.to_bits(), Ordering::Release);
                        state.commit(info, pass, start);
                        sweep += 1;
                    }
                }
                local += sweep;
                if sweep == 0 {
                    break;
                }
            }
            round_progress.fetch_add(local, Ordering::SeqCst);
            barrier.wait();
            if w == 0 {
                rounds.fetch_add(1, Ordering::SeqCst);
                let progress = round_progress.swap(0, Ordering::SeqCst);
                let scheduled = scheduled_total.fetch_add(progress, Ordering::SeqCst) + progress;
                let next = if scheduled == total {
                    FINISHED
                } else if progress == 0 {
                    DEADLOCKED
                } else {
                    RUN
                };
                state_flag.store(next, Ordering::SeqCst);
            }
            barrier.wait();
            if state_flag.load(Ordering::SeqCst) != RUN {
                return owned;
            }
        }
    };

    let worker = &worker;
    let per_worker: Vec<Vec<(usize, DeviceState)>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move |_| worker(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("relaxation workers do not panic"))
            .collect()
    })
    .expect("scope does not fail");

    if state_flag.load(Ordering::SeqCst) == DEADLOCKED {
        return Err(SimError::Deadlock {
            completed: scheduled_total.load(Ordering::SeqCst),
            total,
        });
    }
    let mut busy_until = vec![0.0f64; n_dev];
    let mut busy_total = vec![0.0f64; n_dev];
    let mut peak_mem = vec![0u64; n_dev];
    for (d, state) in per_worker.into_iter().flatten() {
        busy_until[d] = state.busy_until;
        busy_total[d] = state.busy_total;
        peak_mem[d] = state.peak_mem;
    }
    // Pack the key column: replica blocks tile the id space in
    // (stage, replica) order.
    let mut keys = Vec::with_capacity(n);
    let mut bits = starts.into_iter().map(AtomicU64::into_inner);
    for (s, (&first, &dp)) in prep.first_dev.iter().zip(&prep.dp).enumerate() {
        for r in 0..dp {
            let block = prep.idx.replica_tasks(StageId(s as u32), r);
            keys.extend((0..block.len() as u32).zip(&mut bits).map(|(offset, b)| {
                if b == u64::MAX {
                    NOT_RUN
                } else {
                    pack_key(b, first + r, offset)
                }
            }));
        }
    }
    Ok(Relaxed {
        keys,
        busy_until,
        busy_total,
        peak_mem,
        parks: 0,
        wakes: 0,
        rounds: rounds.load(Ordering::SeqCst) as u64,
    })
}

/// Simulates one synchronous training iteration of a strategy with the
/// default [`SimOptions`] (sequential engine).
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] when the task orders are mutually
/// inconsistent (e.g. a hand-crafted schedule with insufficient warm-up),
/// [`SimError::MissingSchedule`] when the schedule does not cover every
/// stage, and [`SimError::TooManyTasks`] when the iteration has more tasks
/// than 32-bit task ids can name.
pub fn simulate(
    graph: &Graph,
    cluster: &Cluster,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
) -> Result<SimReport, SimError> {
    simulate_with(graph, cluster, sg, schedule, &SimOptions::default())
}

/// Simulates one synchronous training iteration of a strategy.
///
/// The report is byte-identical for any [`SimOptions::parallelism`]; the
/// option only moves wall-clock time (see the module docs for the
/// determinism argument).
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_with(
    graph: &Graph,
    cluster: &Cluster,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    options: &SimOptions,
) -> Result<SimReport, SimError> {
    simulate_traced(
        graph,
        cluster,
        sg,
        schedule,
        options,
        &Telemetry::disabled(),
    )
}

/// [`simulate_with`], emitting spans (`sim.prep` / `sim.relax` /
/// `sim.finalize`), engine counters (`sim.tasks`, `sim.watcher_parks`,
/// `sim.watcher_wakes`, `sim.relax_rounds`) and gauges (`sim.devices`,
/// `sim.arena_bytes` — the bytes of the per-task columns plus the queue
/// slab the relaxation touched) into `telemetry`.
///
/// Telemetry is write-only: the returned report — including its
/// [`SimReport::fingerprint`](crate::SimReport::fingerprint) — is
/// byte-identical whether `telemetry` is enabled, disabled, or absent
/// (the golden sim tests assert this).
pub fn simulate_traced(
    graph: &Graph,
    cluster: &Cluster,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    options: &SimOptions,
    telemetry: &Telemetry,
) -> Result<SimReport, SimError> {
    if schedule.per_stage.len() != sg.len() {
        return Err(SimError::MissingSchedule {
            stages: sg.len(),
            schedules: schedule.per_stage.len(),
        });
    }
    let idx = TaskIndex::new(sg);
    if idx.len() > u32::MAX as usize {
        return Err(SimError::TooManyTasks { tasks: idx.len() });
    }
    let cost = CostModel::new(cluster);
    let n_dev = cluster.device_count();
    let mini_batch = sg.mini_batch();
    let prep_span = telemetry.span("sim.prep");
    let (prep, queues) = Prep::new(graph, cluster, sg, schedule, idx);
    drop(prep_span);
    let total_tasks = queues.len();

    let workers = options.parallelism.min(n_dev);
    let relax_span = telemetry.span_with("sim.relax", total_tasks as u64);
    let relaxed = if workers > 1 {
        relax_parallel(&prep, &queues, workers)?
    } else {
        relax_sequential(&prep, &queues)?
    };
    drop(relax_span);
    if telemetry.is_enabled() {
        let start_column = if workers > 1 { prep.idx.len() * 8 } else { 0 };
        let arena = relaxed.keys.len() * std::mem::size_of::<u128>()
            + queues.len() * std::mem::size_of::<u32>()
            + start_column;
        telemetry.counter_add("sim.tasks", total_tasks as u64);
        telemetry.counter_add("sim.watcher_parks", relaxed.parks);
        telemetry.counter_add("sim.watcher_wakes", relaxed.wakes);
        telemetry.counter_add("sim.relax_rounds", relaxed.rounds);
        telemetry.gauge_set("sim.devices", n_dev as i64);
        telemetry.gauge_set("sim.arena_bytes", arena as i64);
    }
    drop(queues);
    let _finalize_span = telemetry.span("sim.finalize");
    let Relaxed {
        mut keys,
        busy_until,
        mut busy_total,
        peak_mem: peak_memory,
        ..
    } = relaxed;

    // Gradient allreduce per data-parallel stage, after its last backward.
    let mut device_end = busy_until.clone();
    for s in sg.stages() {
        let ar = cost.allreduce_time(prep.param_bytes[s.id.index()], &s.devices);
        if ar > 0.0 {
            let stage_last = s
                .devices
                .iter()
                .map(|d| busy_until[d.index()])
                .fold(0.0f64, f64::max);
            for d in s.devices.iter() {
                device_end[d.index()] = device_end[d.index()].max(stage_last + ar);
                busy_total[d.index()] += ar;
            }
        }
    }
    let iteration_time = device_end.iter().copied().fold(0.0f64, f64::max);

    // Warm-up: the moment every stage has begun working — the max over
    // stages of the min start time, read off the key column before it is
    // sorted (each stage owns a contiguous block of it).
    let warmup_time = sg
        .stages()
        .map(|s| {
            keys[prep.idx.stage_tasks(s.id)]
                .iter()
                .map(|&k| f64::from_bits((k >> 64) as u64))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0f64, f64::max);

    // The timeline is the key column sorted in place: keys order spans by
    // the total key `(start, device, stage, mb, pass)` (see `pack_key`),
    // so ties on start time are broken structurally rather than by
    // construction order and the timeline — and everything rendered from
    // it, e.g. Gantt charts — is byte-for-byte deterministic. Keys are
    // unique, so any sort has a single valid output. A task the schedule
    // never queued keeps `NOT_RUN` and sorts last.
    keys.sort_unstable();
    if keys.last() == Some(&NOT_RUN) {
        return Err(SimError::Deadlock {
            completed: keys.partition_point(|&k| k != NOT_RUN),
            total: keys.len(),
        });
    }
    let timeline = keys
        .into_iter()
        .map(|key| {
            let device = (key >> 32) as u32;
            let info = &prep.dev[device as usize];
            let (mb, pass) = info.decode(key as u32);
            let start = f64::from_bits((key >> 64) as u64);
            TaskSpan {
                device: DeviceId(device),
                stage: StageId(info.stage),
                mb,
                pass: if pass == 0 {
                    Pass::Forward
                } else {
                    Pass::Backward
                },
                start,
                end: start + info.dur[pass],
            }
        })
        .collect();

    let busy_sum: f64 = busy_total.iter().sum();
    let utilization = if iteration_time > 0.0 {
        busy_sum / (iteration_time * n_dev as f64)
    } else {
        0.0
    };

    Ok(SimReport {
        iteration_time,
        throughput: mini_batch as f64 / iteration_time,
        utilization,
        bubble_fraction: 1.0 - utilization,
        warmup_time,
        per_device_busy: busy_total,
        peak_memory_bytes: peak_memory,
        timeline,
        mini_batch,
    })
}
