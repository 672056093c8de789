//! An independent reference simulator for `gp-sim`.
//!
//! [`reference`] recomputes a `SimReport` the plain way: device queues are
//! `Vec`s of `(stage, mb, pass)`, times live in hash maps, and repeated
//! sweeps run any task whose device predecessor and dependencies have
//! finished — a topological order of the task DAG. It shares no code with
//! the arena engine (no task index, no queue slab, no waiter lists) but
//! evaluates the same float expressions, so every field must agree bit for
//! bit with the sequential and the parallel engine, deadlocks included.

use graphpipe::cluster::{Cluster, DeviceId, DeviceRange};
use graphpipe::cost::{CostModel, Pass, BYTES_PER_PARAM_STATE};
use graphpipe::ir::{zoo, Graph, GraphBuilder, OpKind, Shape, SpBlock, SpModel, BYTES_PER_ELEMENT};
use graphpipe::sched::{
    assign_in_flight, covering_micro_batches, schedule_tasks, PipelineSchedule, Stage, StageGraph,
    StageId, StageSchedule, Task,
};
use graphpipe::sim::{simulate_with, SimError, SimOptions, SimReport, TaskSpan};
use std::collections::HashMap;

type Key = (u32, u32, Pass);

fn reference(
    graph: &Graph,
    cluster: &Cluster,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
) -> Result<SimReport, SimError> {
    let cost = CostModel::new(cluster);
    let n_dev = cluster.device_count();
    let st = |s: u32| sg.stage(StageId(s));
    let dur = |s: u32, pass| cost.stage_time(graph, &st(s).ops, st(s).micro_batch, pass);
    let device = |s: u32, mb: u32| st(s).devices.first().0 + mb % st(s).dp_degree() as u32;
    // Transfer of the `from -> to` payload, sized by `owner`'s micro-batch.
    let hop = |from: u32, to: u32, owner: u32, src: u32, dst: u32| {
        let bytes = cost.crossing_bytes_per_sample(graph, &st(from).ops, &st(to).ops)
            * st(owner).micro_batch;
        if src == dst || bytes == 0 {
            0.0
        } else if cluster.node_of(DeviceId(src)) == cluster.node_of(DeviceId(dst)) {
            cluster.intra_link().transfer_time(bytes)
        } else {
            cluster.inter_link().transfer_time(bytes)
        }
    };
    let deps = |(s, mb, pass): Key| -> Vec<(Key, f64)> {
        let (me, b) = (device(s, mb), st(s).micro_batch);
        let mut out = Vec::new();
        if pass == Pass::Forward {
            for p in sg.preds(StageId(s)).iter().map(|p| p.0) {
                for q in covering_micro_batches(st(p).micro_batch, b, mb) {
                    out.push(((p, q, Pass::Forward), hop(p, s, s, device(p, q), me)));
                }
            }
        } else {
            out.push(((s, mb, Pass::Forward), 0.0));
            for t in sg.succs(StageId(s)).iter().map(|t| t.0) {
                for q in covering_micro_batches(st(t).micro_batch, b, mb) {
                    out.push(((t, q, Pass::Backward), hop(s, t, s, device(t, q), me)));
                }
            }
        }
        out
    };

    let mut queues: Vec<Vec<Key>> = vec![Vec::new(); n_dev];
    let mut cur_mem = vec![0u64; n_dev];
    for s in sg.stages() {
        for t in &schedule.stage(s.id).tasks {
            queues[device(s.id.0, t.mb) as usize].push((s.id.0, t.mb, t.pass));
        }
        let params = cost.stage_param_bytes(graph, &s.ops);
        for d in s.devices.iter() {
            cur_mem[d.index()] += params / BYTES_PER_ELEMENT * BYTES_PER_PARAM_STATE;
        }
    }
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut peak_mem = cur_mem.clone();
    let (mut busy_until, mut busy_total) = (vec![0.0f64; n_dev], vec![0.0f64; n_dev]);
    let mut start: HashMap<Key, f64> = HashMap::new();
    let mut end: HashMap<Key, f64> = HashMap::new();
    let mut head = vec![0usize; n_dev];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for d in 0..n_dev {
            while let Some(&task) = queues[d].get(head[d]) {
                let deps = deps(task);
                if deps.iter().any(|(k, _)| !end.contains_key(k)) {
                    break;
                }
                let ready = deps.iter().fold(0.0f64, |r, (k, h)| r.max(end[k] + h));
                let (t0, dt) = (busy_until[d].max(ready), dur(task.0, task.2));
                start.insert(task, t0);
                end.insert(task, t0 + dt);
                busy_until[d] = t0 + dt;
                busy_total[d] += dt;
                let s = st(task.0);
                let act = cost.stage_activation_bytes_per_sample(graph, &s.ops) * s.micro_batch;
                if task.2 == Pass::Forward {
                    cur_mem[d] += act;
                    peak_mem[d] = peak_mem[d].max(cur_mem[d]);
                } else {
                    cur_mem[d] -= act;
                }
                head[d] += 1;
                progressed = true;
            }
        }
    }
    if start.len() < total {
        return Err(SimError::Deadlock {
            completed: start.len(),
            total,
        });
    }

    let mut device_end = busy_until.clone();
    for s in sg.stages() {
        let ar = cost.allreduce_time(cost.stage_param_bytes(graph, &s.ops), &s.devices);
        if ar > 0.0 {
            let last = s
                .devices
                .iter()
                .map(|d| busy_until[d.index()])
                .fold(0.0, f64::max);
            for d in s.devices.iter() {
                device_end[d.index()] = device_end[d.index()].max(last + ar);
                busy_total[d.index()] += ar;
            }
        }
    }
    let iteration_time = device_end.iter().copied().fold(0.0f64, f64::max);
    let warmup_time = sg
        .stages()
        .map(|s| {
            start
                .iter()
                .filter(|(k, _)| k.0 == s.id.0)
                .map(|(_, &t)| t)
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0f64, f64::max);
    let mut timeline: Vec<TaskSpan> = start
        .iter()
        .map(|(&(s, mb, pass), &t)| TaskSpan {
            device: DeviceId(device(s, mb)),
            stage: StageId(s),
            mb,
            pass,
            start: t,
            end: end[&(s, mb, pass)],
        })
        .collect();
    timeline.sort_by(|a, b| {
        let tie = |t: &TaskSpan| (t.device, t.stage, t.mb, t.pass as u8);
        a.start.total_cmp(&b.start).then(tie(a).cmp(&tie(b)))
    });
    let busy_sum: f64 = busy_total.iter().sum();
    let utilization = if iteration_time > 0.0 {
        busy_sum / (iteration_time * n_dev as f64)
    } else {
        0.0
    };
    Ok(SimReport {
        iteration_time,
        throughput: sg.mini_batch() as f64 / iteration_time,
        utilization,
        bubble_fraction: 1.0 - utilization,
        warmup_time,
        per_device_busy: busy_total,
        peak_memory_bytes: peak_mem,
        timeline,
        mini_batch: sg.mini_batch(),
    })
}

/// Asserts two simulation results are identical. `Debug` prints every
/// float in its shortest round-trip form, so equal text means equal bits
/// in every field, and in the deadlock counts.
fn assert_same(want: &Result<SimReport, SimError>, got: &Result<SimReport, SimError>, what: &str) {
    assert_eq!(format!("{want:?}"), format!("{got:?}"), "{what}");
}

/// Compares the reference with the sequential engine and 2, 3 and 4
/// parallel workers.
fn check(
    model: &SpModel,
    cluster: &Cluster,
    sg: &StageGraph,
    schedule: &PipelineSchedule,
    what: &str,
) -> Result<SimReport, SimError> {
    let want = reference(model.graph(), cluster, sg, schedule);
    for workers in 1..=4 {
        let options = SimOptions::default().with_parallelism(workers);
        let got = simulate_with(model.graph(), cluster, sg, schedule, &options);
        assert_same(&want, &got, &format!("{what}, {workers} worker(s)"));
    }
    want
}

/// `branches` chains of `layers` dense layers, each fed by its own input,
/// concatenated into a head.
fn branchy_model(branches: usize, layers: usize) -> SpModel {
    let mut b = GraphBuilder::new();
    let (mut chains, mut outs) = (Vec::new(), Vec::new());
    for br in 0..branches {
        let mut cur = b.input(format!("in{br}"), Shape::vector(32));
        let mut chain = vec![SpBlock::Leaf(cur)];
        for l in 0..layers {
            cur = b.linear(format!("b{br}l{l}"), cur, 32, true).unwrap();
            chain.push(SpBlock::Leaf(cur));
        }
        outs.push(cur);
        chains.push(SpBlock::Chain(chain));
    }
    let cat = b.op("cat", OpKind::Concat, &outs).unwrap();
    let head = b.linear("head", cat, 1, true).unwrap();
    let loss = b.loss("loss", &[head]);
    let root = SpBlock::Chain(vec![
        SpBlock::Branches(chains),
        SpBlock::Leaf(cat),
        SpBlock::Leaf(head),
        SpBlock::Leaf(loss),
    ]);
    SpModel::new("branchy", b.finish().unwrap(), root).unwrap()
}

#[test]
fn both_engines_match_the_reference_bit_for_bit() {
    let (mut deadlocks, mut idle, mut zero, mut mixed, mut replicated) = (0, 0, 0, 0, 0);
    for seed in 0..120u64 {
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let model = branchy_model(1 + next(3) as usize, 1 + next(3) as usize);
        let ops = model.linearize();
        // Cut the topological order into contiguous (hence convex) stages;
        // sometimes isolate an input, a zero-duration stage.
        let mut cuts: Vec<usize> = (1..ops.len()).filter(|_| next(3) == 0).collect();
        let inputs: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(model.graph().node(ops[i]).kind, OpKind::Input))
            .collect();
        if next(2) == 0 {
            let i = inputs[next(inputs.len() as u64) as usize];
            cuts.extend([i, i + 1]);
        }
        cuts.extend([0, ops.len()]);
        cuts.sort_unstable();
        cuts.dedup();
        let n = cuts.len() - 1;
        let mini_batch = 8 << next(3);
        let dps: Vec<u32> = (0..n).map(|_| 1 + next(4) as u32).collect();
        let mbs: Vec<u64> = (0..n).map(|_| 1 << next(4)).collect();
        // Devices go to stages in a shuffled order, so device order and
        // stage order disagree.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, next(i as u64 + 1) as usize);
        }
        let mut first = vec![0u32; n];
        let mut used = 0;
        for &i in &order {
            first[i] = used;
            used += dps[i];
        }
        let stages = (0..n)
            .map(|i| Stage {
                id: StageId(i as u32),
                ops: ops[cuts[i]..cuts[i + 1]].to_vec(),
                devices: DeviceRange::new(first[i], dps[i]),
                micro_batch: mbs[i],
                kfkb: 1 + next(2),
            })
            .collect();
        let cluster = Cluster::summit_like(used as usize);
        let sg = StageGraph::new(model.graph(), &cluster, stages, mini_batch).unwrap();
        // A third of the cases draw random warm-ups, which may deadlock.
        let schedule = if next(3) == 0 {
            let per_stage = sg
                .stages()
                .map(|s| {
                    let m = s.num_micro_batches(mini_batch);
                    StageSchedule::kfkb(s.id, m, 1 + next(m), s.kfkb)
                })
                .collect();
            PipelineSchedule { per_stage }
        } else {
            schedule_tasks(&sg, &assign_in_flight(&sg))
        };
        let cost = CostModel::new(&cluster);
        for s in sg.stages() {
            let m = s.num_micro_batches(mini_batch);
            idle += usize::from(s.dp_degree() as u64 > m);
            replicated += usize::from(s.dp_degree() > 1);
            zero += usize::from(cost.stage_time(model.graph(), &s.ops, 1, Pass::Forward) == 0.0);
        }
        mixed += usize::from(mbs.iter().any(|&b| b != mbs[0]));
        let result = check(&model, &cluster, &sg, &schedule, &format!("seed {seed}"));
        deadlocks += usize::from(result.is_err());
    }
    // The generator reaches every case it is meant to cover.
    for (count, what) in [
        (deadlocks, "deadlocks"),
        (idle, "replicas without micro-batches"),
        (zero, "zero-duration stages"),
        (mixed, "mixed micro-batch sizes"),
        (replicated, "replicated stages"),
    ] {
        assert!(count >= 5, "only {count} cases with {what}");
    }
}

/// A two-stage chain: S0 on device 0, S1 replicated on devices 1 and 2,
/// both with micro-batch 2 over a mini-batch of 8 (4 micro-batches).
fn replicated_chain() -> (SpModel, Cluster, StageGraph) {
    let model = zoo::mlp_chain(2, 8);
    let cluster = Cluster::summit_like(3);
    let ops = model.linearize();
    let stage = |id: u32, ops: &[_], devices| Stage {
        id: StageId(id),
        ops: ops.to_vec(),
        devices,
        micro_batch: 2,
        kfkb: 1,
    };
    let stages = vec![
        stage(0, &ops[..3], DeviceRange::new(0, 1)),
        stage(1, &ops[3..], DeviceRange::new(1, 2)),
    ];
    let sg = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap();
    (model, cluster, sg)
}

#[test]
fn backward_queued_before_its_own_forward_deadlocks_identically() {
    let (model, cluster, sg) = replicated_chain();
    // Device 2 (micro-batches 1, 3 of S1) queues B(1) ahead of F(1) and
    // waits on itself; S0 then stalls at B(1). Device 1 finishes its four.
    use Pass::{Backward as B, Forward as F};
    let order = [
        (F, 0),
        (B, 1),
        (F, 1),
        (B, 0),
        (F, 2),
        (B, 2),
        (F, 3),
        (B, 3),
    ];
    let schedule = PipelineSchedule {
        per_stage: vec![
            StageSchedule::kfkb(StageId(0), 4, 2, 1),
            StageSchedule {
                stage: StageId(1),
                warmup: 1,
                tasks: order.map(|(pass, mb)| Task { pass, mb }).to_vec(),
            },
        ],
    };
    let result = check(&model, &cluster, &sg, &schedule, "B(1) before F(1)");
    assert_eq!(
        result.unwrap_err(),
        SimError::Deadlock {
            completed: 8,
            total: 16
        }
    );
}

#[test]
fn crossed_orders_at_dp_two_deadlock_identically() {
    let (model, cluster, sg) = replicated_chain();
    // S0 wants B(0) before F(1); S1 queues every forward first, so its
    // replica for micro-batches 0, 2 waits on F(2) and the other on F(1).
    let schedule = PipelineSchedule {
        per_stage: vec![
            StageSchedule::kfkb(StageId(0), 4, 1, 1),
            StageSchedule::kfkb(StageId(1), 4, 4, 1),
        ],
    };
    let result = check(&model, &cluster, &sg, &schedule, "crossed orders");
    assert_eq!(
        result.unwrap_err(),
        SimError::Deadlock {
            completed: 2,
            total: 16
        }
    );
}
