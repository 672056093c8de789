//! The invariant checks themselves: `verify_stages`, `verify_stage_graph`,
//! `verify_schedule`, `verify_plan`, and `verify_strategy`.
//!
//! Every check is named after its DESIGN.md §"Invariant catalog" entry (see
//! [`Check`]); the entry points compose so each caller pays only for the
//! structures it holds. None of the checks execute anything — the
//! deadlock-freedom certificate in particular is a topological argument
//! over the same task dependency graph `gp-sim` relaxes, not a simulation.

use crate::report::{Check, Location, VerifyReport, Violation};
use gp_cluster::Cluster;
use gp_cost::{CostModel, Pass};
use gp_ir::{Graph, SpModel};
use gp_partition::Plan;
use gp_sched::{
    assign_in_flight, covering_micro_batches, PipelineSchedule, ScheduleError, Stage, StageGraph,
    StageGraphError, StageId, TaskIndex,
};

/// Verifies the raw stage list against the model graph and cluster, before
/// (or without) a [`StageGraph`] existing: `mini-batch-positive`,
/// `stage-ids-dense`, `stage-nonempty`, `micro-batch-divides`,
/// `op-cover-exact`, `op-convex`, `device-bounds`, `device-overlap`,
/// `device-coverage`, and `stage-acyclic` over the data-derived stage DAG
/// (DESIGN.md §"Invariant catalog").
///
/// This is the codec's trust anchor: a decoded artifact's stages run
/// through here first, so a corrupted artifact is diagnosed by invariant
/// name instead of failing opaquely inside `StageGraph::new`.
pub fn verify_stages(
    graph: &Graph,
    cluster: &Cluster,
    stages: &[Stage],
    mini_batch: u64,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    if mini_batch == 0 {
        report.fail(
            Check::MiniBatchPositive,
            Location::global(),
            "mini-batch size is 0",
        );
    }
    if stages.is_empty() {
        report.fail(Check::OpCoverExact, Location::global(), "no stages");
        return report;
    }
    let mut ids_dense = true;
    for (i, s) in stages.iter().enumerate() {
        if s.id.index() != i {
            ids_dense = false;
            report.fail(
                Check::StageIdsDense,
                Location::stage(s.id),
                format!("stage at position {i} has id {}", s.id),
            );
        }
        if s.ops.is_empty() {
            report.fail(
                Check::StageNonEmpty,
                Location::stage(s.id),
                "stage holds no operators",
            );
        }
        if s.kfkb == 0 {
            report.fail(
                Check::StageNonEmpty,
                Location::stage(s.id),
                "kFkB parameter is 0",
            );
        }
        if s.micro_batch == 0 {
            report.fail(
                Check::MicroBatchDivides,
                Location::stage(s.id),
                "micro-batch size is 0",
            );
        } else if mini_batch > 0 && !mini_batch.is_multiple_of(s.micro_batch) {
            report.fail(
                Check::MicroBatchDivides,
                Location::stage(s.id),
                format!(
                    "micro-batch size {} does not divide mini-batch size {mini_batch}",
                    s.micro_batch
                ),
            );
        }
    }
    // C1, partition half: every operator covered exactly once, every
    // referenced operator in range.
    let mut ops_in_bounds = true;
    let mut cover_exact = true;
    let mut stage_of = vec![u32::MAX; graph.len()];
    for s in stages {
        for &op in &s.ops {
            if op.index() >= graph.len() {
                ops_in_bounds = false;
                cover_exact = false;
                report.fail(
                    Check::OpCoverExact,
                    Location::stage(s.id).at_op(op),
                    format!("references operator outside the {}-op graph", graph.len()),
                );
            } else if stage_of[op.index()] != u32::MAX {
                cover_exact = false;
                report.fail(
                    Check::OpCoverExact,
                    Location::stage(s.id).at_op(op),
                    format!(
                        "operator already assigned to stage S{}",
                        stage_of[op.index()]
                    ),
                );
            } else {
                stage_of[op.index()] = s.id.0;
            }
        }
    }
    for (i, &owner) in stage_of.iter().enumerate() {
        if owner == u32::MAX {
            cover_exact = false;
            report.fail(
                Check::OpCoverExact,
                Location::global().at_op(gp_ir::OpId(i as u32)),
                "operator is not assigned to any stage",
            );
        }
    }
    // C1, convexity half (needs in-bounds ops).
    if ops_in_bounds {
        for s in stages {
            if !graph.is_convex(&s.ops) {
                report.fail(
                    Check::OpConvex,
                    Location::stage(s.id),
                    "operator set is not a convex subgraph: a path leaves and re-enters it",
                );
            }
        }
    }
    // C3: device bounds, disjointness, exact coverage.
    for s in stages {
        if s.devices.last().index() >= cluster.device_count() {
            report.fail(
                Check::DeviceBounds,
                Location::stage(s.id).on_device(s.devices.last()),
                format!(
                    "device outside the {}-device cluster",
                    cluster.device_count()
                ),
            );
        }
    }
    for (i, a) in stages.iter().enumerate() {
        for b in &stages[i + 1..] {
            if a.devices.overlaps(&b.devices) {
                report.fail(
                    Check::DeviceOverlap,
                    Location::stage(a.id).on_device(b.devices.first().max(a.devices.first())),
                    format!("device ranges of {} and {} overlap", a.id, b.id),
                );
            }
        }
    }
    let assigned: usize = stages.iter().map(|s| s.devices.len()).sum();
    if assigned != cluster.device_count() {
        report.fail(
            Check::DeviceCoverage,
            Location::global(),
            format!(
                "stages assign {assigned} devices but the cluster has {}",
                cluster.device_count()
            ),
        );
    }
    // Acyclicity of the data-derived stage DAG. Needs dense ids and an
    // exact cover for a trustworthy `stage_of` table.
    if ids_dense && cover_exact {
        let n = stages.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (u, v) in graph.edges() {
            let (su, sv) = (stage_of[u.index()], stage_of[v.index()]);
            if su != sv && !succs[su as usize].contains(&sv) {
                succs[su as usize].push(sv);
                indeg[sv as usize] += 1;
            }
        }
        let mut stack: Vec<u32> = (0..n as u32).filter(|&s| indeg[s as usize] == 0).collect();
        let mut seen = 0usize;
        while let Some(s) = stack.pop() {
            seen += 1;
            for &t in &succs[s as usize] {
                indeg[t as usize] -= 1;
                if indeg[t as usize] == 0 {
                    stack.push(t);
                }
            }
        }
        if seen != n {
            let cyclic = indeg
                .iter()
                .position(|&d| d > 0)
                .map(|i| StageId(i as u32))
                .expect("an unprocessed stage retains in-degree");
            report.fail(
                Check::StageAcyclic,
                Location::stage(cyclic),
                format!("the data-derived stage DAG is cyclic ({seen}/{n} stages sort)"),
            );
        }
    }
    report
}

/// Verifies a constructed [`StageGraph`]: everything [`verify_stages`]
/// covers plus `edge-derivation` — every data-derived edge (condition C2)
/// must be recorded, and any extra recorded edge must be an imposed
/// sequential-chain edge `S_i -> S_{i+1}`; predecessor and successor lists
/// must mirror each other (DESIGN.md §"Invariant catalog").
///
/// `StageGraph::new` establishes these at construction; this re-proves
/// them for graphs that arrive through serialization or other
/// non-constructor paths.
pub fn verify_stage_graph(graph: &Graph, cluster: &Cluster, sg: &StageGraph) -> VerifyReport {
    let stages: Vec<Stage> = sg.stages().cloned().collect();
    let mut report = verify_stages(graph, cluster, &stages, sg.mini_batch());
    if !report.is_clean() {
        return report;
    }
    // Recorded edges: succs-derived, sorted by construction.
    let recorded = sg.stage_edges();
    // preds must mirror succs.
    let mut from_preds: Vec<(StageId, StageId)> = stages
        .iter()
        .flat_map(|s| sg.preds(s.id).iter().map(move |&p| (p, s.id)))
        .collect();
    from_preds.sort_unstable();
    if from_preds != recorded {
        report.fail(
            Check::EdgeDerivation,
            Location::global(),
            "stage predecessor and successor lists disagree",
        );
        return report;
    }
    // Every data edge must be recorded.
    let mut derived: Vec<(StageId, StageId)> = Vec::new();
    for (u, v) in graph.edges() {
        let (su, sv) = (sg.stage_of(u), sg.stage_of(v));
        if su != sv && !derived.contains(&(su, sv)) {
            derived.push((su, sv));
        }
    }
    derived.sort_unstable();
    for &(u, v) in &derived {
        if recorded.binary_search(&(u, v)).is_err() {
            report.fail(
                Check::EdgeDerivation,
                Location::stage(u),
                format!("data-derived stage edge {u} -> {v} is missing (C2)"),
            );
        }
    }
    // Extra recorded edges are only legitimate as sequential-chain edges.
    for &(u, v) in &recorded {
        let is_chain = v.0 == u.0 + 1;
        if derived.binary_search(&(u, v)).is_err() && !is_chain {
            report.fail(
                Check::EdgeDerivation,
                Location::stage(u),
                format!("recorded stage edge {u} -> {v} has no data edge and is not a chain edge"),
            );
        }
    }
    report
}

/// Verifies a schedule against its stage graph: `schedule-coverage`,
/// `task-multiset`, `forward-order`, `backward-order`,
/// `backward-after-forward`, `warmup-consistent`, and — when the structure
/// is sound — the `deadlock-free` topological certificate (DESIGN.md
/// §"Invariant catalog").
pub fn verify_schedule(sg: &StageGraph, schedule: &PipelineSchedule) -> VerifyReport {
    let mut report = VerifyReport::new();
    if schedule.per_stage.len() != sg.len() {
        report.fail(
            Check::ScheduleCoverage,
            Location::global(),
            format!(
                "schedule covers {} stages but the strategy has {}",
                schedule.per_stage.len(),
                sg.len()
            ),
        );
        return report;
    }
    for (i, ss) in schedule.per_stage.iter().enumerate() {
        if ss.stage.index() != i {
            report.fail(
                Check::ScheduleCoverage,
                Location::stage(ss.stage),
                format!("task order at position {i} names stage {}", ss.stage),
            );
        }
    }
    if !report.is_clean() {
        return report;
    }
    for ss in &schedule.per_stage {
        let m = sg.stage(ss.stage).num_micro_batches(sg.mini_batch());
        // C4 + exact multiset, scanned once. Forwards and backwards must
        // each run micro-batches 0..m in order, and no backward may precede
        // its own forward.
        let mut next_f = 0u64;
        let mut next_b = 0u64;
        let mut structural = true;
        for t in &ss.tasks {
            if (t.mb as u64) >= m {
                report.fail(
                    Check::TaskMultiset,
                    Location::stage(ss.stage).at_task(t.mb, t.pass),
                    format!("micro-batch beyond the stage's {m}"),
                );
                structural = false;
                continue;
            }
            match t.pass {
                Pass::Forward => {
                    if t.mb as u64 != next_f {
                        report.fail(
                            Check::ForwardOrder,
                            Location::stage(ss.stage).at_task(t.mb, t.pass),
                            format!("expected F({next_f}) next (C4)"),
                        );
                        structural = false;
                    }
                    next_f = (t.mb as u64).max(next_f) + 1;
                }
                Pass::Backward => {
                    if t.mb as u64 != next_b {
                        report.fail(
                            Check::BackwardOrder,
                            Location::stage(ss.stage).at_task(t.mb, t.pass),
                            format!("expected B({next_b}) next (C4)"),
                        );
                        structural = false;
                    }
                    if t.mb as u64 >= next_f {
                        report.fail(
                            Check::BackwardAfterForward,
                            Location::stage(ss.stage).at_task(t.mb, t.pass),
                            "backward precedes its own forward (C4)",
                        );
                        structural = false;
                    }
                    next_b = (t.mb as u64).max(next_b) + 1;
                }
            }
        }
        if structural && (next_f != m || next_b != m) {
            report.fail(
                Check::TaskMultiset,
                Location::stage(ss.stage),
                format!("ran {next_f} forwards and {next_b} backwards, expected {m} each"),
            );
        }
        let leading = ss
            .tasks
            .iter()
            .take_while(|t| t.pass == Pass::Forward)
            .count() as u64;
        if ss.warmup != leading {
            report.fail(
                Check::WarmupConsistent,
                Location::stage(ss.stage),
                format!(
                    "recorded warm-up {} but the order opens with {leading} forwards",
                    ss.warmup
                ),
            );
        }
    }
    // The certificate assumes per-stage orders are complete and in-range;
    // only run it once the structural checks hold.
    if report.is_clean() {
        deadlock_certificate(sg, schedule, &mut report);
    }
    report
}

/// Proves the schedule deadlock-free by topologically sorting the exact
/// task dependency graph the simulator executes (`deadlock-free`,
/// DESIGN.md §"Invariant catalog"): per-replica queue edges (replica
/// `mb % d` of a stage runs its tasks in schedule order), forward-pass
/// data edges over covering micro-batches of every predecessor stage, and
/// backward-pass edges from the task's own forward plus covering backwards
/// of every successor stage. If Kahn's algorithm consumes every task, no
/// execution of the fixed per-device orders can stall; otherwise the
/// lowest-indexed stuck task names the cycle (in [`TaskIndex`] order:
/// stage, then replica, then micro-batch).
fn deadlock_certificate(sg: &StageGraph, schedule: &PipelineSchedule, report: &mut VerifyReport) {
    let idx = TaskIndex::new(sg);
    let n = idx.len();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    // Queue edges: each replica executes its share of the stage order
    // serially (the simulator's device queues).
    for s in sg.stages() {
        let d = s.dp_degree() as u32;
        let mut prev: Vec<Option<usize>> = vec![None; d as usize];
        for t in &schedule.stage(s.id).tasks {
            let ti = idx.index(s.id, t.mb, t.pass);
            let r = (t.mb % d) as usize;
            if let Some(p) = prev[r] {
                succs[p].push(ti as u32);
                indeg[ti] += 1;
            }
            prev[r] = Some(ti);
        }
    }
    // Data edges, mirroring `gp-sim`'s `ready_time`.
    for s in sg.stages() {
        let m = s.num_micro_batches(sg.mini_batch()) as u32;
        for mb in 0..m {
            let f = idx.index(s.id, mb, Pass::Forward);
            for &p in sg.preds(s.id) {
                for mb_p in covering_micro_batches(sg.stage(p).micro_batch, s.micro_batch, mb) {
                    let dep = idx.index(p, mb_p, Pass::Forward);
                    succs[dep].push(f as u32);
                    indeg[f] += 1;
                }
            }
            let b = idx.index(s.id, mb, Pass::Backward);
            succs[f].push(b as u32);
            indeg[b] += 1;
            for &t in sg.succs(s.id) {
                for mb_t in covering_micro_batches(sg.stage(t).micro_batch, s.micro_batch, mb) {
                    let dep = idx.index(t, mb_t, Pass::Backward);
                    succs[dep].push(b as u32);
                    indeg[b] += 1;
                }
            }
        }
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&t| indeg[t as usize] == 0).collect();
    let mut done = 0usize;
    while let Some(t) = stack.pop() {
        done += 1;
        for &u in &succs[t as usize] {
            indeg[u as usize] -= 1;
            if indeg[u as usize] == 0 {
                stack.push(u);
            }
        }
    }
    if done != n {
        let stuck = indeg
            .iter()
            .position(|&d| d > 0)
            .expect("an unschedulable task retains in-degree");
        let (stage, mb, pass) = idx.task_at(stuck);
        let s = sg.stage(stage);
        let dev = gp_cluster::DeviceId(s.devices.first().0 + mb % s.dp_degree() as u32);
        report.fail(
            Check::DeadlockFree,
            Location::stage(stage).on_device(dev).at_task(mb, pass),
            format!("task can never run: the dependency graph has a cycle ({done}/{n} tasks sort)"),
        );
    }
}

/// Verifies a complete [`Plan`]: the stage graph and schedule, plus
/// `in-flight-consistent` (the recorded table equals the `ComputeInFlight`
/// recomputation), `stash-bound` (the schedule never holds more
/// micro-batches in flight than the table budgets), `memory-budget`
/// (Equation 2 per stage), `estimate-consistent` (the fingerprinted
/// estimates equal their cost-model recomputation bit-exactly), and
/// `estimate-finite` (DESIGN.md §"Invariant catalog").
pub fn verify_plan(graph: &Graph, cluster: &Cluster, plan: &Plan) -> VerifyReport {
    let sg = &plan.stage_graph;
    let mut report = verify_stage_graph(graph, cluster, sg);
    if !plan.bottleneck_tps.is_finite() || plan.bottleneck_tps < 0.0 {
        report.fail(
            Check::EstimateFinite,
            Location::global(),
            format!(
                "bottleneck TPS {} is not a finite non-negative value",
                plan.bottleneck_tps
            ),
        );
    }
    if !report.is_clean() {
        return report;
    }
    if plan.in_flight.len() != sg.len() {
        report.fail(
            Check::InFlightConsistent,
            Location::global(),
            format!(
                "in-flight table covers {} stages but the strategy has {}",
                plan.in_flight.len(),
                sg.len()
            ),
        );
        return report;
    }
    let expected = assign_in_flight(sg);
    for s in sg.stages() {
        if plan.in_flight.samples(s.id) != expected.samples(s.id) {
            report.fail(
                Check::InFlightConsistent,
                Location::stage(s.id),
                format!(
                    "in-flight table records {} samples but ComputeInFlight yields {}",
                    plan.in_flight.samples(s.id),
                    expected.samples(s.id)
                ),
            );
        }
    }
    report.merge(verify_schedule(sg, &plan.schedule));
    if !report.is_clean() {
        return report;
    }
    // The in-flight budget is charged in whole micro-batches (see
    // `CostModel::in_flight_per_replica`), so the bound compares
    // micro-batch counts.
    for s in sg.stages() {
        let held = plan.schedule.stage(s.id).peak_in_flight_micro_batches();
        let budget = plan.in_flight.micro_batches(sg, s.id);
        if held > budget {
            report.fail(
                Check::StashBound,
                Location::stage(s.id),
                format!(
                    "schedule holds {held} micro-batches in flight but the table budgets {budget}"
                ),
            );
        }
    }
    let cost = CostModel::new(cluster);
    for s in sg.stages() {
        let bytes = cost.stage_memory_bytes(
            graph,
            &s.ops,
            plan.in_flight.samples(s.id),
            s.micro_batch,
            s.dp_degree(),
        );
        if bytes > cost.memory_budget() {
            report.fail(
                Check::MemoryBudget,
                Location::stage(s.id).on_device(s.devices.first()),
                format!(
                    "needs {bytes} bytes per device, budget is {} (Equation 2)",
                    cost.memory_budget()
                ),
            );
        }
    }
    let (tps, mem) = plan.measure(graph, &cost);
    if plan.bottleneck_tps.to_bits() != tps.to_bits() {
        report.fail(
            Check::EstimateConsistent,
            Location::global(),
            format!(
                "recorded bottleneck TPS {:e} but the cost model yields {tps:e}",
                plan.bottleneck_tps
            ),
        );
    }
    if plan.peak_memory_bytes != mem {
        report.fail(
            Check::EstimateConsistent,
            Location::global(),
            format!(
                "recorded peak memory {} bytes but the cost model yields {mem}",
                plan.peak_memory_bytes
            ),
        );
    }
    report
}

/// Verifies a plan against its source model: `sp-cover-exact`,
/// `sp-topo-order`, `sp-edge-cover`, `distortion-exact` and
/// `plan-path-consistent` over the model's SP tree and plan path, then
/// everything [`verify_plan`] covers (DESIGN.md §"Invariant catalog").
/// This is the check `Session::plan` and `Session::load_artifact` run at
/// their trust boundaries.
pub fn verify_strategy(model: &SpModel, cluster: &Cluster, plan: &Plan) -> VerifyReport {
    let graph = model.graph();
    let mut report = VerifyReport::new();
    let order = model.linearize();
    let mut seen = vec![false; graph.len()];
    let mut sp_cover = order.len() == graph.len();
    for &op in &order {
        if op.index() >= graph.len() || seen[op.index()] {
            sp_cover = false;
            break;
        }
        seen[op.index()] = true;
    }
    if !sp_cover {
        report.fail(
            Check::SpCoverExact,
            Location::global(),
            format!(
                "SP tree names {} operators, graph has {}; coverage must be exactly one-to-one",
                order.len(),
                graph.len()
            ),
        );
    } else if !graph.is_topo_order(&order) {
        report.fail(
            Check::SpTopoOrder,
            Location::global(),
            "the SP tree's series linearization is not a topological order of the graph",
        );
    } else {
        // With a one-to-one topological tree established, the edge and
        // distortion accounting of the DAG ladder becomes checkable.
        let violations = gp_ir::dag::edge_cover_violations(graph, model.root());
        if let Some(&(u, v)) = violations.first() {
            report.fail(
                Check::SpEdgeCover,
                Location::global().at_op(u),
                format!(
                    "the SP tree does not admit data edge {u} -> {v} ({} edge(s) lost); \
                     an SP-ized plan must cover the original dependency set",
                    violations.len()
                ),
            );
        } else if let gp_ir::PlanPath::SpIzed { distortion } = model.path() {
            let recomputed = gp_ir::dag::transit_volume(graph, model.root());
            if distortion != recomputed {
                report.fail(
                    Check::DistortionExact,
                    Location::global(),
                    format!(
                        "plan path reports distortion {distortion} bytes but the tree's \
                         transit volume recomputes to {recomputed}"
                    ),
                );
            }
        }
    }
    if plan.path != model.path() {
        report.fail(
            Check::PlanPathConsistent,
            Location::global(),
            format!(
                "plan records path `{}` but the model took `{}`",
                plan.path,
                model.path()
            ),
        );
    } else if let gp_ir::PlanPath::Clustered { units } = plan.path {
        if units == 0 || units as usize > graph.len() {
            report.fail(
                Check::PlanPathConsistent,
                Location::global(),
                format!(
                    "clustered plan path reports {units} units for a {}-operator graph; \
                     expected 1..={}",
                    graph.len(),
                    graph.len()
                ),
            );
        }
    }
    report.merge(verify_plan(graph, cluster, plan));
    report
}

/// Maps a [`StageGraphError`] (from `StageGraph::new`) to its catalog
/// violation, so constructor failures report the same names as the
/// analyzer.
pub fn violation_of_stage_graph_error(e: &StageGraphError) -> Violation {
    let (check, location) = match e {
        StageGraphError::NotAPartition(op) => (Check::OpCoverExact, Location::global().at_op(*op)),
        StageGraphError::NotConvex(s) => (Check::OpConvex, Location::stage(*s)),
        StageGraphError::CyclicStages => (Check::StageAcyclic, Location::global()),
        StageGraphError::DeviceOverlap(a, _) => (Check::DeviceOverlap, Location::stage(*a)),
        StageGraphError::DeviceCoverage { .. } => (Check::DeviceCoverage, Location::global()),
        StageGraphError::BadMicroBatch(s) => (Check::MicroBatchDivides, Location::stage(*s)),
        StageGraphError::EmptyStage(s) => (Check::StageNonEmpty, Location::stage(*s)),
    };
    Violation::new(check, location, e.to_string())
}

/// Maps a [`ScheduleError`] (from `validate_c4`) to its catalog violation.
pub fn violation_of_schedule_error(e: &ScheduleError) -> Violation {
    let (check, location) = match e {
        ScheduleError::ForwardOrder(s) => (Check::ForwardOrder, Location::stage(*s)),
        ScheduleError::BackwardOrder(s) => (Check::BackwardOrder, Location::stage(*s)),
        ScheduleError::BackwardBeforeForward(s, mb) => (
            Check::BackwardAfterForward,
            Location::stage(*s).at_task(*mb, Pass::Backward),
        ),
        ScheduleError::WrongTaskCount(s) => (Check::TaskMultiset, Location::stage(*s)),
    };
    Violation::new(check, location, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::DeviceRange;
    use gp_ir::zoo;
    use gp_partition::{GraphPipePlanner, Planner};
    use gp_sched::{schedule_tasks, StageSchedule, Task};

    fn chain_plan() -> (SpModel, Cluster, Plan) {
        let model = zoo::mlp_chain(4, 16);
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        (model, cluster, plan)
    }

    /// A hand-assembled two-stage pipeline (no planner): guarantees an
    /// upstream stage with warm-up >= 2 and stash head-room, which the
    /// planner's preferred strategy for a small chain may not exhibit.
    fn two_stage_plan(mini_batch: u64, micro_batch: u64) -> (SpModel, Cluster, Plan) {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(2);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(model.graph(), &cluster, stages, mini_batch).unwrap();
        let in_flight = assign_in_flight(&sg);
        let schedule = schedule_tasks(&sg, &in_flight);
        let mut plan = Plan {
            stage_graph: sg,
            in_flight,
            schedule,
            bottleneck_tps: 0.0,
            peak_memory_bytes: 0,
            path: gp_ir::PlanPath::ExactSp,
            stats: gp_partition::SearchStats::default(),
        };
        let cost = CostModel::new(&cluster);
        let (tps, mem) = plan.measure(model.graph(), &cost);
        plan.bottleneck_tps = tps;
        plan.peak_memory_bytes = mem;
        (model, cluster, plan)
    }

    #[test]
    fn hand_assembled_plan_verifies_clean() {
        let (model, cluster, plan) = two_stage_plan(16, 4);
        let report = verify_strategy(&model, &cluster, &plan);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn planner_output_verifies_clean() {
        let (model, cluster, plan) = chain_plan();
        let report = verify_strategy(&model, &cluster, &plan);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn branching_model_verifies_clean() {
        let model = zoo::candle_uno(&zoo::CandleUnoConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 32).unwrap();
        let report = verify_strategy(&model, &cluster, &plan);
        assert!(report.is_clean(), "{report}");
    }

    /// Hand-built raw stage list with every placement defect at once: the
    /// report must name each violated invariant.
    #[test]
    fn raw_stage_defects_are_all_named() {
        let model = zoo::mlp_chain(4, 16);
        let g = model.graph();
        let cluster = Cluster::summit_like(4);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..2].to_vec(), // leaves the rest uncovered
                devices: DeviceRange::new(0, 2),
                micro_batch: 3, // does not divide 32
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: ops[..2].to_vec(),          // duplicates stage 0's ops
                devices: DeviceRange::new(1, 4), // overlaps + out of bounds
                micro_batch: 4,
                kfkb: 0, // empty-stage defect
            },
        ];
        let report = verify_stages(g, &cluster, &stages, 32);
        for check in [
            Check::MicroBatchDivides,
            Check::StageNonEmpty,
            Check::OpCoverExact,
            Check::DeviceBounds,
            Check::DeviceOverlap,
            Check::DeviceCoverage,
        ] {
            assert!(report.violates(check), "missing {check}:\n{report}");
        }
    }

    #[test]
    fn zero_mini_batch_is_named() {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(1);
        let ops = model.linearize();
        let stages = vec![Stage {
            id: StageId(0),
            ops,
            devices: DeviceRange::new(0, 1),
            micro_batch: 2,
            kfkb: 1,
        }];
        let report = verify_stages(model.graph(), &cluster, &stages, 0);
        assert!(report.violates(Check::MiniBatchPositive), "{report}");
    }

    #[test]
    fn non_convex_stage_is_named() {
        let model = zoo::mlp_chain(2, 8);
        let g = model.graph();
        let cluster = Cluster::summit_like(2);
        let ops = model.linearize();
        let mut s0 = vec![ops[0], ops[2]];
        let mut s1 = vec![ops[1]];
        s1.extend_from_slice(&ops[3..]);
        s0.sort();
        s1.sort();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: s0,
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: s1,
                devices: DeviceRange::new(1, 1),
                micro_batch: 2,
                kfkb: 1,
            },
        ];
        let report = verify_stages(g, &cluster, &stages, 8);
        assert!(report.violates(Check::OpConvex), "{report}");
        assert!(report.violates(Check::StageAcyclic), "{report}");
    }

    #[test]
    fn schedule_defects_are_named() {
        let (_, _, plan) = two_stage_plan(16, 4);
        let sg = &plan.stage_graph;

        // Dropped task order.
        let mut sched = plan.schedule.clone();
        sched.per_stage.pop();
        assert!(verify_schedule(sg, &sched).violates(Check::ScheduleCoverage));

        // Swapped warm-up forwards (C4 order) on a stage with warmup >= 2.
        let mut sched = plan.schedule.clone();
        let victim = sched
            .per_stage
            .iter_mut()
            .find(|s| s.warmup >= 2)
            .expect("an upstream stage warms up at least 2");
        victim.tasks.swap(0, 1);
        assert!(verify_schedule(sg, &sched).violates(Check::ForwardOrder));

        // Dropped trailing backward: wrong multiset.
        let mut sched = plan.schedule.clone();
        sched.per_stage[0].tasks.pop();
        assert!(verify_schedule(sg, &sched).violates(Check::TaskMultiset));

        // Backward before its forward.
        let mut sched = plan.schedule.clone();
        let tasks = &mut sched.per_stage[0].tasks;
        let last = tasks.len() - 1;
        tasks.swap(0, last); // B(m-1) first, F(0) last
        let report = verify_schedule(sg, &sched);
        assert!(report.violates(Check::BackwardAfterForward), "{report}");

        // Inflated warm-up record.
        let mut sched = plan.schedule.clone();
        sched.per_stage[0].warmup += 1;
        assert!(verify_schedule(sg, &sched).violates(Check::WarmupConsistent));
    }

    /// Two C4-valid stage orders that deadlock against each other: S0 wants
    /// B(0) before F(1), but S1 backs up B(0) behind F(1) which needs S0's
    /// F(1). Only the topological certificate catches this.
    #[test]
    fn deadlock_certificate_catches_crossed_orders() {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(2);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 4,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 1),
                micro_batch: 4,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap();
        let f = |mb| Task {
            pass: Pass::Forward,
            mb,
        };
        let b = |mb| Task {
            pass: Pass::Backward,
            mb,
        };
        let deadlocked = PipelineSchedule {
            per_stage: vec![
                StageSchedule {
                    stage: StageId(0),
                    warmup: 1,
                    tasks: vec![f(0), b(0), f(1), b(1)],
                },
                StageSchedule {
                    stage: StageId(1),
                    warmup: 2,
                    tasks: vec![f(0), f(1), b(0), b(1)],
                },
            ],
        };
        // Both orders satisfy C4 in isolation...
        deadlocked.validate_c4(&sg).unwrap();
        // ...but the cross-stage dependency graph is cyclic.
        let report = verify_schedule(&sg, &deadlocked);
        assert!(report.violates(Check::DeadlockFree), "{report}");
        // The working order (enough warm-up upstream) proves clean.
        let fine = schedule_tasks(&sg, &assign_in_flight(&sg));
        assert!(verify_schedule(&sg, &fine).is_clean());
    }

    /// The crossed-order deadlock with a replicated downstream stage: S1
    /// runs micro-batches 0, 2 on device 1 and 1, 3 on device 2, so the
    /// certificate has to follow the per-replica queue edges.
    #[test]
    fn deadlock_certificate_catches_crossed_orders_at_dp_two() {
        let model = zoo::mlp_chain(2, 8);
        let cluster = Cluster::summit_like(3);
        let ops = model.linearize();
        let stages = vec![
            Stage {
                id: StageId(0),
                ops: ops[..3].to_vec(),
                devices: DeviceRange::new(0, 1),
                micro_batch: 2,
                kfkb: 1,
            },
            Stage {
                id: StageId(1),
                ops: ops[3..].to_vec(),
                devices: DeviceRange::new(1, 2),
                micro_batch: 2,
                kfkb: 1,
            },
        ];
        let sg = StageGraph::new(model.graph(), &cluster, stages, 8).unwrap();
        // S0 wants B(0) before F(1); S1 backs B(0) up behind every forward.
        let deadlocked = PipelineSchedule {
            per_stage: vec![
                StageSchedule::kfkb(StageId(0), 4, 1, 1),
                StageSchedule::kfkb(StageId(1), 4, 4, 1),
            ],
        };
        deadlocked.validate_c4(&sg).unwrap();
        let report = verify_schedule(&sg, &deadlocked);
        assert!(report.violates(Check::DeadlockFree), "{report}");
        let fine = schedule_tasks(&sg, &assign_in_flight(&sg));
        assert!(verify_schedule(&sg, &fine).is_clean());
    }

    #[test]
    fn plan_level_defects_are_named() {
        let (model, cluster, plan) = chain_plan();
        let g = model.graph();

        // Corrupted in-flight table.
        let mut bad = plan.clone();
        let mut samples: Vec<u64> = bad
            .stage_graph
            .stages()
            .map(|s| bad.in_flight.samples(s.id))
            .collect();
        samples[0] += 1;
        bad.in_flight = gp_sched::InFlightTable::from_samples(samples);
        assert!(verify_plan(g, &cluster, &bad).violates(Check::InFlightConsistent));

        // Truncated in-flight table.
        let mut bad = plan.clone();
        bad.in_flight = gp_sched::InFlightTable::from_samples(vec![4]);
        if bad.stage_graph.len() > 1 {
            assert!(verify_plan(g, &cluster, &bad).violates(Check::InFlightConsistent));
        }

        // Drifted TPS estimate.
        let mut bad = plan.clone();
        bad.bottleneck_tps *= 1.0 + 1e-12;
        assert!(verify_plan(g, &cluster, &bad).violates(Check::EstimateConsistent));

        // Drifted memory estimate.
        let mut bad = plan.clone();
        bad.peak_memory_bytes += 1;
        assert!(verify_plan(g, &cluster, &bad).violates(Check::EstimateConsistent));

        // Non-finite estimate.
        let mut bad = plan.clone();
        bad.bottleneck_tps = f64::NAN;
        assert!(verify_plan(g, &cluster, &bad).violates(Check::EstimateFinite));
    }

    #[test]
    fn stash_bound_catches_oversized_schedule() {
        let (model, cluster, plan) = two_stage_plan(16, 4);
        let g = model.graph();
        // Rebuild stage 0's order with twice the warm-up: C4 still holds,
        // in-flight table still matches the graph, but the realized stash
        // exceeds the budget.
        let mut bad = plan.clone();
        let s0 = &bad.stage_graph.stage(StageId(0)).clone();
        let m = s0.num_micro_batches(bad.stage_graph.mini_batch());
        let budget = bad.in_flight.micro_batches(&bad.stage_graph, StageId(0));
        assert!(budget < m, "need head-room to oversubscribe");
        bad.schedule.per_stage[0] = StageSchedule::kfkb(StageId(0), m, budget + 1, s0.kfkb);
        let report = verify_plan(g, &cluster, &bad);
        assert!(report.violates(Check::StashBound), "{report}");
    }

    #[test]
    fn memory_budget_catches_tiny_cluster() {
        let (model, cluster, plan) = chain_plan();
        // Same plan, but judged against devices with 1 KiB of memory.
        let tiny = cluster.with_memory_capacity(1 << 10);
        let report = verify_plan(model.graph(), &tiny, &plan);
        assert!(report.violates(Check::MemoryBudget), "{report}");
        // The estimates were computed against the real cluster, so they
        // drift too — but memory-budget must be named independently.
        assert!(!report.is_clean());
    }

    #[test]
    fn error_mappers_cover_every_variant() {
        use gp_ir::OpId;
        let cases = [
            (
                violation_of_stage_graph_error(&StageGraphError::NotAPartition(OpId(3))),
                Check::OpCoverExact,
            ),
            (
                violation_of_stage_graph_error(&StageGraphError::NotConvex(StageId(1))),
                Check::OpConvex,
            ),
            (
                violation_of_stage_graph_error(&StageGraphError::CyclicStages),
                Check::StageAcyclic,
            ),
            (
                violation_of_stage_graph_error(&StageGraphError::DeviceOverlap(
                    StageId(0),
                    StageId(1),
                )),
                Check::DeviceOverlap,
            ),
            (
                violation_of_stage_graph_error(&StageGraphError::DeviceCoverage {
                    assigned: 2,
                    available: 4,
                }),
                Check::DeviceCoverage,
            ),
            (
                violation_of_stage_graph_error(&StageGraphError::BadMicroBatch(StageId(2))),
                Check::MicroBatchDivides,
            ),
            (
                violation_of_stage_graph_error(&StageGraphError::EmptyStage(StageId(2))),
                Check::StageNonEmpty,
            ),
            (
                violation_of_schedule_error(&ScheduleError::ForwardOrder(StageId(0))),
                Check::ForwardOrder,
            ),
            (
                violation_of_schedule_error(&ScheduleError::BackwardOrder(StageId(0))),
                Check::BackwardOrder,
            ),
            (
                violation_of_schedule_error(&ScheduleError::BackwardBeforeForward(StageId(0), 2)),
                Check::BackwardAfterForward,
            ),
            (
                violation_of_schedule_error(&ScheduleError::WrongTaskCount(StageId(0))),
                Check::TaskMultiset,
            ),
        ];
        for (violation, expected) in cases {
            assert_eq!(violation.check, expected, "{violation}");
            assert!(!violation.detail.is_empty());
        }
    }
}
