//! `sim-scale`: the simulator at scale, with no planner search. A closed
//! loop with one client; each operation is one cell — a hand-built scaled
//! strategy (the linearized model cut into equal contiguous chunks, each
//! chunk data-parallel over `devices / stages` GPUs, as in `sim_profile`)
//! taken through `sched::assign_in_flight` + `sched::schedule_tasks` and
//! then `sim::simulate`.
//!
//! The seed only permutes the cell order of each pass; the cells, and
//! therefore the reports, are fixed and pinned.

use crate::models;
use crate::report::{median, passes, percentile, Passes, Report, Rng};
use crate::speed::HostSpeed;
use crate::trace::{self, Tracer};
use graphpipe::prelude::*;
use graphpipe::sched::{assign_in_flight, schedule_tasks, Stage, StageGraph, StageId};
use std::sync::Arc;
use std::time::Instant;

pub const MODELS: [&str; 5] = ["mmt", "dlrm", "candle-uno", "candle-uno-full", "moe"];
pub const DEVICES: [usize; 2] = [64, 512];
const MICRO_BATCHES: u64 = 10_000;
/// Per-stage micro-batch size of the scaled strategies (as `sim_profile`).
const MICRO_BATCH: u64 = 4;

/// Pinned `SimReport` fingerprints, `(model, devices, fingerprint)`.
#[rustfmt::skip]
const PINS: &[(&str, usize, &str)] = &[
    ("mmt", 64, "f4f2b99b108cd047"),
    ("mmt", 512, "3a4b5aa35f40af01"),
    ("dlrm", 64, "0f8103e2f677c830"),
    ("dlrm", 512, "7b22ea4a081f1133"),
    ("candle-uno", 64, "898df7accd1166e8"),
    ("candle-uno", 512, "29da3152d0e43f80"),
    ("candle-uno-full", 64, "5023da59a75328ca"),
    ("candle-uno-full", 512, "7c6a456857de16af"),
    ("moe", 64, "8f55ea84f35c8cd3"),
    ("moe", 512, "ced0ef05fee518eb"),
];

struct Cell {
    model_name: &'static str,
    devices: usize,
    model: Arc<SpModel>,
    cluster: Cluster,
    stage_graph: StageGraph,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}-{}", self.model_name, self.devices)
    }

    /// Simulated tasks: stage × micro-batch × pass (forward, backward).
    fn tasks(&self) -> u64 {
        self.stage_graph.len() as u64 * MICRO_BATCHES * 2
    }
}

pub struct SimScale {
    cells: Vec<Cell>,
}

/// The scaled stage graph: up to 64 equal contiguous chunks of the
/// linearized model (convex by construction), each replicated over
/// `devices / stages` GPUs.
fn scaled_stage_graph(model: &SpModel, cluster: &Cluster) -> StageGraph {
    let devices = cluster.device_count();
    let ops = model.linearize();
    let mut nstages = devices.min(64);
    while nstages > ops.len() {
        nstages /= 2;
    }
    let dp = (devices / nstages) as u32;
    let stages: Vec<Stage> = (0..nstages)
        .map(|i| Stage {
            id: StageId(i as u32),
            ops: ops[i * ops.len() / nstages..(i + 1) * ops.len() / nstages].to_vec(),
            devices: DeviceRange::new(i as u32 * dp, dp),
            micro_batch: MICRO_BATCH,
            kfkb: 1,
        })
        .collect();
    StageGraph::new(model.graph(), cluster, stages, MICRO_BATCH * MICRO_BATCHES)
        .expect("scaled strategies are valid stage graphs")
}

/// Builds the models, clusters and stage graphs.
pub fn setup() -> SimScale {
    let mut cells = Vec::new();
    for name in MODELS {
        for devices in DEVICES {
            let model = models::build(name, false);
            let cluster = Cluster::summit_like(devices);
            let stage_graph = scaled_stage_graph(&model, &cluster);
            cells.push(Cell {
                model_name: name,
                devices,
                model,
                cluster,
                stage_graph,
            });
        }
    }
    SimScale { cells }
}

fn report_bytes(report: &SimReport) -> usize {
    report.timeline.capacity() * std::mem::size_of::<graphpipe::sim::TaskSpan>()
        + report.per_device_busy.capacity() * std::mem::size_of::<f64>()
        + report.peak_memory_bytes.capacity() * std::mem::size_of::<u64>()
}

fn check_pin(cell: &Cell, report: &SimReport, what: &str) -> Result<(), String> {
    let fp = format!("{:016x}", report.fingerprint());
    match PINS
        .iter()
        .find(|(m, d, _)| *m == cell.model_name && *d == cell.devices)
    {
        Some((_, _, pin)) if *pin == fp => Ok(()),
        _ => Err(format!(
            "{}: {what} report fingerprint differs from the pin: (\"{}\", {}, \"{fp}\")",
            cell.label(),
            cell.model_name,
            cell.devices
        )),
    }
}

/// Runs one cell; returns its wall and report size.
fn run_cell(cell: &Cell, tracer: &Tracer) -> Result<(f64, usize), String> {
    let label = cell.label();
    let t0 = Instant::now();
    let op = tracer.labelled("sim-scale.cell", || label.clone());
    let schedule = {
        let _s = tracer.span("sched.schedule");
        schedule_tasks(&cell.stage_graph, &assign_in_flight(&cell.stage_graph))
    };
    let report = {
        let _s = tracer.labelled("sim.simulate", || label.clone());
        graphpipe::sim::simulate(
            cell.model.graph(),
            &cell.cluster,
            &cell.stage_graph,
            &schedule,
        )
        .map_err(|e| format!("{label}: simulation failed: {e}"))?
    };
    drop(op);
    let wall = t0.elapsed().as_secs_f64();
    check_pin(cell, &report, "sequential")?;
    Ok((wall, report_bytes(&report)))
}

struct Phase {
    passes: Passes,
    /// Each cell's report size.
    report_bytes: Vec<usize>,
}

fn measure(
    sim: &SimScale,
    rng: &mut Rng,
    seconds: f64,
    speed: &mut HostSpeed,
    tracer: &Tracer,
    out: &mut Report,
) -> Phase {
    let mut report_bytes = vec![0; sim.cells.len()];
    let passes = passes(sim.cells.len(), rng, seconds, speed, out, |i| {
        run_cell(&sim.cells[i], tracer).map(|(wall, bytes)| {
            report_bytes[i] = bytes;
            wall
        })
    });
    Phase {
        passes,
        report_bytes,
    }
}

pub fn run(
    sim: &SimScale,
    seed: u64,
    seconds: f64,
    speed: &mut HostSpeed,
    tracer: &Tracer,
    out: &mut Report,
) {
    let mut rng = Rng::new(seed);
    let tasks: u64 = sim.cells.iter().map(Cell::tasks).sum();
    if !tracer.enabled() {
        let phase = measure(sim, &mut rng, seconds, speed, tracer, out);
        // Percentiles over the cells' median walls, so they do not depend
        // on which cells ran one more time.
        let cells = phase.passes.cell_medians_ms();
        let rate = tasks as f64 / phase.passes.pass_s();
        out.end_to_end(
            "throughput_per_s",
            rate,
            phase.passes.cells_run,
            "simulated tasks per second (sim_tasks_per_s)",
        );
        out.end_to_end(
            "p50_ms",
            percentile(&cells, 0.5),
            cells.len(),
            "median over cells of each cell's median wall",
        );
        out.end_to_end(
            "p99_ms",
            percentile(&cells, 0.99),
            cells.len(),
            "p99 over cells of each cell's median wall (the slowest cell)",
        );
        out.extra(
            "sim_tasks_per_s",
            "1/s",
            rate,
            phase.passes.min_runs(),
            "tasks of one pass / sum of per-cell median walls (n = passes)",
        );
        return;
    }

    let base = measure(
        sim,
        &mut rng,
        seconds / 2.0,
        speed,
        &Tracer::new(false),
        out,
    );
    let phase = measure(sim, &mut rng, seconds / 2.0, speed, tracer, out);
    parallel_relaxation(sim, tracer, out);
    let calls = tracer.calls();
    let ops = phase.passes.cells_run as f64;
    out.layer(
        "sched.schedule_ms",
        "ms",
        trace::self_ms(&calls, "sched.schedule") / ops,
    );
    out.layer(
        "sim.simulate_ms",
        "ms",
        trace::self_ms(&calls, "sim.simulate") / ops,
    );
    for cell in &sim.cells {
        let label = cell.label();
        out.layer(
            format!("sim.simulate_ms.{label}"),
            "ms",
            median(&trace::durations_ms(&calls, "sim.simulate", &label)),
        );
    }
    let w2 = trace::all_durations_ms(&calls, "sim.simulate.w2");
    out.layer(
        "sim.simulate_ms.w2",
        "ms",
        w2.iter().sum::<f64>() / w2.len().max(1) as f64,
    );
    out.layer("sim.tasks", "count", tasks as f64);
    out.layer(
        "sim.report_bytes",
        "B",
        phase.report_bytes.iter().sum::<usize>() as f64 / sim.cells.len() as f64,
    );
    out.layer(
        "sim-scale.residual_ms",
        "ms",
        trace::self_ms(&calls, "sim-scale.cell") / ops,
    );
    out.layer(
        "obs.overhead_ratio",
        "ratio",
        phase.passes.pass_s() / base.passes.pass_s(),
    );
}

/// `relax_parallel` at 2 workers, once per cell; its reports must equal
/// the sequential engine's (the same pins).
fn parallel_relaxation(sim: &SimScale, tracer: &Tracer, out: &mut Report) {
    let options = SimOptions::default().with_parallelism(2);
    for cell in &sim.cells {
        let schedule = schedule_tasks(&cell.stage_graph, &assign_in_flight(&cell.stage_graph));
        let result = {
            let _s = tracer.labelled("sim.simulate.w2", || cell.label());
            graphpipe::sim::simulate_with(
                cell.model.graph(),
                &cell.cluster,
                &cell.stage_graph,
                &schedule,
                &options,
            )
        };
        out.outcome(match result {
            Ok(report) => check_pin(cell, &report, "2-worker"),
            Err(e) => Err(format!("{}: 2-worker simulation failed: {e}", cell.label())),
        });
    }
}
