//! `plan-zoo`: the paper's search-time path (Table 1). A closed loop with
//! one client; each operation is one cell — a zoo model at 16 or 32 GPUs
//! taken through the DAG ladder (gpt2, gnn_pipe), GraphPipe search with
//! default `PlanOptions`, `verify_strategy`, an artifact encode → decode
//! round trip, the plan fingerprint and `simulate`.
//!
//! The 64-GPU cells run in the traced run only, once each, sequentially
//! and with the 2-worker `ParallelPlanner`. They take about 10 of the 13 s
//! of a 21-cell pass, so a run with them in the loop got one or two
//! samples per cell and its cells/s moved by 0.32 (quartile spread over
//! median, 10 seeds) between runs on a shared 2-core host; 14 cells give
//! about eight passes per run.
//!
//! The seed only permutes the cell order of each pass; the cells, and
//! therefore the plans and reports, are fixed and pinned.

use crate::models::{self, mini_batch, Source};
use crate::report::{geomean, median, passes, percentile, Passes, Report, Rng};
use crate::speed::HostSpeed;
use crate::trace::{self, Tracer};
use graphpipe::prelude::*;
use graphpipe::serve::artifact::{decode_plan, encode_plan};
use graphpipe::serve::fingerprint::plan_fingerprint;
use std::sync::Arc;
use std::time::Instant;

pub const GPUS: [usize; 3] = [16, 32, 64];
/// Device count of the cells that only the traced run plans.
const LARGE_GPUS: usize = 64;

/// Pinned `(model, gpus, plan fingerprint, SimReport fingerprint)` of every
/// cell. A planner or simulator change that alters a plan or a report
/// fails the run; the failure message prints the new values.
#[rustfmt::skip]
const PINS: &[(&str, usize, &str, &str)] = &[
    ("mmt", 16, "9becf606b9a18ced3d609ac0a8003bec", "ba73bc868cecb41e"),
    ("mmt", 32, "6b076db0e007de2b51917cf138b4e517", "ac4813face9a54f5"),
    ("mmt", 64, "bb83a8300123d6530fedd640545cc36d", "5c67e5a8f069916c"),
    ("dlrm", 16, "0c2ce491cd71c7d3f0469c43bd8b8c90", "ad81ed0b13f061e4"),
    ("dlrm", 32, "e6af98d649f02e3778c19cafe1416c05", "5d129da1240ed2cd"),
    ("dlrm", 64, "76a20ec78b24dee0c0a94ae05f270d88", "ca69a0b9d695c9d0"),
    ("candle-uno", 16, "bd1db64010d886a5294217e6ee8c606b", "69bcea3ca327f038"),
    ("candle-uno", 32, "dca0f36997350e7ff37ed3e96d570252", "4ac6395151a4ad25"),
    ("candle-uno", 64, "ee16aeec97cfdaff787faf8070f0201d", "011556c34b0e75cb"),
    ("candle-uno-full", 16, "5845ad21efa2d7c42419c3fe09b2ab75", "b50fdbc0a841f809"),
    ("candle-uno-full", 32, "5211c5cbc3e0b8e6d696f27fe354e0a2", "ce8b77b815ae1c82"),
    ("candle-uno-full", 64, "0c9ca747916a1f228af19c5f66952e07", "9016b5b759d5765f"),
    ("moe", 16, "c5f0ead4e6507c31111a0522fd12d3ad", "a595ace77570c23c"),
    ("moe", 32, "50201733d37455edf3248fb338cf3ffc", "9d07b5c1e225d5dc"),
    ("moe", 64, "81b372aed9906f638b164218a99066e9", "e2ab3f6f13ae122c"),
    ("gpt2", 16, "c55b200b61ddfa22b0c09f88e017c822", "91681e6917b9bfb8"),
    ("gpt2", 32, "ee390cec12fb78b75c4d2637058c0f8f", "b0d6f39bceeca032"),
    ("gpt2", 64, "2e90d90ef1f0aa06712495c1a11d7309", "0f265ee44682a722"),
    ("gnn_pipe", 16, "9a1ca09cd476034eaf95471631231bd9", "c1c1f828d44446cd"),
    ("gnn_pipe", 32, "8cbca2578e86317e811c7c1d9f1bf54c", "24e6f32259222b70"),
    ("gnn_pipe", 64, "7e9237fbb42f04930ea21212c33e78b6", "c4c9a98dd13f75a5"),
];

struct Cell {
    model: &'static str,
    gpus: usize,
    mini_batch: u64,
    cluster: Cluster,
    source: Arc<Source>,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}-{}", self.model, self.gpus)
    }
}

struct CellOut {
    wall_s: f64,
    throughput: f64,
    dp_evals: u64,
    memo_hits: u64,
    memo_misses: u64,
    violations: usize,
    artifact_bytes: usize,
}

pub struct PlanZoo {
    /// The measured cells (16 and 32 GPUs).
    cells: Vec<Cell>,
    /// The 64-GPU cells (traced run only).
    large: Vec<Cell>,
}

/// Builds the zoo models, raw DAGs and clusters.
pub fn setup() -> PlanZoo {
    let sources: Vec<(&'static str, Arc<Source>)> = models::ZOO
        .iter()
        .map(|&name| (name, Arc::new(models::source(name, false))))
        .collect();
    let (mut cells, mut large) = (Vec::new(), Vec::new());
    for (model, source) in &sources {
        for gpus in GPUS {
            let cell = Cell {
                model,
                gpus,
                mini_batch: mini_batch(model, gpus),
                cluster: Cluster::summit_like(gpus),
                source: Arc::clone(source),
            };
            if gpus == LARGE_GPUS {
                large.push(cell);
            } else {
                cells.push(cell);
            }
        }
    }
    PlanZoo { cells, large }
}

fn model_of(cell: &Cell, tracer: &Tracer) -> Arc<SpModel> {
    match &*cell.source {
        Source::Model(m) => Arc::clone(m),
        Source::Dag(graph) => {
            let graph = graph.clone();
            let _s = tracer.labelled("ir.ladder", || cell.model.to_string());
            Arc::new(models::from_dag(cell.model, graph))
        }
    }
}

fn pin_of(cell: &Cell) -> Option<(&'static str, &'static str)> {
    PINS.iter()
        .find(|(m, g, _, _)| *m == cell.model && *g == cell.gpus)
        .map(|&(_, _, p, s)| (p, s))
}

/// Runs one cell, checking every output.
fn run_cell(cell: &Cell, tracer: &Tracer) -> Result<CellOut, String> {
    let label = cell.label();
    let t0 = Instant::now();
    let _op = tracer.labelled("plan-zoo.cell", || label.clone());
    let model = model_of(cell, tracer);
    let plan = {
        let _s = tracer.labelled("partition.plan", || label.clone());
        GraphPipePlanner::new()
            .plan(&model, &cell.cluster, cell.mini_batch)
            .map_err(|e| format!("{label}: planning failed: {e}"))?
    };
    let verdict = {
        let _s = tracer.span("verify");
        verify_strategy(&model, &cell.cluster, &plan)
    };
    let text = {
        let _s = tracer.span("serve.encode");
        encode_plan(&plan, None)
    };
    let decoded = {
        let _s = tracer.span("serve.decode");
        decode_plan(&text, model.graph(), &cell.cluster)
            .map_err(|e| format!("{label}: artifact decode failed: {e}"))?
            .0
    };
    let fingerprint = {
        let _s = tracer.span("serve.fingerprint");
        plan_fingerprint(&plan)
    };
    let report = {
        let _s = tracer.labelled("sim.simulate", || label.clone());
        graphpipe::sim::simulate(
            model.graph(),
            &cell.cluster,
            &plan.stage_graph,
            &plan.schedule,
        )
        .map_err(|e| format!("{label}: simulation failed: {e}"))?
    };
    drop(_op);
    let wall_s = t0.elapsed().as_secs_f64();

    if !verdict.is_clean() {
        return Err(format!("{label}: plan is not verify-clean: {verdict}"));
    }
    // The codec carries the total search wall but not its phase split:
    // compare with every wall field cleared on both sides.
    let (mut expected, mut decoded) = (plan.clone(), decoded);
    expected.stats.zero_walls();
    decoded.stats.zero_walls();
    if decoded != expected {
        return Err(format!("{label}: decode(encode(plan)) != plan"));
    }
    let (plan_fp, sim_fp) = (
        fingerprint.to_string(),
        format!("{:016x}", report.fingerprint()),
    );
    match pin_of(cell) {
        Some((p, s)) if p == plan_fp && s == sim_fp => {}
        _ => {
            return Err(format!(
            "{label}: fingerprints differ from the pins: (\"{}\", {}, \"{plan_fp}\", \"{sim_fp}\")",
            cell.model, cell.gpus
        ))
        }
    }
    Ok(CellOut {
        wall_s,
        throughput: report.throughput,
        dp_evals: plan.stats.dp_evals,
        memo_hits: plan.stats.memo_hits,
        memo_misses: plan.stats.memo_misses,
        violations: verdict.violations().len(),
        artifact_bytes: text.len(),
    })
}

/// Per-cell results of one measured phase.
struct Phase {
    passes: Passes,
    /// Each cell's latest successful result.
    last: Vec<Option<CellOut>>,
}

fn measure(
    zoo: &PlanZoo,
    rng: &mut Rng,
    seconds: f64,
    speed: &mut HostSpeed,
    tracer: &Tracer,
    out: &mut Report,
) -> Phase {
    let mut last: Vec<Option<CellOut>> = zoo.cells.iter().map(|_| None).collect();
    let passes = passes(zoo.cells.len(), rng, seconds, speed, out, |i| {
        run_cell(&zoo.cells[i], tracer).map(|cell| {
            let wall = cell.wall_s;
            last[i] = Some(cell);
            wall
        })
    });
    Phase { passes, last }
}

pub fn run(
    zoo: &PlanZoo,
    seed: u64,
    seconds: f64,
    speed: &mut HostSpeed,
    tracer: &Tracer,
    out: &mut Report,
) {
    let mut rng = Rng::new(seed);
    if !tracer.enabled() {
        let phase = measure(zoo, &mut rng, seconds, speed, tracer, out);
        let sweep = phase.passes.pass_s();
        // Percentiles over the cells' median walls, so they do not depend
        // on which cells ran one more time.
        let cells = phase.passes.cell_medians_ms();
        out.end_to_end(
            "throughput_per_s",
            zoo.cells.len() as f64 / sweep,
            phase.passes.cells_run,
            "cells per second (14 / plan_sweep_s)",
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
            "plan_sweep_s",
            "s",
            sweep,
            phase.passes.min_runs(),
            "one pass over the 14 cells, sum of per-cell median walls (n = passes)",
        );
        let quality: Vec<f64> = phase.last.iter().flatten().map(|c| c.throughput).collect();
        out.extra(
            "plan_quality_sps",
            "1/s",
            geomean(&quality),
            quality.len(),
            "geomean simulated samples/s of the chosen plans",
        );
        return;
    }

    // Traced run: the first half untraced (baseline for the overhead
    // ratio), the second half traced, then the 64-GPU cells.
    let base = measure(
        zoo,
        &mut rng,
        seconds / 2.0,
        speed,
        &Tracer::new(false),
        out,
    );
    let phase = measure(zoo, &mut rng, seconds / 2.0, speed, tracer, out);
    let calls = tracer.calls();
    let large = large_cells(zoo, tracer, out);
    let with_large = tracer.calls();
    let ops = phase.passes.cells_run as f64;
    let per_op = |name: &str| trace::self_ms(&calls, name) / ops;
    out.layer("ir.ladder_ms", "ms", per_op("ir.ladder"));
    out.layer("partition.plan_ms", "ms", per_op("partition.plan"));
    for cell in zoo.cells.iter().chain(&zoo.large) {
        let label = cell.label();
        out.layer(
            format!("partition.plan_ms.{label}"),
            "ms",
            median(&trace::durations_ms(&with_large, "partition.plan", &label)),
        );
    }
    for cell in &zoo.large {
        let label = cell.label();
        out.layer(
            format!("partition.plan_ms.w2.{label}"),
            "ms",
            median(&trace::durations_ms(
                &with_large,
                "partition.plan.w2",
                &label,
            )),
        );
    }
    // Counts cover one pass over all 21 cells.
    let outs: Vec<&CellOut> = phase.last.iter().flatten().chain(&large).collect();
    let (hits, misses) = outs.iter().fold((0u64, 0u64), |(h, m), c| {
        (h + c.memo_hits, m + c.memo_misses)
    });
    out.layer(
        "partition.dp_evals",
        "count",
        outs.iter().map(|c| c.dp_evals).sum::<u64>() as f64,
    );
    out.layer(
        "partition.memo_hit_rate",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.layer("verify.ms", "ms", per_op("verify"));
    out.layer(
        "verify.violations",
        "count",
        outs.iter().map(|c| c.violations).sum::<usize>() as f64,
    );
    out.layer(
        "serve.fingerprint_us",
        "us",
        per_op("serve.fingerprint") * 1e3,
    );
    out.layer("serve.encode_us", "us", per_op("serve.encode") * 1e3);
    out.layer("serve.decode_us", "us", per_op("serve.decode") * 1e3);
    out.layer(
        "serve.artifact_bytes",
        "B",
        outs.iter().map(|c| c.artifact_bytes).sum::<usize>() as f64 / outs.len().max(1) as f64,
    );
    out.layer("sim.simulate_ms", "ms", per_op("sim.simulate"));
    out.layer("plan-zoo.residual_ms", "ms", per_op("plan-zoo.cell"));
    out.layer(
        "obs.overhead_ratio",
        "ratio",
        phase.passes.pass_s() / base.passes.pass_s(),
    );
}

/// Runs each 64-GPU cell once with the sequential planner (checked like
/// every cell) and once with `ParallelPlanner` at 2 workers, whose plan
/// must equal the sequential one (the same pin). Returns the sequential
/// results.
fn large_cells(zoo: &PlanZoo, tracer: &Tracer, out: &mut Report) -> Vec<CellOut> {
    let mut results = Vec::new();
    for cell in &zoo.large {
        match run_cell(cell, tracer) {
            Ok(result) => {
                results.push(result);
                out.outcome(Ok(()));
            }
            Err(why) => out.outcome(Err(why)),
        }
        let label = cell.label();
        let model = model_of(cell, &Tracer::new(false));
        let result = {
            let _s = tracer.labelled("partition.plan.w2", || label.clone());
            ParallelPlanner::with_options(PlanOptions::default(), 2).plan(
                &model,
                &cell.cluster,
                cell.mini_batch,
            )
        };
        out.outcome(match result {
            Ok(plan) => {
                let fp = plan_fingerprint(&plan).to_string();
                match pin_of(cell) {
                    Some((p, _)) if p == fp => Ok(()),
                    _ => Err(format!(
                        "{label}: ParallelPlanner(2) plan {fp} differs from the pin"
                    )),
                }
            }
            Err(e) => Err(format!("{label}: ParallelPlanner(2) failed: {e}")),
        });
    }
    results
}
