//! Benchmark of the GraphPipe reproduction: four workloads against the
//! public API of the layer crates (`graphpipe::{ir, partition, verify,
//! serve, sched, sim, exec, fleet}`), each checking its outputs.
//!
//! ```text
//! perfbench --workload <plan-zoo|sim-scale|train-tiny|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records the
//! benchmark's spans around every layer call, reports the per-layer
//! metrics and writes `<out>/trace-<workload>.json` (Perfetto). The last
//! line of standard output is the JSON result. See `perfbench/README.md`.

mod models;
mod plan_zoo;
mod report;
mod serve_mix;
mod sim_scale;
mod speed;
mod trace;
mod train_tiny;

use report::{median, peak_rss_mb, Report};
use speed::HostSpeed;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median, each scaled to
/// the reference host speed. A cheap set-up repeats until
/// [`SETUP_MIN_SECONDS`] have passed (at most [`SETUP_MAX_REPS`] times),
/// so its median rests on enough samples to be steady.
const SETUPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 5000;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const WORKLOADS: [&str; 4] = ["plan-zoo", "sim-scale", "train-tiny", "serve-mix"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be positive")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Runs `f` [`SETUPS`] or more times (see [`SETUP_MIN_SECONDS`]), keeping
/// the last result; returns it with the normalized set-up walls.
fn repeat_setup<T>(speed: &mut HostSpeed, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut walls: Vec<f64> = Vec::new();
    let mut spent = 0.0;
    let mut last = None;
    while walls.len() < SETUPS || (spent < SETUP_MIN_SECONDS && walls.len() < SETUP_MAX_REPS) {
        speed.tick();
        let t0 = Instant::now();
        let value = f();
        let wall = t0.elapsed().as_secs_f64();
        speed.tick();
        spent += wall;
        walls.push(wall * speed.scale());
        last = Some(value);
    }
    (last.expect("SETUPS > 0"), walls)
}

fn run(
    args: &Args,
    speed: &mut HostSpeed,
    tracer: &Tracer,
    out: &mut Report,
) -> Result<Vec<f64>, String> {
    let Args { seed, seconds, .. } = *args;
    match args.workload {
        "plan-zoo" => {
            let (zoo, walls) = repeat_setup(speed, plan_zoo::setup);
            plan_zoo::run(&zoo, seed, seconds, speed, tracer, out);
            Ok(walls)
        }
        "sim-scale" => {
            let (sim, walls) = repeat_setup(speed, sim_scale::setup);
            sim_scale::run(&sim, seed, seconds, speed, tracer, out);
            Ok(walls)
        }
        "train-tiny" => {
            let (tt, walls) = repeat_setup(speed, || train_tiny::setup(seed, tracer));
            let mut tt = tt?;
            train_tiny::run(&mut tt, seconds, speed, tracer, out);
            Ok(walls)
        }
        "serve-mix" => {
            std::fs::create_dir_all(&args.out)
                .map_err(|e| format!("{}: {e}", args.out.display()))?;
            let (mut mix, walls) = serve_mix::setup(&args.out, SETUPS, speed, out)?;
            serve_mix::run(&mut mix, seed, seconds, speed, tracer, out);
            mix.shutdown();
            Ok(walls)
        }
        other => unreachable!("{other}"),
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run
/// reports each one; a layer its workload does not exercise reads 0.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("ir.ladder_ms".into(), "ms");
    add("partition.plan_ms".into(), "ms");
    for model in models::ZOO {
        for gpus in plan_zoo::GPUS {
            add(format!("partition.plan_ms.{model}-{gpus}"), "ms");
        }
    }
    for model in models::ZOO {
        add(format!("partition.plan_ms.w2.{model}-64"), "ms");
    }
    add("partition.dp_evals".into(), "count");
    add("partition.memo_hit_rate".into(), "ratio");
    add("verify.ms".into(), "ms");
    add("verify.violations".into(), "count");
    for name in ["serve.fingerprint_us", "serve.encode_us", "serve.decode_us"] {
        add(name.into(), "us");
    }
    add("serve.artifact_bytes".into(), "B");
    add("sched.schedule_ms".into(), "ms");
    add("sim.simulate_ms".into(), "ms");
    for model in sim_scale::MODELS {
        for devices in sim_scale::DEVICES {
            add(format!("sim.simulate_ms.{model}-{devices}"), "ms");
        }
    }
    add("sim.simulate_ms.w2".into(), "ms");
    add("sim.tasks".into(), "count");
    add("sim.report_bytes".into(), "B");
    for model in train_tiny::MODELS {
        add(format!("exec.step_ms.{model}.p50"), "ms");
        add(format!("exec.step_ms.{model}.p99"), "ms");
        add(format!("exec.reference_step_ms.{model}"), "ms");
    }
    for name in [
        "fleet.cache_us.p50",
        "fleet.cache_us.p99",
        "fleet.store_us.p50",
        "fleet.store_us.p99",
    ] {
        add(name.into(), "us");
    }
    add("fleet.planned_ms.p50".into(), "ms");
    add("fleet.planned_ms.p99".into(), "ms");
    add("fleet.shard_hit_rate".into(), "ratio");
    for name in [
        "fleet.store_hits",
        "fleet.planner_runs",
        "fleet.evictions",
        "fleet.shed",
    ] {
        add(name.into(), "count");
    }
    add("fleet.queue_wait_ms".into(), "ms");
    add("fleet.worker_rtt_ms".into(), "ms");
    add("loadgen.late_p99_ms".into(), "ms");
    for workload in WORKLOADS {
        add(format!("{workload}.residual_ms"), "ms");
    }
    add("obs.overhead_ratio".into(), "ratio");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut out = Report::new(args.workload);
    let mut speed = HostSpeed::new();
    let setup_walls = match run(&args, &mut speed, &tracer, &mut out) {
        Ok(walls) => walls,
        Err(why) => {
            eprintln!("perfbench: {}: set-up failed: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args.out.join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, tracer.perfetto()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        out.fill_layers(&layer_metrics());
    } else {
        out.end_to_end(
            "setup_s",
            median(&setup_walls),
            setup_walls.len(),
            "median set-up wall at the reference host speed",
        );
        out.end_to_end("peak_rss_mb", peak_rss_mb(), 0, "process VmHWM");
    }
    let (scale, runs) = speed.run_scale();
    out.extra(
        "host_scale",
        "ratio",
        scale,
        runs,
        "reference / measured calibration time; raw wall = normalized wall / this",
    );
    out.print(args.trace);
    ExitCode::SUCCESS
}
