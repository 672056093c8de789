//! `serve-mix`: plan serving through gp-fleet, in three phases of equal
//! length. An open loop: one generator thread submits on a seeded Poisson
//! schedule and times each request from the moment it was due, and one
//! collector thread waits on tickets that need a planner (printed figures,
//! and the traced run). Then two closed loops of one client on the main
//! thread: the same mix (`p50_ms`, `p99_ms`) and the known requests alone
//! (`throughput_per_s`, the read path's capacity). The fleet has two
//! planner workers — one in-process and one loopback `WorkerServer`, so
//! the wire protocol is on the miss path — a sharded cache smaller than
//! the request set, and an artifact store that set-up fills with every
//! known request.
//!
//! Requests are Zipf-distributed over [`KNOWN`] distinct requests
//! (full-size zoo models at 8 and 16 GPUs across the three tenant tiers),
//! so a steady share goes cache → store (decode + verify). A small share
//! (every [`NEW_EVERY`]-th) are never-seen requests (new mini-batch sizes)
//! that reach a planner worker and write the store. The seed draws the
//! arrival times and the Zipf sequence; the distribution and the sequence
//! of never-seen requests are fixed.

use crate::models::{self, mini_batch};
use crate::report::{median, percentile, Report, Rng};
use crate::speed::HostSpeed;
use crate::trace::{self, Tracer};
use graphpipe::fleet::{
    AdmissionConfig, FleetConfig, FleetService, FleetStats, Served, TenantClass, TenantSpec,
    WorkerServer,
};
use graphpipe::prelude::*;
use graphpipe::serve::artifact::{decode_plan, encode_plan};
use graphpipe::serve::fingerprint::plan_fingerprint;
use graphpipe::serve::{PlanRequest, ServeError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const GPUS: [usize; 2] = [8, 16];
const TIERS: [TenantClass; 3] = [
    TenantClass::Batch,
    TenantClass::Standard,
    TenantClass::Premium,
];
/// Distinct known requests: models × GPU counts × tiers.
pub const KNOWN: usize = 42;
/// Total cached plans across the shards: fewer than [`KNOWN`], so the
/// Zipf tail keeps reaching the store.
const CACHE_CAPACITY: usize = 16;
const SHARDS: usize = 4;
const ZIPF_EXPONENT: f64 = 1.0;
/// Every `NEW_EVERY`-th request is never-seen (a new mini-batch size): a
/// steady 2% share, interleaved rather than drawn so that every rate step
/// holds the same share. At 2% the p99 falls among the planned requests,
/// so it measures the fleet's miss path (queue, wire, planner, store
/// write) rather than how often the host preempts the load generator.
const NEW_EVERY: u64 = 50;
/// Models whose never-seen variants are planned at 8 GPUs (about 6 ms per
/// search on average), with mini-batch 16·j for j in `1..=NEW_VARIANTS`:
/// 1280 requests, every one plannable. Once a run has used them all,
/// further draws fall back to known requests.
const NEW_MODELS: [&str; 5] = ["mmt", "dlrm", "candle-uno", "moe", "gnn_pipe"];
const NEW_VARIANTS: u64 = 256;
/// Offered rate of the latency measurement.
pub const NOMINAL_RPS: f64 = 1000.0;
const WARMUP_SECONDS: f64 = 1.0;
/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(2);
/// The measured time is split evenly between the open loop at the
/// nominal rate (printed figures), the closed loop over the nominal mix
/// (`p50_ms`, `p99_ms`) and the closed loop over the known requests
/// (`throughput_per_s`).
const PHASES: f64 = 3.0;
/// Closed-loop requests checked at a time; their check (which re-plans
/// never-seen requests locally) is not timed.
const CHECK_BATCH: usize = 1000;
/// Length of one chunk of the nominal-rate phase.
const CHUNK_SECONDS: f64 = 0.5;

/// Pinned plan fingerprints of the known requests, `(model, gpus, tier,
/// fingerprint)`: what local planning produces for the same request.
#[rustfmt::skip]
const PINS: &[(&str, usize, &str, &str)] = &[
    ("mmt", 8, "batch", "dbe8f9292f23daa2c5112aba6cdc24ba"),
    ("mmt", 8, "standard", "dbe8f9292f23daa2c5112aba6cdc24ba"),
    ("mmt", 8, "premium", "dbe8f9292f23daa2c5112aba6cdc24ba"),
    ("mmt", 16, "batch", "9becf606b9a18ced3d609ac0a8003bec"),
    ("mmt", 16, "standard", "9becf606b9a18ced3d609ac0a8003bec"),
    ("mmt", 16, "premium", "9becf606b9a18ced3d609ac0a8003bec"),
    ("dlrm", 8, "batch", "f336e9529283a14591873c7cf2635b27"),
    ("dlrm", 8, "standard", "f336e9529283a14591873c7cf2635b27"),
    ("dlrm", 8, "premium", "f336e9529283a14591873c7cf2635b27"),
    ("dlrm", 16, "batch", "0c2ce491cd71c7d3f0469c43bd8b8c90"),
    ("dlrm", 16, "standard", "0c2ce491cd71c7d3f0469c43bd8b8c90"),
    ("dlrm", 16, "premium", "0c2ce491cd71c7d3f0469c43bd8b8c90"),
    ("candle-uno", 8, "batch", "fba1571a980719c51f9d01f9b9395f08"),
    ("candle-uno", 8, "standard", "fba1571a980719c51f9d01f9b9395f08"),
    ("candle-uno", 8, "premium", "fba1571a980719c51f9d01f9b9395f08"),
    ("candle-uno", 16, "batch", "bd1db64010d886a5294217e6ee8c606b"),
    ("candle-uno", 16, "standard", "bd1db64010d886a5294217e6ee8c606b"),
    ("candle-uno", 16, "premium", "bd1db64010d886a5294217e6ee8c606b"),
    ("candle-uno-full", 8, "batch", "850498fc6a04cb51a9cd5c868102ac2c"),
    ("candle-uno-full", 8, "standard", "850498fc6a04cb51a9cd5c868102ac2c"),
    ("candle-uno-full", 8, "premium", "850498fc6a04cb51a9cd5c868102ac2c"),
    ("candle-uno-full", 16, "batch", "5845ad21efa2d7c42419c3fe09b2ab75"),
    ("candle-uno-full", 16, "standard", "5845ad21efa2d7c42419c3fe09b2ab75"),
    ("candle-uno-full", 16, "premium", "5845ad21efa2d7c42419c3fe09b2ab75"),
    ("moe", 8, "batch", "78f0d19fb603f82016a6c888640ddc79"),
    ("moe", 8, "standard", "78f0d19fb603f82016a6c888640ddc79"),
    ("moe", 8, "premium", "78f0d19fb603f82016a6c888640ddc79"),
    ("moe", 16, "batch", "299871f09f7cb28717dcea526ec18c64"),
    ("moe", 16, "standard", "c5f0ead4e6507c31111a0522fd12d3ad"),
    ("moe", 16, "premium", "c5f0ead4e6507c31111a0522fd12d3ad"),
    ("gpt2", 8, "batch", "a5872ed6a3c5a94741c1b31ad124b9b6"),
    ("gpt2", 8, "standard", "a5872ed6a3c5a94741c1b31ad124b9b6"),
    ("gpt2", 8, "premium", "a5872ed6a3c5a94741c1b31ad124b9b6"),
    ("gpt2", 16, "batch", "c55b200b61ddfa22b0c09f88e017c822"),
    ("gpt2", 16, "standard", "c55b200b61ddfa22b0c09f88e017c822"),
    ("gpt2", 16, "premium", "c55b200b61ddfa22b0c09f88e017c822"),
    ("gnn_pipe", 8, "batch", "cc7d467000ab5bea1a54a26cd8afebeb"),
    ("gnn_pipe", 8, "standard", "cc7d467000ab5bea1a54a26cd8afebeb"),
    ("gnn_pipe", 8, "premium", "cc7d467000ab5bea1a54a26cd8afebeb"),
    ("gnn_pipe", 16, "batch", "9a1ca09cd476034eaf95471631231bd9"),
    ("gnn_pipe", 16, "standard", "9a1ca09cd476034eaf95471631231bd9"),
    ("gnn_pipe", 16, "premium", "9a1ca09cd476034eaf95471631231bd9"),
];

#[derive(Clone)]
struct Request {
    label: String,
    model: &'static str,
    gpus: usize,
    tier: TenantClass,
    request: PlanRequest,
}

impl Request {
    /// The request as the fleet plans it: options clamped to the tier.
    fn as_planned(&self) -> PlanRequest {
        let mut request = self.request.clone();
        self.tier.apply(&mut request.options);
        request
    }
}

pub struct ServeMix {
    known: Vec<Request>,
    /// Never-seen requests, consumed front to back.
    fresh: Vec<Request>,
    next_fresh: usize,
    /// Requests drawn so far.
    drawn: u64,
    /// Cumulative Zipf weights over `known`, rank = index.
    zipf_cdf: Vec<f64>,
    fleet: FleetService,
    server: WorkerServer,
    store_dirs: Vec<PathBuf>,
}

fn request(
    models: &[(&'static str, Arc<SpModel>)],
    model: &'static str,
    gpus: usize,
    mb: u64,
    tier: TenantClass,
) -> Request {
    let arc = models
        .iter()
        .find(|(n, _)| *n == model)
        .map(|(_, m)| Arc::clone(m))
        .expect("model is built");
    Request {
        label: format!("{model}-{gpus}-{}-b{mb}", tier.name()),
        model,
        gpus,
        tier,
        request: PlanRequest::new(arc, Cluster::summit_like(gpus), mb),
    }
}

fn admission() -> AdmissionConfig {
    AdmissionConfig {
        default_spec: TenantSpec::default(),
        tenants: TIERS
            .iter()
            .map(|&class| {
                (
                    class.name().to_string(),
                    TenantSpec {
                        class,
                        tokens: None,
                    },
                )
            })
            .collect(),
        max_queue_depth: None,
    }
}

fn served_name(served: Served) -> &'static str {
    match served {
        Served::Cache => "cache",
        Served::Store => "store",
        Served::Joined => "joined",
        Served::Planned => "planned",
    }
}

/// Builds the models and request sets, then starts a fleet and plans every
/// known request into its store, `setups` times over; returns the last
/// fleet and the set-up walls at the reference host speed. Every earlier
/// fleet is shut down.
pub fn setup(
    out_dir: &Path,
    setups: usize,
    speed: &mut HostSpeed,
    out: &mut Report,
) -> Result<(ServeMix, Vec<f64>), String> {
    let mut walls = Vec::new();
    let mut last = None;
    let mut store_dirs = Vec::new();
    for k in 0..setups {
        speed.tick();
        let t0 = Instant::now();
        let models: Vec<(&'static str, Arc<SpModel>)> = models::ZOO
            .iter()
            .map(|&name| (name, models::build(name, false)))
            .collect();
        let mut known = Vec::new();
        for &model in &models::ZOO {
            for gpus in GPUS {
                for tier in TIERS {
                    known.push(request(&models, model, gpus, mini_batch(model, gpus), tier));
                }
            }
        }
        // Round-robin over the models, mini-batch index by a stride-97
        // walk (a permutation of 1..=256): every run offers the same
        // never-seen requests in the same order, so the planning work
        // behind the p99 does not depend on the seed.
        let mut fresh = Vec::new();
        for k in 0..NEW_VARIANTS {
            let j = (k * 97) % NEW_VARIANTS + 1;
            for &model in &NEW_MODELS {
                let mb = 16 * j;
                if mb != mini_batch(model, 8) {
                    fresh.push(request(&models, model, 8, mb, TenantClass::Standard));
                }
            }
        }
        let dir = out_dir.join(format!("store-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store_dirs.push(dir.clone());
        let server = WorkerServer::bind("127.0.0.1:0", Telemetry::disabled())
            .map_err(|e| format!("worker server bind failed: {e}"))?;
        let fleet = FleetService::start(FleetConfig {
            shards: SHARDS,
            cache_capacity: CACHE_CAPACITY,
            local_workers: 1,
            remote_workers: vec![server.addr().to_string()],
            store: Some(dir),
            admission: admission(),
            telemetry: Telemetry::disabled(),
        })
        .map_err(|e| format!("fleet start failed: {e}"))?;
        let tickets: Vec<_> = known
            .iter()
            .map(|r| fleet.submit(r.tier.name(), r.request.clone()))
            .collect();
        let mut failures = Vec::new();
        for (r, ticket) in known.iter().zip(tickets) {
            let result = ticket
                .map_err(|e| e.to_string())
                .and_then(|t| t.wait().map_err(|e| e.to_string()))
                .and_then(|plan| check_known(r, &plan));
            if let Err(why) = result {
                failures.push(format!("set-up {}: {why}", r.label));
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        speed.tick();
        walls.push(wall * speed.scale());
        for why in failures {
            out.outcome(Err(why));
        }
        let mut zipf_cdf = Vec::with_capacity(KNOWN);
        let mut acc = 0.0;
        for rank in 1..=known.len() {
            acc += 1.0 / (rank as f64).powf(ZIPF_EXPONENT);
            zipf_cdf.push(acc);
        }
        last = Some(ServeMix {
            known,
            fresh,
            next_fresh: 0,
            drawn: 0,
            zipf_cdf,
            server,
            fleet,
            store_dirs: Vec::new(),
        });
    }
    let mut mix = last.ok_or("no set-up ran")?;
    mix.store_dirs = store_dirs;
    Ok((mix, walls))
}

fn check_known(r: &Request, plan: &Plan) -> Result<(), String> {
    let fp = plan_fingerprint(plan).to_string();
    match PINS
        .iter()
        .find(|(m, g, t, _)| *m == r.model && *g == r.gpus && *t == r.tier.name())
    {
        Some((_, _, _, pin)) if *pin == fp => Ok(()),
        _ => Err(format!(
            "served plan differs from the pin: (\"{}\", {}, \"{}\", \"{fp}\")",
            r.model,
            r.gpus,
            r.tier.name()
        )),
    }
}

impl ServeMix {
    pub fn shutdown(mut self) {
        self.fleet.shutdown();
        self.server.shutdown();
        for dir in &self.store_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn draw(&mut self, rng: &mut Rng, with_new: bool) -> (usize, bool) {
        self.drawn += 1;
        if with_new && self.drawn.is_multiple_of(NEW_EVERY) && self.next_fresh < self.fresh.len() {
            self.next_fresh += 1;
            return (self.next_fresh - 1, true);
        }
        (zipf_draw(&self.zipf_cdf, rng), false)
    }
}

/// A known request's index, drawn from the Zipf weights.
fn zipf_draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let total = *cdf.last().expect("known set is non-empty");
    let x = rng.unit() * total;
    cdf.partition_point(|&c| c <= x).min(KNOWN - 1)
}

/// One finished request.
struct Record {
    /// Index into `known` or `fresh`.
    index: usize,
    fresh: bool,
    served: Option<Served>,
    /// From due time to reply; `None` when refused or failed.
    latency_ms: Option<f64>,
    /// How late the generator submitted it.
    late_ms: f64,
    plan: Option<Arc<Plan>>,
    error: Option<String>,
}

struct Pending {
    record: Record,
    due: Instant,
    ticket: graphpipe::fleet::FleetTicket,
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread can
/// wake a millisecond or more late, which would show up as generator
/// lateness rather than fleet latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Offers `rate` requests/s for `seconds` on a seeded Poisson schedule and
/// returns every finished request, in completion order per thread.
/// `with_new` mixes in the never-seen requests.
fn offer(
    mix: &mut ServeMix,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    with_new: bool,
    tracer: &Tracer,
) -> Vec<Record> {
    let (tx, rx) = mpsc::channel::<Pending>();
    let collected = thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut done = Vec::new();
            for mut p in rx {
                let span = tracer.span("fleet.wait");
                tracer.label(&span, served_name(p.ticket.served()));
                let reply = p.ticket.wait();
                drop(span);
                p.record.latency_ms = Some(p.due.elapsed().as_secs_f64() * 1e3);
                match reply {
                    Ok(plan) => p.record.plan = Some(plan),
                    Err(e) => {
                        p.record.latency_ms = None;
                        p.record.error = Some(e.to_string());
                    }
                }
                done.push(p.record);
            }
            done
        });
        let mut done = Vec::new();
        let start = Instant::now();
        let mut due_s = 0.0;
        loop {
            due_s += -(1.0 - rng.unit()).ln() / rate;
            if due_s >= seconds {
                break;
            }
            let due = start + Duration::from_secs_f64(due_s);
            wait_until(due);
            let (index, fresh) = mix.draw(rng, with_new);
            let r = if fresh {
                &mix.fresh[index]
            } else {
                &mix.known[index]
            };
            let late_ms = due.elapsed().as_secs_f64() * 1e3;
            let op = tracer.span("serve-mix.request");
            let submitted = {
                let span = tracer.span("fleet.submit");
                let submitted: Result<_, ServeError> =
                    mix.fleet.submit(r.tier.name(), r.request.clone());
                match &submitted {
                    Ok(ticket) => tracer.label(&span, served_name(ticket.served())),
                    Err(_) => tracer.label(&span, "refused"),
                }
                submitted
            };
            let mut record = Record {
                index,
                fresh,
                served: None,
                latency_ms: None,
                late_ms,
                plan: None,
                error: None,
            };
            match submitted {
                Ok(ticket) if ticket.served_from_cache() => {
                    record.served = Some(ticket.served());
                    match ticket.wait() {
                        Ok(plan) => {
                            record.latency_ms = Some(due.elapsed().as_secs_f64() * 1e3);
                            record.plan = Some(plan);
                        }
                        Err(e) => record.error = Some(e.to_string()),
                    }
                    drop(op);
                    done.push(record);
                }
                Ok(ticket) => {
                    record.served = Some(ticket.served());
                    drop(op);
                    tx.send(Pending {
                        record,
                        due,
                        ticket,
                    })
                    .expect("collector outlives the generator");
                }
                Err(e) => {
                    record.error = Some(e.to_string());
                    drop(op);
                    done.push(record);
                }
            }
        }
        drop(tx);
        done.extend(collector.join().expect("collector thread panicked"));
        done
    });
    collected
}

/// Checks every served plan: known requests against their pins, never-seen
/// ones against a local plan of the same request (timed as
/// `partition.plan`). Records each request's outcome.
fn check(mix: &ServeMix, records: &[Record], tracer: &Tracer, out: &mut Report) {
    // Served plans are shared `Arc`s (every cache hit of one entry is the
    // same plan), so each distinct plan is checked once. The records keep
    // every plan alive, so no address is reused while this map lives.
    let mut checked: BTreeMap<usize, Result<(), String>> = BTreeMap::new();
    for rec in records {
        let result = match (&rec.plan, &rec.error) {
            (_, Some(e)) => Err(format!("request failed: {e}")),
            (None, None) => Err("request returned no plan".to_string()),
            (Some(plan), None) => {
                let key = Arc::as_ptr(plan) as usize;
                checked
                    .entry(key)
                    .or_insert_with(|| {
                        if rec.fresh {
                            check_fresh(&mix.fresh[rec.index], plan, tracer)
                        } else {
                            let req = &mix.known[rec.index];
                            check_known(req, plan).map_err(|e| format!("{}: {e}", req.label))
                        }
                    })
                    .clone()
            }
        };
        out.outcome(result);
    }
}

fn check_fresh(r: &Request, served: &Plan, tracer: &Tracer) -> Result<(), String> {
    let request = r.as_planned();
    let local = {
        let _s = tracer.span("partition.plan");
        GraphPipePlanner::with_options(request.options.clone())
            .plan(&request.model, &request.cluster, request.mini_batch)
            .map_err(|e| format!("{}: local planning failed: {e}", r.label))?
    };
    if plan_fingerprint(&local) == plan_fingerprint(served) {
        Ok(())
    } else {
        Err(format!(
            "{}: served plan differs from the local plan",
            r.label
        ))
    }
}

fn latencies(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .map(|r| r.latency_ms.unwrap_or(f64::INFINITY))
        .collect()
}

/// Per-chunk results of the nominal-rate phase.
struct Nominal {
    /// Every request, without its plan.
    records: Vec<Record>,
    /// Each chunk's p50 and p99 latency.
    p50s: Vec<f64>,
    p99s: Vec<f64>,
}

/// The nominal-rate latency phase, in chunks of [`CHUNK_SECONDS`], each
/// checked as it ends. The phase reports each chunk's percentiles: their
/// median over the chunks leaves out the chunks a slow spell hit.
fn nominal(
    mix: &mut ServeMix,
    rng: &mut Rng,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Report,
) -> Nominal {
    let chunks = (seconds / CHUNK_SECONDS).round().max(1.0) as usize;
    let mut phase = Nominal {
        records: Vec::new(),
        p50s: Vec::new(),
        p99s: Vec::new(),
    };
    for _ in 0..chunks {
        let mut chunk = offer(mix, rng, NOMINAL_RPS, seconds / chunks as f64, true, tracer);
        let lat = latencies(&chunk);
        phase.p50s.push(percentile(&lat, 0.5));
        phase.p99s.push(percentile(&lat, 0.99));
        check(mix, &chunk, tracer, out);
        // Store hits decode a new plan each time: keeping them all would
        // make peak RSS follow the request count.
        chunk.iter_mut().for_each(|r| r.plan = None);
        phase.records.extend(chunk);
    }
    phase
}

/// A closed loop on the main thread: one client submits Zipf-drawn known
/// requests (with `with_new`, every [`NEW_EVERY`]-th a never-seen one)
/// back to back, each timed from submit to plan and scaled to the
/// reference host speed, until `seconds` of request time have passed.
/// Returns every request's scaled latency in ms (infinite when it failed).
///
/// The end-to-end metrics come from closed loops rather than from the
/// open loop because only there does the calibration kernel run on the
/// thread that does the timed work. On a shared 2-core host the open
/// loop's p50 and p99, and a two-client capacity loop, moved by
/// 0.1-0.33 (quartile spread over median, 5-10 seeds) between runs,
/// scaled to the reference speed or not: their work ran on threads that
/// the host placed on either core, whose speeds differed by up to 1.7x,
/// while the kernel ran on the main thread.
fn closed_loop(
    mix: &mut ServeMix,
    rng: &mut Rng,
    seconds: f64,
    with_new: bool,
    speed: &mut HostSpeed,
    out: &mut Report,
) -> Vec<f64> {
    let quiet = Tracer::new(false);
    let (mut lat, mut batch) = (Vec::new(), Vec::new());
    let mut timed_s = 0.0;
    while timed_s < seconds {
        let (index, fresh) = mix.draw(rng, with_new);
        let r = if fresh {
            &mix.fresh[index]
        } else {
            &mix.known[index]
        };
        let mut record = Record {
            index,
            fresh,
            served: None,
            latency_ms: None,
            late_ms: 0.0,
            plan: None,
            error: None,
        };
        speed.tick();
        let t0 = Instant::now();
        match mix.fleet.submit(r.tier.name(), r.request.clone()) {
            Ok(ticket) => {
                record.served = Some(ticket.served());
                match ticket.wait() {
                    Ok(plan) => record.plan = Some(plan),
                    Err(e) => record.error = Some(e.to_string()),
                }
            }
            Err(e) => record.error = Some(e.to_string()),
        }
        let wall = t0.elapsed().as_secs_f64();
        speed.tick();
        timed_s += wall;
        lat.push(if record.error.is_none() {
            wall * 1e3 * speed.scale()
        } else {
            f64::INFINITY
        });
        batch.push(record);
        // A store hit decodes a new plan each time: keeping every plan
        // until the end would make peak RSS follow the request count.
        if batch.len() == CHECK_BATCH {
            check(mix, &batch, &quiet, out);
            batch.clear();
        }
    }
    check(mix, &batch, &quiet, out);
    lat
}

pub fn run(
    mix: &mut ServeMix,
    seed: u64,
    seconds: f64,
    speed: &mut HostSpeed,
    tracer: &Tracer,
    out: &mut Report,
) {
    let mut rng = Rng::new(seed ^ 0x5e55);
    let quiet = Tracer::new(false);
    let warm = offer(mix, &mut rng, NOMINAL_RPS, WARMUP_SECONDS, true, &quiet);
    check(mix, &warm, &quiet, out);
    if !tracer.enabled() {
        let phase_s = (seconds - WARMUP_SECONDS) / PHASES;
        let phase = nominal(mix, &mut rng, phase_s, tracer, out);
        let mixed = closed_loop(mix, &mut rng, phase_s, true, speed, out);
        let reads = closed_loop(mix, &mut rng, phase_s, false, speed, out);
        let (p50, p99) = (percentile(&mixed, 0.5), percentile(&mixed, 0.99));
        let max_rps = reads.len() as f64 / (reads.iter().sum::<f64>() / 1e3);
        out.end_to_end("throughput_per_s", max_rps, reads.len(), "serve_max_rps");
        out.end_to_end("p50_ms", p50, mixed.len(), "serve_p50_ms");
        out.end_to_end("p99_ms", p99, mixed.len(), "serve_p99_ms");
        out.extra(
            "serve_max_rps",
            "1/s",
            max_rps,
            reads.len(),
            "closed-loop read-path throughput, 1 client",
        );
        let nominal = format!("closed loop, nominal mix ({}% never-seen)", 100 / NEW_EVERY);
        out.extra("serve_p50_ms", "ms", p50, mixed.len(), &nominal);
        out.extra("serve_p99_ms", "ms", p99, mixed.len(), &nominal);
        let requests = phase.records.len();
        let open = format!(
            "from due time at {NOMINAL_RPS} req/s offered, median of {} per-chunk values",
            phase.p50s.len()
        );
        out.extra(
            "open_loop_p50_ms",
            "ms",
            median(&phase.p50s),
            requests,
            &open,
        );
        out.extra(
            "open_loop_p99_ms",
            "ms",
            median(&phase.p99s),
            requests,
            &open,
        );
        let records = phase.records;
        let share = |kind: Served| {
            records.iter().filter(|r| r.served == Some(kind)).count() as f64
                / records.len().max(1) as f64
        };
        out.extra(
            "cache_share",
            "ratio",
            share(Served::Cache),
            records.len(),
            "requests served from a cache shard",
        );
        out.extra(
            "store_share",
            "ratio",
            share(Served::Store),
            records.len(),
            "requests served from the store",
        );
        out.extra(
            "planned_share",
            "ratio",
            share(Served::Planned),
            records.len(),
            "requests planned by a worker",
        );
        return;
    }

    // Traced run: the nominal rate only, the first half untraced (baseline
    // for the overhead ratio), the second half traced.
    let half = (seconds - WARMUP_SECONDS) / 2.0;
    let base = offer(mix, &mut rng, NOMINAL_RPS, half, true, &quiet);
    check(mix, &base, &quiet, out);
    let before = mix.fleet.stats();
    let records = offer(mix, &mut rng, NOMINAL_RPS, half, true, tracer);
    let after = mix.fleet.stats();
    check(mix, &records, tracer, out);
    probe_layers(mix, &records, tracer, out);
    fleet_layers(&before, &after, out);

    let calls = tracer.calls();
    let group = |name: &str, label: &str, scale: f64| -> Vec<f64> {
        trace::durations_ms(&calls, name, label)
            .into_iter()
            .map(|v| v * scale)
            .collect()
    };
    let cache = group("fleet.submit", "cache", 1e3);
    let store = group("fleet.submit", "store", 1e3);
    let planned = group("fleet.wait", "planned", 1.0);
    for (name, unit, samples) in [
        ("fleet.cache_us", "us", &cache),
        ("fleet.store_us", "us", &store),
        ("fleet.planned_ms", "ms", &planned),
    ] {
        out.layer(format!("{name}.p50"), unit, percentile(samples, 0.5));
        out.layer(format!("{name}.p99"), unit, percentile(samples, 0.99));
    }
    let late: Vec<f64> = records.iter().map(|r| r.late_ms).collect();
    out.layer("loadgen.late_p99_ms", "ms", percentile(&late, 0.99));
    let lat = latencies(&records);
    let fleet_ms = trace::all_durations_ms(&calls, "fleet.submit")
        .iter()
        .sum::<f64>()
        + trace::all_durations_ms(&calls, "fleet.wait")
            .iter()
            .sum::<f64>();
    out.layer(
        "serve-mix.residual_ms",
        "ms",
        (lat.iter().filter(|v| v.is_finite()).sum::<f64>() - fleet_ms) / lat.len().max(1) as f64,
    );
    out.layer(
        "obs.overhead_ratio",
        "ratio",
        percentile(&lat, 0.5) / percentile(&latencies(&base), 0.5),
    );
}

/// Times the serve and verify layers from outside the fleet, on a sample
/// of the traced phase's requests: the fleet fingerprints, decodes and
/// verifies inside `submit`, where no span can reach, so the benchmark
/// repeats those calls on the same inputs after the phase.
fn probe_layers(mix: &ServeMix, records: &[Record], tracer: &Tracer, out: &mut Report) {
    let sample: Vec<&Record> = records
        .iter()
        .filter(|r| !r.fresh && r.plan.is_some())
        .step_by(5)
        .collect();
    let mut bytes = 0usize;
    let mut violations = 0usize;
    for rec in &sample {
        let r = &mix.known[rec.index];
        let plan = rec.plan.as_ref().expect("filtered on plan");
        let request = r.as_planned();
        let fp = {
            let _s = tracer.span("serve.fingerprint");
            request.fingerprint()
        };
        let text = {
            let _s = tracer.span("serve.encode");
            encode_plan(plan, Some(fp))
        };
        bytes += text.len();
        let decoded = {
            let _s = tracer.span("serve.decode");
            decode_plan(&text, request.model.graph(), &request.cluster)
        };
        let verdict = {
            let _s = tracer.span("verify");
            verify_strategy(&request.model, &request.cluster, plan)
        };
        violations += verdict.violations().len();
        out.outcome(match decoded {
            Ok((mut p, Some(f))) if f == fp => {
                let mut expected = (**plan).clone();
                expected.stats.zero_walls();
                p.stats.zero_walls();
                if p == expected {
                    Ok(())
                } else {
                    Err(format!("{}: artifact round trip changed the plan", r.label))
                }
            }
            Ok(_) => Err(format!("{}: artifact round trip changed the plan", r.label)),
            Err(e) => Err(format!("{}: artifact decode failed: {e}", r.label)),
        });
    }
    let calls = tracer.calls();
    let n = sample.len().max(1) as f64;
    out.layer(
        "serve.fingerprint_us",
        "us",
        trace::self_ms(&calls, "serve.fingerprint") * 1e3 / n,
    );
    out.layer(
        "serve.encode_us",
        "us",
        trace::self_ms(&calls, "serve.encode") * 1e3 / n,
    );
    out.layer(
        "serve.decode_us",
        "us",
        trace::self_ms(&calls, "serve.decode") * 1e3 / n,
    );
    out.layer("serve.artifact_bytes", "B", bytes as f64 / n);
    out.layer("verify.ms", "ms", trace::self_ms(&calls, "verify") / n);
    out.layer("verify.violations", "count", violations as f64);
    let plans = trace::all_durations_ms(&calls, "partition.plan");
    out.layer(
        "partition.plan_ms",
        "ms",
        plans.iter().sum::<f64>() / plans.len().max(1) as f64,
    );
}

/// Fleet counters over the traced phase, from `FleetStats`.
fn fleet_layers(before: &FleetStats, after: &FleetStats, out: &mut Report) {
    let requests = (after.requests - before.requests).max(1) as f64;
    out.layer(
        "fleet.shard_hit_rate",
        "ratio",
        (after.shard_hits - before.shard_hits) as f64 / requests,
    );
    out.layer(
        "fleet.store_hits",
        "count",
        (after.store_hits - before.store_hits) as f64,
    );
    out.layer(
        "fleet.planner_runs",
        "count",
        (after.planner_runs - before.planner_runs) as f64,
    );
    out.layer(
        "fleet.evictions",
        "count",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
    out.layer(
        "fleet.shed",
        "count",
        (after.shed + after.quota_refusals - before.shed - before.quota_refusals) as f64,
    );
    let mean_ms = |a: &graphpipe::obs::HistogramSnapshot, b: &graphpipe::obs::HistogramSnapshot| {
        (a.sum - b.sum) as f64 / 1e6 / (a.count - b.count).max(1) as f64
    };
    out.layer(
        "fleet.queue_wait_ms",
        "ms",
        mean_ms(&after.queue_wait, &before.queue_wait),
    );
    out.layer(
        "fleet.worker_rtt_ms",
        "ms",
        mean_ms(&after.worker_rtt, &before.worker_rtt),
    );
}
