//! The concurrent plan-serving service.
//!
//! [`PlanService`] owns a pool of planner worker threads behind a crossbeam
//! channel. Every [`PlanRequest`] is fingerprinted
//! ([`crate::fingerprint::request_fingerprint`]); the fingerprint drives a
//! three-level fast path:
//!
//! 1. **cache hit** — the LRU ([`crate::PlanCache`]) already holds a
//!    decoded plan for the fingerprint *and* the recorded
//!    [`numbering_signature`](SpModel::numbering_signature) matches the
//!    request's graph exactly; the plan is served without touching the DP
//!    planner;
//! 2. **single-flight join** — another request with the same fingerprint
//!    is already being planned; this request subscribes to its result
//!    instead of planning again (the worker checks each subscriber's
//!    numbering signature before fanning the shared plan out);
//! 3. **miss** — the request is queued for a worker, which runs the DP
//!    planner, fills the cache, and fans the result out to every
//!    subscriber.
//!
//! All three paths are counted in [`ServeStats`].
//!
//! **Planner parallelism.** A request whose
//! [`PlanOptions::parallelism`](gp_partition::PlanOptions) is above one
//! plans on the speculative parallel search
//! ([`gp_partition::ParallelPlanner`]): the worker that claims the miss
//! spreads the DP over that many scoped threads, letting one hot request
//! use otherwise idle cores. Because the parallel search is
//! plan-identical to the sequential one, the knob is excluded from the
//! request fingerprint — sequential and parallel requests for the same
//! problem share one cache entry and single-flight run.

use crate::cache::PlanCache;
use crate::fingerprint::{
    request_config_fingerprint, request_fingerprint, request_graph_fingerprint, Fingerprint,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use gp_baselines::{PipeDreamPlanner, PiperPlanner};
use gp_cluster::Cluster;
use gp_ir::SpModel;
use gp_obs::{ClockHandle, HistogramSnapshot, Telemetry};
use gp_partition::{GraphPipePlanner, Plan, PlanError, PlanOptions, Planner, WarmStart};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which planner a request should run on a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServePlanner {
    /// The GraphPipe §5 partitioner (the default).
    #[default]
    GraphPipe,
    /// The PipeDream-style sequential baseline.
    PipeDream,
    /// Piper's downset planner.
    Piper,
}

impl ServePlanner {
    /// Stable tag mixed into the request fingerprint.
    fn tag(self) -> u64 {
        match self {
            ServePlanner::GraphPipe => 0,
            ServePlanner::PipeDream => 1,
            ServePlanner::Piper => 2,
        }
    }

    fn build(
        self,
        options: PlanOptions,
        telemetry: &Telemetry,
        warm: Option<WarmStart>,
    ) -> Box<dyn Planner> {
        match self {
            ServePlanner::GraphPipe => {
                let planner =
                    GraphPipePlanner::with_options(options).with_telemetry(telemetry.clone());
                Box::new(match warm {
                    Some(w) => planner.with_warm_start(w),
                    None => planner,
                })
            }
            // The baselines have no iterative search to seed.
            ServePlanner::PipeDream => Box::new(PipeDreamPlanner::with_options(options)),
            ServePlanner::Piper => Box::new(PiperPlanner::with_options(options)),
        }
    }
}

/// One planning request: everything a planner needs, plus the planner
/// choice.
#[derive(Clone)]
pub struct PlanRequest {
    /// The model to plan (shared, since many requests reuse one model).
    pub model: Arc<SpModel>,
    /// The target cluster.
    pub cluster: Cluster,
    /// Global mini-batch size.
    pub mini_batch: u64,
    /// Planner search options.
    pub options: PlanOptions,
    /// Which planner to run on a miss.
    pub planner: ServePlanner,
}

impl PlanRequest {
    /// A GraphPipe request with default options.
    pub fn new(model: Arc<SpModel>, cluster: Cluster, mini_batch: u64) -> Self {
        PlanRequest {
            model,
            cluster,
            mini_batch,
            options: PlanOptions::default(),
            planner: ServePlanner::default(),
        }
    }

    /// Replaces the search options.
    pub fn with_options(mut self, options: PlanOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the planner choice.
    pub fn with_planner(mut self, planner: ServePlanner) -> Self {
        self.planner = planner;
        self
    }

    /// The request's cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        request_fingerprint(
            &self.model,
            &self.cluster,
            self.mini_batch,
            &self.options,
            self.planner.tag(),
        )
    }
}

/// Why a served request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The planner itself failed (infeasible, search explosion, ...).
    Plan(PlanError),
    /// The planner produced a plan the static verifier rejects: a planner
    /// bug, caught before the plan reaches the cache or any subscriber.
    InvalidPlan(gp_verify::VerifyError),
    /// The service shut down before the request completed.
    ServiceStopped,
    /// Admission control refused the request: the tenant is at its
    /// in-flight quota, or the miss queue is past its configured depth
    /// (`gp-fleet` shedding).
    Overloaded {
        /// The tenant whose request was refused.
        tenant: String,
        /// In-flight requests (quota refusal) or queued misses (shedding)
        /// at refusal time.
        depth: usize,
    },
    /// Every configured planner worker was unreachable (`gp-fleet` remote
    /// planning); the request was tried on `attempts` workers.
    WorkerUnavailable {
        /// Workers tried before giving up.
        attempts: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Plan(e) => write!(f, "planning failed: {e}"),
            ServeError::InvalidPlan(e) => {
                write!(f, "planner produced an invalid plan: {e}")
            }
            ServeError::ServiceStopped => write!(f, "plan service stopped"),
            ServeError::Overloaded { tenant, depth } => {
                write!(f, "request shed for tenant `{tenant}` (depth {depth})")
            }
            ServeError::WorkerUnavailable { attempts } => {
                write!(f, "no planner worker reachable (tried {attempts})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

type Reply = Result<Arc<Plan>, ServeError>;

/// A pending response to a submitted request.
#[must_use = "a ticket resolves to the plan; drop it and the answer is lost"]
pub struct PlanTicket {
    fingerprint: Fingerprint,
    served_from_cache: bool,
    rx: Receiver<Reply>,
}

impl PlanTicket {
    /// The request's fingerprint (cache key).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Whether the response was served straight from the cache at submit
    /// time (no planner involvement, not even a single-flight wait).
    pub fn served_from_cache(&self) -> bool {
        self.served_from_cache
    }

    /// Blocks until the plan (or failure) is available.
    ///
    /// # Errors
    ///
    /// Returns the planner's error, or [`ServeError::ServiceStopped`] when
    /// the service was dropped with the request still queued.
    pub fn wait(self) -> Result<Arc<Plan>, ServeError> {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(_) => Err(ServeError::ServiceStopped),
        }
    }
}

/// Monotonic service counters (all since service start).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    hits: AtomicU64,
    hit_rejections: AtomicU64,
    joins: AtomicU64,
    misses: AtomicU64,
    planner_runs: AtomicU64,
    planner_errors: AtomicU64,
    planner_nanos: AtomicU64,
    warm_starts: AtomicU64,
}

/// What the warm index remembers about the last successful GraphPipe plan
/// for a graph: enough to rebuild a [`WarmStart`] for a near-miss request
/// without holding the plan itself (the LRU may have evicted it).
#[derive(Clone, Copy)]
struct WarmSeed {
    /// Config part of the seeding request, to tell exact re-plans (cache
    /// evictions) from true near misses in the counters.
    config_fp: Fingerprint,
    /// Devices the seeding plan was computed for; the throughput hint
    /// scales by `devices / new_devices` (see [`WarmStart`]).
    devices: u32,
    bottleneck_tps: f64,
    micro_batch: u64,
}

/// A point-in-time snapshot of service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests submitted.
    pub requests: u64,
    /// Requests answered from the cache without planning.
    pub hits: u64,
    /// Requests whose fingerprint matched a plan (cached or in flight)
    /// computed for a *different* graph numbering — a fingerprint
    /// collision or an isomorphic model with renumbered operators — and
    /// were therefore planned fresh instead.
    pub hit_rejections: u64,
    /// Requests that joined an in-flight planning run (single-flight
    /// deduplication).
    pub joins: u64,
    /// Requests that dispatched a new planning run.
    pub misses: u64,
    /// Planner executions completed.
    pub planner_runs: u64,
    /// Planner executions that returned an error.
    pub planner_errors: u64,
    /// Total wall-clock nanoseconds spent inside planners.
    pub planner_nanos: u64,
    /// Planner executions seeded from a *near-miss* warm start: a prior
    /// plan for the same graph and planner under a different cluster,
    /// mini-batch, or options. Warm-started plans are identical to cold
    /// ones; only search effort changes.
    pub warm_starts: u64,
    /// Plans currently cached.
    pub cached_plans: u64,
    /// Cache evictions so far.
    pub cache_evictions: u64,
    /// Latency distribution of cache-hit responses (submit to reply),
    /// in nanoseconds. Empty unless the service was built with
    /// [`PlanService::with_telemetry`] and telemetry is enabled.
    pub hit_latency: HistogramSnapshot,
    /// Latency distribution of planner executions (misses), in
    /// nanoseconds. Empty without enabled telemetry.
    pub miss_latency: HistogramSnapshot,
    /// Distribution of time jobs spent queued before a worker picked them
    /// up, in nanoseconds. Empty without enabled telemetry.
    pub queue_wait: HistogramSnapshot,
}

impl ServeStats {
    /// Fraction of requests served without a planner dispatch (cache hits
    /// plus single-flight joins).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.hits + self.joins) as f64 / self.requests as f64
    }

    /// Mean planner latency in seconds (0 when nothing ran).
    pub fn mean_planner_latency(&self) -> f64 {
        if self.planner_runs == 0 {
            return 0.0;
        }
        self.planner_nanos as f64 / self.planner_runs as f64 / 1e9
    }

    /// The multi-line counter report (also the [`fmt::Display`] output).
    /// Latency histogram lines appear only when the corresponding
    /// distribution has samples, i.e. when the service runs with enabled
    /// telemetry ([`PlanService::with_telemetry`]).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "requests {}  hits {}  joins {}  misses {}  hit-rate {:.1}%",
            self.requests,
            self.hits,
            self.joins,
            self.misses,
            self.hit_rate() * 100.0
        );
        let _ = write!(
            out,
            "planner runs {} ({} failed, {} warm-started, mean {:.3} ms)  cached {}  evictions {}  rejected hits {}",
            self.planner_runs,
            self.planner_errors,
            self.warm_starts,
            self.mean_planner_latency() * 1e3,
            self.cached_plans,
            self.cache_evictions,
            self.hit_rejections
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        for (label, h) in [
            ("hit latency", &self.hit_latency),
            ("miss latency", &self.miss_latency),
            ("queue wait", &self.queue_wait),
        ] {
            if h.count > 0 {
                let _ = write!(
                    out,
                    "\n{label}: n {}  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
                    h.count,
                    ms(h.p50),
                    ms(h.p90),
                    ms(h.p99),
                    ms(h.max),
                );
            }
        }
        out
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

struct Job {
    fingerprint: Fingerprint,
    request: PlanRequest,
    /// Clock reading at submit time, for the queue-wait histogram.
    submitted_ns: u64,
}

/// Subscribers to an in-flight planning run. Each waiter keeps its own
/// request so the worker can re-validate the produced plan against *that*
/// requester's graph before fanning it out.
type Waiters = Vec<(PlanRequest, Sender<Reply>)>;

struct Shared {
    // Lock order: `inflight` before `cache` when both are held.
    inflight: Mutex<HashMap<Fingerprint, Waiters>>,
    cache: Mutex<PlanCache>,
    // Warm-start seeds, keyed by the *graph part* of the request
    // fingerprint ([`request_graph_fingerprint`]): one seed per
    // (model, planner), refreshed on every successful GraphPipe run.
    // Never held together with `inflight` or `cache`.
    warm_index: Mutex<HashMap<Fingerprint, WarmSeed>>,
    counters: Counters,
    // All wall-clock reads in the service go through this handle (the
    // workspace's sanctioned seam); `telemetry` additionally receives
    // spans and latency histograms when enabled.
    clock: ClockHandle,
    telemetry: Telemetry,
}

/// A long-running, thread-pool-backed planning service with an LRU plan
/// cache and single-flight request deduplication.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use gp_cluster::Cluster;
/// use gp_ir::zoo::{self, MmtConfig};
/// use gp_serve::{PlanRequest, PlanService};
///
/// let service = PlanService::new(2, 16);
/// let model = Arc::new(zoo::mmt(&MmtConfig::tiny()));
/// let request = PlanRequest::new(model, Cluster::summit_like(4), 32);
/// let first = service.plan(request.clone())?;
/// let again = service.plan(request)?;            // served from cache
/// assert_eq!(first, again);
/// let stats = service.shutdown();
/// assert_eq!(stats.planner_runs, 1);
/// assert_eq!(stats.hits, 1);
/// # Ok::<(), gp_serve::ServeError>(())
/// ```
pub struct PlanService {
    shared: Arc<Shared>,
    job_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl PlanService {
    /// Starts a service with `workers` planner threads and an LRU cache of
    /// `cache_capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `cache_capacity == 0`.
    pub fn new(workers: usize, cache_capacity: usize) -> Self {
        Self::with_telemetry(workers, cache_capacity, Telemetry::disabled())
    }

    /// [`PlanService::new`] with a [`Telemetry`] handle: the service
    /// records `serve.hit_latency_ns` / `serve.miss_latency_ns` /
    /// `serve.queue_wait_ns` histograms and a `serve.coalesced` counter
    /// into it, opens a `serve.plan` span around every planner run, and
    /// hands the telemetry to the planners themselves. The histograms are
    /// surfaced in [`PlanService::stats`].
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `cache_capacity == 0`.
    pub fn with_telemetry(workers: usize, cache_capacity: usize, telemetry: Telemetry) -> Self {
        assert!(workers > 0, "plan service needs at least one worker");
        let shared = Arc::new(Shared {
            inflight: Mutex::new(HashMap::new()),
            cache: Mutex::new(PlanCache::new(cache_capacity)),
            warm_index: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            clock: ClockHandle::default(),
            telemetry,
        });
        let (job_tx, job_rx) = unbounded::<Job>();
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = job_rx.clone();
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        PlanService {
            shared,
            job_tx: Some(job_tx),
            workers: handles,
        }
    }

    /// Submits a request, returning a ticket that resolves to the plan.
    ///
    /// Never blocks on planning: cache hits resolve immediately and misses
    /// are queued for the worker pool.
    pub fn submit(&self, request: PlanRequest) -> PlanTicket {
        let fingerprint = request.fingerprint();
        // Order-sensitive identity of this request's graph numbering —
        // memoized on the model, like the fingerprint's model digest; a
        // cached plan is served only when its recorded numbering matches
        // exactly, since plans carry raw operator ids while the
        // fingerprint is renumbering-invariant.
        let numbering = request.model.numbering_signature();
        let counters = &self.shared.counters;
        counters.requests.fetch_add(1, Ordering::Relaxed);
        // 0 when telemetry is disabled: the disabled path never reads the
        // clock, keeping `submit` allocation- and syscall-free on top of
        // its existing work.
        let submitted_ns = if self.shared.telemetry.is_enabled() {
            self.shared.clock.now_nanos()
        } else {
            0
        };
        let (tx, rx) = unbounded::<Reply>();

        // Fast path: cache hit for the identical planning problem.
        let mut consult_cache = true;
        if let Some((plan, cached_numbering)) = self.shared.cache.lock().get(&fingerprint) {
            if cached_numbering == numbering {
                counters.hits.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .record_since("serve.hit_latency_ns", submitted_ns);
                let _ = tx.send(Ok(plan));
                return PlanTicket {
                    fingerprint,
                    served_from_cache: true,
                    rx,
                };
            }
            // Fingerprint collision or an isomorphic model with renumbered
            // operators: the cached plan would index the wrong operators.
            // Plan this request for real, without re-consulting the cache.
            counters.hit_rejections.fetch_add(1, Ordering::Relaxed);
            consult_cache = false;
        }

        // Slow path: join a running computation or claim the fingerprint,
        // re-checking the cache under the in-flight lock so a worker
        // finishing between the fast path and here cannot be missed.
        {
            let mut inflight = self.shared.inflight.lock();
            if let Some(waiters) = inflight.get_mut(&fingerprint) {
                waiters.push((request, tx.clone()));
                counters.joins.fetch_add(1, Ordering::Relaxed);
                self.shared.telemetry.counter_add("serve.coalesced", 1);
                return PlanTicket {
                    fingerprint,
                    served_from_cache: false,
                    rx,
                };
            }
            if consult_cache {
                if let Some((plan, cached_numbering)) = self.shared.cache.lock().get(&fingerprint) {
                    if cached_numbering == numbering {
                        counters.hits.fetch_add(1, Ordering::Relaxed);
                        self.shared
                            .record_since("serve.hit_latency_ns", submitted_ns);
                        let _ = tx.send(Ok(plan));
                        return PlanTicket {
                            fingerprint,
                            served_from_cache: true,
                            rx,
                        };
                    }
                    counters.hit_rejections.fetch_add(1, Ordering::Relaxed);
                }
            }
            inflight.insert(fingerprint, vec![(request.clone(), tx.clone())]);
        }

        counters.misses.fetch_add(1, Ordering::Relaxed);
        let send_failed = match &self.job_tx {
            Some(job_tx) => job_tx
                .send(Job {
                    fingerprint,
                    request,
                    submitted_ns,
                })
                .is_err(),
            None => true,
        };
        if send_failed {
            // Service is shutting down: fail the request instead of leaving
            // the waiter dangling.
            if let Some(waiters) = self.shared.inflight.lock().remove(&fingerprint) {
                for (_, waiter) in waiters {
                    let _ = waiter.send(Err(ServeError::ServiceStopped));
                }
            }
        }
        PlanTicket {
            fingerprint,
            served_from_cache: false,
            rx,
        }
    }

    /// Submits a request and blocks for the response.
    ///
    /// # Errors
    ///
    /// Propagates the planner's failure or a service shutdown.
    pub fn plan(&self, request: PlanRequest) -> Result<Arc<Plan>, ServeError> {
        self.submit(request).wait()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        let (cached_plans, cache_evictions) = {
            let cache = self.shared.cache.lock();
            (cache.len() as u64, cache.evictions())
        };
        ServeStats {
            requests: c.requests.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            hit_rejections: c.hit_rejections.load(Ordering::Relaxed),
            joins: c.joins.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            planner_runs: c.planner_runs.load(Ordering::Relaxed),
            planner_errors: c.planner_errors.load(Ordering::Relaxed),
            planner_nanos: c.planner_nanos.load(Ordering::Relaxed),
            warm_starts: c.warm_starts.load(Ordering::Relaxed),
            cached_plans,
            cache_evictions,
            hit_latency: self
                .shared
                .telemetry
                .histogram_snapshot("serve.hit_latency_ns"),
            miss_latency: self
                .shared
                .telemetry
                .histogram_snapshot("serve.miss_latency_ns"),
            queue_wait: self
                .shared
                .telemetry
                .histogram_snapshot("serve.queue_wait_ns"),
        }
    }

    /// The telemetry handle this service records into
    /// ([`Telemetry::disabled`] unless built via
    /// [`PlanService::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Drains the worker pool and returns the final counters.
    ///
    /// Queued requests still complete; new submissions after shutdown
    /// would fail, but `shutdown` consumes the service so the type system
    /// already forbids them.
    pub fn shutdown(mut self) -> ServeStats {
        self.join_workers();
        self.stats()
    }

    fn join_workers(&mut self) {
        // Closing the channel lets workers drain the queue and exit.
        self.job_tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.join_workers();
    }
}

impl Shared {
    /// Records `clock now − since_ns` into the named histogram; free when
    /// telemetry is disabled (no clock read, no lookup).
    fn record_since(&self, name: &str, since_ns: u64) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .record(name, self.clock.now_nanos().saturating_sub(since_ns));
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        shared.record_since("serve.queue_wait_ns", job.submitted_ns);
        let reply = run_planner(shared, &job.request);
        let numbering = job.request.model.numbering_signature();
        // Publish to the cache and collect subscribers under the in-flight
        // lock (same order as `submit`: inflight, then cache) so that no
        // concurrent submit can both miss the cache and miss the in-flight
        // entry.
        let waiters = {
            let mut inflight = shared.inflight.lock();
            if let Ok(plan) = &reply {
                shared
                    .cache
                    .lock()
                    .insert(job.fingerprint, Arc::clone(plan), numbering);
            }
            inflight.remove(&job.fingerprint).unwrap_or_default()
        };
        // Fan out, re-validating per subscriber: a joiner shares the
        // fingerprint but may hold an isomorphic-yet-renumbered model (or a
        // colliding request), for which this plan's OpIds would be wrong.
        // The waiter's signature was memoized by its own `submit`.
        for (waiter_request, waiter_tx) in waiters {
            let resp = match &reply {
                Ok(plan) => {
                    if waiter_request.model.numbering_signature() == numbering {
                        Ok(Arc::clone(plan))
                    } else {
                        shared
                            .counters
                            .hit_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        run_planner(shared, &waiter_request)
                    }
                }
                Err(e) => Err(e.clone()),
            };
            let _ = waiter_tx.send(resp);
        }
    }
}

/// Runs the request's planner synchronously, updating the run/error/latency
/// counters.
///
/// GraphPipe runs consult the warm index first: a seed recorded for the
/// same graph and planner — even under a different cluster, mini-batch, or
/// options (a fingerprint *near miss*) — turns into a [`WarmStart`], which
/// skips most of the bracket ladder without changing the produced plan.
fn run_planner(shared: &Shared, request: &PlanRequest) -> Reply {
    let mut warm = None;
    let mut seed_key = None;
    if request.planner == ServePlanner::GraphPipe {
        let graph_fp = request_graph_fingerprint(&request.model, request.planner.tag());
        let config_fp =
            request_config_fingerprint(&request.cluster, request.mini_batch, &request.options);
        seed_key = Some((graph_fp, config_fp));
        if let Some(seed) = shared.warm_index.lock().get(&graph_fp).copied() {
            let devices = request.cluster.device_count().max(1) as f64;
            warm = Some(WarmStart {
                tps_hint: seed.bottleneck_tps * (seed.devices.max(1) as f64 / devices),
                micro_batch: Some(seed.micro_batch),
            });
            if seed.config_fp != config_fp {
                shared.counters.warm_starts.fetch_add(1, Ordering::Relaxed);
                shared.telemetry.counter_add("serve.warm_starts", 1);
            }
        }
    }
    let planner = request
        .planner
        .build(request.options.clone(), &shared.telemetry, warm);
    let span = shared.telemetry.span("serve.plan");
    let start_ns = shared.clock.now_nanos();
    let outcome = planner.plan(&request.model, &request.cluster, request.mini_batch);
    let elapsed_ns = shared.clock.now_nanos().saturating_sub(start_ns);
    drop(span);
    let counters = &shared.counters;
    counters.planner_runs.fetch_add(1, Ordering::Relaxed);
    counters
        .planner_nanos
        .fetch_add(elapsed_ns, Ordering::Relaxed);
    if shared.telemetry.is_enabled() {
        shared.telemetry.record("serve.miss_latency_ns", elapsed_ns);
    }
    match outcome {
        Ok(plan) => {
            // Trust boundary: every plan is statically verified before it
            // can reach the cache or be fanned out to subscribers, so a
            // planner bug surfaces as a named invariant violation instead
            // of corrupting downstream consumers.
            if let Err(e) =
                gp_verify::verify_strategy(&request.model, &request.cluster, &plan).into_result()
            {
                counters.planner_errors.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::InvalidPlan(e));
            }
            if let Some((graph_fp, config_fp)) = seed_key {
                shared.warm_index.lock().insert(
                    graph_fp,
                    WarmSeed {
                        config_fp,
                        devices: request.cluster.device_count() as u32,
                        bottleneck_tps: plan.bottleneck_tps,
                        micro_batch: plan.max_micro_batch(),
                    },
                );
            }
            Ok(Arc::new(plan))
        }
        Err(e) => {
            counters.planner_errors.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::Plan(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, MmtConfig};

    fn request(mini_batch: u64) -> PlanRequest {
        PlanRequest::new(
            Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())),
            Cluster::summit_like(4),
            mini_batch,
        )
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let service = PlanService::new(2, 8);
        let a = service.plan(request(32)).unwrap();
        let b = service.plan(request(32)).unwrap();
        assert_eq!(a, b);
        let stats = service.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.planner_runs, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn distinct_requests_plan_separately() {
        let service = PlanService::new(2, 8);
        let a = service.plan(request(32)).unwrap();
        let b = service.plan(request(16)).unwrap();
        assert_ne!(a.stage_graph.mini_batch(), b.stage_graph.mini_batch());
        let stats = service.shutdown();
        assert_eq!(stats.planner_runs, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn concurrent_identical_requests_run_the_planner_once() {
        // More submitters than workers, all identical: single-flight must
        // collapse them into exactly one planner execution.
        let service = Arc::new(PlanService::new(4, 8));
        let tickets: Vec<PlanTicket> = (0..64).map(|_| service.submit(request(32))).collect();
        let mut plans = Vec::new();
        for t in tickets {
            plans.push(t.wait().unwrap());
        }
        for w in plans.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        let service = Arc::try_unwrap(service).ok().expect("sole owner");
        let stats = service.shutdown();
        assert_eq!(stats.requests, 64);
        assert_eq!(stats.planner_runs, 1, "single-flight failed: {stats}");
        assert_eq!(stats.hits + stats.joins, 63);
    }

    #[test]
    fn planner_failures_propagate_to_all_waiters() {
        // A mini-batch no micro-batch candidate divides -> planner error.
        let service = PlanService::new(1, 8);
        let bad = PlanRequest::new(
            Arc::new(zoo::mmt(&MmtConfig::tiny())),
            Cluster::summit_like(4),
            32,
        )
        .with_options(PlanOptions {
            micro_batch_candidates: Some(vec![7]),
            ..PlanOptions::default()
        });
        let t1 = service.submit(bad.clone());
        let t2 = service.submit(bad);
        assert!(matches!(t1.wait(), Err(ServeError::Plan(_))));
        assert!(matches!(t2.wait(), Err(ServeError::Plan(_))));
        let stats = service.shutdown();
        assert_eq!(stats.planner_errors, stats.planner_runs);
        // Errors are not cached.
        assert_eq!(stats.cached_plans, 0);
    }

    #[test]
    fn tickets_expose_fingerprint_and_cache_flag() {
        let service = PlanService::new(1, 8);
        let t1 = service.submit(request(32));
        let fp = t1.fingerprint();
        assert!(!t1.served_from_cache());
        t1.wait().unwrap();
        let t2 = service.submit(request(32));
        assert_eq!(t2.fingerprint(), fp);
        assert!(t2.served_from_cache());
        t2.wait().unwrap();
    }

    #[test]
    fn baseline_planners_are_servable() {
        let service = PlanService::new(2, 8);
        let gp = service.plan(request(32)).unwrap();
        let pd = service
            .plan(request(32).with_planner(ServePlanner::PipeDream))
            .unwrap();
        // Different planner => different fingerprint => both planned.
        assert!(pd.pipeline_depth() >= gp.pipeline_depth());
        let stats = service.shutdown();
        assert_eq!(stats.planner_runs, 2);
    }

    #[test]
    fn eviction_forces_a_replan() {
        let service = PlanService::new(1, 1);
        service.plan(request(32)).unwrap();
        service.plan(request(16)).unwrap(); // evicts the first plan
        service.plan(request(32)).unwrap(); // must re-plan
        let stats = service.shutdown();
        assert_eq!(stats.planner_runs, 3);
        assert_eq!(stats.cache_evictions, 2);
    }

    #[test]
    fn renumbered_isomorphic_model_gets_its_own_plan() {
        use gp_ir::{GraphBuilder, OpKind, Shape, SpBlock, SpModel};
        // The same asymmetric diamond built in two insertion orders: equal
        // fingerprints, permuted OpIds. Serving A's cached plan to B would
        // assign B's operators to the wrong stages; the service must
        // detect the mismatch and plan B for real.
        let diamond = |swap: bool| {
            let mut b = GraphBuilder::new();
            let x = b.input("x", Shape::vector(64));
            let (p, q) = if swap {
                let q = b.linear("q", x, 64, false).unwrap();
                let p = b.linear("p", x, 64, true).unwrap();
                (p, q)
            } else {
                let p = b.linear("p", x, 64, true).unwrap();
                let q = b.linear("q", x, 64, false).unwrap();
                (p, q)
            };
            let cat = b.op("cat", OpKind::Concat, &[p, q]).unwrap();
            let loss = b.loss("loss", &[cat]);
            let root = SpBlock::Chain(vec![
                SpBlock::Leaf(x),
                SpBlock::Branches(vec![SpBlock::Leaf(p), SpBlock::Leaf(q)]),
                SpBlock::Leaf(cat),
                SpBlock::Leaf(loss),
            ]);
            Arc::new(SpModel::new("diamond", b.finish().unwrap(), root).unwrap())
        };
        let (a, b) = (diamond(false), diamond(true));
        let req = |m: &Arc<SpModel>| PlanRequest::new(Arc::clone(m), Cluster::summit_like(2), 16);
        assert_eq!(req(&a).fingerprint(), req(&b).fingerprint());

        let service = PlanService::new(1, 8);
        let plan_a = service.plan(req(&a)).unwrap();
        let plan_b = service.plan(req(&b)).unwrap();
        // Both plans must be valid for their own graph's numbering.
        for (plan, model) in [(&plan_a, &a), (&plan_b, &b)] {
            plan.schedule.validate_c4(&plan.stage_graph).unwrap();
            for s in plan.stage_graph.stages() {
                assert!(model.graph().is_convex(&s.ops));
            }
        }
        let stats = service.shutdown();
        // B was either rejected at the cache (planned fresh) or joined and
        // re-planned at fan-out; in both cases two planner runs happened.
        assert_eq!(stats.planner_runs, 2, "{stats}");
        assert!(stats.hit_rejections >= 1, "{stats}");
    }

    #[test]
    fn parallel_requests_share_the_sequential_cache_entry() {
        // One hot request may spend idle cores via options.parallelism;
        // the produced plan is identical, so sequential and parallel
        // requests must collapse onto a single cache entry.
        let service = PlanService::new(2, 8);
        let parallel = request(32).with_options(PlanOptions {
            parallelism: 3,
            ..PlanOptions::default()
        });
        assert_eq!(request(32).fingerprint(), parallel.fingerprint());
        let a = service.plan(parallel).unwrap();
        let b = service.plan(request(32)).unwrap();
        assert_eq!(a, b);
        let stats = service.shutdown();
        assert_eq!(stats.planner_runs, 1, "{stats}");
        assert_eq!(stats.hits, 1, "{stats}");
    }

    #[test]
    fn near_miss_warm_start_serves_the_cold_plan() {
        use crate::fingerprint::plan_fingerprint;
        // Same model, different cluster size and mini-batch: a fingerprint
        // near miss. The warm-started plan must be byte-identical to what a
        // cold service produces for the same request.
        let service = PlanService::new(1, 8);
        service.plan(request(32)).unwrap(); // seeds the warm index
        let near = |mini: u64| {
            PlanRequest::new(
                Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())),
                Cluster::summit_like(8),
                mini,
            )
        };
        let warm_plan = service.plan(near(64)).unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.planner_runs, 2, "{stats}");
        assert_eq!(stats.warm_starts, 1, "{stats}");
        assert!(stats.to_string().contains("warm-started"));

        let cold_service = PlanService::new(1, 8);
        let cold_plan = cold_service.plan(near(64)).unwrap();
        assert_eq!(cold_service.shutdown().warm_starts, 0);
        assert_eq!(plan_fingerprint(&warm_plan), plan_fingerprint(&cold_plan));
        assert_eq!(warm_plan.stage_graph, cold_plan.stage_graph);
        assert_eq!(warm_plan.bottleneck_tps, cold_plan.bottleneck_tps);
    }

    #[test]
    fn warm_start_counts_only_near_misses() {
        // An eviction-forced replan of the *same* config reuses the seed
        // but is not a near miss, so the counter must stay untouched. The
        // eviction comes from a different model, whose seed lives under its
        // own graph fingerprint.
        let other = PlanRequest::new(
            Arc::new(zoo::mmt(&MmtConfig::tiny())),
            Cluster::summit_like(4),
            32,
        );
        let service = PlanService::new(1, 1);
        service.plan(request(32)).unwrap();
        service.plan(other).unwrap(); // evicts the first plan
        service.plan(request(32)).unwrap(); // exact replan: warm, not near
        let stats = service.shutdown();
        assert_eq!(stats.planner_runs, 3, "{stats}");
        assert_eq!(stats.warm_starts, 0, "{stats}");
    }

    #[test]
    fn stats_display_mentions_hit_rate() {
        let service = PlanService::new(1, 4);
        service.plan(request(32)).unwrap();
        service.plan(request(32)).unwrap();
        let text = service.shutdown().to_string();
        assert!(text.contains("hit-rate"), "{text}");
        assert!(text.contains("planner runs"), "{text}");
    }
}
