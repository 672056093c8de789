//! The speculative parallel planner.
//!
//! [`ParallelPlanner`] is [`GraphPipePlanner`] with
//! [`PlanOptions::parallelism`] forced above one. The binary search's
//! probe *sequence* is data-dependent, but its candidate *targets* are
//! not: the bracket ladder is fully precomputable and the bisection's
//! decision tree reveals every possible future midpoint. The
//! [`SpeculativeProvider`] therefore evaluates upcoming targets — and the
//! independent micro-batch configurations within each probe — concurrently
//! on scoped worker threads (the DP state is `Send`; see `dp.rs`), while
//! the driver replays the exact sequential probe order against the cache.
//! The returned [`Plan`] is byte-identical to the sequential planner's;
//! only `stats.wall` differs.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::dp::{run_dp, CostTables, GraphPipePlanner, ProbeProvider, RunResult, SearchCtx};
use crate::plan::{Plan, PlanError, PlanOptions, Planner, WarmStart};
use gp_cluster::Cluster;
use gp_ir::SpModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A planner that runs GraphPipe's search on multiple threads while
/// producing the same plan as the sequential [`GraphPipePlanner`].
///
/// # Examples
///
/// ```
/// use gp_cluster::Cluster;
/// use gp_ir::zoo::{self, MmtConfig};
/// use gp_partition::{GraphPipePlanner, ParallelPlanner, Planner};
///
/// let model = zoo::mmt(&MmtConfig::two_branch());
/// let cluster = Cluster::summit_like(4);
/// let seq = GraphPipePlanner::new().plan(&model, &cluster, 64)?;
/// let par = ParallelPlanner::new(4).plan(&model, &cluster, 64)?;
/// assert_eq!(seq.stage_graph, par.stage_graph);
/// assert_eq!(seq.schedule, par.schedule);
/// assert_eq!(seq.stats.dp_evals, par.stats.dp_evals);
/// # Ok::<(), gp_partition::PlanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelPlanner {
    inner: GraphPipePlanner,
}

impl ParallelPlanner {
    /// A parallel planner with default options over `threads` workers
    /// (clamped to at least 2 — use [`GraphPipePlanner`] for sequential
    /// search).
    pub fn new(threads: usize) -> Self {
        Self::with_options(PlanOptions::default(), threads)
    }

    /// A parallel planner with explicit options; `threads` overrides
    /// `options.parallelism`.
    pub fn with_options(mut options: PlanOptions, threads: usize) -> Self {
        options.parallelism = threads.max(2);
        ParallelPlanner {
            inner: GraphPipePlanner::with_options(options),
        }
    }

    /// The options in effect (with `parallelism` applied).
    pub fn options(&self) -> &PlanOptions {
        self.inner.options()
    }

    /// Seed the search from a previously planned strategy; the produced
    /// plan is identical either way (see [`WarmStart`]). The micro-batch
    /// hint additionally steers which speculative tasks run first.
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.inner = self.inner.with_warm_start(warm);
        self
    }
}

impl Planner for ParallelPlanner {
    fn name(&self) -> &str {
        "graphpipe-parallel"
    }

    fn plan(&self, model: &SpModel, cluster: &Cluster, mini_batch: u64) -> Result<Plan, PlanError> {
        self.inner.plan(model, cluster, mini_batch)
    }
}

/// One unit of speculative work: a single DP run of one probe.
struct Task {
    t_bits: u64,
    run_idx: usize,
    t: f64,
    b_cands: Vec<u64>,
}

/// Probe provider that prefetches hinted targets on a scoped thread pool.
/// Results are keyed by the target's bit pattern; each probe's runs are
/// reassembled in configuration order before the driver consumes them.
pub(crate) struct SpeculativeProvider<'c, 'a> {
    ctx: &'c SearchCtx<'a>,
    threads: usize,
    cache: HashMap<u64, Vec<RunResult>>,
    /// One set of cost tables per worker, kept for the whole search (an
    /// arena is never shared between threads).
    tables: Vec<CostTables>,
    /// Micro-batch size a warm start predicted the plan will use. Tasks
    /// whose candidate list contains it are scheduled first — every task
    /// still runs, and results are reassembled in configuration order, so
    /// this only changes wall-clock time, never the plan.
    warm_micro_batch: Option<u64>,
}

impl<'c, 'a> SpeculativeProvider<'c, 'a> {
    pub(crate) fn new(
        ctx: &'c SearchCtx<'a>,
        threads: usize,
        warm_micro_batch: Option<u64>,
    ) -> Self {
        SpeculativeProvider {
            ctx,
            threads: threads.max(2),
            cache: HashMap::new(),
            tables: Vec::new(),
            warm_micro_batch,
        }
    }

    /// Evaluates every run of `targets` concurrently and fills the cache.
    fn compute_wave(&mut self, targets: &[f64]) {
        let mut tasks: Vec<Task> = Vec::new();
        let mut run_counts: Vec<(u64, usize)> = Vec::new();
        for &t in targets {
            let bits = t.to_bits();
            if self.cache.contains_key(&bits) || run_counts.iter().any(|&(b, _)| b == bits) {
                continue;
            }
            let (specs, _) = self.ctx.run_specs(t);
            run_counts.push((bits, specs.len()));
            for (run_idx, b_cands) in specs.into_iter().enumerate() {
                tasks.push(Task {
                    t_bits: bits,
                    run_idx,
                    t,
                    b_cands,
                });
            }
        }
        if let Some(hint) = self.warm_micro_batch {
            // Stable: hinted configurations first, original order otherwise.
            tasks.sort_by_key(|task| !task.b_cands.contains(&hint));
        }
        if tasks.is_empty() {
            for (bits, _) in run_counts {
                self.cache.insert(bits, Vec::new());
            }
            return;
        }
        let workers = self.threads.min(tasks.len());
        while self.tables.len() < workers {
            self.tables.push(CostTables::new(self.ctx));
        }
        let results = run_tasks(self.ctx, &tasks, &mut self.tables[..workers]);
        for (bits, count) in run_counts {
            let mut runs: Vec<Option<RunResult>> = (0..count).map(|_| None).collect();
            for (task, result) in tasks.iter().zip(results.iter()) {
                if task.t_bits == bits {
                    runs[task.run_idx] = Some(result.clone());
                }
            }
            self.cache.insert(
                bits,
                runs.into_iter()
                    .map(|r| r.expect("every run computed"))
                    .collect(),
            );
        }
    }
}

impl ProbeProvider for SpeculativeProvider<'_, '_> {
    fn take(&mut self, t: f64, _remaining: u64) -> Vec<RunResult> {
        // `_remaining` is unknowable at speculation time; runs execute
        // under the full budget and the replay re-runs the (rare) case
        // where the difference matters.
        let bits = t.to_bits();
        if !self.cache.contains_key(&bits) {
            self.compute_wave(&[t]);
        }
        self.cache.remove(&bits).expect("wave filled the cache")
    }

    fn prefetch(&mut self, targets: &[f64]) {
        // Cap the wave so a long ladder hint doesn't evaluate rungs the
        // walk will never reach: enough targets to keep the pool busy.
        let cap = self.threads.max(2);
        let mut wave: Vec<f64> = Vec::new();
        for &t in targets {
            if self.cache.contains_key(&t.to_bits()) {
                continue;
            }
            wave.push(t);
            if wave.len() >= cap {
                break;
            }
        }
        if !wave.is_empty() {
            self.compute_wave(&wave);
        }
    }

    fn spec_depth(&self) -> u32 {
        // 2^depth - 1 speculative probes per wave ≈ the worker count.
        (usize::BITS - (self.threads + 1).leading_zeros() - 1).max(1)
    }
}

/// Runs every task on one scoped worker per table set (work-stealing by
/// atomic index), returning results in task order. A run's result does
/// not depend on which worker's tables served it.
fn run_tasks(ctx: &SearchCtx<'_>, tasks: &[Task], tables: &mut [CostTables]) -> Vec<RunResult> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunResult>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let budget = ctx.options.eval_budget;
    crossbeam::thread::scope(|s| {
        for worker_tables in tables.iter_mut() {
            let (next, slots) = (&next, &slots);
            s.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(task) = tasks.get(i) else { break };
                let result = run_dp(ctx, worker_tables, task.t, task.b_cands.clone(), budget);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    })
    .expect("worker threads do not panic");
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, GnnPipeConfig, MmtConfig, MoeConfig};

    fn strip_wall(mut plan: Plan) -> Plan {
        plan.stats.zero_walls();
        plan
    }

    #[test]
    fn parallel_plans_equal_sequential_plans() {
        let cells: Vec<(gp_ir::SpModel, usize, u64)> = vec![
            (zoo::mmt(&MmtConfig::default()), 8, 128),
            (zoo::dlrm(&DlrmConfig::default()), 8, 512),
            (zoo::candle_uno(&CandleUnoConfig::default()), 8, 1024),
            (zoo::moe(&MoeConfig::tiny()), 4, 64),
            // Absorbed joins: each worker's tables create their own
            // variants, in whatever order its tasks arrive.
            (zoo::gnn_pipe(&GnnPipeConfig::tiny()), 4, 64),
        ];
        for (model, devices, mini_batch) in cells {
            let cluster = Cluster::summit_like(devices);
            let seq = GraphPipePlanner::new()
                .plan(&model, &cluster, mini_batch)
                .unwrap();
            for threads in [2, 4, 7] {
                let par = ParallelPlanner::new(threads)
                    .plan(&model, &cluster, mini_batch)
                    .unwrap();
                assert_eq!(
                    strip_wall(seq.clone()),
                    strip_wall(par),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_explosion_matches_sequential() {
        // Budget accounting must be bit-identical even on the error path:
        // speculative runs execute under the full budget and are replayed
        // (re-run) with the exact remaining budget.
        let model = zoo::candle_uno(&CandleUnoConfig::default());
        let cluster = Cluster::summit_like(8);
        for budget in [1u64, 100, 5000] {
            let opts = PlanOptions {
                eval_budget: budget,
                ..PlanOptions::default()
            };
            let seq = GraphPipePlanner::with_options(opts.clone()).plan(&model, &cluster, 1024);
            let par = ParallelPlanner::with_options(opts, 4).plan(&model, &cluster, 1024);
            match (seq, par) {
                (Err(a), Err(b)) => assert_eq!(a, b, "budget={budget}"),
                (a, b) => panic!("expected twin explosions, got {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn parallelism_knob_on_graphpipe_planner_is_equivalent() {
        // The serve path sets `options.parallelism` on a plain
        // GraphPipePlanner; that must match the ParallelPlanner wrapper.
        let model = zoo::mmt(&MmtConfig::two_branch());
        let cluster = Cluster::summit_like(4);
        let opts = PlanOptions {
            parallelism: 3,
            ..PlanOptions::default()
        };
        let a = GraphPipePlanner::with_options(opts.clone())
            .plan(&model, &cluster, 64)
            .unwrap();
        let b = ParallelPlanner::with_options(opts, 3)
            .plan(&model, &cluster, 64)
            .unwrap();
        assert_eq!(strip_wall(a), strip_wall(b));
    }

    #[test]
    fn spec_depth_scales_with_threads() {
        let model = zoo::mmt(&MmtConfig::tiny());
        let cluster = Cluster::summit_like(2);
        let opts = PlanOptions::default();
        let ctx = SearchCtx::new(&model, &cluster, 16, &opts).unwrap();
        assert_eq!(SpeculativeProvider::new(&ctx, 2, None).spec_depth(), 1);
        assert_eq!(SpeculativeProvider::new(&ctx, 4, None).spec_depth(), 2);
        assert_eq!(SpeculativeProvider::new(&ctx, 8, None).spec_depth(), 3);
        assert_eq!(SpeculativeProvider::new(&ctx, 16, None).spec_depth(), 4);
    }
}
