//! # gp-sim — discrete-event simulator for pipeline-parallel training
//!
//! The GraphPipe paper executes every planner's strategy on the same
//! distributed runtime (FlexFlow on Summit) and reports training
//! throughput. This crate is that runtime's timing substitute (the
//! modeling contract is DESIGN.md §"The modeling contract"): a
//! deterministic discrete-event simulator that executes a strategy's
//! per-stage task orders on a modeled cluster and reports iteration time,
//! throughput, utilization, warm-up length, and per-device peak memory —
//! the observables behind Figures 6–9.
//!
//! The engine is arena-backed and scales to 512+ simulated devices and
//! 10k+ micro-batches at 20 bytes per task: device queues are slices of
//! one slab of 4-byte ids from the replica-major [`gp_sched::TaskIndex`],
//! the only per-task state is one 16-byte column of packed timeline keys
//! (start time plus the span's tie-break), which sorted in place *is* the
//! timeline, dependency probes walk precomputed CSR rows, and activation
//! memory is a running per-device watermark (the layout is documented on
//! the private `engine` module; the perf harness is
//! `crates/bench/src/bin/sim_profile.rs`).
//! [`SimOptions::parallelism`] enables a deterministic parallel
//! relaxation with byte-identical reports.
//!
//! # Examples
//!
//! ```
//! use gp_cluster::Cluster;
//! use gp_ir::zoo::{self, CandleUnoConfig};
//! use gp_partition::{GraphPipePlanner, Planner};
//! use gp_sim::SimOptions;
//!
//! let model = zoo::candle_uno(&CandleUnoConfig::default());
//! let cluster = Cluster::summit_like(8);
//! let plan = GraphPipePlanner::new().plan(&model, &cluster, 1024)?;
//! let report = gp_sim::simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule)?;
//! assert!(report.throughput > 0.0);
//! // The parallel engine produces the byte-identical report.
//! let par = gp_sim::simulate_with(
//!     model.graph(), &cluster, &plan.stage_graph, &plan.schedule,
//!     &SimOptions::default().with_parallelism(4),
//! )?;
//! assert_eq!(report.fingerprint(), par.fingerprint());
//! println!("{}", gp_sim::render_gantt(&report, &plan.stage_graph, 80));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod gantt;
mod report;
mod trace;

pub use engine::{simulate, simulate_traced, simulate_with, SimOptions};
pub use gantt::render_gantt;
pub use report::{SimError, SimReport, TaskSpan};
pub use trace::{report_into_perfetto, report_to_perfetto};
