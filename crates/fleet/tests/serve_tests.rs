//! Integration tests for in-process plan serving: real OS-thread
//! concurrency against one fleet, and end-to-end artifact fidelity (a
//! decoded plan simulates byte-identically to the original).

use gp_cluster::Cluster;
use gp_fleet::{FleetConfig, FleetService};
use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig, MoeConfig};
use gp_partition::Plan;
use gp_serve::{artifact, PlanRequest, ServeError, ServePlanner};
use std::sync::Arc;
use std::thread;

fn plan(fleet: &FleetService, request: PlanRequest) -> Result<Arc<Plan>, ServeError> {
    fleet.submit("t", request)?.wait()
}

#[test]
fn sixty_four_concurrent_identical_requests_single_flight() {
    let fleet = FleetService::start(FleetConfig::local(4, 16)).unwrap();
    let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::default()));
    let request = PlanRequest::new(model, Cluster::summit_like(8), 1024);
    let plans: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|_| s.spawn(|| plan(&fleet, request.clone()).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for w in plans.windows(2) {
        assert_eq!(w[0], w[1], "all requesters must observe the same plan");
    }
    let stats = fleet.stats();
    assert_eq!(stats.requests, 64);
    assert_eq!(
        stats.planner_runs,
        1,
        "identical concurrent requests must trigger exactly one planner run:\n{}",
        stats.render()
    );
    assert_eq!(stats.shard_hits + stats.joins, 63);
}

#[test]
fn concurrent_mixed_workload_is_consistent() {
    let fleet = FleetService::start(FleetConfig::local(4, 32)).unwrap();
    let models: Vec<(Arc<_>, u64)> = vec![
        (Arc::new(zoo::mmt(&MmtConfig::tiny())), 32),
        (Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny())), 32),
        (Arc::new(zoo::dlrm(&DlrmConfig::tiny())), 16),
        (Arc::new(zoo::moe(&MoeConfig::tiny())), 16),
    ];
    thread::scope(|s| {
        for i in 0..64 {
            let (model, mini_batch) = models[i % models.len()].clone();
            let fleet = &fleet;
            s.spawn(move || {
                let request = PlanRequest::new(model, Cluster::summit_like(4), mini_batch);
                let first = plan(fleet, request.clone()).unwrap();
                // A repeat from inside the submitting threads also matches.
                assert_eq!(first, plan(fleet, request).unwrap());
            });
        }
    });
    let stats = fleet.stats();
    assert_eq!(stats.requests, 128);
    // Exactly one planner run per distinct model, everything else served
    // from cache or single-flight.
    assert_eq!(
        stats.planner_runs,
        models.len() as u64,
        "{}",
        stats.render()
    );
    assert_eq!(stats.shard_hits + stats.joins, 128 - models.len() as u64);
}

#[test]
fn decoded_plans_simulate_identically() {
    // The artifact round trip must preserve not only equality but observable
    // behaviour: simulating the decoded plan yields a byte-identical report.
    let model = zoo::moe(&MoeConfig::tiny());
    let cluster = Cluster::summit_like(4);
    let fleet = FleetService::start(FleetConfig::local(1, 4)).unwrap();
    let plan = plan(
        &fleet,
        PlanRequest::new(Arc::new(model.clone()), cluster.clone(), 16),
    )
    .unwrap();
    let text = artifact::encode_plan(&plan, None);
    let (decoded, _) = artifact::decode_plan(&text, model.graph(), &cluster).unwrap();
    let a = gp_sim::simulate(model.graph(), &cluster, &plan.stage_graph, &plan.schedule).unwrap();
    let b = gp_sim::simulate(
        model.graph(),
        &cluster,
        &decoded.stage_graph,
        &decoded.schedule,
    )
    .unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn sequential_strategies_serve_and_round_trip() {
    let fleet = FleetService::start(FleetConfig::local(2, 8)).unwrap();
    let model = Arc::new(zoo::candle_uno(&CandleUnoConfig::tiny()));
    let cluster = Cluster::summit_like(4);
    let request = PlanRequest::new(Arc::clone(&model), cluster.clone(), 32)
        .with_planner(ServePlanner::PipeDream);
    let first = plan(&fleet, request.clone()).unwrap();
    let again = plan(&fleet, request).unwrap();
    assert_eq!(first, again);
    let text = artifact::encode_plan(&first, None);
    let (decoded, _) = artifact::decode_plan(&text, model.graph(), &cluster).unwrap();
    assert_eq!(&decoded, &*first);
    assert_eq!(fleet.stats().planner_runs, 1);
}
