//! # gp-fleet — distributed plan serving
//!
//! `gp-serve` defines what a plan request is, how it is fingerprinted,
//! and how a plan is encoded. This crate serves those requests — from one
//! process or a fleet of them:
//!
//! * [`ShardedPlanCache`] — N independent LRU shards selected by
//!   fingerprint range, so concurrent tenants contend on `1/N` of the
//!   lock surface and one hot key range cannot evict everything else.
//! * [`ArtifactStore`] — a directory of canonical plan artifacts plus a
//!   versioned index; a warm restart decodes instead of replanning, and
//!   a missing or stale index is rebuilt from the artifacts themselves.
//! * [`PlanWorker`] / [`WorkerServer`] — planning as a backend: the same
//!   request/artifact contract served by in-process threads or by remote
//!   hosts over a length-prefixed TCP protocol ([`protocol`]), with
//!   worker death handled by retrying the next worker.
//! * [`AdmissionControl`] — multi-tenant admission: eval-budget tiers,
//!   per-tenant in-flight quotas, and backlog shedding.
//! * [`FleetService`] — the front-end that composes all of the above
//!   behind one `submit(tenant, request) -> ticket` call, with one
//!   single-flight map and one warm-start index. [`FleetConfig::local`]
//!   is the smallest fleet: one shard, no store, in-process workers, and
//!   a default tenant whose requests keep their exact fingerprints.
//!
//! ## Determinism contract
//!
//! Every layer preserves one invariant: **the served artifact is a pure
//! function of the admitted request.** Workers strip search-time
//! measurement from their artifacts ([`canonical_artifact`]), the wire
//! codec is lossless in both directions, and store/cache entries are
//! keyed by the same fingerprints `gp-serve` uses — so a plan served
//! remotely, from disk, or from any shard is byte-identical to planning
//! locally. DESIGN.md §"Fleet architecture" gives the full argument.

pub mod admission;
mod cache;
pub mod protocol;
pub mod service;
pub mod shard;
pub mod store;
pub mod worker;

pub use admission::{
    AdmissionConfig, AdmissionControl, AdmissionToken, QuotaExceeded, TenantClass, TenantSpec,
};
pub use protocol::{canonical_artifact, ProtocolError, WireReply};
pub use service::{FleetConfig, FleetService, FleetStats, FleetTicket, Served};
pub use shard::{shard_of, ShardLookup, ShardStats, ShardedPlanCache};
pub use store::ArtifactStore;
pub use worker::{
    plan_locally, LocalWorker, PlanWorker, RemoteWorker, WorkerFailure, WorkerServer,
};

#[cfg(test)]
mod doc_sync {
    //! The crate's documentation contract: the repository docs must
    //! describe the fleet layer this crate actually ships.

    #[test]
    fn design_doc_covers_the_fleet_architecture() {
        let design = include_str!("../../../DESIGN.md");
        for needle in [
            "## Fleet architecture",
            "graphpipe-plan-request",
            "graphpipe-store-index",
            "shard",
            "admission",
        ] {
            assert!(
                design.contains(needle),
                "DESIGN.md lost its fleet coverage: missing `{needle}`"
            );
        }
    }

    #[test]
    fn readme_documents_distributed_serving() {
        let readme = include_str!("../../../README.md");
        for needle in ["Distributed serving", "serve_fleet"] {
            assert!(
                readme.contains(needle),
                "README.md lost its fleet coverage: missing `{needle}`"
            );
        }
    }
}
