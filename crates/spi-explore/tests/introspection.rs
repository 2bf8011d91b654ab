//! End-to-end acceptance of the introspection plane: a traced multi-tenant
//! run on the real 8-worker service must
//!
//! 1. produce a **waitgraph** snapshot that validates structurally and
//!    agrees with the registry's own job listing, and
//! 2. produce a **decision trace** that [`TraceReplay`] certifies clean —
//!    the WFQ proportional-share bound holds over every joint-backlog
//!    window, and the lease census is exactly-once: every shard of every
//!    job committed exactly once, however many leases (hedged duplicates
//!    included) were in flight.
//!
//! The CI step runs this test in release mode: a scheduler-truth regression
//! (double commit, retired-lease action, starvation) fails here even if no
//! unit test anticipated its exact shape.

use std::sync::Arc;
use std::time::Duration;

use spi_explore::{
    Evaluation, ExplorationService, FnEvaluator, JobSpec, JobState, ServiceConfig, TraceReplay,
};
use spi_workloads::scaling_system;

#[test]
fn traced_multi_tenant_run_replays_clean_and_snapshots_truthfully() {
    let service = ExplorationService::start(ServiceConfig {
        workers: 8,
        batch_size: 8,
        ..ServiceConfig::default()
    });
    assert_eq!(service.worker_count(), 8);

    // Three tenants at different weights, two jobs each; a mildly slow
    // evaluator so shards overlap across workers instead of completing
    // before the next lease is taken.
    let evaluator = || {
        Arc::new(FnEvaluator::new(|index, _choice, _graph| {
            std::thread::sleep(Duration::from_micros(200));
            Ok(Evaluation {
                cost: ((index as u64) * 131) % 251,
                feasible: true,
                detail: String::new(),
            })
        }))
    };
    let system = scaling_system(6, 2).unwrap(); // 64 variants per job
    let mut jobs = Vec::new();
    let mut total_shards = 0usize;
    for (tenant, weight) in [("alpha", 1u32), ("beta", 2), ("gamma", 4)] {
        for round in 0..2 {
            let spec = JobSpec {
                name: format!("{tenant}-{round}"),
                shard_count: 8,
                top_k: 4,
                tenant: tenant.to_string(),
                weight,
                use_cache: false,
            };
            total_shards += spec.shard_count;
            jobs.push(service.submit(&system, spec, evaluator()).unwrap());
        }
    }

    // Snapshot mid-flight: whatever the graph claims must be structurally
    // valid even while workers are actively mutating the registry.
    let mid_flight = service.waitgraph();
    mid_flight.validate().unwrap();

    for &job in &jobs {
        let status = service.wait(job).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 64);
    }

    // --- Waitgraph agrees with the registry's own listing. ---
    let graph = service.waitgraph();
    graph.validate().unwrap();
    let statuses = service.jobs();
    assert_eq!(graph.nodes_of_kind("job").count(), statuses.len());
    for status in &statuses {
        let node = graph
            .node(&format!("job:{}", status.job.raw()))
            .expect("every registered job has a node");
        assert_eq!(node.label, status.name);
        let attr = |key: &str| {
            node.attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap()
        };
        assert_eq!(attr("state"), status.state.to_string());
        assert_eq!(attr("shards_done"), status.shards_done.to_string());
        assert_eq!(attr("shards"), status.shard_count.to_string());
    }
    // All terminal: nothing waits on anything, and no shard/lease lingers.
    assert_eq!(graph.edges.len(), 0);
    assert_eq!(graph.nodes_of_kind("shard").count(), 0);
    assert_eq!(graph.nodes_of_kind("lease").count(), 0);
    assert_eq!(graph.nodes_of_kind("tenant").count(), 3);

    // --- The decision trace replays clean. ---
    let drained = service.read_trace_since(0);
    assert_eq!(
        drained.dropped, 0,
        "the default ring must hold a run this size"
    );
    let report = TraceReplay::check(&drained.events);
    assert!(
        report.is_clean(),
        "scheduler-truth violations: {:#?}",
        report.violations
    );
    // Exactly-once census over the whole run: every shard of every job
    // committed once — hedged duplicates may add grants, never commits.
    assert_eq!(report.committed_shards, total_shards);
    assert_eq!(report.commits, total_shards as u64);
    assert!(report.grants >= total_shards as u64);
    assert_eq!(report.hedge_wins as usize + report.committed_shards, {
        let wins: u64 = statuses.iter().map(|s| s.hedge_wins).sum();
        wins as usize + total_shards
    });
}
