//! The observability plane end to end: a multi-tenant job mix on a live
//! worker pool, watched while it runs — the scheduler-decision trace
//! followed by cursor, metrics and health polled mid-flight, and the final
//! snapshot printed once the service drains.
//!
//! Run with `cargo run --release --example observability`.

use std::sync::Arc;
use std::time::Duration;

use spi_repro::explore::{Evaluation, ExplorationService, FnEvaluator, JobSpec, ServiceConfig};
use spi_repro::workloads::scaling_system;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Defaults already include the observability plane: metrics on, stall
    // watchdog sweeping every second.
    let service = ExplorationService::start(ServiceConfig::with_workers(4));
    println!("service up with {} workers\n", service.worker_count());

    // The decision trace is read by cursor: each read hands back the events
    // at or past the cursor and the `next` cursor to resume from. Nothing is
    // pushed to a reader, so a slow one costs trace completeness (counted in
    // `dropped`, see below), never scheduler throughput.
    let mut cursor = 0;
    let (mut followed, mut dropped) = (0, 0);

    // Two tenants, different weights, mildly slow evaluation so the run is
    // long enough to observe mid-flight.
    let system = scaling_system(6, 2)?; // 64 variants per job
    let mut jobs = Vec::new();
    for (tenant, weight) in [("render-farm", 2u32), ("nightly-ci", 1)] {
        let spec = JobSpec {
            name: format!("{tenant}-sweep"),
            shard_count: 16,
            top_k: 3,
            tenant: tenant.to_string(),
            weight,
            ..JobSpec::default()
        };
        let evaluator = Arc::new(FnEvaluator::new(|index, _choice, _graph| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(Evaluation {
                cost: ((index as u64) * 131) % 251,
                feasible: true,
                detail: String::new(),
            })
        }));
        jobs.push(service.submit(&system, spec, evaluator)?);
    }

    // Poll the planes while the pool drains: the trace since the last read,
    // counter deltas, per-tenant service, and the watchdog's verdict.
    while !service.is_idle() {
        std::thread::sleep(Duration::from_millis(40));
        let read = service.read_trace_since(cursor);
        followed += read.events.len();
        dropped += read.dropped;
        cursor = read.next;
        let snapshot = service.metrics_snapshot();
        let counters = snapshot.get("counters").expect("counters section");
        let commits = counters
            .get("shard.commits")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let grants = counters
            .get("lease.grants")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let health = service.health();
        println!(
            "mid-flight: {grants} leases granted, {commits}/32 shards committed, \
             health={}",
            health.status()
        );
    }
    for job in jobs {
        let status = service.wait(job)?;
        println!(
            "job {}: {} variants accounted, optimum cost {}",
            status.name,
            status.report.accounted(),
            status.best().map_or(0, |best| best.cost),
        );
    }

    // One last read picks up the decisions since the loop's final read.
    // `dropped` is the honesty counter: events the ring overwrote before
    // this reader got to them (raise `trace_capacity` if it is nonzero).
    let read = service.read_trace_since(cursor);
    followed += read.events.len();
    dropped += read.dropped;
    println!(
        "\nfollowed {followed} decisions by cursor up to seq {}, dropped {dropped}",
        read.next
    );

    // The final snapshot — the same JSON the `metrics` wire op answers and
    // quiesce persists as metrics.json on durable stores.
    let snapshot = service.metrics_snapshot();
    println!("\nfinal metrics snapshot:\n{}", snapshot.to_line());
    let health = service.health();
    println!(
        "\nfinal health: {} ({} sweeps, {} findings)",
        health.status(),
        health.sweeps,
        health.findings.len()
    );
    Ok(())
}
