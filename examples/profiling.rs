//! The profiling plane end to end: an 8-worker multi-tenant run with the
//! span recorder on, then the three ways to read it — the folded-stack
//! per-phase profile (pipe the stack lines into `flamegraph.pl` or
//! inferno), the per-job critical path with its straggler lease, and a
//! Chrome trace-event file you can drop into <https://ui.perfetto.dev>.
//!
//! Run with `cargo run --release --example profiling`.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use spi_repro::explore::{
    Evaluation, ExplorationService, FnEvaluator, JobSpec, PartitionEvaluator, ServiceConfig,
};
use spi_repro::workloads::scaling_system;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Spans are on by default (span_capacity bounds each worker's ring);
    // `--span-capacity 0` / span_capacity=0 collapses every record site to
    // one predicted branch.
    let service = ExplorationService::start(ServiceConfig {
        workers: 8,
        ..ServiceConfig::default()
    });
    println!("service up with {} workers\n", service.worker_count());

    // Two tenants with different evaluators: one compiled partition search
    // (contributes compile_lower / partition_search spans) and one mildly
    // slow custom evaluator (pure drain time).
    let system = scaling_system(6, 2)?; // 64 variants per job
    let mut jobs = Vec::new();
    let spec = |tenant: &str| JobSpec {
        name: format!("{tenant}-sweep"),
        // Sixteen ranks per shard: a drain times the stages of one rank in
        // seven, so each shard records a rebuild and two patches.
        shard_count: 4,
        top_k: 3,
        tenant: tenant.to_string(),
        use_cache: false,
        ..JobSpec::default()
    };
    jobs.push(service.submit(
        &system,
        spec("render-farm"),
        Arc::new(PartitionEvaluator::default()),
    )?);
    jobs.push(service.submit(
        &system,
        spec("nightly-ci"),
        Arc::new(FnEvaluator::new(|index, _choice, _graph| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(Evaluation {
                cost: ((index as u64) * 131) % 251,
                feasible: true,
                detail: String::new(),
            })
        })),
    )?);
    for job in jobs {
        let status = service.wait(job)?;
        println!(
            "job {}: {} variants accounted, optimum cost {}",
            status.name,
            status.report.accounted(),
            status.best().map_or(0, |best| best.cost),
        );
    }
    // The final drain span exits moments after its commit wakes `wait`.
    std::thread::sleep(Duration::from_millis(50));

    // 1. The per-phase profile: counts, total vs self time, and the folded
    //    stacks — each line is `phase;phase... self_ns`, the exact input
    //    format of flamegraph.pl / inferno-flamegraph.
    let profile = service.profile();
    println!("\nper-phase profile (dropped={}):", profile.dropped);
    for phase in &profile.phases {
        println!(
            "  {:<18} count {:>5}  total {:>12}ns  self {:>12}ns",
            phase.phase.name(),
            phase.count,
            phase.total_ns,
            phase.self_ns,
        );
    }
    println!("\nfolded stacks (feed to flamegraph.pl):");
    for (stack, self_ns) in &profile.folded {
        println!("  {stack} {self_ns}");
    }

    // 2. The critical path of each completed job: the longest chain of
    //    non-overlapping root spans ending at the job's last commit. The
    //    straggler is the lease that gated completion.
    println!("\ncritical paths:");
    for path in &profile.critical_paths {
        println!(
            "  job {}: wall {}ns over {} steps",
            path.job,
            path.wall_ns,
            path.steps.len()
        );
        if let Some(straggler) = &path.straggler {
            println!(
                "    straggler: {} lease {} on {} ({}ns)",
                straggler.phase.name(),
                straggler.lease.map_or("?".to_string(), |id| id.to_string()),
                straggler.worker.as_deref().unwrap_or("?"),
                straggler.end_ns - straggler.start_ns,
            );
        }
    }

    // 3. The Chrome trace export: one process per tenant, one thread per
    //    worker. Open the file in https://ui.perfetto.dev (or
    //    chrome://tracing) and every span lands on its worker's track.
    let trace_path = std::env::temp_dir().join("spi-profiling-example.trace.json");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&trace_path)?);
    service.write_chrome_trace(&mut file)?;
    file.flush()?;
    println!(
        "\nwrote Chrome trace to {} — load it in Perfetto",
        trace_path.display()
    );
    Ok(())
}
