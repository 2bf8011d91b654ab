//! End-to-end acceptance of the profiling plane on real runs:
//!
//! 1. the **profile** on a completed 8-worker multi-tenant run accounts for
//!    the workers' busy time — summed per-phase self-time lands within 10%
//!    of each busy worker's wall-clock span, the critical path of every job
//!    is non-empty and names a straggler lease, and the folded stacks fold
//!    real phase chains;
//! 2. the **Chrome trace export** round-trips through the strict JSON parser
//!    with every span's ids resolvable against the waitgraph node model
//!    (`job:`/`shard:`/`lease:`/`tenant:`/`worker:` conventions over real
//!    submitted work), and a compiled evaluator contributes nested
//!    `compile_lower`/`partition_search` spans;
//! 3. **quiesce** persists `profile.json` beside `metrics.json` — both
//!    stamped with the `captured_unix_ms`/`uptime_ns` capture header — and
//!    a service with `--span-capacity 0` writes no profile and records
//!    nothing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_explore::{
    Evaluation, ExplorationService, FnEvaluator, JobSpec, PartitionEvaluator, PhaseId,
    ServiceConfig, Span,
};
use spi_model::json::JsonValue;
use spi_store::sched::HedgeConfig;
use spi_workloads::scaling_system;

fn slow_evaluator(delay: Duration) -> Arc<dyn spi_explore::Evaluator> {
    Arc::new(FnEvaluator::new(move |index, _choice, _graph| {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        Ok(Evaluation {
            cost: ((index as u64) * 131) % 251,
            feasible: true,
            detail: String::new(),
        })
    }))
}

/// Waits until `expected` drain spans have landed in the recorder's rings.
/// The final shard commit (which wakes `wait`) happens *inside* the drain,
/// so its enclosing span exits moments after the job turns terminal.
fn settle_spans(service: &ExplorationService, expected: usize) -> Vec<Span> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let spans = service.spans_since(0).spans;
        let drains = spans
            .iter()
            .filter(|span| span.phase == PhaseId::DrainShard)
            .count();
        if drains >= expected {
            return spans;
        }
        assert!(Instant::now() < deadline, "drain spans never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn profile_accounts_for_worker_busy_time_on_a_multi_tenant_run() {
    let service = ExplorationService::start(ServiceConfig {
        workers: 8,
        batch_size: 8,
        hedge: HedgeConfig::disabled(),
        watchdog_interval: None,
        ..ServiceConfig::default()
    });
    let system = scaling_system(6, 2).unwrap(); // 64 variants per job
    let mut jobs = Vec::new();
    for tenant in ["render-farm", "nightly-ci"] {
        let spec = JobSpec {
            name: format!("{tenant}-job"),
            shard_count: 8,
            top_k: 4,
            tenant: tenant.to_string(),
            use_cache: false,
            ..JobSpec::default()
        };
        jobs.push(
            service
                .submit(&system, spec, slow_evaluator(Duration::from_millis(3)))
                .unwrap(),
        );
    }
    for &job in &jobs {
        let status = service.wait(job).unwrap();
        assert_eq!(status.report.accounted(), 64);
    }
    // Hedging off, lease timeout long: exactly one drain per shard.
    let spans = settle_spans(&service, 16);

    // Busy time ground truth: each worker's wall-clock envelope, summed.
    // With a 3ms/variant evaluator the drains dominate each envelope, so
    // summed self-time across phases must land within 10% of it. (Registry
    // phases — commit, WAL — run nested inside drains but record through a
    // different sink; their double-count is part of that 10%.)
    let mut envelopes: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for span in &spans {
        let worker = span.ids.worker.as_deref().expect("span attributed");
        let envelope = envelopes.entry(worker).or_insert((u64::MAX, 0));
        envelope.0 = envelope.0.min(span.start_ns);
        envelope.1 = envelope.1.max(span.end_ns);
    }
    let busy_workers = envelopes.len();
    assert!(
        (2..=8).contains(&busy_workers),
        "16 shards across 8 workers: {busy_workers}"
    );
    let busy_ns: u64 = envelopes.values().map(|(start, end)| end - start).sum();

    let profile = service.profile();
    assert_eq!(profile.dropped, 0);
    let self_ns = profile.total_self_ns();
    let ratio = self_ns as f64 / busy_ns as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "self {self_ns}ns vs busy {busy_ns}ns across {busy_workers} workers (ratio {ratio:.3})"
    );

    // One critical path per completed job, chaining real steps back from the
    // job's last commit; the straggler is its final step.
    assert_eq!(profile.critical_paths.len(), jobs.len());
    for path in &profile.critical_paths {
        assert!(!path.steps.is_empty());
        assert!(path.wall_ns > 0);
        let straggler = path.straggler.as_ref().expect("straggler attributed");
        assert_eq!(straggler.end_ns, path.steps.last().unwrap().end_ns);
        for pair in path.steps.windows(2) {
            assert!(pair[0].end_ns <= pair[1].start_ns, "steps never overlap");
        }
    }

    // Folded stacks: drains fold as roots; every line carries a weight.
    assert!(profile
        .folded
        .iter()
        .any(|(stack, _)| stack == "drain_shard"));
    for (_, weight) in &profile.folded {
        assert!(*weight > 0);
    }
}

#[test]
fn chrome_trace_ids_resolve_against_the_waitgraph_model() {
    let service = ExplorationService::start(ServiceConfig {
        workers: 4,
        hedge: HedgeConfig::disabled(),
        ..ServiceConfig::default()
    });
    let system = scaling_system(6, 2).unwrap();
    let spec = JobSpec {
        name: "traced".into(),
        shard_count: 8,
        top_k: 4,
        tenant: "render-farm".to_string(),
        use_cache: false,
        ..JobSpec::default()
    };
    let job = service
        .submit(&system, spec, Arc::new(PartitionEvaluator::default()))
        .unwrap();
    service.wait(job).unwrap();
    let spans = settle_spans(&service, 8);

    // The compiled evaluator contributes lowering and search spans nested
    // inside the drains.
    for phase in [PhaseId::CompileLower, PhaseId::PartitionSearch] {
        let nested: Vec<&Span> = spans.iter().filter(|span| span.phase == phase).collect();
        assert!(!nested.is_empty(), "{phase:?} instrumented");
        for span in nested {
            assert!(span.parent.is_some(), "{phase:?} nests under a drain");
        }
    }

    // Round-trip the export through the strict parser, then resolve every
    // span's ids against the waitgraph node-id model over the real run.
    let mut raw = Vec::new();
    service.write_chrome_trace(&mut raw).unwrap();
    let trace = JsonValue::parse(std::str::from_utf8(&raw).unwrap()).unwrap();
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    let mut complete = 0usize;
    for event in events {
        if event.get("ph").unwrap().as_str() != Some("X") {
            continue;
        }
        complete += 1;
        let args = event.get("args").unwrap();
        let job_id = args.get("job").unwrap().as_str().unwrap();
        assert_eq!(job_id, format!("job:{}", job.raw()));
        let shard = args.get("shard").unwrap().as_str().unwrap();
        let (prefix, rest) = shard.split_at("shard:".len());
        assert_eq!(prefix, "shard:");
        let (job_part, shard_part) = rest.split_once('/').unwrap();
        assert_eq!(job_part, job.raw().to_string());
        assert!(shard_part.parse::<usize>().unwrap() < 8);
        let lease = args.get("lease").unwrap().as_str().unwrap();
        assert!(lease.strip_prefix("lease:").unwrap().parse::<u64>().is_ok());
        assert_eq!(
            args.get("tenant").unwrap().as_str(),
            Some("tenant:render-farm")
        );
        let worker = args.get("worker").unwrap().as_str().unwrap();
        assert!(
            worker
                .strip_prefix("worker:spi-explore-worker-")
                .is_some_and(|index| index.parse::<usize>().is_ok_and(|index| index < 4)),
            "worker id resolves: {worker}"
        );
        // Trace-seq correlation: the window is well-formed and bounded by
        // the scheduler trace cursor.
        let first = args.get("trace_first").unwrap().as_u64().unwrap();
        let last = args.get("trace_last").unwrap().as_u64().unwrap();
        assert!(first <= last);
        assert!(last <= service.trace_next_seq());
    }
    assert!(complete >= 8 * 3, "drain + lower + search per shard");
}

#[test]
fn quiesce_persists_profile_json_beside_metrics_json() {
    let dir = std::env::temp_dir().join(format!("spi-explore-profiling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let service = ExplorationService::try_start(ServiceConfig {
            workers: 2,
            store_dir: Some(dir.clone()),
            hedge: HedgeConfig::disabled(),
            ..ServiceConfig::default()
        })
        .unwrap();
        let system = scaling_system(5, 2).unwrap(); // 32 variants
        let spec = JobSpec {
            name: "durable".into(),
            shard_count: 4,
            use_cache: false,
            ..JobSpec::default()
        };
        let job = service
            .submit(&system, spec, slow_evaluator(Duration::ZERO))
            .unwrap();
        service.wait(job).unwrap();
        settle_spans(&service, 4);
        service.quiesce().unwrap();
    }
    let raw = std::fs::read_to_string(dir.join("profile.json")).unwrap();
    let profile = JsonValue::parse(raw.trim()).unwrap();
    assert!(profile.get("captured_unix_ms").unwrap().as_u64().unwrap() > 0);
    assert!(profile.get("uptime_ns").unwrap().as_u64().is_some());
    let phases = profile.get("phases").unwrap().as_array().unwrap();
    let drain = phases
        .iter()
        .find(|entry| entry.get("phase").unwrap().as_str() == Some("drain_shard"))
        .expect("drain phase persisted");
    assert_eq!(drain.get("count").unwrap().as_u64(), Some(4));
    // WAL appends were both counted and profiled in the same durable run.
    let wal = phases
        .iter()
        .find(|entry| entry.get("phase").unwrap().as_str() == Some("wal_append"))
        .expect("wal phase persisted");
    assert!(wal.get("count").unwrap().as_u64().unwrap() > 0);
    assert_eq!(
        profile
            .get("critical_paths")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        1
    );
    // The metrics snapshot beside it now leads with the same capture header.
    let raw = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    let metrics = JsonValue::parse(raw.trim()).unwrap();
    assert!(metrics.get("captured_unix_ms").unwrap().as_u64().unwrap() > 0);
    assert!(metrics.get("uptime_ns").unwrap().as_u64().is_some());
    let _ = std::fs::remove_dir_all(&dir);

    // A service with `--span-capacity 0` records nothing and writes no
    // profile.
    let dir =
        std::env::temp_dir().join(format!("spi-explore-profiling-off-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let service = ExplorationService::try_start(ServiceConfig {
            workers: 2,
            store_dir: Some(dir.clone()),
            span_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let system = scaling_system(4, 2).unwrap();
        let job = service
            .submit(
                &system,
                JobSpec {
                    use_cache: false,
                    ..JobSpec::default()
                },
                slow_evaluator(Duration::ZERO),
            )
            .unwrap();
        service.wait(job).unwrap();
        assert!(!service.span_recorder().is_enabled());
        assert!(service.spans_since(0).spans.is_empty());
        service.quiesce().unwrap();
    }
    assert!(!dir.join("profile.json").exists());
    assert!(dir.join("metrics.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
