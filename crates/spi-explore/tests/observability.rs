//! End-to-end acceptance of the observability plane on real runs:
//!
//! 1. the **metrics** plane counts a full multi-tenant service run exactly —
//!    enqueues, commits and evaluated variants match the submitted work, the
//!    latency histograms saw every shard, and per-tenant service equals each
//!    tenant's shard share;
//! 2. **quiesce** persists the final snapshot as `metrics.json` in the store
//!    directory, and the file round-trips through the JSON parser with the
//!    same counters the live snapshot reported;
//! 3. the **watchdog** flags injected stall scenarios — an abandoned lease
//!    past its deadline and a tenant starved of service while backlogged —
//!    with findings that name real waitgraph nodes;
//! 4. the metrics snapshot reports the bytes each **ring** holds;
//! 5. the **tenant rows** and the watchdog read the scheduler, so they stay
//!    true with the metrics plane off and after a cancel leaves stale
//!    entries behind.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_explore::{
    Evaluation, ExplorationService, FnEvaluator, JobRegistry, JobSpec, MetricsRegistry,
    RegistryConfig, ServiceConfig, Watchdog,
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

#[test]
fn metrics_plane_counts_a_full_multi_tenant_run() {
    let service = ExplorationService::start(ServiceConfig {
        workers: 4,
        batch_size: 8,
        hedge: HedgeConfig::disabled(),
        ..ServiceConfig::default()
    });
    let system = scaling_system(6, 2).unwrap(); // 64 variants per job
    let mut jobs = Vec::new();
    for tenant in ["alpha", "beta"] {
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
                .submit(&system, spec, slow_evaluator(Duration::ZERO))
                .unwrap(),
        );
    }
    for job in jobs {
        let status = service.wait(job).unwrap();
        assert_eq!(status.report.accounted(), 64);
    }

    let metrics = service.metrics();
    assert!(metrics.is_enabled());
    // 2 jobs x 8 shards, no hedging, no expiries: exactly one enqueue,
    // one grant and one commit per shard; no pruning bound, so every
    // variant of both 2^6 spaces was evaluated.
    assert_eq!(metrics.counter(spi_explore::CounterId::WfqEnqueues), 16);
    assert_eq!(metrics.counter(spi_explore::CounterId::LeaseGrants), 16);
    assert_eq!(metrics.counter(spi_explore::CounterId::ShardCommits), 16);
    assert_eq!(metrics.counter(spi_explore::CounterId::EvalVariants), 128);
    assert_eq!(metrics.counter(spi_explore::CounterId::HedgesIssued), 0);
    assert_eq!(metrics.counter(spi_explore::CounterId::LeaseExpiries), 0);

    let snapshot = service.metrics_snapshot();
    let histograms = snapshot.get("histograms").unwrap();
    let eval = histograms.get("shard.eval_ns").unwrap();
    assert_eq!(eval.get("count").unwrap().as_u64(), Some(16));
    let p50 = eval.get("p50").unwrap().as_u64().unwrap();
    let max = eval.get("max").unwrap().as_u64().unwrap();
    assert!(p50 <= max);

    let tenants = snapshot.get("tenants").unwrap();
    for tenant in ["alpha", "beta"] {
        let entry = tenants.get(tenant).unwrap();
        assert_eq!(entry.get("service").unwrap().as_u64(), Some(8));
        assert_eq!(entry.get("enqueues").unwrap().as_u64(), Some(8));
        assert_eq!(entry.get("backlog").unwrap().as_u64(), Some(0));
    }

    // The service drained everything: the health sweep is clean.
    let report = service.health();
    assert_eq!(report.status(), "ok");
    assert!(report.findings.is_empty());
    assert!(service.is_idle());
}

#[test]
fn quiesce_persists_the_final_metrics_snapshot() {
    let dir = std::env::temp_dir().join(format!("spi-explore-obs-metrics-{}", std::process::id()));
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
        service.quiesce().unwrap();
    }
    let raw = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    let snapshot = JsonValue::parse(raw.trim()).unwrap();
    let counters = snapshot.get("counters").unwrap();
    assert_eq!(counters.get("shard.commits").unwrap().as_u64(), Some(4));
    assert_eq!(counters.get("eval.variants").unwrap().as_u64(), Some(32));
    assert!(counters.get("wal.appends").unwrap().as_u64().unwrap() > 0);
    // Quiesce compacts the store before writing the snapshot.
    assert!(counters.get("wal.compactions").unwrap().as_u64().unwrap() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected stalls on a registry nobody drains: a lease left past its
/// deadline and a backlogged tenant receiving no service. The watchdog must
/// name both, pointing at real waitgraph nodes.
#[test]
fn watchdog_flags_injected_stalls() {
    let mut registry = JobRegistry::with_config(RegistryConfig {
        lease_timeout: Duration::from_millis(50),
        hedge: HedgeConfig::disabled(),
        ..RegistryConfig::default()
    });
    let system = scaling_system(4, 2).unwrap();
    for tenant in ["hog", "victim"] {
        let spec = JobSpec {
            name: format!("{tenant}-stuck"),
            shard_count: 2,
            tenant: tenant.to_string(),
            use_cache: false,
            ..JobSpec::default()
        };
        registry
            .submit(&system, spec, slow_evaluator(Duration::ZERO))
            .unwrap();
    }
    let t0 = Instant::now();
    // Take one lease and never report on it; everything else stays queued.
    let lease = registry.lease_as("w1", t0).expect("a dispatch is queued");

    let mut watchdog = Watchdog::new();
    // First sweep establishes the baseline; the lease is within deadline.
    let report = watchdog.sweep(&registry.observe_health(t0), t0);
    assert_eq!(report.status(), "ok");

    // 200ms later (simulated): the lease is past its 50ms deadline and no
    // tenant has made progress over a full starvation window.
    let later = t0 + Duration::from_millis(200);
    let report = watchdog.sweep(&registry.observe_health(later), later);
    assert_eq!(report.status(), "stalled");
    let stuck: Vec<_> = report
        .findings
        .iter()
        .filter(|finding| finding.kind == "stuck_lease")
        .collect();
    assert_eq!(stuck.len(), 1);
    assert!(stuck[0]
        .nodes
        .contains(&format!("lease:{}", lease.lease.raw())));
    assert!(stuck[0].nodes.contains(&"worker:w1".to_string()));
    let starved: Vec<_> = report
        .findings
        .iter()
        .filter(|finding| finding.kind == "starved_tenant")
        .collect();
    assert!(
        starved
            .iter()
            .any(|finding| finding.nodes.contains(&"tenant:victim".to_string())),
        "victim is backlogged with zero service: {:?}",
        report.findings
    );
}

/// The metrics snapshot carries the bytes the span rings and the decision
/// trace have allocated, and reads 0 for a ring that is switched off.
#[test]
fn metrics_report_the_bytes_each_ring_holds() {
    let ring_gauges = |config: ServiceConfig| {
        let service = ExplorationService::start(config);
        let spec = JobSpec {
            name: "ringed".to_string(),
            shard_count: 8,
            use_cache: false,
            ..JobSpec::default()
        };
        let job = service
            .submit(
                &scaling_system(6, 2).unwrap(),
                spec,
                slow_evaluator(Duration::ZERO),
            )
            .unwrap();
        service.wait(job).unwrap();
        let snapshot = service.metrics_snapshot_stamped();
        let gauge = |name: &str| {
            snapshot
                .get("gauges")
                .and_then(|gauges| gauges.get(name))
                .and_then(JsonValue::as_u64)
                .unwrap()
        };
        (gauge("spans.ring_bytes"), gauge("trace.ring_bytes"))
    };
    let (spans, trace) = ring_gauges(ServiceConfig::with_workers(2));
    assert!(spans > 0 && trace > 0, "spans {spans}, trace {trace}");
    let (spans, trace) = ring_gauges(ServiceConfig {
        span_capacity: 0,
        ..ServiceConfig::with_workers(2)
    });
    assert_eq!(spans, 0);
    assert!(trace > 0);
    let (spans, trace) = ring_gauges(ServiceConfig {
        trace_capacity: 0,
        ..ServiceConfig::with_workers(2)
    });
    assert!(spans > 0);
    assert_eq!(trace, 0);
}

/// The metrics snapshot explains the daemon's memory: `process.rss_bytes`
/// and `process.peak_rss_bytes` are the process's `VmRSS` and `VmHWM` (0 off
/// Linux), and `jobs.retained` counts the finished jobs held, never more
/// than the cap of 1,024.
#[test]
fn metrics_report_process_memory_and_retained_jobs() {
    let service = ExplorationService::start(ServiceConfig::with_workers(2));
    let system = scaling_system(1, 2).unwrap();
    let spec = JobSpec {
        shard_count: 1,
        use_cache: false,
        ..JobSpec::default()
    };
    for _ in 0..1030 {
        let job = service
            .submit(&system, spec.clone(), slow_evaluator(Duration::ZERO))
            .unwrap();
        service.wait(job).unwrap();
    }
    let snapshot = service.metrics_snapshot();
    let gauge = |name: &str| {
        snapshot
            .get("gauges")
            .and_then(|gauges| gauges.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    assert_eq!(gauge("jobs.retained"), 1024);
    let (rss, peak) = (gauge("process.rss_bytes"), gauge("process.peak_rss_bytes"));
    if cfg!(target_os = "linux") {
        assert!(rss > 0 && peak >= rss, "rss {rss}, peak {peak}");
    } else {
        assert_eq!((rss, peak), (0, 0));
    }
}

/// With the metrics plane off, the watchdog still sees service: a tenant
/// served between two sweeps 200 ms apart is not starved, and one that is
/// not served over the next window is.
#[test]
fn health_reads_service_from_the_scheduler_with_metrics_disabled() {
    let mut registry = JobRegistry::with_config(RegistryConfig {
        hedge: HedgeConfig::disabled(),
        ..RegistryConfig::default()
    });
    registry.set_metrics(Arc::new(MetricsRegistry::disabled()));
    let spec = JobSpec {
        shard_count: 4,
        tenant: "solo".to_string(),
        use_cache: false,
        ..JobSpec::default()
    };
    registry
        .submit(
            &scaling_system(4, 2).unwrap(),
            spec,
            slow_evaluator(Duration::ZERO),
        )
        .unwrap();
    let starved = |report: &spi_explore::HealthReport| {
        report
            .findings
            .iter()
            .any(|finding| finding.kind == "starved_tenant")
    };
    let mut watchdog = Watchdog::new();
    let t0 = Instant::now();
    assert_eq!(
        watchdog.sweep(&registry.observe_health(t0), t0).status(),
        "ok"
    );
    let served = t0 + Duration::from_millis(100);
    for _ in 0..2 {
        let lease = registry.lease_as("w1", served).unwrap();
        registry
            .complete_shard(lease.lease, spi_explore::ShardReport::default(), served)
            .unwrap();
    }
    let t1 = t0 + Duration::from_millis(200);
    let report = watchdog.sweep(&registry.observe_health(t1), t1);
    assert!(!starved(&report), "{:?}", report.findings);
    let t2 = t1 + Duration::from_millis(200);
    let report = watchdog.sweep(&registry.observe_health(t2), t2);
    assert!(starved(&report), "{:?}", report.findings);
}

/// The background watchdog thread runs whether or not metrics are on.
#[test]
fn the_watchdog_sweeps_with_metrics_disabled() {
    let service = ExplorationService::start(ServiceConfig {
        metrics_enabled: false,
        watchdog_interval: Some(Duration::from_millis(5)),
        ..ServiceConfig::with_workers(1)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    // Each `health` call sweeps once itself; any sweep beyond those calls
    // is the background thread's.
    let mut calls = 0;
    loop {
        std::thread::sleep(Duration::from_millis(20));
        calls += 1;
        if service.health().sweeps > calls {
            break;
        }
        assert!(Instant::now() < deadline, "no background sweep");
    }
}

/// A cancelled job's pending shards stay queued until dispatches skip them
/// as stale; its tenant's row then reads no backlog, and its service counts
/// only the dispatch that became a lease.
#[test]
fn tenant_rows_forget_a_cancelled_jobs_stale_entries() {
    let mut registry = JobRegistry::with_config(RegistryConfig {
        hedge: HedgeConfig::disabled(),
        ..RegistryConfig::default()
    });
    let system = scaling_system(4, 2).unwrap();
    let submit = |registry: &mut JobRegistry, tenant: &str, shards: usize| {
        let spec = JobSpec {
            shard_count: shards,
            tenant: tenant.to_string(),
            use_cache: false,
            ..JobSpec::default()
        };
        registry
            .submit(&system, spec, slow_evaluator(Duration::ZERO))
            .unwrap()
    };
    let now = Instant::now();
    let cancelled = submit(&mut registry, "xray", 8);
    registry.lease(now).unwrap();
    registry.cancel(cancelled).unwrap();
    submit(&mut registry, "yank", 2);
    let row = |registry: &JobRegistry, tenant: &str, field: &str| {
        registry
            .tenant_rows()
            .get(tenant)
            .and_then(|row| row.get(field))
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    assert_eq!(row(&registry, "xray", "backlog"), 7);
    while let Some(lease) = registry.lease(now) {
        assert_ne!(lease.job, cancelled);
    }
    for (tenant, service, enqueues) in [("xray", 1, 8), ("yank", 2, 2)] {
        assert_eq!(row(&registry, tenant, "service"), service, "{tenant}");
        assert_eq!(row(&registry, tenant, "enqueues"), enqueues, "{tenant}");
        assert_eq!(row(&registry, tenant, "backlog"), 0, "{tenant}");
        assert_eq!(row(&registry, tenant, "vtime_lag"), 0, "{tenant}");
    }
}
