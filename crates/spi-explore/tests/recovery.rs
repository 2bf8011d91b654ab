//! Crash-recovery acceptance tests for the durable store:
//!
//! 1. **Randomized kill points** — a job is driven through the registry with
//!    a real on-disk WAL; at pseudo-random points the whole process state is
//!    "killed" (registry + WAL handle dropped, nothing flushed beyond what
//!    the write-ahead discipline already made durable) and recovered from
//!    disk. After every recovery the committed census must be exactly what
//!    was committed before the kill, and the finished job's `(cost, index)`
//!    optimum must be bit-identical to an uninterrupted run *and* to the
//!    serial `optimize_serial_reference` oracle.
//! 2. **EOF is a clean shutdown** (wire level) — a `run_session` whose stdin
//!    closes without a `shutdown` op drains in-flight shards, compacts the
//!    store, and a second service over the same directory resumes and
//!    finishes the job; a third submission of the same job is then served
//!    from the result cache with `evaluated == 0`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use spi_explore::wire::{run_session, status_from_json};
use spi_explore::{
    drain_lease, handle_request, rebuild_from_recipe, CounterId, DrainOutcome, ExplorationService,
    FlushResponse, GaugeId, HedgeConfig, JobId, JobRegistry, JobSpec, JobState, Lease,
    MetricsRegistry, RegistryConfig, ServiceConfig, ShardReport, SpanSink, TaskParamsSpec,
    TraceEvent, WalSink,
};
use spi_model::json::JsonValue;
use spi_store::Wal;
use spi_synth::from_flat_graph;
use spi_synth::partition::{optimize_serial_reference, FeasibilityMode};
use spi_workloads::scaling_system;

const INTERFACES: usize = 4;
const CLUSTERS: usize = 2; // 2^4 = 16 variants
const COMBINATIONS: usize = 16;
const PROCESSOR_COST: u64 = 15;
const SEED: u64 = 42;

/// Deterministic pseudo-random case generator (the repo's usual 64-bit LCG).
use spi_testutil::Lcg as Cases;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spi-explore-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The wire-style recipe both the live submission and recovery rebuild from.
fn recipe() -> JsonValue {
    JsonValue::parse(&format!(
        r#"{{"system":{{"scaling":{{"interfaces":{INTERFACES},"clusters":{CLUSTERS}}}}},"evaluator":{{"kind":"partition","processor_cost":{PROCESSOR_COST},"strategy":"exhaustive","mode":"per_application","params":{{"kind":"hashed","seed":{SEED}}}}}}}"#
    ))
    .unwrap()
}

/// The serial oracle: flatten every combination in index order and keep the
/// first strict `(cost, index)` minimum of `optimize_serial_reference`.
fn serial_oracle() -> (usize, u64) {
    let system = scaling_system(INTERFACES, CLUSTERS).unwrap();
    let params = TaskParamsSpec::Hashed { seed: SEED };
    let mut best: Option<(u64, usize)> = None;
    for (index, (_choice, graph)) in system.flatten_all().unwrap().into_iter().enumerate() {
        let problem =
            from_flat_graph(&graph, PROCESSOR_COST, |name| Some(params.params_for(name))).unwrap();
        let result = optimize_serial_reference(&problem, FeasibilityMode::PerApplication).unwrap();
        let total = result.cost.total();
        if best.is_none_or(|(cost, _)| total < cost) {
            best = Some((total, index));
        }
    }
    let (cost, index) = best.unwrap();
    (index, cost)
}

/// Drains `lease` completely against `registry`, committing every flush.
fn drain_fully(
    registry: &mut JobRegistry,
    lease: &Lease,
    batch: usize,
    clock: Instant,
) -> ShardReport {
    let mut flushes: Vec<(ShardReport, bool)> = Vec::new();
    let outcome = drain_lease(
        lease,
        batch,
        &MetricsRegistry::disabled(),
        &SpanSink::disabled(),
        || false,
        |delta, is_final| {
            flushes.push((delta, is_final));
            FlushResponse::Continue
        },
    );
    assert_eq!(outcome, DrainOutcome::Completed);
    let mut merged = ShardReport::default();
    for (delta, is_final) in flushes {
        merged.merge(&delta, COMBINATIONS);
        let result = if is_final {
            registry
                .complete_shard(lease.lease, delta, clock)
                .map(|_| ())
        } else {
            registry.report_batch(lease.lease, delta, clock)
        };
        result.expect("lease is live throughout a healthy drain");
    }
    merged
}

/// Stages one partial batch under the lease, then goes silent forever.
fn stage_and_vanish(registry: &mut JobRegistry, lease: &Lease, clock: Instant) {
    let mut first: Option<ShardReport> = None;
    let _ = drain_lease(
        lease,
        2,
        &MetricsRegistry::disabled(),
        &SpanSink::disabled(),
        || false,
        |delta, is_final| {
            if first.is_none() && !is_final {
                first = Some(delta);
                FlushResponse::Continue
            } else {
                FlushResponse::Stop
            }
        },
    );
    if let Some(delta) = first {
        registry
            .report_batch(lease.lease, delta, clock)
            .expect("lease is live at stage time");
    }
}

fn open_registry(dir: &PathBuf) -> JobRegistry {
    let (wal, recovered) = Wal::open(dir).unwrap();
    let mut registry = JobRegistry::new(Duration::from_secs(10));
    registry
        .restore(
            recovered.snapshot.as_ref(),
            &recovered.records,
            &rebuild_from_recipe,
        )
        .unwrap();
    registry.set_sink(Box::new(WalSink(wal)));
    registry
}

/// One uninterrupted run through the same drain harness: the bit-identical
/// reference every chaos schedule must reproduce.
fn uninterrupted_reference() -> (ShardReport, usize, u64, String) {
    let (system, evaluator) = rebuild_from_recipe(&recipe()).unwrap();
    let mut registry = JobRegistry::new(Duration::from_secs(10));
    let job = registry
        .submit_with_recipe(
            &system,
            JobSpec {
                name: "reference".into(),
                shard_count: 4,
                top_k: COMBINATIONS,
                ..JobSpec::default()
            },
            evaluator,
            Some(recipe()),
        )
        .unwrap();
    let clock = Instant::now();
    while let Some(lease) = registry.lease(clock) {
        drain_fully(&mut registry, &lease, 3, clock);
    }
    let status = registry.poll(job).unwrap();
    assert_eq!(status.state, JobState::Completed);
    let best = status.best().unwrap();
    (
        status.report.clone(),
        best.index,
        best.cost,
        best.detail.clone(),
    )
}

#[test]
fn randomized_kill_points_recover_to_the_exact_census_and_optimum() {
    let (reference_report, oracle_index, oracle_cost, oracle_detail) = uninterrupted_reference();
    let (serial_index, serial_cost) = serial_oracle();
    assert_eq!(
        (oracle_index, oracle_cost),
        (serial_index, serial_cost),
        "uninterrupted run must already match the serial oracle"
    );

    for seed in 0..10u64 {
        let mut cases = Cases::new(seed);
        let dir = temp_dir(&format!("chaos-{seed}"));
        let mut registry = open_registry(&dir);
        let (system, evaluator) = rebuild_from_recipe(&recipe()).unwrap();
        let job = registry
            .submit_with_recipe(
                &system,
                JobSpec {
                    name: format!("chaos-{seed}"),
                    shard_count: 4,
                    top_k: COMBINATIONS,
                    ..JobSpec::default()
                },
                evaluator,
                Some(recipe()),
            )
            .unwrap();
        let timeout = Duration::from_secs(10);
        let mut clock = Instant::now();
        let mut kills = 0u32;
        let mut steps = 0u32;
        // At least one kill lands at a pseudo-random committed-shard count.
        let forced_kill_after = cases.below(4);

        while !registry.poll(job).unwrap().state.is_terminal() {
            steps += 1;
            assert!(steps < 10_000, "seed {seed}: schedule failed to converge");
            let done = registry.poll(job).unwrap().shards_done as u64;
            let force_kill = kills == 0 && done >= forced_kill_after;
            match if force_kill { 4 } else { cases.below(6) } {
                0 | 1 => {
                    let batch = 1 + cases.below(3) as usize;
                    if let Some(lease) = registry.lease(clock) {
                        drain_fully(&mut registry, &lease, batch, clock);
                    }
                }
                2 => {
                    if let Some(lease) = registry.lease(clock) {
                        stage_and_vanish(&mut registry, &lease, clock);
                    }
                }
                3 => {
                    clock += timeout + Duration::from_millis(1);
                    registry.expire(clock);
                }
                _ => {
                    kills += 1;
                    // What is committed (and only that) must survive the kill:
                    // compare against a poll with all staged state scrubbed.
                    registry.expire(clock + timeout + Duration::from_millis(1));
                    let committed_before = registry.poll(job).unwrap().report.clone();
                    drop(registry); // the "kill": no quiesce, no compaction
                    registry = open_registry(&dir);
                    let after = registry.poll(job).unwrap();
                    assert_eq!(
                        after.report, committed_before,
                        "seed {seed}: recovery changed the committed census"
                    );
                    assert_eq!(after.shards_in_flight, 0, "seed {seed}");
                    clock = Instant::now();
                }
            }
        }

        assert!(
            kills >= 1,
            "seed {seed}: every schedule must kill at least once"
        );
        let status = registry.poll(job).unwrap();
        assert_eq!(status.state, JobState::Completed, "seed {seed}");
        assert_eq!(
            status.report.accounted(),
            COMBINATIONS as u64,
            "seed {seed}: census must be exact"
        );
        let violations = spi_chaos::oracle::check_census(&status, COMBINATIONS);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let best = status.best().expect("a feasible optimum exists");
        assert_eq!(
            (best.index, best.cost, best.detail.as_str()),
            (oracle_index, oracle_cost, oracle_detail.as_str()),
            "seed {seed}: optimum must be bit-identical to the uninterrupted run"
        );
        // With hedging/pruning the per-counter split can differ between
        // schedules, but evaluated+pruned always re-partitions the same space.
        assert_eq!(
            status.report.accounted(),
            reference_report.accounted(),
            "seed {seed}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn eof_quiesces_cleanly_and_the_next_start_resumes_and_caches() {
    let dir = temp_dir("eof");
    let submit_line = format!(
        r#"{{"op":"submit","name":"eof","system":{{"scaling":{{"interfaces":5,"clusters":2}}}},"shards":16,"top_k":4,"evaluator":{{"kind":"partition","strategy":"exhaustive","params":{{"kind":"hashed","seed":{SEED}}}}}}}"#
    );

    // The uninterrupted answer, from a store-less service.
    let reference = {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let mut output = Vec::new();
        let input = format!("{submit_line}\n{{\"op\":\"wait\",\"job\":0}}\n");
        run_session(&service, input.as_bytes(), &mut output).unwrap();
        let lines: Vec<JsonValue> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| JsonValue::parse(line).unwrap())
            .collect();
        status_from_json(&lines[1]).unwrap()
    };
    assert_eq!(reference.state, "completed");
    let reference_best = reference.best.clone().expect("feasible optimum");

    // Session 1: submit, then stdin closes immediately — EOF mid-job.
    let config = |dir: &PathBuf, workers: usize| ServiceConfig {
        workers,
        store_dir: Some(dir.clone()),
        hedge: HedgeConfig::disabled(),
        ..ServiceConfig::with_workers(workers)
    };
    {
        let service = ExplorationService::try_start(config(&dir, 1)).unwrap();
        let mut output = Vec::new();
        run_session(&service, format!("{submit_line}\n").as_bytes(), &mut output).unwrap();
        // Post-quiesce (run_session returned): nothing in flight, and the
        // accounted census is exactly the committed shards — a 32-variant
        // space in 16 shards means every committed shard accounts 2 variants.
        let status = handle_request(
            &service,
            &JsonValue::parse(r#"{"op":"poll","job":0}"#).unwrap(),
        );
        let status = status_from_json(&status).unwrap();
        assert_eq!(
            status.evaluated + status.pruned + status.errors,
            2 * wire_shards_done(&service, 0),
            "quiesce must commit whole shards, never tear one"
        );
    }

    // Session 2: same directory — the job resumes and completes exactly.
    {
        let service = ExplorationService::try_start(config(&dir, 4)).unwrap();
        assert_eq!(service.restored().jobs, 1);
        let mut output = Vec::new();
        run_session(
            &service,
            b"{\"op\":\"wait\",\"job\":0}\n{\"op\":\"shutdown\"}\n" as &[u8],
            &mut output,
        )
        .unwrap();
        let lines: Vec<JsonValue> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| JsonValue::parse(line).unwrap())
            .collect();
        let status = status_from_json(&lines[0]).unwrap();
        assert_eq!(status.state, "completed");
        assert_eq!(status.evaluated + status.pruned + status.errors, 32);
        let best = status.best.expect("feasible optimum");
        assert_eq!(
            (best.index, best.cost),
            (reference_best.index, reference_best.cost)
        );
        assert_eq!(best.choice, reference_best.choice);
    }

    // Session 3: identical resubmission is a cache hit — served at birth,
    // evaluated == 0, optimum intact, across a restart.
    {
        let service = ExplorationService::try_start(config(&dir, 2)).unwrap();
        let mut output = Vec::new();
        let input =
            format!("{submit_line}\n{{\"op\":\"wait\",\"job\":1}}\n{{\"op\":\"shutdown\"}}\n");
        run_session(&service, input.as_bytes(), &mut output).unwrap();
        let lines: Vec<JsonValue> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| JsonValue::parse(line).unwrap())
            .collect();
        assert_eq!(lines[0].get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(lines[0].get("state").unwrap().as_str(), Some("completed"));
        let status = status_from_json(&lines[1]).unwrap();
        assert!(status.cache_hit);
        assert_eq!(status.evaluated, 0, "no worker evaluation may run");
        assert_eq!(status.pruned, 0);
        let best = status.best.expect("cached optimum served");
        assert_eq!(
            (best.index, best.cost),
            (reference_best.index, reference_best.cost)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shards_done` of a job over the wire (u64 for arithmetic convenience).
fn wire_shards_done(service: &ExplorationService, job: u64) -> u64 {
    service.poll(JobId::from_raw(job)).unwrap().shards_done as u64
}

#[test]
fn byte_budgeted_registry_compacts_its_real_wal_mid_flight() {
    let dir = temp_dir("autocompact");
    let (system, evaluator) = rebuild_from_recipe(&recipe()).unwrap();
    let job_raw;
    {
        let (wal, recovered) = Wal::open(&dir).unwrap();
        assert!(recovered.is_empty());
        let mut registry = JobRegistry::with_config(RegistryConfig {
            lease_timeout: Duration::from_secs(10),
            // Tiny budget: every committed shard overflows it, so the log is
            // compacted after each commit instead of only at quiesce.
            compact_log_bytes: Some(256),
            ..RegistryConfig::default()
        });
        registry.set_sink(Box::new(WalSink(wal)));
        let job = registry
            .submit_with_recipe(
                &system,
                JobSpec {
                    name: "autocompact".into(),
                    shard_count: 4,
                    top_k: COMBINATIONS,
                    ..JobSpec::default()
                },
                evaluator,
                Some(recipe()),
            )
            .unwrap();
        let clock = Instant::now();
        while let Some(lease) = registry.lease(clock) {
            drain_fully(&mut registry, &lease, 3, clock);
        }
        job_raw = job.raw();
        assert_eq!(registry.poll(job).unwrap().state, JobState::Completed);
        let compactions = registry.metrics().counter(CounterId::WalCompactions);
        assert!(
            compactions >= 4,
            "every commit over the 256-byte budget must compact, got {compactions}"
        );
    }
    // The last commit compacted, so the log on disk is empty and the whole
    // history lives in the snapshot — from which a reopen must recover the
    // completed job exactly.
    assert_eq!(
        std::fs::metadata(dir.join("wal.log")).unwrap().len(),
        0,
        "compaction must leave an empty log"
    );
    let registry = open_registry(&dir);
    let status = registry.poll(JobId::from_raw(job_raw)).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.report.accounted(), COMBINATIONS as u64);
    let violations = spi_chaos::oracle::check_census(&status, COMBINATIONS);
    assert!(violations.is_empty(), "{violations:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restarted_service_counts_the_shards_it_requeues() {
    let dir = temp_dir("requeue-count");
    let job = {
        let mut registry = open_registry(&dir);
        let (system, evaluator) = rebuild_from_recipe(&recipe()).unwrap();
        let job = registry
            .submit_with_recipe(
                &system,
                JobSpec {
                    name: "requeue".into(),
                    shard_count: 4,
                    ..JobSpec::default()
                },
                evaluator,
                Some(recipe()),
            )
            .unwrap();
        let lease = registry.lease(Instant::now()).unwrap();
        drain_fully(&mut registry, &lease, 3, Instant::now());
        job // the "kill": three shards still pending in the store
    };

    let service = ExplorationService::try_start(ServiceConfig {
        store_dir: Some(dir.clone()),
        hedge: HedgeConfig::disabled(),
        ..ServiceConfig::with_workers(2)
    })
    .unwrap();
    assert_eq!(service.restored().requeued_shards, 3);
    assert_eq!(service.wait(job).unwrap().state, JobState::Completed);
    let metrics = service.metrics();
    let enqueues = metrics.counter(CounterId::WfqEnqueues);
    let traced = service
        .drain_trace()
        .events
        .iter()
        .filter(|traced| matches!(traced.event, TraceEvent::WfqEnqueue { .. }))
        .count() as u64;
    assert_eq!(enqueues, 3, "restore's requeues are counted");
    assert_eq!(metrics.counter(CounterId::WfqDequeues), enqueues);
    assert_eq!(metrics.tenant("default").enqueues(), enqueues);
    assert_eq!(traced, enqueues);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_sets_the_log_bytes_gauge_to_the_size_of_the_log() {
    let dir = temp_dir("log-bytes-gauge");
    let mut registry = open_registry(&dir);
    let (system, evaluator) = rebuild_from_recipe(&recipe()).unwrap();
    registry
        .submit_with_recipe(
            &system,
            JobSpec {
                name: "gauge".into(),
                shard_count: 4,
                ..JobSpec::default()
            },
            evaluator,
            Some(recipe()),
        )
        .unwrap();
    let clock = Instant::now();
    for _ in 0..2 {
        let lease = registry.lease(clock).unwrap();
        drain_fully(&mut registry, &lease, 3, clock);
    }
    let metrics = registry.metrics();
    assert!(
        metrics.gauge(GaugeId::WalLogBytes) > 0,
        "appends grew the log"
    );

    registry.compact_store().unwrap();
    let log = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert_eq!(log, 0, "compaction empties the log");
    assert_eq!(metrics.gauge(GaugeId::WalLogBytes), log);
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
}
