//! Property tests for the lease protocol's accounting guarantee:
//!
//! 1. every variant index is evaluated **exactly once** across any worker
//!    count (happy path, real worker pool);
//! 2. cancel and lease-expiry mid-drain never lose or double-count a shard
//!    (chaos path, deterministic simulated workers over the same
//!    `drain_lease` + `JobRegistry` code the pool runs).
//!
//! No proptest in the offline environment, so properties are driven by the
//! repo's usual seeded-LCG case generator: a few dozen pseudo-random
//! schedules per property, reproducible by seed.
//!
//! The exactness probe: jobs run with `top_k == combinations` and a distinct
//! per-index cost, so the committed top list is a full census — it must be a
//! permutation of every index of the space, which catches both losses and
//! double-counts at per-variant (not just per-counter) granularity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_explore::{
    drain_lease, DrainOutcome, Evaluation, Evaluator, ExplorationService, FlushResponse,
    FnEvaluator, JobRegistry, JobSpec, JobState, Lease, MetricsRegistry, ServiceConfig,
    ShardReport, SpanSink,
};
use spi_workloads::scaling_system;

/// Deterministic pseudo-random case generator (64-bit LCG, same constants as
/// the in-tree generator used by `tests/properties.rs`).
use spi_testutil::Lcg as Cases;

/// Distinct, index-derived cost: no two variants tie, so the census and the
/// serial optimum are unambiguous.
fn cost_of(index: usize) -> u64 {
    ((index as u64) * 2654435761) % 1_000_003
}

fn counting_evaluator(counters: Arc<Vec<AtomicU64>>) -> Arc<dyn Evaluator> {
    Arc::new(FnEvaluator::new(move |index, _choice, _graph| {
        counters[index].fetch_add(1, Ordering::Relaxed);
        Ok(Evaluation {
            cost: cost_of(index),
            feasible: true,
            detail: String::new(),
        })
    }))
}

/// Asserts that `top` is exactly the census of `indices` (each once, sorted by
/// the (cost, index) key).
fn assert_census(top: &[spi_explore::BestVariant], mut indices: Vec<usize>) {
    let mut seen: Vec<usize> = top.iter().map(|v| v.index).collect();
    seen.sort_unstable();
    indices.sort_unstable();
    assert_eq!(
        seen, indices,
        "census mismatch: lost or duplicated variants"
    );
    for variant in top {
        assert_eq!(
            variant.cost,
            cost_of(variant.index),
            "cost corrupted in merge"
        );
    }
    assert!(
        top.windows(2).all(|w| w[0].key() <= w[1].key()),
        "top list must stay sorted"
    );
}

#[test]
fn every_index_evaluated_exactly_once_across_worker_counts() {
    let system = scaling_system(6, 2).unwrap(); // 64 variants
    let combinations = 64usize;
    let mut cases = Cases::new(11);
    for workers in [1usize, 2, 4, 8] {
        // Vary the shard geometry and batch size per worker count.
        let shard_count = [1, 3, 8, 64][cases.below(4) as usize];
        let batch_size = 1 + cases.below(16) as usize;
        let counters: Arc<Vec<AtomicU64>> =
            Arc::new((0..combinations).map(|_| AtomicU64::new(0)).collect());
        // Hedging is off: this property asserts every *evaluator invocation*
        // happens exactly once, which speculative duplicate leases would
        // intentionally violate (accounting-exactly-once still holds under
        // hedges and is covered by the registry's hedging tests).
        let service = ExplorationService::start(ServiceConfig {
            workers,
            batch_size,
            lease_timeout: Duration::from_secs(60),
            hedge: spi_explore::HedgeConfig::disabled(),
            ..ServiceConfig::default()
        });
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: format!("exact-once-{workers}w"),
                    shard_count,
                    top_k: combinations,
                    ..JobSpec::default()
                },
                counting_evaluator(Arc::clone(&counters)),
            )
            .unwrap();
        let status = service.wait(job).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, combinations as u64);
        assert_eq!(status.report.accounted(), combinations as u64);
        let violations = spi_chaos::oracle::check_census(&status, combinations);
        assert!(violations.is_empty(), "{workers} workers: {violations:?}");
        for (index, counter) in counters.iter().enumerate() {
            assert_eq!(
                counter.load(Ordering::Relaxed),
                1,
                "variant {index} evaluated a wrong number of times with {workers} workers"
            );
        }
        assert_census(&status.report.top, (0..combinations).collect());
        // The optimum equals the serial sweep's (cost, index) minimum.
        let serial = (0..combinations).map(|i| (cost_of(i), i)).min().unwrap();
        let best = status.best().unwrap();
        assert_eq!((best.cost, best.index), serial);
    }
}

/// Drains `lease` completely against `registry` at `clock`, like a healthy
/// pool worker would.
fn drain_fully(registry: &mut JobRegistry, lease: &Lease, batch: usize, clock: Instant) {
    // The registry is behind &mut here (no real concurrency), so route flushes
    // through a queue applied after the closure returns.
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
    for (delta, is_final) in flushes {
        let result = if is_final {
            registry
                .complete_shard(lease.lease, delta, clock)
                .map(|_| ())
        } else {
            registry.report_batch(lease.lease, delta, clock)
        };
        result.expect("lease is live throughout a healthy drain");
    }
}

/// Simulates a worker that stages one partial batch and then dies.
fn crash_after_one_batch(registry: &mut JobRegistry, lease: &Lease, batch: usize, clock: Instant) {
    let mut first: Option<ShardReport> = None;
    let _ = drain_lease(
        lease,
        batch,
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
            .expect("lease is live at crash time");
    }
    // ... and the worker is never heard from again: no complete, no abandon.
}

#[test]
fn lease_expiry_chaos_never_loses_or_double_counts_a_shard() {
    let system = scaling_system(5, 2).unwrap(); // 32 variants
    let combinations = 32usize;
    let timeout = Duration::from_secs(10);
    for seed in 0..24u64 {
        let mut cases = Cases::new(seed);
        let mut registry = JobRegistry::new(timeout);
        let shard_count = 1 + cases.below(8) as usize;
        let job = registry
            .submit(
                &system,
                JobSpec {
                    name: format!("chaos-{seed}"),
                    shard_count,
                    top_k: combinations,
                    ..JobSpec::default()
                },
                counting_evaluator(Arc::new(
                    (0..combinations).map(|_| AtomicU64::new(0)).collect(),
                )),
            )
            .unwrap();
        let mut clock = Instant::now();
        let mut steps = 0;
        while !registry.poll(job).unwrap().state.is_terminal() {
            steps += 1;
            assert!(steps < 10_000, "chaos schedule failed to converge");
            let batch = 1 + cases.below(5) as usize;
            match cases.below(4) {
                // Healthy worker: drain a shard to completion.
                0 | 1 => {
                    if let Some(lease) = registry.lease(clock) {
                        drain_fully(&mut registry, &lease, batch, clock);
                    }
                }
                // Doomed worker: stage a partial batch, then silence.
                2 => {
                    if let Some(lease) = registry.lease(clock) {
                        crash_after_one_batch(&mut registry, &lease, batch, clock);
                    }
                }
                // Time passes; stale leases get reclaimed.
                _ => {
                    clock += timeout + Duration::from_millis(1);
                    registry.expire(clock);
                }
            }
        }
        let status = registry.poll(job).unwrap();
        assert_eq!(status.state, JobState::Completed, "seed {seed}");
        assert_eq!(status.report.evaluated, combinations as u64, "seed {seed}");
        assert_eq!(
            status.report.accounted(),
            combinations as u64,
            "seed {seed}"
        );
        let violations = spi_chaos::oracle::check_census(&status, combinations);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert_census(&status.report.top, (0..combinations).collect());
    }
}

#[test]
fn cancel_mid_drain_keeps_exactly_the_completed_shards() {
    let system = scaling_system(5, 2).unwrap(); // 32 variants
    let combinations = 32usize;
    for seed in 0..16u64 {
        let mut cases = Cases::new(seed.wrapping_add(1000));
        let mut registry = JobRegistry::new(Duration::from_secs(10));
        let shard_count = 2 + cases.below(7) as usize;
        let job = registry
            .submit(
                &system,
                JobSpec {
                    name: format!("cancel-{seed}"),
                    shard_count,
                    top_k: combinations,
                    ..JobSpec::default()
                },
                counting_evaluator(Arc::new(
                    (0..combinations).map(|_| AtomicU64::new(0)).collect(),
                )),
            )
            .unwrap();
        let clock = Instant::now();

        // Complete a random prefix of shards, stage a partial on one more,
        // then cancel.
        let complete = cases.below(shard_count as u64) as usize;
        let mut completed_shards = Vec::new();
        for _ in 0..complete {
            let lease = registry.lease(clock).unwrap();
            completed_shards.push(lease.shard);
            drain_fully(&mut registry, &lease, 4, clock);
        }
        if let Some(lease) = registry.lease(clock) {
            crash_after_one_batch(&mut registry, &lease, 2, clock);
        }
        let status = registry.cancel(job).unwrap();
        assert_eq!(status.state, JobState::Cancelled);

        // Exactly the indices of the completed shards survive — the staged
        // partial of the in-flight shard is gone, nothing is double-counted.
        // A shard owns the Gray ranks congruent to it, so its index set is
        // the image of those ranks under the Gray walk.
        let space = system.variant_space();
        let expected: Vec<usize> = (0..combinations)
            .filter(|rank| completed_shards.contains(&(rank % shard_count)))
            .map(|rank| space.gray_index_at(rank).unwrap())
            .collect();
        assert_eq!(
            status.report.evaluated,
            expected.len() as u64,
            "seed {seed}"
        );
        assert_eq!(status.report.accounted(), expected.len() as u64);
        assert_census(&status.report.top, expected);

        // Cancel is terminal: no lease can be granted afterwards.
        assert!(registry.lease(clock).is_none(), "seed {seed}");
    }
}

#[test]
fn requeued_shard_after_expiry_is_re_draincable_by_another_worker() {
    // Directed version of the chaos property, checking the interleaving the
    // issue calls out: worker A stages partial work, stalls past the lease
    // timeout, worker B re-leases and completes the shard, then A wakes up
    // and tries to report — A's work must be discarded, B's counted.
    let system = scaling_system(4, 2).unwrap(); // 16 variants
    let mut registry = JobRegistry::new(Duration::from_secs(5));
    let job = registry
        .submit(
            &system,
            JobSpec {
                name: "handoff".into(),
                shard_count: 2,
                top_k: 16,
                ..JobSpec::default()
            },
            counting_evaluator(Arc::new((0..16).map(|_| AtomicU64::new(0)).collect())),
        )
        .unwrap();
    let t0 = Instant::now();

    let worker_a = registry.lease(t0).unwrap();
    crash_after_one_batch(&mut registry, &worker_a, 2, t0);

    let t1 = t0 + Duration::from_secs(6);
    assert_eq!(registry.expire(t1), 1);

    // B drains both shards (A's requeued one and the other).
    while let Some(lease) = registry.lease(t1) {
        drain_fully(&mut registry, &lease, 4, t1);
    }

    // A wakes up and reports into the void.
    let late = ShardReport {
        evaluated: 99,
        ..ShardReport::default()
    };
    assert!(registry
        .report_batch(worker_a.lease, late.clone(), t1)
        .is_err());
    assert!(registry.complete_shard(worker_a.lease, late, t1).is_err());

    let status = registry.poll(job).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.report.evaluated, 16);
    assert_census(&status.report.top, (0..16).collect());
}
