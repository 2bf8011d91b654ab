//! Draining a leased shard: the per-worker hot loop.
//!
//! [`drain_lease`] is the one drain entry point, and it is deliberately
//! independent of the thread pool — it talks to the registry only through
//! the `flush` callback and to the observability planes only through the
//! [`MetricsRegistry`] and [`SpanSink`] it is handed, so the same code runs
//! under the real [`crate::ExplorationService`] workers, the deterministic
//! simulated workers of the chaos harness and the property tests. Callers
//! that observe nothing pass [`MetricsRegistry::disabled`] and
//! [`SpanSink::disabled`].

use std::sync::atomic::Ordering;
use std::time::Instant;

use spi_store::metrics::{CounterId, Histogram, HistogramId, MetricsRegistry};
use spi_store::span::{PhaseId, SpanSink};
use spi_variants::DeltaFlattener;

use crate::evaluator::Evaluation;
use crate::registry::Lease;
use crate::report::{BestVariant, ShardReport};

/// One rank in this many of a drain, starting with its first, has its
/// stages recorded as spans (its flatten here, the evaluator's lowering and
/// search through [`Evaluator::evaluate_spanned`]); the others get a
/// disabled sink. Timing a stage costs clock reads that add up to several
/// percent of a variant that takes a few microseconds, while a sample keeps
/// the profile's per-call figures and the trace's shape. The period is odd
/// so the sample does not alias with the power-of-two structure of a Gray
/// walk over strided shards: with a period of eight and sixteen shards, every
/// timed variant would share its choices on three interfaces and patch the
/// same, larger-than-usual number of them.
///
/// [`Evaluator::evaluate_spanned`]: crate::evaluator::Evaluator::evaluate_spanned
const TIMED_RANK_EVERY: usize = 7;

/// What the registry answered to a flushed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushResponse {
    /// Keep draining.
    Continue,
    /// The lease is stale (expired, abandoned or cancelled); stop immediately
    /// and discard local state — another lease owns the shard now.
    Stop,
}

/// How a drain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every index of the shard was accounted and the final batch flushed.
    Completed,
    /// A flush was rejected; the shard belongs to someone else.
    Stale,
    /// The job's cancel flag (or the external stop signal) was observed.
    Stopped,
}

/// Drains every variant of `lease`'s strided shard: flatten incrementally,
/// prune against the incumbent, evaluate, batch.
///
/// The shard is walked in **Gray-code order** through a [`DeltaFlattener`]:
/// rank `r ≡ shard (mod shard_count)` maps to the canonical variant index
/// `gray_index_at(r)`, and consecutive ranks differ in one axis, so each
/// flatten patches the previous flat graph instead of rebuilding it from the
/// skeleton. Reports still carry canonical indices — the registry and the
/// evaluator never see Gray ranks.
///
/// * `batch_size` bounds how many variants are accounted per flush — smaller
///   batches mean fresher progress and tighter lease renewal, larger batches
///   mean less registry-lock traffic. A batch is also flushed early once
///   [`Lease::renew_interval`] has elapsed since the previous flush,
///   whatever its size: flushes are what renew the lease, so a slow
///   evaluator must not be able to out-wait its own deadline between them
///   (only a *single evaluation* outlasting the whole lease timeout can
///   still lose the shard — size the timeout above the per-variant worst
///   case).
/// * `metrics` receives, once per drain, the patch/rebuild/fallback totals
///   of the drain's scratch graph and, per successful patch, how many
///   processes the splice touched
///   ([`HistogramId::FlattenPatchedProcesses`]). The patch sizes are tallied
///   in a drain-local histogram first, because four atomics per variant on
///   cache lines every worker shares cost a sizeable part of a variant that
///   takes a few microseconds.
/// * `spans` gets the whole drain as one [`PhaseId::DrainShard`] root span.
///   For one rank in seven (the drain's first included), the variant's
///   flatten is recorded as [`PhaseId::FlattenPatch`] or
///   [`PhaseId::FlattenRebuild`] (classified by the delta flattener's own
///   stats — a rebuild is exactly the one-shot `flatten_at` path), and the
///   evaluator gets the sink through [`Evaluator::evaluate_spanned`] to time
///   its internal stages; the other ranks run untimed, so their stage time
///   counts as the drain's own. A disabled sink reduces every site to one
///   branch.
/// * `stop` is polled once per variant (service shutdown rides on it).
/// * `flush(delta, is_final)` hands a report delta to the registry —
///   [`crate::JobRegistry::report_batch`] for intermediate batches,
///   [`crate::JobRegistry::complete_shard`] for the final one. Each delta's
///   `eval_ns` covers exactly the work since the previous flush, so the
///   per-shard sum is the shard's true wall time.
///
/// The drain asks the evaluator for a variant's `detail` only when the
/// batch's [`ShardReport`] would keep the variant in its top-K (the same
/// test [`ShardReport::record`] applies, passed as `evaluate_spanned`'s
/// `keep`), so an evaluator that renders names lazily builds them for
/// entrants alone.
///
/// Accounting guarantee: when the drain returns [`DrainOutcome::Completed`],
/// every Gray rank `r ≡ shard (mod shard_count)` of the space was counted in
/// exactly one flushed delta (as evaluated, pruned or errored). Gray order
/// is a permutation of the space, so the union over all shards still covers
/// every variant index exactly once.
///
/// [`Evaluator::evaluate_spanned`]: crate::evaluator::Evaluator::evaluate_spanned
pub fn drain_lease(
    lease: &Lease,
    batch_size: usize,
    metrics: &MetricsRegistry,
    spans: &SpanSink,
    stop: impl Fn() -> bool,
    mut flush: impl FnMut(ShardReport, bool) -> FlushResponse,
) -> DrainOutcome {
    let space = lease.flattener.space();
    let combinations = space.count();
    let batch_size = batch_size.max(1);
    let spanning = spans.is_enabled();

    let mut delta = ShardReport::default();
    let mut flattener = DeltaFlattener::new(&lease.flattener);
    let mut batch_started = Instant::now();
    let mut since_flush = 0usize;
    let mut patches_seen = 0u64;
    let patched = Histogram::new();
    let mut visited = 0usize;
    let untimed = SpanSink::disabled();
    if spanning {
        spans.enter(PhaseId::DrainShard);
    }

    // `Some` when the drain ends early; `None` when it walked every rank,
    // and then its final flush waits until the flatten totals are recorded.
    let mut rank = lease.shard;
    let ended = loop {
        if rank >= combinations {
            break None;
        }
        if lease.cancelled.load(Ordering::Relaxed) || stop() {
            break Some(DrainOutcome::Stopped);
        }
        let timed = spanning && visited.is_multiple_of(TIMED_RANK_EVERY);
        let stage_spans = if timed { spans } else { &untimed };
        let patches_before = timed.then(|| flattener.stats().patches);
        let flatten_start = stage_spans.stamp();
        let flatten_end;
        match flattener.flatten_gray_rank(rank) {
            // A failed flatten also reset the patcher, so the next rank
            // rebuilds from the skeleton instead of a poisoned graph.
            Err(_) => {
                flatten_end = stage_spans.stamp();
                delta.errors += 1;
            }
            Ok((index, graph)) => {
                flatten_end = stage_spans.stamp();
                let choice = space
                    .choice_at(index)
                    .expect("gray rank maps into the space by construction");
                let incumbent = lease.incumbent.load(Ordering::Relaxed);
                // Strictly-greater check: a variant whose bound *equals* the
                // incumbent could still tie it and win the (cost, index)
                // tie-break, so only strictly-worse variants are skipped.
                if lease.evaluator.lower_bound(&choice, graph) > incumbent {
                    delta.pruned += 1;
                } else {
                    // Only a variant entering this delta's top-K needs its
                    // `detail`; the evaluator may skip naming the rest.
                    let keep = |cost: u64| delta.admits((cost, index), lease.top_k);
                    match lease.evaluator.evaluate_spanned(
                        index,
                        &choice,
                        graph,
                        incumbent,
                        stage_spans,
                        &keep,
                    ) {
                        Err(_) => delta.errors += 1,
                        Ok(Evaluation {
                            cost,
                            feasible,
                            detail,
                        }) => {
                            delta.evaluated += 1;
                            if feasible {
                                delta.feasible += 1;
                                lease.incumbent.fetch_min(cost, Ordering::Relaxed);
                                delta.record(
                                    BestVariant {
                                        index,
                                        cost,
                                        choice,
                                        detail,
                                    },
                                    lease.top_k,
                                );
                            }
                        }
                    }
                }
            }
        }

        // The flattened graph's borrow is over, so the flattener's stats are
        // readable again: classify the flatten span patch-vs-rebuild the same
        // way the metrics plane classifies its counters.
        if let Some(before) = patches_before {
            let phase = if flattener.stats().patches > before {
                PhaseId::FlattenPatch
            } else {
                PhaseId::FlattenRebuild
            };
            spans.record_complete(phase, flatten_start, flatten_end);
        }

        if metrics.is_enabled() {
            let stats = flattener.stats();
            if stats.patches > patches_seen {
                patched.record(stats.last_patched_processes);
            }
            patches_seen = stats.patches;
        }

        since_flush += 1;
        visited += 1;
        rank += lease.shard_count;

        let due = since_flush >= batch_size || batch_started.elapsed() >= lease.renew_interval;
        if due && rank < combinations {
            delta.eval_ns = batch_started.elapsed().as_nanos();
            let batch = std::mem::take(&mut delta);
            if flush(batch, false) == FlushResponse::Stop {
                break Some(DrainOutcome::Stale);
            }
            since_flush = 0;
            batch_started = Instant::now();
        }
    };

    let stats = flattener.stats();
    metrics.add(CounterId::FlattenPatches, stats.patches);
    metrics.add(CounterId::FlattenRebuilds, stats.rebuilds);
    metrics.add(CounterId::FlattenFallbacks, stats.rebuild_fallbacks);
    metrics
        .histogram(HistogramId::FlattenPatchedProcesses)
        .merge(&patched);
    let outcome = ended.unwrap_or_else(|| {
        delta.eval_ns = batch_started.elapsed().as_nanos();
        match flush(delta, true) {
            FlushResponse::Continue => DrainOutcome::Completed,
            FlushResponse::Stop => DrainOutcome::Stale,
        }
    });
    if spanning {
        spans.exit();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Evaluation, Evaluator, FnEvaluator};
    use crate::registry::{JobRegistry, JobSpec};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn lease_for(shards: usize, evaluator: Arc<dyn Evaluator>) -> (JobRegistry, Lease) {
        let system = spi_workloads::scaling_system(3, 2).unwrap(); // 8 variants
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        registry
            .submit(
                &system,
                JobSpec {
                    name: "drain".into(),
                    shard_count: shards,
                    top_k: 8,
                    ..JobSpec::default()
                },
                evaluator,
            )
            .unwrap();
        let lease = registry.lease(Instant::now()).unwrap();
        (registry, lease)
    }

    /// Stage spans are a sample: one rank in [`TIMED_RANK_EVERY`], the
    /// drain's first (a rebuild) included, times its flatten, lowering and
    /// search; the drain span still covers the whole shard.
    #[test]
    fn drains_time_the_stages_of_one_rank_in_seven() {
        use crate::evaluator::PartitionEvaluator;
        use spi_store::span::SpanRecorder;

        let system = spi_workloads::scaling_system(5, 2).unwrap(); // 32 variants
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        registry
            .submit(
                &system,
                JobSpec {
                    name: "sampled".into(),
                    shard_count: 1,
                    ..JobSpec::default()
                },
                Arc::new(PartitionEvaluator::default()),
            )
            .unwrap();
        let lease = registry.lease(Instant::now()).unwrap();
        let recorder = Arc::new(SpanRecorder::new(1024));
        let sink = recorder.sink("w0");
        let mut evaluated = 0;
        let outcome = drain_lease(
            &lease,
            usize::MAX,
            &MetricsRegistry::disabled(),
            &sink,
            || false,
            |batch, _| {
                evaluated += batch.evaluated;
                FlushResponse::Continue
            },
        );
        assert_eq!(outcome, DrainOutcome::Completed);
        assert_eq!(evaluated, 32, "every rank is evaluated, timed or not");

        let spans = recorder.spans();
        let count = |phase: PhaseId| spans.iter().filter(|s| s.phase == phase).count();
        let timed = 32usize.div_ceil(TIMED_RANK_EVERY);
        assert_eq!(count(PhaseId::DrainShard), 1);
        assert_eq!(count(PhaseId::FlattenRebuild), 1, "the first rank rebuilds");
        assert_eq!(count(PhaseId::FlattenPatch), timed - 1);
        assert_eq!(count(PhaseId::CompileLower), timed);
        assert_eq!(count(PhaseId::PartitionSearch), timed);
        let drain = spans
            .iter()
            .find(|s| s.phase == PhaseId::DrainShard)
            .unwrap();
        for span in spans.iter().filter(|s| s.phase != PhaseId::DrainShard) {
            assert_eq!(span.parent, Some(drain.id));
        }
    }

    #[test]
    fn patch_sizes_reach_the_shared_histogram_once_per_drain() {
        let evaluator = Arc::new(FnEvaluator::new(|index, _c, _g| {
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let (_registry, lease) = lease_for(1, evaluator);
        let metrics = MetricsRegistry::new();
        let histogram = metrics.histogram(HistogramId::FlattenPatchedProcesses);
        let mut seen_mid_drain = Vec::new();
        let outcome = drain_lease(
            &lease,
            2,
            &metrics,
            &SpanSink::disabled(),
            || false,
            |_, _| {
                seen_mid_drain.push(histogram.count());
                FlushResponse::Continue
            },
        );
        assert_eq!(outcome, DrainOutcome::Completed);
        // Intermediate flushes see nothing; the tally lands before the final one.
        assert_eq!(
            seen_mid_drain,
            vec![0, 0, 0, 7],
            "no shared write per variant"
        );
        // 8 variants: one rebuild, then a patch per Gray step.
        assert_eq!(metrics.counter(CounterId::FlattenPatches), 7);
        assert_eq!(histogram.count(), 7);
        assert!(histogram.sum() >= 7, "every Gray step splices a cluster");
    }

    #[test]
    fn drain_accounts_every_index_of_the_shard() {
        let evaluated = Arc::new(AtomicU64::new(0));
        let probe = Arc::clone(&evaluated);
        let evaluator = Arc::new(FnEvaluator::new(move |index, _c, _g| {
            probe.fetch_add(1 << index, Ordering::Relaxed);
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let (_registry, lease) = lease_for(2, evaluator);
        assert_eq!(lease.shard, 0);
        let mut flushed = ShardReport::default();
        let outcome = drain_lease(
            &lease,
            3,
            &MetricsRegistry::disabled(),
            &SpanSink::disabled(),
            || false,
            |delta, _| {
                flushed.merge(&delta, 8);
                FlushResponse::Continue
            },
        );
        assert_eq!(outcome, DrainOutcome::Completed);
        // Shard 0 of 2 over 8 variants walks Gray ranks 0, 2, 4, 6; in the
        // reflected Gray order 0,1,3,2,6,7,5,4 those are canonical indices
        // 0, 3, 6, 5.
        assert_eq!(evaluated.load(Ordering::Relaxed), 0b0110_1001);
        assert_eq!(flushed.evaluated, 4);
        assert_eq!(flushed.best().unwrap().index, 0);
        assert!(flushed.eval_ns > 0);
    }

    #[test]
    fn incumbent_pruning_skips_strictly_worse_variants() {
        let evaluator = Arc::new(
            FnEvaluator::new(|index, _c, _g| {
                Ok(Evaluation {
                    cost: index as u64,
                    feasible: true,
                    detail: String::new(),
                })
            })
            // Bound = true cost: everything after index 0 is strictly worse
            // than the incumbent 0 and must be pruned, not evaluated.
            .with_lower_bound(|choice, _g| {
                // Recover the index through the choice is overkill here; use a
                // constant bound above 0 instead.
                let _ = choice;
                1
            }),
        );
        let (_registry, lease) = lease_for(1, evaluator);
        let mut flushed = ShardReport::default();
        let outcome = drain_lease(
            &lease,
            64,
            &MetricsRegistry::disabled(),
            &SpanSink::disabled(),
            || false,
            |delta, _| {
                flushed.merge(&delta, 8);
                FlushResponse::Continue
            },
        );
        assert_eq!(outcome, DrainOutcome::Completed);
        // Index 0 evaluated (bound 1 > MAX is false), sets incumbent 0; all
        // later variants have bound 1 > 0 and are pruned.
        assert_eq!(flushed.evaluated, 1);
        assert_eq!(flushed.pruned, 7);
        assert_eq!(flushed.accounted(), 8);
        assert_eq!(flushed.best().unwrap().index, 0);
    }

    #[test]
    fn evaluator_errors_are_counted_not_fatal() {
        let evaluator = Arc::new(FnEvaluator::new(|index, _c, _g| {
            if index % 2 == 0 {
                Err(crate::ExploreError::Workload("boom".into()))
            } else {
                Ok(Evaluation {
                    cost: index as u64,
                    feasible: index % 4 == 1,
                    detail: String::new(),
                })
            }
        }));
        let (_registry, lease) = lease_for(1, evaluator);
        let mut flushed = ShardReport::default();
        drain_lease(
            &lease,
            2,
            &MetricsRegistry::disabled(),
            &SpanSink::disabled(),
            || false,
            |delta, _| {
                flushed.merge(&delta, 8);
                FlushResponse::Continue
            },
        );
        assert_eq!(flushed.errors, 4);
        assert_eq!(flushed.evaluated, 4);
        assert_eq!(flushed.feasible, 2);
        assert_eq!(flushed.accounted(), 8);
    }

    #[test]
    fn slow_evaluators_flush_on_the_renew_interval_not_just_batch_size() {
        // Lease timeout 40ms → renew interval 20ms. The evaluator takes ~6ms
        // per variant and the batch size would never flush (1000 ≫ 8), so
        // every flush that happens is time-driven. Without interval flushes
        // the lease would starve and the shard livelock under a real pool.
        let evaluator = Arc::new(FnEvaluator::new(|index, _c, _g| {
            std::thread::sleep(Duration::from_millis(6));
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let system = spi_workloads::scaling_system(3, 2).unwrap(); // 8 variants
        let mut registry = JobRegistry::new(Duration::from_millis(40));
        registry
            .submit(
                &system,
                JobSpec {
                    name: "slow".into(),
                    shard_count: 1,
                    top_k: 8,
                    ..JobSpec::default()
                },
                evaluator,
            )
            .unwrap();
        let lease = registry.lease(Instant::now()).unwrap();
        assert_eq!(lease.renew_interval, Duration::from_millis(20));

        let started = Instant::now();
        let mut intermediate = 0u32;
        let mut merged = ShardReport::default();
        let outcome = drain_lease(
            &lease,
            1000,
            &MetricsRegistry::disabled(),
            &SpanSink::disabled(),
            || false,
            |delta, is_final| {
                if !is_final {
                    intermediate += 1;
                }
                merged.merge(&delta, 8);
                FlushResponse::Continue
            },
        );
        let elapsed = started.elapsed().as_nanos();
        assert_eq!(outcome, DrainOutcome::Completed);
        assert!(
            intermediate >= 1,
            "a ~48ms drain must flush at least once before the final batch"
        );
        assert_eq!(merged.accounted(), 8);
        // eval_ns is per-delta, so the merged sum is the true wall time — a
        // cumulative-since-start timer would sum to well over `elapsed`.
        assert!(
            merged.eval_ns <= elapsed,
            "summed eval_ns {} exceeds wall time {elapsed}",
            merged.eval_ns
        );
        assert!(merged.eval_ns > 0);
    }

    #[test]
    fn stop_signal_and_stale_flush_end_the_drain() {
        let evaluator = Arc::new(FnEvaluator::new(|index, _c, _g| {
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let (_registry, lease) = lease_for(1, Arc::clone(&evaluator) as Arc<dyn Evaluator>);
        assert_eq!(
            drain_lease(
                &lease,
                1,
                &MetricsRegistry::disabled(),
                &SpanSink::disabled(),
                || true,
                |_d, _| FlushResponse::Continue
            ),
            DrainOutcome::Stopped
        );
        let (_registry2, lease2) = lease_for(1, evaluator);
        assert_eq!(
            drain_lease(
                &lease2,
                1,
                &MetricsRegistry::disabled(),
                &SpanSink::disabled(),
                || false,
                |_d, _| FlushResponse::Stop
            ),
            DrainOutcome::Stale
        );
    }
}
