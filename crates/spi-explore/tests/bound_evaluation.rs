//! The partition evaluator bound to a job, pinned against the evaluator as
//! submitted.
//!
//! [`Evaluator::bind`] hands the registry a [`PartitionEvaluator`] that reads
//! every task's name rank and parameters from a per-job table instead of
//! hashing and sorting names per variant. These tests hold it to the unbound
//! evaluator — bound, cost, feasibility, detail and spec — on full Gray walks
//! of every strategy and mode, on graphs outside the job's name universe, and
//! through a restart that rebinds a still-running job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spi_explore::worker::{drain_lease, FlushResponse};
use spi_explore::{
    rebuild_from_recipe, Evaluation, Evaluator, JobRegistry, JobSpec, JobState, MemorySink,
    MemoryStore, MetricsRegistry, PartitionEvaluator, SpanSink, TaskParamsSpec,
};
use spi_model::json::JsonValue;
use spi_model::SpiGraph;
use spi_synth::{FeasibilityMode, SearchStrategy, TaskParams};
use spi_variants::{DeltaFlattener, Flattener, VariantChoice, VariantSystem};
use spi_workloads::{scaling_system, synthetic_system, SyntheticParams};

const STRATEGIES: [SearchStrategy; 4] = [
    SearchStrategy::Exhaustive,
    SearchStrategy::BranchAndBound,
    SearchStrategy::Greedy,
    SearchStrategy::Auto,
];
const MODES: [FeasibilityMode; 2] = [FeasibilityMode::PerApplication, FeasibilityMode::Serialized];

fn params_specs() -> [TaskParamsSpec; 4] {
    [
        TaskParamsSpec::Hashed { seed: 42 },
        TaskParamsSpec::Hashed { seed: 7 },
        TaskParamsSpec::Hashed { seed: 1234 },
        TaskParamsSpec::Uniform(TaskParams {
            sw_time: 30,
            period: 100,
            hw_area: 20,
            synthesis_effort: 5,
        }),
    ]
}

/// The submitted evaluator and what binding it to `flattener` returns.
fn bind(
    evaluator: &PartitionEvaluator,
    flattener: &Flattener,
) -> (Arc<dyn Evaluator>, Arc<dyn Evaluator>) {
    let submitted: Arc<dyn Evaluator> = Arc::new(evaluator.clone());
    let bound = Arc::clone(&submitted)
        .bind(flattener)
        .expect("a partition evaluator binds to its job");
    (submitted, bound)
}

/// Asserts that `bound` answers `graph` exactly as `submitted` does: the
/// pruning bound, the full evaluation and the drain's detail-free call.
fn assert_same(
    submitted: &dyn Evaluator,
    bound: &dyn Evaluator,
    index: usize,
    choice: &VariantChoice,
    graph: &SpiGraph,
) -> Evaluation {
    assert_eq!(
        bound.lower_bound(choice, graph),
        submitted.lower_bound(choice, graph),
        "bound of variant {index}"
    );
    let expected = submitted.evaluate(index, choice, graph, u64::MAX).unwrap();
    assert_eq!(
        bound.evaluate(index, choice, graph, u64::MAX).unwrap(),
        expected,
        "variant {index}"
    );
    let spans = SpanSink::disabled();
    assert_eq!(
        bound
            .evaluate_spanned(index, choice, graph, u64::MAX, &spans, &|_| false)
            .unwrap(),
        submitted
            .evaluate_spanned(index, choice, graph, u64::MAX, &spans, &|_| false)
            .unwrap(),
        "variant {index}, not kept"
    );
    expected
}

/// Two synthetic systems beside the scaling ones: deeper clusters (several
/// tasks spliced per choice) and three clusters per interface.
fn synthetic_systems() -> [VariantSystem; 2] {
    [
        synthetic_system(&SyntheticParams {
            common_tasks: 2,
            interfaces: 4,
            clusters_per_interface: 2,
            cluster_depth: 2,
            seed: 5,
        })
        .unwrap(),
        synthetic_system(&SyntheticParams {
            common_tasks: 3,
            interfaces: 3,
            clusters_per_interface: 3,
            cluster_depth: 2,
            seed: 9,
        })
        .unwrap(),
    ]
}

#[test]
fn bound_evaluator_matches_the_submitted_one_on_full_gray_walks() {
    let mut systems: Vec<VariantSystem> = [3usize, 5, 6]
        .into_iter()
        .map(|interfaces| scaling_system(interfaces, 2).unwrap())
        .collect();
    systems.extend(synthetic_systems());
    let mut checked = 0;
    for system in &systems {
        let flattener = Flattener::new(system).unwrap();
        for strategy in STRATEGIES {
            for mode in MODES {
                for params in params_specs() {
                    let evaluator = PartitionEvaluator {
                        processor_cost: 15,
                        params,
                        mode,
                        strategy,
                    };
                    let (submitted, bound) = bind(&evaluator, &flattener);
                    assert_eq!(bound.spec(), submitted.spec(), "the cache address holds");
                    let mut delta = DeltaFlattener::new(&flattener);
                    for rank in 0..flattener.space().count() {
                        let (index, graph) = delta.flatten_gray_rank(rank).unwrap();
                        let choice = flattener.space().choice_at(index).unwrap();
                        assert_same(&*submitted, &*bound, index, &choice, graph);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, (8 + 32 + 64 + 16 + 27) * 4 * 2 * 4);
}

#[test]
fn graphs_outside_the_table_get_the_submitted_evaluators_answer() {
    // Bound to the 3-interface system, then handed variants of the 4- and
    // 5-interface ones: their `if3/...` and `if4/...` tasks are in no table,
    // so the bound evaluator must fall back, not guess.
    let small = Flattener::new(&scaling_system(3, 2).unwrap()).unwrap();
    for strategy in [SearchStrategy::Greedy, SearchStrategy::BranchAndBound] {
        for mode in MODES {
            let evaluator = PartitionEvaluator {
                strategy,
                mode,
                ..PartitionEvaluator::default()
            };
            let (submitted, bound) = bind(&evaluator, &small);
            for interfaces in [4usize, 5] {
                let larger = Flattener::new(&scaling_system(interfaces, 2).unwrap()).unwrap();
                for index in 0..larger.space().count() {
                    let (choice, graph) = larger.flatten_at(index).unwrap();
                    assert_same(&*submitted, &*bound, index, &choice, &graph);
                }
            }
            // A graph with no task at all is an error on both paths.
            let empty = SpiGraph::new("empty");
            let choice = VariantChoice::new();
            assert_eq!(
                bound.lower_bound(&choice, &empty),
                submitted.lower_bound(&choice, &empty)
            );
            assert!(bound.evaluate(0, &choice, &empty, u64::MAX).is_err());
            assert!(submitted.evaluate(0, &choice, &empty, u64::MAX).is_err());
        }
    }
}

/// A partition evaluator that counts how often the registry binds it.
struct CountingBinds {
    inner: PartitionEvaluator,
    binds: Arc<AtomicUsize>,
}

impl Evaluator for CountingBinds {
    fn spec(&self) -> Option<JsonValue> {
        self.inner.spec()
    }

    fn evaluate_spanned(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
        spans: &SpanSink,
        keep: &dyn Fn(u64) -> bool,
    ) -> spi_explore::Result<Evaluation> {
        self.inner
            .evaluate_spanned(index, choice, graph, incumbent, spans, keep)
    }

    fn bind(self: Arc<Self>, flattener: &Flattener) -> Option<Arc<dyn Evaluator>> {
        self.binds.fetch_add(1, Ordering::Relaxed);
        Arc::new(self.inner.clone()).bind(flattener)
    }
}

/// Drains every lease the registry hands out, committing as it goes.
fn drain_all(registry: &mut JobRegistry, now: Instant, limit: usize) {
    for _ in 0..limit {
        let Some(lease) = registry.lease(now) else {
            return;
        };
        drain_lease(
            &lease,
            7,
            &MetricsRegistry::disabled(),
            &SpanSink::disabled(),
            || false,
            |delta, last| {
                let flushed = if last {
                    registry.complete_shard(lease.lease, delta, now).map(|_| ())
                } else {
                    registry.report_batch(lease.lease, delta, now)
                };
                flushed.expect("the only lease of its shard");
                FlushResponse::Continue
            },
        );
    }
}

#[test]
fn restore_rebinds_a_running_job_to_a_bit_identical_optimum() {
    let recipe = JsonValue::parse(
        r#"{"system":{"scaling":{"interfaces":6,"clusters":2}},"evaluator":{"kind":"partition","strategy":"greedy","params":{"kind":"hashed","seed":99}}}"#,
    )
    .unwrap();
    let (system, rebuilt) = rebuild_from_recipe(&recipe).unwrap();
    let evaluator = PartitionEvaluator {
        strategy: SearchStrategy::Greedy,
        params: TaskParamsSpec::Hashed { seed: 99 },
        ..PartitionEvaluator::default()
    };
    assert_eq!(rebuilt.spec(), evaluator.spec());
    let binds = Arc::new(AtomicUsize::new(0));
    let counting = |binds: &Arc<AtomicUsize>| -> Arc<dyn Evaluator> {
        Arc::new(CountingBinds {
            inner: evaluator.clone(),
            binds: Arc::clone(binds),
        })
    };
    let spec = JobSpec {
        name: "rebind".into(),
        shard_count: 8,
        top_k: 4,
        ..JobSpec::default()
    };

    // Run half the shards, then lose the process.
    let store = Arc::new(Mutex::new(MemoryStore::default()));
    let mut registry = JobRegistry::new(Duration::from_secs(600));
    registry.set_sink(Box::new(MemorySink::new(Arc::clone(&store))));
    let job = registry
        .submit_with_recipe(&system, spec, counting(&binds), Some(recipe.clone()))
        .unwrap();
    assert_eq!(binds.load(Ordering::Relaxed), 1, "bound once at submit");
    let now = Instant::now();
    drain_all(&mut registry, now, 4);
    assert_eq!(registry.poll(job).unwrap().shards_done, 4);
    drop(registry);

    // Restart: the still-running job is rebuilt and bound again.
    let recovered = store.lock().unwrap().clone();
    let mut registry = JobRegistry::new(Duration::from_secs(600));
    let stats = registry
        .restore(recovered.snapshot.as_ref(), &recovered.records, &|recipe| {
            let (system, _) = rebuild_from_recipe(recipe)?;
            Ok((system, counting(&binds)))
        })
        .unwrap();
    assert_eq!(stats.resumed, 1);
    assert_eq!(binds.load(Ordering::Relaxed), 2, "bound again at restore");
    drain_all(&mut registry, now, usize::MAX);
    let status = registry.poll(job).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.report.accounted(), 64);

    // The optimum of the resumed job is the unbound evaluator's, detail
    // included.
    let flattener = Flattener::new(&system).unwrap();
    let optimum = (0..64)
        .map(|index| {
            let (choice, graph) = flattener.flatten_at(index).unwrap();
            let evaluation = evaluator
                .evaluate(index, &choice, &graph, u64::MAX)
                .unwrap();
            (evaluation.cost, index, evaluation.detail)
        })
        .min()
        .unwrap();
    let best = status.best().unwrap();
    assert_eq!((best.cost, best.index, best.detail.clone()), optimum);
}
