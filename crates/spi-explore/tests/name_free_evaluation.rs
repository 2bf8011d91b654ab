//! The name-free per-variant path pinned against the materializing one.
//!
//! [`PartitionEvaluator`] lowers each flattened variant with interned names
//! and runs the search core, which answers with a total and a hardware set;
//! task names are rendered only for the variants a shard report keeps. These
//! tests hold that path to what `compiled_from_flat_graph` +
//! `optimize_compiled` and the historical `hw=[..] sw=[..]` rendering of the
//! cost breakdown produce, and to a digest of that output recorded before the
//! search core was split from its materialization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spi_explore::worker::{drain_lease, FlushResponse};
use spi_explore::{
    BestVariant, Evaluation, Evaluator, JobRegistry, JobSpec, PartitionEvaluator, ShardReport,
    SpanSink, TaskParamsSpec,
};
use spi_model::digest::Hasher;
use spi_model::SpiGraph;
use spi_synth::partition::{optimize_compiled, optimize_serial_reference};
use spi_synth::{
    compiled_from_flat_graph, from_flat_graph, FeasibilityMode, PartitionResult, SearchStrategy,
    SynthError,
};
use spi_variants::{DeltaFlattener, Flattener, VariantChoice, VariantSystem};
use spi_workloads::{scaling_system, synthetic_system, SyntheticParams};

const MODES: [FeasibilityMode; 2] = [FeasibilityMode::PerApplication, FeasibilityMode::Serialized];

/// The `detail` format the partition evaluator has always reported.
fn detail_of(result: &PartitionResult) -> String {
    format!(
        "hw=[{}] sw=[{}]",
        result.cost.hardware_tasks.join(","),
        result.cost.software_tasks.join(",")
    )
}

/// What the evaluator must answer for `graph`: compile, search and
/// materialize, then render the breakdown.
fn reference(graph: &SpiGraph, evaluator: &PartitionEvaluator) -> (Evaluation, u64, u64) {
    let compiled = compiled_from_flat_graph(graph, evaluator.processor_cost, |name| {
        Some(evaluator.params.params_for(name))
    })
    .unwrap();
    match optimize_compiled(&compiled, evaluator.mode, evaluator.strategy) {
        Ok(result) => (
            Evaluation {
                cost: result.cost.total(),
                feasible: true,
                detail: detail_of(&result),
            },
            result.evaluated_candidates,
            result.pruned_candidates,
        ),
        Err(SynthError::Infeasible(message)) => (
            Evaluation {
                cost: u64::MAX,
                feasible: false,
                detail: message,
            },
            0,
            0,
        ),
        Err(other) => panic!("reference search failed: {other}"),
    }
}

fn evaluator(strategy: SearchStrategy, mode: FeasibilityMode, seed: u64) -> PartitionEvaluator {
    PartitionEvaluator {
        processor_cost: 15,
        params: TaskParamsSpec::Hashed { seed },
        mode,
        strategy,
    }
}

/// Walks `ranks` of `system`'s space in Gray order, as the drain does, and
/// checks every variant against [`reference`]; with `oracle`, exact
/// strategies are also held to the string-keyed serial scan. Returns the
/// variants checked.
fn check_walk(
    system: &VariantSystem,
    ranks: std::ops::Range<usize>,
    evaluator: &PartitionEvaluator,
    oracle: bool,
) -> usize {
    let flattener = Flattener::new(system).unwrap();
    let mut delta = DeltaFlattener::new(&flattener);
    let exact = oracle
        && matches!(
            evaluator.strategy,
            SearchStrategy::Exhaustive | SearchStrategy::BranchAndBound
        );
    let mut checked = 0;
    for rank in ranks {
        let (index, graph) = delta.flatten_gray_rank(rank).unwrap();
        let choice = flattener.space().choice_at(index).unwrap();
        let (expected, _, _) = reference(graph, evaluator);
        let full = evaluator.evaluate(index, &choice, graph, u64::MAX).unwrap();
        assert_eq!(full, expected, "variant {index} under {evaluator:?}");

        // The drain's call: the detail is rendered only when kept, the cost
        // and feasibility never depend on it.
        let spans = SpanSink::disabled();
        let kept = evaluator
            .evaluate_spanned(index, &choice, graph, u64::MAX, &spans, &|_| true)
            .unwrap();
        assert_eq!(kept, expected, "variant {index}, kept");
        let skipped = evaluator
            .evaluate_spanned(index, &choice, graph, u64::MAX, &spans, &|_| false)
            .unwrap();
        assert_eq!(
            (skipped.cost, skipped.feasible),
            (expected.cost, expected.feasible)
        );
        if expected.feasible {
            assert!(skipped.detail.is_empty(), "variant {index}: {skipped:?}");
        }

        if exact {
            let problem = from_flat_graph(graph, evaluator.processor_cost, |name| {
                Some(evaluator.params.params_for(name))
            })
            .unwrap();
            let oracle = optimize_serial_reference(&problem, evaluator.mode).unwrap();
            assert_eq!(
                (full.cost, full.detail.as_str()),
                (oracle.cost.total(), detail_of(&oracle).as_str()),
                "variant {index}: serial oracle"
            );
        }
        checked += 1;
    }
    checked
}

#[test]
fn every_strategy_and_mode_matches_compile_plus_optimize_on_full_gray_walks() {
    let mut checked = 0;
    for interfaces in [3usize, 5, 6] {
        let system = scaling_system(interfaces, 2).unwrap();
        let count = 1usize << interfaces;
        for strategy in [
            SearchStrategy::Exhaustive,
            SearchStrategy::BranchAndBound,
            SearchStrategy::Greedy,
            SearchStrategy::Auto,
        ] {
            for mode in MODES {
                for seed in [42u64, 7, 1234] {
                    // The string-keyed scan is slow; one seed of the smaller
                    // spaces is enough to tie both paths to it.
                    let oracle = interfaces <= 5 && seed == 42;
                    checked +=
                        check_walk(&system, 0..count, &evaluator(strategy, mode, seed), oracle);
                }
            }
        }
    }
    assert_eq!(checked, (8 + 32 + 64) * 4 * 2 * 3);
}

#[test]
fn greedy_matches_compile_plus_optimize_beyond_the_exhaustive_limit() {
    // 19 and 21 tasks: `Auto` runs the greedy search here too.
    for interfaces in [9usize, 10] {
        let system = scaling_system(interfaces, 2).unwrap();
        for strategy in [SearchStrategy::Greedy, SearchStrategy::Auto] {
            for mode in MODES {
                for seed in [42u64, 99] {
                    check_walk(
                        &system,
                        0..1 << interfaces,
                        &evaluator(strategy, mode, seed),
                        false,
                    );
                }
            }
        }
    }
}

/// 33 common tasks + 32 interfaces of 2 single-process clusters: 65 tasks in
/// every variant, past what a `u64` mask can address.
fn wide_system() -> VariantSystem {
    synthetic_system(&SyntheticParams {
        common_tasks: 33,
        interfaces: 32,
        clusters_per_interface: 2,
        cluster_depth: 1,
        seed: 1,
    })
    .unwrap()
}

#[test]
fn greedy_matches_compile_plus_optimize_past_64_tasks() {
    let system = wide_system();
    for mode in MODES {
        for seed in [42u64, 7] {
            let evaluator = evaluator(SearchStrategy::Greedy, mode, seed);
            assert_eq!(check_walk(&system, 0..40, &evaluator, false), 40);
        }
    }
    // The exact searches refuse such a variant with an error, not a panic.
    let flattener = Flattener::new(&system).unwrap();
    let (choice, graph) = flattener.flatten_at(0).unwrap();
    for strategy in [SearchStrategy::Exhaustive, SearchStrategy::BranchAndBound] {
        let evaluator = evaluator(strategy, FeasibilityMode::PerApplication, 42);
        assert!(evaluator.evaluate(0, &choice, &graph, u64::MAX).is_err());
    }
}

#[test]
fn greedy_walk_matches_the_golden_digest() {
    // Every variant's evaluation and search result on fixed greedy walks,
    // digested. The constant was recorded from the per-variant path that
    // built every mapping, breakdown and detail string, so the name-free
    // path cannot drift the heuristic, its tie-breaks or its counts.
    let walks = [
        (scaling_system(10, 2).unwrap(), 1024usize),
        (wide_system(), 48),
    ];
    let mut hasher = Hasher::new();
    let mut lines = 0;
    for (system, sample) in &walks {
        let flattener = Flattener::new(system).unwrap();
        for mode in MODES {
            for seed in [42u64, 7] {
                let evaluator = evaluator(SearchStrategy::Greedy, mode, seed);
                for index in 0..*sample {
                    let (choice, graph) = flattener.flatten_at(index).unwrap();
                    let e = evaluator
                        .evaluate(index, &choice, &graph, u64::MAX)
                        .unwrap();
                    let compiled = compiled_from_flat_graph(&graph, 15, |name| {
                        Some(evaluator.params.params_for(name))
                    })
                    .unwrap();
                    let searched = match optimize_compiled(&compiled, mode, SearchStrategy::Greedy)
                    {
                        Ok(r) => format!(
                            "{} {} {} {:?}",
                            r.cost.total(),
                            r.evaluated_candidates,
                            r.pruned_candidates,
                            r.feasibility
                                .applications
                                .iter()
                                .map(|a| (a.load_permille, a.feasible))
                                .collect::<Vec<_>>()
                        ),
                        Err(SynthError::Infeasible(m)) => m,
                        Err(other) => panic!("{other}"),
                    };
                    let line = format!(
                        "{index} {} {} {} | {searched}\n",
                        e.cost, e.feasible, e.detail
                    );
                    hasher.update(line.as_bytes());
                    lines += 1;
                }
            }
        }
    }
    assert_eq!(lines, 4288);
    assert_eq!(
        hasher.finish().to_string(),
        "4a9012dd1c627bd0451a9d5cd914a1d1"
    );
}

/// Wraps the partition evaluator and logs, per evaluated variant, whether the
/// drain said it would keep the result — the only case in which the partition
/// evaluator renders a `detail`.
struct Counting {
    inner: PartitionEvaluator,
    calls: Mutex<Vec<(usize, u64, bool)>>,
    rendered: AtomicU64,
}

impl Evaluator for Counting {
    fn lower_bound(&self, choice: &VariantChoice, graph: &SpiGraph) -> u64 {
        self.inner.lower_bound(choice, graph)
    }

    fn evaluate(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
    ) -> spi_explore::Result<Evaluation> {
        self.inner.evaluate(index, choice, graph, incumbent)
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
        let logged = |cost: u64| {
            let kept = keep(cost);
            self.calls.lock().unwrap().push((index, cost, kept));
            kept
        };
        let evaluation = self
            .inner
            .evaluate_spanned(index, choice, graph, incumbent, spans, &logged)?;
        if !evaluation.detail.is_empty() {
            self.rendered.fetch_add(1, Ordering::Relaxed);
        }
        Ok(evaluation)
    }
}

#[test]
fn the_drain_renders_detail_only_for_top_k_entrants() {
    let system = scaling_system(8, 2).unwrap(); // 256 variants, 17 tasks
    let counting = Arc::new(Counting {
        inner: evaluator(SearchStrategy::Greedy, FeasibilityMode::PerApplication, 5),
        calls: Mutex::new(Vec::new()),
        rendered: AtomicU64::new(0),
    });
    let top_k = 3;
    let mut registry = JobRegistry::new(Duration::from_secs(600));
    registry
        .submit(
            &system,
            JobSpec {
                name: "counting".into(),
                shard_count: 1,
                top_k,
                ..JobSpec::default()
            },
            Arc::clone(&counting) as Arc<dyn Evaluator>,
        )
        .unwrap();
    let lease = registry.lease(Instant::now()).unwrap();
    // Batches of 40 variants: each flushed delta starts a fresh top-K.
    let batch = 40;
    let mut flushed = Vec::new();
    drain_lease(
        &lease,
        batch,
        || false,
        |delta, _| {
            flushed.push(delta);
            FlushResponse::Continue
        },
    );

    // Replay the logged results into fresh per-batch reports: a variant's
    // detail was rendered exactly when `record` accepts it.
    let calls = counting.calls.lock().unwrap().clone();
    assert_eq!(calls.len(), 256, "greedy finds every variant feasible");
    let mut accepted = 0u64;
    for (number, chunk) in calls.chunks(batch).enumerate() {
        let mut replay = ShardReport::default();
        for &(index, cost, kept) in chunk {
            replay.record(
                BestVariant {
                    index,
                    cost,
                    choice: VariantChoice::new(),
                    detail: String::new(),
                },
                top_k,
            );
            let entered = replay.top.iter().any(|entry| entry.index == index);
            assert_eq!(kept, entered, "variant {index} in batch {number}");
            accepted += u64::from(entered);
        }
        let keys: Vec<_> = replay.top.iter().map(BestVariant::key).collect();
        let flushed_keys: Vec<_> = flushed[number].top.iter().map(BestVariant::key).collect();
        assert_eq!(keys, flushed_keys, "batch {number}");
    }
    assert_eq!(counting.rendered.load(Ordering::Relaxed), accepted);
    assert!(
        accepted < 256 / 2,
        "most variants never enter a top-{top_k}: {accepted} rendered"
    );

    // Every kept entry carries the full detail `evaluate` reports.
    let flattener = Flattener::new(&system).unwrap();
    for entry in flushed.iter().flat_map(|delta| &delta.top) {
        let (choice, graph) = flattener.flatten_at(entry.index).unwrap();
        let full = counting
            .inner
            .evaluate(entry.index, &choice, &graph, u64::MAX)
            .unwrap();
        assert_eq!(entry.detail, full.detail);
        assert!(!entry.detail.is_empty());
    }
}
