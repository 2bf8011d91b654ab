//! Records the variant-space performance baseline into `BENCH_variant_space.json`.
//!
//! For cross products of 2^4 … 2^20 combinations (k interfaces × 2 clusters), this
//! measures:
//!
//! * **enumeration** — the eager `VariantSpace::choices()` (only while the full
//!   `Vec` fits comfortably in memory, ≤ 2^16) vs the lazy
//!   `VariantSpace::choices_iter()`;
//! * **flattening** — the legacy clone-per-variant `VariantSystem::flatten` vs the
//!   skeleton-reusing `Flattener::flatten_into`, over a fixed 64-combination
//!   strided shard of the space;
//! * **partition search** — the exhaustive enumeration vs the branch-and-bound
//!   search, each on one thread, on synthetic problems of 10/14/18 tasks, with the
//!   candidate accounting (`evaluated`, `pruned`) of both, so the search trajectory
//!   is tracked PR over PR. The two optima are asserted identical before anything is
//!   recorded.
//! * **delta flattening** — a full Gray-order walk of the 2^12 space, rebuilding
//!   every variant from the skeleton (`flatten_into`) vs patching the previous
//!   flat graph (`DeltaFlattener`); the patched graphs are asserted bit-identical
//!   to `flatten_at` on every rank before timing. CI gates the patch path staying
//!   ≥5× faster per variant.
//! * **exploration service** — end-to-end throughput of `spi-explore` (submit →
//!   drain → aggregate) at 1/4/8 workers over a 4096-variant space, against the
//!   single-thread flatten+evaluate sweep it replaces; the service optimum is
//!   asserted equal to the serial sweep's before anything is recorded.
//! * **durable store** — cold submit (fresh store directory, full evaluation
//!   sweep, write-ahead logged) vs warm-cache submit (service restarted on the
//!   same directory, identical job served from the content-addressed result
//!   cache with zero worker evaluations), plus the restart-recovery time
//!   (WAL open + replay + registry rebuild). The warm optimum is asserted
//!   bit-equal to the cold one before anything is recorded; CI gates warm
//!   being ≥10× faster than cold.
//! * **observability overhead** — the same 4-worker service run with an
//!   observability plane enabled vs compiled to its disabled stub,
//!   interleaved pairwise so machine drift hits both sides equally: one
//!   pair toggles the metrics plane (`overhead_pct`), one toggles the span
//!   recorder (`span_overhead_pct`); each reported number is the median
//!   paired ratio. CI gates both at ≤5%. Back-to-back jobs of the same
//!   system then fill the span rings and the decision trace, and the ring
//!   gauges divided by the ringed records give the packed bytes per span
//!   (`span_bytes_per_span`) and per decision (`trace_bytes_per_event`);
//!   CI gates them at ≤24 and ≤16 (as structs they took 88, and 64 plus a
//!   heap string).
//!
//! Run with `cargo run --release -p spi-bench --bin variant_space_baseline`; CI runs
//! it as a regression gate and fails when keys go missing, when branch-and-bound
//! stops beating the exhaustive enumeration at the largest size, or when the
//! 8-worker service drops below the single-thread baseline.

use std::sync::Arc;
use std::time::Instant;

use spi_explore::{
    Evaluator, ExplorationService, GaugeId, JobSpec, PartitionEvaluator, ServiceConfig,
};
use spi_model::SpiGraph;
use spi_synth::partition::{optimize, FeasibilityMode, SearchStrategy};
use spi_variants::{DeltaFlattener, Flattener};
use spi_workloads::{scaling_system, synthetic_problem, SyntheticParams};

/// Median wall-clock nanoseconds of `runs` executions of `f`.
fn median_ns<F: FnMut() -> u64>(runs: usize, mut f: F) -> u128 {
    let mut samples: Vec<u128> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            let checksum = f();
            let elapsed = start.elapsed().as_nanos();
            std::hint::black_box(checksum);
            elapsed
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Row {
    interfaces: usize,
    combinations: usize,
    eager_enumerate_ns: Option<u128>,
    lazy_enumerate_ns: u128,
    flatten_sample: usize,
    clone_per_variant_ns_per_flatten: u128,
    flattener_ns_per_flatten: u128,
}

fn measure(interfaces: usize) -> Row {
    const FLATTEN_SAMPLE: usize = 64;
    const RUNS: usize = 5;

    let system = scaling_system(interfaces, 2).expect("scaling system builds");
    let space = system.variant_space();
    let combinations = space.count();

    // Eager enumeration materializes the cross product: measured only while that is
    // a reasonable allocation (2^16 choices ≈ a few MiB; 2^20 would be ~100× that).
    let eager_enumerate_ns =
        (combinations <= 1 << 16).then(|| median_ns(RUNS, || space.choices().len() as u64));
    let lazy_enumerate_ns = median_ns(RUNS, || {
        space.choices_iter().map(|c| c.len() as u64).sum::<u64>()
    });

    let stride = (combinations / FLATTEN_SAMPLE).max(1);
    let clone_ns = median_ns(RUNS, || {
        space
            .choices_iter()
            .step_by(stride)
            .take(FLATTEN_SAMPLE)
            .map(|choice| system.flatten(&choice).unwrap().process_count() as u64)
            .sum::<u64>()
    });
    let flattener = Flattener::new(&system).expect("flattener builds");
    let flattener_ns = median_ns(RUNS, || {
        let mut scratch = SpiGraph::new("");
        space
            .choices_iter()
            .step_by(stride)
            .take(FLATTEN_SAMPLE)
            .map(|choice| {
                flattener.flatten_into(&choice, &mut scratch).unwrap();
                scratch.process_count() as u64
            })
            .sum::<u64>()
    });

    Row {
        interfaces,
        combinations,
        eager_enumerate_ns,
        lazy_enumerate_ns,
        flatten_sample: FLATTEN_SAMPLE,
        clone_per_variant_ns_per_flatten: clone_ns / FLATTEN_SAMPLE as u128,
        flattener_ns_per_flatten: flattener_ns / FLATTEN_SAMPLE as u128,
    }
}

struct PartitionRow {
    tasks: usize,
    applications: usize,
    masks: u64,
    exhaustive_ns: u128,
    exhaustive_evaluated: u64,
    exhaustive_pruned: u64,
    branch_and_bound_ns: u128,
    branch_and_bound_evaluated: u64,
    branch_and_bound_pruned: u64,
    optimum_total: u64,
}

/// Times the exhaustive and branch-and-bound searches on a synthetic problem of
/// `4 + 2 * interfaces` tasks, asserting that both return the identical optimum.
fn measure_partition(interfaces: usize) -> PartitionRow {
    const RUNS: usize = 3;
    let problem = synthetic_problem(&SyntheticParams {
        common_tasks: 4,
        interfaces,
        clusters_per_interface: 2,
        cluster_depth: 1,
        seed: 42,
    })
    .expect("synthetic problem builds");
    let mode = FeasibilityMode::PerApplication;

    let exhaustive = optimize(&problem, mode, SearchStrategy::Exhaustive).expect("feasible");
    let bnb = optimize(&problem, mode, SearchStrategy::BranchAndBound).expect("feasible");
    assert_eq!(
        exhaustive.mapping, bnb.mapping,
        "branch-and-bound must return the bit-identical optimum"
    );
    assert_eq!(exhaustive.cost, bnb.cost);

    let exhaustive_ns = median_ns(RUNS, || {
        optimize(&problem, mode, SearchStrategy::Exhaustive)
            .unwrap()
            .cost
            .total()
    });
    let branch_and_bound_ns = median_ns(RUNS, || {
        optimize(&problem, mode, SearchStrategy::BranchAndBound)
            .unwrap()
            .cost
            .total()
    });

    PartitionRow {
        tasks: problem.task_count(),
        applications: problem.applications().len(),
        masks: 1u64 << problem.task_count(),
        exhaustive_ns,
        exhaustive_evaluated: exhaustive.evaluated_candidates,
        exhaustive_pruned: exhaustive.pruned_candidates,
        branch_and_bound_ns,
        branch_and_bound_evaluated: bnb.evaluated_candidates,
        branch_and_bound_pruned: bnb.pruned_candidates,
        optimum_total: exhaustive.cost.total(),
    }
}

struct ExplorationRow {
    workers: usize,
    service_ns: u128,
    throughput_per_s: f64,
}

struct ExplorationSection {
    interfaces: usize,
    variants: usize,
    /// Hardware threads of the recording machine: the CI gate only demands
    /// that 8 workers beat the serial sweep where parallelism exists to
    /// exploit (on a 1-CPU box the pool can at best tie, minus overhead).
    available_parallelism: usize,
    serial_flatten_eval_ns: u128,
    rows: Vec<ExplorationRow>,
}

/// Times the exploration service against the single-thread flatten+evaluate
/// sweep it replaces: same space, same `PartitionEvaluator`, so the gap is the
/// service machinery plus (at >1 worker) the parallel speedup. CI gates on
/// the 8-worker service staying at least as fast as the serial sweep.
fn measure_exploration(interfaces: usize) -> ExplorationSection {
    let system = scaling_system(interfaces, 2).expect("scaling system builds");
    let evaluator = PartitionEvaluator::default();
    let variants = system.variant_space().count();

    // Serial baseline: `flatten_all`-style enumeration (shared Flattener, the
    // fast path) plus the same per-variant evaluation, one thread, no service.
    let flattener = Flattener::new(&system).expect("flattener builds");
    let serial_started = Instant::now();
    let mut serial_best = u64::MAX;
    let mut scratch = SpiGraph::new("");
    for choice in flattener.space().choices_iter() {
        flattener
            .flatten_into(&choice, &mut scratch)
            .expect("flatten succeeds");
        let evaluation = evaluator
            .evaluate(0, &choice, &scratch, serial_best)
            .expect("evaluation succeeds");
        if evaluation.feasible {
            serial_best = serial_best.min(evaluation.cost);
        }
    }
    let serial_flatten_eval_ns = serial_started.elapsed().as_nanos();

    let mut rows = Vec::new();
    for workers in [1usize, 4, 8] {
        let service = ExplorationService::start(ServiceConfig::with_workers(workers));
        let started = Instant::now();
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: format!("baseline-{workers}w"),
                    shard_count: workers * 4,
                    top_k: 8,
                    ..JobSpec::default()
                },
                Arc::new(evaluator.clone()),
            )
            .expect("job submits");
        let status = service.wait(job).expect("job completes");
        let service_ns = started.elapsed().as_nanos();
        assert_eq!(
            status.report.accounted(),
            variants as u64,
            "service must account every variant"
        );
        assert_eq!(
            status.best().expect("a feasible optimum exists").cost,
            serial_best,
            "service optimum must match the serial sweep"
        );
        rows.push(ExplorationRow {
            workers,
            service_ns,
            throughput_per_s: variants as f64 / (service_ns as f64 / 1e9),
        });
    }

    ExplorationSection {
        interfaces,
        variants,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        serial_flatten_eval_ns,
        rows,
    }
}

struct GraphSection {
    processes: usize,
    channels: usize,
    btreemap_clone_ns: u128,
    slab_clone_ns: u128,
    clone_from_ns: u128,
    merge_disjoint_ns: u128,
    flatten_at_ns: u128,
}

/// The seed generation's storage layout, faithfully reconstructed for the
/// clone-cost baseline: `BTreeMap` node/edge tables, heap-`String` node and
/// mode names, `BTreeMap` per-mode rate tables — everything this PR flattened
/// into slabs, `Sym`s and sorted `Vec`s. Holding the *same model content* in
/// both layouts isolates the storage change itself.
#[allow(dead_code)] // Fields exist to be *cloned* (the cost under measurement), not read.
mod seed_layout {
    use std::collections::{BTreeMap, HashMap};

    use spi_model::{
        BuildSymHasher, ChannelId, ChannelKind, Interval, ModeId, Predicate, ProcessId,
        ProductionSpec, SpiGraph, Sym,
    };

    #[derive(Clone)]
    pub struct SeedMode {
        pub name: String,
        pub latency: Interval,
        pub consumption: BTreeMap<ChannelId, Interval>,
        pub production: BTreeMap<ChannelId, ProductionSpec>,
    }

    /// The seed's activation rule: a heap-`String` name (now a `Sym`).
    #[derive(Clone)]
    pub struct SeedRule {
        pub name: String,
        pub predicate: Predicate,
        pub mode: ModeId,
    }

    #[derive(Clone)]
    pub struct SeedProcess {
        pub name: String,
        pub modes: Vec<SeedMode>,
        pub activation: Vec<SeedRule>,
        pub is_virtual: bool,
    }

    #[derive(Clone)]
    pub struct SeedChannel {
        pub name: String,
        pub kind: ChannelKind,
        pub capacity: Option<usize>,
    }

    #[derive(Clone)]
    pub struct SeedGraph {
        pub processes: BTreeMap<ProcessId, SeedProcess>,
        pub channels: BTreeMap<ChannelId, SeedChannel>,
        pub writers: BTreeMap<ChannelId, ProcessId>,
        pub readers: BTreeMap<ChannelId, ProcessId>,
        pub process_names: HashMap<Sym, ProcessId, BuildSymHasher>,
        pub channel_names: HashMap<Sym, ChannelId, BuildSymHasher>,
    }

    pub fn of(graph: &SpiGraph) -> SeedGraph {
        SeedGraph {
            processes: graph
                .processes()
                .map(|p| {
                    (
                        p.id(),
                        SeedProcess {
                            name: p.name().to_string(),
                            modes: p
                                .modes()
                                .iter()
                                .map(|m| SeedMode {
                                    name: m.name().to_string(),
                                    latency: m.latency(),
                                    consumption: m.consumptions().collect(),
                                    production: m
                                        .productions()
                                        .map(|(c, s)| (c, s.clone()))
                                        .collect(),
                                })
                                .collect(),
                            activation: p
                                .activation()
                                .rules()
                                .iter()
                                .map(|rule| SeedRule {
                                    name: rule.name.as_str().to_string(),
                                    predicate: rule.predicate.clone(),
                                    mode: rule.mode,
                                })
                                .collect(),
                            is_virtual: p.is_virtual(),
                        },
                    )
                })
                .collect(),
            channels: graph
                .channels()
                .map(|c| {
                    (
                        c.id(),
                        SeedChannel {
                            name: c.name().to_string(),
                            kind: c.kind(),
                            capacity: c.capacity(),
                        },
                    )
                })
                .collect(),
            writers: graph
                .channel_ids()
                .into_iter()
                .filter_map(|c| graph.writer_of(c).map(|p| (c, p)))
                .collect(),
            readers: graph
                .channel_ids()
                .into_iter()
                .filter_map(|c| graph.reader_of(c).map(|p| (c, p)))
                .collect(),
            process_names: graph
                .processes()
                .map(|p| (Sym::intern(p.name()), p.id()))
                .collect(),
            channel_names: graph
                .channels()
                .map(|c| (Sym::intern(c.name()), c.id()))
                .collect(),
        }
    }
}

/// Times the graph-storage primitives the Flattener pays per enumerated
/// variant — skeleton `clone`/`clone_from` and the `merge_disjoint` splice —
/// plus the composite `flatten_at` service entry point, and compares the slab
/// `clone` against the same model content held in the seed's storage layout
/// (see [`seed_layout`]). CI gates the slab clone staying ≥1.5× faster than
/// that baseline.
fn measure_graph(interfaces: usize) -> GraphSection {
    const RUNS: usize = 9;
    const SAMPLES: usize = 512;

    let system = scaling_system(interfaces, 2).expect("scaling system builds");
    let flattener = Flattener::new(&system).expect("flattener builds");
    let (_, graph) = flattener.flatten_at(0).expect("variant 0 flattens");

    // The two clone costs are measured **paired**: each round times the seed
    // layout and the slab back to back and records that round's ratio. CI
    // gates on the ratio, and pairing makes it robust against frequency
    // scaling / CPU-steal drift on shared runners — whatever slows one side
    // of a round slows the other, where two independently-taken medians
    // could land in differently-loaded moments.
    let seed = seed_layout::of(&graph);
    let mut rounds: Vec<(u128, u128)> = (0..RUNS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..SAMPLES {
                std::hint::black_box(seed.clone());
            }
            let seed_ns = started.elapsed().as_nanos() / SAMPLES as u128;
            let started = Instant::now();
            for _ in 0..SAMPLES {
                std::hint::black_box(graph.clone());
            }
            let slab_ns = started.elapsed().as_nanos() / SAMPLES as u128;
            (seed_ns, slab_ns)
        })
        .collect();
    rounds.sort_by(|a, b| {
        let ratio_a = a.0 as f64 / a.1.max(1) as f64;
        let ratio_b = b.0 as f64 / b.1.max(1) as f64;
        ratio_a.total_cmp(&ratio_b)
    });
    let (btreemap_clone_ns, slab_clone_ns) = rounds[rounds.len() / 2];

    let skeleton = flattener.skeleton();
    let mut scratch = SpiGraph::new("");
    let clone_from_ns = median_ns(RUNS, || {
        let mut checksum = 0u64;
        for _ in 0..SAMPLES {
            scratch.clone_from(skeleton);
            checksum += scratch.process_count() as u64;
        }
        checksum
    }) / SAMPLES as u128;

    // A name-disjoint guest (the role a pre-renamed cluster plays), spliced
    // into a fresh skeleton copy per iteration; only the splice is timed.
    let mut guest = SpiGraph::new("guest");
    guest
        .merge(&graph, "bench-guest/")
        .expect("prefixed names cannot collide");
    let mut merge_samples: Vec<u128> = (0..RUNS)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..SAMPLES {
                scratch.clone_from(skeleton);
                let started = Instant::now();
                let map = scratch.merge_disjoint(&guest);
                total += started.elapsed().as_nanos();
                std::hint::black_box(map.processes.len());
            }
            total / SAMPLES as u128
        })
        .collect();
    merge_samples.sort_unstable();
    let merge_disjoint_ns = merge_samples[merge_samples.len() / 2];

    let combinations = flattener.space().count();
    let stride = (combinations / 64).max(1);
    let flatten_at_ns = median_ns(RUNS, || {
        (0..combinations)
            .step_by(stride)
            .take(64)
            .map(|index| {
                let (_, flat) = flattener.flatten_at(index).expect("in-range index");
                flat.process_count() as u64
            })
            .sum::<u64>()
    }) / 64;

    GraphSection {
        processes: graph.process_count(),
        channels: graph.channel_count(),
        btreemap_clone_ns,
        slab_clone_ns,
        clone_from_ns,
        merge_disjoint_ns,
        flatten_at_ns,
    }
}

struct DeltaSection {
    interfaces: usize,
    combinations: usize,
    full_ns_per_flatten: u128,
    delta_ns_per_flatten: u128,
    delta_speedup: f64,
}

/// Times a **full Gray-order walk** of the variant space two ways: rebuilding
/// every variant from the skeleton with `flatten_into` (the pre-delta hot
/// path) vs patching the previous graph with `DeltaFlattener` (truncate to
/// the changed axis's watermark, re-splice the suffix). Same visit order,
/// same graphs — before anything is timed, every rank's patched graph is
/// asserted equal to a from-scratch `flatten_at`. CI gates `delta_speedup`.
fn measure_delta(interfaces: usize) -> DeltaSection {
    const RUNS: usize = 5;

    let system = scaling_system(interfaces, 2).expect("scaling system builds");
    let flattener = Flattener::new(&system).expect("flattener builds");
    let space = flattener.space();
    let combinations = space.count();

    // Untimed verification pass: bit-identity on every rank of the walk.
    {
        let mut delta = DeltaFlattener::new(&flattener);
        for rank in 0..combinations {
            let (index, patched) = delta.flatten_gray_rank(rank).expect("rank in range");
            let (_, full) = flattener.flatten_at(index).expect("index in range");
            assert_eq!(
                patched, &full,
                "delta flatten must be bit-identical at rank {rank}"
            );
        }
    }

    let full_ns = median_ns(RUNS, || {
        let mut scratch = SpiGraph::new("");
        let mut checksum = 0u64;
        for (index, _changed, choice) in space.choices_delta_iter() {
            flattener
                .flatten_into(&choice, &mut scratch)
                .expect("flatten succeeds");
            checksum += scratch.process_count() as u64 + index as u64;
        }
        checksum
    }) / combinations as u128;

    let delta_ns = median_ns(RUNS, || {
        let mut delta = DeltaFlattener::new(&flattener);
        let mut checksum = 0u64;
        for rank in 0..combinations {
            let (index, graph) = delta.flatten_gray_rank(rank).expect("rank in range");
            checksum += graph.process_count() as u64 + index as u64;
        }
        checksum
    }) / combinations as u128;

    DeltaSection {
        interfaces,
        combinations,
        full_ns_per_flatten: full_ns,
        delta_ns_per_flatten: delta_ns,
        delta_speedup: full_ns as f64 / delta_ns.max(1) as f64,
    }
}

struct StoreSection {
    variants: usize,
    cold_submit_ns: u128,
    warm_submit_ns: u128,
    recovery_ns: u128,
    cache_entries: usize,
    restored_jobs: usize,
}

/// Times the durable-store paths: a cold submit (fresh directory, full sweep,
/// WAL on), a restart (recovery time), and a warm submit (identical job →
/// cache hit, no worker evaluations). Panics if the warm result is not the
/// bit-identical optimum of the cold run or if any evaluation ran warm.
fn measure_store(interfaces: usize) -> StoreSection {
    use spi_model::json::JsonValue;

    let dir = std::env::temp_dir().join(format!(
        "spi-bench-store-{}-{interfaces}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let system = scaling_system(interfaces, 2).expect("scaling system builds");
    let variants = system.variant_space().count();
    let recipe = || {
        JsonValue::parse(&format!(
            r#"{{"system":{{"scaling":{{"interfaces":{interfaces},"clusters":2}}}}}}"#
        ))
        .expect("recipe parses")
    };
    let spec = || JobSpec {
        name: "store-baseline".to_string(),
        shard_count: 16,
        top_k: 8,
        ..JobSpec::default()
    };
    let durable_config = || ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::with_workers(4)
    };

    // Cold: fresh directory, every variant evaluated, all of it WAL-logged.
    let cold_best;
    let cold_submit_ns;
    {
        let service = ExplorationService::try_start(durable_config()).expect("store opens");
        let started = Instant::now();
        let job = service
            .submit_with_recipe(
                &system,
                spec(),
                Arc::new(PartitionEvaluator::default()),
                Some(recipe()),
            )
            .expect("cold job submits");
        let status = service.wait(job).expect("cold job completes");
        cold_submit_ns = started.elapsed().as_nanos();
        assert!(!status.cache_hit, "a fresh directory cannot hit the cache");
        assert_eq!(status.report.accounted(), variants as u64);
        cold_best = status.best().expect("feasible optimum").clone();
    }

    // Restart: recovery replays the WAL and restores the result cache.
    let recovery_started = Instant::now();
    let service = ExplorationService::try_start(durable_config()).expect("store reopens");
    let recovery_ns = recovery_started.elapsed().as_nanos();
    let restored_jobs = service.restored().jobs;
    let cache_entries = service.restored().cache_entries;

    // Warm: the identical submission is served from the cache.
    let started = Instant::now();
    let job = service
        .submit_with_recipe(
            &system,
            spec(),
            Arc::new(PartitionEvaluator::default()),
            Some(recipe()),
        )
        .expect("warm job submits");
    let status = service.wait(job).expect("warm job completes");
    let warm_submit_ns = started.elapsed().as_nanos();
    assert!(
        status.cache_hit,
        "identical resubmission must hit the cache"
    );
    assert_eq!(
        status.report.evaluated, 0,
        "a cache hit must not touch the worker pool"
    );
    let warm_best = status.best().expect("cached optimum served");
    assert_eq!(
        (warm_best.index, warm_best.cost, &warm_best.detail),
        (cold_best.index, cold_best.cost, &cold_best.detail),
        "cached optimum must be bit-identical to the cold run"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    StoreSection {
        variants,
        cold_submit_ns,
        warm_submit_ns,
        recovery_ns,
        cache_entries,
        restored_jobs,
    }
}

struct ObsSection {
    interfaces: usize,
    variants: usize,
    rounds: usize,
    instrumented_ns: u128,
    stubbed_ns: u128,
    overhead_pct: f64,
    span_instrumented_ns: u128,
    span_stubbed_ns: u128,
    span_overhead_pct: f64,
    rings: RingSection,
}

struct RingSection {
    ringed_spans: usize,
    span_ring_bytes: u64,
    ringed_events: usize,
    trace_ring_bytes: u64,
}

/// Rings are measured once they hold this many records per ring, so the one
/// partly filled chunk of each weighs little.
const RING_FILL: usize = 10_000;

/// Runs back-to-back jobs of `system` on a 4-worker service until every
/// worker's span ring holds [`RING_FILL`] spans on average and the decision
/// trace [`RING_FILL`] events, then reads the `spans.ring_bytes` and
/// `trace.ring_bytes` gauges against the records the rings hold.
fn measure_rings(
    system: &spi_variants::VariantSystem,
    evaluator: &PartitionEvaluator,
) -> RingSection {
    const WORKERS: usize = 4;
    let service = ExplorationService::start(ServiceConfig {
        workers: WORKERS,
        watchdog_interval: None,
        ..ServiceConfig::default()
    });
    loop {
        let job = service
            .submit(
                system,
                JobSpec {
                    name: "ring-fill".to_string(),
                    shard_count: 16,
                    top_k: 8,
                    use_cache: false,
                    ..JobSpec::default()
                },
                Arc::new(evaluator.clone()),
            )
            .expect("job submits");
        service.wait(job).expect("job completes");
        let ringed_spans = service.span_recorder().spans().len();
        let ringed_events = service.read_trace_since(0).events.len();
        if ringed_spans >= WORKERS * RING_FILL && ringed_events >= RING_FILL {
            service.metrics_snapshot();
            let metrics = service.metrics();
            return RingSection {
                ringed_spans,
                span_ring_bytes: metrics.gauge(GaugeId::SpansRingBytes),
                ringed_events,
                trace_ring_bytes: metrics.gauge(GaugeId::TraceRingBytes),
            };
        }
    }
}

/// Times identical 4-worker service runs with an observability plane
/// enabled vs its disabled stub (every record site behind a single `false`
/// branch): the metrics pair toggles `metrics_enabled` with spans off on
/// both sides (`span_capacity` 0), the span pair toggles `span_capacity`
/// between 0 and its default with metrics on, so
/// each overhead is attributed to exactly one plane. Rounds are paired and
/// interleaved so frequency scaling and cache state drift hit both sides
/// equally; each overhead is the **median of the per-round ratios**
/// (robust against per-round noise), clamped at zero.
///
/// A run takes ~12 ms, so a single round is at the mercy of one scheduling
/// hiccup. On a 2-vCPU VM, 7 rounds read anywhere from -14% to +17% for
/// planes that cost 0–3%; the median ratio of 101 rounds still read the
/// span plane at 5.3% once in 15 runs, while 201 rounds (~5 s per plane)
/// kept it within 1.0–2.9% over 10 runs.
fn measure_obs(interfaces: usize) -> ObsSection {
    let system = scaling_system(interfaces, 2).expect("scaling system builds");
    let variants = system.variant_space().count();
    let evaluator = PartitionEvaluator::default();
    const ROUNDS: usize = 201;

    let spans_on = ServiceConfig::default().span_capacity;
    let run = |metrics_enabled: bool, span_capacity: usize| -> u128 {
        let service = ExplorationService::start(ServiceConfig {
            workers: 4,
            metrics_enabled,
            span_capacity,
            watchdog_interval: None,
            ..ServiceConfig::default()
        });
        let started = Instant::now();
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: "obs-overhead".to_string(),
                    shard_count: 16,
                    top_k: 8,
                    use_cache: false,
                    ..JobSpec::default()
                },
                Arc::new(evaluator.clone()),
            )
            .expect("job submits");
        let status = service.wait(job).expect("job completes");
        assert_eq!(
            status.report.accounted(),
            variants as u64,
            "both sides must do identical work"
        );
        started.elapsed().as_nanos()
    };

    let paired = |on: &dyn Fn() -> u128, off: &dyn Fn() -> u128| -> (u128, u128, f64) {
        // One unrecorded warm-up pair populates caches and spawns threads.
        on();
        off();
        let mut instrumented = Vec::new();
        let mut stubbed = Vec::new();
        let mut ratios = Vec::new();
        for _ in 0..ROUNDS {
            let (with, without) = (on(), off());
            instrumented.push(with);
            stubbed.push(without);
            ratios.push(with as f64 / without.max(1) as f64);
        }
        instrumented.sort_unstable();
        stubbed.sort_unstable();
        ratios.sort_unstable_by(f64::total_cmp);
        let pct = (ratios[ROUNDS / 2] - 1.0).max(0.0) * 100.0;
        (instrumented[ROUNDS / 2], stubbed[ROUNDS / 2], pct)
    };

    let (instrumented_ns, stubbed_ns, overhead_pct) = paired(&|| run(true, 0), &|| run(false, 0));
    let (span_instrumented_ns, span_stubbed_ns, span_overhead_pct) =
        paired(&|| run(true, spans_on), &|| run(true, 0));
    let rings = measure_rings(&system, &evaluator);
    ObsSection {
        interfaces,
        variants,
        rounds: ROUNDS,
        instrumented_ns,
        stubbed_ns,
        overhead_pct,
        span_instrumented_ns,
        span_stubbed_ns,
        span_overhead_pct,
        rings,
    }
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_variant_space.json".to_string());

    let mut rows = Vec::new();
    for interfaces in [4usize, 8, 12, 16, 20] {
        eprintln!("measuring {interfaces} interfaces (2^{interfaces} combinations)...");
        rows.push(measure(interfaces));
    }

    let mut partition_rows = Vec::new();
    for interfaces in [3usize, 5, 7] {
        let tasks = 4 + 2 * interfaces;
        eprintln!("measuring partition search at {tasks} tasks (2^{tasks} masks)...");
        partition_rows.push(measure_partition(interfaces));
    }

    eprintln!("measuring graph storage: slab vs BTreeMap clone, merge_disjoint, flatten_at...");
    let graph = measure_graph(12);

    eprintln!("measuring delta flattening: full Gray walk, rebuild vs patch...");
    let delta = measure_delta(12);

    eprintln!("measuring exploration service throughput at 1/4/8 workers...");
    let exploration = measure_exploration(12);

    eprintln!("measuring durable store: cold vs warm-cache submit, recovery...");
    let store = measure_store(8);

    eprintln!("measuring observability overhead: metrics plane, then span recorder, on vs off...");
    let obs = measure_obs(12);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"variant_space\",\n");
    json.push_str("  \"scenario\": \"scaling_system(k, 2): k interfaces x 2 clusters\",\n");
    json.push_str(&format!(
        "  \"profile\": \"{}\",\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    json.push_str("  \"units\": \"nanoseconds (median of 5 runs)\",\n");
    json.push_str("  \"results\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let speedup = row.clone_per_variant_ns_per_flatten as f64
            / (row.flattener_ns_per_flatten.max(1)) as f64;
        json.push_str("    {\n");
        json.push_str(&format!("      \"interfaces\": {},\n", row.interfaces));
        json.push_str(&format!("      \"combinations\": {},\n", row.combinations));
        match row.eager_enumerate_ns {
            Some(ns) => json.push_str(&format!("      \"eager_enumerate_ns\": {ns},\n")),
            None => json.push_str("      \"eager_enumerate_ns\": null,\n"),
        }
        json.push_str(&format!(
            "      \"lazy_enumerate_ns\": {},\n",
            row.lazy_enumerate_ns
        ));
        json.push_str(&format!(
            "      \"flatten_sample\": {},\n",
            row.flatten_sample
        ));
        json.push_str(&format!(
            "      \"clone_per_variant_ns_per_flatten\": {},\n",
            row.clone_per_variant_ns_per_flatten
        ));
        json.push_str(&format!(
            "      \"flattener_ns_per_flatten\": {},\n",
            row.flattener_ns_per_flatten
        ));
        json.push_str(&format!("      \"flatten_speedup\": {speedup:.2}\n"));
        json.push_str(if index + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"partition\": [\n");
    for (index, row) in partition_rows.iter().enumerate() {
        let speedup = row.exhaustive_ns as f64 / (row.branch_and_bound_ns.max(1)) as f64;
        json.push_str("    {\n");
        json.push_str(&format!("      \"tasks\": {},\n", row.tasks));
        json.push_str(&format!("      \"applications\": {},\n", row.applications));
        json.push_str(&format!("      \"masks\": {},\n", row.masks));
        json.push_str(&format!(
            "      \"exhaustive_ns\": {},\n",
            row.exhaustive_ns
        ));
        json.push_str(&format!(
            "      \"exhaustive_evaluated\": {},\n",
            row.exhaustive_evaluated
        ));
        json.push_str(&format!(
            "      \"exhaustive_pruned\": {},\n",
            row.exhaustive_pruned
        ));
        json.push_str(&format!(
            "      \"branch_and_bound_ns\": {},\n",
            row.branch_and_bound_ns
        ));
        json.push_str(&format!(
            "      \"branch_and_bound_evaluated\": {},\n",
            row.branch_and_bound_evaluated
        ));
        json.push_str(&format!(
            "      \"branch_and_bound_pruned\": {},\n",
            row.branch_and_bound_pruned
        ));
        json.push_str(&format!("      \"search_speedup\": {speedup:.2},\n"));
        json.push_str(&format!("      \"optimum_total\": {}\n", row.optimum_total));
        json.push_str(if index + 1 == partition_rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"graph\": {\n");
    json.push_str(
        "    \"scenario\": \"scaling_system(12, 2) flattened graph: slab storage vs the seed BTreeMap layout\",\n",
    );
    json.push_str(&format!("    \"processes\": {},\n", graph.processes));
    json.push_str(&format!("    \"channels\": {},\n", graph.channels));
    json.push_str(&format!(
        "    \"btreemap_clone_ns\": {},\n",
        graph.btreemap_clone_ns
    ));
    json.push_str(&format!(
        "    \"slab_clone_ns\": {},\n",
        graph.slab_clone_ns
    ));
    json.push_str(&format!(
        "    \"clone_speedup\": {:.2},\n",
        graph.btreemap_clone_ns as f64 / graph.slab_clone_ns.max(1) as f64
    ));
    json.push_str(&format!(
        "    \"clone_from_ns\": {},\n",
        graph.clone_from_ns
    ));
    json.push_str(&format!(
        "    \"merge_disjoint_ns\": {},\n",
        graph.merge_disjoint_ns
    ));
    json.push_str(&format!("    \"flatten_at_ns\": {}\n", graph.flatten_at_ns));
    json.push_str("  },\n");
    json.push_str("  \"delta\": {\n");
    json.push_str(&format!(
        "    \"scenario\": \"scaling_system({}, 2) full Gray-order walk: flatten_into rebuild vs DeltaFlattener patch\",\n",
        delta.interfaces
    ));
    json.push_str(&format!("    \"interfaces\": {},\n", delta.interfaces));
    json.push_str(&format!("    \"combinations\": {},\n", delta.combinations));
    json.push_str(&format!(
        "    \"full_ns_per_flatten\": {},\n",
        delta.full_ns_per_flatten
    ));
    json.push_str(&format!(
        "    \"delta_ns_per_flatten\": {},\n",
        delta.delta_ns_per_flatten
    ));
    json.push_str(&format!(
        "    \"delta_speedup\": {:.2}\n",
        delta.delta_speedup
    ));
    json.push_str("  },\n");
    json.push_str("  \"exploration\": {\n");
    json.push_str(&format!(
        "    \"scenario\": \"scaling_system({}, 2) through PartitionEvaluator (hashed params, auto strategy)\",\n",
        exploration.interfaces
    ));
    json.push_str(&format!("    \"variants\": {},\n", exploration.variants));
    json.push_str(&format!(
        "    \"available_parallelism\": {},\n",
        exploration.available_parallelism
    ));
    json.push_str(&format!(
        "    \"serial_flatten_eval_ns\": {},\n",
        exploration.serial_flatten_eval_ns
    ));
    json.push_str("    \"workers\": [\n");
    for (index, row) in exploration.rows.iter().enumerate() {
        let speedup = exploration.serial_flatten_eval_ns as f64 / (row.service_ns.max(1)) as f64;
        json.push_str("      {\n");
        json.push_str(&format!("        \"workers\": {},\n", row.workers));
        json.push_str(&format!("        \"service_ns\": {},\n", row.service_ns));
        json.push_str(&format!(
            "        \"throughput_per_s\": {:.0},\n",
            row.throughput_per_s
        ));
        json.push_str(&format!("        \"speedup_vs_serial\": {speedup:.2}\n"));
        json.push_str(if index + 1 == exploration.rows.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"store\": {\n");
    json.push_str(
        "    \"scenario\": \"scaling_system(8, 2) durable submit: cold sweep vs warm cache hit\",\n",
    );
    json.push_str(&format!("    \"variants\": {},\n", store.variants));
    json.push_str(&format!(
        "    \"cold_submit_ns\": {},\n",
        store.cold_submit_ns
    ));
    json.push_str(&format!(
        "    \"warm_submit_ns\": {},\n",
        store.warm_submit_ns
    ));
    json.push_str(&format!(
        "    \"warm_speedup\": {:.2},\n",
        store.cold_submit_ns as f64 / store.warm_submit_ns.max(1) as f64
    ));
    json.push_str(&format!("    \"recovery_ns\": {},\n", store.recovery_ns));
    json.push_str(&format!(
        "    \"cache_entries\": {},\n",
        store.cache_entries
    ));
    json.push_str(&format!("    \"restored_jobs\": {}\n", store.restored_jobs));
    json.push_str("  },\n");
    json.push_str("  \"obs\": {\n");
    json.push_str(&format!(
        "    \"scenario\": \"scaling_system({}, 2), 4 workers: metrics plane then span recorder enabled vs disabled, median ratio over {} paired rounds each\",\n",
        obs.interfaces, obs.rounds
    ));
    json.push_str(&format!("    \"variants\": {},\n", obs.variants));
    json.push_str(&format!(
        "    \"instrumented_ns\": {},\n",
        obs.instrumented_ns
    ));
    json.push_str(&format!("    \"stubbed_ns\": {},\n", obs.stubbed_ns));
    json.push_str(&format!("    \"overhead_pct\": {:.2},\n", obs.overhead_pct));
    json.push_str(&format!(
        "    \"span_instrumented_ns\": {},\n",
        obs.span_instrumented_ns
    ));
    json.push_str(&format!(
        "    \"span_stubbed_ns\": {},\n",
        obs.span_stubbed_ns
    ));
    json.push_str(&format!(
        "    \"span_overhead_pct\": {:.2},\n",
        obs.span_overhead_pct
    ));
    let rings = &obs.rings;
    json.push_str(&format!("    \"ringed_spans\": {},\n", rings.ringed_spans));
    json.push_str(&format!(
        "    \"span_ring_bytes\": {},\n",
        rings.span_ring_bytes
    ));
    json.push_str(&format!(
        "    \"span_bytes_per_span\": {:.2},\n",
        rings.span_ring_bytes as f64 / rings.ringed_spans as f64
    ));
    json.push_str(&format!(
        "    \"ringed_events\": {},\n",
        rings.ringed_events
    ));
    json.push_str(&format!(
        "    \"trace_ring_bytes\": {},\n",
        rings.trace_ring_bytes
    ));
    json.push_str(&format!(
        "    \"trace_bytes_per_event\": {:.2}\n",
        rings.trace_ring_bytes as f64 / rings.ringed_events as f64
    ));
    json.push_str("  }\n}\n");

    std::fs::write(&output, &json).expect("baseline file is writable");
    println!("{json}");
    eprintln!("wrote {output}");
}
