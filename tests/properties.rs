//! Property-style tests over the core data structures and the paper's structural
//! invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest` these
//! tests drive the same properties through a deterministic case generator: a
//! seeded LCG (`Cases`) produces a few hundred pseudo-random inputs per property,
//! which keeps failures reproducible without any dependency.

use spi_repro::model::{ChannelKind, GraphBuilder, Interval, SpiGraph};
use spi_repro::synth::compiled::{CompiledProblem, IncrementalEvaluator, TaskId};
use spi_repro::synth::partition::{
    optimize, optimize_serial_reference, FeasibilityMode, SearchStrategy,
};
use spi_repro::synth::{
    cost, design_time, schedule, strategy, ApplicationSpec, Implementation, SynthesisProblem,
    TaskSpec,
};
use spi_repro::variants::{
    Cluster, Flattener, Interface, VariantChoice, VariantSpace, VariantSystem, VariantType,
};

/// Deterministic pseudo-random case generator — the shared workspace LCG.
use spi_testutil::Lcg as Cases;

/// Domain-specific draws layered over the shared generator.
trait CaseExt {
    fn interval(&mut self) -> Interval;
}

impl CaseExt for Cases {
    fn interval(&mut self) -> Interval {
        let a = self.below(1_000);
        let b = self.below(1_000);
        Interval::new(a.min(b), a.max(b)).unwrap()
    }
}

// --- interval algebra ------------------------------------------------------------

#[test]
fn interval_hull_and_intersection_are_bounds() {
    let mut cases = Cases::new(1);
    for _ in 0..256 {
        let a = cases.interval();
        let b = cases.interval();
        let hull = a.hull(b);
        assert!(hull.contains_interval(a));
        assert!(hull.contains_interval(b));
        if let Some(meet) = a.intersect(b) {
            assert!(a.contains_interval(meet));
            assert!(b.contains_interval(meet));
            assert!(hull.contains_interval(meet));
        }
    }
}

#[test]
fn interval_addition_is_commutative_and_monotone() {
    let mut cases = Cases::new(2);
    for _ in 0..256 {
        let a = cases.interval();
        let b = cases.interval();
        let sum = a.add(b);
        assert_eq!(sum, b.add(a));
        assert!(sum.lo() >= a.lo() && sum.lo() >= b.lo());
        assert!(sum.hi() >= a.hi() && sum.hi() >= b.hi());
    }
}

// --- lazy enumeration vs the eager cross product ---------------------------------

/// Builds a variant space with the given cluster counts (axis `i` is named
/// `propspace{tag}_if{i}` to keep interned names collision-free across tests).
fn space_with_axes(tag: &str, clusters_per_axis: &[usize]) -> VariantSpace {
    VariantSpace::new(
        clusters_per_axis
            .iter()
            .enumerate()
            .map(|(axis, &clusters)| {
                (
                    format!("propspace{tag}_if{axis}"),
                    (0..clusters).map(|c| format!("v{c}")).collect(),
                )
            })
            .collect(),
    )
}

#[test]
fn choices_iter_agrees_with_eager_choices_in_count_order_and_content() {
    let mut cases = Cases::new(3);
    for round in 0..64 {
        let axis_count = 1 + cases.below(4) as usize;
        let clusters: Vec<usize> = (0..axis_count)
            .map(|_| 1 + cases.below(4) as usize)
            .collect();
        let space = space_with_axes(&format!("agree{round}"), &clusters);

        let eager = space.choices();
        let lazy: Vec<VariantChoice> = space.choices_iter().collect();
        assert_eq!(
            eager.len(),
            space.count(),
            "count mismatch for {clusters:?}"
        );
        assert_eq!(eager, lazy, "order/content mismatch for {clusters:?}");
        assert_eq!(space.choices_iter().len(), eager.len());
    }
}

#[test]
fn nth_matches_indexing_into_the_eager_enumeration() {
    let space = space_with_axes("nth", &[3, 2, 4]);
    let eager = space.choices();
    for (index, expected) in eager.iter().enumerate() {
        assert_eq!(space.choices_iter().nth(index).as_ref(), Some(expected));
        assert_eq!(space.choice_at(index).as_ref(), Some(expected));
    }
    assert_eq!(space.choices_iter().nth(space.count()), None);
    assert_eq!(space.choice_at(space.count()), None);
}

#[test]
fn strided_shards_cover_the_space_exactly_once() {
    let mut cases = Cases::new(4);
    for round in 0..32 {
        let clusters: Vec<usize> = (0..1 + cases.below(3) as usize)
            .map(|_| 1 + cases.below(4) as usize)
            .collect();
        let space = space_with_axes(&format!("shard{round}"), &clusters);
        let shard_count = 1 + cases.below(5) as usize;

        let mut recombined: Vec<VariantChoice> = Vec::new();
        for shard in 0..shard_count {
            recombined.extend(space.choices_iter().skip(shard).step_by(shard_count));
        }
        recombined.sort();
        let mut expected = space.choices();
        expected.sort();
        assert_eq!(
            recombined, expected,
            "shards {shard_count} over {clusters:?} must partition the space"
        );
    }
}

#[test]
fn empty_and_collapsed_spaces_enumerate_nothing() {
    // No axes at all.
    let empty = VariantSpace::default();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.choices_iter().count(), 0);
    assert!(empty.choices().is_empty());

    // An axis without clusters collapses the product to zero.
    let collapsed = space_with_axes("collapsed", &[2, 0, 3]);
    assert_eq!(collapsed.count(), 0);
    assert_eq!(collapsed.choices_iter().len(), 0);
    assert_eq!(collapsed.choices_iter().next(), None);
    assert!(collapsed.choices().is_empty());
}

// --- variant systems: space, flattening, Flattener -------------------------------

#[test]
fn variant_space_and_flattening_are_consistent() {
    let mut cases = Cases::new(5);
    for round in 0..24 {
        let interface_count = 1 + cases.below(2) as usize;
        let clusters_per_interface: Vec<usize> = (0..interface_count)
            .map(|_| 1 + cases.below(3) as usize)
            .collect();
        let cluster_size = 1 + cases.below(3) as usize;
        let system = build_synthetic_system(round, &clusters_per_interface, cluster_size).unwrap();
        let expected: usize = clusters_per_interface.iter().product();
        assert_eq!(system.variant_space().count(), expected);

        let common_processes = system.common().process_count();
        let flattened = system.flatten_all().unwrap();
        assert_eq!(flattened.len(), expected);
        for (_, graph) in flattened {
            assert!(graph.validate().is_ok());
            assert_eq!(
                graph.process_count(),
                common_processes + clusters_per_interface.len() * cluster_size
            );
        }
    }
}

#[test]
fn flattener_agrees_with_legacy_flatten_everywhere() {
    let mut cases = Cases::new(6);
    for round in 0..16 {
        let clusters_per_interface: Vec<usize> = (0..1 + cases.below(2) as usize)
            .map(|_| 1 + cases.below(3) as usize)
            .collect();
        let cluster_size = 1 + cases.below(2) as usize;
        let system =
            build_synthetic_system(100 + round, &clusters_per_interface, cluster_size).unwrap();

        let flattener = Flattener::new(&system).unwrap();
        let mut scratch = SpiGraph::new("");
        for (index, choice) in system.variant_space().choices_iter().enumerate() {
            let legacy = system.flatten(&choice).unwrap();
            let fast = flattener.flatten(&choice).unwrap();
            assert_eq!(legacy, fast, "combination {index} diverged");
            flattener.flatten_into(&choice, &mut scratch).unwrap();
            assert_eq!(legacy, scratch, "flatten_into diverged at {index}");
            let (decoded, indexed) = flattener.flatten_at(index).unwrap();
            assert_eq!(decoded, choice);
            assert_eq!(legacy, indexed, "flatten_at diverged at {index}");
        }
    }
}

// --- synthesis dominance ---------------------------------------------------------

#[test]
fn variant_aware_never_loses_to_superposition() {
    let mut cases = Cases::new(7);
    for _ in 0..48 {
        let common = 1 + cases.below(3) as usize;
        let variants = 2 + cases.below(2) as usize;
        let seed = cases.below(50);
        let problem = random_problem(common, variants, seed);
        let superposition = strategy::superposition(&problem).unwrap();
        let joint = strategy::variant_aware(&problem).unwrap();
        assert!(joint.cost.total() <= superposition.cost.total());
        assert!(joint.feasibility.feasible());
        assert!(
            design_time::joint(&problem).total <= design_time::independent(&problem).unwrap().total
        );
    }
}

// --- search differential: branch-and-bound vs the serial oracle ------------------

/// On seeded random problems, branch-and-bound must return the bit-identical optimum
/// — same mapping, same cost breakdown, same `(total, hw-count, Reverse(mask))`
/// tie-break — as the retained string-keyed serial exhaustive reference, under both
/// feasibility modes. The compiled exhaustive search is held to the same standard
/// while we are at it, and a repeated run of either must return the identical
/// result, candidate counts included.
#[test]
fn exact_searches_match_the_serial_oracle_on_random_problems() {
    let mut cases = Cases::new(11);
    let mut problems = Vec::new();
    for round in 0..24 {
        problems.push(if round % 2 == 0 {
            // Single variant set: few tasks, many ties.
            random_problem(
                1 + cases.below(3) as usize,
                2 + cases.below(2) as usize,
                cases.below(50),
            )
        } else {
            // Two variant sets with cross-product applications: richer sharing
            // structure, up to ~10 tasks.
            random_multi_problem(
                1 + cases.below(3) as usize,
                2 + cases.below(2) as usize,
                1000 + cases.below(50),
            )
        });
    }
    // 11–14 tasks (3–6 common tasks plus two sets of four clusters): the
    // widest problems the string-keyed oracle enumerates in a test's time.
    for common in 3..=6 {
        problems.push(random_multi_problem(common, 4, 1100 + cases.below(50)));
    }
    for (round, problem) in problems.iter().enumerate() {
        for mode in [FeasibilityMode::PerApplication, FeasibilityMode::Serialized] {
            let oracle = optimize_serial_reference(problem, mode).unwrap();
            for exact in [SearchStrategy::Exhaustive, SearchStrategy::BranchAndBound] {
                let result = optimize(problem, mode, exact).unwrap();
                assert_eq!(
                    result.mapping,
                    oracle.mapping,
                    "{exact:?}/{mode:?} mapping diverged on round {round} \
                     ({})",
                    problem.name()
                );
                assert_eq!(result.cost, oracle.cost, "cost diverged on round {round}");
                assert_eq!(
                    result.feasibility, oracle.feasibility,
                    "feasibility report diverged on round {round}"
                );
                assert_eq!(
                    optimize(problem, mode, exact).unwrap(),
                    result,
                    "{exact:?}/{mode:?} differed on a second run of round {round}"
                );
            }
        }
    }
}

/// The branch-and-bound node count can never exceed the full decision tree, and its
/// prune count can never exceed its node count — the accounting contract documented
/// on `PartitionResult`.
#[test]
fn branch_and_bound_accounting_stays_within_the_decision_tree() {
    let mut cases = Cases::new(12);
    for _ in 0..16 {
        let problem = random_multi_problem(
            1 + cases.below(2) as usize,
            2 + cases.below(2) as usize,
            2000 + cases.below(50),
        );
        let n = problem.task_count() as u64;
        let result = optimize(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::BranchAndBound,
        )
        .unwrap();
        assert!(result.evaluated_candidates <= (1 << (n + 1)) - 2);
        assert!(result.pruned_candidates <= result.evaluated_candidates);
        assert!(result.evaluated_candidates >= n);
    }
}

// --- incremental evaluator vs from-scratch check/evaluate ------------------------

/// Random walk over single-task flips: after every `apply` — and after every `undo`
/// — the incremental per-application loads, the serialized load, the feasibility
/// report and the cost breakdown must equal a from-scratch `schedule::check` /
/// `schedule::check_serialized` / `cost::evaluate` on the materialized mapping.
#[test]
fn incremental_evaluator_matches_scratch_evaluation_on_a_random_walk() {
    let mut cases = Cases::new(13);
    for round in 0..8 {
        let problem = random_multi_problem(
            1 + cases.below(3) as usize,
            2 + cases.below(2) as usize,
            3000 + cases.below(50),
        );
        let compiled = CompiledProblem::compile(&problem).unwrap();
        let n = compiled.task_count();
        let mut evaluator = IncrementalEvaluator::new(&compiled);

        let assert_matches_scratch = |evaluator: &IncrementalEvaluator, step: usize| {
            let mapping = evaluator.mapping();
            let scratch_check = schedule::check(&problem, &mapping).unwrap();
            assert_eq!(
                evaluator.feasibility_report(FeasibilityMode::PerApplication),
                scratch_check,
                "per-application report diverged at round {round} step {step}"
            );
            assert_eq!(
                evaluator.feasible(FeasibilityMode::PerApplication),
                scratch_check.feasible()
            );
            let scratch_serialized = schedule::check_serialized(&problem, &mapping).unwrap();
            assert_eq!(
                evaluator.feasibility_report(FeasibilityMode::Serialized),
                scratch_serialized,
                "serialized report diverged at round {round} step {step}"
            );
            assert_eq!(
                evaluator.serialized_load_permille(),
                scratch_serialized.applications[0].load_permille
            );
            let scratch_cost = cost::evaluate(&problem, &mapping, None).unwrap();
            assert_eq!(
                evaluator.cost_breakdown(),
                scratch_cost,
                "cost breakdown diverged at round {round} step {step}"
            );
            assert_eq!(evaluator.total_cost(), scratch_cost.total());
        };

        assert_matches_scratch(&evaluator, 0);
        let mut applied = 0usize;
        for step in 1..=200 {
            if applied > 0 && cases.below(4) == 0 {
                // Exercise the undo path as part of the walk, not only at the end.
                assert!(evaluator.undo());
                applied -= 1;
            } else {
                let task = TaskId(cases.below(n as u64) as u32);
                let implementation = if cases.below(2) == 0 {
                    Implementation::Software
                } else {
                    Implementation::Hardware
                };
                evaluator.apply(task, implementation);
                applied += 1;
            }
            assert_matches_scratch(&evaluator, step);
        }

        // Unwind the whole trail; every intermediate state must still match, and the
        // final state must be the all-software start.
        let mut step = 201;
        while evaluator.undo() {
            assert_matches_scratch(&evaluator, step);
            step += 1;
        }
        assert_eq!(evaluator.software_count(), n);
        assert_eq!(evaluator.hardware_area(), 0);
    }
}

// --- generators ------------------------------------------------------------------

/// Builds a chain-shaped variant system with the given cluster counts per interface.
fn build_synthetic_system(
    tag: u64,
    clusters_per_interface: &[usize],
    cluster_size: usize,
) -> Result<VariantSystem, Box<dyn std::error::Error>> {
    let stages = clusters_per_interface.len() + 1;
    let mut b = GraphBuilder::new(format!("prop_system{tag}"));
    let mut previous = None;
    for stage in 0..stages {
        let process = b
            .process(format!("common{stage}"))
            .latency(Interval::point(1))
            .build()?;
        if let Some(previous) = previous {
            let into = b.channel(format!("gap{stage}_in"), ChannelKind::Queue)?;
            let out_of = b.channel(format!("gap{stage}_out"), ChannelKind::Queue)?;
            b.connect_output(previous, into, Interval::point(1))?;
            b.connect_input(out_of, process, Interval::point(1))?;
        }
        previous = Some(process);
    }
    let mut system = VariantSystem::new(b.finish()?);

    for (index, clusters) in clusters_per_interface.iter().enumerate() {
        let mut interface = Interface::new(format!("if{index}"));
        interface.add_input_port("i");
        interface.add_output_port("o");
        for cluster_index in 0..*clusters {
            let name = format!("if{index}_v{cluster_index}");
            let mut cb = GraphBuilder::new(&name);
            let mut prev = None;
            for depth in 0..cluster_size {
                let process = cb
                    .process(format!("P{depth}"))
                    .latency(Interval::point(1 + depth as u64))
                    .build()?;
                if let Some(prev) = prev {
                    let channel = cb.channel(format!("c{depth}"), ChannelKind::Queue)?;
                    cb.connect_output(prev, channel, Interval::point(1))?;
                    cb.connect_input(channel, process, Interval::point(1))?;
                }
                prev = Some(process);
            }
            let mut cluster = Cluster::new(&name, cb.finish()?);
            cluster.add_input_port("i", "P0", Interval::point(1))?;
            cluster.add_output_port(
                "o",
                format!("P{}", cluster_size - 1).as_str(),
                Interval::point(1),
            )?;
            interface.add_cluster(cluster)?;
        }
        let attachment = system.attach_interface(interface, VariantType::Production)?;
        system.bind_input(attachment, "i", format!("gap{}_in", index + 1))?;
        system.bind_output(attachment, "o", format!("gap{}_out", index + 1))?;
    }
    system.validate()?;
    Ok(system)
}

/// Builds a small random-but-deterministic synthesis problem with one variant set.
fn random_problem(common: usize, variants: usize, seed: u64) -> SynthesisProblem {
    let mut cases = Cases::new(seed);
    let mut problem = SynthesisProblem::new(format!("random{seed}"), 10 + cases.below(10));
    let mut common_names = Vec::new();
    for index in 0..common {
        let name = format!("common{index}");
        problem.add_task(TaskSpec::new(
            &name,
            5 + cases.below(15),
            100,
            15 + cases.below(30),
            3 + cases.below(9),
        ));
        common_names.push(name);
    }
    let mut cluster_names = Vec::new();
    for index in 0..variants {
        let name = format!("variant{index}");
        problem.add_task(TaskSpec::new(
            &name,
            30 + cases.below(45),
            100,
            15 + cases.below(20),
            20 + cases.below(30),
        ));
        cluster_names.push(name);
    }
    for (index, cluster) in cluster_names.iter().enumerate() {
        let mut tasks = common_names.clone();
        tasks.push(cluster.clone());
        problem
            .add_application(ApplicationSpec::new(format!("application{index}"), tasks))
            .expect("tasks exist");
    }
    problem
}

/// Builds a deterministic synthesis problem with **two** variant sets and one
/// application per cross-product combination — the sharing structure (common tasks in
/// every application, each cluster in several) that exercises the incremental
/// evaluator's `task → applications` fan-out.
fn random_multi_problem(common: usize, variants_per_set: usize, seed: u64) -> SynthesisProblem {
    let mut cases = Cases::new(seed);
    let mut problem = SynthesisProblem::new(format!("multi{seed}"), 10 + cases.below(10));
    let mut common_names = Vec::new();
    for index in 0..common {
        let name = format!("common{index}");
        problem.add_task(TaskSpec::new(
            &name,
            5 + cases.below(15),
            100,
            15 + cases.below(30),
            3 + cases.below(9),
        ));
        common_names.push(name);
    }
    let mut sets: Vec<Vec<String>> = Vec::new();
    for set in 0..2 {
        let mut clusters = Vec::new();
        for index in 0..variants_per_set {
            let name = format!("if{set}/v{index}");
            problem.add_task(TaskSpec::new(
                &name,
                25 + cases.below(40),
                100,
                15 + cases.below(20),
                20 + cases.below(30),
            ));
            clusters.push(name);
        }
        sets.push(clusters);
    }
    let mut index = 0;
    for first in &sets[0] {
        for second in &sets[1] {
            let mut tasks = common_names.clone();
            tasks.push(first.clone());
            tasks.push(second.clone());
            problem
                .add_application(ApplicationSpec::new(format!("application{index}"), tasks))
                .expect("tasks exist");
            index += 1;
        }
    }
    problem
}
