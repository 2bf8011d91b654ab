//! Partition-search trajectory: the exhaustive enumeration vs the
//! branch-and-bound search (both running single-threaded over the dense-index
//! `CompiledProblem` layer) and the greedy heuristic, on synthetic problems of
//! growing task count.
//!
//! The two exact strategies are asserted to return the identical optimum before any
//! measurement — the bench doubles as a coarse differential check in CI's bench
//! build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use spi_synth::partition::{optimize, FeasibilityMode, SearchStrategy};
use spi_workloads::{synthetic_problem, SyntheticParams};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_search");
    group.sample_size(10);

    // 4 + 2 * interfaces tasks: 10 and 14 keep the exhaustive side fast enough to
    // sample; the 18-task point lives in `variant_space_baseline` where it is
    // measured once per run instead of per criterion sample.
    for interfaces in [3usize, 5] {
        let problem = synthetic_problem(&SyntheticParams {
            common_tasks: 4,
            interfaces,
            clusters_per_interface: 2,
            cluster_depth: 1,
            seed: 42,
        })
        .unwrap();
        let tasks = problem.task_count();
        let mode = FeasibilityMode::PerApplication;

        let exhaustive = optimize(&problem, mode, SearchStrategy::Exhaustive).unwrap();
        let bnb = optimize(&problem, mode, SearchStrategy::BranchAndBound).unwrap();
        assert_eq!(exhaustive.mapping, bnb.mapping);
        assert_eq!(exhaustive.cost, bnb.cost);
        assert!(
            bnb.evaluated_candidates < exhaustive.evaluated_candidates,
            "branch-and-bound must visit fewer nodes than the enumeration"
        );

        group.bench_with_input(
            BenchmarkId::new("exhaustive", tasks),
            &problem,
            |b, problem| {
                b.iter(|| {
                    optimize(black_box(problem), mode, SearchStrategy::Exhaustive)
                        .unwrap()
                        .cost
                        .total()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("branch_and_bound", tasks),
            &problem,
            |b, problem| {
                b.iter(|| {
                    optimize(black_box(problem), mode, SearchStrategy::BranchAndBound)
                        .unwrap()
                        .cost
                        .total()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("greedy", tasks), &problem, |b, problem| {
            b.iter(|| {
                optimize(black_box(problem), mode, SearchStrategy::Greedy)
                    .unwrap()
                    .cost
                    .total()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
