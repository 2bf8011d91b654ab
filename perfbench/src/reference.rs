//! Reference optima computed outside the service.
//!
//! * Greedy jobs: a single-threaded sweep of `Flattener::flatten_at` (no
//!   delta flattening, no shards, no incumbent) through the same compile and
//!   greedy search the evaluator runs.
//! * Exact jobs: an independent exact solver. The default evaluator poses
//!   each flattened variant as one application whose software tasks must fit
//!   the processor's 1000‰ capacity; the optimum either puts everything in
//!   hardware (Σ areas) or buys the processor and keeps in software the
//!   subset of tasks with the largest area that fits — a 0/1 knapsack over
//!   utilization, solved by dynamic programming. It shares no search code
//!   with the service's branch-and-bound.

use spi_model::json::{JsonValue, ToJson};
use spi_model::SpiGraph;
use spi_synth::partition::optimize_compiled;
use spi_synth::{compiled_from_flat_graph, SearchStrategy, SynthError};
use spi_variants::Flattener;

use spi_explore::PartitionEvaluator;

/// The schedulable capacity of the flattened single-application problem.
const CAPACITY_PERMILLE: usize = 1000;

/// The optimum of one job: its space size and best `(cost, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimum {
    pub combinations: usize,
    pub best: Option<(u64, usize)>,
}

impl ToJson for Optimum {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("combinations", self.combinations.to_json()),
            (
                "cost",
                self.best
                    .map_or(JsonValue::Null, |(cost, _)| cost.to_json()),
            ),
            (
                "index",
                self.best
                    .map_or(JsonValue::Null, |(_, index)| index.to_json()),
            ),
        ])
    }
}

/// The exact optimal cost of one flattened variant (see the module docs).
pub fn exact_variant_cost(graph: &SpiGraph, evaluator: &PartitionEvaluator) -> u64 {
    let mut best_area = [0u64; CAPACITY_PERMILLE + 1];
    let mut total_area = 0u64;
    for process in graph.processes().filter(|p| !p.is_virtual()) {
        let params = evaluator.params.params_for(process.name());
        total_area += params.hw_area;
        let utilization = usize::try_from(params.sw_time.saturating_mul(1000) / params.period)
            .unwrap_or(usize::MAX);
        if utilization > CAPACITY_PERMILLE {
            continue;
        }
        for load in (utilization..=CAPACITY_PERMILLE).rev() {
            best_area[load] = best_area[load].max(best_area[load - utilization] + params.hw_area);
        }
    }
    let with_processor = evaluator.processor_cost + total_area - best_area[CAPACITY_PERMILLE];
    total_area.min(with_processor)
}

/// The reference optimum of a job over `flattener`'s space.
///
/// # Errors
///
/// Flatten, compile or search errors: every generated job is expected to
/// evaluate cleanly, so any error is a finding.
pub fn optimum(flattener: &Flattener, evaluator: &PartitionEvaluator) -> Result<Optimum, String> {
    let combinations = flattener.space().count();
    let mut best: Option<(u64, usize)> = None;
    for index in 0..combinations {
        let (_choice, graph) = flattener.flatten_at(index).map_err(|e| e.to_string())?;
        let cost = match evaluator.strategy {
            SearchStrategy::Greedy => {
                let compiled = compiled_from_flat_graph(&graph, evaluator.processor_cost, |name| {
                    Some(evaluator.params.params_for(name))
                })
                .map_err(|e| e.to_string())?;
                match optimize_compiled(&compiled, evaluator.mode, evaluator.strategy) {
                    Ok(result) => Some(result.cost.total()),
                    Err(SynthError::Infeasible(_)) => None,
                    Err(other) => return Err(other.to_string()),
                }
            }
            // Exhaustive, branch-and-bound and Auto within its exhaustive
            // range are all exact; the generated jobs use exact strategies
            // only where Auto stays exhaustive.
            _ => Some(exact_variant_cost(&graph, evaluator)),
        };
        if let Some(cost) = cost {
            if best.is_none_or(|current| (cost, index) < current) {
                best = Some((cost, index));
            }
        }
    }
    Ok(Optimum { combinations, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_explore::Evaluator;
    use spi_explore::TaskParamsSpec;

    #[test]
    fn the_knapsack_matches_the_exhaustive_search_on_every_variant() {
        for seed in [1u64, 7, 42] {
            let system = spi_workloads_system(5, seed);
            let flattener = Flattener::new(&system).expect("flattener");
            let evaluator = PartitionEvaluator {
                strategy: SearchStrategy::Exhaustive,
                params: TaskParamsSpec::Hashed { seed },
                ..PartitionEvaluator::default()
            };
            for index in 0..flattener.space().count() {
                let (choice, graph) = flattener.flatten_at(index).expect("flatten");
                let searched = evaluator
                    .evaluate(index, &choice, &graph, u64::MAX)
                    .expect("evaluates");
                assert_eq!(exact_variant_cost(&graph, &evaluator), searched.cost);
            }
        }
    }

    fn spi_workloads_system(interfaces: usize, seed: u64) -> spi_variants::VariantSystem {
        let recipe = JsonValue::parse(&format!(
            r#"{{"system":{{"synthetic":{{"common_tasks":{},"interfaces":{interfaces},"clusters_per_interface":2,"cluster_depth":1,"seed":{seed}}}}}}}"#,
            interfaces + 1
        ))
        .expect("recipe");
        spi_explore::rebuild_from_recipe(&recipe).expect("system").0
    }
}
