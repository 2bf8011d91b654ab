//! HW/SW partitioning: finding the cheapest feasible mapping.
//!
//! The optimizer searches the mapping space (software or hardware per task) for the
//! cheapest implementation whose schedulability check passes. Three search strategies
//! are provided: an exhaustive search that is exact for the small systems of the
//! paper, a branch-and-bound search that returns the same optimum while visiting only
//! a fraction of the space, and a greedy heuristic (with a local-improvement pass)
//! for the larger synthetic systems used in the scaling experiments. [`optimize`]
//! selects automatically based on the task count.
//!
//! All searches run over [`CompiledProblem`] — tasks lowered to dense indices with
//! utilization/area arrays and per-application membership — so no inner loop touches
//! a `String` key. The historical string-keyed serial scan survives as
//! [`optimize_serial_reference`], the oracle the differential tests compare against.
//!
//! The **exhaustive** search enumerates the `2^n` mapping masks in ascending order
//! and keeps the best total cost found so far as a **bound**: a mask whose
//! hardware-area lower bound already exceeds the bound is discarded before the
//! schedulability check runs. Candidates are compared by the exact ordering key
//! `(total cost, hardware-task count, Reverse(mask))`, so the search returns the same
//! optimum, bit for bit, as the serial scan.
//!
//! The **branch-and-bound** search walks the decision tree depth-first instead of
//! enumerating leaves: task `i` is decided at depth `i`, undecided tasks sit in
//! hardware (where they contribute no processor load), and an
//! [`IncrementalEvaluator`] keeps every application's load current in O(applications
//! containing the flipped task). A subtree is cut when its partial software load
//! already overloads an application (every completion only adds load) or when the
//! admissible lower bound — committed hardware area plus a processor-cost floor —
//! strictly exceeds the incumbent. Because only strictly-worse subtrees are cut and
//! surviving leaves are compared with the same ordering key, the result is
//! bit-identical to the serial scan, tie-breaks included.
//!
//! Every search runs on its calling thread, so its candidate counts are a fixed
//! function of the problem. Parallelism lives one level up: the exploration service
//! runs one search per variant on each of its shard workers, which already keep
//! every core busy.

use serde::{Deserialize, Serialize};

use crate::compiled::{CompiledProblem, HardwareSet, IncrementalEvaluator, TaskId};
use crate::cost::{evaluate, CostBreakdown};
use crate::error::SynthError;
use crate::problem::{Implementation, Mapping, SynthesisProblem};
use crate::schedule::{check, check_serialized, FeasibilityReport};
use crate::Result;

/// Which schedulability view the optimizer must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FeasibilityMode {
    /// Per-application check: mutually exclusive variants share the processor
    /// (the paper's variant-aware view).
    #[default]
    PerApplication,
    /// Serialized check: all tasks of all variants are assumed concurrent
    /// (the view a serializing baseline is forced to take).
    Serialized,
}

/// Which search algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Enumerate every mapping (exact; exponential in the task count).
    Exhaustive,
    /// Depth-first search over partial mappings with an admissible lower bound
    /// (exact; returns the bit-identical optimum of [`SearchStrategy::Exhaustive`]
    /// while visiting only the subtrees the bound cannot cut).
    BranchAndBound,
    /// Greedy repair followed by local improvement (fast; near-optimal in practice).
    Greedy,
    /// Exhaustive up to [`EXHAUSTIVE_LIMIT`] tasks, greedy beyond.
    #[default]
    Auto,
}

/// Maximum task count for which [`SearchStrategy::Auto`] still enumerates exhaustively.
pub const EXHAUSTIVE_LIMIT: usize = 18;

/// Result of a partitioning run.
///
/// The candidate accounting is strategy-specific but always satisfies
/// `pruned_candidates <= evaluated_candidates`:
///
/// * **Exhaustive**: `evaluated_candidates` is the number of enumerated masks
///   (always `2^n`); `pruned_candidates` counts the masks the best-cost bound
///   discarded before their schedulability check.
/// * **Branch-and-bound**: `evaluated_candidates` is the number of decision-tree
///   nodes visited (one per single-task decision applied); `pruned_candidates`
///   counts the subtrees cut at such a node, by the bound or by partial
///   infeasibility.
/// * **Greedy**: `evaluated_candidates` is the number of complete mappings assessed;
///   nothing is pruned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionResult {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Its cost breakdown.
    pub cost: CostBreakdown,
    /// The feasibility report of the chosen mapping.
    pub feasibility: FeasibilityReport,
    /// Number of candidates the search considered (see the type-level docs for the
    /// per-strategy meaning).
    pub evaluated_candidates: u64,
    /// Of the considered candidates, how many were discarded cheaply (see the
    /// type-level docs for the per-strategy meaning).
    pub pruned_candidates: u64,
}

/// Finds the cheapest feasible mapping.
///
/// # Errors
///
/// Returns [`SynthError::Infeasible`] if not even the all-hardware mapping is feasible
/// (cannot happen with the utilization-based check, but guards future constraint kinds),
/// [`SynthError::NoApplications`] for empty problems, or any evaluation error.
pub fn optimize(
    problem: &SynthesisProblem,
    mode: FeasibilityMode,
    strategy: SearchStrategy,
) -> Result<PartitionResult> {
    problem.validate()?;
    let compiled = CompiledProblem::compile(problem)?;
    optimize_compiled(&compiled, mode, strategy)
}

/// Finds the cheapest feasible mapping of an already-compiled problem.
///
/// This is [`optimize`] without the string-keyed detour: callers that build a
/// [`CompiledProblem`] directly (see
/// [`crate::bridge::compiled_from_flat_graph`]) skip both the
/// `SynthesisProblem` materialization and the per-call re-compilation. The
/// result is bit-identical to routing the same problem through [`optimize`]:
/// it is [`search_compiled`]'s outcome with the mapping, cost breakdown and
/// feasibility report materialized.
///
/// # Errors
///
/// As [`search_compiled`].
pub fn optimize_compiled(
    compiled: &CompiledProblem,
    mode: FeasibilityMode,
    strategy: SearchStrategy,
) -> Result<PartitionResult> {
    let outcome = search_compiled(compiled, mode, strategy)?;
    Ok(PartitionResult {
        mapping: compiled.mapping_of(&outcome.hardware),
        cost: compiled.cost_breakdown_of(&outcome.hardware),
        feasibility: compiled.feasibility_report_of(&outcome.hardware, mode),
        evaluated_candidates: outcome.evaluated_candidates,
        pruned_candidates: outcome.pruned_candidates,
    })
}

/// What a partition search found, before any task name is materialized.
///
/// [`optimize_compiled`] turns it into a [`PartitionResult`]; callers that only
/// need the cost (the exploration service's per-variant path) stop here and look
/// names up in the [`CompiledProblem`] only when they want them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Total cost of the chosen mapping (hardware areas plus the processor if any
    /// task stays in software).
    pub total: u64,
    /// The tasks the chosen mapping puts into hardware; every other task runs in
    /// software.
    pub hardware: HardwareSet,
    /// As [`PartitionResult::evaluated_candidates`].
    pub evaluated_candidates: u64,
    /// As [`PartitionResult::pruned_candidates`].
    pub pruned_candidates: u64,
}

/// Finds the cheapest feasible mapping of a compiled problem and returns it in
/// name-free form: the search core behind [`optimize_compiled`].
///
/// # Errors
///
/// As [`optimize`]: [`SynthError::NoApplications`] for a problem without
/// applications, [`SynthError::Validation`] for an application without tasks or
/// for an exact search ([`SearchStrategy::Exhaustive`],
/// [`SearchStrategy::BranchAndBound`]) over 64 tasks or more, whose mappings a
/// `u64` mask cannot address, and [`SynthError::Infeasible`] when no mapping is
/// schedulable.
pub fn search_compiled(
    compiled: &CompiledProblem,
    mode: FeasibilityMode,
    strategy: SearchStrategy,
) -> Result<SearchOutcome> {
    // The same preconditions `optimize` enforces via `problem.validate()`,
    // so the two entry points accept and reject identical inputs.
    if compiled.application_count() == 0 {
        return Err(SynthError::NoApplications);
    }
    for application in 0..compiled.application_count() {
        if compiled.application_tasks(application).is_empty() {
            return Err(SynthError::Validation(format!(
                "application `{}` has no tasks",
                compiled.application_name(application)
            )));
        }
    }
    match strategy {
        SearchStrategy::Exhaustive => search_exhaustive(compiled, mode),
        SearchStrategy::BranchAndBound => search_branch_and_bound(compiled, mode),
        SearchStrategy::Greedy => search_greedy(compiled, mode),
        SearchStrategy::Auto => {
            if compiled.task_count() <= EXHAUSTIVE_LIMIT {
                search_exhaustive(compiled, mode)
            } else {
                search_greedy(compiled, mode)
            }
        }
    }
}

/// The exact searches enumerate `u64` masks, so they refuse 64 tasks or more
/// with an error rather than a panic: one oversized variant must not take a
/// worker down.
fn check_mask_width(compiled: &CompiledProblem, search: &str) -> Result<()> {
    let n = compiled.task_count();
    if n >= 64 {
        return Err(SynthError::Validation(format!(
            "{search} search is limited to fewer than 64 tasks, got {n}"
        )));
    }
    Ok(())
}

/// The exact ordering key shared by every exact search. The historical serial scan
/// replaces the incumbent on an exact `(total cost, hardware-task count)` tie, i.e.
/// it keeps the **highest** mask among tied optima — `Reverse(mask)` reproduces that
/// under a min-reduction.
type CandidateKey = (u64, u32, std::cmp::Reverse<u64>);

fn candidate_key(total: u64, mask: u64) -> CandidateKey {
    (total, mask.count_ones(), std::cmp::Reverse(mask))
}

/// The best candidate of one search so far, as `(key, mask)`, and its candidate
/// counts; the mapping is only materialized once the search ends.
#[derive(Default)]
struct Tally {
    best: Option<(CandidateKey, u64)>,
    evaluated: u64,
    pruned: u64,
}

impl Tally {
    fn offer(&mut self, total: u64, mask: u64) {
        let key = candidate_key(total, mask);
        if self.best.is_none_or(|(current, _)| key < current) {
            self.best = Some((key, mask));
        }
    }

    fn into_outcome(self) -> Result<SearchOutcome> {
        let ((total, _, _), mask) = self.best.ok_or_else(|| {
            SynthError::Infeasible(
                "no mapping satisfies the schedulability constraints".to_string(),
            )
        })?;
        Ok(SearchOutcome {
            total,
            hardware: HardwareSet::from_mask(mask),
            evaluated_candidates: self.evaluated,
            pruned_candidates: self.pruned,
        })
    }
}

fn search_exhaustive(compiled: &CompiledProblem, mode: FeasibilityMode) -> Result<SearchOutcome> {
    check_mask_width(compiled, "exhaustive")?;
    let areas = compiled.hardware_areas();
    let masks = 1u64 << compiled.task_count();
    let mut tally = Tally {
        evaluated: masks,
        ..Tally::default()
    };
    let mut bound = u64::MAX;
    for mask in 0..masks {
        // Hardware areas are a lower bound on the total cost of this mask (the
        // processor, if needed, only adds to it). A strictly larger bound can
        // neither beat nor tie the best mapping seen so far, so the expensive
        // schedulability check is skipped.
        let mut area_bound = 0u64;
        let mut bits = mask;
        while bits != 0 {
            let index = bits.trailing_zeros() as usize;
            area_bound += areas[index];
            bits &= bits - 1;
        }
        if area_bound > bound {
            tally.pruned += 1;
            continue;
        }

        if !compiled.feasible_mask(mask, mode) {
            continue;
        }
        let total = compiled.total_cost_of_mask(mask);
        bound = bound.min(total);
        tally.offer(total, mask);
    }
    tally.into_outcome()
}

/// The depth-first walk over the decision tree.
struct BranchAndBound<'p> {
    evaluator: IncrementalEvaluator<'p>,
    mode: FeasibilityMode,
    /// Suffix sums of hardware areas in decision order: `suffix_area[d]` is the total
    /// area of the still-undecided tasks `d..n`.
    suffix_area: Vec<u64>,
    /// The incumbent: the best total cost known so far.
    bound: u64,
    tally: Tally,
}

impl BranchAndBound<'_> {
    /// Admissible lower bound on the total cost of every completion below a node at
    /// `depth`: the hardware area already committed by decided tasks, plus the
    /// processor cost once any decided task is in software — or, while everything
    /// decided sits in hardware, the cheaper of "some remaining task goes to
    /// software" (processor cost) and "all remaining tasks go to hardware" (their
    /// area sum).
    fn lower_bound(&self, depth: usize) -> u64 {
        let compiled = self.evaluator.problem();
        let committed_area = self.evaluator.hardware_area() - self.suffix_area[depth];
        let floor = if self.evaluator.software_count() > 0 {
            compiled.processor_cost()
        } else {
            compiled.processor_cost().min(self.suffix_area[depth])
        };
        committed_area + floor
    }

    /// Applies the decision for the task at `depth` and reports whether the subtree
    /// below it survives the partial-infeasibility and bound cuts.
    fn enter(&mut self, depth: usize, implementation: Implementation) -> bool {
        self.tally.evaluated += 1;
        self.evaluator.apply(TaskId(depth as u32), implementation);
        // Decided-software loads only grow toward the leaves, so a partial overload
        // dooms every completion; and a lower bound strictly above the incumbent
        // cannot beat or tie it (ties must survive for exact tie-breaking, hence
        // the strict comparison).
        if !self.evaluator.feasible(self.mode) || self.lower_bound(depth + 1) > self.bound {
            self.tally.pruned += 1;
            return false;
        }
        true
    }

    fn dfs(&mut self, depth: usize, mask: u64) {
        let n = self.evaluator.problem().task_count();
        if depth == n {
            // Complete mapping; partial pruning kept it feasible on the way down.
            let total = self.evaluator.total_cost();
            self.bound = self.bound.min(total);
            self.tally.offer(total, mask);
            return;
        }
        // Software first: leaves are reached in ascending mask order, mirroring the
        // serial scan, and the cheap low-mask region seeds the incumbent early.
        if self.enter(depth, Implementation::Software) {
            self.dfs(depth + 1, mask);
        }
        self.evaluator.undo();
        if self.enter(depth, Implementation::Hardware) {
            self.dfs(depth + 1, mask | (1u64 << depth));
        }
        self.evaluator.undo();
    }
}

fn search_branch_and_bound(
    compiled: &CompiledProblem,
    mode: FeasibilityMode,
) -> Result<SearchOutcome> {
    check_mask_width(compiled, "branch-and-bound")?;
    let n = compiled.task_count();

    let mut suffix_area = vec![0u64; n + 1];
    for depth in (0..n).rev() {
        suffix_area[depth] = suffix_area[depth + 1] + compiled.hardware_areas()[depth];
    }
    // The all-hardware mapping is always feasible (zero processor load), so its total
    // is an achievable incumbent value the very first bound check can prune against.
    // It is seeded as a *value* only — the all-hardware leaf itself is still visited
    // and key-compared, so tie-breaking stays exact.
    let mut search = BranchAndBound {
        // Undecided tasks park in hardware: they contribute no processor load, so the
        // evaluator's application loads are exactly the decided-software loads — a
        // lower bound on every completion's loads.
        evaluator: IncrementalEvaluator::all_hardware(compiled),
        mode,
        bound: suffix_area[0],
        suffix_area,
        tally: Tally::default(),
    };
    search.dfs(0, 0);
    search.tally.into_outcome()
}

/// The historical single-threaded, prune-free, string-keyed scan, kept as the oracle
/// the compiled searches are differentially tested against: it goes through
/// [`crate::schedule::check`]/[`crate::schedule::check_serialized`] and
/// [`crate::cost::evaluate`] for every single mask, so any divergence in the compiled
/// layer shows up as a mismatch.
///
/// # Errors
///
/// As [`optimize`] with [`SearchStrategy::Exhaustive`].
pub fn optimize_serial_reference(
    problem: &SynthesisProblem,
    mode: FeasibilityMode,
) -> Result<PartitionResult> {
    problem.validate()?;
    let names: Vec<String> = problem.tasks().map(|t| t.name.clone()).collect();
    let n = names.len();
    if n >= 64 {
        return Err(SynthError::Validation(format!(
            "exhaustive search is limited to fewer than 64 tasks, got {n}"
        )));
    }
    let mut best: Option<PartitionResult> = None;
    let mut evaluated = 0u64;
    for mask in 0u64..(1u64 << n) {
        let mut mapping = Mapping::new();
        for (index, name) in names.iter().enumerate() {
            let implementation = if mask & (1 << index) != 0 {
                Implementation::Hardware
            } else {
                Implementation::Software
            };
            mapping.assign(name.clone(), implementation);
        }
        evaluated += 1;
        let report = match mode {
            FeasibilityMode::PerApplication => check(problem, &mapping)?,
            FeasibilityMode::Serialized => check_serialized(problem, &mapping)?,
        };
        if !report.feasible() {
            continue;
        }
        let cost = evaluate(problem, &mapping, None)?;
        let better = match &best {
            None => true,
            Some(current) => {
                let key = (cost.total(), cost.hardware_tasks.len(), mask);
                let current_key = (
                    current.cost.total(),
                    current.cost.hardware_tasks.len(),
                    u64::MAX,
                );
                key < current_key
            }
        };
        if better {
            best = Some(PartitionResult {
                mapping,
                cost,
                feasibility: report,
                evaluated_candidates: 0,
                pruned_candidates: 0,
            });
        }
    }
    let mut result = best.ok_or_else(|| {
        SynthError::Infeasible("no mapping satisfies the schedulability constraints".to_string())
    })?;
    result.evaluated_candidates = evaluated;
    Ok(result)
}

/// The greedy repair's picks in advance, when its candidates are one fixed list:
/// every task under the serialized check, or the members of the only application
/// when none repeats. Only the repair moves tasks during the repair, and each move
/// takes the highest-relief candidate still in software — the last of equal ones —
/// to hardware for good, so the picks are that list ordered by relief, then
/// position, both descending. `None` where the candidates depend on which of
/// several applications still overload the processor.
fn presorted_picks(
    compiled: &CompiledProblem,
    mode: FeasibilityMode,
    relief: &[u64],
) -> Option<Vec<(u64, u32, TaskId)>> {
    let n = compiled.task_count() as u32;
    let keyed = |(position, task): (usize, TaskId)| (relief[task.index()], position as u32, task);
    let mut picks: Vec<(u64, u32, TaskId)> = match mode {
        FeasibilityMode::Serialized => (0..n).map(TaskId).enumerate().map(keyed).collect(),
        FeasibilityMode::PerApplication
            if compiled.application_count() == 1
                && (0..n).all(|task| compiled.applications_of_task(TaskId(task)).len() <= 1) =>
        {
            let members = compiled.application_tasks(0).iter().copied();
            members.enumerate().map(keyed).collect()
        }
        FeasibilityMode::PerApplication => return None,
    };
    picks.sort_unstable_by(|a, b| b.cmp(a));
    Some(picks)
}

fn search_greedy(compiled: &CompiledProblem, mode: FeasibilityMode) -> Result<SearchOutcome> {
    let n = compiled.task_count();
    let mut evaluator = IncrementalEvaluator::new(compiled);
    let mut evaluated = 1u64;
    // Utilization relief per unit of hardware cost, scaled to keep integer
    // arithmetic meaningful; fixed per task, so computed once.
    let relief: Vec<u64> = compiled
        .utilizations()
        .iter()
        .zip(compiled.hardware_areas())
        .map(|(&utilization, &area)| utilization * 1000 / area.max(1))
        .collect();
    let mut picks = presorted_picks(compiled, mode, &relief).map(Vec::into_iter);

    // Repair: while some application overloads the processor, move the software task
    // with the highest relief (among tasks of overloaded applications) to hardware.
    // Candidates stream in application-then-member order, repeats included, so
    // `max_by_key` keeps its last-maximum tie-break; where they form one fixed list,
    // the picks were sorted out in advance.
    while !evaluator.feasible(mode) {
        let best_move = match picks.as_mut() {
            Some(picks) => picks.next().map(|(_, _, task)| task),
            None => (0..compiled.application_count())
                .filter(|&app| evaluator.load_permille(app) > compiled.capacity_permille())
                .flat_map(|app| compiled.application_tasks(app).iter().copied())
                .filter(|task| evaluator.implementation(*task) == Implementation::Software)
                .max_by_key(|task| relief[task.index()]),
        };
        let Some(task) = best_move else {
            return Err(SynthError::Infeasible(
                "processor overloaded but no software task left to move".to_string(),
            ));
        };
        evaluator.apply(task, Implementation::Hardware);
        evaluated += 1;
    }

    // Improvement: move hardware tasks back to software when that stays feasible and
    // reduces total cost.
    let mut improved = true;
    while improved {
        improved = false;
        for index in 0..n as u32 {
            let task = TaskId(index);
            if evaluator.implementation(task) != Implementation::Hardware {
                continue;
            }
            let old_cost = evaluator.total_cost();
            evaluator.apply(task, Implementation::Software);
            evaluated += 1;
            if evaluator.feasible(mode) && evaluator.total_cost() < old_cost {
                evaluator.commit();
                improved = true;
            } else {
                evaluator.undo();
            }
        }
    }

    Ok(SearchOutcome {
        total: evaluator.total_cost(),
        hardware: evaluator.hardware_set(),
        evaluated_candidates: evaluated,
        pruned_candidates: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests::toy_problem;
    use crate::problem::{ApplicationSpec, TaskSpec};

    #[test]
    fn optimize_compiled_rejects_degenerate_problems_like_optimize() {
        // Both entry points must accept and reject identical inputs: an
        // application without tasks is a validation error through either.
        let mut problem = toy_problem();
        problem
            .add_application(ApplicationSpec::new("empty", Vec::<String>::new()))
            .unwrap();
        let mode = FeasibilityMode::PerApplication;
        let strategy = SearchStrategy::Exhaustive;
        assert!(matches!(
            optimize(&problem, mode, strategy),
            Err(SynthError::Validation(_))
        ));
        let compiled = CompiledProblem::compile(&problem).unwrap();
        assert!(matches!(
            optimize_compiled(&compiled, mode, strategy),
            Err(SynthError::Validation(_))
        ));
        // And the no-applications case maps to the same error either way.
        let bare = SynthesisProblem::new("bare", 10);
        assert!(matches!(
            optimize(&bare, mode, strategy),
            Err(SynthError::NoApplications)
        ));
        let compiled_bare = CompiledProblem::compile(&bare).unwrap();
        assert!(matches!(
            optimize_compiled(&compiled_bare, mode, strategy),
            Err(SynthError::NoApplications)
        ));
    }

    #[test]
    fn exhaustive_finds_the_paper_optimum() {
        // Joint (variant-aware) synthesis of the Table 1 system: PA moves to hardware,
        // both clusters share the processor with PB.
        let problem = toy_problem();
        let result = optimize(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::Exhaustive,
        )
        .unwrap();
        assert_eq!(result.cost.total(), 41);
        assert_eq!(result.cost.hardware_tasks, vec!["PA"]);
        assert_eq!(
            result.cost.software_tasks,
            vec!["PB", "cluster1", "cluster2"]
        );
        assert!(result.feasibility.feasible());
        assert_eq!(result.evaluated_candidates, 16);
    }

    #[test]
    fn branch_and_bound_finds_the_paper_optimum() {
        let problem = toy_problem();
        let result = optimize(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::BranchAndBound,
        )
        .unwrap();
        assert_eq!(result.cost.total(), 41);
        assert_eq!(result.cost.hardware_tasks, vec!["PA"]);
        assert!(result.feasibility.feasible());
        // Nodes visited can never exceed the full decision tree (2^(n+1) - 2).
        assert!(result.evaluated_candidates <= (1 << 5) - 2);
        assert!(result.pruned_candidates <= result.evaluated_candidates);
    }

    #[test]
    fn per_application_synthesis_matches_table1_rows() {
        let problem = toy_problem();
        let app1 = problem.restrict_to("application1").unwrap();
        let result1 =
            optimize(&app1, FeasibilityMode::PerApplication, SearchStrategy::Auto).unwrap();
        assert_eq!(result1.cost.total(), 34);
        assert_eq!(result1.cost.hardware_tasks, vec!["cluster1"]);

        let app2 = problem.restrict_to("application2").unwrap();
        let result2 =
            optimize(&app2, FeasibilityMode::PerApplication, SearchStrategy::Auto).unwrap();
        assert_eq!(result2.cost.total(), 38);
        assert_eq!(result2.cost.hardware_tasks, vec!["cluster2"]);
    }

    #[test]
    fn serialized_feasibility_forces_more_hardware() {
        let problem = toy_problem();
        let serialized = optimize(
            &problem,
            FeasibilityMode::Serialized,
            SearchStrategy::Exhaustive,
        )
        .unwrap();
        let variant_aware = optimize(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::Exhaustive,
        )
        .unwrap();
        assert!(
            serialized.cost.total() > variant_aware.cost.total(),
            "serialization ({}) must cost more than variant-aware synthesis ({})",
            serialized.cost.total(),
            variant_aware.cost.total()
        );
    }

    #[test]
    fn greedy_is_feasible_but_may_miss_the_global_optimum() {
        // The paper's optimum requires the non-local move "put the *common* process PA
        // into hardware so that both clusters can stay in software". The greedy repair
        // heuristic instead moves the clusters (the locally best utilization/area
        // ratio) and ends at the superposition-like architecture. This documents the
        // gap that motivates the exhaustive search for small systems.
        let problem = toy_problem();
        let greedy = optimize(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::Greedy,
        )
        .unwrap();
        let exact = optimize(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::Exhaustive,
        )
        .unwrap();
        assert!(greedy.feasibility.feasible());
        assert!(greedy.cost.total() >= exact.cost.total());
        assert_eq!(greedy.cost.total(), 57);
    }

    #[test]
    fn compiled_searches_match_the_serial_reference_on_table1() {
        // Acceptance check for the compiled searches: same optimum, same mapping, same
        // tie-breaking as the historical serial scan on the paper's Table 1 problem.
        let problem = toy_problem();
        for mode in [FeasibilityMode::PerApplication, FeasibilityMode::Serialized] {
            let serial = optimize_serial_reference(&problem, mode).unwrap();
            let compiled = CompiledProblem::compile(&problem).unwrap();
            let exhaustive =
                optimize_compiled(&compiled, mode, SearchStrategy::Exhaustive).unwrap();
            assert_eq!(exhaustive.mapping, serial.mapping);
            assert_eq!(exhaustive.cost, serial.cost);
            assert_eq!(exhaustive.feasibility, serial.feasibility);
            assert_eq!(exhaustive.evaluated_candidates, serial.evaluated_candidates);
            let bnb = optimize_compiled(&compiled, mode, SearchStrategy::BranchAndBound).unwrap();
            assert_eq!(bnb.mapping, serial.mapping);
            assert_eq!(bnb.cost, serial.cost);
            assert_eq!(bnb.feasibility, serial.feasibility);
        }
    }

    /// 14 tasks = 16384 masks: enough for the best-cost bound to prune and for
    /// branch-and-bound to cut most of the decision tree.
    fn fourteen_task_problem() -> SynthesisProblem {
        let mut problem = SynthesisProblem::new("fourteen", 40);
        let mut app_a = Vec::new();
        let mut app_b = Vec::new();
        for index in 0..14u64 {
            let name = format!("t{index}");
            problem.add_task(TaskSpec::new(
                &name,
                20 + (index * 13) % 60,
                100,
                10 + (index * 7) % 30,
                5,
            ));
            if index % 2 == 0 {
                app_a.push(name);
            } else {
                app_b.push(name);
            }
        }
        problem
            .add_application(ApplicationSpec::new("a", app_a))
            .unwrap();
        problem
            .add_application(ApplicationSpec::new("b", app_b))
            .unwrap();
        problem
    }

    #[test]
    fn exhaustive_matches_serial_and_prunes_on_a_14_task_space() {
        let problem = fourteen_task_problem();
        let compiled = CompiledProblem::compile(&problem).unwrap();
        let exhaustive = optimize_compiled(
            &compiled,
            FeasibilityMode::PerApplication,
            SearchStrategy::Exhaustive,
        )
        .unwrap();
        let serial = optimize_serial_reference(&problem, FeasibilityMode::PerApplication).unwrap();
        assert_eq!(exhaustive.mapping, serial.mapping);
        assert_eq!(exhaustive.cost.total(), serial.cost.total());
        assert_eq!(exhaustive.evaluated_candidates, 1 << 14);
        assert!(
            exhaustive.pruned_candidates > 0,
            "the best-cost bound should discard some of the 16384 masks"
        );
    }

    #[test]
    fn candidate_accounting_is_consistent_across_strategies() {
        let problem = fourteen_task_problem();
        let n = problem.task_count() as u64;
        let serial = optimize_serial_reference(&problem, FeasibilityMode::PerApplication).unwrap();
        let compiled = CompiledProblem::compile(&problem).unwrap();
        let exhaustive = optimize_compiled(
            &compiled,
            FeasibilityMode::PerApplication,
            SearchStrategy::Exhaustive,
        )
        .unwrap();
        let bnb = optimize_compiled(
            &compiled,
            FeasibilityMode::PerApplication,
            SearchStrategy::BranchAndBound,
        )
        .unwrap();
        let greedy = optimize_compiled(
            &compiled,
            FeasibilityMode::PerApplication,
            SearchStrategy::Greedy,
        )
        .unwrap();

        // Exhaustive: every mask is a candidate; pruning is a subset of enumeration.
        assert_eq!(exhaustive.evaluated_candidates, 1 << n);
        assert!(exhaustive.pruned_candidates <= exhaustive.evaluated_candidates);

        // Branch-and-bound: node visits are bounded by the full decision tree and —
        // on a space this size — far below the leaf count; cuts happen at visited
        // nodes only; the optimum is bit-identical.
        assert_eq!(bnb.mapping, serial.mapping);
        assert_eq!(bnb.cost, serial.cost);
        assert!(bnb.evaluated_candidates <= (1 << (n + 1)) - 2);
        assert!(
            bnb.evaluated_candidates < exhaustive.evaluated_candidates,
            "branch-and-bound must visit fewer nodes ({}) than the exhaustive \
             enumeration ({})",
            bnb.evaluated_candidates,
            exhaustive.evaluated_candidates
        );
        assert!(bnb.pruned_candidates <= bnb.evaluated_candidates);
        assert!(
            bnb.evaluated_candidates >= n,
            "at least one root-to-leaf path"
        );

        // Greedy never prunes.
        assert_eq!(greedy.pruned_candidates, 0);
        assert!(greedy.evaluated_candidates >= 1);

        // Each search is a fixed function of the problem: a second run returns
        // the identical result, candidate counts included.
        for (strategy, first) in [
            (SearchStrategy::Exhaustive, &exhaustive),
            (SearchStrategy::BranchAndBound, &bnb),
        ] {
            let again =
                optimize_compiled(&compiled, FeasibilityMode::PerApplication, strategy).unwrap();
            assert_eq!(&again, first, "{strategy:?} differed on a second run");
        }
    }

    /// The greedy search as it is defined: every repair move rescans the
    /// candidates — the members of the overloaded applications, or every task
    /// under the serialized check — and takes the last of the highest-relief
    /// ones; the improvement pass follows. The reference the presorted picks
    /// must reproduce, candidate counts included.
    fn greedy_by_scan(compiled: &CompiledProblem, mode: FeasibilityMode) -> Result<SearchOutcome> {
        let n = compiled.task_count();
        let (utilizations, areas) = (compiled.utilizations(), compiled.hardware_areas());
        let mut evaluator = IncrementalEvaluator::new(compiled);
        let mut evaluated = 1u64;
        while !evaluator.feasible(mode) {
            let in_software =
                |task: &TaskId| evaluator.implementation(*task) == Implementation::Software;
            let relief =
                |task: &TaskId| utilizations[task.index()] * 1000 / areas[task.index()].max(1);
            let best_move = match mode {
                FeasibilityMode::Serialized => (0..n as u32)
                    .map(TaskId)
                    .filter(in_software)
                    .max_by_key(relief),
                FeasibilityMode::PerApplication => (0..compiled.application_count())
                    .filter(|&app| evaluator.load_permille(app) > compiled.capacity_permille())
                    .flat_map(|app| compiled.application_tasks(app).iter().copied())
                    .filter(in_software)
                    .max_by_key(relief),
            };
            let Some(task) = best_move else {
                return Err(SynthError::Infeasible(
                    "processor overloaded but no software task left to move".to_string(),
                ));
            };
            evaluator.apply(task, Implementation::Hardware);
            evaluated += 1;
        }
        let mut improved = true;
        while improved {
            improved = false;
            for task in (0..n as u32).map(TaskId) {
                if evaluator.implementation(task) != Implementation::Hardware {
                    continue;
                }
                let old_cost = evaluator.total_cost();
                evaluator.apply(task, Implementation::Software);
                evaluated += 1;
                if evaluator.feasible(mode) && evaluator.total_cost() < old_cost {
                    evaluator.commit();
                    improved = true;
                } else {
                    evaluator.undo();
                }
            }
        }
        Ok(SearchOutcome {
            total: evaluator.total_cost(),
            hardware: evaluator.hardware_set(),
            evaluated_candidates: evaluated,
            pruned_candidates: 0,
        })
    }

    /// A random problem with few distinct utilizations and areas, so reliefs
    /// tie often; `applications` of them list random members in random order
    /// (with repeats when `repeats`), or all tasks shuffled when there is one.
    fn random_problem(
        cases: &mut spi_testutil::Lcg,
        applications: usize,
        repeats: bool,
    ) -> SynthesisProblem {
        let n = cases.range(1, 40) as usize;
        let mut problem = SynthesisProblem::new("random", cases.range(5, 60));
        let names: Vec<String> = (0..n).map(|task| format!("t{task:02}")).collect();
        for name in &names {
            problem.add_task(TaskSpec::new(
                name,
                10 * cases.range(1, 12),
                100,
                5 * cases.range(1, 4),
                1,
            ));
        }
        for app in 0..applications {
            let mut members = if applications == 1 {
                names.clone()
            } else {
                names
                    .iter()
                    .filter(|_| cases.chance(1, 2))
                    .cloned()
                    .collect()
            };
            if members.is_empty() || repeats {
                members.push(names[cases.below(n as u64) as usize].clone());
            }
            for at in (1..members.len()).rev() {
                members.swap(at, cases.below(at as u64 + 1) as usize);
            }
            problem
                .add_application(ApplicationSpec::new(format!("app{app}"), members))
                .unwrap();
        }
        problem
    }

    #[test]
    fn presorted_greedy_repair_matches_the_scan_on_random_problems() {
        let mut cases = spi_testutil::Lcg::new(2024);
        let mut presorted = 0;
        for round in 0..600 {
            let (applications, repeats) = match round % 3 {
                0 => (1, false),
                1 => (1, true),
                _ => (2 + round % 2, false),
            };
            let compiled =
                CompiledProblem::compile(&random_problem(&mut cases, applications, repeats))
                    .unwrap();
            for mode in [FeasibilityMode::PerApplication, FeasibilityMode::Serialized] {
                // One fixed candidate list: every task when serialized, the one
                // application's members when none repeats. Otherwise the scan.
                let fixed = mode == FeasibilityMode::Serialized || (applications == 1 && !repeats);
                let relief = vec![0; compiled.task_count()];
                assert_eq!(
                    presorted_picks(&compiled, mode, &relief).is_some(),
                    fixed,
                    "round {round}, {mode:?}"
                );
                presorted += usize::from(fixed);
                assert_eq!(
                    search_greedy(&compiled, mode),
                    greedy_by_scan(&compiled, mode),
                    "round {round}, {mode:?}"
                );
            }
        }
        assert_eq!(presorted, 600 + 200);
    }

    #[test]
    fn greedy_handles_larger_systems() {
        // 24 tasks exceed the exhaustive limit; Auto must still terminate and produce a
        // feasible mapping.
        let mut problem = SynthesisProblem::new("large", 50);
        let mut app_a = Vec::new();
        let mut app_b = Vec::new();
        for index in 0..24 {
            let name = format!("t{index}");
            problem.add_task(TaskSpec::new(&name, 10 + index % 7, 100, 20 + index, 5));
            if index % 3 == 0 {
                app_a.push(name.clone());
                app_b.push(name.clone());
            } else if index % 3 == 1 {
                app_a.push(name.clone());
            } else {
                app_b.push(name.clone());
            }
        }
        problem
            .add_application(ApplicationSpec::new("a", app_a))
            .unwrap();
        problem
            .add_application(ApplicationSpec::new("b", app_b))
            .unwrap();
        let result = optimize(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::Auto,
        )
        .unwrap();
        assert!(result.feasibility.feasible());
        assert!(result.evaluated_candidates < 1u64 << 24);
    }

    #[test]
    fn infeasible_without_applications() {
        let problem = SynthesisProblem::new("empty", 1);
        assert!(matches!(
            optimize(
                &problem,
                FeasibilityMode::PerApplication,
                SearchStrategy::Auto
            ),
            Err(SynthError::NoApplications)
        ));
    }

    #[test]
    fn all_hardware_is_always_a_feasible_fallback() {
        // Tasks so heavy that nothing fits in software.
        let mut problem = SynthesisProblem::new("heavy", 100);
        problem.add_task(TaskSpec::new("x", 500, 100, 7, 1));
        problem.add_task(TaskSpec::new("y", 800, 100, 9, 1));
        problem
            .add_application(ApplicationSpec::new(
                "a",
                ["x".to_string(), "y".to_string()],
            ))
            .unwrap();
        for strategy in [
            SearchStrategy::Auto,
            SearchStrategy::BranchAndBound,
            SearchStrategy::Greedy,
        ] {
            let result = optimize(&problem, FeasibilityMode::PerApplication, strategy).unwrap();
            assert_eq!(result.cost.software_tasks.len(), 0);
            assert_eq!(result.cost.total(), 16);
        }
    }
}
