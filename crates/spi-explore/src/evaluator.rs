//! Pluggable per-variant evaluation.
//!
//! The exploration service walks the variant space and hands every flattened
//! combination to an [`Evaluator`]. What "cost" means is the evaluator's
//! business — the default [`PartitionEvaluator`] runs the compiled HW/SW
//! partition search of `spi-synth` and reports the optimal implementation
//! cost, but anything `Send + Sync` that maps a flattened graph to a number
//! plugs in: simulation-based scoring, timing analysis, a cheap proxy metric
//! for pre-filtering, ...
//!
//! Evaluators participate in **cross-shard pruning**: before evaluating, the
//! worker compares [`Evaluator::lower_bound`] against the job-wide incumbent
//! (the best feasible cost any worker has reported so far). A variant whose
//! bound strictly exceeds the incumbent is skipped — it cannot beat *or tie*
//! the incumbent, so skipping preserves the exact `(cost, index)` optimum,
//! tie-breaks included.

use std::sync::Arc;

use spi_model::json::{JsonValue, ToJson};
use spi_model::SpiGraph;
use spi_store::span::{PhaseId, SpanSink, SpanStamp};
use spi_synth::partition::search_compiled;
use spi_synth::{
    compiled_from_flat_graph, CompiledProblem, FeasibilityMode, SearchStrategy, SynthError,
    TaskParams, TaskTable,
};
use spi_variants::{Flattener, VariantChoice};

use crate::error::ExploreError;
use crate::Result;

/// Outcome of evaluating one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    /// The variant's cost; lower is better. Meaning is evaluator-defined.
    pub cost: u64,
    /// Whether the variant admits any feasible implementation. Infeasible
    /// variants are counted but never compete for the optimum.
    pub feasible: bool,
    /// Human-readable summary of the winning implementation (e.g. the HW/SW
    /// mapping); carried verbatim into reports. Names are costly to render, so
    /// an evaluator may leave this empty for a feasible result its caller said
    /// it will not keep (see [`Evaluator::evaluate_spanned`]): the drain reads
    /// `detail` only for the variants that enter its shard report's top-K.
    pub detail: String,
}

/// A pluggable variant evaluator; see the module docs.
///
/// The drain reads an evaluation's `detail` only for the variants that enter
/// its shard report's top-K, and says so through
/// [`evaluate_spanned`](Self::evaluate_spanned)'s `keep` test: the default
/// [`PartitionEvaluator`] builds task names for those entrants alone.
pub trait Evaluator: Send + Sync {
    /// An admissible lower bound on [`evaluate`](Self::evaluate)'s cost for
    /// this variant: it must never exceed the true cost. Workers skip the
    /// evaluation when the bound strictly exceeds the job incumbent. The
    /// default bound of `0` disables pruning.
    fn lower_bound(&self, _choice: &VariantChoice, _graph: &SpiGraph) -> u64 {
        0
    }

    /// A canonical JSON description of this evaluator's semantics, when one
    /// exists. The spec is part of the result cache's content address:
    /// **equal specs must imply bit-identical evaluations** of every variant
    /// (normalize defaults; never include incidental state). Returning `None`
    /// (the default) keeps the evaluator out of the cache entirely — correct
    /// for closures and anything nondeterministic.
    fn spec(&self) -> Option<JsonValue> {
        None
    }

    /// Evaluates the variant at `index` of the space. `graph` is the flattened
    /// single-variant SPI graph for `choice`; `incumbent` is the best feasible
    /// cost seen job-wide at call time (`u64::MAX` until a first result), which
    /// smart evaluators may use to cut their own internal search.
    ///
    /// # Errors
    ///
    /// Evaluation errors are counted per shard and do not abort the job.
    fn evaluate(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
    ) -> Result<Evaluation>;

    /// As [`evaluate`](Self::evaluate), as the drain calls it: with a
    /// [`SpanSink`] the evaluator may record its internal stages into (the
    /// default [`PartitionEvaluator`] times its compile lowering and partition
    /// search separately), and with `keep`, which answers whether the caller
    /// will keep a feasible result of a given cost. The drain keeps only the
    /// variants that enter its shard report's top-K, so an evaluator whose
    /// `detail` is costly may return an empty one whenever `keep(cost)` is
    /// false — the partition evaluator renders task names only for the
    /// entrants. The default implementation ignores both and delegates, so
    /// evaluators that always return a ready `detail` need not care.
    fn evaluate_spanned(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
        spans: &SpanSink,
        keep: &dyn Fn(u64) -> bool,
    ) -> Result<Evaluation> {
        let _ = (spans, keep);
        self.evaluate(index, choice, graph, incumbent)
    }

    /// Binds this evaluator to one job, whose variants `flattener` produces.
    /// The registry calls it once per job, where it builds the job's engine —
    /// at submit and again when [`JobRegistry::restore`] resumes the job — and
    /// from then on bounds and evaluates every variant of the job through the
    /// evaluator returned here, or through `self` when this returns `None`
    /// (the default).
    ///
    /// This is the place to precompute whatever is fixed for the whole job:
    /// the default [`PartitionEvaluator`] builds a table of every task name
    /// [`Flattener::process_names`] lists — its rank in name order and its
    /// parameters — so no variant hashes or sorts a name. A bound evaluator
    /// must return what `self` would for every variant, bound and `spec`
    /// included, and should keep `self` alive while it lives.
    ///
    /// [`JobRegistry::restore`]: crate::JobRegistry::restore
    fn bind(self: Arc<Self>, flattener: &Flattener) -> Option<Arc<dyn Evaluator>> {
        let _ = flattener;
        None
    }
}

// --- task parameters -------------------------------------------------------------------

/// How the default evaluator assigns [`TaskParams`] to the tasks of a
/// flattened graph. Both forms are pure functions of the task *name*, so the
/// same spec yields the same parameters in every process — a requirement for
/// the ndjson frontend, where submitter and service do not share memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskParamsSpec {
    /// Every task gets the same parameters.
    Uniform(TaskParams),
    /// Parameters derived from an FNV-1a hash of the task name, seeded — a
    /// deterministic stand-in for per-task estimation data that still gives
    /// every task an individual profile.
    Hashed {
        /// Salt mixed into the name hash.
        seed: u64,
    },
}

impl Default for TaskParamsSpec {
    fn default() -> Self {
        TaskParamsSpec::Hashed { seed: 42 }
    }
}

impl TaskParamsSpec {
    /// The parameters for the task named `name`.
    pub fn params_for(&self, name: &str) -> TaskParams {
        match *self {
            TaskParamsSpec::Uniform(params) => params,
            TaskParamsSpec::Hashed { seed } => {
                let h = fnv1a(name, seed);
                TaskParams {
                    sw_time: 5 + h % 16,
                    period: 100,
                    hw_area: 15 + (h >> 8) % 30,
                    synthesis_effort: 4 + (h >> 16) % 8,
                }
            }
        }
    }
}

impl ToJson for TaskParamsSpec {
    fn to_json(&self) -> JsonValue {
        match self {
            TaskParamsSpec::Hashed { seed } => JsonValue::object([
                ("kind", JsonValue::string("hashed")),
                ("seed", seed.to_json()),
            ]),
            TaskParamsSpec::Uniform(params) => JsonValue::object([
                ("kind", JsonValue::string("uniform")),
                ("sw_time", params.sw_time.to_json()),
                ("period", params.period.to_json()),
                ("hw_area", params.hw_area.to_json()),
                ("synthesis_effort", params.synthesis_effort.to_json()),
            ]),
        }
    }
}

/// Seeded FNV-1a over the task name; stable across processes and runs.
fn fnv1a(name: &str, seed: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// --- the default evaluator -------------------------------------------------------------

/// The default evaluator: pose the flattened graph as a single-application
/// compiled problem ([`compiled_from_flat_graph`] — straight from the node
/// slab, no string-keyed intermediate) and run the compiled partition search;
/// the variant's cost is the optimal total implementation cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEvaluator {
    /// Cost of the embedded processor (incurred once if anything runs in SW).
    pub processor_cost: u64,
    /// Task-parameter assignment.
    pub params: TaskParamsSpec,
    /// Schedulability view for the search.
    pub mode: FeasibilityMode,
    /// Search strategy. The exact strategies (`Exhaustive`, `BranchAndBound`,
    /// and `Auto` within its exhaustive range) make service results
    /// bit-identical to a serial `optimize_serial_reference` sweep.
    pub strategy: SearchStrategy,
}

impl Default for PartitionEvaluator {
    fn default() -> Self {
        PartitionEvaluator {
            processor_cost: 15,
            params: TaskParamsSpec::default(),
            mode: FeasibilityMode::PerApplication,
            strategy: SearchStrategy::Auto,
        }
    }
}

impl PartitionEvaluator {
    /// Renders the mapping summary carried into reports; deterministic for a
    /// given optimum, so two processes evaluating the same variant agree.
    fn detail_of(cost: &spi_synth::CostBreakdown) -> String {
        format!(
            "hw=[{}] sw=[{}]",
            cost.hardware_tasks.join(","),
            cost.software_tasks.join(",")
        )
    }

    /// The bound every path shares: each task ends up in software (then the
    /// processor is bought once) or in hardware (then its area is paid).
    fn bound_of(&self, area_sum: u64) -> u64 {
        self.processor_cost.min(area_sum)
    }

    /// Searches a lowered variant: records the lowering, which began at
    /// `lower_start`, as [`PhaseId::CompileLower`] and the search as
    /// [`PhaseId::PartitionSearch`] — three stamps for two stages, the
    /// lowering's end being the search's start (stamps are free on a
    /// disabled sink) — and renders `detail` only when `keep` asks for it.
    fn search_lowered(
        &self,
        lowered: spi_synth::Result<CompiledProblem>,
        lower_start: SpanStamp,
        spans: &SpanSink,
        keep: &dyn Fn(u64) -> bool,
    ) -> Result<Evaluation> {
        let lower_end = spans.stamp();
        spans.record_complete(PhaseId::CompileLower, lower_start, lower_end);
        let compiled = lowered?;
        // The name-free search core: no mapping, breakdown or report is built.
        let searched = search_compiled(&compiled, self.mode, self.strategy);
        spans.record_complete(PhaseId::PartitionSearch, lower_end, spans.stamp());
        match searched {
            Ok(outcome) => Ok(Evaluation {
                cost: outcome.total,
                feasible: true,
                detail: if keep(outcome.total) {
                    Self::detail_of(&compiled.cost_breakdown_of(&outcome.hardware))
                } else {
                    String::new()
                },
            }),
            Err(SynthError::Infeasible(message)) => Ok(Evaluation {
                cost: u64::MAX,
                feasible: false,
                detail: message,
            }),
            Err(other) => Err(ExploreError::Synth(other)),
        }
    }
}

impl Evaluator for PartitionEvaluator {
    /// The canonical spec: every field spelled out with defaults normalized,
    /// so differently-worded wire submissions of the same evaluator digest
    /// identically. All four search strategies return the same *optimal cost*
    /// (greedy excepted), but the spec still distinguishes them — `Greedy` is
    /// approximate and the others can differ in `detail` only via tie-break,
    /// which they all share; being conservative here only costs cache hits,
    /// never correctness.
    fn spec(&self) -> Option<JsonValue> {
        let strategy = match self.strategy {
            SearchStrategy::Auto => "auto",
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::BranchAndBound => "branch_and_bound",
            SearchStrategy::Greedy => "greedy",
        };
        let mode = match self.mode {
            FeasibilityMode::PerApplication => "per_application",
            FeasibilityMode::Serialized => "serialized",
        };
        Some(JsonValue::object([
            ("kind", JsonValue::string("partition")),
            ("processor_cost", self.processor_cost.to_json()),
            ("strategy", JsonValue::string(strategy)),
            ("mode", JsonValue::string(mode)),
            ("params", self.params.to_json()),
        ]))
    }

    /// Every task ends up either in software (then the processor is bought
    /// once) or in hardware (then its area is paid), so
    /// `min(processor_cost, Σ areas)` can never exceed the true optimum.
    fn lower_bound(&self, _choice: &VariantChoice, graph: &SpiGraph) -> u64 {
        let area_sum: u64 = graph
            .processes()
            .filter(|p| !p.is_virtual())
            .map(|p| self.params.params_for(p.name()).hw_area)
            .sum();
        self.bound_of(area_sum)
    }

    fn evaluate(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
    ) -> Result<Evaluation> {
        self.evaluate_spanned(
            index,
            choice,
            graph,
            incumbent,
            &SpanSink::disabled(),
            &|_| true,
        )
    }

    fn evaluate_spanned(
        &self,
        _index: usize,
        _choice: &VariantChoice,
        graph: &SpiGraph,
        _incumbent: u64,
        spans: &SpanSink,
        keep: &dyn Fn(u64) -> bool,
    ) -> Result<Evaluation> {
        let lower_start = spans.stamp();
        // The direct slab → CompiledProblem path: one pass over the flattened
        // graph's node slab, no string-keyed SynthesisProblem in between
        // (bit-identical to the two-step path, pinned in spi-synth's tests).
        let compiled = compiled_from_flat_graph(graph, self.processor_cost, |name| {
            Some(self.params.params_for(name))
        });
        self.search_lowered(compiled, lower_start, spans, keep)
    }

    /// Binds to the job's [`TaskTable`]: every task name `flattener` can
    /// produce, with its rank in name order and its parameters, so bounding
    /// and lowering a variant read the table instead of hashing names'
    /// bytes and sorting them.
    fn bind(self: Arc<Self>, flattener: &Flattener) -> Option<Arc<dyn Evaluator>> {
        let table = TaskTable::new(flattener.process_names(), |name| {
            Some(self.params.params_for(name))
        });
        Some(Arc::new(BoundPartitionEvaluator {
            evaluator: self,
            table,
        }))
    }
}

/// A [`PartitionEvaluator`] bound to one job by [`Evaluator::bind`]: the job's
/// [`TaskTable`] answers every task's rank and parameters. A graph with a task
/// outside the table — none a job's flattener produces — takes the unbound
/// evaluator's path, so the answers are the unbound evaluator's everywhere.
struct BoundPartitionEvaluator {
    /// The evaluator as submitted, kept alive for as long as the job uses it.
    evaluator: Arc<PartitionEvaluator>,
    table: TaskTable,
}

impl Evaluator for BoundPartitionEvaluator {
    fn lower_bound(&self, choice: &VariantChoice, graph: &SpiGraph) -> u64 {
        match self.table.hardware_area_sum(graph) {
            Some(area_sum) => self.evaluator.bound_of(area_sum),
            None => self.evaluator.lower_bound(choice, graph),
        }
    }

    /// The submitted evaluator's: binding changes no result, so it must not
    /// change the cache address either.
    fn spec(&self) -> Option<JsonValue> {
        self.evaluator.spec()
    }

    fn evaluate(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
    ) -> Result<Evaluation> {
        self.evaluate_spanned(
            index,
            choice,
            graph,
            incumbent,
            &SpanSink::disabled(),
            &|_| true,
        )
    }

    fn evaluate_spanned(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
        spans: &SpanSink,
        keep: &dyn Fn(u64) -> bool,
    ) -> Result<Evaluation> {
        let lower_start = spans.stamp();
        match self.table.compile(graph, self.evaluator.processor_cost) {
            Some(compiled) => self
                .evaluator
                .search_lowered(compiled, lower_start, spans, keep),
            None => self
                .evaluator
                .evaluate_spanned(index, choice, graph, incumbent, spans, keep),
        }
    }
}

// --- closure adapter -------------------------------------------------------------------

/// A boxed lower-bound function, as attached by [`FnEvaluator::with_lower_bound`].
type BoundFn = Box<dyn Fn(&VariantChoice, &SpiGraph) -> u64 + Send + Sync>;

/// Adapts a closure into an [`Evaluator`] — the cheapest way to plug a custom
/// metric (or a test probe) into the service.
pub struct FnEvaluator<F> {
    function: F,
    bound: Option<BoundFn>,
    spec: Option<JsonValue>,
}

impl<F> FnEvaluator<F>
where
    F: Fn(usize, &VariantChoice, &SpiGraph) -> Result<Evaluation> + Send + Sync,
{
    /// Wraps `function` as an evaluator with no pruning bound.
    pub fn new(function: F) -> Self {
        FnEvaluator {
            function,
            bound: None,
            spec: None,
        }
    }

    /// Attaches a lower-bound function enabling cross-shard pruning.
    pub fn with_lower_bound(
        mut self,
        bound: impl Fn(&VariantChoice, &SpiGraph) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.bound = Some(Box::new(bound));
        self
    }

    /// Attaches a canonical spec, making the closure **cacheable** — the
    /// caller thereby asserts the closure is a pure function of
    /// `(index, choice, graph)`. Mostly a test hook; production evaluators
    /// should implement [`Evaluator::spec`] directly.
    pub fn with_spec(mut self, spec: JsonValue) -> Self {
        self.spec = Some(spec);
        self
    }
}

impl<F> Evaluator for FnEvaluator<F>
where
    F: Fn(usize, &VariantChoice, &SpiGraph) -> Result<Evaluation> + Send + Sync,
{
    fn lower_bound(&self, choice: &VariantChoice, graph: &SpiGraph) -> u64 {
        self.bound.as_ref().map_or(0, |bound| bound(choice, graph))
    }

    fn spec(&self) -> Option<JsonValue> {
        self.spec.clone()
    }

    fn evaluate(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        _incumbent: u64,
    ) -> Result<Evaluation> {
        (self.function)(index, choice, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_synth::from_flat_graph;
    use spi_synth::partition::optimize as optimize_partition;
    use spi_workloads::scaling_system;

    #[test]
    fn hashed_params_are_deterministic_and_name_dependent() {
        let spec = TaskParamsSpec::Hashed { seed: 42 };
        assert_eq!(spec.params_for("common0"), spec.params_for("common0"));
        assert_ne!(spec.params_for("common0"), spec.params_for("common1"));
        let other_seed = TaskParamsSpec::Hashed { seed: 7 };
        assert_ne!(spec.params_for("common0"), other_seed.params_for("common0"));
        // Ranges hold.
        let p = spec.params_for("anything");
        assert!((5..21).contains(&p.sw_time));
        assert!((15..45).contains(&p.hw_area));
        assert_eq!(p.period, 100);
    }

    #[test]
    fn partition_evaluator_matches_a_direct_search() {
        let system = scaling_system(3, 2).unwrap();
        let flattener = spi_variants::Flattener::new(&system).unwrap();
        let evaluator = PartitionEvaluator::default();
        let (choice, graph) = flattener.flatten_at(0).unwrap();
        let evaluation = evaluator.evaluate(0, &choice, &graph, u64::MAX).unwrap();
        assert!(evaluation.feasible);

        let problem = from_flat_graph(&graph, evaluator.processor_cost, |name| {
            Some(evaluator.params.params_for(name))
        })
        .unwrap();
        let direct = optimize_partition(
            &problem,
            FeasibilityMode::PerApplication,
            SearchStrategy::Exhaustive,
        )
        .unwrap();
        assert_eq!(evaluation.cost, direct.cost.total());
        assert_eq!(
            evaluation.detail,
            PartitionEvaluator::detail_of(&direct.cost)
        );
    }

    #[test]
    fn partition_lower_bound_is_admissible() {
        let system = scaling_system(4, 2).unwrap();
        let flattener = spi_variants::Flattener::new(&system).unwrap();
        let evaluator = PartitionEvaluator::default();
        for index in 0..flattener.space().count() {
            let (choice, graph) = flattener.flatten_at(index).unwrap();
            let bound = evaluator.lower_bound(&choice, &graph);
            let evaluation = evaluator
                .evaluate(index, &choice, &graph, u64::MAX)
                .unwrap();
            assert!(
                bound <= evaluation.cost,
                "bound {bound} exceeds cost {} at variant {index}",
                evaluation.cost
            );
        }
    }

    #[test]
    fn partition_spec_is_canonical_and_distinguishes_semantics() {
        let default = PartitionEvaluator::default();
        let spec = default.spec().unwrap();
        // Canonical: the same evaluator always produces byte-identical specs.
        assert_eq!(
            spec.to_line(),
            PartitionEvaluator::default().spec().unwrap().to_line()
        );
        assert_eq!(spec.get("kind").unwrap().as_str(), Some("partition"));
        // Any semantic difference changes the spec.
        for other in [
            PartitionEvaluator {
                processor_cost: 99,
                ..PartitionEvaluator::default()
            },
            PartitionEvaluator {
                strategy: SearchStrategy::Greedy,
                ..PartitionEvaluator::default()
            },
            PartitionEvaluator {
                mode: FeasibilityMode::Serialized,
                ..PartitionEvaluator::default()
            },
            PartitionEvaluator {
                params: TaskParamsSpec::Hashed { seed: 7 },
                ..PartitionEvaluator::default()
            },
            PartitionEvaluator {
                params: TaskParamsSpec::Uniform(TaskParams {
                    sw_time: 10,
                    period: 100,
                    hw_area: 20,
                    synthesis_effort: 5,
                }),
                ..PartitionEvaluator::default()
            },
        ] {
            assert_ne!(other.spec().unwrap().to_line(), spec.to_line());
        }
    }

    #[test]
    fn fn_evaluator_exposes_closure_and_bound() {
        let evaluator = FnEvaluator::new(|index, _choice, _graph| {
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        })
        .with_lower_bound(|_, _| 5);
        let graph = SpiGraph::new("g");
        let choice = VariantChoice::new();
        assert_eq!(evaluator.lower_bound(&choice, &graph), 5);
        assert_eq!(
            evaluator
                .evaluate(9, &choice, &graph, u64::MAX)
                .unwrap()
                .cost,
            9
        );
    }
}
