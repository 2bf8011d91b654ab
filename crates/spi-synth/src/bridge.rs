//! Deriving a synthesis problem from a variant-aware SPI model.
//!
//! The paper's point is that the *representation* enables overall optimization; this
//! module is the link between the representation ([`spi_variants::VariantSystem`]) and
//! the decision problem ([`SynthesisProblem`]): every non-virtual process of the common
//! part becomes a task, every cluster of every interface becomes a task, and every
//! variant combination becomes an application.

use std::collections::HashMap;

use spi_model::{BuildSymHasher, SpiGraph, Sym};
use spi_variants::VariantSystem;

use crate::compiled::{CompiledProblem, LoweredTask};
use crate::error::SynthError;
use crate::problem::{utilization_permille, ApplicationSpec, SynthesisProblem, TaskSpec};
use crate::Result;

/// Cost/effort annotation of one task unit, supplied by the caller (estimation is out of
/// scope of the paper; the workloads crate ships the Table 1 calibration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskParams {
    /// Software execution time per activation.
    pub sw_time: u64,
    /// Activation period.
    pub period: u64,
    /// Hardware (ASIC) cost.
    pub hw_area: u64,
    /// Synthesis effort for the design-time model.
    pub synthesis_effort: u64,
}

/// Derives a [`SynthesisProblem`] from a variant system.
///
/// `params` is consulted once per task unit: with the plain process name for common
/// processes and with `"{interface}/{cluster}"` for variants. Virtual (environment)
/// processes are skipped — they are not implemented and must not be synthesized.
///
/// # Errors
///
/// Returns [`SynthError::Validation`] if `params` returns `None` for a task unit, and
/// propagates variant-space errors.
pub fn from_variant_system(
    system: &VariantSystem,
    processor_cost: u64,
    params: impl FnMut(&str) -> Option<TaskParams>,
) -> Result<SynthesisProblem> {
    let (mut problem, common_tasks) = derive_tasks(system, processor_cost, params)?;
    // Lazy enumeration: each combination is decoded, turned into an application and
    // dropped — the cross product is never materialized as a whole.
    for (index, choice) in system.variant_space().choices_iter().enumerate() {
        add_application(&mut problem, &common_tasks, index, &choice)?;
    }
    problem.validate()?;
    Ok(problem)
}

/// Derives a single-application [`SynthesisProblem`] from one **flattened**
/// (single-variant) SPI graph: every non-virtual process becomes a task, and one
/// application spans them all.
///
/// This is the per-variant evaluation step the exploration service pays per point of
/// the variant space — [`from_variant_system`] poses the *joint* problem over every
/// combination at once, while this poses the *independent* problem of a single
/// combination, the unit a [`spi_variants::Flattener`] emits. `params` is consulted
/// with the flattened process names (common names verbatim, spliced variants as
/// `"{interface}/{cluster}/{process}"`).
///
/// # Errors
///
/// Returns [`SynthError::Validation`] if `params` returns `None` for a process or the
/// graph has no non-virtual process (an application must span at least one task).
pub fn from_flat_graph(
    graph: &SpiGraph,
    processor_cost: u64,
    mut params: impl FnMut(&str) -> Option<TaskParams>,
) -> Result<SynthesisProblem> {
    let mut problem = SynthesisProblem::new(graph.name(), processor_cost);
    let mut tasks: Vec<String> = Vec::new();
    for process in graph.processes() {
        if process.is_virtual() {
            continue;
        }
        let name = process.name().to_string();
        let p = params(&name).ok_or_else(|| {
            SynthError::Validation(format!("no synthesis parameters for task `{name}`"))
        })?;
        problem.add_task(TaskSpec::new(
            &name,
            p.sw_time,
            p.period,
            p.hw_area,
            p.synthesis_effort,
        ));
        tasks.push(name);
    }
    problem.add_application(ApplicationSpec::new("flattened", tasks))?;
    problem.validate()?;
    Ok(problem)
}

/// Derives the **compiled** form of [`from_flat_graph`] directly from the graph's
/// node slab: every non-virtual process becomes a task of one all-spanning
/// application, lowered straight into a [`CompiledProblem`] without materializing
/// the string-keyed `SynthesisProblem` in between.
///
/// This is the per-variant path for callers without a per-job [`TaskTable`]. It
/// allocates a fixed number of buffers whatever the task count: task names stay
/// the graph's interned symbols (`params` borrows each name, nothing copies it),
/// the tasks are ranked by one sort of their names, and the ranked core under
/// [`TaskTable::compile`] assigns ids from those ranks. The result is
/// bit-identical to `CompiledProblem::compile(&from_flat_graph(..)?)` (task ids in
/// name order, the application's member list in graph iteration order), a property
/// pinned by a differential test.
///
/// # Errors
///
/// As [`from_flat_graph`]: [`SynthError::Validation`] if `params` returns `None`
/// for a process or the graph has no non-virtual process.
pub fn compiled_from_flat_graph(
    graph: &SpiGraph,
    processor_cost: u64,
    mut params: impl FnMut(&str) -> Option<TaskParams>,
) -> Result<CompiledProblem> {
    let mut tasks: Vec<LoweredTask> = Vec::with_capacity(graph.process_count());
    for process in graph.processes() {
        if process.is_virtual() {
            continue;
        }
        let name = process.name();
        let p = params(name).ok_or_else(|| {
            SynthError::Validation(format!("no synthesis parameters for task `{name}`"))
        })?;
        tasks.push(LoweredTask {
            name: process.name_sym(),
            utilization: utilization_permille(p.sw_time, p.period),
            hw_area: p.hw_area,
        });
    }
    let order = rank_by_name(&tasks);
    lower_flattened(processor_cost, &tasks, order)
}

/// The ranked core's keys for `tasks` (`rank << 32 | position`), with each
/// task's rank in byte-wise name order among `tasks` taken from one sort of the
/// names — the order a [`TaskTable`] precomputes once per job. Equal names share
/// a rank, which the core reports as a duplicate. The keys come out in sorted
/// order.
fn rank_by_name(tasks: &[LoweredTask]) -> Vec<u64> {
    let mut by_name: Vec<(&'static str, u32)> = tasks
        .iter()
        .enumerate()
        .map(|(at, task)| (task.name.as_str(), at as u32))
        .collect();
    by_name.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut rank = 0u64;
    by_name
        .iter()
        .enumerate()
        .map(|(position, &(name, at))| {
            if position > 0 && by_name[position - 1].0 != name {
                rank = position as u64;
            }
            rank << 32 | u64::from(at)
        })
        .collect()
}

/// The ranked lowering core shared by [`compiled_from_flat_graph`] and
/// [`TaskTable::compile`]: one all-spanning application named `flattened`, at
/// the capacity [`SynthesisProblem::new`] defaults to.
fn lower_flattened(
    processor_cost: u64,
    tasks: &[LoweredTask],
    order: Vec<u64>,
) -> Result<CompiledProblem> {
    CompiledProblem::single_application(
        "flattened",
        processor_cost,
        DEFAULT_CAPACITY_PERMILLE,
        tasks,
        order,
    )
}

/// The schedulable-capacity default of [`SynthesisProblem::new`], which the direct
/// compiled path must match for bit-identical results.
const DEFAULT_CAPACITY_PERMILLE: u64 = 1000;

/// A job's lowering table: for every process name the job's flattened graphs can
/// contain (see [`spi_variants::Flattener::process_names`]), the name's rank in
/// name order and its lowered parameters, keyed by the name's interned symbol.
///
/// Built once per job, it answers what [`compiled_from_flat_graph`] derives per
/// variant: [`compile`](Self::compile) lowers a graph with table reads and an
/// integer sort of ranks — no name is copied or compared, and a lookup hashes
/// the symbol's index with one multiply — and
/// [`hardware_area_sum`](Self::hardware_area_sum) sums its tasks' areas. Both
/// return `None` for a graph with a task outside the table, so a caller can fall
/// back to the per-name path and never gets a different answer.
#[derive(Debug, Clone)]
pub struct TaskTable {
    entries: HashMap<Sym, TableEntry, BuildSymHasher>,
}

#[derive(Debug, Clone, Copy)]
struct TableEntry {
    rank: u32,
    utilization: u64,
    hw_area: u64,
}

impl TaskTable {
    /// Builds the table over `names`, asking `params` once per distinct name; a
    /// name `params` has no answer for stays out of the table, so graphs
    /// containing it fall back as any unknown name does.
    pub fn new(
        names: impl IntoIterator<Item = Sym>,
        mut params: impl FnMut(&str) -> Option<TaskParams>,
    ) -> TaskTable {
        let mut names: Vec<Sym> = names.into_iter().collect();
        names.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
        names.dedup();
        let entries = names
            .iter()
            .enumerate()
            .filter_map(|(rank, &name)| {
                let p = params(name.as_str())?;
                let entry = TableEntry {
                    rank: rank as u32,
                    utilization: utilization_permille(p.sw_time, p.period),
                    hw_area: p.hw_area,
                };
                Some((name, entry))
            })
            .collect();
        TaskTable { entries }
    }

    /// Total hardware area of `graph`'s non-virtual processes, or `None` if one
    /// of them is not in the table.
    pub fn hardware_area_sum(&self, graph: &SpiGraph) -> Option<u64> {
        graph
            .processes()
            .filter(|process| !process.is_virtual())
            .map(|process| {
                self.entries
                    .get(&process.name_sym())
                    .map(|entry| entry.hw_area)
            })
            .sum()
    }

    /// [`compiled_from_flat_graph`] from table reads: bit-identical to it with
    /// the `params` the table was built from, or `None` if a non-virtual
    /// process of `graph` is not in the table.
    ///
    /// # Errors
    ///
    /// Inside the `Some`: [`SynthError::Validation`] if the graph has no
    /// non-virtual process or two processes share a name.
    pub fn compile(
        &self,
        graph: &SpiGraph,
        processor_cost: u64,
    ) -> Option<Result<CompiledProblem>> {
        let mut tasks: Vec<LoweredTask> = Vec::with_capacity(graph.process_count());
        let mut order: Vec<u64> = Vec::with_capacity(graph.process_count());
        for process in graph.processes() {
            if process.is_virtual() {
                continue;
            }
            let name = process.name_sym();
            let entry = self.entries.get(&name)?;
            order.push(u64::from(entry.rank) << 32 | tasks.len() as u64);
            tasks.push(LoweredTask {
                name,
                utilization: entry.utilization,
                hw_area: entry.hw_area,
            });
        }
        Some(lower_flattened(processor_cost, &tasks, order))
    }
}

/// Shared task-derivation step: every non-virtual common process and every cluster
/// becomes a task. Returns the problem (without applications) and the common task
/// names in process order.
fn derive_tasks(
    system: &VariantSystem,
    processor_cost: u64,
    mut params: impl FnMut(&str) -> Option<TaskParams>,
) -> Result<(SynthesisProblem, Vec<String>)> {
    let mut problem = SynthesisProblem::new(system.name(), processor_cost);

    let mut common_tasks: Vec<String> = Vec::new();
    for process in system.common().processes() {
        if process.is_virtual() {
            continue;
        }
        let name = process.name().to_string();
        let p = params(&name).ok_or_else(|| {
            SynthError::Validation(format!("no synthesis parameters for task `{name}`"))
        })?;
        problem.add_task(TaskSpec::new(
            &name,
            p.sw_time,
            p.period,
            p.hw_area,
            p.synthesis_effort,
        ));
        common_tasks.push(name);
    }

    for attachment in system.attachments() {
        let interface = attachment.interface();
        for cluster in interface.clusters() {
            let name = format!("{}/{}", interface.name(), cluster.name());
            let p = params(&name).ok_or_else(|| {
                SynthError::Validation(format!("no synthesis parameters for task `{name}`"))
            })?;
            problem.add_task(TaskSpec::new(
                &name,
                p.sw_time,
                p.period,
                p.hw_area,
                p.synthesis_effort,
            ));
        }
    }
    Ok((problem, common_tasks))
}

/// Adds the application for variant-space combination `index` (0-based) to `problem`.
fn add_application(
    problem: &mut SynthesisProblem,
    common_tasks: &[String],
    index: usize,
    choice: &spi_variants::VariantChoice,
) -> Result<()> {
    let mut tasks = common_tasks.to_vec();
    for (interface, cluster) in choice.iter() {
        tasks.push(format!("{interface}/{cluster}"));
    }
    problem.add_application(ApplicationSpec::new(
        format!("application{}", index + 1),
        tasks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_model::{ChannelKind, GraphBuilder, Interval};
    use spi_variants::{Cluster, Interface, VariantType};

    fn small_system() -> VariantSystem {
        let mut b = GraphBuilder::new("bridge");
        let pa = b.process("PA").latency(Interval::point(2)).build().unwrap();
        b.process("PEnv")
            .latency(Interval::point(1))
            .environment()
            .build()
            .unwrap();
        let cin = b.channel("CIn", ChannelKind::Queue).unwrap();
        let cout = b.channel("COut", ChannelKind::Queue).unwrap();
        b.connect_output(pa, cin, Interval::point(1)).unwrap();
        let _ = cout;
        let common = b.finish().unwrap();

        let cluster = |name: &str| {
            let mut cb = GraphBuilder::new(name);
            cb.process("P").latency(Interval::point(3)).build().unwrap();
            let mut cluster = Cluster::new(name, cb.finish().unwrap());
            cluster
                .add_input_port("i", "P", Interval::point(1))
                .unwrap();
            cluster
                .add_output_port("o", "P", Interval::point(1))
                .unwrap();
            cluster
        };
        let mut interface = Interface::new("if1");
        interface.add_input_port("i");
        interface.add_output_port("o");
        interface.add_cluster(cluster("v1")).unwrap();
        interface.add_cluster(cluster("v2")).unwrap();

        let mut system = VariantSystem::new(common);
        let att = system
            .attach_interface(interface, VariantType::RunTime)
            .unwrap();
        system.bind_input(att, "i", "CIn").unwrap();
        system.bind_output(att, "o", "COut").unwrap();
        system
    }

    fn default_params(_: &str) -> Option<TaskParams> {
        Some(TaskParams {
            sw_time: 10,
            period: 100,
            hw_area: 20,
            synthesis_effort: 5,
        })
    }

    #[test]
    fn tasks_and_applications_are_derived() {
        let system = small_system();
        let problem = from_variant_system(&system, 15, default_params).unwrap();
        // PA (common, non-virtual) + two clusters; the environment process is skipped.
        assert_eq!(problem.task_count(), 3);
        assert!(problem.task("PA").is_some());
        assert!(problem.task("if1/v1").is_some());
        assert!(problem.task("PEnv").is_none());
        assert_eq!(problem.applications().len(), 2);
        assert_eq!(problem.common_tasks(), vec!["PA"]);
        assert_eq!(problem.variant_tasks(), vec!["if1/v1", "if1/v2"]);
    }

    #[test]
    fn missing_parameters_are_rejected() {
        let system = small_system();
        let err = from_variant_system(&system, 15, |name| {
            (name == "PA").then_some(TaskParams {
                sw_time: 1,
                period: 10,
                hw_area: 1,
                synthesis_effort: 1,
            })
        })
        .unwrap_err();
        assert!(matches!(err, SynthError::Validation(_)));
    }

    #[test]
    fn derived_problem_is_synthesizable() {
        let system = small_system();
        let problem = from_variant_system(&system, 15, default_params).unwrap();
        let result = crate::strategy::variant_aware(&problem).unwrap();
        assert!(result.feasibility.feasible());
    }

    #[test]
    fn flat_graphs_become_single_application_problems() {
        let system = small_system();
        let choice = system.variant_space().choices_iter().next().unwrap();
        let graph = system.flatten(&choice).unwrap();
        let problem = from_flat_graph(&graph, 15, default_params).unwrap();
        // PA + the spliced cluster process; the environment process is skipped.
        assert_eq!(problem.task_count(), 2);
        assert!(problem.task("PA").is_some());
        assert!(problem.task("if1/v1/P").is_some());
        assert!(problem.task("PEnv").is_none());
        assert_eq!(problem.applications().len(), 1);
        assert_eq!(problem.applications()[0].tasks.len(), 2);
        let result = crate::partition::optimize(
            &problem,
            crate::partition::FeasibilityMode::PerApplication,
            crate::partition::SearchStrategy::Exhaustive,
        )
        .unwrap();
        assert!(result.feasibility.feasible());
    }

    #[test]
    fn compiled_from_flat_graph_matches_the_two_step_path() {
        let system = small_system();
        for choice in system.variant_space().choices_iter() {
            let graph = system.flatten(&choice).unwrap();
            let two_step =
                CompiledProblem::compile(&from_flat_graph(&graph, 15, default_params).unwrap())
                    .unwrap();
            let direct = compiled_from_flat_graph(&graph, 15, default_params).unwrap();
            assert_eq!(direct, two_step, "direct compile must be bit-identical");
            // And the searches over both return the identical optimum.
            let mode = crate::partition::FeasibilityMode::PerApplication;
            let strategy = crate::partition::SearchStrategy::Exhaustive;
            assert_eq!(
                crate::partition::optimize_compiled(&direct, mode, strategy).unwrap(),
                crate::partition::optimize_compiled(&two_step, mode, strategy).unwrap(),
            );
        }
    }

    #[test]
    fn task_table_lowers_and_bounds_like_the_per_name_path() {
        let system = small_system();
        let flattener = spi_variants::Flattener::new(&system).unwrap();
        // Distinct parameters per name, so a mixed-up slot would show.
        let params = |name: &str| {
            let weight = name.bytes().map(u64::from).sum::<u64>();
            Some(TaskParams {
                sw_time: 5 + weight % 17,
                period: 100,
                hw_area: 10 + weight % 13,
                synthesis_effort: 1,
            })
        };
        let table = TaskTable::new(flattener.process_names(), params);
        for choice in flattener.space().choices_iter() {
            let graph = flattener.flatten(&choice).unwrap();
            let direct = compiled_from_flat_graph(&graph, 15, params).unwrap();
            assert_eq!(table.compile(&graph, 15).unwrap().unwrap(), direct);
            assert_eq!(
                table.hardware_area_sum(&graph),
                Some(direct.hardware_areas().iter().sum())
            );
        }

        // A name `params` cannot answer stays out, and so does any graph with it.
        let without_pa = TaskTable::new(flattener.process_names(), |name| {
            (name != "PA").then(|| params(name).unwrap())
        });
        let graph = flattener.flatten_at(0).unwrap().1;
        assert!(without_pa.compile(&graph, 15).is_none());
        assert!(without_pa.hardware_area_sum(&graph).is_none());
        // A graph with no task lowers to the same error either way.
        let empty = SpiGraph::new("empty");
        assert!(matches!(
            table.compile(&empty, 15),
            Some(Err(SynthError::Validation(_)))
        ));
    }

    #[test]
    fn compiled_from_flat_graph_rejects_missing_params_and_empty_graphs() {
        let system = small_system();
        let choice = system.variant_space().choices_iter().next().unwrap();
        let graph = system.flatten(&choice).unwrap();
        assert!(matches!(
            compiled_from_flat_graph(&graph, 15, |_| None),
            Err(SynthError::Validation(_))
        ));
        let empty = spi_model::SpiGraph::new("empty");
        assert!(matches!(
            compiled_from_flat_graph(&empty, 15, default_params),
            Err(SynthError::Validation(_))
        ));
    }

    #[test]
    fn flat_graph_with_missing_params_or_no_tasks_is_rejected() {
        let system = small_system();
        let choice = system.variant_space().choices_iter().next().unwrap();
        let graph = system.flatten(&choice).unwrap();
        assert!(matches!(
            from_flat_graph(&graph, 15, |_| None),
            Err(SynthError::Validation(_))
        ));
        let empty = spi_model::SpiGraph::new("empty");
        assert!(matches!(
            from_flat_graph(&empty, 15, default_params),
            Err(SynthError::Validation(_))
        ));
    }
}
