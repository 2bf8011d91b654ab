//! Dense-index compilation of a synthesis problem and incremental evaluation.
//!
//! The string-keyed [`SynthesisProblem`] is convenient to build and inspect, but its
//! `BTreeMap<String, _>` lookups are poison for a search that examines millions of
//! mappings. [`CompiledProblem`] lowers a problem once into dense arrays indexed by
//! [`TaskId`] — interned task names, utilization and hardware-area vectors, the
//! application membership as one flat member array, a bitmask membership per
//! application and the reverse `task → applications` adjacency as another flat array —
//! so the partitioning searches in [`crate::partition`] never touch a `String` in
//! their inner loops, and lowering a problem costs a fixed number of allocations
//! however many tasks it has.
//!
//! [`IncrementalEvaluator`] maintains the per-application load sums and the cost
//! components of one complete mapping and updates them in *O(applications containing
//! the task)* when a single task flips between software and hardware. Its
//! [`apply`](IncrementalEvaluator::apply)/[`undo`](IncrementalEvaluator::undo) pair is
//! what lets a branch-and-bound search walk the decision tree without ever re-summing
//! an application from scratch.
//!
//! Both layers are pure accelerations: their reports are bit-identical to
//! [`crate::schedule::check`]/[`crate::schedule::check_serialized`] and
//! [`crate::cost::evaluate`] on the materialized [`Mapping`] — a property the
//! differential tests in `tests/properties.rs` pin on seeded random walks.

use std::collections::HashMap;
use std::fmt;

use spi_model::Sym;

use crate::cost::CostBreakdown;
use crate::error::SynthError;
use crate::partition::FeasibilityMode;
use crate::problem::{Implementation, Mapping, SynthesisProblem};
use crate::schedule::{ApplicationLoad, FeasibilityReport};
use crate::Result;

/// Dense index of a task inside a [`CompiledProblem`].
///
/// Ids are assigned in task-name order (the iteration order of
/// [`SynthesisProblem::tasks`]), so id `i` corresponds to bit `i` of a mapping mask in
/// the exhaustive and branch-and-bound searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The tasks a mapping puts into hardware, as a bitset over [`TaskId`]s: the
/// name-free form in which the searches report their answer (see
/// [`crate::partition::SearchOutcome`]). [`CompiledProblem::cost_breakdown_of`]
/// turns it back into task names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareSet {
    words: Vec<u64>,
}

impl HardwareSet {
    /// The set encoded by `mask` (bit `i` set = task `i` in hardware).
    pub(crate) fn from_mask(mask: u64) -> Self {
        HardwareSet { words: vec![mask] }
    }

    /// Whether `task` is in the set.
    #[inline]
    pub(crate) fn contains(&self, task: TaskId) -> bool {
        self.words
            .get(task.index() / 64)
            .is_some_and(|word| word & (1u64 << (task.index() % 64)) != 0)
    }

    /// The member tasks in ascending id (= name) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    TaskId(at as u32 * 64 + bit)
                })
            })
        })
    }
}

/// One task of a flattened graph as the bridge lowers it: the interned name and
/// the two numbers the searches read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoweredTask {
    pub(crate) name: Sym,
    pub(crate) utilization: u64,
    pub(crate) hw_area: u64,
}

/// A [`SynthesisProblem`] lowered to dense indices.
///
/// Tasks are numbered `0..task_count()` in name order; applications keep their
/// insertion order. All data needed by the searches — utilizations, hardware areas,
/// application membership (as one flat member array *and*, for up to 64 tasks, as
/// bitmasks) and the reverse `task → applications` adjacency — lives in flat `Vec`s,
/// and task names stay interned [`Sym`]s until a caller asks for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProblem {
    names: Vec<Sym>,
    utilization: Vec<u64>,
    hw_area: Vec<u64>,
    app_names: Vec<String>,
    /// Member tasks of every application, concatenated in application order, each
    /// application's members in its task order. Duplicate entries are preserved:
    /// `schedule::check` counts a task listed twice twice.
    members: Vec<TaskId>,
    /// Application `a` owns `members[members_start[a]..members_start[a + 1]]`.
    members_start: Vec<u32>,
    /// For each task: the applications it occurs in, one entry per occurrence,
    /// concatenated in task order.
    task_apps: Vec<u32>,
    /// Task `t` owns `task_apps[task_apps_start[t]..task_apps_start[t + 1]]`.
    task_apps_start: Vec<u32>,
    /// Bitmask membership per application (bit `i` = task `i` is a member). Only
    /// meaningful when `mask_ready` is set.
    membership_mask: Vec<u64>,
    /// True when the bitmask fast path is valid: fewer than 64 tasks and no
    /// application lists the same task twice.
    mask_ready: bool,
    total_utilization: u64,
    processor_cost: u64,
    capacity_permille: u64,
}

impl CompiledProblem {
    /// Lowers a problem into dense indices.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::UnknownTask`] if an application references a task the
    /// problem does not contain.
    pub fn compile(problem: &SynthesisProblem) -> Result<CompiledProblem> {
        let n = problem.task_count();
        let mut names = Vec::with_capacity(n);
        let mut utilization = Vec::with_capacity(n);
        let mut hw_area = Vec::with_capacity(n);
        let mut index: HashMap<&str, u32> = HashMap::with_capacity(n);
        for task in problem.tasks() {
            index.insert(task.name.as_str(), names.len() as u32);
            names.push(Sym::intern(&task.name));
            utilization.push(task.utilization_permille());
            hw_area.push(task.hw_area);
        }

        let applications = problem.applications();
        let mut app_names = Vec::with_capacity(applications.len());
        let mut members = Vec::new();
        let mut members_start = Vec::with_capacity(applications.len() + 1);
        let mut membership_mask = Vec::with_capacity(applications.len());
        // `full_mask()` computes `(1 << n) - 1`, so the mask fast path needs strictly
        // fewer than 64 tasks (an `n == 64` full mask would overflow the shift).
        let mut mask_ready = n < 64;
        members_start.push(0);
        for application in applications {
            let mut mask = 0u64;
            for name in &application.tasks {
                let id = *index
                    .get(name.as_str())
                    .ok_or_else(|| SynthError::UnknownTask(name.clone()))?;
                members.push(TaskId(id));
                if n < 64 {
                    let bit = 1u64 << id;
                    if mask & bit != 0 {
                        // A duplicate member contributes its utilization twice; the
                        // bitmask cannot express that, so the mask path is disabled.
                        mask_ready = false;
                    }
                    mask |= bit;
                }
            }
            app_names.push(application.name.clone());
            members_start.push(members.len() as u32);
            membership_mask.push(mask);
        }
        let (task_apps, task_apps_start) = invert_membership(n, &members, &members_start);

        Ok(CompiledProblem {
            total_utilization: utilization.iter().sum(),
            names,
            utilization,
            hw_area,
            app_names,
            members,
            members_start,
            task_apps,
            task_apps_start,
            membership_mask,
            mask_ready,
            processor_cost: problem.processor_cost,
            capacity_permille: problem.processor_capacity_permille,
        })
    }

    /// Builds a compiled problem for a **single application spanning every
    /// task**, from already-lowered tasks — no string-keyed
    /// [`SynthesisProblem`] in between, and a fixed number of allocations
    /// whatever the task count.
    ///
    /// This is the shape every flattened (single-variant) graph produces (see
    /// [`crate::bridge::compiled_from_flat_graph`] and
    /// [`crate::bridge::TaskTable`], the two ways tasks get their ranks).
    /// `order` holds one key per task, `rank << 32 | position`: the task's
    /// rank in name order (equal names share one) and its position in `tasks`.
    /// Task ids are assigned in **name order** by sorting those integers — no
    /// name is hashed or compared here, and keys handed over already sorted
    /// cost one pass — exactly as [`compile`](Self::compile) would assign them
    /// after routing through a `SynthesisProblem`, so searches over either
    /// construction return bit-identical results; the application's member
    /// list keeps the given insertion order, as an `ApplicationSpec` would.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Validation`] if `tasks` is empty (an application
    /// must span at least one task) or if two tasks share a rank (a name).
    pub(crate) fn single_application(
        application: &str,
        processor_cost: u64,
        capacity_permille: u64,
        tasks: &[LoweredTask],
        mut order: Vec<u64>,
    ) -> Result<CompiledProblem> {
        debug_assert_eq!(order.len(), tasks.len(), "one key per task");
        if tasks.is_empty() {
            return Err(SynthError::Validation(format!(
                "application `{application}` has no tasks"
            )));
        }
        // Sort a permutation, not the tasks, so the application member list
        // can keep insertion order below.
        order.sort_unstable();

        let n = tasks.len();
        let mut names = Vec::with_capacity(n);
        let mut utilization = Vec::with_capacity(n);
        let mut hw_area = Vec::with_capacity(n);
        // members[insertion index] = dense TaskId.
        let mut members = vec![TaskId(0); n];
        for (id, &key) in order.iter().enumerate() {
            let at = key as u32 as usize;
            let task = &tasks[at];
            if id > 0 && order[id - 1] >> 32 == key >> 32 {
                return Err(SynthError::Validation(format!(
                    "duplicate task name `{}`",
                    task.name
                )));
            }
            names.push(task.name);
            utilization.push(task.utilization);
            hw_area.push(task.hw_area);
            members[at] = TaskId(id as u32);
        }

        let mask = if n < 64 { (1u64 << n) - 1 } else { 0 };
        Ok(CompiledProblem {
            total_utilization: utilization.iter().sum(),
            names,
            utilization,
            hw_area,
            app_names: vec![application.to_string()],
            members,
            members_start: vec![0, n as u32],
            // Every task occurs in application 0 exactly once.
            task_apps: vec![0; n],
            task_apps_start: (0..=n as u32).collect(),
            membership_mask: vec![mask],
            mask_ready: n < 64,
            processor_cost,
            capacity_permille,
        })
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.names.len()
    }

    /// Number of applications.
    pub fn application_count(&self) -> usize {
        self.app_names.len()
    }

    /// Name of one application.
    pub fn application_name(&self, application: usize) -> &str {
        &self.app_names[application]
    }

    /// Interned task names in id order.
    pub fn names(&self) -> &[Sym] {
        &self.names
    }

    /// Name of one task.
    pub fn name_of(&self, task: TaskId) -> &'static str {
        self.names[task.index()].as_str()
    }

    /// Looks up the id of a task by name.
    pub fn task_id(&self, name: &str) -> Option<TaskId> {
        // Names are in sorted (BTreeMap) order, so a binary search suffices.
        self.names
            .binary_search_by(|candidate| candidate.as_str().cmp(name))
            .ok()
            .map(|index| TaskId(index as u32))
    }

    /// Processor utilizations in permille, indexed by task id.
    pub fn utilizations(&self) -> &[u64] {
        &self.utilization
    }

    /// Hardware (ASIC) areas, indexed by task id.
    pub fn hardware_areas(&self) -> &[u64] {
        &self.hw_area
    }

    /// Member tasks of one application, in the application's task order.
    pub fn application_tasks(&self, application: usize) -> &[TaskId] {
        let start = self.members_start[application] as usize;
        let end = self.members_start[application + 1] as usize;
        &self.members[start..end]
    }

    /// Applications containing a task, one entry per occurrence.
    pub fn applications_of_task(&self, task: TaskId) -> &[u32] {
        let start = self.task_apps_start[task.index()] as usize;
        let end = self.task_apps_start[task.index() + 1] as usize;
        &self.task_apps[start..end]
    }

    /// Cost of the shared processor.
    pub fn processor_cost(&self) -> u64 {
        self.processor_cost
    }

    /// Schedulable processor capacity in permille.
    pub fn capacity_permille(&self) -> u64 {
        self.capacity_permille
    }

    /// Sum of all task utilizations (the all-software serialized load).
    pub fn total_utilization_permille(&self) -> u64 {
        self.total_utilization
    }

    fn full_mask(&self) -> u64 {
        // A hard assert: at 64+ tasks the shift would overflow (panic in debug,
        // silently produce an empty mask in release) and every mask-based query
        // would return garbage. The cost is one predictable branch per call.
        assert!(
            self.names.len() < 64,
            "mask queries need fewer than 64 tasks"
        );
        (1u64 << self.names.len()) - 1
    }

    /// Shared report builder, bit-identical to [`crate::schedule::check`] /
    /// [`crate::schedule::check_serialized`]: `load_of_application` supplies the
    /// per-application software loads, `serialized_load` the all-concurrent sum.
    fn build_feasibility_report(
        &self,
        mode: FeasibilityMode,
        load_of_application: impl Fn(usize) -> u64,
        serialized_load: u64,
    ) -> FeasibilityReport {
        let applications = match mode {
            FeasibilityMode::PerApplication => (0..self.app_names.len())
                .map(|app| {
                    let load = load_of_application(app);
                    ApplicationLoad {
                        application: self.app_names[app].clone(),
                        load_permille: load,
                        feasible: load <= self.capacity_permille,
                    }
                })
                .collect(),
            FeasibilityMode::Serialized => vec![ApplicationLoad {
                application: "serialized".to_string(),
                load_permille: serialized_load,
                feasible: serialized_load <= self.capacity_permille,
            }],
        };
        FeasibilityReport {
            applications,
            capacity_permille: self.capacity_permille,
        }
    }

    /// Software load of one application when `is_hardware` says which tasks are in
    /// hardware, summed over the member list (duplicates count twice).
    fn application_load(&self, application: usize, is_hardware: impl Fn(usize) -> bool) -> u64 {
        self.application_tasks(application)
            .iter()
            .filter(|task| !is_hardware(task.index()))
            .map(|task| self.utilization[task.index()])
            .sum()
    }

    /// The mapping `hardware` describes: every task in the set in hardware, every
    /// other task in software.
    pub(crate) fn mapping_of(&self, hardware: &HardwareSet) -> Mapping {
        let mut mapping = Mapping::new();
        for (index, name) in self.names.iter().enumerate() {
            let implementation = if hardware.contains(TaskId(index as u32)) {
                Implementation::Hardware
            } else {
                Implementation::Software
            };
            mapping.assign(name.as_str(), implementation);
        }
        mapping
    }

    /// Cost breakdown of the mapping `hardware` describes, bit-identical to
    /// [`crate::cost::evaluate`] on the materialized mapping.
    pub fn cost_breakdown_of(&self, hardware: &HardwareSet) -> CostBreakdown {
        let mut breakdown = CostBreakdown::default();
        for (index, name) in self.names.iter().enumerate() {
            if hardware.contains(TaskId(index as u32)) {
                breakdown.hardware_tasks.push(name.as_str().to_string());
                breakdown.hardware_cost += self.hw_area[index];
            } else {
                breakdown.software_tasks.push(name.as_str().to_string());
            }
        }
        if !breakdown.software_tasks.is_empty() {
            breakdown.processor_cost = self.processor_cost;
        }
        breakdown
    }

    /// Feasibility report of the mapping `hardware` describes, bit-identical to
    /// [`crate::schedule::check`] / [`crate::schedule::check_serialized`].
    pub(crate) fn feasibility_report_of(
        &self,
        hardware: &HardwareSet,
        mode: FeasibilityMode,
    ) -> FeasibilityReport {
        let is_hardware = |index: usize| hardware.contains(TaskId(index as u32));
        let serialized = match mode {
            FeasibilityMode::Serialized => {
                self.total_utilization
                    - hardware
                        .iter()
                        .map(|task| self.utilization[task.index()])
                        .sum::<u64>()
            }
            FeasibilityMode::PerApplication => 0,
        };
        self.build_feasibility_report(
            mode,
            |app| self.application_load(app, is_hardware),
            serialized,
        )
    }

    /// Encodes a complete [`Mapping`] as a mask.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Validation`] if a task has no decision.
    pub fn mask_of_mapping(&self, mapping: &Mapping) -> Result<u64> {
        assert!(
            self.names.len() < 64,
            "mask mappings need fewer than 64 tasks"
        );
        let mut mask = 0u64;
        for (index, name) in self.names.iter().enumerate() {
            match mapping.implementation(name.as_str()) {
                Some(Implementation::Hardware) => mask |= 1u64 << index,
                Some(Implementation::Software) => {}
                None => {
                    return Err(SynthError::Validation(format!(
                        "task `{name}` has no implementation decision"
                    )))
                }
            }
        }
        Ok(mask)
    }

    /// Software load of one application under `mask`, in permille.
    ///
    /// # Panics
    ///
    /// Like every `*_of_mask` query, panics for problems with 64 tasks or more —
    /// a `u64` mask cannot address them.
    pub fn application_load_of_mask(&self, application: usize, mask: u64) -> u64 {
        assert!(
            self.names.len() < 64,
            "mask queries need fewer than 64 tasks"
        );
        if self.mask_ready {
            let mut software = self.membership_mask[application] & !mask;
            let mut load = 0u64;
            while software != 0 {
                load += self.utilization[software.trailing_zeros() as usize];
                software &= software - 1;
            }
            load
        } else {
            self.application_load(application, |index| mask & (1u64 << index) != 0)
        }
    }

    /// Serialized (all variants concurrent) software load under `mask`, in permille.
    pub fn serialized_load_of_mask(&self, mask: u64) -> u64 {
        let mut hardware = mask & self.full_mask();
        let mut load = self.total_utilization;
        while hardware != 0 {
            load -= self.utilization[hardware.trailing_zeros() as usize];
            hardware &= hardware - 1;
        }
        load
    }

    /// Whether the mapping encoded by `mask` is schedulable under `mode`.
    pub fn feasible_mask(&self, mask: u64, mode: FeasibilityMode) -> bool {
        match mode {
            FeasibilityMode::PerApplication => (0..self.app_names.len())
                .all(|app| self.application_load_of_mask(app, mask) <= self.capacity_permille),
            FeasibilityMode::Serialized => {
                self.serialized_load_of_mask(mask) <= self.capacity_permille
            }
        }
    }

    /// Total hardware area of the tasks `mask` puts into hardware.
    pub fn hardware_area_of_mask(&self, mask: u64) -> u64 {
        let mut bits = mask & self.full_mask();
        let mut area = 0u64;
        while bits != 0 {
            area += self.hw_area[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        area
    }

    /// Total cost (hardware areas + processor if any task stays in software).
    pub fn total_cost_of_mask(&self, mask: u64) -> u64 {
        let area = self.hardware_area_of_mask(mask);
        if mask & self.full_mask() == self.full_mask() {
            area
        } else {
            area + self.processor_cost
        }
    }
}

/// The reverse adjacency of a flat member array: for each of the `n` tasks, the
/// applications listing it, one entry per occurrence and in application order, as
/// one flat array plus per-task start offsets.
fn invert_membership(n: usize, members: &[TaskId], members_start: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for task in members {
        start[task.index() + 1] += 1;
    }
    for at in 0..n {
        start[at + 1] += start[at];
    }
    let mut cursor = start.clone();
    let mut task_apps = vec![0u32; members.len()];
    for (app, bounds) in members_start.windows(2).enumerate() {
        for task in &members[bounds[0] as usize..bounds[1] as usize] {
            let slot = &mut cursor[task.index()];
            task_apps[*slot as usize] = app as u32;
            *slot += 1;
        }
    }
    (task_apps, start)
}

/// Incrementally maintained schedulability and cost state of one complete mapping.
///
/// The evaluator always represents a *total* assignment (every task is software or
/// hardware); a branch-and-bound search models "undecided" by parking undecided tasks
/// in hardware, where they contribute no processor load. Flipping one task updates
/// the per-application loads in O(applications containing the task) and every other
/// aggregate in O(1).
#[derive(Debug, Clone)]
pub struct IncrementalEvaluator<'p> {
    problem: &'p CompiledProblem,
    implementations: Vec<Implementation>,
    app_loads: Vec<u64>,
    overloaded_applications: usize,
    serialized_load: u64,
    hardware_area: u64,
    software_count: usize,
    trail: Vec<(TaskId, Implementation)>,
}

impl<'p> IncrementalEvaluator<'p> {
    /// Starts from the all-software mapping.
    pub fn new(problem: &'p CompiledProblem) -> Self {
        let app_loads: Vec<u64> = (0..problem.application_count())
            .map(|app| problem.application_load(app, |_| false))
            .collect();
        let overloaded = app_loads
            .iter()
            .filter(|&&load| load > problem.capacity_permille)
            .count();
        IncrementalEvaluator {
            implementations: vec![Implementation::Software; problem.task_count()],
            app_loads,
            overloaded_applications: overloaded,
            serialized_load: problem.total_utilization,
            hardware_area: 0,
            software_count: problem.task_count(),
            trail: Vec::with_capacity(problem.task_count() + 1),
            problem,
        }
    }

    /// Starts from the all-hardware mapping (zero load everywhere; the state a
    /// branch-and-bound search begins from, with every task still "undecided").
    pub fn all_hardware(problem: &'p CompiledProblem) -> Self {
        IncrementalEvaluator {
            implementations: vec![Implementation::Hardware; problem.task_count()],
            app_loads: vec![0; problem.application_count()],
            overloaded_applications: 0,
            serialized_load: 0,
            hardware_area: problem.hw_area.iter().sum(),
            software_count: 0,
            trail: Vec::with_capacity(problem.task_count() + 1),
            problem,
        }
    }

    /// The compiled problem this evaluator runs over.
    pub fn problem(&self) -> &'p CompiledProblem {
        self.problem
    }

    /// Current implementation of a task.
    pub fn implementation(&self, task: TaskId) -> Implementation {
        self.implementations[task.index()]
    }

    /// Assigns `implementation` to `task`, recording the previous choice for
    /// [`undo`](Self::undo). Assigning the current implementation is a recorded no-op,
    /// so apply/undo always stay balanced.
    pub fn apply(&mut self, task: TaskId, implementation: Implementation) {
        let previous = self.implementations[task.index()];
        self.trail.push((task, previous));
        if previous != implementation {
            self.flip(task, implementation);
        }
    }

    /// Reverts the most recent [`apply`](Self::apply). Returns `false` if there is
    /// nothing left to undo.
    pub fn undo(&mut self) -> bool {
        let Some((task, previous)) = self.trail.pop() else {
            return false;
        };
        if self.implementations[task.index()] != previous {
            self.flip(task, previous);
        }
        true
    }

    /// Number of not-yet-undone [`apply`](Self::apply) calls.
    pub fn depth(&self) -> usize {
        self.trail.len()
    }

    /// Forgets the undo trail, making the current state the new baseline.
    pub fn commit(&mut self) {
        self.trail.clear();
    }

    fn flip(&mut self, task: TaskId, implementation: Implementation) {
        let index = task.index();
        let utilization = self.problem.utilization[index];
        let capacity = self.problem.capacity_permille;
        match implementation {
            Implementation::Hardware => {
                for &app in self.problem.applications_of_task(task) {
                    let old = self.app_loads[app as usize];
                    let new = old - utilization;
                    if old > capacity && new <= capacity {
                        self.overloaded_applications -= 1;
                    }
                    self.app_loads[app as usize] = new;
                }
                self.serialized_load -= utilization;
                self.hardware_area += self.problem.hw_area[index];
                self.software_count -= 1;
            }
            Implementation::Software => {
                for &app in self.problem.applications_of_task(task) {
                    let old = self.app_loads[app as usize];
                    let new = old + utilization;
                    if old <= capacity && new > capacity {
                        self.overloaded_applications += 1;
                    }
                    self.app_loads[app as usize] = new;
                }
                self.serialized_load += utilization;
                self.hardware_area -= self.problem.hw_area[index];
                self.software_count += 1;
            }
        }
        self.implementations[index] = implementation;
    }

    /// Software load of one application, in permille.
    pub fn load_permille(&self, application: usize) -> u64 {
        self.app_loads[application]
    }

    /// Serialized software load (all tasks assumed concurrent), in permille.
    pub fn serialized_load_permille(&self) -> u64 {
        self.serialized_load
    }

    /// Number of applications whose load currently exceeds the capacity.
    pub fn overloaded_applications(&self) -> usize {
        self.overloaded_applications
    }

    /// Whether the current mapping is schedulable under `mode`. O(1).
    pub fn feasible(&self, mode: FeasibilityMode) -> bool {
        match mode {
            FeasibilityMode::PerApplication => self.overloaded_applications == 0,
            FeasibilityMode::Serialized => self.serialized_load <= self.problem.capacity_permille,
        }
    }

    /// Number of tasks currently in software.
    pub fn software_count(&self) -> usize {
        self.software_count
    }

    /// Number of tasks currently in hardware.
    pub fn hardware_count(&self) -> usize {
        self.problem.task_count() - self.software_count
    }

    /// Total area of the tasks currently in hardware.
    pub fn hardware_area(&self) -> u64 {
        self.hardware_area
    }

    /// Total cost of the current mapping (hardware areas + processor if any task is
    /// in software). O(1).
    pub fn total_cost(&self) -> u64 {
        if self.software_count > 0 {
            self.hardware_area + self.problem.processor_cost
        } else {
            self.hardware_area
        }
    }

    /// The tasks currently in hardware, without materializing any name.
    pub(crate) fn hardware_set(&self) -> HardwareSet {
        let mut words = vec![0u64; self.implementations.len().div_ceil(64).max(1)];
        for (index, implementation) in self.implementations.iter().enumerate() {
            if *implementation == Implementation::Hardware {
                words[index / 64] |= 1u64 << (index % 64);
            }
        }
        HardwareSet { words }
    }

    /// Materializes the current mapping.
    pub fn mapping(&self) -> Mapping {
        self.problem.mapping_of(&self.hardware_set())
    }

    /// Cost breakdown of the current mapping, bit-identical to
    /// [`crate::cost::evaluate`].
    pub fn cost_breakdown(&self) -> CostBreakdown {
        self.problem.cost_breakdown_of(&self.hardware_set())
    }

    /// Feasibility report of the current mapping, bit-identical to
    /// [`crate::schedule::check`] / [`crate::schedule::check_serialized`].
    pub fn feasibility_report(&self, mode: FeasibilityMode) -> FeasibilityReport {
        self.problem
            .build_feasibility_report(mode, |app| self.app_loads[app], self.serialized_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::evaluate;
    use crate::problem::tests::toy_problem;
    use crate::schedule::{check, check_serialized};

    #[test]
    fn compile_lowers_tasks_in_name_order() {
        let compiled = CompiledProblem::compile(&toy_problem()).unwrap();
        assert_eq!(compiled.task_count(), 4);
        assert_eq!(compiled.application_count(), 2);
        assert_eq!(
            compiled.names(),
            ["PA", "PB", "cluster1", "cluster2"]
                .map(Sym::intern)
                .as_slice()
        );
        assert_eq!(compiled.task_id("cluster1"), Some(TaskId(2)));
        assert_eq!(compiled.task_id("ghost"), None);
        assert_eq!(compiled.name_of(TaskId(0)), "PA");
        assert_eq!(compiled.utilizations(), &[250, 150, 700, 800]);
        assert_eq!(compiled.hardware_areas(), &[26, 30, 19, 23]);
        assert_eq!(compiled.total_utilization_permille(), 1900);
        // application1 = {PA, PB, cluster1} = bits 0, 1, 2.
        assert_eq!(
            compiled.application_tasks(0),
            &[TaskId(0), TaskId(1), TaskId(2)]
        );
        assert_eq!(compiled.applications_of_task(TaskId(0)), &[0, 1]);
        assert_eq!(compiled.applications_of_task(TaskId(2)), &[0]);
    }

    #[test]
    fn mask_round_trip_and_mask_queries_match_the_oracle() {
        let problem = toy_problem();
        let compiled = CompiledProblem::compile(&problem).unwrap();
        for mask in 0u64..16 {
            let hardware = HardwareSet::from_mask(mask);
            let mapping = compiled.mapping_of(&hardware);
            assert_eq!(compiled.mask_of_mapping(&mapping).unwrap(), mask);
            assert_eq!(
                compiled.cost_breakdown_of(&hardware),
                evaluate(&problem, &mapping, None).unwrap()
            );
            for mode in [FeasibilityMode::PerApplication, FeasibilityMode::Serialized] {
                let oracle = match mode {
                    FeasibilityMode::PerApplication => check(&problem, &mapping).unwrap(),
                    FeasibilityMode::Serialized => check_serialized(&problem, &mapping).unwrap(),
                };
                assert_eq!(compiled.feasibility_report_of(&hardware, mode), oracle);
                assert_eq!(compiled.feasible_mask(mask, mode), oracle.feasible());
            }
            assert_eq!(
                compiled.total_cost_of_mask(mask),
                compiled.cost_breakdown_of(&hardware).total()
            );
        }
    }

    #[test]
    fn incomplete_mapping_has_no_mask() {
        let compiled = CompiledProblem::compile(&toy_problem()).unwrap();
        let partial = Mapping::new().with("PA", Implementation::Hardware);
        assert!(matches!(
            compiled.mask_of_mapping(&partial),
            Err(SynthError::Validation(_))
        ));
    }

    #[test]
    fn evaluator_apply_undo_round_trips() {
        let compiled = CompiledProblem::compile(&toy_problem()).unwrap();
        let mut evaluator = IncrementalEvaluator::new(&compiled);
        assert_eq!(evaluator.software_count(), 4);
        assert_eq!(evaluator.total_cost(), 15);
        assert!(!evaluator.feasible(FeasibilityMode::PerApplication));

        evaluator.apply(TaskId(0), Implementation::Hardware);
        assert_eq!(evaluator.hardware_area(), 26);
        assert_eq!(evaluator.total_cost(), 41);
        assert!(evaluator.feasible(FeasibilityMode::PerApplication));
        assert!(!evaluator.feasible(FeasibilityMode::Serialized));
        assert_eq!(evaluator.load_permille(0), 150 + 700);
        assert_eq!(evaluator.serialized_load_permille(), 1650);

        // A no-op apply is recorded and undone symmetrically.
        evaluator.apply(TaskId(0), Implementation::Hardware);
        assert_eq!(evaluator.depth(), 2);
        assert!(evaluator.undo());
        assert_eq!(evaluator.total_cost(), 41);
        assert!(evaluator.undo());
        assert_eq!(evaluator.total_cost(), 15);
        assert_eq!(evaluator.software_count(), 4);
        assert!(!evaluator.undo());
    }

    #[test]
    fn all_hardware_start_has_zero_load() {
        let compiled = CompiledProblem::compile(&toy_problem()).unwrap();
        let mut evaluator = IncrementalEvaluator::all_hardware(&compiled);
        assert_eq!(evaluator.software_count(), 0);
        assert_eq!(evaluator.hardware_area(), 26 + 30 + 19 + 23);
        assert_eq!(evaluator.total_cost(), 98);
        assert!(evaluator.feasible(FeasibilityMode::PerApplication));
        assert!(evaluator.feasible(FeasibilityMode::Serialized));
        evaluator.apply(TaskId(1), Implementation::Software);
        assert_eq!(evaluator.total_cost(), 26 + 19 + 23 + 15);
        assert_eq!(evaluator.load_permille(0), 150);
        evaluator.commit();
        assert_eq!(evaluator.depth(), 0);
        assert!(!evaluator.undo());
    }

    #[test]
    fn duplicate_members_disable_the_mask_path_but_stay_correct() {
        use crate::problem::{ApplicationSpec, TaskSpec};
        let mut problem = SynthesisProblem::new("dup", 10);
        problem.add_task(TaskSpec::new("a", 30, 100, 5, 1));
        problem.add_task(TaskSpec::new("b", 20, 100, 7, 1));
        problem
            .add_application(ApplicationSpec::new(
                "twice",
                ["a", "a", "b"].map(String::from),
            ))
            .unwrap();
        let compiled = CompiledProblem::compile(&problem).unwrap();
        assert!(!compiled.mask_ready);
        // `a` listed twice contributes its utilization twice, exactly as check() does.
        let mapping = compiled.mapping_of(&HardwareSet::from_mask(0));
        let oracle = check(&problem, &mapping).unwrap();
        assert_eq!(oracle.applications[0].load_permille, 300 + 300 + 200);
        assert_eq!(compiled.application_load_of_mask(0, 0), 800);
        let evaluator = IncrementalEvaluator::new(&compiled);
        assert_eq!(evaluator.load_permille(0), 800);
    }
}
