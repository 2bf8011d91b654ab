//! The hardware/software synthesis problem.
//!
//! The synthesis scenario of Section 5 of the paper is a classic HW/SW partitioning
//! problem: a set of **task units** (the common processes of a system and its function
//! variants/clusters) must each be mapped to software (sharing an embedded processor) or
//! to a dedicated hardware unit (ASIC), such that the timing behaviour of every
//! **application** (variant combination) stays correct, while cost and design time are
//! minimised.
//!
//! [`SynthesisProblem`] captures the decision space; the strategies in
//! [`crate::strategy`] and the baselines in [`crate::baseline`] solve it in the four
//! styles compared by Table 1 of the paper.
//!
//! The string-keyed types here are the *construction and inspection* surface. The
//! searches in [`crate::partition`] never run on them directly: they lower a problem
//! once into the dense-index [`crate::compiled::CompiledProblem`] and materialize
//! [`Mapping`]s only for the final result.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::SynthError;
use crate::Result;

/// Where a task unit is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Implementation {
    /// On the shared embedded processor.
    Software,
    /// On a dedicated hardware unit (ASIC).
    Hardware,
}

impl fmt::Display for Implementation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Implementation::Software => write!(f, "SW"),
            Implementation::Hardware => write!(f, "HW"),
        }
    }
}

/// One synthesizable unit: a common process or one function variant (cluster).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique task name (e.g. `"PA"` or `"interface1/cluster1"`).
    pub name: String,
    /// Execution time per activation when implemented in software.
    pub sw_time: u64,
    /// Activation period (used to compute processor utilization).
    pub period: u64,
    /// Cost of the dedicated hardware unit implementing this task.
    pub hw_area: u64,
    /// Relative effort of synthesizing this task once (drives the design-time model).
    pub synthesis_effort: u64,
}

impl TaskSpec {
    /// Creates a task with the given name and parameters.
    pub fn new(
        name: impl Into<String>,
        sw_time: u64,
        period: u64,
        hw_area: u64,
        synthesis_effort: u64,
    ) -> Self {
        TaskSpec {
            name: name.into(),
            sw_time,
            period: period.max(1),
            hw_area,
            synthesis_effort,
        }
    }

    /// Processor utilization of the task in permille (`1000 * sw_time / period`).
    pub fn utilization_permille(&self) -> u64 {
        utilization_permille(self.sw_time, self.period)
    }
}

/// Processor utilization in permille of a task that runs `sw_time` every `period`
/// (`1000 * sw_time / period`; a zero period counts as one, as [`TaskSpec::new`]
/// stores it). The one formula behind [`TaskSpec::utilization_permille`] and the
/// bridge's name-free lowering, which must agree bit for bit.
pub(crate) fn utilization_permille(sw_time: u64, period: u64) -> u64 {
    sw_time.saturating_mul(1000) / period.max(1)
}

/// One application: a set of task units that execute together (one variant combination).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplicationSpec {
    /// Application name (e.g. `"application1"`).
    pub name: String,
    /// Names of the tasks the application consists of.
    pub tasks: Vec<String>,
}

impl ApplicationSpec {
    /// Creates an application from task names.
    pub fn new(name: impl Into<String>, tasks: impl IntoIterator<Item = String>) -> Self {
        ApplicationSpec {
            name: name.into(),
            tasks: tasks.into_iter().collect(),
        }
    }
}

/// A complete HW/SW partitioning problem over a set of applications.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthesisProblem {
    name: String,
    tasks: BTreeMap<String, TaskSpec>,
    applications: Vec<ApplicationSpec>,
    /// Cost of instantiating the shared processor.
    pub processor_cost: u64,
    /// Schedulable utilization of the processor in permille (1000 = 100 %).
    pub processor_capacity_permille: u64,
}

impl SynthesisProblem {
    /// Creates an empty problem with the given processor parameters.
    pub fn new(name: impl Into<String>, processor_cost: u64) -> Self {
        SynthesisProblem {
            name: name.into(),
            tasks: BTreeMap::new(),
            applications: Vec::new(),
            processor_cost,
            processor_capacity_permille: 1000,
        }
    }

    /// Problem name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds (or replaces) a task.
    pub fn add_task(&mut self, task: TaskSpec) {
        self.tasks.insert(task.name.clone(), task);
    }

    /// Adds a task and returns `self` for chaining.
    pub fn with_task(mut self, task: TaskSpec) -> Self {
        self.add_task(task);
        self
    }

    /// Adds an application.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::UnknownTask`] if the application references a task that has
    /// not been added yet.
    pub fn add_application(&mut self, application: ApplicationSpec) -> Result<()> {
        for task in &application.tasks {
            if !self.tasks.contains_key(task) {
                return Err(SynthError::UnknownTask(task.clone()));
            }
        }
        self.applications.push(application);
        Ok(())
    }

    /// Sets the processor capacity in permille and returns `self` for chaining.
    pub fn with_capacity_permille(mut self, capacity: u64) -> Self {
        self.processor_capacity_permille = capacity;
        self
    }

    /// All tasks in name order.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskSpec> {
        self.tasks.values()
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Looks up a task by name.
    pub fn task(&self, name: &str) -> Option<&TaskSpec> {
        self.tasks.get(name)
    }

    /// All applications in insertion order.
    pub fn applications(&self) -> &[ApplicationSpec] {
        &self.applications
    }

    /// Looks up an application by name.
    pub fn application(&self, name: &str) -> Option<&ApplicationSpec> {
        self.applications.iter().find(|a| a.name == name)
    }

    /// Task names that occur in **every** application (the variant-independent, common
    /// part of the system).
    pub fn common_tasks(&self) -> Vec<&str> {
        if self.applications.is_empty() {
            return Vec::new();
        }
        let mut common: BTreeSet<&str> = self.applications[0]
            .tasks
            .iter()
            .map(String::as_str)
            .collect();
        for application in &self.applications[1..] {
            let present: BTreeSet<&str> = application.tasks.iter().map(String::as_str).collect();
            common = common.intersection(&present).copied().collect();
        }
        common.into_iter().collect()
    }

    /// Task names that occur in at least one but not every application (the
    /// variant-dependent parts).
    pub fn variant_tasks(&self) -> Vec<&str> {
        let common: BTreeSet<&str> = self.common_tasks().into_iter().collect();
        let mut out: Vec<&str> = self
            .applications
            .iter()
            .flat_map(|a| a.tasks.iter().map(String::as_str))
            .filter(|t| !common.contains(t))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Restricts the problem to a single application (used by per-application
    /// synthesis).
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::UnknownApplication`] if the application does not exist.
    pub fn restrict_to(&self, application: &str) -> Result<SynthesisProblem> {
        let app = self
            .application(application)
            .ok_or_else(|| SynthError::UnknownApplication(application.to_string()))?
            .clone();
        let tasks = app
            .tasks
            .iter()
            .filter_map(|t| self.tasks.get(t).cloned())
            .map(|t| (t.name.clone(), t))
            .collect();
        Ok(SynthesisProblem {
            name: format!("{}::{}", self.name, application),
            tasks,
            applications: vec![app],
            processor_cost: self.processor_cost,
            processor_capacity_permille: self.processor_capacity_permille,
        })
    }

    /// Basic sanity checks: at least one application, every application non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::NoApplications`] or [`SynthError::Validation`].
    pub fn validate(&self) -> Result<()> {
        if self.applications.is_empty() {
            return Err(SynthError::NoApplications);
        }
        for application in &self.applications {
            if application.tasks.is_empty() {
                return Err(SynthError::Validation(format!(
                    "application `{}` has no tasks",
                    application.name
                )));
            }
        }
        Ok(())
    }
}

/// A complete mapping decision: implementation per task.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    decisions: BTreeMap<String, Implementation>,
}

impl Mapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns an implementation to a task.
    pub fn assign(&mut self, task: impl Into<String>, implementation: Implementation) {
        self.decisions.insert(task.into(), implementation);
    }

    /// Assigns an implementation and returns `self` for chaining.
    pub fn with(mut self, task: impl Into<String>, implementation: Implementation) -> Self {
        self.assign(task, implementation);
        self
    }

    /// Implementation chosen for a task, if decided.
    pub fn implementation(&self, task: &str) -> Option<Implementation> {
        self.decisions.get(task).copied()
    }

    /// All decided task names mapped to software, in name order.
    pub fn software_tasks(&self) -> Vec<&str> {
        self.decisions
            .iter()
            .filter(|(_, i)| **i == Implementation::Software)
            .map(|(t, _)| t.as_str())
            .collect()
    }

    /// All decided task names mapped to hardware, in name order.
    pub fn hardware_tasks(&self) -> Vec<&str> {
        self.decisions
            .iter()
            .filter(|(_, i)| **i == Implementation::Hardware)
            .map(|(t, _)| t.as_str())
            .collect()
    }

    /// Iterates over all decisions.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Implementation)> {
        self.decisions.iter().map(|(t, i)| (t.as_str(), *i))
    }

    /// Number of decided tasks.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Returns `true` if no decision has been made.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Merges another mapping into this one. On conflict hardware wins (a task that any
    /// sub-design put into hardware stays in hardware when superposing architectures).
    pub fn merge_prefer_hardware(&mut self, other: &Mapping) {
        for (task, implementation) in &other.decisions {
            match self.decisions.get(task) {
                Some(Implementation::Hardware) => {}
                Some(Implementation::Software) | None => {
                    let chosen = if *implementation == Implementation::Hardware
                        || self.decisions.get(task) == Some(&Implementation::Hardware)
                    {
                        Implementation::Hardware
                    } else {
                        *implementation
                    };
                    self.decisions.insert(task.clone(), chosen);
                }
            }
        }
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SW: {{{}}} HW: {{{}}}",
            self.software_tasks().join(", "),
            self.hardware_tasks().join(", ")
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The Table 1 calibration: processor cost 15, ASIC areas PA=26 / PB=30 /
    /// cluster1=19 / cluster2=23, utilizations 25 % / 15 % / 70 % / 80 %, synthesis
    /// efforts 10 / 12 / 45 / 51. With these parameters per-application synthesis
    /// yields totals 34 and 38, superposition 57 and variant-aware synthesis 41 —
    /// exactly the cost structure of the paper's Table 1.
    pub(crate) fn toy_problem() -> SynthesisProblem {
        let mut problem = SynthesisProblem::new("toy", 15)
            .with_task(TaskSpec::new("PA", 25, 100, 26, 10))
            .with_task(TaskSpec::new("PB", 15, 100, 30, 12))
            .with_task(TaskSpec::new("cluster1", 70, 100, 19, 45))
            .with_task(TaskSpec::new("cluster2", 80, 100, 23, 51));
        problem
            .add_application(ApplicationSpec::new(
                "application1",
                ["PA", "PB", "cluster1"].map(String::from),
            ))
            .unwrap();
        problem
            .add_application(ApplicationSpec::new(
                "application2",
                ["PA", "PB", "cluster2"].map(String::from),
            ))
            .unwrap();
        problem
    }

    #[test]
    fn utilization_is_time_over_period() {
        let task = TaskSpec::new("t", 30, 100, 5, 1);
        assert_eq!(task.utilization_permille(), 300);
        let zero_period = TaskSpec::new("z", 10, 0, 5, 1);
        assert_eq!(zero_period.period, 1, "period is clamped to at least one");
    }

    #[test]
    fn common_and_variant_tasks_are_identified() {
        let problem = toy_problem();
        assert_eq!(problem.common_tasks(), vec!["PA", "PB"]);
        assert_eq!(problem.variant_tasks(), vec!["cluster1", "cluster2"]);
    }

    #[test]
    fn application_must_reference_known_tasks() {
        let mut problem = SynthesisProblem::new("p", 10);
        let err = problem
            .add_application(ApplicationSpec::new("a", ["ghost".to_string()]))
            .unwrap_err();
        assert!(matches!(err, SynthError::UnknownTask(_)));
    }

    #[test]
    fn restrict_to_keeps_only_that_applications_tasks() {
        let problem = toy_problem();
        let app1 = problem.restrict_to("application1").unwrap();
        assert_eq!(app1.task_count(), 3);
        assert!(app1.task("cluster2").is_none());
        assert_eq!(app1.applications().len(), 1);
        assert!(matches!(
            problem.restrict_to("ghost"),
            Err(SynthError::UnknownApplication(_))
        ));
    }

    #[test]
    fn validate_catches_empty_problems() {
        let problem = SynthesisProblem::new("empty", 1);
        assert!(matches!(
            problem.validate(),
            Err(SynthError::NoApplications)
        ));
        assert!(toy_problem().validate().is_ok());
    }

    #[test]
    fn mapping_accessors_and_merge() {
        let mut a = Mapping::new()
            .with("PA", Implementation::Software)
            .with("cluster1", Implementation::Hardware);
        let b = Mapping::new()
            .with("PA", Implementation::Hardware)
            .with("cluster2", Implementation::Hardware);
        a.merge_prefer_hardware(&b);
        assert_eq!(a.implementation("PA"), Some(Implementation::Hardware));
        assert_eq!(a.hardware_tasks(), vec!["PA", "cluster1", "cluster2"]);
        assert!(a.software_tasks().is_empty());
        assert_eq!(a.len(), 3);
        assert!(a.to_string().contains("HW"));
    }
}
