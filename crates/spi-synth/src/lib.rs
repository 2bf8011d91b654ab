//! # spi-synth
//!
//! The synthesis substrate used by the paper's evaluation (Section 5): hardware/software
//! partitioning of systems with function variants, with the cost model, schedulability
//! check and design-time model needed to regenerate Table 1 ("System Cost") and to
//! compare against the prior-work baselines.
//!
//! The crate is organised around [`SynthesisProblem`] (tasks, applications, processor
//! parameters). Problems are either built directly or derived from a
//! [`spi_variants::VariantSystem`] via [`bridge::from_variant_system`]. Five flows solve
//! a problem:
//!
//! | Flow | Function | Table 1 row |
//! |---|---|---|
//! | per-application synthesis | [`strategy::independent`] | "Application 1/2" |
//! | superposition of architectures | [`strategy::superposition`] | "Superposition" |
//! | variant-aware joint synthesis | [`strategy::variant_aware`] | "With variants" |
//! | serialization baseline \[6\] | [`baseline::serialization`] | (comparison) |
//! | incremental baseline \[5\] | [`baseline::incremental`] | (comparison) |
//!
//! [`report::table1`] assembles the paper-style table; [`design_time`] implements the
//! decision-counting design-time model; [`partition`] contains the exhaustive,
//! branch-and-bound and greedy optimizers; [`schedule`] the mutual-exclusion-aware
//! schedulability analysis; [`compiled`] the dense-index lowering
//! ([`CompiledProblem`]) and the incremental schedulability/cost state
//! ([`IncrementalEvaluator`]) the searches run on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bridge;
pub mod compiled;
pub mod cost;
pub mod design_time;
pub mod error;
pub mod partition;
pub mod problem;
pub mod report;
pub mod schedule;
pub mod strategy;

pub use bridge::{
    compiled_from_flat_graph, from_flat_graph, from_variant_system, TaskParams, TaskTable,
};
pub use compiled::{CompiledProblem, HardwareSet, IncrementalEvaluator, TaskId};
pub use cost::CostBreakdown;
pub use error::SynthError;
pub use partition::{FeasibilityMode, PartitionResult, SearchOutcome, SearchStrategy};
pub use problem::{ApplicationSpec, Implementation, Mapping, SynthesisProblem, TaskSpec};
pub use report::{table1, Table1, Table1Row};
pub use schedule::{FeasibilityReport, Schedule};
pub use strategy::SynthesisResult;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SynthError>;
