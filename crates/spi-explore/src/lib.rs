//! # spi-explore
//!
//! The sharded variant-space **exploration service**: the layer that turns the
//! fast library core of this reproduction (lazy enumeration, `Flattener`,
//! compiled partition search) into a serving system.
//!
//! The paper's variant representation exists so a synthesis flow can *explore*
//! the combinational space of function variants. `spi-variants` makes single
//! points of that space cheap (`Flattener::flatten_at`), `spi-synth` makes
//! evaluating one point fast (the compiled searches); this crate makes the
//! *space* drainable: a long-running [`ExplorationService`] owns a registry of
//! jobs, leases **strided shards** to a worker pool under an expiring
//! [job/lease protocol](crate::registry), evaluates every flattened variant
//! through a pluggable [`Evaluator`], aggregates batched, incrementally-merged
//! [`ShardReport`]s, and shares a best-cost **incumbent** that workers use to
//! prune across shards without ever changing the exact `(cost, index)`
//! optimum.
//!
//! Two frontends expose it:
//!
//! * **in-process** — [`ExplorationService::submit`] / [`poll`] / [`cancel`] /
//!   [`wait`]: a client polls for progress, and `wait` blocks on the
//!   service's own condition variable until the job is terminal;
//! * **cross-process** — the `spi-explored` binary speaking newline-delimited
//!   JSON over stdin/stdout ([`wire::serve`]), with every symbol resolved to
//!   its string on the way out and re-interned on the way in.
//!
//! ```rust
//! use std::sync::Arc;
//! use spi_explore::{ExplorationService, JobSpec, PartitionEvaluator, ServiceConfig};
//!
//! # fn main() -> Result<(), spi_explore::ExploreError> {
//! let service = ExplorationService::start(ServiceConfig::with_workers(4));
//! let system = spi_workloads::scaling_system(6, 2).expect("system builds"); // 64 variants
//! let job = service.submit(
//!     &system,
//!     JobSpec { name: "demo".into(), shard_count: 8, top_k: 4, ..JobSpec::default() },
//!     Arc::new(PartitionEvaluator::default()),
//! )?;
//! let status = service.wait(job)?;
//! assert_eq!(status.report.accounted(), 64);
//! println!("optimum: {:?}", status.best());
//! # Ok(())
//! # }
//! ```
//!
//! A finished job costs a small, bounded amount: it leaves the running table
//! as the status [`poll`] answers for it, at most 1,024 of those are kept
//! (evicted in finish order), and a retired id answers
//! [`ExploreError::Retired`] at once. The
//! result cache holds each result as its canonical line, 16 MiB of them by
//! default, and a job submitted with [`JobSpec::use_cache`] off neither reads
//! nor writes it.
//!
//! Observers read, and the registry pushes nothing: the scheduler-decision
//! trace and the span rings are followed by cursor
//! ([`ExplorationService::read_trace_since`],
//! [`ExplorationService::spans_since`]), the metrics are read as snapshots.
//! The registry's effects are its WAL records, those rings and the metrics;
//! it holds no channel to any client.
//!
//! [`poll`]: ExplorationService::poll
//! [`cancel`]: ExplorationService::cancel
//! [`wait`]: ExplorationService::wait

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod durability;
pub mod error;
pub mod evaluator;
pub mod health;
pub mod registry;
pub mod report;
pub mod service;
pub mod wire;
pub mod worker;

pub use clock::{Clock, SimClock, SystemClock};
pub use durability::{DurabilitySink, MemorySink, MemoryStore, WalSink};
pub use error::ExploreError;
pub use evaluator::{Evaluation, Evaluator, FnEvaluator, PartitionEvaluator, TaskParamsSpec};
pub use health::{
    HealthFinding, HealthObservation, HealthReport, LeaseHealth, TenantHealth, Watchdog,
};
pub use registry::{
    JobId, JobRegistry, JobSpec, JobState, JobStatus, LatencyQuantiles, Lease, LeaseId,
    RegistryConfig, RestoreStats,
};
pub use report::{BestVariant, ShardReport};
pub use service::{ExplorationService, ServiceConfig};
pub use spi_model::introspect::{GraphEdge, GraphNode, GraphSnapshot};
pub use spi_store::sched::HedgeConfig;
pub use spi_store::span::{
    CriticalPath, PhaseId, Profile, Span, SpanDrain, SpanIds, SpanRecorder, SpanSink,
};
pub use spi_store::trace::{ReplayReport, TraceDrain, TraceEvent, TraceReplay, TracedEvent};
pub use spi_store::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use wire::{
    handle_request, rebuild_from_recipe, run_session, serve, status_from_json, WireStatus,
};
pub use worker::{drain_lease, DrainOutcome, FlushResponse};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ExploreError>;
