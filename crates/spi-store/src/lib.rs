//! # spi-store
//!
//! Durable state and scheduling policy for the exploration service — the
//! layer that lets `spi-explore` survive restarts, skip repeat work and stay
//! fair under multi-tenant load:
//!
//! * [`wal`] — an append-only, checksummed write-ahead log with
//!   snapshot+replay recovery (`wal.log` + `snapshot.json` in a store
//!   directory). Records and snapshots are opaque JSON lines; the registry
//!   in `spi-explore` defines the actual transition records and replays
//!   them, and reads a snapshot's text ([`SnapshotText`]) entry by entry.
//! * [`cache`] — a content-addressed result cache keyed by the
//!   [`Digest`](spi_model::digest::Digest) of the canonical JSON identifying
//!   a computation; repeat submissions become O(1) lookups instead of
//!   worker-pool sweeps.
//! * [`sched`] — weighted-fair queuing across tenants
//!   ([`FairScheduler`], which also keeps each tenant's [`TenantRow`] of
//!   enqueues, service, backlog and virtual-time lag) and the latency
//!   bookkeeping behind hedged re-leases for straggler shards
//!   ([`LatencyTracker`], [`HedgeConfig`]).
//! * [`trace`] — a bounded ring of every scheduler decision
//!   ([`TraceCapture`]) plus an offline checker ([`TraceReplay`]) that
//!   asserts WFQ's proportional-share bound and exactly-once lease
//!   accounting over any captured run. Observers follow the ring by cursor
//!   ([`TraceCapture::read_since`]); nothing is pushed to them, so no
//!   reader can slow the scheduler.
//! * [`metrics`] — lock-free counters, gauges and log-linear bounded-error
//!   histograms ([`Histogram`]), organized in a [`MetricsRegistry`] with
//!   static metric ids; the continuous aggregate layer next to the
//!   event-level trace. It holds only what it counts itself: gauges are
//!   set from their owners' state when a snapshot is taken.
//! * [`span`] — hierarchical phase spans ([`SpanRecorder`], [`SpanSink`]):
//!   monotonic enter/exit pairs in bounded per-worker rings, carrying
//!   parent ids, static [`PhaseId`]s, waitgraph-compatible attribution and
//!   the trace-seq window they overlapped; aggregated into per-phase
//!   [`Profile`]s with folded flamegraph stacks and critical paths, or
//!   written as Chrome trace-event JSON ([`span::write_chrome_trace`]).
//!
//! The crate deliberately knows nothing about jobs, leases or evaluators:
//! everything is expressed over raw ids and JSON payloads, so the store can
//! be tested exhaustively on its own and reused by any future service layer.
//!
//! ```rust
//! use spi_model::json::JsonValue;
//! use spi_store::{Wal, ResultCache, FairScheduler};
//!
//! # fn main() -> Result<(), spi_store::StoreError> {
//! let dir = std::env::temp_dir().join(format!("spi-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let (mut wal, recovered) = Wal::open(&dir)?;
//! assert!(recovered.is_empty());
//! wal.append(&JsonValue::object([("t", JsonValue::string("submit"))]).to_line())?;
//!
//! // ... crash, restart:
//! drop(wal);
//! let (_wal, recovered) = Wal::open(&dir)?;
//! assert_eq!(recovered.records.len(), 1);
//! # let _ = std::fs::remove_dir_all(&dir);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod metrics;
mod packed;
pub mod sched;
pub mod span;
pub mod trace;
pub mod wal;

pub use cache::{CacheLimit, ResultCache, DEFAULT_CACHE_BYTES};
pub use error::{Result, StoreError};
pub use metrics::{Counter, CounterId, Gauge, GaugeId, Histogram, HistogramId, MetricsRegistry};
pub use sched::{Dispatch, Entry, FairScheduler, HedgeConfig, LatencyTracker, TenantRow};
pub use span::{
    CriticalPath, PhaseId, Profile, Span, SpanDrain, SpanIds, SpanRecorder, SpanSink, SpanStamp,
    DEFAULT_SPAN_CAPACITY,
};
pub use trace::{ReplayReport, TraceCapture, TraceDrain, TraceEvent, TraceReplay, TracedEvent};
pub use wal::{Recovered, SnapshotText, Wal};
