//! The job registry: the lease-protocol state machine of the service.
//!
//! The registry is deliberately a **pure, synchronous state machine** — every
//! method takes `&mut self` (callers wrap it in a mutex) and time enters only
//! as explicit [`Instant`] parameters. That makes the whole lease protocol
//! deterministic under test: the property tests drive simulated workers,
//! crashes, cancellations and clock advances through the same code the real
//! worker pool runs, with no sleeping and no racing. Durability is injected
//! the same way: the registry serializes its own transition records and hands
//! them to a [`DurabilitySink`] **before** applying the transition (see
//! [`crate::durability`]), so persistence is write-ahead without the registry
//! ever touching a file.
//!
//! # The protocol
//!
//! A submitted job covers a variant space split into `shard_count` **strided
//! shards**: shard `s` owns the variant indices `s, s + count, s + 2·count, …`
//! (the stride rides on the `O(axes)` `nth` of the lazy space iterator, so a
//! shard never decodes another shard's combinations). Shards move through
//! three states:
//!
//! ```text
//!                    lease()                    complete_shard()
//!   Pending ───────────────────────▶ Leased ─────────────────────▶ Done
//!      ▲                               │  ⇅ hedge (duplicate lease)
//!      └───────────────────────────────┘
//!        expire() past the deadline / abandon()
//! ```
//!
//! Every lease carries a fresh [`LeaseId`]. Batches and completions are only
//! accepted from a lease currently holding the shard — work reported under
//! an expired, abandoned or cancelled lease gets [`ExploreError::StaleLease`]
//! and is discarded. Combined with staging (below) this yields the service's
//! core accounting guarantee: **every shard is counted exactly once** in the
//! final aggregate, no matter how many times workers crashed, stalled, raced
//! — or were deliberately duplicated by a hedge.
//!
//! # Scheduling: weighted-fair + hedged
//!
//! Pending shards are dispatched by a [`FairScheduler`] (virtual-time WFQ
//! across the `tenant` named in each [`JobSpec`]) instead of a global FIFO:
//! one tenant's `2^20`-combination monster no longer starves every later
//! submitter. When no pending shard exists, [`lease`](JobRegistry::lease) may
//! instead **hedge** a straggler: a shard in flight longer than
//! `multiplier × quantile` of the job's completed-shard durations gets a
//! *duplicate* lease. Both leases drain independently; the first to commit
//! wins the shard and the loser's lease turns stale — first-commit-wins
//! dedup, no double counting.
//!
//! # Staging vs committing
//!
//! Batch deltas merge into a per-lease **staged** report; only when the lease
//! completes its shard does the staged report merge into the job's
//! **committed** aggregate. A lease that dies mid-shard takes its staged
//! partial results with it — the re-leased shard starts from zero, so nothing
//! is double-counted. Poll snapshots expose `committed + staged` for live
//! progress (observational; staged parts may vanish on expiry), while the
//! terminal report is committed-only and exact. The commit is also the WAL
//! boundary: a shard's staged report is appended to the sink *before* it
//! merges into the committed aggregate, so replay after a crash reconstructs
//! exactly the committed census — interrupted shards restart from zero.
//!
//! # The result cache
//!
//! A submission that provides a *recipe* (the construction description of the
//! system, as the ndjson frontend does) and whose evaluator exposes a
//! canonical [`spec`](crate::Evaluator::spec) gets a content
//! [`Digest`] over `{system recipe, variant space, evaluator spec}`. On
//! completion the committed report is cached under that digest; a later
//! identical submission is served from the cache at birth — state
//! `Completed`, `evaluated == 0`, the cached optimum in `top` — without a
//! single worker evaluation.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use spi_model::digest::{digest_json, Digest};
use spi_model::introspect::{GraphEdge, GraphNode, GraphSnapshot};
use spi_model::json::{FromJson, JsonValue, ToJson};
use spi_store::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use spi_store::sched::{FairScheduler, HedgeConfig, LatencyTracker};
use spi_store::span::{PhaseId, SpanIds, SpanSink};
use spi_store::trace::{
    TraceCapture, TraceDrain, TraceEvent, TraceSubscription, DEFAULT_TRACE_CAPACITY,
};
use spi_store::{CacheLimit, ResultCache};
use spi_variants::{Flattener, VariantSystem};

use crate::durability::DurabilitySink;
use crate::error::ExploreError;
use crate::evaluator::Evaluator;
use crate::report::{BestVariant, ShardReport};
use crate::Result;

/// Identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Raw numeric id (the wire representation).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a job id from its wire representation.
    pub fn from_raw(raw: u64) -> Self {
        JobId(raw)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Identifier of one lease of one shard; never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(u64);

impl LeaseId {
    /// Raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a lease id from its raw representation.
    pub fn from_raw(raw: u64) -> Self {
        LeaseId(raw)
    }
}

impl fmt::Display for LeaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lease#{}", self.0)
    }
}

/// Life-cycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Shards are pending or in flight.
    Running,
    /// Every shard completed; the committed aggregate is final and exact.
    Completed,
    /// Cancelled by a client (or unrecoverable after a restart); the
    /// committed aggregate holds the partial results of the shards that
    /// completed before the cancellation.
    Cancelled,
}

impl JobState {
    /// Whether the job will never change again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Running)
    }

    fn as_wire(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn from_wire(text: &str) -> Option<JobState> {
        match text {
            "running" => Some(JobState::Running),
            "completed" => Some(JobState::Completed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_wire())
    }
}

/// Client-tunable parameters of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Human-readable job name (for status displays; not unique).
    pub name: String,
    /// Number of strided shards the space is split into. Clamped to the
    /// combination count — an all-empty shard would be pure lease traffic.
    pub shard_count: usize,
    /// How many of the cheapest variants to retain.
    pub top_k: usize,
    /// Fair-queuing tenant this job bills its shard dispatches to.
    pub tenant: String,
    /// Fair-queuing weight of the tenant (≥ 1): a weight-`w` tenant receives
    /// `w` shard dispatches for every one a weight-1 tenant gets. The last
    /// submission's weight wins for the whole tenant.
    pub weight: u32,
    /// Whether an identical cached result may satisfy this submission. When
    /// `false` the job is recomputed (and refreshes the cache on completion).
    pub use_cache: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: "exploration".to_string(),
            shard_count: 16,
            top_k: 8,
            tenant: "default".to_string(),
            weight: 1,
            use_cache: true,
        }
    }
}

/// Tunables of a [`JobRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryConfig {
    /// How long a lease survives without a batch or completion.
    pub lease_timeout: Duration,
    /// The speculative re-leasing policy.
    pub hedge: HedgeConfig,
    /// Bound on the result cache (entries and/or serialized bytes); the
    /// default is unbounded.
    pub cache_limit: CacheLimit,
    /// Compact the WAL whenever its log grows past this many bytes (checked
    /// after each committed completion); `None` compacts only at quiesce.
    pub compact_log_bytes: Option<u64>,
    /// Capacity of the scheduler-decision trace ring
    /// ([`spi_store::trace::TraceCapture`]); `0` disables capture.
    pub trace_capacity: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            lease_timeout: Duration::from_secs(30),
            hedge: HedgeConfig::default(),
            cache_limit: CacheLimit::UNBOUNDED,
            compact_log_bytes: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// A leased shard: everything a worker needs to drain it without touching the
/// registry (the `Arc`s are shared with the job, so incumbent updates and
/// cancellation are visible both ways while the registry lock is free).
#[derive(Clone)]
pub struct Lease {
    /// The job this shard belongs to.
    pub job: JobId,
    /// The lease token; batches and the completion must cite it.
    pub lease: LeaseId,
    /// Strided shard index in `0..shard_count`.
    pub shard: usize,
    /// Total shard count of the job (the stride).
    pub shard_count: usize,
    /// The job's fair-queuing tenant — span attribution uses it, so a worker
    /// never has to re-ask the registry who it is working for.
    pub tenant: String,
    /// Top-K cap for the shard's report.
    pub top_k: usize,
    /// The job's shared flattening machine.
    pub flattener: Arc<Flattener>,
    /// The job's evaluator.
    pub evaluator: Arc<dyn Evaluator>,
    /// Job-wide best feasible cost (`u64::MAX` until a first result); workers
    /// `fetch_min` it and prune against it across shards.
    pub incumbent: Arc<AtomicU64>,
    /// Set when the job is cancelled; workers abandon the drain promptly.
    pub cancelled: Arc<AtomicBool>,
    /// When the lease expires if neither batched nor completed.
    pub deadline: Instant,
    /// How often the drain should flush *at the latest* (half the registry's
    /// lease timeout): every flush renews the deadline, so respecting this
    /// interval keeps the lease alive however slow the evaluator is.
    pub renew_interval: Duration,
    /// Whether this lease is a speculative duplicate of an in-flight shard.
    pub hedged: bool,
}

/// Progress events streamed to [`JobRegistry::subscribe`]rs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// A batch improved the job-wide best variant.
    Improved {
        /// The new best.
        best: BestVariant,
    },
    /// A shard's staged report was committed.
    ShardCompleted {
        /// Which shard completed.
        shard: usize,
        /// Committed shards so far.
        shards_done: usize,
        /// Total shards of the job.
        shard_count: usize,
    },
    /// The job reached a terminal state; no further events follow.
    Finished {
        /// The terminal snapshot.
        status: JobStatus,
    },
}

/// Completed-shard latency quantiles of one job, for operators watching the
/// `jobs` op: where the shard-duration distribution sits and how long its
/// tail is. Quantiles are `None` until the first shard of the job commits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyQuantiles {
    /// Completed-shard duration samples observed so far.
    pub samples: u64,
    /// Median shard duration (nearest-rank p50), in nanoseconds.
    pub p50_ns: Option<u64>,
    /// The p95 shard duration — the quantile the default hedging policy
    /// multiplies to find stragglers.
    pub p95_ns: Option<u64>,
    /// The slowest completed shard.
    pub max_ns: Option<u64>,
}

impl LatencyQuantiles {
    /// Snapshot of a tracker's current quantiles.
    fn of(tracker: &LatencyTracker) -> LatencyQuantiles {
        LatencyQuantiles {
            samples: tracker.count(),
            p50_ns: tracker.quantile_ns(50),
            p95_ns: tracker.quantile_ns(95),
            max_ns: tracker.quantile_ns(100),
        }
    }
}

/// A point-in-time snapshot of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job.
    pub job: JobId,
    /// Its display name.
    pub name: String,
    /// Fair-queuing tenant.
    pub tenant: String,
    /// Life-cycle state.
    pub state: JobState,
    /// Size of the variant space.
    pub combinations: usize,
    /// Total shards (0 for a job served from the result cache).
    pub shard_count: usize,
    /// Committed shards.
    pub shards_done: usize,
    /// Shards currently under at least one lease.
    pub shards_in_flight: usize,
    /// Whether the job was satisfied from the content-addressed result cache
    /// (then `report.evaluated == 0` and `report.top` is the cached optimum).
    pub cache_hit: bool,
    /// Speculative duplicate leases issued for this job's stragglers.
    pub hedges_issued: u64,
    /// How many shards were won by a hedge rather than the original lease.
    pub hedge_wins: u64,
    /// Completed-shard latency quantiles (empty until a shard commits; reset
    /// after a restart — durations are wall-clock of this process's run).
    pub latency: LatencyQuantiles,
    /// Merged counters: committed plus currently-staged (staged parts are
    /// observational — they vanish if their lease expires; exact once the
    /// state is terminal).
    pub report: ShardReport,
}

impl JobStatus {
    /// The best variant found so far, if any shard reported a feasible one.
    pub fn best(&self) -> Option<&BestVariant> {
        self.report.best()
    }
}

/// One live lease on a shard (a hedged shard has several holders).
struct Holder {
    lease: LeaseId,
    deadline: Instant,
    started: Instant,
    /// Identity of the worker the lease was granted to (thread name for the
    /// in-process pool); surfaces in the waitgraph, the decision trace and
    /// the lease's span context.
    worker: Arc<str>,
    /// The span attribution of every renew and commit under this lease,
    /// built at its first span and shared by the rest.
    context: Option<Arc<SpanIds>>,
}

enum ShardSlot {
    Pending,
    /// Under one or more leases (more than one while a hedge is in flight).
    Leased {
        holders: Vec<Holder>,
    },
    Done,
}

/// What a job needs to hand out leases. A job drops it the moment it turns
/// terminal (completed, cancelled, or answered from the cache at submit), so a
/// long-lived daemon holds no flattener or evaluator for finished work;
/// recovered terminal jobs (and running jobs whose recipe could not be
/// rebuilt) are archived without one.
enum JobEngine {
    Live {
        flattener: Arc<Flattener>,
        /// The submitted evaluator as [`Evaluator::bind`] bound it to this
        /// job (or as submitted, when it does not bind).
        evaluator: Arc<dyn Evaluator>,
    },
    Archived,
}

impl JobEngine {
    /// A live engine over `flattener`, with `evaluator` bound to it: the one
    /// place, at submit and at restore alike, where a job's evaluator gets
    /// its per-job state.
    fn live(flattener: Arc<Flattener>, evaluator: Arc<dyn Evaluator>) -> JobEngine {
        let evaluator = Arc::clone(&evaluator).bind(&flattener).unwrap_or(evaluator);
        JobEngine::Live {
            flattener,
            evaluator,
        }
    }
}

struct Job {
    name: String,
    tenant: String,
    weight: u32,
    use_cache: bool,
    shard_count: usize,
    top_k: usize,
    combinations: usize,
    engine: JobEngine,
    incumbent: Arc<AtomicU64>,
    cancelled: Arc<AtomicBool>,
    state: JobState,
    shards: Vec<ShardSlot>,
    shards_done: usize,
    /// Per-lease staged reports, discarded on expiry/abandon/cancel.
    staged: HashMap<LeaseId, ShardReport>,
    /// Aggregate of completed shards only; exact by construction.
    committed: ShardReport,
    /// Best across committed *and* staged, for `Improved` events.
    best_seen: Option<BestVariant>,
    subscribers: Vec<mpsc::Sender<JobEvent>>,
    /// Content address of `(system recipe, space, evaluator spec)`, when the
    /// submission was cacheable.
    digest: Option<Digest>,
    /// The construction recipe, when supplied: what recovery rebuilds the
    /// flattener and evaluator from after a restart.
    recipe: Option<JsonValue>,
    cache_hit: bool,
    hedges_issued: u64,
    hedge_wins: u64,
    latencies: LatencyTracker,
}

impl Job {
    fn status(&self, id: JobId) -> JobStatus {
        let mut report = self.committed.clone();
        for staged in self.staged.values() {
            report.merge(staged, self.top_k);
        }
        let in_flight = self
            .shards
            .iter()
            .filter(|slot| matches!(slot, ShardSlot::Leased { .. }))
            .count();
        JobStatus {
            job: id,
            name: self.name.clone(),
            tenant: self.tenant.clone(),
            state: self.state,
            combinations: self.combinations,
            shard_count: self.shard_count,
            shards_done: self.shards_done,
            shards_in_flight: in_flight,
            cache_hit: self.cache_hit,
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
            latency: LatencyQuantiles::of(&self.latencies),
            report,
        }
    }

    fn emit(&mut self, event: JobEvent) {
        self.subscribers
            .retain(|subscriber| subscriber.send(event.clone()).is_ok());
    }

    fn is_live(&self) -> bool {
        matches!(self.engine, JobEngine::Live { .. })
    }

    /// The durable summary of this job, used in snapshots.
    fn durable_summary(&self, id: JobId) -> JsonValue {
        let done: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, ShardSlot::Done))
            .map(|(shard, _)| shard)
            .collect();
        JsonValue::object([
            ("job", id.raw().to_json()),
            ("name", self.name.to_json()),
            ("tenant", self.tenant.to_json()),
            ("weight", JsonValue::Int(i128::from(self.weight))),
            ("use_cache", JsonValue::Bool(self.use_cache)),
            ("shards", self.shard_count.to_json()),
            ("top_k", self.top_k.to_json()),
            ("combinations", self.combinations.to_json()),
            (
                "digest",
                self.digest
                    .as_ref()
                    .map(ToJson::to_json)
                    .unwrap_or(JsonValue::Null),
            ),
            ("recipe", self.recipe.clone().unwrap_or(JsonValue::Null)),
            ("cache_hit", JsonValue::Bool(self.cache_hit)),
            ("state", JsonValue::string(self.state.as_wire())),
            ("done", done.to_json()),
            ("committed", self.committed.to_json()),
            ("hedges_issued", self.hedges_issued.to_json()),
            ("hedge_wins", self.hedge_wins.to_json()),
        ])
    }
}

/// How to turn a stored recipe back into a live system + evaluator after a
/// restart; see [`JobRegistry::restore`]. The ndjson frontend's recipes are
/// rebuilt by [`crate::wire::rebuild_from_recipe`].
pub type RebuildFn<'a> = dyn Fn(&JsonValue) -> Result<(VariantSystem, Arc<dyn Evaluator>)> + 'a;

/// What [`JobRegistry::restore`] reconstructed, for logging/observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Jobs restored in any state.
    pub jobs: usize,
    /// Running jobs whose engines were rebuilt and shards requeued.
    pub resumed: usize,
    /// Shards requeued across resumed jobs.
    pub requeued_shards: usize,
    /// Running jobs that could not be rebuilt and were cancelled (their
    /// committed partial results are kept).
    pub unrecoverable: usize,
    /// Result-cache entries available after the restore.
    pub cache_entries: usize,
}

/// Where the registry records its scheduler decisions: each one goes into
/// the trace ring and adds the counters [`MetricsRegistry::count`] derives
/// from it, through one [`emit`](Self::emit).
struct Events {
    /// Bounded ring of scheduler decisions; drained over the `trace` op.
    trace: TraceCapture,
    /// Aggregate counters/gauges/histograms next to the event-level trace;
    /// shared with the service layer (and with benches, which may hand in a
    /// [`MetricsRegistry::disabled`] stub to measure instrumentation cost).
    metrics: Arc<MetricsRegistry>,
}

impl Events {
    /// Records one scheduler decision: in the trace, and in its counters.
    fn emit(&mut self, event: TraceEvent) {
        self.metrics.count(&event);
        self.trace.record(event);
    }

    /// Queues `shards` of job `id` on `tenant`'s WFQ queue at `weight`: the
    /// one place a shard is enqueued, emitted and added to the tenant's
    /// metrics row. The row is looked up once per call, not once per shard.
    fn enqueue(
        &mut self,
        scheduler: &mut FairScheduler,
        id: JobId,
        tenant: &str,
        weight: u32,
        shards: impl IntoIterator<Item = usize>,
    ) {
        let row = self
            .metrics
            .is_enabled()
            .then(|| self.metrics.tenant(tenant));
        for shard in shards {
            scheduler.enqueue(tenant, weight, (id.raw(), shard));
            self.emit(TraceEvent::WfqEnqueue {
                tenant: tenant.to_string(),
                weight,
                job: id.raw(),
                shard,
            });
            if let Some(row) = &row {
                row.add_enqueue();
            }
        }
        if let Some(row) = row {
            row.observe_queue(
                scheduler.tenant_backlog(tenant) as u64,
                scheduler.tenant_vtime_lag(tenant),
            );
        }
    }
}

/// The service's job table; see the module docs for the protocol.
pub struct JobRegistry {
    config: RegistryConfig,
    next_job: u64,
    next_lease: u64,
    jobs: BTreeMap<JobId, Job>,
    /// The jobs in the `Running` state, in id order: the only ones that can
    /// hold a lease, so the per-wakeup scans (expiry, hedging) walk these
    /// instead of every job ever registered.
    running: BTreeSet<JobId>,
    /// WFQ dispatcher of `(job, shard)` candidates. May contain entries for
    /// shards that were since leased/cancelled; `lease` skips those.
    scheduler: FairScheduler,
    /// Live leases: lease → (job, shard).
    leases: HashMap<LeaseId, (JobId, usize)>,
    cache: ResultCache,
    sink: Option<Box<dyn DurabilitySink>>,
    /// Where every scheduler decision is recorded, once; a field apart from
    /// `jobs`, so a decision can be emitted while a job is borrowed.
    events: Events,
    /// The registry's own span sink (commit/renew/WAL phases run under the
    /// registry lock, so one sink suffices); a disabled no-op by default.
    spans: SpanSink,
}

impl JobRegistry {
    /// Creates an empty registry whose leases expire after `lease_timeout`
    /// without a batch or completion, with default hedging.
    pub fn new(lease_timeout: Duration) -> Self {
        JobRegistry::with_config(RegistryConfig {
            lease_timeout,
            ..RegistryConfig::default()
        })
    }

    /// Creates an empty registry with explicit scheduling configuration.
    pub fn with_config(config: RegistryConfig) -> Self {
        let cache = ResultCache::with_limit(config.cache_limit);
        let trace = TraceCapture::new(config.trace_capacity);
        JobRegistry {
            config,
            next_job: 0,
            next_lease: 0,
            jobs: BTreeMap::new(),
            running: BTreeSet::new(),
            scheduler: FairScheduler::new(),
            leases: HashMap::new(),
            cache,
            sink: None,
            events: Events {
                trace,
                metrics: Arc::new(MetricsRegistry::new()),
            },
            spans: SpanSink::disabled(),
        }
    }

    /// Replaces the metrics registry every subsequent transition is counted
    /// into. The service layer calls this once at startup so the registry,
    /// the worker pool and the wire surface all share one instance; benches
    /// pass [`MetricsRegistry::disabled`] to measure instrumentation cost.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.events.metrics = metrics;
    }

    /// The metrics registry transitions are counted into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.events.metrics)
    }

    /// Replaces the span sink the registry's own phases (lease renew, shard
    /// commit, WAL append) are recorded into. The service layer hands in a
    /// sink of its shared [`SpanRecorder`](spi_store::SpanRecorder) at
    /// startup; the default is the disabled no-op.
    pub fn set_spans(&mut self, spans: SpanSink) {
        self.spans = spans;
    }

    /// A lock-free live mirror of the scheduler trace's next sequence
    /// number, for [`SpanRecorder::link_trace_seq`]
    /// (spans bracket themselves with the decisions they overlapped).
    ///
    /// [`SpanRecorder::link_trace_seq`]: spi_store::SpanRecorder::link_trace_seq
    pub fn trace_seq_mirror(&self) -> Arc<AtomicU64> {
        self.events.trace.seq_mirror()
    }

    /// Attaches the durability sink every subsequent transition is
    /// write-ahead logged to. Call after [`restore`](Self::restore) (replay
    /// must not re-append its own records).
    pub fn set_sink(&mut self, sink: Box<dyn DurabilitySink>) {
        self.sink = Some(sink);
    }

    /// `(entries, hits, misses)` of the result cache, for observability.
    pub fn cache_stats(&self) -> (usize, u64, u64) {
        (self.cache.len(), self.cache.hits(), self.cache.misses())
    }

    /// Number of currently live leases (across all jobs and hedges).
    pub fn live_lease_count(&self) -> usize {
        self.leases.len()
    }

    /// Number of jobs currently in the `Running` state.
    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    /// The running jobs in id order, for the scans only running jobs can
    /// answer (a terminal job holds no lease).
    fn running(&self) -> impl Iterator<Item = (JobId, &Job)> + '_ {
        self.running
            .iter()
            .map(|&id| (id, self.jobs.get(&id).expect("running jobs are registered")))
    }

    /// Registers a job over `system`'s variant space; see
    /// [`submit_with_recipe`](Self::submit_with_recipe).
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] for a zero shard count, any system
    /// validation error from the flattener build, and sink failures.
    pub fn submit(
        &mut self,
        system: &VariantSystem,
        spec: JobSpec,
        evaluator: Arc<dyn Evaluator>,
    ) -> Result<JobId> {
        self.submit_with_recipe(system, spec, evaluator, None)
    }

    /// Registers a job, optionally carrying the construction `recipe` that
    /// identifies it durably (`{"system": ..., "evaluator": ...}` as the
    /// ndjson frontend submits). A recipe plus a canonical
    /// [`Evaluator::spec`] make the job **cacheable** (identical
    /// resubmissions are served from the result cache without touching the
    /// worker pool) and **recoverable** (a restart rebuilds the system and
    /// evaluator from the recipe and resumes pending shards).
    ///
    /// Builds the job's [`Flattener`] once (validating the system), clamps the
    /// shard count to the space size and queues every shard under the spec's
    /// tenant. A job over an empty space completes immediately.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_with_recipe(
        &mut self,
        system: &VariantSystem,
        spec: JobSpec,
        evaluator: Arc<dyn Evaluator>,
        recipe: Option<JsonValue>,
    ) -> Result<JobId> {
        if spec.shard_count == 0 {
            return Err(ExploreError::InvalidSpec(
                "shard_count must be at least 1".to_string(),
            ));
        }
        let flattener = Arc::new(Flattener::new(system)?);
        let combinations = flattener.space().count();
        let digest = cache_digest(
            recipe.as_ref(),
            &flattener.space().to_json(),
            evaluator.spec(),
        );
        let cached = match digest {
            Some(digest) if spec.use_cache => {
                let hit = self
                    .cache
                    .lookup(digest)
                    .map(ShardReport::from_json)
                    .transpose()
                    .map_err(|e| ExploreError::Store(format!("corrupt cache entry: {e}")))?;
                // A hit is counted when its job exists (the `CacheHit`
                // event below), a miss here: no event records one.
                if hit.is_none() {
                    self.events.metrics.add(CounterId::CacheMisses, 1);
                }
                hit
            }
            _ => None,
        };

        let id = JobId(self.next_job);
        let cache_hit = cached.is_some();
        let empty = combinations == 0;
        let shard_count = if cache_hit {
            0
        } else {
            spec.shard_count.min(combinations.max(1))
        };
        // A cache hit serves the cached optimum with zeroed counters: no
        // worker ran, so nothing was evaluated *for this job* — `top` carries
        // the optimum, `evaluated == 0` proves the pool was never touched.
        let committed = cached
            .map(|full| ShardReport {
                top: full.top,
                ..ShardReport::default()
            })
            .unwrap_or_default();

        let job = Job {
            name: spec.name,
            tenant: spec.tenant,
            weight: spec.weight.max(1),
            use_cache: spec.use_cache,
            shard_count,
            top_k: spec.top_k.max(1),
            combinations,
            engine: if empty || cache_hit {
                JobEngine::Archived
            } else {
                JobEngine::live(flattener, evaluator)
            },
            incumbent: Arc::new(AtomicU64::new(u64::MAX)),
            cancelled: Arc::new(AtomicBool::new(false)),
            state: if empty || cache_hit {
                JobState::Completed
            } else {
                JobState::Running
            },
            shards: if empty || cache_hit {
                Vec::new()
            } else {
                (0..shard_count).map(|_| ShardSlot::Pending).collect()
            },
            shards_done: 0,
            staged: HashMap::new(),
            committed,
            best_seen: None,
            subscribers: Vec::new(),
            digest,
            recipe,
            cache_hit,
            hedges_issued: 0,
            hedge_wins: 0,
            latencies: LatencyTracker::new(),
        };

        // Write-ahead: the submit record must be durable before the job
        // exists (a crash in between recovers to "never submitted", which the
        // client, having no ack, must assume anyway).
        if self.sink.is_some() {
            let record = submit_record(id, &job);
            self.append_record(&record)?;
        }

        self.next_job += 1;
        if cache_hit {
            self.events.emit(TraceEvent::CacheHit { job: id.raw() });
        }
        if job.state == JobState::Running {
            self.events.enqueue(
                &mut self.scheduler,
                id,
                &job.tenant,
                job.weight,
                0..shard_count,
            );
            self.running.insert(id);
        }
        self.jobs.insert(id, job);
        Ok(id)
    }

    /// Hands out the next shard under the WFQ policy, if any; stale scheduler
    /// entries (shards already leased, completed or belonging to terminal
    /// jobs) are skipped and dropped. When no pending shard exists, a
    /// straggler shard past the hedge threshold may be **re-leased
    /// speculatively** — the returned lease then has
    /// [`Lease::hedged`] set and races the original holder under
    /// first-commit-wins.
    pub fn lease(&mut self, now: Instant) -> Option<Lease> {
        self.lease_as("anonymous", now)
    }

    /// [`lease`](Self::lease) with an explicit worker identity: the name the
    /// lease's grant is attributed to in the waitgraph and the decision
    /// trace (the worker pool passes its thread name).
    pub fn lease_as(&mut self, worker: &str, now: Instant) -> Option<Lease> {
        while let Some(dispatch) = self.scheduler.dequeue_dispatch() {
            let (job_raw, shard) = dispatch.entry;
            // Every dispatch is recorded — including ones skipped as stale
            // below — because each one advances virtual time and debits the
            // tenant's traced backlog; replay would underflow otherwise.
            self.events.emit(TraceEvent::WfqDequeue {
                tenant: dispatch.tenant,
                weight: dispatch.weight,
                job: job_raw,
                shard,
                vtime: dispatch.vtime,
            });
            let job_id = JobId(job_raw);
            let Some(job) = self.jobs.get(&job_id) else {
                continue;
            };
            if job.state != JobState::Running
                || !matches!(job.shards[shard], ShardSlot::Pending)
                || !job.is_live()
            {
                continue;
            }
            let metrics = &self.events.metrics;
            if metrics.is_enabled() {
                let tenant = metrics.tenant(&job.tenant);
                tenant.add_service();
                tenant.observe_queue(
                    self.scheduler.tenant_backlog(&job.tenant) as u64,
                    self.scheduler.tenant_vtime_lag(&job.tenant),
                );
            }
            return Some(self.grant(job_id, shard, now, false, worker));
        }
        let (job_id, shard) = self.hedge_candidate(now)?;
        Some(self.grant(job_id, shard, now, true, worker))
    }

    /// The most overdue straggler shard eligible for a duplicate lease.
    fn hedge_candidate(&self, now: Instant) -> Option<(JobId, usize)> {
        let hedge = &self.config.hedge;
        let mut best: Option<(u128, JobId, usize)> = None;
        for (job_id, job) in self.running() {
            if !job.is_live() {
                continue;
            }
            let Some(threshold_ns) = job.latencies.hedge_threshold_ns(hedge) else {
                continue;
            };
            for (shard, slot) in job.shards.iter().enumerate() {
                let ShardSlot::Leased { holders } = slot else {
                    continue;
                };
                if holders.len() > hedge.max_hedges {
                    continue;
                }
                let earliest = holders
                    .iter()
                    .map(|holder| holder.started)
                    .min()
                    .expect("a leased slot has at least one holder");
                let elapsed = now.saturating_duration_since(earliest).as_nanos();
                if elapsed > u128::from(threshold_ns)
                    && best.as_ref().is_none_or(|(most, _, _)| elapsed > *most)
                {
                    best = Some((elapsed, job_id, shard));
                }
            }
        }
        best.map(|(_, job_id, shard)| (job_id, shard))
    }

    fn grant(
        &mut self,
        job_id: JobId,
        shard: usize,
        now: Instant,
        hedged: bool,
        worker: &str,
    ) -> Lease {
        let lease = LeaseId(self.next_lease);
        self.next_lease += 1;
        self.events.emit(TraceEvent::LeaseGrant {
            job: job_id.raw(),
            shard,
            lease: lease.raw(),
            worker: worker.to_string(),
            hedged,
        });
        let deadline = now + self.config.lease_timeout;
        let job = self.jobs.get_mut(&job_id).expect("candidate job exists");
        let holder = Holder {
            lease,
            deadline,
            started: now,
            worker: Arc::from(worker),
            context: None,
        };
        match &mut job.shards[shard] {
            slot @ ShardSlot::Pending => {
                *slot = ShardSlot::Leased {
                    holders: vec![holder],
                };
            }
            ShardSlot::Leased { holders } => holders.push(holder),
            ShardSlot::Done => unreachable!("done shards are never granted"),
        }
        if hedged {
            job.hedges_issued += 1;
        }
        self.leases.insert(lease, (job_id, shard));
        let JobEngine::Live {
            flattener,
            evaluator,
        } = &job.engine
        else {
            unreachable!("granted jobs are live")
        };
        Lease {
            job: job_id,
            lease,
            shard,
            shard_count: job.shard_count,
            tenant: job.tenant.clone(),
            top_k: job.top_k,
            flattener: Arc::clone(flattener),
            evaluator: Arc::clone(evaluator),
            incumbent: Arc::clone(&job.incumbent),
            cancelled: Arc::clone(&job.cancelled),
            deadline,
            renew_interval: self.config.lease_timeout / 2,
            hedged,
        }
    }

    fn resolve_lease(&self, lease: LeaseId) -> Result<(JobId, usize)> {
        self.leases
            .get(&lease)
            .copied()
            .ok_or(ExploreError::StaleLease(lease))
    }

    /// The attribution ids of the live `lease` on `shard`, for span context:
    /// the same job/shard/lease/tenant/worker ids the waitgraph nodes carry,
    /// built at the lease's first span and shared by the rest.
    fn span_context(&mut self, job_id: JobId, shard: usize, lease: LeaseId) -> Arc<SpanIds> {
        let job = self.jobs.get_mut(&job_id).expect("lease resolves to job");
        let ShardSlot::Leased { holders } = &mut job.shards[shard] else {
            unreachable!("a live lease's shard is leased")
        };
        let holder = holders
            .iter_mut()
            .find(|holder| holder.lease == lease)
            .expect("a live lease has its holder");
        let context = holder.context.get_or_insert_with(|| {
            Arc::new(SpanIds {
                job: Some(job_id.raw()),
                shard: Some(shard as u64),
                lease: Some(lease.raw()),
                tenant: Some(Arc::from(job.tenant.as_str())),
                worker: Some(Arc::clone(&holder.worker)),
            })
        });
        Arc::clone(context)
    }

    fn append_record(&mut self, record: &JsonValue) -> Result<()> {
        if let Some(sink) = self.sink.as_mut() {
            let spanning = self.spans.is_enabled();
            if spanning {
                // A standalone append (submit, cancel) is not attributable
                // to any lease; only nested appends inherit commit context.
                if self.spans.depth() == 0 {
                    self.spans.clear_context();
                }
                self.spans.enter(PhaseId::WalAppend);
            }
            let appended = sink.append(record).map_err(ExploreError::Store);
            if spanning {
                self.spans.exit();
            }
            appended?;
            let metrics = &self.events.metrics;
            if metrics.is_enabled() {
                metrics.add(CounterId::WalAppends, 1);
                metrics.add(CounterId::WalAppendBytes, record.to_line().len() as u64);
                metrics.set_gauge(GaugeId::WalLogBytes, sink.log_bytes());
            }
        }
        Ok(())
    }

    /// Merges a batch delta into the lease's staged report and **renews the
    /// lease deadline** — a batch is proof of liveness, so a slow shard stays
    /// owned as long as it keeps reporting.
    ///
    /// # Errors
    ///
    /// [`ExploreError::StaleLease`] if the lease expired, was abandoned, lost
    /// its shard to a hedge, or its job was cancelled; the caller must stop
    /// working on the shard.
    pub fn report_batch(&mut self, lease: LeaseId, delta: ShardReport, now: Instant) -> Result<()> {
        let (job_id, shard) = self.resolve_lease(lease)?;
        let spanning = self.spans.is_enabled();
        if spanning {
            let ids = self.span_context(job_id, shard, lease);
            self.spans.set_context(ids);
            self.spans.enter(PhaseId::LeaseRenew);
        }
        let deadline = now + self.config.lease_timeout;
        let job = self.jobs.get_mut(&job_id).expect("lease resolves to job");
        if let ShardSlot::Leased { holders } = &mut job.shards[shard] {
            if let Some(holder) = holders.iter_mut().find(|holder| holder.lease == lease) {
                holder.deadline = deadline;
                self.events.emit(TraceEvent::LeaseRenew {
                    job: job_id.raw(),
                    shard,
                    lease: lease.raw(),
                });
            }
        }
        if delta.eval_ns > 0 {
            self.events.metrics.record(
                HistogramId::BatchEvalNs,
                u64::try_from(delta.eval_ns).unwrap_or(u64::MAX),
            );
        }
        let top_k = job.top_k;
        let staged = job.staged.entry(lease).or_default();
        staged.merge(&delta, top_k);
        if let Some(best) = delta.best() {
            let improved = job
                .best_seen
                .as_ref()
                .is_none_or(|seen| best.key() < seen.key());
            if improved {
                job.best_seen = Some(best.clone());
                let best = best.clone();
                job.emit(JobEvent::Improved { best });
            }
        }
        if spanning {
            self.spans.exit();
        }
        Ok(())
    }

    /// Completes the shard under `lease`: merges the final `delta`,
    /// write-ahead logs the staged report, commits it into the job aggregate
    /// and, when it was the last shard, finishes the job (inserting the
    /// committed result into the cache when the job is cacheable). Any other
    /// leases on the same shard — hedges or hedged-over originals — turn
    /// stale: **first commit wins**.
    ///
    /// Returns `true` when the job reached its terminal state with this call.
    ///
    /// # Errors
    ///
    /// [`ExploreError::StaleLease`] as for [`report_batch`](Self::report_batch);
    /// [`ExploreError::Store`] when the sink rejects the commit record. On a
    /// store error **nothing has been mutated** — neither staged nor committed
    /// state — so the lease stays live and retrying with the *same* `delta`
    /// is safe (it will not double-count), as is abandoning the lease.
    pub fn complete_shard(
        &mut self,
        lease: LeaseId,
        delta: ShardReport,
        now: Instant,
    ) -> Result<bool> {
        let (job_id, shard) = self.resolve_lease(lease)?;
        let spanning = self.spans.is_enabled();
        if spanning {
            let ids = self.span_context(job_id, shard, lease);
            self.spans.set_context(ids);
            self.spans.enter(PhaseId::ShardCommit);
        }

        // Write-ahead: the commit record goes to the sink before any in-memory
        // state changes, so a crash on either side of the append replays to a
        // consistent census (shard uncommitted → re-run; committed → merged).
        // The record is built from a *copy* of staged ∪ delta — a sink failure
        // leaves staged untouched, which is what makes a same-delta retry safe.
        if self.sink.is_some() {
            let job = self.jobs.get(&job_id).expect("lease resolves to job");
            let mut full = job.staged.get(&lease).cloned().unwrap_or_default();
            full.merge(&delta, job.top_k);
            let record = JsonValue::object([
                ("t", JsonValue::string("shard")),
                ("job", job_id.raw().to_json()),
                ("shard", shard.to_json()),
                ("report", full.to_json()),
            ]);
            if let Err(rejected) = self.append_record(&record) {
                if spanning {
                    self.spans.exit();
                }
                return Err(rejected);
            }
        }
        self.report_batch(lease, delta, now)
            .expect("lease resolved above and nothing in between can invalidate it");

        let job = self.jobs.get_mut(&job_id).expect("lease resolves to job");
        let staged = job.staged.remove(&lease).unwrap_or_default();
        let evaluated = staged.evaluated;
        let top_k = job.top_k;
        job.committed.merge(&staged, top_k);

        // First-commit-wins: every holder of this shard is retired; the
        // losers' future flushes get StaleLease and their staged partials die.
        let mut winner_started = None;
        let mut earliest_started = None;
        if let ShardSlot::Leased { holders } = &job.shards[shard] {
            earliest_started = holders.iter().map(|holder| holder.started).min();
            for holder in holders {
                if holder.lease == lease {
                    winner_started = Some(holder.started);
                } else {
                    self.leases.remove(&holder.lease);
                    job.staged.remove(&holder.lease);
                }
            }
        }
        self.leases.remove(&lease);
        job.shards[shard] = ShardSlot::Done;
        job.shards_done += 1;
        self.events.emit(TraceEvent::ShardCommit {
            job: job_id.raw(),
            shard,
            lease: lease.raw(),
            evaluated,
        });
        if let Some(started) = winner_started {
            let duration = now.saturating_duration_since(started);
            let duration_ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
            job.latencies.record_ns(duration_ns);
            self.events
                .metrics
                .record(HistogramId::ShardEvalNs, duration_ns);
            if earliest_started.is_some_and(|earliest| started > earliest) {
                job.hedge_wins += 1;
                self.events.emit(TraceEvent::HedgeWin {
                    job: job_id.raw(),
                    shard,
                    lease: lease.raw(),
                });
            }
        }

        let done = job.shards_done;
        let total = job.shard_count;
        job.emit(JobEvent::ShardCompleted {
            shard,
            shards_done: done,
            shard_count: total,
        });
        if done == total {
            job.state = JobState::Completed;
            job.engine = JobEngine::Archived;
            self.running.remove(&job_id);
            let cache_entry = job.digest.map(|digest| (digest, job.committed.to_json()));
            let status = job.status(job_id);
            job.emit(JobEvent::Finished { status });
            if let Some((digest, result)) = cache_entry {
                let evicted = self.cache.insert(digest, result);
                if evicted > 0 {
                    self.events.emit(TraceEvent::CacheEvict { evicted });
                }
                let metrics = &self.events.metrics;
                metrics.set_gauge(GaugeId::CacheEntries, self.cache.len() as u64);
                metrics.set_gauge(GaugeId::CacheBytes, self.cache.total_bytes() as u64);
            }
            self.maybe_compact_for_size();
            if spanning {
                self.spans.exit();
            }
            return Ok(true);
        }
        self.maybe_compact_for_size();
        if spanning {
            self.spans.exit();
        }
        Ok(false)
    }

    /// Compacts the sink when its log has outgrown the configured budget.
    /// Runs *after* a commit is applied, so it is best-effort: a failed
    /// compaction leaves a valid (just longer) log, and the next commit
    /// retries.
    fn maybe_compact_for_size(&mut self) {
        let Some(budget) = self.config.compact_log_bytes else {
            return;
        };
        let oversized = self
            .sink
            .as_ref()
            .is_some_and(|sink| sink.log_bytes() > budget);
        if oversized {
            let _ = self.compact_store();
        }
    }

    /// Voluntarily returns a lease (worker shutting down): staged work is
    /// discarded and, if no other lease holds the shard, the shard re-queued.
    /// A stale lease is a no-op.
    pub fn abandon(&mut self, lease: LeaseId) {
        self.release(lease, false);
    }

    /// Shared teardown of [`abandon`](Self::abandon) and
    /// [`expire`](Self::expire); `expired` only decides which trace event the
    /// release is recorded as.
    fn release(&mut self, lease: LeaseId, expired: bool) {
        let Some((job_id, shard)) = self.leases.remove(&lease) else {
            return;
        };
        self.events.emit(if expired {
            TraceEvent::LeaseExpire {
                job: job_id.raw(),
                shard,
                lease: lease.raw(),
            }
        } else {
            TraceEvent::LeaseAbandon {
                job: job_id.raw(),
                shard,
                lease: lease.raw(),
            }
        });
        let job = self.jobs.get_mut(&job_id).expect("lease resolves to job");
        job.staged.remove(&lease);
        if let ShardSlot::Leased { holders } = &mut job.shards[shard] {
            holders.retain(|holder| holder.lease != lease);
            if holders.is_empty() && job.state == JobState::Running {
                job.shards[shard] = ShardSlot::Pending;
                self.events.enqueue(
                    &mut self.scheduler,
                    job_id,
                    &job.tenant,
                    job.weight,
                    [shard],
                );
            }
        }
    }

    /// Reclaims every lease whose deadline passed: staged partials are
    /// dropped and orphaned shards re-queued (a hedged shard with one live
    /// holder left keeps running). Returns how many leases were reclaimed.
    pub fn expire(&mut self, now: Instant) -> usize {
        let expired: Vec<LeaseId> = self
            .running()
            .flat_map(|(_, job)| job.shards.iter())
            .filter_map(|slot| match slot {
                ShardSlot::Leased { holders } => Some(holders.iter()),
                _ => None,
            })
            .flatten()
            .filter(|holder| holder.deadline <= now)
            .map(|holder| holder.lease)
            .collect();
        for lease in &expired {
            self.release(*lease, true);
        }
        expired.len()
    }

    /// Cancels a running job: pending shards are dropped, live leases
    /// invalidated (their future batches get [`ExploreError::StaleLease`]) and
    /// the shared cancel flag raised so draining workers stop early. Terminal
    /// jobs are left as they are — cancellation is idempotent. Returns the
    /// resulting snapshot.
    ///
    /// # Errors
    ///
    /// [`ExploreError::UnknownJob`] for an unknown id; [`ExploreError::Store`]
    /// when the sink rejects the cancel record (the job then stays running).
    pub fn cancel(&mut self, job_id: JobId) -> Result<JobStatus> {
        let job = self
            .jobs
            .get(&job_id)
            .ok_or(ExploreError::UnknownJob(job_id))?;
        if job.state != JobState::Running {
            return self.poll(job_id);
        }
        if self.sink.is_some() {
            let record = JsonValue::object([
                ("t", JsonValue::string("cancel")),
                ("job", job_id.raw().to_json()),
            ]);
            self.append_record(&record)?;
        }
        let job = self.jobs.get_mut(&job_id).expect("job still present");
        job.state = JobState::Cancelled;
        job.engine = JobEngine::Archived;
        self.running.remove(&job_id);
        job.cancelled.store(true, Ordering::Relaxed);
        job.staged.clear();
        let stale: Vec<(LeaseId, usize)> = self
            .leases
            .iter()
            .filter(|(_, (owner, _))| *owner == job_id)
            .map(|(lease, (_, shard))| (*lease, *shard))
            .collect();
        for (lease, shard) in stale {
            self.leases.remove(&lease);
            self.events.emit(TraceEvent::LeaseAbandon {
                job: job_id.raw(),
                shard,
                lease: lease.raw(),
            });
        }
        let job = self.jobs.get_mut(&job_id).expect("job still present");
        for slot in &mut job.shards {
            if matches!(slot, ShardSlot::Leased { .. }) {
                *slot = ShardSlot::Pending;
            }
        }
        let status = job.status(job_id);
        job.emit(JobEvent::Finished {
            status: status.clone(),
        });
        Ok(status)
    }

    /// A point-in-time snapshot of the job.
    ///
    /// # Errors
    ///
    /// [`ExploreError::UnknownJob`] for an unknown id.
    pub fn poll(&self, job_id: JobId) -> Result<JobStatus> {
        let job = self
            .jobs
            .get(&job_id)
            .ok_or(ExploreError::UnknownJob(job_id))?;
        Ok(job.status(job_id))
    }

    /// Subscribes to the job's event stream. Events already in the past are
    /// not replayed; a terminal job yields an immediate `Finished` event.
    ///
    /// # Errors
    ///
    /// [`ExploreError::UnknownJob`] for an unknown id.
    pub fn subscribe(&mut self, job_id: JobId) -> Result<mpsc::Receiver<JobEvent>> {
        let job = self
            .jobs
            .get_mut(&job_id)
            .ok_or(ExploreError::UnknownJob(job_id))?;
        let (sender, receiver) = mpsc::channel();
        if job.state.is_terminal() {
            let status = job.status(job_id);
            let _ = sender.send(JobEvent::Finished { status });
        } else {
            job.subscribers.push(sender);
        }
        Ok(receiver)
    }

    /// Ids of every registered job, in submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.keys().copied().collect()
    }

    /// Takes every buffered scheduler-decision trace event (plus the count of
    /// events the ring had to drop since the previous drain). Concatenated
    /// drains of a never-full ring form one gap-free, replayable trace.
    pub fn drain_trace(&mut self) -> TraceDrain {
        self.events.trace.drain()
    }

    /// Reads trace events at or after the `since` cursor **without**
    /// consuming them — the cursor-style counterpart of
    /// [`drain_trace`](Self::drain_trace); see [`TraceCapture::read_since`].
    pub fn read_trace_since(&self, since: u64) -> TraceDrain {
        self.events.trace.read_since(since)
    }

    /// The sequence number the next recorded trace event will get — the
    /// natural starting cursor for [`read_trace_since`](Self::read_trace_since).
    pub fn trace_next_seq(&self) -> u64 {
        self.events.trace.next_seq()
    }

    /// Registers a bounded live subscription fed every subsequent trace
    /// event; see [`TraceCapture::subscribe`].
    pub fn subscribe_trace(&mut self, queue: usize) -> TraceSubscription {
        self.events.trace.subscribe(queue)
    }

    /// A point-in-time health observation for the stall watchdog: every live
    /// lease holder with its age and the owning job's completed-shard p95,
    /// every backlogged tenant with its cumulative WFQ service count, and the
    /// WAL's size against its compaction budget. Pure data — the watchdog
    /// ([`crate::health::Watchdog`]) compares consecutive observations
    /// outside the registry lock.
    pub fn observe_health(&self, now: Instant) -> crate::health::HealthObservation {
        let mut leases = Vec::new();
        for (job_id, job) in self.running() {
            let p95_ns = job.latencies.quantile_ns(95);
            for (shard, slot) in job.shards.iter().enumerate() {
                let ShardSlot::Leased { holders } = slot else {
                    continue;
                };
                for holder in holders {
                    leases.push(crate::health::LeaseHealth {
                        lease: holder.lease.raw(),
                        job: job_id.raw(),
                        shard,
                        worker: holder.worker.to_string(),
                        elapsed: now.saturating_duration_since(holder.started),
                        overdue: holder.deadline <= now,
                        p95_ns,
                    });
                }
            }
        }
        let tenants = self
            .scheduler
            .busy_tenants()
            .map(|tenant| crate::health::TenantHealth {
                tenant: tenant.to_string(),
                backlog: self.scheduler.tenant_backlog(tenant) as u64,
                service: self.events.metrics.tenant_service(tenant),
            })
            .collect();
        crate::health::HealthObservation {
            leases,
            tenants,
            log_bytes: self.sink.as_ref().map_or(0, |sink| sink.log_bytes()),
            compact_budget: self.config.compact_log_bytes,
            compactions: self.events.metrics.counter(CounterId::WalCompactions),
        }
    }

    /// Assembles the current **waitgraph**: one [`GraphSnapshot`] over the
    /// canonical node kinds (`job`, `shard`, `lease`, `worker`, `tenant`,
    /// `store`) whose single `needs` edge kind states exactly what each
    /// entity is waiting on right now. Built under the caller's registry
    /// lock, so it is never torn; the result always passes
    /// [`GraphSnapshot::validate`].
    ///
    /// Edges:
    /// * running `job → tenant` — dispatches bill to the tenant's WFQ queue;
    /// * running `job → store` — commits must clear the WAL first (durable
    ///   registries only);
    /// * running `job → shard` for every non-done shard;
    /// * pending `shard → tenant` — waiting for a WFQ dispatch;
    /// * leased `shard → lease` for every holder (several while hedged);
    /// * `lease → worker` — the drain the lease is waiting on.
    pub fn waitgraph(&self) -> GraphSnapshot {
        let mut snapshot = GraphSnapshot::new();
        let durable = self.sink.is_some();
        if durable {
            snapshot.nodes.push(
                GraphNode::new("store:wal", "store", "write-ahead log").attr(
                    "log_bytes",
                    self.sink
                        .as_ref()
                        .map_or(0, |sink| sink.log_bytes())
                        .to_string(),
                ),
            );
        }
        // One tenant node per distinct tenant; the last submission's weight
        // wins, matching the scheduler's own rule.
        let mut tenants: BTreeMap<&str, u32> = BTreeMap::new();
        let mut workers: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for job in self.jobs.values() {
            tenants.insert(&job.tenant, job.weight);
            for slot in &job.shards {
                if let ShardSlot::Leased { holders } = slot {
                    for holder in holders {
                        workers.insert(&*holder.worker);
                    }
                }
            }
        }
        for (tenant, weight) in &tenants {
            snapshot.nodes.push(
                GraphNode::new(format!("tenant:{tenant}"), "tenant", *tenant)
                    .attr("weight", weight.to_string()),
            );
        }
        for worker in &workers {
            snapshot.nodes.push(GraphNode::new(
                format!("worker:{worker}"),
                "worker",
                *worker,
            ));
        }
        for (&id, job) in &self.jobs {
            let job_node = format!("job:{}", id.raw());
            snapshot.nodes.push(
                GraphNode::new(&job_node, "job", &job.name)
                    .attr("state", job.state.to_string())
                    .attr("shards_done", job.shards_done.to_string())
                    .attr("shards", job.shard_count.to_string()),
            );
            if job.state != JobState::Running {
                continue;
            }
            let tenant_node = format!("tenant:{}", job.tenant);
            snapshot.edges.push(GraphEdge::new(&job_node, &tenant_node));
            if durable {
                snapshot.edges.push(GraphEdge::new(&job_node, "store:wal"));
            }
            for (shard, slot) in job.shards.iter().enumerate() {
                let (state, holders): (&str, &[Holder]) = match slot {
                    ShardSlot::Pending => ("pending", &[]),
                    ShardSlot::Leased { holders } => ("leased", holders),
                    ShardSlot::Done => continue,
                };
                let shard_node = format!("shard:{}/{shard}", id.raw());
                snapshot.nodes.push(
                    GraphNode::new(&shard_node, "shard", format!("{}[{shard}]", job.name))
                        .attr("state", state),
                );
                snapshot.edges.push(GraphEdge::new(&job_node, &shard_node));
                if holders.is_empty() {
                    snapshot
                        .edges
                        .push(GraphEdge::new(&shard_node, &tenant_node));
                }
                for holder in holders {
                    let lease_node = format!("lease:{}", holder.lease.raw());
                    snapshot.nodes.push(
                        GraphNode::new(&lease_node, "lease", holder.lease.raw().to_string())
                            .attr("worker", &*holder.worker),
                    );
                    snapshot
                        .edges
                        .push(GraphEdge::new(&shard_node, &lease_node));
                    snapshot.edges.push(GraphEdge::new(
                        &lease_node,
                        format!("worker:{}", holder.worker),
                    ));
                }
            }
        }
        snapshot
    }

    /// The full durable state as one snapshot value (jobs, cache, id
    /// counter): what [`restore`](Self::restore) consumes and the compaction
    /// path hands to [`DurabilitySink::compact`].
    pub fn durable_snapshot(&self) -> JsonValue {
        JsonValue::object([
            ("next_job", self.next_job.to_json()),
            ("cache", self.cache.to_snapshot()),
            (
                "jobs",
                JsonValue::Array(
                    self.jobs
                        .iter()
                        .map(|(&id, job)| job.durable_summary(id))
                        .collect(),
                ),
            ),
        ])
    }

    /// Compacts the sink to the current durable snapshot (and syncs it to
    /// stable storage). A no-op without a sink.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Store`] when the sink fails.
    pub fn compact_store(&mut self) -> Result<()> {
        let snapshot = self.durable_snapshot();
        if let Some(sink) = self.sink.as_mut() {
            let log_bytes = sink.compact(&snapshot).map_err(ExploreError::Store)?;
            self.events.emit(TraceEvent::WalCompact { log_bytes });
            self.events
                .metrics
                .set_gauge(GaugeId::WalLogBytes, sink.log_bytes());
        }
        Ok(())
    }

    /// Rebuilds registry state from a recovered snapshot plus the record tail
    /// appended after it — the restart path. Must be called on a fresh
    /// registry, **before** [`set_sink`](Self::set_sink) (replay must not
    /// re-append its own records).
    ///
    /// Running jobs with a recipe are rebuilt through `rebuild` and their
    /// non-committed shards requeued (in-flight leases did not survive the
    /// crash; their staged work restarts from zero — exactly-once holds
    /// because only committed shard reports were logged). Running jobs
    /// without a recipe (in-process submissions) cannot be re-evaluated and
    /// are restored as `Cancelled`, keeping their committed partial results.
    /// The result cache is restored from the snapshot and re-fed from every
    /// replayed completed job.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Store`] when a record or snapshot is malformed
    /// (checksums already passed in the WAL layer, so this means a version
    /// mismatch, not corruption).
    pub fn restore(
        &mut self,
        snapshot: Option<&JsonValue>,
        records: &[JsonValue],
        rebuild: &RebuildFn<'_>,
    ) -> Result<RestoreStats> {
        let corrupt = |message: String| ExploreError::Store(message);
        let mut recovered: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
        let mut next_job = 0u64;

        if let Some(snapshot) = snapshot {
            next_job = snapshot
                .get("next_job")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| corrupt("snapshot missing next_job".into()))?;
            self.cache = ResultCache::from_snapshot(
                snapshot
                    .get("cache")
                    .ok_or_else(|| corrupt("snapshot missing cache".into()))?,
            )
            .map_err(|e| corrupt(format!("snapshot cache: {e}")))?;
            self.cache.set_limit(self.config.cache_limit);
            let jobs = snapshot
                .get("jobs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| corrupt("snapshot missing jobs".into()))?;
            for summary in jobs {
                let job = RecoveredJob::from_summary(summary).map_err(corrupt)?;
                recovered.insert(job.id, job);
            }
        }

        for record in records {
            let kind = record
                .get("t")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| corrupt("record missing t".into()))?;
            let job_id = record
                .get("job")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| corrupt(format!("{kind} record missing job")))?;
            match kind {
                "submit" => {
                    let job = RecoveredJob::from_summary(record).map_err(corrupt)?;
                    next_job = next_job.max(job_id + 1);
                    recovered.insert(job_id, job);
                }
                "shard" => {
                    let job = recovered
                        .get_mut(&job_id)
                        .ok_or_else(|| corrupt(format!("shard record for unknown job {job_id}")))?;
                    let shard = record
                        .get("shard")
                        .and_then(JsonValue::as_usize)
                        .ok_or_else(|| corrupt("shard record missing shard".into()))?;
                    let report = ShardReport::from_json(
                        record
                            .get("report")
                            .ok_or_else(|| corrupt("shard record missing report".into()))?,
                    )
                    .map_err(|e| corrupt(format!("shard record report: {e}")))?;
                    if job.done.insert(shard) {
                        job.committed.merge(&report, job.top_k);
                    }
                    if job.done.len() == job.shard_count && job.state == JobState::Running {
                        job.state = JobState::Completed;
                    }
                }
                "cancel" => {
                    let job = recovered.get_mut(&job_id).ok_or_else(|| {
                        corrupt(format!("cancel record for unknown job {job_id}"))
                    })?;
                    if job.state == JobState::Running {
                        job.state = JobState::Cancelled;
                    }
                }
                other => return Err(corrupt(format!("unknown record type `{other}`"))),
            }
        }

        let mut stats = RestoreStats::default();
        for (raw, mut job) in recovered {
            let id = JobId(raw);
            stats.jobs += 1;
            // Completed cacheable jobs re-feed the cache (idempotent for
            // snapshot-covered entries, necessary for replayed ones).
            if job.state == JobState::Completed && !job.cache_hit {
                if let Some(digest) = job.digest {
                    self.cache.insert(digest, job.committed.to_json());
                }
            }
            let mut engine = JobEngine::Archived;
            if job.state == JobState::Running {
                let rebuilt = job
                    .recipe
                    .as_ref()
                    .map(rebuild)
                    .transpose()
                    .ok()
                    .flatten()
                    .and_then(|(system, evaluator)| {
                        let flattener = Flattener::new(&system).ok()?;
                        (flattener.space().count() == job.combinations)
                            .then_some((Arc::new(flattener), evaluator))
                    });
                match rebuilt {
                    Some((flattener, evaluator)) => {
                        stats.resumed += 1;
                        let pending =
                            (0..job.shard_count).filter(|shard| !job.done.contains(shard));
                        stats.requeued_shards += pending.clone().count();
                        self.events.enqueue(
                            &mut self.scheduler,
                            id,
                            &job.tenant,
                            job.weight,
                            pending,
                        );
                        engine = JobEngine::live(flattener, evaluator);
                    }
                    None => {
                        stats.unrecoverable += 1;
                        job.state = JobState::Cancelled;
                    }
                }
            }
            if job.state == JobState::Running {
                self.running.insert(id);
            }
            let incumbent = job.committed.best().map_or(u64::MAX, |best| best.cost);
            let shards = (0..job.shard_count)
                .map(|shard| {
                    if job.done.contains(&shard) {
                        ShardSlot::Done
                    } else {
                        ShardSlot::Pending
                    }
                })
                .collect();
            self.jobs.insert(
                id,
                Job {
                    name: job.name,
                    tenant: job.tenant,
                    weight: job.weight,
                    use_cache: job.use_cache,
                    shard_count: job.shard_count,
                    top_k: job.top_k,
                    combinations: job.combinations,
                    engine,
                    incumbent: Arc::new(AtomicU64::new(incumbent)),
                    cancelled: Arc::new(AtomicBool::new(job.state == JobState::Cancelled)),
                    state: job.state,
                    shards,
                    shards_done: job.done.len(),
                    staged: HashMap::new(),
                    committed: job.committed,
                    best_seen: None,
                    subscribers: Vec::new(),
                    digest: job.digest,
                    recipe: job.recipe,
                    cache_hit: job.cache_hit,
                    hedges_issued: job.hedges_issued,
                    hedge_wins: job.hedge_wins,
                    latencies: LatencyTracker::new(),
                },
            );
        }
        self.next_job = next_job.max(
            self.jobs
                .keys()
                .next_back()
                .map_or(0, |last| last.raw() + 1),
        );
        stats.cache_entries = self.cache.len();
        Ok(stats)
    }
}

/// The content address of a submission, when it is cacheable: requires a
/// recipe naming the system (the space alone underdetermines the flattened
/// graphs the evaluator sees) and a canonical evaluator spec.
fn cache_digest(
    recipe: Option<&JsonValue>,
    space_json: &JsonValue,
    evaluator_spec: Option<JsonValue>,
) -> Option<Digest> {
    let system = recipe?.get("system")?;
    let spec = evaluator_spec?;
    Some(digest_json(&JsonValue::object([
        ("system", system.clone()),
        ("space", space_json.clone()),
        ("evaluator", spec),
    ])))
}

fn submit_record(id: JobId, job: &Job) -> JsonValue {
    let mut members = vec![
        ("t".to_string(), JsonValue::string("submit")),
        ("job".to_string(), id.raw().to_json()),
        ("name".to_string(), job.name.to_json()),
        ("tenant".to_string(), job.tenant.to_json()),
        ("weight".to_string(), JsonValue::Int(i128::from(job.weight))),
        ("use_cache".to_string(), JsonValue::Bool(job.use_cache)),
        ("shards".to_string(), job.shard_count.to_json()),
        ("top_k".to_string(), job.top_k.to_json()),
        ("combinations".to_string(), job.combinations.to_json()),
        (
            "digest".to_string(),
            job.digest
                .as_ref()
                .map(ToJson::to_json)
                .unwrap_or(JsonValue::Null),
        ),
        (
            "recipe".to_string(),
            job.recipe.clone().unwrap_or(JsonValue::Null),
        ),
        ("cache_hit".to_string(), JsonValue::Bool(job.cache_hit)),
        ("state".to_string(), JsonValue::string(job.state.as_wire())),
    ];
    if job.cache_hit || job.state.is_terminal() {
        members.push(("committed".to_string(), job.committed.to_json()));
    }
    JsonValue::Object(members)
}

/// Intermediate per-job state while replaying snapshot + records.
struct RecoveredJob {
    id: u64,
    name: String,
    tenant: String,
    weight: u32,
    use_cache: bool,
    shard_count: usize,
    top_k: usize,
    combinations: usize,
    digest: Option<Digest>,
    recipe: Option<JsonValue>,
    cache_hit: bool,
    state: JobState,
    done: std::collections::BTreeSet<usize>,
    committed: ShardReport,
    hedges_issued: u64,
    hedge_wins: u64,
}

impl RecoveredJob {
    /// Parses either a snapshot job summary or a submit record — the two
    /// share every field this needs (`durable_summary` and `submit_record`
    /// are kept aligned).
    fn from_summary(value: &JsonValue) -> std::result::Result<RecoveredJob, String> {
        let field_u64 = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("job summary missing {name}"))
        };
        // Checked narrowing: a WAL written on a 64-bit host must not be
        // silently truncated when restored on a platform with a smaller
        // `usize` — `as` would wrap the count and corrupt the census.
        let field_usize = |name: &str| {
            let raw = field_u64(name)?;
            usize::try_from(raw)
                .map_err(|_| format!("job summary field {name} ({raw}) overflows usize"))
        };
        let field_str = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("job summary missing {name}"))
        };
        let state = JobState::from_wire(field_str("state")?)
            .ok_or_else(|| "job summary has unknown state".to_string())?;
        let digest = match value.get("digest") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(Digest::from_json(other).map_err(|e| format!("job digest: {e}"))?),
        };
        let recipe = match value.get("recipe") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(other.clone()),
        };
        let done: std::collections::BTreeSet<usize> = match value.get("done") {
            None => std::collections::BTreeSet::new(),
            Some(list) => Vec::<usize>::from_json(list)
                .map_err(|e| format!("job done list: {e}"))?
                .into_iter()
                .collect(),
        };
        let committed = match value.get("committed") {
            None => ShardReport::default(),
            Some(report) => {
                ShardReport::from_json(report).map_err(|e| format!("job committed: {e}"))?
            }
        };
        Ok(RecoveredJob {
            id: field_u64("job")?,
            name: field_str("name")?.to_string(),
            tenant: field_str("tenant")?.to_string(),
            weight: u32::try_from(field_u64("weight")?).unwrap_or(1).max(1),
            use_cache: value
                .get("use_cache")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true),
            shard_count: field_usize("shards")?,
            top_k: field_usize("top_k")?.max(1),
            combinations: field_usize("combinations")?,
            digest,
            recipe,
            cache_hit: value
                .get("cache_hit")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            state,
            done,
            committed,
            hedges_issued: value
                .get("hedges_issued")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            hedge_wins: value
                .get("hedge_wins")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{MemorySink, MemoryStore};
    use crate::evaluator::{Evaluation, FnEvaluator};
    use spi_store::trace::TraceReplay;
    use spi_workloads::scaling_system;
    use std::sync::Mutex;

    fn test_evaluator() -> Arc<dyn Evaluator> {
        Arc::new(FnEvaluator::new(|index, _choice, _graph| {
            Ok(Evaluation {
                cost: (index as u64 * 7) % 31,
                feasible: true,
                detail: String::new(),
            })
        }))
    }

    fn registry_with_job(shards: usize) -> (JobRegistry, JobId) {
        let system = scaling_system(3, 2).unwrap();
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        let id = registry
            .submit(
                &system,
                JobSpec {
                    name: "t".into(),
                    shard_count: shards,
                    top_k: 4,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        (registry, id)
    }

    fn report_with(index: usize, cost: u64) -> ShardReport {
        let mut report = ShardReport {
            evaluated: 1,
            feasible: 1,
            ..ShardReport::default()
        };
        report.record(
            BestVariant {
                index,
                cost,
                choice: spi_variants::VariantChoice::new(),
                detail: String::new(),
            },
            4,
        );
        report
    }

    #[test]
    fn lease_complete_drains_every_shard_once() {
        let (mut registry, id) = registry_with_job(4);
        let now = Instant::now();
        let mut seen = Vec::new();
        while let Some(lease) = registry.lease(now) {
            seen.push(lease.shard);
            let finished = registry
                .complete_shard(lease.lease, report_with(lease.shard, 10), now)
                .unwrap();
            assert_eq!(finished, seen.len() == 4);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let status = registry.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 4);
        assert_eq!(status.tenant, "default");
        assert!(!status.cache_hit);
    }

    #[test]
    fn stale_lease_after_expiry_is_rejected_and_shard_requeued() {
        let (mut registry, id) = registry_with_job(1);
        let t0 = Instant::now();
        let zombie = registry.lease(t0).unwrap();
        registry
            .report_batch(zombie.lease, report_with(0, 10), t0)
            .unwrap();
        // Nobody hears from the worker for longer than the timeout.
        let late = t0 + Duration::from_secs(61);
        assert_eq!(registry.expire(late), 1);
        // The zombie's partial work is gone and its lease dead.
        assert_eq!(registry.poll(id).unwrap().report.evaluated, 0);
        assert!(matches!(
            registry.report_batch(zombie.lease, report_with(1, 5), late),
            Err(ExploreError::StaleLease(_))
        ));
        assert!(matches!(
            registry.complete_shard(zombie.lease, report_with(1, 5), late),
            Err(ExploreError::StaleLease(_))
        ));
        // A fresh lease drains the shard; the final count is exact.
        let fresh = registry.lease(late).unwrap();
        assert_eq!(fresh.shard, zombie.shard);
        registry
            .complete_shard(fresh.lease, report_with(0, 10), late)
            .unwrap();
        let status = registry.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 1);
    }

    #[test]
    fn batches_renew_the_lease_deadline() {
        let (mut registry, _id) = registry_with_job(1);
        let t0 = Instant::now();
        let lease = registry.lease(t0).unwrap();
        // Keep batching just before every deadline: the lease must survive.
        let mut now = t0;
        for _ in 0..4 {
            now += Duration::from_secs(29);
            assert_eq!(registry.expire(now), 0);
            registry
                .report_batch(lease.lease, report_with(0, 10), now)
                .unwrap();
        }
        assert!(registry
            .complete_shard(lease.lease, ShardReport::default(), now)
            .unwrap());
    }

    #[test]
    fn cancel_invalidates_leases_and_keeps_partial_results() {
        let (mut registry, id) = registry_with_job(4);
        let now = Instant::now();
        let first = registry.lease(now).unwrap();
        registry
            .complete_shard(first.lease, report_with(0, 10), now)
            .unwrap();
        let in_flight = registry.lease(now).unwrap();
        let status = registry.cancel(id).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.report.evaluated, 1, "committed shard survives");
        assert!(in_flight.cancelled.load(Ordering::Relaxed));
        assert!(matches!(
            registry.complete_shard(in_flight.lease, report_with(9, 1), now),
            Err(ExploreError::StaleLease(_))
        ));
        // No further leases; cancel is idempotent.
        assert!(registry.lease(now).is_none());
        assert_eq!(registry.cancel(id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn events_report_improvements_and_completion() {
        let (mut registry, id) = registry_with_job(2);
        let events = registry.subscribe(id).unwrap();
        let now = Instant::now();
        let a = registry.lease(now).unwrap();
        let b = registry.lease(now).unwrap();
        registry
            .complete_shard(a.lease, report_with(3, 20), now)
            .unwrap();
        registry
            .complete_shard(b.lease, report_with(5, 10), now)
            .unwrap();
        let collected: Vec<JobEvent> = events.try_iter().collect();
        assert!(matches!(
            collected[0],
            JobEvent::Improved { ref best } if best.cost == 20
        ));
        assert!(collected
            .iter()
            .any(|e| matches!(e, JobEvent::Improved { best } if best.cost == 10)));
        assert!(matches!(
            collected.last().unwrap(),
            JobEvent::Finished { status } if status.state == JobState::Completed
        ));
        // Subscribing to a terminal job yields an immediate Finished.
        let late = registry.subscribe(id).unwrap();
        assert!(matches!(
            late.try_iter().next(),
            Some(JobEvent::Finished { .. })
        ));
    }

    #[test]
    fn terminal_jobs_release_their_engine() {
        use crate::evaluator::PartitionEvaluator;
        use crate::worker::{drain_lease, FlushResponse};

        let system = scaling_system(4, 2).unwrap(); // 16 combinations
        let evaluator: Arc<dyn Evaluator> = Arc::new(PartitionEvaluator::default());
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        let spec = JobSpec {
            name: "release".into(),
            shard_count: 3,
            top_k: 4,
            ..JobSpec::default()
        };
        let id = registry
            .submit(&system, spec.clone(), Arc::clone(&evaluator))
            .unwrap();
        let events = registry.subscribe(id).unwrap();
        assert!(Arc::strong_count(&evaluator) > 1, "a running job holds it");

        let now = Instant::now();
        while let Some(lease) = registry.lease(now) {
            drain_lease(
                &lease,
                5,
                &MetricsRegistry::disabled(),
                &SpanSink::disabled(),
                || false,
                |delta, last| {
                    let flushed = if last {
                        registry.complete_shard(lease.lease, delta, now).map(|_| ())
                    } else {
                        registry.report_batch(lease.lease, delta, now)
                    };
                    flushed.expect("the only lease of its shard");
                    FlushResponse::Continue
                },
            );
        }
        assert_eq!(
            Arc::strong_count(&evaluator),
            1,
            "a completed job keeps no clone of its evaluator"
        );
        let finished = events
            .try_iter()
            .find_map(|event| match event {
                JobEvent::Finished { status } => Some(status),
                _ => None,
            })
            .expect("the job finished");
        let status = registry.poll(id).unwrap();
        assert_eq!(status, finished, "poll answers what the job finished with");
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.accounted(), 16);
        let flattener = spi_variants::Flattener::new(&system).unwrap();
        let optimum = (0..16)
            .map(|index| {
                let (choice, graph) = flattener.flatten_at(index).unwrap();
                let evaluation = evaluator
                    .evaluate(index, &choice, &graph, u64::MAX)
                    .unwrap();
                (evaluation.cost, index, evaluation.detail)
            })
            .min()
            .unwrap();
        let best = status.best().unwrap();
        assert_eq!((best.cost, best.index, best.detail.clone()), optimum);
        let snapshot = registry.durable_snapshot();
        let summary = &snapshot.get("jobs").unwrap().as_array().unwrap()[0];
        assert_eq!(summary.get("state").unwrap().as_str(), Some("completed"));
        assert_eq!(summary.get("committed"), Some(&status.report.to_json()));

        // A cancelled job lets go too; only the lease still in flight keeps
        // its clone, until the worker drops it. The job and its leases share
        // the one evaluator the job was bound to, which holds the submitted
        // evaluator once.
        let cancelled = registry
            .submit(&system, spec, Arc::clone(&evaluator))
            .unwrap();
        let in_flight = registry.lease(now).unwrap();
        assert_eq!(Arc::strong_count(&evaluator), 2);
        assert_eq!(
            registry.cancel(cancelled).unwrap().state,
            JobState::Cancelled
        );
        assert_eq!(Arc::strong_count(&evaluator), 2);
        drop(in_flight);
        assert_eq!(Arc::strong_count(&evaluator), 1);
        assert!(registry.lease(now).is_none());
    }

    #[test]
    fn shard_count_is_clamped_and_empty_spaces_complete_immediately() {
        let system = scaling_system(2, 2).unwrap(); // 4 combinations
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        let id = registry
            .submit(
                &system,
                JobSpec {
                    shard_count: 64,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        assert_eq!(registry.poll(id).unwrap().shard_count, 4);

        let empty = VariantSystem::new(spi_model::SpiGraph::new("empty"));
        let done = registry
            .submit(&empty, JobSpec::default(), test_evaluator())
            .unwrap();
        let status = registry.poll(done).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.combinations, 0);
        assert!(registry.lease(Instant::now()).map(|l| l.job) != Some(done));
    }

    #[test]
    fn invalid_specs_and_unknown_jobs_are_rejected() {
        let system = scaling_system(2, 2).unwrap();
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        assert!(matches!(
            registry.submit(
                &system,
                JobSpec {
                    shard_count: 0,
                    ..JobSpec::default()
                },
                test_evaluator(),
            ),
            Err(ExploreError::InvalidSpec(_))
        ));
        let ghost = JobId::from_raw(99);
        assert!(matches!(
            registry.poll(ghost),
            Err(ExploreError::UnknownJob(_))
        ));
        assert!(matches!(
            registry.cancel(ghost),
            Err(ExploreError::UnknownJob(_))
        ));
        assert!(matches!(
            registry.subscribe(ghost),
            Err(ExploreError::UnknownJob(_))
        ));
    }

    // --- fair scheduling -----------------------------------------------------------

    #[test]
    fn late_tenant_interleaves_instead_of_queuing_behind_the_whale() {
        let system = scaling_system(6, 2).unwrap(); // 64 combinations
        let small = scaling_system(3, 2).unwrap(); // 8 combinations
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        let whale = registry
            .submit(
                &system,
                JobSpec {
                    name: "whale".into(),
                    tenant: "whale".into(),
                    shard_count: 32,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        let minnow = registry
            .submit(
                &small,
                JobSpec {
                    name: "minnow".into(),
                    tenant: "minnow".into(),
                    shard_count: 4,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        // Drain serially; count whale dispatches before the minnow finishes.
        let now = Instant::now();
        let mut whale_before_minnow_done = 0;
        loop {
            let lease = registry.lease(now).unwrap();
            if lease.job == whale {
                whale_before_minnow_done += 1;
            }
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 5), now)
                .unwrap();
            if registry.poll(minnow).unwrap().state.is_terminal() {
                break;
            }
        }
        // Equal weights → strict alternation: the minnow's 4 shards finish
        // within ~5 whale dispatches, not after all 32.
        assert!(
            whale_before_minnow_done <= 5,
            "whale got {whale_before_minnow_done} dispatches before the minnow finished"
        );
        // The whale still completes fully afterwards.
        while let Some(lease) = registry.lease(now) {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 5), now)
                .unwrap();
        }
        assert_eq!(registry.poll(whale).unwrap().state, JobState::Completed);
        assert_eq!(registry.poll(whale).unwrap().report.evaluated, 32);
    }

    // --- hedged re-leasing ---------------------------------------------------------

    /// Registry with one 4-shard job and hedging tuned for the test clock.
    fn hedging_registry() -> (JobRegistry, JobId) {
        let system = scaling_system(3, 2).unwrap(); // 8 combinations
        let mut registry = JobRegistry::with_config(RegistryConfig {
            lease_timeout: Duration::from_secs(1000),
            hedge: HedgeConfig {
                enabled: true,
                quantile_pct: 50,
                multiplier_pct: 200,
                min_samples: 3,
                max_hedges: 1,
            },
            ..RegistryConfig::default()
        });
        let id = registry
            .submit(
                &system,
                JobSpec {
                    name: "hedge".into(),
                    shard_count: 4,
                    top_k: 8,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        (registry, id)
    }

    #[test]
    fn straggler_shard_gets_a_hedge_and_first_commit_wins() {
        let (mut registry, id) = hedging_registry();
        let t0 = Instant::now();
        // Lease all four shards; complete three quickly (1s each), leave one
        // straggling.
        let leases: Vec<Lease> = (0..4).map(|_| registry.lease(t0).unwrap()).collect();
        let t1 = t0 + Duration::from_secs(1);
        for lease in &leases[..3] {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 10), t1)
                .unwrap();
        }
        // p50 of {1s,1s,1s} = 1s, threshold 2s: at t0+1s the straggler is not
        // yet overdue...
        assert!(
            registry.lease(t1).is_none(),
            "no hedge before the threshold"
        );
        // ... at t0+3s it is.
        let t3 = t0 + Duration::from_secs(3);
        let hedge = registry.lease(t3).expect("straggler gets a hedge");
        assert!(hedge.hedged);
        assert_eq!(hedge.shard, leases[3].shard);
        assert_eq!(registry.poll(id).unwrap().hedges_issued, 1);
        // Only one hedge per shard (max_hedges = 1).
        assert!(registry.lease(t3).is_none());

        // The hedge commits first and wins the shard.
        registry
            .complete_shard(hedge.lease, report_with(hedge.shard, 3), t3)
            .unwrap();
        let status = registry.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 4, "exactly-once accounting holds");
        assert_eq!(status.hedge_wins, 1);
        // The hedged-over original is stale now.
        assert!(matches!(
            registry.complete_shard(leases[3].lease, report_with(9, 1), t3),
            Err(ExploreError::StaleLease(_))
        ));
    }

    #[test]
    fn original_lease_beating_its_hedge_is_not_a_hedge_win() {
        let (mut registry, id) = hedging_registry();
        let t0 = Instant::now();
        let leases: Vec<Lease> = (0..4).map(|_| registry.lease(t0).unwrap()).collect();
        let t1 = t0 + Duration::from_secs(1);
        for lease in &leases[..3] {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 10), t1)
                .unwrap();
        }
        let t3 = t0 + Duration::from_secs(3);
        let hedge = registry.lease(t3).expect("straggler gets a hedge");
        // The original wakes up and commits first: hedge turns stale.
        registry
            .complete_shard(leases[3].lease, report_with(leases[3].shard, 2), t3)
            .unwrap();
        let status = registry.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 4);
        assert_eq!(status.hedges_issued, 1);
        assert_eq!(status.hedge_wins, 0);
        assert!(matches!(
            registry.complete_shard(hedge.lease, report_with(9, 1), t3),
            Err(ExploreError::StaleLease(_))
        ));
    }

    #[test]
    fn hedged_shard_spans_carry_their_own_leases_worker() {
        use spi_store::span::SpanRecorder;

        let (mut registry, _id) = hedging_registry();
        let recorder = Arc::new(SpanRecorder::new(1024));
        registry.set_spans(recorder.sink("registry"));
        let t0 = Instant::now();
        let leases: Vec<Lease> = (0..4)
            .map(|at| registry.lease_as(&format!("w{at}"), t0).unwrap())
            .collect();
        let t1 = t0 + Duration::from_secs(1);
        for lease in &leases[..3] {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 10), t1)
                .unwrap();
        }
        let t3 = t0 + Duration::from_secs(3);
        let hedge = registry.lease_as("hedger", t3).expect("hedge granted");
        assert!(hedge.hedged);
        let original = &leases[3];
        for _ in 0..2 {
            registry
                .report_batch(original.lease, ShardReport::default(), t3)
                .unwrap();
            registry
                .report_batch(hedge.lease, ShardReport::default(), t3)
                .unwrap();
        }
        registry
            .complete_shard(hedge.lease, report_with(hedge.shard, 3), t3)
            .unwrap();

        let spans = recorder.spans();
        let workers = |lease: LeaseId, phase: PhaseId| -> Vec<Option<String>> {
            spans
                .iter()
                .filter(|span| span.phase == phase && span.ids.lease == Some(lease.raw()))
                .inspect(|span| {
                    assert_eq!(span.ids.shard, Some(original.shard as u64));
                    assert_eq!(span.ids.tenant.as_deref(), Some("default"));
                })
                .map(|span| span.ids.worker.as_deref().map(str::to_string))
                .collect()
        };
        let named = |worker: &str, count: usize| vec![Some(worker.to_string()); count];
        assert_eq!(workers(original.lease, PhaseId::LeaseRenew), named("w3", 2));
        // The commit renews once more, inside its own span.
        assert_eq!(
            workers(hedge.lease, PhaseId::LeaseRenew),
            named("hedger", 3)
        );
        assert_eq!(
            workers(hedge.lease, PhaseId::ShardCommit),
            named("hedger", 1)
        );
        assert!(workers(original.lease, PhaseId::ShardCommit).is_empty());
    }

    #[test]
    fn expiry_and_hedging_see_the_one_running_job_among_thousands_of_finished_ones() {
        let (mut registry, _) = hedging_registry();
        let system = scaling_system(3, 2).unwrap();
        let t0 = Instant::now();
        // Drain the helper's job, then finish 5,000 more and cancel one.
        while let Some(lease) = registry.lease(t0) {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 10), t0)
                .unwrap();
        }
        let one_shard = JobSpec {
            shard_count: 1,
            ..JobSpec::default()
        };
        for _ in 0..5_000 {
            registry
                .submit(&system, one_shard.clone(), test_evaluator())
                .unwrap();
            let lease = registry.lease(t0).unwrap();
            assert!(registry
                .complete_shard(lease.lease, report_with(0, 10), t0)
                .unwrap());
        }
        let cancelled = registry
            .submit(&system, one_shard, test_evaluator())
            .unwrap();
        registry.lease(t0).unwrap();
        registry.cancel(cancelled).unwrap();

        let straggling = registry
            .submit(
                &system,
                JobSpec {
                    shard_count: 4,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        assert_eq!(registry.running_jobs(), 1);
        let leases: Vec<Lease> = (0..4).map(|_| registry.lease(t0).unwrap()).collect();
        let t1 = t0 + Duration::from_secs(1);
        for lease in &leases[..3] {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 10), t1)
                .unwrap();
        }
        let t3 = t0 + Duration::from_secs(3);
        let hedge = registry.lease(t3).expect("the straggler gets the hedge");
        assert!(hedge.hedged);
        assert_eq!((hedge.job, hedge.shard), (straggling, leases[3].shard));

        // The hedge keeps reporting; the original falls silent past its
        // deadline and is the one lease expiry reclaims.
        let late = t0 + Duration::from_secs(1001);
        registry
            .report_batch(hedge.lease, ShardReport::default(), late)
            .unwrap();
        let expired_before = registry.metrics().counter(CounterId::LeaseExpiries);
        assert_eq!(registry.expire(late), 1);
        assert_eq!(
            registry.metrics().counter(CounterId::LeaseExpiries),
            expired_before + 1
        );
        assert!(matches!(
            registry.report_batch(leases[3].lease, ShardReport::default(), late),
            Err(ExploreError::StaleLease(_))
        ));
        assert_eq!(registry.live_lease_count(), 1);
        assert!(registry
            .complete_shard(hedge.lease, report_with(hedge.shard, 3), late)
            .unwrap());
        assert_eq!(registry.running_jobs(), 0);
        assert_eq!(
            registry.poll(straggling).unwrap().state,
            JobState::Completed
        );
    }

    #[test]
    fn expired_hedge_leaves_the_original_running() {
        let (mut registry, id) = hedging_registry();
        let t0 = Instant::now();
        let leases: Vec<Lease> = (0..4).map(|_| registry.lease(t0).unwrap()).collect();
        let t1 = t0 + Duration::from_secs(1);
        for lease in &leases[..3] {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 10), t1)
                .unwrap();
        }
        let t3 = t0 + Duration::from_secs(3);
        let hedge = registry.lease(t3).expect("hedge granted");
        // Keep the original alive with batches while the hedge goes silent
        // past its deadline.
        let expiry = t3 + Duration::from_secs(1001);
        registry
            .report_batch(leases[3].lease, ShardReport::default(), expiry)
            .unwrap();
        assert_eq!(registry.expire(expiry), 1, "only the silent hedge expires");
        assert!(matches!(
            registry.report_batch(hedge.lease, ShardReport::default(), expiry),
            Err(ExploreError::StaleLease(_))
        ));
        // The shard is still leased (not requeued): the original completes it.
        registry
            .complete_shard(leases[3].lease, report_with(leases[3].shard, 1), expiry)
            .unwrap();
        let status = registry.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 4);
    }

    // --- result cache + durability ---------------------------------------------------

    fn cacheable_evaluator(counter: Arc<AtomicU64>) -> Arc<dyn Evaluator> {
        Arc::new(
            FnEvaluator::new(move |index, _choice, _graph| {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(Evaluation {
                    cost: (index as u64 * 7) % 31,
                    feasible: true,
                    detail: String::new(),
                })
            })
            .with_spec(JsonValue::object([("kind", JsonValue::string("counting"))])),
        )
    }

    fn recipe_for(interfaces: usize) -> JsonValue {
        JsonValue::object([(
            "system",
            JsonValue::object([(
                "scaling",
                JsonValue::object([
                    ("interfaces", interfaces.to_json()),
                    ("clusters", 2usize.to_json()),
                ]),
            )]),
        )])
    }

    #[test]
    fn identical_resubmission_is_served_from_the_cache() {
        let system = scaling_system(3, 2).unwrap(); // 8 combinations
        let counter = Arc::new(AtomicU64::new(0));
        let evaluator = cacheable_evaluator(Arc::clone(&counter));
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        let now = Instant::now();

        let first = registry
            .submit_with_recipe(
                &system,
                JobSpec::default(),
                Arc::clone(&evaluator),
                Some(recipe_for(3)),
            )
            .unwrap();
        while let Some(lease) = registry.lease(now) {
            registry
                .complete_shard(
                    lease.lease,
                    report_with(lease.shard, lease.shard as u64),
                    now,
                )
                .unwrap();
        }
        let first_status = registry.poll(first).unwrap();
        assert_eq!(first_status.state, JobState::Completed);
        assert_eq!(registry.cache_stats().0, 1, "completion fed the cache");

        // Identical resubmission: served at birth, no lease ever granted.
        let second = registry
            .submit_with_recipe(
                &system,
                JobSpec::default(),
                Arc::clone(&evaluator),
                Some(recipe_for(3)),
            )
            .unwrap();
        let status = registry.poll(second).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert!(status.cache_hit);
        assert_eq!(status.report.evaluated, 0, "no worker evaluation ran");
        assert_eq!(status.shard_count, 0);
        assert_eq!(
            status.best().map(|b| (b.cost, b.index)),
            first_status.best().map(|b| (b.cost, b.index)),
            "the cached optimum is served"
        );
        assert!(registry.lease(now).is_none(), "worker pool untouched");

        // A different recipe (different system) misses.
        let other = scaling_system(2, 2).unwrap();
        let third = registry
            .submit_with_recipe(&other, JobSpec::default(), evaluator, Some(recipe_for(2)))
            .unwrap();
        assert!(!registry.poll(third).unwrap().cache_hit);

        // use_cache: false bypasses the lookup.
        let fourth = registry
            .submit_with_recipe(
                &system,
                JobSpec {
                    use_cache: false,
                    ..JobSpec::default()
                },
                cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                Some(recipe_for(3)),
            )
            .unwrap();
        assert!(!registry.poll(fourth).unwrap().cache_hit);
    }

    #[test]
    fn cache_limit_evicts_old_results_and_resubmission_recomputes() {
        let mut registry = JobRegistry::with_config(RegistryConfig {
            cache_limit: CacheLimit::entries(1),
            ..RegistryConfig::default()
        });
        let now = Instant::now();
        for interfaces in [2usize, 3] {
            let system = scaling_system(interfaces, 2).unwrap();
            registry
                .submit_with_recipe(
                    &system,
                    JobSpec::default(),
                    cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                    Some(recipe_for(interfaces)),
                )
                .unwrap();
            while let Some(lease) = registry.lease(now) {
                registry
                    .complete_shard(
                        lease.lease,
                        report_with(lease.shard, lease.shard as u64),
                        now,
                    )
                    .unwrap();
            }
        }
        assert_eq!(registry.cache_stats().0, 1, "bound holds across jobs");

        // The first (evicted) result must recompute; the second still hits.
        let system = scaling_system(2, 2).unwrap();
        let evicted = registry
            .submit_with_recipe(
                &system,
                JobSpec::default(),
                cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                Some(recipe_for(2)),
            )
            .unwrap();
        assert!(!registry.poll(evicted).unwrap().cache_hit);
        let system = scaling_system(3, 2).unwrap();
        let kept = registry
            .submit_with_recipe(
                &system,
                JobSpec::default(),
                cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                Some(recipe_for(3)),
            )
            .unwrap();
        assert!(registry.poll(kept).unwrap().cache_hit);
    }

    /// In-memory sink that reports a real byte size, for exercising the
    /// size-triggered auto-compaction without touching the filesystem.
    struct SizedSink {
        bytes: u64,
        compactions: Arc<AtomicU64>,
    }

    impl DurabilitySink for SizedSink {
        fn append(&mut self, record: &JsonValue) -> std::result::Result<(), String> {
            self.bytes += record.to_line().len() as u64 + 1;
            Ok(())
        }

        fn compact(&mut self, _snapshot: &JsonValue) -> std::result::Result<u64, String> {
            let reclaimed = self.bytes;
            self.bytes = 0;
            self.compactions.fetch_add(1, Ordering::Relaxed);
            Ok(reclaimed)
        }

        fn log_bytes(&self) -> u64 {
            self.bytes
        }
    }

    #[test]
    fn oversized_log_triggers_compaction_on_commit() {
        let system = scaling_system(3, 2).unwrap();
        let compactions = Arc::new(AtomicU64::new(0));
        let mut registry = JobRegistry::with_config(RegistryConfig {
            // Tiny budget: the submit record alone exceeds it, so the very
            // first committed shard must compact.
            compact_log_bytes: Some(64),
            ..RegistryConfig::default()
        });
        registry.set_sink(Box::new(SizedSink {
            bytes: 0,
            compactions: Arc::clone(&compactions),
        }));
        let id = registry
            .submit(
                &system,
                JobSpec {
                    shard_count: 4,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        let now = Instant::now();
        while let Some(lease) = registry.lease(now) {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 5), now)
                .unwrap();
        }
        assert_eq!(registry.poll(id).unwrap().state, JobState::Completed);
        let counted = registry.metrics().counter(CounterId::WalCompactions);
        assert!(
            counted >= 1,
            "commits past the byte budget must compact mid-flight"
        );
        assert_eq!(counted, compactions.load(Ordering::Relaxed));
    }

    #[test]
    fn unbudgeted_registries_never_auto_compact() {
        let system = scaling_system(3, 2).unwrap();
        let compactions = Arc::new(AtomicU64::new(0));
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        registry.set_sink(Box::new(SizedSink {
            bytes: 0,
            compactions: Arc::clone(&compactions),
        }));
        registry
            .submit(&system, JobSpec::default(), test_evaluator())
            .unwrap();
        let now = Instant::now();
        while let Some(lease) = registry.lease(now) {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 5), now)
                .unwrap();
        }
        assert_eq!(registry.metrics().counter(CounterId::WalCompactions), 0);
        assert_eq!(compactions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn commits_are_write_ahead_and_sink_failures_abort_them() {
        let system = scaling_system(3, 2).unwrap();
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        registry.set_sink(Box::new(MemorySink::new(Arc::clone(&store))));
        let id = registry
            .submit(
                &system,
                JobSpec {
                    shard_count: 2,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        let now = Instant::now();
        let lease = registry.lease(now).unwrap();
        registry
            .complete_shard(lease.lease, report_with(lease.shard, 5), now)
            .unwrap();
        {
            let seen = store.lock().unwrap().records.clone();
            assert_eq!(seen.len(), 2, "submit + shard commit recorded");
            assert_eq!(seen[0].get("t").unwrap().as_str(), Some("submit"));
            assert_eq!(seen[1].get("t").unwrap().as_str(), Some("shard"));
        }

        // A failing sink vetoes the commit: the lease stays live, nothing
        // merges (not even staged state), and retrying with the *same* delta
        // once the sink heals neither loses nor double-counts it.
        registry.set_sink(Box::new(MemorySink::failing(Arc::clone(&store))));
        let lease = registry.lease(now).unwrap();
        let delta = report_with(lease.shard, 5);
        assert!(matches!(
            registry.complete_shard(lease.lease, delta.clone(), now),
            Err(ExploreError::Store(_))
        ));
        assert_eq!(registry.poll(id).unwrap().shards_done, 1);
        assert_eq!(
            registry.poll(id).unwrap().report.evaluated,
            1,
            "a vetoed commit must not stage its delta"
        );
        registry.set_sink(Box::new(MemorySink::new(Arc::clone(&store))));
        assert!(registry.complete_shard(lease.lease, delta, now).unwrap());
        let status = registry.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 2, "same-delta retry counts once");

        // Cancel on a failing sink is refused too.
        registry.set_sink(Box::new(MemorySink::failing(Arc::clone(&store))));
        let running = registry
            .submit(&system, JobSpec::default(), test_evaluator())
            .err();
        assert!(matches!(running, Some(ExploreError::Store(_))));
    }

    #[test]
    fn snapshot_and_records_restore_to_the_same_census() {
        let system = scaling_system(3, 2).unwrap(); // 8 combinations
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        registry.set_sink(Box::new(MemorySink::new(Arc::clone(&store))));
        let evaluator = cacheable_evaluator(Arc::new(AtomicU64::new(0)));
        let id = registry
            .submit_with_recipe(
                &system,
                JobSpec {
                    shard_count: 4,
                    ..JobSpec::default()
                },
                evaluator,
                Some(recipe_for(3)),
            )
            .unwrap();
        let now = Instant::now();
        // Commit two of four shards, then "crash".
        for _ in 0..2 {
            let lease = registry.lease(now).unwrap();
            registry
                .complete_shard(
                    lease.lease,
                    report_with(lease.shard, lease.shard as u64),
                    now,
                )
                .unwrap();
        }
        let committed_before = registry.poll(id).unwrap().report.clone();
        let snapshot = registry.durable_snapshot();

        // Restore from snapshot only (records compacted away).
        let rebuild: &RebuildFn<'_> = &|recipe: &JsonValue| {
            let interfaces = recipe
                .get("system")
                .and_then(|s| s.get("scaling"))
                .and_then(|s| s.get("interfaces"))
                .and_then(JsonValue::as_usize)
                .unwrap();
            Ok((
                scaling_system(interfaces, 2).unwrap(),
                cacheable_evaluator(Arc::new(AtomicU64::new(0))) as Arc<dyn Evaluator>,
            ))
        };
        let mut recovered = JobRegistry::new(Duration::from_secs(30));
        let stats = recovered.restore(Some(&snapshot), &[], rebuild).unwrap();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.resumed, 1);
        assert_eq!(stats.requeued_shards, 2);
        assert_eq!(recovered.poll(id).unwrap().report, committed_before);

        // Restore from raw records only (no snapshot) agrees.
        let raw = store.lock().unwrap().records.clone();
        let mut replayed = JobRegistry::new(Duration::from_secs(30));
        let stats = replayed.restore(None, &raw, rebuild).unwrap();
        assert_eq!(stats.resumed, 1);
        assert_eq!(replayed.poll(id).unwrap().report, committed_before);

        // Finishing the recovered registry yields the exact census.
        while let Some(lease) = recovered.lease(now) {
            recovered
                .complete_shard(
                    lease.lease,
                    report_with(lease.shard, lease.shard as u64),
                    now,
                )
                .unwrap();
        }
        let status = recovered.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 4);
        // Completion fed the restored cache.
        assert_eq!(recovered.cache_stats().0, 1);
        // Fresh submissions continue the id sequence without collision.
        let fresh = recovered
            .submit(&system, JobSpec::default(), test_evaluator())
            .unwrap();
        assert!(fresh.raw() > id.raw());
    }

    #[test]
    fn running_job_without_a_recipe_restores_as_cancelled_with_its_results() {
        let system = scaling_system(3, 2).unwrap();
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        registry.set_sink(Box::new(MemorySink::new(Arc::clone(&store))));
        let id = registry
            .submit(
                &system,
                JobSpec {
                    shard_count: 4,
                    ..JobSpec::default()
                },
                test_evaluator(),
            )
            .unwrap();
        let now = Instant::now();
        let lease = registry.lease(now).unwrap();
        registry
            .complete_shard(lease.lease, report_with(lease.shard, 5), now)
            .unwrap();

        let raw = store.lock().unwrap().records.clone();
        let mut recovered = JobRegistry::new(Duration::from_secs(30));
        let rebuild: &RebuildFn<'_> =
            &|_recipe: &JsonValue| Err(ExploreError::Workload("no rebuild".into()));
        let stats = recovered.restore(None, &raw, rebuild).unwrap();
        assert_eq!(stats.unrecoverable, 1);
        let status = recovered.poll(id).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.report.evaluated, 1, "committed partials survive");
        assert!(recovered.lease(now).is_none());
    }

    /// A tenant whose weight is rewritten mid-backlog (the scheduler's
    /// last-submission-wins rule) must still drain within the replay
    /// checker's proportional-share slack — the finish tag computed under
    /// the old weight is exactly what [`spi_store::trace::FAIRNESS_SLACK`]
    /// budgets for.
    #[test]
    fn mid_backlog_weight_change_keeps_the_trace_replayable() {
        let system = scaling_system(3, 2).unwrap(); // 8 variants
        let mut registry = JobRegistry::new(Duration::from_secs(30));
        let submit = |registry: &mut JobRegistry, tenant: &str, weight: u32| {
            registry
                .submit(
                    &system,
                    JobSpec {
                        name: tenant.into(),
                        shard_count: 8,
                        top_k: 2,
                        tenant: tenant.into(),
                        weight,
                        ..JobSpec::default()
                    },
                    test_evaluator(),
                )
                .unwrap()
        };
        submit(&mut registry, "steady", 1);
        submit(&mut registry, "shifty", 1);
        // Mid-backlog: shifty resubmits at weight 4 while its first job's
        // shards are still queued, rewriting the live queue's weight.
        submit(&mut registry, "shifty", 4);

        let now = Instant::now();
        while let Some(lease) = registry.lease(now) {
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 1), now)
                .unwrap();
        }

        let drained = registry.drain_trace();
        assert_eq!(drained.dropped, 0, "default ring holds a small run");
        let report = TraceReplay::check(&drained.events);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.dispatches, 24);
        assert_eq!(report.commits, 24);
        assert_eq!(report.committed_shards, 24);
    }

    #[test]
    fn waitgraph_snapshot_matches_registry_state() {
        let (mut registry, id) = registry_with_job(4);
        let now = Instant::now();
        let held = registry.lease_as("w-0", now).unwrap();
        let finished = registry.lease_as("w-1", now).unwrap();
        registry
            .complete_shard(finished.lease, report_with(finished.shard, 3), now)
            .unwrap();

        let graph = registry.waitgraph();
        graph.validate().unwrap();
        assert_eq!(graph.nodes_of_kind("job").count(), 1);
        // 4 shards, 1 done: done shards wait on nothing and are omitted.
        assert_eq!(graph.nodes_of_kind("shard").count(), 3);
        assert_eq!(graph.nodes_of_kind("lease").count(), 1);
        assert_eq!(graph.nodes_of_kind("tenant").count(), 1);
        // w-1's lease is spent, so only w-0 appears; no sink, no store node.
        assert_eq!(graph.nodes_of_kind("worker").count(), 1);
        assert_eq!(graph.nodes_of_kind("store").count(), 0);

        let job_node = format!("job:{}", id.raw());
        assert!(graph.needs_of(&job_node).any(|n| n == "tenant:default"));
        let shard_node = format!("shard:{}/{}", id.raw(), held.shard);
        let lease_node = format!("lease:{}", held.lease.raw());
        assert!(graph.needs_of(&shard_node).any(|n| n == lease_node));
        assert_eq!(
            graph.needs_of(&lease_node).collect::<Vec<_>>(),
            vec!["worker:w-0"]
        );

        let status = registry.poll(id).unwrap();
        let attr = |key: &str| {
            graph
                .node(&job_node)
                .unwrap()
                .attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(attr("shards_done"), status.shards_done.to_string());
        assert_eq!(attr("state"), status.state.to_string());
    }

    /// Voluntary returns and deadline expiries are distinct trace events, and
    /// both leave a replay-clean trace (the requeue is recorded, so the
    /// replayed backlog never underflows).
    #[test]
    fn expiry_and_abandon_are_distinguished_in_the_trace() {
        let (mut registry, _id) = registry_with_job(2);
        let t0 = Instant::now();
        let _doomed = registry.lease(t0).unwrap();
        let returned = registry.lease(t0).unwrap();
        registry.abandon(returned.lease);
        assert_eq!(registry.expire(t0 + Duration::from_secs(61)), 1);

        let drained = registry.drain_trace();
        let kinds: Vec<&str> = drained
            .events
            .iter()
            .map(|traced| traced.event.kind())
            .collect();
        assert!(kinds.contains(&"lease_abandon"));
        assert!(kinds.contains(&"lease_expire"));
        let report = TraceReplay::check(&drained.events);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    /// Satellite of the WAL-restore fix: `shards`/`top_k`/`combinations` are
    /// narrowed with `try_from`, not `as` — a count that fits `usize` round
    /// trips exactly, and one that does not is a protocol error instead of a
    /// silent truncation.
    #[test]
    fn recovered_job_narrows_counts_checked() {
        let summary = JsonValue::object([
            ("job", JsonValue::Int(1)),
            ("name", JsonValue::string("big")),
            ("tenant", JsonValue::string("default")),
            ("weight", JsonValue::Int(1)),
            ("shards", JsonValue::Int(1 << 40)),
            ("top_k", JsonValue::Int(8)),
            ("combinations", JsonValue::Int(1 << 40)),
            ("state", JsonValue::string("running")),
        ]);
        #[cfg(target_pointer_width = "64")]
        {
            let job = RecoveredJob::from_summary(&summary).unwrap();
            assert_eq!(job.shard_count, 1usize << 40);
            assert_eq!(job.combinations, 1usize << 40);
        }
        #[cfg(target_pointer_width = "32")]
        {
            let err = RecoveredJob::from_summary(&summary).unwrap_err();
            assert!(err.contains("overflows"), "got: {err}");
        }
    }
}
