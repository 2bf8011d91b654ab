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
//! # Finished jobs
//!
//! The job table holds running jobs only. The moment a job turns terminal —
//! its last shard commits, it is cancelled, it is answered from the cache or
//! its space is empty at submit, or restore finds it finished — it leaves
//! the table as a finished entry: its counts (the latency quantiles
//! computed once) plus its result, and nothing it needed to run (recipe,
//! shard slots, staged reports, latency reservoir, flattener, evaluator).
//! A result the cache holds is kept as the committed report's canonical
//! line, shared, not copied: a cacheable job holds the line it put in the
//! cache, and a cache hit the cached line it was served. A result nothing
//! shares (a `no_cache` or cancelled job's) keeps its own `top`. `poll`
//! builds the [`JobStatus`] from the entry, parsing a line for its `top`;
//! the `jobs` listing reads the counts only. At most 1,024 finished jobs
//! are kept; past that the job that finished earliest is evicted, whatever
//! its id, and a running job never is. Asking for an evicted job answers
//! [`ExploreError::Retired`] at once, so a daemon's memory no longer grows
//! with every job it has run.
//!
//! # The result cache
//!
//! A submission that provides a *recipe* (the construction description of the
//! system, as the ndjson frontend does) and whose evaluator exposes a
//! canonical [`spec`](crate::Evaluator::spec) gets a content
//! [`Digest`] over `{system recipe, variant space, evaluator spec}`. On
//! completion the committed report is cached under that digest as its
//! canonical line; a later identical submission is served from the cache at
//! birth — state `Completed`, `evaluated == 0`, the cached optimum in `top` —
//! without a single worker evaluation. A job submitted with
//! [`JobSpec::use_cache`] off neither reads nor writes the cache: the digest
//! is the address of a deterministic computation, so its write would only
//! store what the next cacheable submission writes anyway.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_model::digest::{digest_json, Digest};
use spi_model::introspect::{GraphEdge, GraphNode, GraphSnapshot};
use spi_model::json::{self, FromJson, JsonValue, ToJson};
use spi_store::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use spi_store::sched::{FairScheduler, HedgeConfig, LatencyTracker};
use spi_store::span::{PhaseId, SpanIds, SpanSink};
use spi_store::trace::{TraceCapture, TraceDrain, TraceEvent, DEFAULT_TRACE_CAPACITY};
use spi_store::{CacheLimit, ResultCache, SnapshotText, DEFAULT_CACHE_BYTES};
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
    /// Whether the job goes through the result cache. When `false` the job
    /// is recomputed and its result is not cached: the job neither reads
    /// nor writes the cache.
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
    /// Bound on the result cache (entries and/or bytes of cached lines); the
    /// default is [`DEFAULT_CACHE_BYTES`] of lines.
    pub cache_limit: CacheLimit,
    /// Compact the WAL whenever its log grows past this many bytes (checked
    /// after each committed completion); `None` compacts only at quiesce.
    pub compact_log_bytes: Option<u64>,
    /// Capacity of the scheduler-decision trace ring
    /// ([`spi_store::trace::TraceCapture`]); `0` disables capture.
    pub trace_capacity: usize,
}

/// How many finished jobs stay answerable. Past it, the job that finished
/// earliest is evicted and answers [`ExploreError::Retired`]; running jobs
/// are never evicted.
const RETAIN_FINISHED: usize = 1024;

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            lease_timeout: Duration::from_secs(30),
            hedge: HedgeConfig::default(),
            cache_limit: CacheLimit::bytes(DEFAULT_CACHE_BYTES),
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
    /// The lease's span attribution (its waitgraph ids), built once at the
    /// grant and shared by every span of the lease, the worker's drain and
    /// the registry's renews and commit alike.
    pub context: Arc<SpanIds>,
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
    /// The lease's span attribution, shared with its [`Lease`]; it names the
    /// worker (the pool's thread name) the waitgraph and health show too.
    context: Arc<SpanIds>,
}

impl Holder {
    /// The worker the lease was granted to.
    fn worker(&self) -> &str {
        self.context.worker.as_deref().unwrap_or_default()
    }
}

enum ShardSlot {
    Pending,
    /// Under one or more leases (more than one while a hedge is in flight).
    Leased {
        holders: Vec<Holder>,
    },
    Done,
}

/// What a job is from its submit on: the fields its submit record and, while
/// it runs, its snapshot summary both carry (see [`JobHead::members`]).
struct JobHead {
    name: String,
    /// Shared with every lease's span context.
    tenant: Arc<str>,
    weight: u32,
    use_cache: bool,
    shard_count: usize,
    top_k: usize,
    combinations: usize,
    /// Content address of `(system recipe, space, evaluator spec)`, when the
    /// submission was cacheable.
    digest: Option<Digest>,
    /// The construction recipe, when supplied: what recovery rebuilds the
    /// flattener and evaluator from after a restart.
    recipe: Option<JsonValue>,
}

impl JobHead {
    /// The members a durable line of job `id` starts with, in the order the
    /// submit record and the running summary both write them: `t` (a log
    /// record's kind; a snapshot summary has none), `job`, the head, then
    /// `cache_hit` and `state`.
    fn members(
        &self,
        kind: Option<&str>,
        id: JobId,
        cache_hit: bool,
        state: JobState,
    ) -> Vec<(&'static str, JsonValue)> {
        let kind = kind.map(|kind| ("t", JsonValue::string(kind)));
        kind.into_iter()
            .chain([
                ("job", id.raw().to_json()),
                ("name", self.name.to_json()),
                ("tenant", JsonValue::string(&*self.tenant)),
                ("weight", JsonValue::Int(i128::from(self.weight))),
                ("use_cache", JsonValue::Bool(self.use_cache)),
                ("shards", self.shard_count.to_json()),
                ("top_k", self.top_k.to_json()),
                ("combinations", self.combinations.to_json()),
                (
                    "digest",
                    self.digest
                        .as_ref()
                        .map_or(JsonValue::Null, ToJson::to_json),
                ),
                ("recipe", self.recipe.clone().unwrap_or(JsonValue::Null)),
                ("cache_hit", JsonValue::Bool(cache_hit)),
                ("state", JsonValue::string(state.as_wire())),
            ])
            .collect()
    }
}

/// What the durable records say about one job: its head, state and cache-hit
/// flag, its committed shards and report, its hedge counters. Submit builds
/// one and writes its submit record from it; restore replays snapshot
/// summaries and log records into them. A running one becomes a [`Job`]
/// through [`JobRegistry::admit`], a finished one its finished entry through
/// [`into_finished`](Self::into_finished).
struct JobRecord {
    head: JobHead,
    state: JobState,
    cache_hit: bool,
    /// The committed shards, when the record lists them.
    done: BTreeSet<usize>,
    /// Committed shards: the summary's count, or the size of `done`.
    shards_done: usize,
    /// The committed report; only its counters are read when `line` is
    /// set.
    committed: ShardReport,
    /// A finished job's result line, when it is known as one: the cached
    /// line a hit is served or a cacheable job put in the cache, or the
    /// committed report a finished job's summary or submit record carries.
    line: Option<Arc<str>>,
    hedges_issued: u64,
    hedge_wins: u64,
}

impl JobRecord {
    /// Parses a submit record (or a snapshot job summary held as a tree).
    fn from_json(value: &JsonValue) -> std::result::Result<JobRecord, String> {
        let committed = value.get("committed").map(JsonValue::to_line);
        JobRecord::from_parts(value, committed.as_deref())
    }

    /// Parses a submit record or a snapshot job summary (running or
    /// finished, in either snapshot format) whose `committed` report, if it
    /// has one, is passed apart as its line. A running job must carry its
    /// `weight` and `top_k`; a finished one needs neither.
    ///
    /// A running job's committed report is read in full (its shards merge
    /// into it); a finished one's is kept as its line, only its counters
    /// read, so a `top` that is no report fails the `poll` that serves it,
    /// not the restore.
    fn from_parts(
        value: &JsonValue,
        committed: Option<&str>,
    ) -> std::result::Result<JobRecord, String> {
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
        let flag = |name: &str, absent| {
            value
                .get(name)
                .and_then(JsonValue::as_bool)
                .unwrap_or(absent)
        };
        let count = |name: &str| value.get(name).and_then(JsonValue::as_u64).unwrap_or(0);
        let state = JobState::from_wire(field_str("state")?)
            .ok_or_else(|| "job summary has unknown state".to_string())?;
        let running = state == JobState::Running;
        let digest = match value.get("digest") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(Digest::from_json(other).map_err(|e| format!("job digest: {e}"))?),
        };
        let recipe = match value.get("recipe") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(other.clone()),
        };
        let done: BTreeSet<usize> = match value.get("done") {
            None => BTreeSet::new(),
            Some(list) => Vec::<usize>::from_json(list)
                .map_err(|e| format!("job done list: {e}"))?
                .into_iter()
                .collect(),
        };
        let shards_done = match value.get("shards_done") {
            Some(_) => field_usize("shards_done")?,
            None => done.len(),
        };
        let (committed, line) = match committed {
            None => (ShardReport::default(), None),
            Some(line) if running => (
                JsonValue::parse(line)
                    .and_then(|report| ShardReport::from_json(&report))
                    .map_err(|e| format!("job committed: {e}"))?,
                None,
            ),
            Some(line) => (
                ShardReport::counts_of(line).map_err(|e| format!("job committed: {e}"))?,
                Some(Arc::from(line)),
            ),
        };
        let head = JobHead {
            name: field_str("name")?.to_string(),
            tenant: field_str("tenant")?.into(),
            weight: if running {
                u32::try_from(field_u64("weight")?).unwrap_or(1).max(1)
            } else {
                1
            },
            use_cache: flag("use_cache", true),
            shard_count: field_usize("shards")?,
            top_k: if running {
                field_usize("top_k")?.max(1)
            } else {
                1
            },
            combinations: field_usize("combinations")?,
            digest,
            recipe,
        };
        Ok(JobRecord {
            head,
            state,
            cache_hit: flag("cache_hit", false),
            done,
            shards_done,
            committed,
            line,
            hedges_issued: count("hedges_issued"),
            hedge_wins: count("hedge_wins"),
        })
    }

    /// Parses one snapshot job summary, member by member, into its job's id
    /// and record: a running job's in full, a finished one's with its
    /// committed report kept as the line it is (only its counters are read).
    fn from_summary(text: &str) -> std::result::Result<(u64, JobRecord), String> {
        let mut members = Vec::new();
        let mut committed = None;
        for member in json::members(text) {
            let (key, value) = member.map_err(|e| format!("job summary: {e}"))?;
            if key == "committed" {
                committed = Some(value);
            } else {
                let value = JsonValue::parse(value).map_err(|e| format!("job summary: {e}"))?;
                members.push((key.into_owned(), value));
            }
        }
        let summary = JsonValue::Object(members);
        let job_id = summary
            .get("job")
            .and_then(JsonValue::as_u64)
            .ok_or("submit record missing job")?;
        Ok((job_id, JobRecord::from_parts(&summary, committed)?))
    }

    /// The write-ahead record of job `id`'s submission: its head, plus its
    /// result when it finished at birth.
    ///
    /// # Errors
    ///
    /// [`spi_model::json::JsonError`] when a hit's cached line has no `top`
    /// to serve.
    fn submit_record(&self, id: JobId) -> spi_model::json::JsonResult<String> {
        let members = self
            .head
            .members(Some("submit"), id, self.cache_hit, self.state);
        let mut record = JsonValue::object(members).to_line();
        if self.state.is_terminal() {
            let committed = match &self.line {
                Some(line) => self.committed.line_with_top(ShardReport::top_of(line)?),
                None => self.committed.to_json().to_line(),
            };
            json::push_member(&mut record, "committed", &committed);
        }
        Ok(record)
    }

    /// The finished entry of the job, the one place one is built: for a job
    /// known only from its records (born finished at submit, or found
    /// terminal in `state` by restore) and, through [`Job::finish`], for one
    /// that ran here. Latency quantiles are not durable: they start empty.
    fn into_finished(self) -> Finished {
        let mut report = self.committed;
        if self.line.is_some() {
            report.top = Vec::new();
        }
        Finished {
            name: self.head.name,
            tenant: self.head.tenant,
            state: self.state,
            combinations: self.head.combinations,
            shard_count: self.head.shard_count,
            shards_done: self.shards_done,
            cache_hit: self.cache_hit,
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
            latency: LatencyQuantiles::default(),
            report,
            line: self.line,
        }
    }
}

/// A finished job: what `poll` answers for it, held as its committed report
/// and, where there is one, its result line.
struct Finished {
    name: String,
    tenant: Arc<str>,
    state: JobState,
    combinations: usize,
    shard_count: usize,
    shards_done: usize,
    cache_hit: bool,
    hedges_issued: u64,
    hedge_wins: u64,
    latency: LatencyQuantiles,
    /// The committed report; its `top` is left empty when `line` holds it.
    report: ShardReport,
    /// The canonical line of a [`ShardReport`] whose `top` is this job's,
    /// when the job has one: the line a cacheable job put in the cache, the
    /// cached line a hit was served (its counters are then the computing
    /// job's, while the hit's own read zero), or the committed report its
    /// snapshot summary or submit record carried. The cache and every job
    /// that holds a line share one copy. A job whose result nothing shares
    /// keeps its own `top` instead: a line of it would be one more copy.
    line: Option<Arc<str>>,
}

impl Finished {
    /// Job `id`'s status with `top` as its report's `top`.
    fn status_with(&self, id: JobId, top: Vec<BestVariant>) -> JobStatus {
        JobStatus {
            job: id,
            name: self.name.clone(),
            tenant: self.tenant.to_string(),
            state: self.state,
            combinations: self.combinations,
            shard_count: self.shard_count,
            shards_done: self.shards_done,
            shards_in_flight: 0,
            cache_hit: self.cache_hit,
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
            latency: self.latency,
            report: ShardReport {
                top,
                ..self.report.counts()
            },
        }
    }

    /// Job `id`'s status, its `top` its own or parsed from its line.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Store`] when the line is no report (a store entry
    /// this version did not write).
    fn status(&self, id: JobId) -> Result<JobStatus> {
        let top = match &self.line {
            None => self.report.top.clone(),
            Some(line) => {
                JsonValue::parse(line)
                    .and_then(|line| ShardReport::from_json(&line))
                    .map_err(|e| ExploreError::Store(format!("{id} holds a corrupt result: {e}")))?
                    .top
            }
        };
        Ok(self.status_with(id, top))
    }

    /// The text of the job's committed report. A hit's own counters read
    /// zero, so its line is spliced around the served `top`; a line with no
    /// `top` to splice is written as it is, to be refused when read.
    fn committed(&self) -> std::borrow::Cow<'_, str> {
        let Some(line) = &self.line else {
            return self.report.to_json().to_line().into();
        };
        match self.cache_hit.then(|| ShardReport::top_of(line)) {
            Some(Ok(top)) => self.report.line_with_top(top).into(),
            _ => (**line).into(),
        }
    }

    /// The durable summary of finished job `id`, used in snapshots: no
    /// recipe, no `done` list, no weight, `top_k` or digest — restore needs
    /// none of them for a job that will never run again.
    fn summary(&self, id: JobId) -> String {
        let mut summary = JsonValue::object([
            ("job", id.raw().to_json()),
            ("name", self.name.to_json()),
            ("tenant", JsonValue::string(&*self.tenant)),
            ("shards", self.shard_count.to_json()),
            ("shards_done", self.shards_done.to_json()),
            ("combinations", self.combinations.to_json()),
            ("cache_hit", JsonValue::Bool(self.cache_hit)),
            ("state", JsonValue::string(self.state.as_wire())),
        ])
        .to_line();
        json::push_member(&mut summary, "committed", &self.committed());
        for (key, count) in [
            ("hedges_issued", self.hedges_issued),
            ("hedge_wins", self.hedge_wins),
        ] {
            json::push_member(&mut summary, key, &count.to_string());
        }
        summary
    }
}

/// A running job: everything it needs to hand out leases and account for
/// them. It leaves the job table as its [`Finished`] entry the moment it
/// turns terminal, which drops its flattener and evaluator with the rest.
struct Job {
    head: JobHead,
    flattener: Arc<Flattener>,
    /// The submitted evaluator, bound to this job by [`Evaluator::bind`]
    /// (or as submitted, when it does not bind).
    evaluator: Arc<dyn Evaluator>,
    incumbent: Arc<AtomicU64>,
    cancelled: Arc<AtomicBool>,
    shards: Vec<ShardSlot>,
    shards_done: usize,
    /// Per-lease staged reports, discarded on expiry/abandon/cancel.
    staged: HashMap<LeaseId, ShardReport>,
    /// Aggregate of completed shards only; exact by construction.
    committed: ShardReport,
    hedges_issued: u64,
    hedge_wins: u64,
    latencies: LatencyTracker,
}

impl Job {
    fn status(&self, id: JobId) -> JobStatus {
        let mut report = self.committed.clone();
        for staged in self.staged.values() {
            report.merge(staged, self.head.top_k);
        }
        let in_flight = self
            .shards
            .iter()
            .filter(|slot| matches!(slot, ShardSlot::Leased { .. }))
            .count();
        JobStatus {
            job: id,
            name: self.head.name.clone(),
            tenant: self.head.tenant.to_string(),
            state: JobState::Running,
            combinations: self.head.combinations,
            shard_count: self.head.shard_count,
            shards_done: self.shards_done,
            shards_in_flight: in_flight,
            cache_hit: false,
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
            latency: LatencyQuantiles::of(&self.latencies),
            report,
        }
    }

    /// The entry the job leaves behind on turning `state`, holding `line`,
    /// the line of its committed report the cache holds, if any. Its report
    /// is the committed one and nothing is in flight: staged reports and
    /// leases (a cancelled job's work in flight) die with the job.
    fn finish(self, state: JobState, line: Option<Arc<str>>) -> Finished {
        let latency = LatencyQuantiles::of(&self.latencies);
        // A job that holds no line keeps a copy of its report made here, in
        // one run, not the merged report itself: the merges left its parts
        // strewn among chunks the workers freed, and held for the next
        // 1,024 finished jobs those parts pin the holes around them. Over
        // 10,000 `no_cache` jobs with both rings off (entries unboxed), peak
        // RSS grew a median 0.46 MiB from job 2,000 on with the merged
        // report held, 0.27 with the copy (6 and 9 runs).
        let committed = match line {
            Some(_) => self.committed,
            None => self.committed.clone(),
        };
        let record = JobRecord {
            head: self.head,
            state,
            cache_hit: false,
            done: BTreeSet::new(),
            shards_done: self.shards_done,
            committed,
            line,
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
        };
        Finished {
            latency,
            ..record.into_finished()
        }
    }

    /// The durable summary of this running job, used in snapshots.
    fn durable_summary(&self, id: JobId) -> JsonValue {
        let done: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, ShardSlot::Done))
            .map(|(shard, _)| shard)
            .collect();
        let mut members = self.head.members(None, id, false, JobState::Running);
        members.extend([
            ("done", done.to_json()),
            ("committed", self.committed.to_json()),
            ("hedges_issued", self.hedges_issued.to_json()),
            ("hedge_wins", self.hedge_wins.to_json()),
        ]);
        JsonValue::object(members)
    }
}

/// How to turn a stored recipe back into a live system + evaluator after a
/// restart; see [`JobRegistry::restore`]. The ndjson frontend's recipes are
/// rebuilt by [`crate::wire::rebuild_from_recipe`].
pub type RebuildFn<'a> = dyn Fn(&JsonValue) -> Result<(VariantSystem, Arc<dyn Evaluator>)> + 'a;

/// What [`JobRegistry::restore`] reconstructed, for logging/observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Jobs held after the restore: the running ones plus the finished ones
    /// still retained.
    pub jobs: usize,
    /// Running jobs whose engines were rebuilt and shards requeued.
    pub resumed: usize,
    /// Shards requeued across resumed jobs.
    pub requeued_shards: usize,
    /// Running jobs that could not be rebuilt and were cancelled (their
    /// committed partial results are kept, as for any finished job).
    pub unrecoverable: usize,
    /// Result-cache entries available after the restore.
    pub cache_entries: usize,
}

/// Where the registry records its scheduler decisions: each one goes into
/// the trace ring and adds the counters [`MetricsRegistry::count`] derives
/// from it, through one [`emit`](Self::emit).
struct Events {
    /// Bounded ring of scheduler decisions; read by cursor over the `trace`
    /// and `watch` ops.
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
    /// one place a shard is enqueued and emitted.
    fn enqueue(
        &mut self,
        scheduler: &mut FairScheduler,
        id: JobId,
        tenant: &str,
        weight: u32,
        shards: impl IntoIterator<Item = usize>,
    ) {
        for shard in shards {
            scheduler.enqueue(tenant, weight, (id.raw(), shard));
            self.emit(TraceEvent::WfqEnqueue {
                tenant: tenant.to_string(),
                weight,
                job: id.raw(),
                shard,
            });
        }
    }
}

/// The service's job table; see the module docs for the protocol.
pub struct JobRegistry {
    config: RegistryConfig,
    next_job: u64,
    next_lease: u64,
    /// The running jobs: the only ones that can hold a lease, so the
    /// per-wakeup scans (expiry, hedging) walk this table.
    jobs: BTreeMap<JobId, Job>,
    /// The finished jobs still answerable, at most [`RETAIN_FINISHED`] of
    /// them. Boxed, so a leaf's empty slots cost a pointer rather than a
    /// whole entry: a retained cache hit measured 380–452 B of RSS boxed,
    /// against 559–657 B inline (960 hits per job kind, rings off).
    finished: BTreeMap<JobId, Box<Finished>>,
    /// The ids in `finished`, in the order the jobs finished: eviction takes
    /// the front.
    finish_order: VecDeque<JobId>,
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
    /// Successful compactions of the sink: the WAL's progress signal for
    /// the health sweep, kept whether or not metrics are on.
    compactions: u64,
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
            finished: BTreeMap::new(),
            finish_order: VecDeque::new(),
            scheduler: FairScheduler::new(),
            leases: HashMap::new(),
            cache,
            sink: None,
            events: Events {
                trace,
                metrics: Arc::new(MetricsRegistry::new()),
            },
            compactions: 0,
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

    /// Sets the gauges of the state this registry owns to their current
    /// levels: the WAL's size, the result cache's entries and bytes, the
    /// retained jobs and the trace ring's bytes. The metrics snapshot calls
    /// it, so each level is read where it lives, not pushed at each change.
    pub fn sample_gauges(&self) {
        let metrics = &self.events.metrics;
        let log_bytes = self.sink.as_ref().map_or(0, |sink| sink.log_bytes());
        metrics.set_gauge(GaugeId::WalLogBytes, log_bytes);
        metrics.set_gauge(GaugeId::CacheEntries, self.cache.len() as u64);
        metrics.set_gauge(GaugeId::CacheBytes, self.cache.total_bytes() as u64);
        metrics.set_gauge(GaugeId::JobsRetained, self.finished.len() as u64);
        metrics.set_gauge(
            GaugeId::TraceRingBytes,
            self.events.trace.ring_bytes() as u64,
        );
    }

    /// The `tenants` section of the metrics snapshot: the scheduler's
    /// [`TenantRow`](spi_store::TenantRow) of every tenant that ever queued
    /// a shard, by name, whether or not metrics are on.
    pub fn tenant_rows(&self) -> JsonValue {
        let rows = self.scheduler.tenant_rows().map(|(tenant, row)| {
            let row = JsonValue::object([
                ("service", row.service.to_json()),
                ("enqueues", row.enqueues.to_json()),
                ("backlog", row.backlog.to_json()),
                ("vtime_lag", row.vtime_lag.to_json()),
            ]);
            (tenant.to_string(), row)
        });
        JsonValue::Object(rows.collect())
    }

    /// Number of currently live leases (across all jobs and hedges).
    pub fn live_lease_count(&self) -> usize {
        self.leases.len()
    }

    /// Number of jobs currently in the `Running` state.
    pub fn running_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Holds job `id`, which just finished, evicting the jobs that finished
    /// earliest past the [`RETAIN_FINISHED`] cap.
    fn keep_finished(&mut self, id: JobId, finished: Finished) {
        self.hold_finished(id, finished);
        self.evict_past_cap();
    }

    /// Holds job `id`, which just finished, last in finish order, evicting
    /// none.
    fn hold_finished(&mut self, id: JobId, finished: Finished) {
        self.finish_order.push_back(id);
        self.finished.insert(id, Box::new(finished));
    }

    /// Evicts the jobs that finished earliest past the [`RETAIN_FINISHED`]
    /// cap.
    fn evict_past_cap(&mut self) {
        while self.finish_order.len() > RETAIN_FINISHED {
            let oldest = self
                .finish_order
                .pop_front()
                .expect("over the cap implies a finished job");
            self.finished.remove(&oldest);
        }
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
        // A `no_cache` job neither reads nor writes the cache, so it needs
        // no content address.
        let digest = if spec.use_cache {
            cache_digest(
                recipe.as_ref(),
                &flattener.space().to_json(),
                evaluator.spec(),
            )
        } else {
            None
        };
        let cached = match digest {
            Some(digest) => {
                let hit = self.cache.lookup(digest);
                // A hit is counted when its job exists (the `CacheHit`
                // event below), a miss here: no event records one.
                if hit.is_none() {
                    self.events.metrics.add(CounterId::CacheMisses, 1);
                }
                hit
            }
            None => None,
        };

        let id = JobId(self.next_job);
        let cache_hit = cached.is_some();
        // A cache hit serves the cached optimum with zeroed counters: no
        // worker ran, so nothing was evaluated *for this job* — `top` carries
        // the optimum, `evaluated == 0` proves the pool was never touched.
        // It holds the cached line itself, unparsed. A job over an empty
        // space is finished at birth too.
        let record = JobRecord {
            head: JobHead {
                name: spec.name,
                tenant: spec.tenant.into(),
                weight: spec.weight.max(1),
                use_cache: spec.use_cache,
                shard_count: if cache_hit {
                    0
                } else {
                    spec.shard_count.min(combinations.max(1))
                },
                top_k: spec.top_k.max(1),
                combinations,
                digest,
                recipe,
            },
            state: if cache_hit || combinations == 0 {
                JobState::Completed
            } else {
                JobState::Running
            },
            cache_hit,
            done: BTreeSet::new(),
            shards_done: 0,
            committed: ShardReport::default(),
            line: cached,
            hedges_issued: 0,
            hedge_wins: 0,
        };

        // Write-ahead: the submit record must be durable before the job
        // exists (a crash in between recovers to "never submitted", which the
        // client, having no ack, must assume anyway).
        if self.sink.is_some() {
            let line = record
                .submit_record(id)
                .map_err(|e| ExploreError::Store(format!("corrupt cache entry: {e}")))?;
            self.append_record(&line)?;
        }

        self.next_job += 1;
        if record.state == JobState::Running {
            self.admit(id, record, flattener, evaluator);
        } else {
            if cache_hit {
                self.events.emit(TraceEvent::CacheHit { job: id.raw() });
            }
            self.keep_finished(id, record.into_finished());
        }
        Ok(id)
    }

    /// Admits job `id`, running as its `record` says, over `flattener` and
    /// `evaluator`: the one place a running [`Job`] is built, its evaluator
    /// bound and its pending shards queued, at submit and at restore alike.
    /// Returns how many shards it queued.
    fn admit(
        &mut self,
        id: JobId,
        record: JobRecord,
        flattener: Arc<Flattener>,
        evaluator: Arc<dyn Evaluator>,
    ) -> usize {
        let JobRecord {
            head,
            done,
            shards_done,
            committed,
            hedges_issued,
            hedge_wins,
            ..
        } = record;
        let pending = (0..head.shard_count).filter(|shard| !done.contains(shard));
        let queued = pending.clone().count();
        self.events
            .enqueue(&mut self.scheduler, id, &head.tenant, head.weight, pending);
        let shards = (0..head.shard_count)
            .map(|shard| {
                if done.contains(&shard) {
                    ShardSlot::Done
                } else {
                    ShardSlot::Pending
                }
            })
            .collect();
        let incumbent = committed.best().map_or(u64::MAX, |best| best.cost);
        let evaluator = Arc::clone(&evaluator).bind(&flattener).unwrap_or(evaluator);
        self.jobs.insert(
            id,
            Job {
                head,
                flattener,
                evaluator,
                incumbent: Arc::new(AtomicU64::new(incumbent)),
                cancelled: Arc::new(AtomicBool::new(false)),
                shards,
                shards_done,
                staged: HashMap::new(),
                committed,
                hedges_issued,
                hedge_wins,
                latencies: LatencyTracker::new(),
            },
        );
        queued
    }

    /// Caches a completed job's committed `report` as its line when the job
    /// has a digest and did not opt out: the one cache rule, for the last
    /// commit and for its replay alike. Returns the line, which the job
    /// shares with the cache, and how many entries the insert evicted; a
    /// job that is not cached renders no line.
    fn cache_result(&mut self, head: &JobHead, report: &ShardReport) -> (Option<Arc<str>>, u64) {
        let Some(digest) = head.digest.filter(|_| head.use_cache) else {
            return (None, 0);
        };
        let line: Arc<str> = Arc::from(report.to_json().to_line());
        let evicted = self.cache.insert(digest, Arc::clone(&line));
        (Some(line), evicted)
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
            if !matches!(job.shards[shard], ShardSlot::Pending) {
                continue;
            }
            // Only a dispatch that becomes a lease serves its tenant.
            self.scheduler.mark_service(&job.head.tenant);
            return Some(self.grant(job_id, shard, now, false, worker));
        }
        let (job_id, shard) = self.hedge_candidate(now)?;
        Some(self.grant(job_id, shard, now, true, worker))
    }

    /// The most overdue straggler shard eligible for a duplicate lease.
    fn hedge_candidate(&self, now: Instant) -> Option<(JobId, usize)> {
        let hedge = &self.config.hedge;
        let mut best: Option<(u128, JobId, usize)> = None;
        for (&job_id, job) in &self.jobs {
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
        let context = Arc::new(SpanIds {
            job: Some(job_id.raw()),
            shard: Some(shard as u64),
            lease: Some(lease.raw()),
            tenant: Some(Arc::clone(&job.head.tenant)),
            worker: Some(Arc::from(worker)),
        });
        let holder = Holder {
            lease,
            deadline,
            started: now,
            context: Arc::clone(&context),
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
        Lease {
            job: job_id,
            lease,
            shard,
            shard_count: job.head.shard_count,
            context,
            top_k: job.head.top_k,
            flattener: Arc::clone(&job.flattener),
            evaluator: Arc::clone(&job.evaluator),
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

    /// The span attribution the live `lease` on `shard` got at its grant.
    fn lease_context(&self, job_id: JobId, shard: usize, lease: LeaseId) -> Arc<SpanIds> {
        let job = self.jobs.get(&job_id).expect("lease resolves to job");
        let ShardSlot::Leased { holders } = &job.shards[shard] else {
            unreachable!("a live lease's shard is leased")
        };
        let holder = holders
            .iter()
            .find(|holder| holder.lease == lease)
            .expect("a live lease has its holder");
        Arc::clone(&holder.context)
    }

    fn append_record(&mut self, record: &str) -> Result<()> {
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
                metrics.add(CounterId::WalAppendBytes, record.len() as u64);
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
            let ids = self.lease_context(job_id, shard, lease);
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
        let top_k = job.head.top_k;
        job.staged.entry(lease).or_default().merge(&delta, top_k);
        if spanning {
            self.spans.exit();
        }
        Ok(())
    }

    /// Completes the shard under `lease`: merges the final `delta`,
    /// write-ahead logs the staged report, commits it into the job aggregate
    /// and, when it was the last shard, finishes the job: it moves to the
    /// finished table, and its committed result goes into the cache when the
    /// job is cacheable and did not opt out. Any other
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
            let ids = self.lease_context(job_id, shard, lease);
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
            full.merge(&delta, job.head.top_k);
            let record = JsonValue::object([
                ("t", JsonValue::string("shard")),
                ("job", job_id.raw().to_json()),
                ("shard", shard.to_json()),
                ("report", full.to_json()),
            ]);
            if let Err(rejected) = self.append_record(&record.to_line()) {
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
        let top_k = job.head.top_k;
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

        if job.shards_done == job.head.shard_count {
            let job = self.jobs.remove(&job_id).expect("lease resolves to job");
            let (line, evicted) = self.cache_result(&job.head, &job.committed);
            if evicted > 0 {
                self.events.emit(TraceEvent::CacheEvict { evicted });
            }
            self.keep_finished(job_id, job.finish(JobState::Completed, line));
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
            if holders.is_empty() {
                job.shards[shard] = ShardSlot::Pending;
                self.events.enqueue(
                    &mut self.scheduler,
                    job_id,
                    &job.head.tenant,
                    job.head.weight,
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
            .jobs
            .values()
            .flat_map(|job| job.shards.iter())
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
    /// the shared cancel flag raised so draining workers stop early; the job
    /// moves to the finished table with its committed partial results.
    /// Finished jobs are left as they are — cancellation is idempotent.
    /// Returns the resulting snapshot.
    ///
    /// # Errors
    ///
    /// [`ExploreError::UnknownJob`] for an id never submitted,
    /// [`ExploreError::Retired`] for an evicted one; [`ExploreError::Store`]
    /// when the sink rejects the cancel record (the job then stays running).
    pub fn cancel(&mut self, job_id: JobId) -> Result<JobStatus> {
        if !self.jobs.contains_key(&job_id) {
            return self.poll(job_id);
        }
        if self.sink.is_some() {
            let record = JsonValue::object([
                ("t", JsonValue::string("cancel")),
                ("job", job_id.raw().to_json()),
            ]);
            self.append_record(&record.to_line())?;
        }
        let job = self.jobs.remove(&job_id).expect("job still present");
        job.cancelled.store(true, Ordering::Relaxed);
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
        let finished = job.finish(JobState::Cancelled, None);
        let status = finished.status_with(job_id, finished.report.top.clone());
        self.keep_finished(job_id, finished);
        Ok(status)
    }

    /// A point-in-time snapshot of the job.
    ///
    /// # Errors
    ///
    /// [`ExploreError::UnknownJob`] for an id never submitted;
    /// [`ExploreError::Retired`] for a finished job that was evicted (see
    /// the [module docs](self#finished-jobs)).
    pub fn poll(&self, job_id: JobId) -> Result<JobStatus> {
        if let Some(job) = self.jobs.get(&job_id) {
            return Ok(job.status(job_id));
        }
        self.held(job_id)?.status(job_id)
    }

    /// Job `job_id`'s status as the `jobs` listing and the submit answer
    /// show it: a running job's as [`poll`](Self::poll) answers it, a
    /// finished job's with its `top` left empty, so no result line is read.
    ///
    /// # Errors
    ///
    /// As [`poll`](Self::poll), for a job that is neither running nor held.
    pub(crate) fn listed(&self, job_id: JobId) -> Result<JobStatus> {
        match self.jobs.get(&job_id) {
            Some(job) => Ok(job.status(job_id)),
            None => Ok(self.held(job_id)?.status_with(job_id, Vec::new())),
        }
    }

    /// The finished entry of `job_id`, or why there is none.
    fn held(&self, job_id: JobId) -> Result<&Finished> {
        match self.finished.get(&job_id) {
            Some(finished) => Ok(finished),
            // Every id below `next_job` was handed out: a finished job that
            // was evicted.
            None if job_id.raw() < self.next_job => Err(ExploreError::Retired(job_id)),
            None => Err(ExploreError::UnknownJob(job_id)),
        }
    }

    /// Ids of every running and retained job, in submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .jobs
            .keys()
            .chain(self.finished.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Visits every running and retained job's status as
    /// [`listed`](Self::listed) builds it, in submission order: the `jobs`
    /// listing shows counts only, so no finished job's result is parsed.
    pub(crate) fn for_each_status(&self, mut visit: impl FnMut(&JobStatus)) {
        for id in self.job_ids() {
            if let Ok(status) = self.listed(id) {
                visit(&status);
            }
        }
    }

    /// Reads the buffered scheduler-decision trace events at or after the
    /// `since` cursor, with the `next` cursor read under the same borrow; see
    /// [`TraceCapture::read_since`]. A read from 0 of a ring that never
    /// dropped is one gap-free, replayable trace.
    pub fn read_trace_since(&self, since: u64) -> TraceDrain {
        self.events.trace.read_since(since)
    }

    /// The sequence number the next recorded trace event will get — the
    /// natural starting cursor for [`read_trace_since`](Self::read_trace_since).
    pub fn trace_next_seq(&self) -> u64 {
        self.events.trace.next_seq()
    }

    /// A point-in-time health observation for the stall watchdog: every live
    /// lease holder with its age and the owning job's completed-shard p95,
    /// every backlogged tenant with its cumulative WFQ service count, and the
    /// WAL's size against its compaction budget. Pure data — the watchdog
    /// ([`crate::health::Watchdog`]) compares consecutive observations
    /// outside the registry lock.
    pub fn observe_health(&self, now: Instant) -> crate::health::HealthObservation {
        let mut leases = Vec::new();
        for (&job_id, job) in &self.jobs {
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
                        worker: holder.worker().to_string(),
                        elapsed: now.saturating_duration_since(holder.started),
                        overdue: holder.deadline <= now,
                        p95_ns,
                    });
                }
            }
        }
        let tenants = self
            .scheduler
            .tenant_rows()
            .filter(|(_, row)| row.backlog > 0)
            .map(|(tenant, row)| crate::health::TenantHealth {
                tenant: tenant.to_string(),
                backlog: row.backlog,
                service: row.service,
            })
            .collect();
        crate::health::HealthObservation {
            leases,
            tenants,
            log_bytes: self.sink.as_ref().map_or(0, |sink| sink.log_bytes()),
            compact_budget: self.config.compact_log_bytes,
            compactions: self.compactions,
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
    ///
    /// Retained finished jobs appear as job nodes that wait on nothing.
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
        // One tenant node per distinct tenant, weighted as the scheduler
        // weighs it (the weight it last enqueued at); a tenant the scheduler
        // never saw — one whose jobs were all answered at submit — has none.
        let mut tenants: BTreeSet<&str> = BTreeSet::new();
        let mut workers: BTreeSet<&str> = BTreeSet::new();
        for job in self.jobs.values() {
            tenants.insert(&*job.head.tenant);
            for slot in &job.shards {
                if let ShardSlot::Leased { holders } = slot {
                    for holder in holders {
                        workers.insert(holder.worker());
                    }
                }
            }
        }
        tenants.extend(self.finished.values().map(|done| &*done.tenant));
        for tenant in tenants {
            let node = GraphNode::new(format!("tenant:{tenant}"), "tenant", tenant);
            snapshot
                .nodes
                .push(match self.scheduler.tenant_weight(tenant) {
                    Some(weight) => node.attr("weight", weight.to_string()),
                    None => node,
                });
        }
        for worker in &workers {
            snapshot.nodes.push(GraphNode::new(
                format!("worker:{worker}"),
                "worker",
                *worker,
            ));
        }
        for (&id, done) in &self.finished {
            snapshot.nodes.push(
                GraphNode::new(format!("job:{}", id.raw()), "job", &done.name)
                    .attr("state", done.state.to_string())
                    .attr("shards_done", done.shards_done.to_string())
                    .attr("shards", done.shard_count.to_string()),
            );
        }
        for (&id, job) in &self.jobs {
            let job_node = format!("job:{}", id.raw());
            snapshot.nodes.push(
                GraphNode::new(&job_node, "job", &job.head.name)
                    .attr("state", JobState::Running.to_string())
                    .attr("shards_done", job.shards_done.to_string())
                    .attr("shards", job.head.shard_count.to_string()),
            );
            let tenant_node = format!("tenant:{}", job.head.tenant);
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
                    GraphNode::new(&shard_node, "shard", format!("{}[{shard}]", job.head.name))
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
                            .attr("worker", holder.worker()),
                    );
                    snapshot
                        .edges
                        .push(GraphEdge::new(&shard_node, &lease_node));
                    snapshot.edges.push(GraphEdge::new(
                        &lease_node,
                        format!("worker:{}", holder.worker()),
                    ));
                }
            }
        }
        snapshot
    }

    /// The full durable state as the text of one snapshot value (jobs,
    /// cache, id counter): what [`restore`](Self::restore) consumes and the
    /// compaction path hands to [`DurabilitySink::compact`]. `jobs` lists the
    /// running jobs in id order, then the retained finished ones in the order
    /// they finished, so a snapshot is as large as what the registry holds.
    /// It is written entry by entry: the cache's lines and the finished
    /// jobs' results as the lines they are held as, each running job and
    /// each result held as its own `top` from a small tree of its own, so
    /// no tree of the whole state is built.
    pub fn durable_snapshot(&self) -> SnapshotText {
        let mut text = format!("{{\"next_job\":{},\"cache\":", self.next_job);
        self.cache.write_snapshot(&mut text);
        text.push_str(",\"jobs\":[");
        let running = self
            .jobs
            .iter()
            .map(|(&id, job)| job.durable_summary(id).to_line());
        let finished = self
            .finish_order
            .iter()
            .map(|&id| self.finished[&id].summary(id));
        for (at, summary) in running.chain(finished).enumerate() {
            if at > 0 {
                text.push(',');
            }
            text.push_str(&summary);
        }
        text.push_str("]}");
        SnapshotText::new(text)
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
            self.compactions += 1;
            self.events.emit(TraceEvent::WalCompact { log_bytes });
        }
        Ok(())
    }

    /// Replays job `job_id`'s submit record, or its snapshot summary: it
    /// runs on, or it is held finished. A submit record for an id the log
    /// already named replaces that job (see [`restore`](Self::restore)).
    fn replay_submit(&mut self, replay: &mut Replay, job_id: u64, job: JobRecord) {
        let id = JobId(job_id);
        replay.next_job = replay.next_job.max(job_id + 1);
        // A torn submit left its id to the next submit.
        replay.running.remove(&job_id);
        if self.finished.remove(&id).is_some() {
            self.finish_order.retain(|&held| held != id);
        }
        if job.state == JobState::Running {
            replay.running.insert(job_id, job);
        } else {
            self.hold_finished(id, job.into_finished());
        }
    }

    /// Rebuilds registry state from a recovered snapshot plus the record tail
    /// appended after it — the restart path. Must be called on a fresh
    /// registry, **before** [`set_sink`](Self::set_sink) (replay must not
    /// re-append its own records).
    ///
    /// The snapshot is read as text, entry by entry, and no tree of it is
    /// built: each cached result is kept as the line it is, and each job
    /// summary is parsed on its own, a finished job's committed report kept
    /// as its line too. The snapshot's jobs, then the records, are replayed
    /// in log order (a snapshot summary replays as its job's submit record)
    /// into the same job records submit writes from, and a job moves to the
    /// finished table the moment the log shows it terminal; a completion
    /// the records show shares its result line with the cache, as it did
    /// live. A submit record for an id the log already named replaces that
    /// job: the earlier record was a torn submit (written, but its ack
    /// lost), whose id the next submit reused. Eviction past the cap runs
    /// once the log is read, so the restore ends with the same retained set
    /// that the live registry held — also when it was killed after
    /// evictions and before the next compaction. Both snapshot formats are
    /// read: today's, whose finished jobs are compact summaries, and the
    /// earlier one that listed every job with its recipe, `done` list,
    /// weight and `top_k` (in id order, which then stands for the finish
    /// order).
    ///
    /// Running jobs with a recipe are rebuilt through `rebuild` once the
    /// whole log is read, and admitted as a submit admits a job: their
    /// non-committed shards are requeued (in-flight leases did not survive the
    /// crash; their staged work restarts from zero — exactly-once holds
    /// because only committed shard reports were logged). Running jobs
    /// without a recipe (in-process submissions) cannot be re-evaluated and
    /// are restored as `Cancelled`, keeping their committed partial results.
    /// The result cache is restored from the snapshot, and every job the
    /// records complete feeds it as its completion did.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Store`] when a record or snapshot is malformed
    /// (checksums already passed in the WAL layer, so this means a version
    /// mismatch, not corruption).
    pub fn restore(
        &mut self,
        snapshot: Option<&SnapshotText>,
        records: &[JsonValue],
        rebuild: &RebuildFn<'_>,
    ) -> Result<RestoreStats> {
        let corrupt = |message: String| ExploreError::Store(message);
        let mut replay = Replay::default();
        if let Some(snapshot) = snapshot {
            let (mut next_job, mut cache, mut jobs) = (None, None, None);
            for member in json::members(snapshot.as_str()) {
                let (key, value) = member.map_err(|e| corrupt(format!("snapshot: {e}")))?;
                match &*key {
                    "next_job" => next_job = Some(value),
                    "cache" => cache = Some(value),
                    "jobs" => jobs = Some(value),
                    _ => {}
                }
            }
            let missing = |name: &str| corrupt(format!("snapshot missing {name}"));
            replay.next_job = next_job
                .and_then(|text| JsonValue::parse(text).ok()?.as_u64())
                .ok_or_else(|| missing("next_job"))?;
            self.cache = ResultCache::from_snapshot(cache.ok_or_else(|| missing("cache"))?)
                .map_err(|e| corrupt(format!("snapshot cache: {e}")))?;
            self.cache.set_limit(self.config.cache_limit);
            // A snapshot summary replays as its job's submit record.
            for summary in json::elements(jobs.ok_or_else(|| missing("jobs"))?) {
                let summary = summary.map_err(|e| corrupt(format!("snapshot jobs: {e}")))?;
                let (job_id, job) = JobRecord::from_summary(summary).map_err(corrupt)?;
                self.replay_submit(&mut replay, job_id, job);
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
            let id = JobId(job_id);
            // Shard and cancel records name a job the log submitted earlier;
            // one that already finished (a repeated record) changes nothing.
            let finished_before = job_id < replay.next_job && !replay.running.contains_key(&job_id);
            match kind {
                "submit" => {
                    let job = JobRecord::from_json(record).map_err(corrupt)?;
                    self.replay_submit(&mut replay, job_id, job);
                }
                "shard" | "cancel" if finished_before => {}
                "shard" => {
                    let job = replay
                        .running
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
                        job.committed.merge(&report, job.head.top_k);
                        job.shards_done += 1;
                    }
                    if job.shards_done == job.head.shard_count {
                        let mut job = replay.running.remove(&job_id).expect("found above");
                        job.state = JobState::Completed;
                        job.line = self.cache_result(&job.head, &job.committed).0;
                        self.hold_finished(id, job.into_finished());
                    }
                }
                "cancel" => {
                    let mut job = replay.running.remove(&job_id).ok_or_else(|| {
                        corrupt(format!("cancel record for unknown job {job_id}"))
                    })?;
                    job.state = JobState::Cancelled;
                    self.hold_finished(id, job.into_finished());
                }
                other => return Err(corrupt(format!("unknown record type `{other}`"))),
            }
        }
        let Replay { running, next_job } = replay;

        let mut stats = RestoreStats::default();
        for (raw, mut job) in running {
            let id = JobId(raw);
            let rebuilt = job
                .head
                .recipe
                .as_ref()
                .map(rebuild)
                .transpose()
                .ok()
                .flatten()
                .and_then(|(system, evaluator)| {
                    let flattener = Flattener::new(&system).ok()?;
                    (flattener.space().count() == job.head.combinations)
                        .then_some((Arc::new(flattener), evaluator))
                });
            let Some((flattener, evaluator)) = rebuilt else {
                stats.unrecoverable += 1;
                job.state = JobState::Cancelled;
                self.hold_finished(id, job.into_finished());
                continue;
            };
            stats.resumed += 1;
            stats.requeued_shards += self.admit(id, job, flattener, evaluator);
        }
        // Eviction waits for the whole log: a later submit record may
        // replace a finished job, and the live registry never held that one.
        self.evict_past_cap();
        let last_held = self.jobs.keys().chain(self.finished.keys()).max();
        self.next_job = next_job.max(last_held.map_or(0, |last| last.raw() + 1));
        stats.jobs = self.jobs.len() + self.finished.len();
        stats.cache_entries = self.cache.len();
        Ok(stats)
    }
}

/// Where a restore's replay stands: the jobs the log shows running, by id,
/// and the id counter so far.
#[derive(Default)]
struct Replay {
    running: BTreeMap<u64, JobRecord>,
    next_job: u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{MemorySink, MemoryStore};
    use crate::evaluator::{Evaluation, FnEvaluator};
    use spi_store::trace::TraceReplay;
    use spi_workloads::scaling_system;
    use std::sync::Mutex;

    /// A snapshot as the line the store writes, the form the restore tests
    /// compare snapshots in.
    trait SnapshotLine {
        fn to_line(&self) -> String;
    }

    impl SnapshotLine for SnapshotText {
        fn to_line(&self) -> String {
            self.as_str().to_string()
        }
    }

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
        assert!(Arc::strong_count(&evaluator) > 1, "a running job holds it");

        let now = Instant::now();
        let mut finished = None;
        while let Some(lease) = registry.lease(now) {
            drain_lease(
                &lease,
                5,
                &MetricsRegistry::disabled(),
                &SpanSink::disabled(),
                || false,
                |delta, last| {
                    if last {
                        let terminal = registry
                            .complete_shard(lease.lease, delta, now)
                            .expect("the only lease of its shard");
                        if terminal {
                            finished = Some(registry.poll(id).unwrap());
                        }
                    } else {
                        registry
                            .report_batch(lease.lease, delta, now)
                            .expect("the only lease of its shard");
                    }
                    FlushResponse::Continue
                },
            );
        }
        assert_eq!(
            Arc::strong_count(&evaluator),
            1,
            "a completed job keeps no clone of its evaluator"
        );
        let finished = finished.expect("the job finished");
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
        let snapshot = tree_of(&registry.durable_snapshot());
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

    /// A lease's span attribution is built once, at its grant: the lease
    /// carries it, every registry span under the lease carries its ids, and
    /// all leases of a job share the job's one tenant allocation.
    #[test]
    fn a_lease_carries_the_span_context_its_spans_share() {
        use spi_store::span::SpanRecorder;

        let mut registry = JobRegistry::new(Duration::from_secs(30));
        let recorder = Arc::new(SpanRecorder::new(1024));
        registry.set_spans(recorder.sink("registry"));
        submit_job(&mut registry, 2, false);
        let now = Instant::now();
        let first = registry.lease_as("w0", now).unwrap();
        let second = registry.lease_as("w1", now).unwrap();
        assert_eq!(first.context.lease, Some(first.lease.raw()));
        assert_eq!(first.context.shard, Some(first.shard as u64));
        assert_eq!(first.context.worker.as_deref(), Some("w0"));
        assert_eq!(second.context.worker.as_deref(), Some("w1"));
        let tenant = |lease: &Lease| Arc::clone(lease.context.tenant.as_ref().unwrap());
        assert_eq!(&*tenant(&first), "default");
        assert!(Arc::ptr_eq(&tenant(&first), &tenant(&second)));
        for lease in [&first, &second] {
            registry
                .report_batch(lease.lease, ShardReport::default(), now)
                .unwrap();
            registry
                .complete_shard(lease.lease, report_with(lease.shard, 1), now)
                .unwrap();
        }
        let spans = recorder.spans();
        // Per lease: a renew, and a commit with the renew inside it.
        assert_eq!(spans.len(), 6);
        for span in &spans {
            let lease = [&first, &second]
                .into_iter()
                .find(|lease| span.ids.lease == Some(lease.lease.raw()))
                .expect("every registry span here runs under a lease");
            assert_eq!(span.ids, *lease.context);
            assert!(Arc::ptr_eq(
                span.ids.tenant.as_ref().unwrap(),
                &tenant(lease)
            ));
        }
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
        fn append(&mut self, record: &str) -> std::result::Result<(), String> {
            self.bytes += record.len() as u64 + 1;
            Ok(())
        }

        fn compact(&mut self, _snapshot: &SnapshotText) -> std::result::Result<u64, String> {
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

        let drained = registry.read_trace_since(0);
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

        let drained = registry.read_trace_since(0);
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

    // --- finished jobs: the capped table ----------------------------------------------

    /// A default registry logging into `store`.
    fn logged_registry(store: &Arc<Mutex<MemoryStore>>) -> JobRegistry {
        let mut registry = JobRegistry::with_config(RegistryConfig::default());
        registry.set_sink(Box::new(MemorySink::new(Arc::clone(store))));
        registry
    }

    /// Submits a `shards`-shard job over the 8-variant scaling space, with a
    /// recipe so it can be rebuilt (and, unless `use_cache` is off, cached).
    fn submit_job(registry: &mut JobRegistry, shards: usize, use_cache: bool) -> JobId {
        registry
            .submit_with_recipe(
                &scaling_system(3, 2).unwrap(),
                JobSpec {
                    shard_count: shards,
                    use_cache,
                    ..JobSpec::default()
                },
                cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                Some(recipe_for(3)),
            )
            .unwrap()
    }

    /// Leases and commits every pending shard.
    fn drain_all(registry: &mut JobRegistry) {
        let now = Instant::now();
        while let Some(lease) = registry.lease(now) {
            registry
                .complete_shard(
                    lease.lease,
                    report_with(lease.shard, lease.shard as u64 + 3),
                    now,
                )
                .unwrap();
        }
    }

    fn rebuild_scaling(recipe: &JsonValue) -> Result<(VariantSystem, Arc<dyn Evaluator>)> {
        let interfaces = recipe
            .get("system")
            .and_then(|s| s.get("scaling"))
            .and_then(|s| s.get("interfaces"))
            .and_then(JsonValue::as_usize)
            .unwrap();
        Ok((
            scaling_system(interfaces, 2).unwrap(),
            cacheable_evaluator(Arc::new(AtomicU64::new(0))),
        ))
    }

    /// The tree of a snapshot's text, to inspect its members.
    fn tree_of(snapshot: &SnapshotText) -> JsonValue {
        JsonValue::parse(snapshot.as_str()).unwrap()
    }

    /// The wire line `poll` answers for `id`, or its error.
    fn answer(registry: &JobRegistry, id: JobId) -> std::result::Result<String, ExploreError> {
        registry
            .poll(id)
            .map(|status| crate::wire::status_to_json("poll", &status).to_line())
    }

    #[test]
    fn finished_jobs_past_the_cap_are_evicted_in_finish_order() {
        let mut registry = JobRegistry::with_config(RegistryConfig::default());
        let now = Instant::now();
        // Job 0 takes its only shard and then stalls.
        let slow = submit_job(&mut registry, 1, false);
        let stalled = registry.lease(now).unwrap();
        assert_eq!(stalled.job, slow);
        let quick: Vec<JobId> = (0..=RETAIN_FINISHED)
            .map(|_| {
                let id = submit_job(&mut registry, 1, false);
                let lease = registry.lease(now).unwrap();
                assert_eq!(lease.job, id);
                registry
                    .complete_shard(lease.lease, report_with(0, 5), now)
                    .unwrap();
                id
            })
            .collect();
        // One finished past the cap: the first to finish is gone, and the
        // running job, the oldest id of all, is never a candidate.
        assert!(
            matches!(registry.poll(quick[0]), Err(ExploreError::Retired(id)) if id == quick[0])
        );
        assert!(registry.poll(quick[1]).is_ok());
        assert_eq!(registry.poll(slow).unwrap().state, JobState::Running);
        registry.sample_gauges();
        assert_eq!(
            registry.metrics().gauge(GaugeId::JobsRetained) as usize,
            RETAIN_FINISHED
        );

        // The low id finishes last, so the next-earliest finisher goes.
        registry
            .complete_shard(stalled.lease, report_with(0, 5), now)
            .unwrap();
        drain_all(&mut registry);
        assert_eq!(registry.poll(slow).unwrap().state, JobState::Completed);
        assert!(matches!(
            registry.poll(quick[1]),
            Err(ExploreError::Retired(_))
        ));
        let mut retained = vec![slow];
        retained.extend(&quick[2..]);
        assert_eq!(registry.job_ids(), retained);
        registry.sample_gauges();
        assert_eq!(
            registry.metrics().gauge(GaugeId::JobsRetained) as usize,
            RETAIN_FINISHED
        );

        // Every question about a retired id answers at once; a cancel of
        // one changes nothing. An id never submitted stays unknown.
        assert!(matches!(
            registry.cancel(quick[0]),
            Err(ExploreError::Retired(_))
        ));
        assert!(matches!(
            registry.poll(quick[0]),
            Err(ExploreError::Retired(_))
        ));
        let next = JobId::from_raw(quick[RETAIN_FINISHED].raw() + 1);
        assert!(matches!(
            registry.poll(next),
            Err(ExploreError::UnknownJob(_))
        ));
        assert!(matches!(
            registry.cancel(next),
            Err(ExploreError::UnknownJob(_))
        ));
        // The next submission takes exactly that id.
        assert_eq!(submit_job(&mut registry, 1, false), next);
    }

    #[test]
    fn running_jobs_are_never_evicted() {
        let mut registry = JobRegistry::with_config(RegistryConfig::default());
        let now = Instant::now();
        let running: Vec<JobId> = (0..3)
            .map(|_| submit_job(&mut registry, 1, false))
            .collect();
        let held: Vec<Lease> = (0..3).map(|_| registry.lease(now).unwrap()).collect();
        // More jobs than the cap finish while these three hold their shards.
        for _ in 0..RETAIN_FINISHED + 5 {
            submit_job(&mut registry, 1, false);
        }
        drain_all(&mut registry);
        registry.sample_gauges();
        assert_eq!(
            registry.metrics().gauge(GaugeId::JobsRetained) as usize,
            RETAIN_FINISHED
        );
        for &id in &running {
            assert_eq!(registry.poll(id).unwrap().state, JobState::Running);
        }
        for lease in held {
            registry
                .complete_shard(lease.lease, report_with(0, 9), now)
                .unwrap();
        }
        // Finished last, they are the newest of the retained jobs.
        for &id in &running {
            assert_eq!(registry.poll(id).unwrap().state, JobState::Completed);
        }
        assert_eq!(registry.job_ids().len(), RETAIN_FINISHED);
        assert_eq!(registry.running_jobs(), 0);
    }

    /// A retained job answers byte for byte what it answered when it
    /// finished, and a cache hit's `top` is the repeated job's `top` byte
    /// for byte — served from the live cache and from a restored one.
    #[test]
    fn retained_answers_and_cache_hits_are_byte_identical() {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let mut registry = logged_registry(&store);
        let first = submit_job(&mut registry, 4, true);
        drain_all(&mut registry);
        let at_completion = answer(&registry, first).unwrap();
        let top = |registry: &JobRegistry, id: JobId| {
            registry.poll(id).unwrap().report.top.to_json().to_line()
        };
        let original_top = top(&registry, first);

        let hit = submit_job(&mut registry, 4, true);
        assert!(registry.poll(hit).unwrap().cache_hit);
        assert_eq!(top(&registry, hit), original_top);
        for _ in 0..3 {
            submit_job(&mut registry, 2, false);
            drain_all(&mut registry);
        }
        assert_eq!(answer(&registry, first).unwrap(), at_completion);

        registry.compact_store().unwrap();
        let snapshot = store.lock().unwrap().snapshot.clone();
        let mut restored = JobRegistry::with_config(RegistryConfig::default());
        restored
            .restore(snapshot.as_ref(), &[], &rebuild_scaling)
            .unwrap();
        assert_eq!(answer(&restored, first).unwrap(), at_completion);
        let again = submit_job(&mut restored, 4, true);
        assert!(restored.poll(again).unwrap().cache_hit);
        assert_eq!(top(&restored, again), original_top);
    }

    #[test]
    fn no_cache_jobs_neither_read_nor_write_the_cache() {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let mut registry = logged_registry(&store);
        let bypass = submit_job(&mut registry, 2, false);
        drain_all(&mut registry);
        assert_eq!(registry.cache_stats(), (0, 0, 0), "no lookup, no insert");

        let cached = submit_job(&mut registry, 2, true);
        drain_all(&mut registry);
        assert_eq!(registry.cache_stats(), (1, 0, 1));
        // With a result cached, a `no_cache` resubmission still recomputes.
        let again = submit_job(&mut registry, 2, false);
        assert!(!registry.poll(again).unwrap().cache_hit);
        drain_all(&mut registry);
        assert_eq!(registry.cache_stats(), (1, 0, 1));
        assert_eq!(
            registry.poll(bypass).unwrap().report,
            registry.poll(cached).unwrap().report
        );

        // The log gives a `no_cache` job no content address, and a replay
        // of the log caches only what the live registry cached.
        let records = store.lock().unwrap().records.clone();
        assert_eq!(records[0].get("digest"), Some(&JsonValue::Null));
        let mut replayed = JobRegistry::with_config(RegistryConfig::default());
        let stats = replayed.restore(None, &records, &rebuild_scaling).unwrap();
        assert_eq!((stats.jobs, stats.cache_entries), (3, 1));
    }

    #[test]
    fn cache_bytes_gauge_is_the_summed_line_lengths() {
        let mut registry = JobRegistry::with_config(RegistryConfig::default());
        let mut lines = 0;
        for interfaces in [2usize, 3, 4] {
            let id = registry
                .submit_with_recipe(
                    &scaling_system(interfaces, 2).unwrap(),
                    JobSpec::default(),
                    cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                    Some(recipe_for(interfaces)),
                )
                .unwrap();
            drain_all(&mut registry);
            lines += registry.poll(id).unwrap().report.to_json().to_line().len();
        }
        let metrics = registry.metrics();
        registry.sample_gauges();
        assert_eq!(metrics.gauge(GaugeId::CacheEntries), 3);
        assert_eq!(metrics.gauge(GaugeId::CacheBytes), lines as u64);
    }

    /// The content address of [`submit_job`]'s jobs.
    fn submitted_digest() -> Digest {
        let flattener = Flattener::new(&scaling_system(3, 2).unwrap()).unwrap();
        let evaluator = cacheable_evaluator(Arc::new(AtomicU64::new(0)));
        cache_digest(
            Some(&recipe_for(3)),
            &flattener.space().to_json(),
            evaluator.spec(),
        )
        .unwrap()
    }

    /// The job that computed a result and every cache hit on it hold the
    /// cache's own line, not a copy; a hit still answers its `top` once
    /// another result took the line's place in the cache.
    #[test]
    fn cache_hits_share_the_cached_line_and_outlive_its_eviction() {
        let mut registry = JobRegistry::with_config(RegistryConfig {
            cache_limit: CacheLimit::entries(1),
            ..RegistryConfig::default()
        });
        let computed = submit_job(&mut registry, 2, true);
        drain_all(&mut registry);
        let hits: Vec<JobId> = (0..64)
            .map(|_| submit_job(&mut registry, 2, true))
            .collect();
        let digest = submitted_digest();
        let line = registry.cache.lookup(digest).unwrap();
        for id in std::iter::once(computed).chain(hits.iter().copied()) {
            let held = registry.finished[&id].line.as_ref().unwrap();
            assert!(Arc::ptr_eq(held, &line), "{id}");
        }
        let top = registry.poll(computed).unwrap().report.top;
        assert_eq!(top.len(), 2);

        registry
            .submit_with_recipe(
                &scaling_system(4, 2).unwrap(),
                JobSpec::default(),
                cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                Some(recipe_for(4)),
            )
            .unwrap();
        drain_all(&mut registry);
        assert!(registry.cache.peek(digest).is_none(), "evicted");
        assert_eq!(registry.cache_stats().0, 1);
        for &id in &hits {
            let status = registry.poll(id).unwrap();
            assert!(status.cache_hit);
            assert_eq!((status.report.evaluated, &status.report.top), (0, &top));
            let answer = crate::wire::top_to_json(&status, None);
            assert_eq!(answer.get("top"), Some(&top.to_json()));
        }
        drop(line);
        let held = registry.finished[&computed].line.as_ref().unwrap();
        assert_eq!(Arc::strong_count(held), 1 + hits.len());

        // A result nothing shares is rendered to no line: the job keeps its
        // own `top`.
        let bypass = submit_job(&mut registry, 2, false);
        drain_all(&mut registry);
        let own = &registry.finished[&bypass];
        assert!(own.line.is_none());
        assert_eq!(own.report.top, top);
        assert_eq!(registry.poll(bypass).unwrap().report.top, top);
    }

    /// A cached line that is no report — a store entry this registry did
    /// not write — answers [`ExploreError::Store`] wherever it is read, and
    /// never panics. The listing and the submit answer do not read it.
    #[test]
    fn a_cached_line_that_is_no_report_answers_a_store_error() {
        let mut writer = JobRegistry::with_config(RegistryConfig::default());
        submit_job(&mut writer, 2, true);
        drain_all(&mut writer);
        let good = writer.cache.peek(submitted_digest()).unwrap().to_string();
        let restored_from = |snapshot: &SnapshotText| {
            let mut registry = JobRegistry::with_config(RegistryConfig::default());
            registry
                .restore(Some(snapshot), &[], &rebuild_scaling)
                .unwrap();
            registry
        };
        for bad in [r#"{"x":1}"#, "[1,2]", r#"{"top":[1]}"#] {
            // The cache section comes first: the first copy is the cached one.
            let text = writer.durable_snapshot().as_str().replacen(&good, bad, 1);
            let snapshot = SnapshotText::new(text);

            let mut unlogged = restored_from(&snapshot);
            let hit = submit_job(&mut unlogged, 2, true);
            assert!(
                matches!(unlogged.poll(hit), Err(ExploreError::Store(_))),
                "{bad}"
            );
            assert!(matches!(unlogged.cancel(hit), Err(ExploreError::Store(_))));
            let listed = unlogged.listed(hit).unwrap();
            assert!(listed.cache_hit && listed.report.top.is_empty(), "{bad}");
            let mut rows = 0;
            unlogged.for_each_status(|_| rows += 1);
            assert_eq!(rows, 2);

            // Logged, a hit's submit record carries the served `top`: a line
            // without one is refused at submit; one whose `top` lists no
            // variants is admitted, and restores to the same error, from
            // the log's tail as from a compacted snapshot.
            let store = Arc::new(Mutex::new(MemoryStore::default()));
            let mut logged = restored_from(&snapshot);
            logged.set_sink(Box::new(MemorySink::new(Arc::clone(&store))));
            let submitted = logged.submit_with_recipe(
                &scaling_system(3, 2).unwrap(),
                JobSpec::default(),
                cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                Some(recipe_for(3)),
            );
            match submitted {
                Err(ExploreError::Store(_)) => assert!(!bad.contains("top"), "{bad}"),
                Ok(hit) => {
                    assert!(bad.contains("top"), "{bad}");
                    assert!(matches!(logged.poll(hit), Err(ExploreError::Store(_))));
                    let tail = store.lock().unwrap().records.clone();
                    let mut replayed = JobRegistry::with_config(RegistryConfig::default());
                    replayed
                        .restore(Some(&snapshot), &tail, &rebuild_scaling)
                        .unwrap();
                    assert!(matches!(replayed.poll(hit), Err(ExploreError::Store(_))));
                    assert!(replayed.listed(hit).unwrap().cache_hit);
                    logged.compact_store().unwrap();
                    let snapshot = store.lock().unwrap().snapshot.clone().unwrap();
                    let back = restored_from(&snapshot);
                    assert!(matches!(back.poll(hit), Err(ExploreError::Store(_))));
                }
                Err(other) => panic!("{bad}: {other}"),
            }
        }
    }

    /// A kill after evictions, before any compaction (and again after one,
    /// with a tail), restores the retained ids with their answers, and the
    /// id sequence continues.
    #[test]
    fn a_kill_between_evictions_and_compaction_restores_the_retained_set() {
        for compact_midway in [false, true] {
            let store = Arc::new(Mutex::new(MemoryStore::default()));
            let mut registry = logged_registry(&store);
            let now = Instant::now();
            let running = submit_job(&mut registry, 4, true);
            let held = registry.lease(now).unwrap();
            registry
                .complete_shard(held.lease, report_with(held.shard, 1), now)
                .unwrap();
            let mut ids = vec![running];
            let rounds = RETAIN_FINISHED + 3;
            for round in 0..rounds {
                if compact_midway && round == rounds / 2 {
                    registry.compact_store().unwrap();
                }
                let id = submit_job(&mut registry, 2, round.is_multiple_of(2));
                ids.push(id);
                if round == rounds - 2 {
                    registry.cancel(id).unwrap();
                    continue;
                }
                // Finish this job's shards, leaving the running job's alone.
                while registry.poll(id).unwrap().state == JobState::Running {
                    let lease = registry.lease(now).unwrap();
                    if lease.job == running {
                        registry.abandon(lease.lease);
                        continue;
                    }
                    registry
                        .complete_shard(lease.lease, report_with(lease.shard, 2), now)
                        .unwrap();
                }
            }
            let (snapshot, records) = {
                let store = store.lock().unwrap();
                (store.snapshot.clone(), store.records.clone())
            };
            let mut restored = JobRegistry::with_config(RegistryConfig::default());
            let stats = restored
                .restore(snapshot.as_ref(), &records, &rebuild_scaling)
                .unwrap();
            assert_eq!(stats.resumed, 1);
            assert_eq!(stats.jobs, RETAIN_FINISHED + 1, "the running job too");
            assert_eq!(restored.job_ids(), registry.job_ids());
            for &id in &ids {
                match (answer(&registry, id), answer(&restored, id)) {
                    (Ok(live), Ok(back)) => assert_eq!(live, back, "{id}"),
                    (Err(ExploreError::Retired(_)), Err(ExploreError::Retired(_))) => {}
                    other => panic!("{id}: {other:?}"),
                }
            }
            let next = submit_job(&mut registry, 1, false);
            assert_eq!(submit_job(&mut restored, 1, false), next);
        }
    }

    /// A sink over `store` whose append, while `tear` is set, lands and then
    /// reports failure: a torn append, written but not acknowledged.
    struct TearingSink {
        inner: MemorySink,
        tear: Arc<AtomicBool>,
    }

    impl DurabilitySink for TearingSink {
        fn append(&mut self, record: &str) -> std::result::Result<(), String> {
            self.inner.append(record)?;
            if self.tear.swap(false, Ordering::Relaxed) {
                return Err("ack lost".to_string());
            }
            Ok(())
        }

        fn compact(&mut self, snapshot: &SnapshotText) -> std::result::Result<u64, String> {
            self.inner.compact(snapshot)
        }
    }

    /// A torn submit leaves its record in the log, and the next submit takes
    /// its id: replay keeps only the later job, whether the torn one was
    /// running and the reuse a cache hit or the other way round, and the
    /// restored registry evicts and compacts as the live one would.
    #[test]
    fn a_submit_reusing_a_torn_submits_id_replaces_it_on_restore() {
        for torn_one_runs in [true, false] {
            let store = Arc::new(Mutex::new(MemoryStore::default()));
            let tear = Arc::new(AtomicBool::new(false));
            let mut registry = JobRegistry::with_config(RegistryConfig::default());
            registry.set_sink(Box::new(TearingSink {
                inner: MemorySink::new(Arc::clone(&store)),
                tear: Arc::clone(&tear),
            }));
            // Job 0 fills the cache, so a cacheable submit is a hit.
            submit_job(&mut registry, 2, true);
            drain_all(&mut registry);

            tear.store(true, Ordering::Relaxed);
            let submit_as = |registry: &mut JobRegistry, runs: bool| {
                registry.submit_with_recipe(
                    &scaling_system(3, 2).unwrap(),
                    JobSpec {
                        shard_count: 2,
                        use_cache: !runs,
                        ..JobSpec::default()
                    },
                    cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                    Some(recipe_for(3)),
                )
            };
            assert!(submit_as(&mut registry, torn_one_runs).is_err());
            let reused = submit_as(&mut registry, !torn_one_runs).unwrap();
            assert_eq!(reused, JobId::from_raw(1));
            drain_all(&mut registry);
            assert_eq!(registry.poll(reused).unwrap().cache_hit, torn_one_runs);

            let records = store.lock().unwrap().records.clone();
            let submits = records
                .iter()
                .filter(|record| record.get("t").unwrap().as_str() == Some("submit"))
                .count();
            assert_eq!(submits, 3, "the torn record is in the log");
            let mut restored = JobRegistry::with_config(RegistryConfig::default());
            let stats = restored.restore(None, &records, &rebuild_scaling).unwrap();
            assert_eq!((stats.jobs, stats.resumed), (2, 0));
            assert_eq!(restored.job_ids(), registry.job_ids());
            assert_eq!(
                answer(&restored, reused).unwrap(),
                answer(&registry, reused).unwrap()
            );

            // Past the cap both ids are retired once, and the snapshot lists
            // every retained id once.
            for _ in 0..RETAIN_FINISHED {
                submit_job(&mut restored, 1, true);
            }
            for id in [0, 1].map(JobId::from_raw) {
                assert!(matches!(restored.poll(id), Err(ExploreError::Retired(_))));
            }
            let snapshot = tree_of(&restored.durable_snapshot());
            let ids: BTreeSet<u64> = snapshot
                .get("jobs")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|job| job.get("job").unwrap().as_u64().unwrap())
                .collect();
            assert_eq!(ids.len(), RETAIN_FINISHED);
            assert_eq!(ids.first(), Some(&2));
        }
    }

    /// A snapshot in the earlier format — every job listed in id order with
    /// its recipe, `done` list, weight and `top_k` — restores: the newest
    /// [`RETAIN_FINISHED`] finished jobs stay, the running one resumes.
    #[test]
    fn snapshot_of_the_earlier_format_restores_its_newest_finished_jobs() {
        let summary = |id: u64, state: &str, done: &[usize], committed: &ShardReport| {
            JsonValue::object([
                ("job", id.to_json()),
                ("name", JsonValue::string(format!("old-{id}"))),
                ("tenant", JsonValue::string("default")),
                ("weight", JsonValue::Int(2)),
                ("use_cache", JsonValue::Bool(true)),
                ("shards", 4usize.to_json()),
                ("top_k", 8usize.to_json()),
                ("combinations", 8usize.to_json()),
                ("digest", JsonValue::Null),
                ("recipe", recipe_for(3)),
                ("cache_hit", JsonValue::Bool(false)),
                ("state", JsonValue::string(state)),
                ("done", done.to_vec().to_json()),
                ("committed", committed.to_json()),
                ("hedges_issued", 0u64.to_json()),
                ("hedge_wins", 0u64.to_json()),
            ])
        };
        let finished_report = |id: u64| {
            let mut report = report_with(id as usize, 10 + id);
            report.evaluated = 8;
            report.feasible = 8;
            report
        };
        // Two more finished jobs than the cap, then a running one.
        let last = (RETAIN_FINISHED + 2) as u64;
        let mut jobs: Vec<JsonValue> = (0..last)
            .map(|id| {
                let state = if id == 1 { "cancelled" } else { "completed" };
                summary(id, state, &[0, 1, 2, 3], &finished_report(id))
            })
            .collect();
        jobs.push(summary(last, "running", &[2], &report_with(2, 4)));
        let snapshot = SnapshotText::new(
            JsonValue::object([
                ("next_job", (last + 1).to_json()),
                (
                    "cache",
                    JsonValue::object(Vec::<(String, JsonValue)>::new()),
                ),
                ("jobs", JsonValue::Array(jobs)),
            ])
            .to_line(),
        );

        let mut restored = JobRegistry::with_config(RegistryConfig::default());
        let stats = restored
            .restore(Some(&snapshot), &[], &rebuild_scaling)
            .unwrap();
        assert_eq!(
            (stats.jobs, stats.resumed, stats.requeued_shards),
            (RETAIN_FINISHED + 1, 1, 3)
        );
        assert_eq!(
            restored.job_ids(),
            (2..=last).map(JobId::from_raw).collect::<Vec<_>>()
        );
        for id in 0..2 {
            assert!(matches!(
                restored.poll(JobId::from_raw(id)),
                Err(ExploreError::Retired(_))
            ));
        }
        for id in 2..last {
            let status = restored.poll(JobId::from_raw(id)).unwrap();
            assert_eq!(status.state, JobState::Completed);
            assert_eq!((status.shards_done, status.shard_count), (4, 4));
            assert_eq!(status.report, finished_report(id));
            assert_eq!(status.name, format!("old-{id}"));
        }
        let resumed = restored.poll(JobId::from_raw(last)).unwrap();
        assert_eq!((resumed.state, resumed.shards_done), (JobState::Running, 1));
        drain_all(&mut restored);
        assert_eq!(
            restored.poll(JobId::from_raw(last)).unwrap().state,
            JobState::Completed
        );
        // The running job finished last: job 2 went to make room for it.
        assert!(matches!(
            restored.poll(JobId::from_raw(2)),
            Err(ExploreError::Retired(_))
        ));
        assert_eq!(
            submit_job(&mut restored, 1, false),
            JobId::from_raw(last + 1)
        );

        // Its compacted snapshot carries summaries only for finished jobs.
        let compacted = tree_of(&restored.durable_snapshot());
        let summaries = compacted.get("jobs").unwrap().as_array().unwrap();
        let finished: Vec<&JsonValue> = summaries
            .iter()
            .filter(|job| job.get("state").unwrap().as_str() != Some("running"))
            .collect();
        assert_eq!(finished.len(), RETAIN_FINISHED);
        for job in finished {
            for dropped in ["recipe", "done", "weight", "top_k", "digest"] {
                assert!(job.get(dropped).is_none(), "{dropped} in {job}");
            }
        }
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
            let job = JobRecord::from_json(&summary).unwrap();
            assert_eq!(job.head.shard_count, 1usize << 40);
            assert_eq!(job.head.combinations, 1usize << 40);
        }
        #[cfg(target_pointer_width = "32")]
        {
            let err = JobRecord::from_json(&summary).unwrap_err();
            assert!(err.contains("overflows"), "got: {err}");
        }
    }

    // --- wire answers: pinned bytes ----------------------------------------------------

    /// The lines `poll`, `top` (all, and `k` 1) and, for a finished job,
    /// `wait` and `cancel` answer for each of `ids`, then the `jobs`
    /// listing's rows.
    fn answer_lines(registry: &mut JobRegistry, ids: &[JobId]) -> Vec<String> {
        let mut lines = Vec::new();
        for &id in ids {
            let status = registry.poll(id).unwrap();
            lines.push(crate::wire::status_to_json("poll", &status).to_line());
            lines.push(crate::wire::top_to_json(&status, None).to_line());
            lines.push(crate::wire::top_to_json(&status, Some(1)).to_line());
            if status.state.is_terminal() {
                lines.push(crate::wire::status_to_json("wait", &status).to_line());
                let again = registry.cancel(id).unwrap();
                lines.push(crate::wire::status_to_json("cancel", &again).to_line());
            }
        }
        registry.for_each_status(|status| lines.push(crate::wire::job_row(status).to_line()));
        lines
    }

    /// A computed cacheable job, its cache hit, a `no_cache` job, a job
    /// cancelled with one shard committed and a running one answer the
    /// lines the registry has always answered, live and restored from a
    /// snapshot plus a log tail.
    #[test]
    fn answers_of_hits_computed_cancelled_and_restored_jobs_are_pinned() {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let mut registry = logged_registry(&store);
        let now = Instant::now();
        let computed = submit_job(&mut registry, 2, true);
        drain_all(&mut registry);
        let hit = submit_job(&mut registry, 2, true);
        registry.compact_store().unwrap();
        let bypass = submit_job(&mut registry, 2, false);
        drain_all(&mut registry);
        let cancelled = submit_job(&mut registry, 4, false);
        let lease = registry.lease(now).unwrap();
        let mut partial = report_with(lease.shard, 6);
        partial.top[0].detail = "ü \"q\"\n".to_string();
        registry.complete_shard(lease.lease, partial, now).unwrap();
        let status = registry.cancel(cancelled).unwrap();
        let mut lines = vec![crate::wire::status_to_json("cancel", &status).to_line()];
        let running = submit_job(&mut registry, 2, false);
        let ids = [computed, hit, bypass, cancelled, running];
        lines.extend(answer_lines(&mut registry, &ids));

        let (snapshot, records) = {
            let store = store.lock().unwrap();
            (store.snapshot.clone(), store.records.clone())
        };
        let mut restored = JobRegistry::with_config(RegistryConfig::default());
        restored
            .restore(snapshot.as_ref(), &records, &rebuild_scaling)
            .unwrap();
        lines.extend(answer_lines(&mut restored, &ids));
        assert_eq!(lines, PINNED_ANSWERS);
    }

    /// The lines of [`answers_of_hits_computed_cancelled_and_restored_jobs_are_pinned`]:
    /// the cancel of the running job, then the live registry's answers, then
    /// the restored one's.
    const PINNED_ANSWERS: [&str; 57] = [
        r#"{"ok":true,"op":"cancel","job":3,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"cancelled","combinations":8,"shards":4,"shards_done":1,"shards_in_flight":0,"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"},"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"poll","job":0,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"wait","job":0,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"cancel","job":0,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"poll","job":1,"name":"exploration","tenant":"default","cache_hit":true,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":0,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":1,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":1,"top":[{"index":0,"cost":3,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"wait","job":1,"name":"exploration","tenant":"default","cache_hit":true,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":0,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"cancel","job":1,"name":"exploration","tenant":"default","cache_hit":true,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":0,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"poll","job":2,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":2,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":2,"top":[{"index":0,"cost":3,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"wait","job":2,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"cancel","job":2,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"poll","job":3,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"cancelled","combinations":8,"shards":4,"shards_done":1,"shards_in_flight":0,"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"},"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"top","job":3,"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"top","job":3,"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"wait","job":3,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"cancelled","combinations":8,"shards":4,"shards_done":1,"shards_in_flight":0,"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"},"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"cancel","job":3,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"cancelled","combinations":8,"shards":4,"shards_done":1,"shards_in_flight":0,"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"},"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"poll","job":4,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"running","combinations":8,"shards":2,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":null,"top":[]}"#,
        r#"{"ok":true,"op":"top","job":4,"top":[]}"#,
        r#"{"ok":true,"op":"top","job":4,"top":[]}"#,
        r#"{"job":0,"name":"exploration","state":"completed","shards_done":2,"shards":2,"evaluated":2,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":2,"p50":0,"p95":0,"max":0}}"#,
        r#"{"job":1,"name":"exploration","state":"completed","shards_done":0,"shards":0,"evaluated":0,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":0,"p50":null,"p95":null,"max":null}}"#,
        r#"{"job":2,"name":"exploration","state":"completed","shards_done":2,"shards":2,"evaluated":2,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":2,"p50":0,"p95":0,"max":0}}"#,
        r#"{"job":3,"name":"exploration","state":"cancelled","shards_done":1,"shards":4,"evaluated":1,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":1,"p50":0,"p95":0,"max":0}}"#,
        r#"{"job":4,"name":"exploration","state":"running","shards_done":0,"shards":2,"evaluated":0,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":0,"p50":null,"p95":null,"max":null}}"#,
        r#"{"ok":true,"op":"poll","job":0,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"wait","job":0,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"cancel","job":0,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"poll","job":1,"name":"exploration","tenant":"default","cache_hit":true,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":0,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":1,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":1,"top":[{"index":0,"cost":3,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"wait","job":1,"name":"exploration","tenant":"default","cache_hit":true,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":0,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"cancel","job":1,"name":"exploration","tenant":"default","cache_hit":true,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":0,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"poll","job":2,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":2,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"top","job":2,"top":[{"index":0,"cost":3,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"wait","job":2,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"cancel","job":2,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"completed","combinations":8,"shards":2,"shards_done":2,"shards_in_flight":0,"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":3,"choice":{},"detail":""},"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}"#,
        r#"{"ok":true,"op":"poll","job":3,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"cancelled","combinations":8,"shards":4,"shards_done":1,"shards_in_flight":0,"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"},"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"top","job":3,"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"top","job":3,"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"wait","job":3,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"cancelled","combinations":8,"shards":4,"shards_done":1,"shards_in_flight":0,"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"},"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"cancel","job":3,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"cancelled","combinations":8,"shards":4,"shards_done":1,"shards_in_flight":0,"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"best":{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"},"top":[{"index":0,"cost":6,"choice":{},"detail":"ü \"q\"\n"}]}"#,
        r#"{"ok":true,"op":"poll","job":4,"name":"exploration","tenant":"default","cache_hit":false,"hedges_issued":0,"hedge_wins":0,"state":"running","combinations":8,"shards":2,"shards_done":0,"shards_in_flight":0,"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"best":null,"top":[]}"#,
        r#"{"ok":true,"op":"top","job":4,"top":[]}"#,
        r#"{"ok":true,"op":"top","job":4,"top":[]}"#,
        r#"{"job":0,"name":"exploration","state":"completed","shards_done":2,"shards":2,"evaluated":2,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":0,"p50":null,"p95":null,"max":null}}"#,
        r#"{"job":1,"name":"exploration","state":"completed","shards_done":0,"shards":0,"evaluated":0,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":0,"p50":null,"p95":null,"max":null}}"#,
        r#"{"job":2,"name":"exploration","state":"completed","shards_done":2,"shards":2,"evaluated":2,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":0,"p50":null,"p95":null,"max":null}}"#,
        r#"{"job":3,"name":"exploration","state":"cancelled","shards_done":1,"shards":4,"evaluated":1,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":0,"p50":null,"p95":null,"max":null}}"#,
        r#"{"job":4,"name":"exploration","state":"running","shards_done":0,"shards":2,"evaluated":0,"hedges_issued":0,"hedge_wins":0,"latency_ns":{"samples":0,"p50":null,"p95":null,"max":null}}"#,
    ];

    // --- store lines: pinned bytes and restore equivalence ------------------------------

    /// Runs the pinned schedule of [`PINNED_LOG`] on a registry logging into
    /// a WAL in `dir`: a cacheable job and its cache hit, a cacheable job on
    /// a second tenant with one of two shards committed, an empty space and
    /// a cancelled `no_cache` job. Every report carries `eval_ns` 0.
    fn run_pinned_schedule(dir: &std::path::Path) -> JobRegistry {
        let (wal, recovered) = spi_store::Wal::open(dir).unwrap();
        assert!(recovered.is_empty());
        let mut registry = JobRegistry::with_config(RegistryConfig::default());
        registry.set_sink(Box::new(crate::durability::WalSink(wal)));
        submit_job(&mut registry, 2, true);
        drain_all(&mut registry);
        submit_job(&mut registry, 2, true);
        registry
            .submit_with_recipe(
                &scaling_system(4, 2).unwrap(),
                JobSpec {
                    name: "partial \"ü\"".into(),
                    shard_count: 2,
                    tenant: "team-b".into(),
                    weight: 3,
                    top_k: 2,
                    ..JobSpec::default()
                },
                cacheable_evaluator(Arc::new(AtomicU64::new(0))),
                Some(recipe_for(4)),
            )
            .unwrap();
        let now = Instant::now();
        let lease = registry.lease(now).unwrap();
        registry
            .complete_shard(lease.lease, report_with(lease.shard, 9), now)
            .unwrap();
        let empty = VariantSystem::new(spi_model::SpiGraph::new("empty"));
        let spec = JobSpec {
            name: "empty".into(),
            ..JobSpec::default()
        };
        registry.submit(&empty, spec, test_evaluator()).unwrap();
        let cancelled = submit_job(&mut registry, 4, false);
        registry.cancel(cancelled).unwrap();
        registry
    }

    /// The records and the snapshot of a fixed schedule are the bytes the
    /// store has always written for it, and each restores to the registry
    /// that wrote it.
    #[test]
    fn a_fixed_schedule_writes_the_pinned_store_lines() {
        let dir = std::env::temp_dir().join(format!("spi-explore-pinned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut registry = run_pinned_schedule(&dir.join("live"));
        let log = std::fs::read_to_string(dir.join("live/wal.log")).unwrap();
        assert_eq!(log.lines().collect::<Vec<_>>(), PINNED_LOG);
        assert!(log.ends_with('\n'));
        registry.compact_store().unwrap();
        let snapshot = std::fs::read_to_string(dir.join("live/snapshot.json")).unwrap();
        assert_eq!(snapshot, format!("{PINNED_SNAPSHOT}\n"));

        // The pinned log alone, and the pinned snapshot alone, restore to
        // the registry that wrote them.
        let stores = [
            ("log", "wal.log", PINNED_LOG.join("\n") + "\n"),
            ("snapshot", "snapshot.json", format!("{PINNED_SNAPSHOT}\n")),
        ];
        for (store, file, text) in stores {
            std::fs::create_dir_all(dir.join(store)).unwrap();
            std::fs::write(dir.join(store).join(file), text).unwrap();
            let (_, recovered) = spi_store::Wal::open(dir.join(store)).unwrap();
            assert_eq!(recovered.truncated_bytes, 0, "{store}");
            let mut restored = JobRegistry::with_config(RegistryConfig::default());
            let stats = restored
                .restore(
                    recovered.snapshot.as_ref(),
                    &recovered.records,
                    &rebuild_scaling,
                )
                .unwrap();
            assert_eq!(
                (stats.jobs, stats.resumed, stats.requeued_shards),
                (5, 1, 1)
            );
            assert_eq!(
                restored.durable_snapshot().to_line(),
                registry.durable_snapshot().to_line(),
                "{store}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The WAL lines of [`a_fixed_schedule_writes_the_pinned_store_lines`].
    const PINNED_LOG: [&str; 9] = [
        r#"{"seq":0,"crc":"fd6c82bcc9cfa33c40f5f14e4aa31258","rec":{"t":"submit","job":0,"name":"exploration","tenant":"default","weight":1,"use_cache":true,"shards":2,"top_k":8,"combinations":8,"digest":"e1c02d52be9ab88c86ec2bda9605e690","recipe":{"system":{"scaling":{"interfaces":3,"clusters":2}}},"cache_hit":false,"state":"running"}}"#,
        r#"{"seq":1,"crc":"357a2106f0697c7b6d5ce06d03296248","rec":{"t":"shard","job":0,"shard":0,"report":{"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""}]}}}"#,
        r#"{"seq":2,"crc":"8c88d0f59eb6d6626c52c2e9d36d802b","rec":{"t":"shard","job":0,"shard":1,"report":{"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":1,"cost":4,"choice":{},"detail":""}]}}}"#,
        r#"{"seq":3,"crc":"85f8f3e3fc094bb022f9d34a28efe108","rec":{"t":"submit","job":1,"name":"exploration","tenant":"default","weight":1,"use_cache":true,"shards":0,"top_k":8,"combinations":8,"digest":"e1c02d52be9ab88c86ec2bda9605e690","recipe":{"system":{"scaling":{"interfaces":3,"clusters":2}}},"cache_hit":true,"state":"completed","committed":{"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}}}"#,
        r#"{"seq":4,"crc":"528b92b93f9959e6952dce9f272724e1","rec":{"t":"submit","job":2,"name":"partial \"ü\"","tenant":"team-b","weight":3,"use_cache":true,"shards":2,"top_k":2,"combinations":16,"digest":"7b017e454cfc911423868a7f5db9c516","recipe":{"system":{"scaling":{"interfaces":4,"clusters":2}}},"cache_hit":false,"state":"running"}}"#,
        r#"{"seq":5,"crc":"8813593ee23b74b9699564f9963bfe98","rec":{"t":"shard","job":2,"shard":0,"report":{"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":0,"cost":9,"choice":{},"detail":""}]}}}"#,
        r#"{"seq":6,"crc":"402f9ca44010d96325e2aafb8c016395","rec":{"t":"submit","job":3,"name":"empty","tenant":"default","weight":1,"use_cache":true,"shards":1,"top_k":8,"combinations":0,"digest":null,"recipe":null,"cache_hit":false,"state":"completed","committed":{"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"top":[]}}}"#,
        r#"{"seq":7,"crc":"e5ac56c4479183d0a9bc7da7c3b4a165","rec":{"t":"submit","job":4,"name":"exploration","tenant":"default","weight":1,"use_cache":false,"shards":4,"top_k":8,"combinations":8,"digest":null,"recipe":{"system":{"scaling":{"interfaces":3,"clusters":2}}},"cache_hit":false,"state":"running"}}"#,
        r#"{"seq":8,"crc":"e8849293ee0c7f7f61ee22e4717a7738","rec":{"t":"cancel","job":4}}"#,
    ];

    /// The snapshot line it compacts to, one job a piece.
    const PINNED_SNAPSHOT: &str = concat!(
        r#"{"seq":8,"crc":"786a969d36e1360072ece865031824fd","state":{"next_job":5,"cache":{"e1c02d52be9ab88c86ec2bda9605e690":{"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]}}"#,
        r#","jobs":[{"job":2,"name":"partial \"ü\"","tenant":"team-b","weight":3,"use_cache":true,"shards":2,"top_k":2,"combinations":16,"digest":"7b017e454cfc911423868a7f5db9c516","recipe":{"system":{"scaling":{"interfaces":4,"clusters":2}}},"cache_hit":false,"state":"running","done":[0],"committed":{"evaluated":1,"feasible":1,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":0,"cost":9,"choice":{},"detail":""}]},"hedges_issued":0,"hedge_wins":0}"#,
        r#",{"job":0,"name":"exploration","tenant":"default","shards":2,"shards_done":2,"combinations":8,"cache_hit":false,"state":"completed","committed":{"evaluated":2,"feasible":2,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]},"hedges_issued":0,"hedge_wins":0}"#,
        r#",{"job":1,"name":"exploration","tenant":"default","shards":0,"shards_done":0,"combinations":8,"cache_hit":true,"state":"completed","committed":{"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"top":[{"index":0,"cost":3,"choice":{},"detail":""},{"index":1,"cost":4,"choice":{},"detail":""}]},"hedges_issued":0,"hedge_wins":0}"#,
        r#",{"job":3,"name":"empty","tenant":"default","shards":1,"shards_done":0,"combinations":0,"cache_hit":false,"state":"completed","committed":{"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"top":[]},"hedges_issued":0,"hedge_wins":0}"#,
        r#",{"job":4,"name":"exploration","tenant":"default","shards":4,"shards_done":0,"combinations":8,"cache_hit":false,"state":"cancelled","committed":{"evaluated":0,"feasible":0,"pruned":0,"errors":0,"eval_ns":0,"top":[]},"hedges_issued":0,"hedge_wins":0}]}}"#,
    );

    /// A running job's hedge counters live in its snapshot summary (no
    /// record carries them): a restore from the snapshot admits the job
    /// with them.
    #[test]
    fn a_running_jobs_hedge_counters_survive_a_snapshot_restore() {
        let mut registry = JobRegistry::with_config(RegistryConfig {
            lease_timeout: Duration::from_secs(1000),
            hedge: HedgeConfig {
                enabled: true,
                quantile_pct: 50,
                multiplier_pct: 200,
                min_samples: 1,
                max_hedges: 1,
            },
            ..RegistryConfig::default()
        });
        let id = submit_job(&mut registry, 3, true);
        let t0 = Instant::now();
        let leases: Vec<Lease> = (0..3).map(|_| registry.lease(t0).unwrap()).collect();
        let t1 = t0 + Duration::from_secs(1);
        registry
            .complete_shard(leases[0].lease, report_with(leases[0].shard, 5), t1)
            .unwrap();
        // p50 of {1s} = 1s, threshold 2s: at t0+3s a straggler gets a hedge,
        // and the hedge wins its shard.
        let t3 = t0 + Duration::from_secs(3);
        let hedge = registry.lease(t3).unwrap();
        assert!(hedge.hedged);
        registry
            .complete_shard(hedge.lease, report_with(hedge.shard, 4), t3)
            .unwrap();
        let live = registry.poll(id).unwrap();
        assert_eq!(
            (
                live.state,
                live.shards_done,
                live.hedges_issued,
                live.hedge_wins
            ),
            (JobState::Running, 2, 1, 1)
        );

        let mut restored = JobRegistry::with_config(RegistryConfig::default());
        let snapshot = registry.durable_snapshot();
        let stats = restored
            .restore(Some(&snapshot), &[], &rebuild_scaling)
            .unwrap();
        assert_eq!((stats.resumed, stats.requeued_shards), (1, 1));
        let back = restored.poll(id).unwrap();
        assert_eq!(
            (
                back.state,
                back.shards_done,
                back.hedges_issued,
                back.hedge_wins
            ),
            (JobState::Running, 2, 1, 1)
        );
    }

    /// What `poll` answers for every id below `next` (latency aside: it is
    /// not durable).
    fn answers_without_latency(
        registry: &JobRegistry,
        next: u64,
    ) -> Vec<std::result::Result<JobStatus, String>> {
        (0..next)
            .map(|raw| {
                registry
                    .poll(JobId::from_raw(raw))
                    .map(|status| JobStatus {
                        latency: LatencyQuantiles::default(),
                        ..status
                    })
                    .map_err(|error| error.to_string())
            })
            .collect()
    }

    /// Seeded schedules — submits with cache hits, empty spaces and
    /// `no_cache`, commits, cancels and compactions at random points, with
    /// hedging off and no torn append — restore to the registry that wrote
    /// them: the same snapshot line, job ids, `poll` answers and next id.
    #[test]
    fn a_restore_equals_the_live_registry_on_seeded_schedules() {
        let empty = VariantSystem::new(spi_model::SpiGraph::new("empty"));
        for seed in 0..64 {
            let mut cases = spi_testutil::Lcg::new(seed);
            let store = Arc::new(Mutex::new(MemoryStore::default()));
            let mut registry = JobRegistry::with_config(RegistryConfig {
                hedge: HedgeConfig::disabled(),
                ..RegistryConfig::default()
            });
            registry.set_sink(Box::new(MemorySink::new(Arc::clone(&store))));
            let now = Instant::now();
            let mut submitted = 0u64;
            for _ in 0..cases.range(4, 48) {
                match cases.below(12) {
                    0..=3 => {
                        let interfaces = cases.range(2, 3) as usize;
                        let spec = JobSpec {
                            name: format!("job-{submitted}"),
                            shard_count: cases.range(1, 4) as usize,
                            top_k: cases.range(1, 3) as usize,
                            tenant: ["a", "b"][cases.below(2) as usize].to_string(),
                            weight: cases.range(1, 3) as u32,
                            use_cache: !cases.chance(1, 3),
                        };
                        let evaluator = cacheable_evaluator(Arc::new(AtomicU64::new(0)));
                        let recipe = Some(recipe_for(interfaces));
                        let system = scaling_system(interfaces, 2).unwrap();
                        registry
                            .submit_with_recipe(&system, spec, evaluator, recipe)
                            .unwrap();
                        submitted += 1;
                    }
                    4 => {
                        registry
                            .submit(&empty, JobSpec::default(), test_evaluator())
                            .unwrap();
                        submitted += 1;
                    }
                    5..=9 => {
                        if let Some(lease) = registry.lease(now) {
                            let report = report_with(lease.shard, cases.below(20));
                            registry.complete_shard(lease.lease, report, now).unwrap();
                        }
                    }
                    10 if submitted > 0 => {
                        let id = JobId::from_raw(cases.below(submitted));
                        registry.cancel(id).unwrap();
                    }
                    _ => registry.compact_store().unwrap(),
                }
            }
            let (snapshot, records) = {
                let store = store.lock().unwrap();
                (store.snapshot.clone(), store.records.clone())
            };
            let mut restored = JobRegistry::with_config(RegistryConfig::default());
            restored
                .restore(snapshot.as_ref(), &records, &rebuild_scaling)
                .unwrap();
            assert_eq!(
                restored.durable_snapshot().to_line(),
                registry.durable_snapshot().to_line(),
                "seed {seed}"
            );
            assert_eq!(restored.job_ids(), registry.job_ids(), "seed {seed}");
            assert_eq!(
                answers_without_latency(&restored, submitted + 1),
                answers_without_latency(&registry, submitted + 1),
                "seed {seed}"
            );
            let next = submit_job(&mut registry, 1, false);
            assert_eq!(submit_job(&mut restored, 1, false), next, "seed {seed}");
        }
    }
}
