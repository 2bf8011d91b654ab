//! Hierarchical phase spans: where the time went *inside* a shard.
//!
//! The metrics plane ([`crate::metrics`]) aggregates and the decision trace
//! ([`crate::trace`]) sequences, but neither attributes wall-clock to the
//! stages of the flatten→compile→search pipeline. This module records
//! monotonic-clock enter/exit pairs into bounded per-worker rings:
//!
//! * a [`SpanRecorder`] owns the clock epoch, the global id/seq counters and
//!   one ring per worker; it is shared (`Arc`) between the worker pool, the
//!   registry and the wire surface;
//! * each thread records through its own [`SpanSink`] — a stack of open
//!   spans plus the ambient [`SpanIds`] context (job/shard/lease/tenant/
//!   worker, the same ids the waitgraph uses) — so the hot path touches no
//!   shared state per span: ids come from a per-sink block, completed spans
//!   queue in the sink, and the queue is published to its ring (one lock,
//!   one sequence-counter bump) whenever the outermost span closes or
//!   [`PUBLISH_BATCH`] spans have queued;
//! * every completed [`Span`] carries its parent id, its static [`PhaseId`],
//!   and the [`TraceCapture`](crate::trace::TraceCapture) sequence watermark
//!   observed at enter and exit, so spans and scheduler decisions
//!   cross-correlate (`trace_first..trace_last` is exactly the window of
//!   decisions that overlapped the span).
//!
//! The overhead discipline is the [`MetricsRegistry`](crate::MetricsRegistry)
//! one: a disabled recorder hands out no-op sinks, and every record site
//! collapses to a single `enabled` branch. Rings drop **oldest-first** on
//! overflow and count what they forgot, so a slow reader costs history,
//! never throughput.
//!
//! On top of the raw spans this module derives the served views:
//! [`Profile::from_spans`] (per-phase totals + log-linear histograms +
//! folded flamegraph stacks + per-job critical paths) and [`chrome_trace`]
//! (Chrome trace-event JSON loadable in Perfetto / `chrome://tracing`).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use spi_model::json::JsonValue;

use crate::metrics::Histogram;

/// Default per-worker span ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// How many completed spans a sink queues before it publishes them to its
/// ring while an outer span is still open. Readers see a long drain's nested
/// spans at most this many spans late; the outermost span's exit publishes
/// everything at once.
pub const PUBLISH_BATCH: usize = 64;

/// How many span ids a sink takes from the recorder's global counter at a
/// time, so that assigning an id is a local increment.
const ID_BLOCK: u64 = 1024;

/// The static identity of an instrumented pipeline stage.
///
/// Phases are a closed enum (like the metric ids): recording a span costs an
/// enum copy, not a string, and every consumer can enumerate [`ALL`]
/// phases without scraping.
///
/// [`ALL`]: PhaseId::ALL
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseId {
    /// One whole shard drain: the worker's Gray-walk over its strided ranks.
    DrainShard,
    /// An incremental flatten that **patched** the previous flat graph.
    FlattenPatch,
    /// A flatten that had to **rebuild** from the skeleton (first rank of a
    /// drain, post-error reset, or a patch fallback).
    FlattenRebuild,
    /// Lowering a flat graph to the compiled synthesis form
    /// (`compiled_from_flat_graph`).
    CompileLower,
    /// The branch-and-bound partition search over a compiled graph.
    PartitionSearch,
    /// A batch merge renewing the lease deadline (`report_batch`).
    LeaseRenew,
    /// Committing a shard's staged report into the job (`complete_shard`).
    ShardCommit,
    /// One write-ahead-log append (inside the commit, or standalone for
    /// submits/cancels).
    WalAppend,
}

impl PhaseId {
    /// Every phase, in pipeline order.
    pub const ALL: [PhaseId; 8] = [
        PhaseId::DrainShard,
        PhaseId::FlattenPatch,
        PhaseId::FlattenRebuild,
        PhaseId::CompileLower,
        PhaseId::PartitionSearch,
        PhaseId::LeaseRenew,
        PhaseId::ShardCommit,
        PhaseId::WalAppend,
    ];

    /// The stable wire name of the phase.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::DrainShard => "drain_shard",
            PhaseId::FlattenPatch => "flatten_patch",
            PhaseId::FlattenRebuild => "flatten_rebuild",
            PhaseId::CompileLower => "compile_lower",
            PhaseId::PartitionSearch => "partition_search",
            PhaseId::LeaseRenew => "lease_renew",
            PhaseId::ShardCommit => "shard_commit",
            PhaseId::WalAppend => "wal_append",
        }
    }

    /// The phase with the given wire name, if any.
    pub fn from_name(name: &str) -> Option<PhaseId> {
        PhaseId::ALL.into_iter().find(|phase| phase.name() == name)
    }
}

/// The scheduler-entity ids a span is attributed to — the same id space the
/// waitgraph nodes use (`job:{job}`, `shard:{job}/{shard}`, `lease:{lease}`,
/// `tenant:{tenant}`, `worker:{worker}`), so every span resolves against a
/// waitgraph snapshot. All fields are optional: registry-side spans outside
/// any lease (a submit's WAL append, say) carry none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanIds {
    /// The job the span worked for.
    pub job: Option<u64>,
    /// The shard index within the job.
    pub shard: Option<u64>,
    /// The lease the work ran under.
    pub lease: Option<u64>,
    /// The job's fair-queuing tenant. `Arc<str>` so per-span context clones
    /// never allocate.
    pub tenant: Option<Arc<str>>,
    /// The worker thread that did the work.
    pub worker: Option<Arc<str>>,
}

impl SpanIds {
    fn json_field(value: &Option<Arc<str>>) -> JsonValue {
        match value {
            Some(text) => JsonValue::string(text.as_ref()),
            None => JsonValue::Null,
        }
    }

    fn json_num(value: Option<u64>) -> JsonValue {
        match value {
            Some(n) => JsonValue::Int(i128::from(n)),
            None => JsonValue::Null,
        }
    }
}

/// One completed enter/exit pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Global publication order across all workers (exit order within one
    /// sink; a strictly monotone cursor for streaming readers).
    pub seq: u64,
    /// Globally unique span id, assigned at enter.
    pub id: u64,
    /// The id of the enclosing open span on the same sink, if any.
    pub parent: Option<u64>,
    /// What stage this span timed.
    pub phase: PhaseId,
    /// Monotonic enter time, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Monotonic exit time, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Total duration of direct child spans, for self-time attribution.
    pub child_ns: u64,
    /// The scheduler-trace sequence watermark at enter.
    pub trace_first: u64,
    /// The scheduler-trace sequence watermark at exit: decisions with
    /// `trace_first <= seq < trace_last` overlapped this span.
    pub trace_last: u64,
    /// Waitgraph-compatible attribution ids.
    pub ids: SpanIds,
}

impl Span {
    /// Wall-clock duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus the time spent in direct children.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }

    /// The span as one canonical JSON object (what `spans` watch frames
    /// carry).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("seq", JsonValue::Int(i128::from(self.seq))),
            ("id", JsonValue::Int(i128::from(self.id))),
            ("parent", SpanIds::json_num(self.parent)),
            ("phase", JsonValue::string(self.phase.name())),
            ("start_ns", JsonValue::Int(i128::from(self.start_ns))),
            ("end_ns", JsonValue::Int(i128::from(self.end_ns))),
            ("self_ns", JsonValue::Int(i128::from(self.self_ns()))),
            ("trace_first", JsonValue::Int(i128::from(self.trace_first))),
            ("trace_last", JsonValue::Int(i128::from(self.trace_last))),
            ("job", SpanIds::json_num(self.ids.job)),
            ("shard", SpanIds::json_num(self.ids.shard)),
            ("lease", SpanIds::json_num(self.ids.lease)),
            ("tenant", SpanIds::json_field(&self.ids.tenant)),
            ("worker", SpanIds::json_field(&self.ids.worker)),
        ])
    }
}

/// Completed spans read from the rings, oldest `seq` first, plus how many
/// the rings had to forget (oldest-first) since the recorder started.
#[derive(Debug, Clone, Default)]
pub struct SpanDrain {
    /// The buffered spans with `seq >= since`, sorted by `seq`.
    pub spans: Vec<Span>,
    /// Total spans dropped to ring overflow over the recorder's lifetime.
    pub dropped: u64,
}

/// A completed span as a sink queues it and a ring holds it: a [`Span`]
/// whose attribution context is shared with every other span completed under
/// it, so recording one bumps a reference count instead of cloning a
/// [`SpanIds`]. `seq` is assigned when the span is published.
#[derive(Debug)]
struct StoredSpan {
    seq: u64,
    id: u64,
    parent: Option<u64>,
    phase: PhaseId,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
    trace_first: u64,
    trace_last: u64,
    ids: Arc<SpanIds>,
}

impl StoredSpan {
    fn to_span(&self) -> Span {
        Span {
            seq: self.seq,
            id: self.id,
            parent: self.parent,
            phase: self.phase,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            child_ns: self.child_ns,
            trace_first: self.trace_first,
            trace_last: self.trace_last,
            ids: SpanIds::clone(&self.ids),
        }
    }
}

#[derive(Debug, Default)]
struct RingInner {
    ring: VecDeque<StoredSpan>,
    dropped: u64,
}

/// One worker's bounded ring of completed spans. Only the owning sink
/// pushes; readers merge across rings through
/// [`SpanRecorder::read_since`].
#[derive(Debug, Default)]
struct WorkerRing {
    inner: Mutex<RingInner>,
}

impl WorkerRing {
    /// Moves `spans` into the ring under one lock, numbering them from the
    /// recorder's global completion sequence and dropping oldest-first past
    /// the recorder's capacity.
    fn publish(&self, recorder: &SpanRecorder, spans: &mut Vec<StoredSpan>) {
        let mut inner = self.inner.lock().expect("span ring lock");
        let first_seq = recorder
            .next_seq
            .fetch_add(spans.len() as u64, Ordering::Relaxed);
        for (seq, mut span) in (first_seq..).zip(spans.drain(..)) {
            span.seq = seq;
            if inner.ring.len() == recorder.capacity {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            inner.ring.push_back(span);
        }
    }
}

/// The shared recorder: clock epoch, global counters, per-worker rings and
/// the optional link to the scheduler trace's sequence watermark.
///
/// A recorder built with capacity `0` (or [`disabled`](Self::disabled)) is
/// fully inert: every sink it hands out is a no-op and
/// [`is_enabled`](Self::is_enabled) gates each instrumentation site down to
/// one branch.
#[derive(Debug)]
pub struct SpanRecorder {
    capacity: usize,
    epoch: Instant,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    trace_seq: OnceLock<Arc<AtomicU64>>,
    rings: Mutex<BTreeMap<String, Arc<WorkerRing>>>,
}

impl SpanRecorder {
    /// A recorder whose per-worker rings hold at most `capacity` completed
    /// spans each; `0` disables recording entirely.
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            capacity,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            trace_seq: OnceLock::new(),
            rings: Mutex::new(BTreeMap::new()),
        }
    }

    /// A recorder at [`DEFAULT_SPAN_CAPACITY`].
    pub fn with_default_capacity() -> SpanRecorder {
        SpanRecorder::new(DEFAULT_SPAN_CAPACITY)
    }

    /// The inert recorder: hands out no-op sinks, records nothing.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder::new(0)
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured per-worker ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder's epoch, from the monotonic clock.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Links the scheduler trace's live sequence watermark (see
    /// [`TraceCapture::seq_mirror`](crate::trace::TraceCapture::seq_mirror)):
    /// every span records the watermark at enter and exit. At most one link
    /// sticks; later calls are ignored.
    pub fn link_trace_seq(&self, mirror: Arc<AtomicU64>) {
        let _ = self.trace_seq.set(mirror);
    }

    fn trace_watermark(&self) -> u64 {
        self.trace_seq
            .get()
            .map_or(0, |mirror| mirror.load(Ordering::Relaxed))
    }

    /// The sequence number the next published span will get (spans still
    /// queued in a sink have none yet).
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Total spans dropped to ring overflow across all workers.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .expect("span rings lock")
            .values()
            .map(|ring| ring.inner.lock().expect("span ring lock").dropped)
            .sum()
    }

    /// A recording sink for `worker`, creating its ring on first use. The
    /// same worker name always maps to the same ring, so a worker thread
    /// that re-enters the loop keeps appending where it left off. On a
    /// disabled recorder this is a no-op sink.
    pub fn sink(self: &Arc<Self>, worker: &str) -> SpanSink {
        if !self.is_enabled() {
            return SpanSink::disabled();
        }
        let ring = Arc::clone(
            self.rings
                .lock()
                .expect("span rings lock")
                .entry(worker.to_string())
                .or_default(),
        );
        SpanSink {
            shared: Some(SinkShared {
                recorder: Arc::clone(self),
                ring,
            }),
            state: RefCell::new(SinkState::default()),
        }
    }

    /// Takes a fresh block of [`ID_BLOCK`] span ids.
    fn id_block(&self) -> std::ops::Range<u64> {
        let start = self.next_id.fetch_add(ID_BLOCK, Ordering::Relaxed);
        start..start + ID_BLOCK
    }

    /// Non-destructive merged read of every buffered span with
    /// `seq >= since`, sorted by completion `seq`. `dropped` is the
    /// recorder-lifetime overflow total — a reader whose cursor observes it
    /// growing knows its window has gaps.
    pub fn read_since(&self, since: u64) -> SpanDrain {
        let mut spans = Vec::new();
        let mut dropped = 0;
        {
            let rings = self.rings.lock().expect("span rings lock");
            for ring in rings.values() {
                let inner = ring.inner.lock().expect("span ring lock");
                dropped += inner.dropped;
                spans.extend(
                    inner
                        .ring
                        .iter()
                        .filter(|span| span.seq >= since)
                        .map(StoredSpan::to_span),
                );
            }
        }
        spans.sort_by_key(|span| span.seq);
        SpanDrain { spans, dropped }
    }

    /// Every buffered span, sorted by completion `seq`.
    pub fn spans(&self) -> Vec<Span> {
        self.read_since(0).spans
    }
}

/// A `(monotonic ns, trace watermark)` pair taken by [`SpanSink::stamp`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStamp {
    /// Nanoseconds since the recorder's epoch.
    pub ns: u64,
    /// The scheduler-trace sequence watermark at stamp time.
    pub trace_seq: u64,
}

#[derive(Debug)]
struct SinkShared {
    recorder: Arc<SpanRecorder>,
    ring: Arc<WorkerRing>,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    phase: PhaseId,
    start_ns: u64,
    trace_first: u64,
    child_ns: u64,
}

#[derive(Debug, Default)]
struct SinkState {
    context: Arc<SpanIds>,
    stack: Vec<OpenSpan>,
    /// Completed spans not yet published to the ring.
    pending: Vec<StoredSpan>,
    /// The unused rest of this sink's id block.
    ids: std::ops::Range<u64>,
}

impl SinkState {
    fn next_id(&mut self, recorder: &SpanRecorder) -> u64 {
        if self.ids.is_empty() {
            self.ids = recorder.id_block();
        }
        let id = self.ids.start;
        self.ids.start += 1;
        id
    }

    /// Nests a completed span under the current top of the stack and queues
    /// it, publishing the queue once no span is open or the batch is full.
    fn complete(&mut self, shared: &SinkShared, mut span: StoredSpan) {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        span.parent = self.stack.last_mut().map(|enclosing| {
            enclosing.child_ns += duration;
            enclosing.id
        });
        self.pending.push(span);
        if self.stack.is_empty() || self.pending.len() >= PUBLISH_BATCH {
            shared.ring.publish(&shared.recorder, &mut self.pending);
        }
    }
}

/// A single thread's recording handle: an open-span stack plus the ambient
/// [`SpanIds`] context. Interior-mutable (`&self` methods) so a drain loop
/// and its flush callback can share one sink; deliberately `!Sync` — one
/// sink per thread.
///
/// Completed spans queue in the sink and reach its ring when the outermost
/// open span closes, when [`PUBLISH_BATCH`] of them have queued, or when the
/// sink is dropped.
#[derive(Debug)]
pub struct SpanSink {
    shared: Option<SinkShared>,
    state: RefCell<SinkState>,
}

impl SpanSink {
    /// The no-op sink: every method is a cheap early return.
    pub fn disabled() -> SpanSink {
        SpanSink {
            shared: None,
            state: RefCell::new(SinkState::default()),
        }
    }

    /// True when this sink records into a live ring.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// How many spans are currently open on this sink.
    pub fn depth(&self) -> usize {
        self.state.borrow().stack.len()
    }

    /// Replaces the ambient attribution context; spans completed after this
    /// call share `ids`. A caller that sets the same ids again and again (a
    /// lease's, on every renew) passes one `Arc` it keeps, so the spans and
    /// the ring entries share one allocation.
    pub fn set_context(&self, ids: impl Into<Arc<SpanIds>>) {
        if self.shared.is_none() {
            return;
        }
        self.state.borrow_mut().context = ids.into();
    }

    /// Resets the ambient context to all-`None`.
    pub fn clear_context(&self) {
        self.set_context(SpanIds::default());
    }

    /// Opens a span of `phase` nested under the current top of the stack.
    pub fn enter(&self, phase: PhaseId) {
        let Some(shared) = &self.shared else {
            return;
        };
        let mut state = self.state.borrow_mut();
        let open = OpenSpan {
            id: state.next_id(&shared.recorder),
            phase,
            start_ns: shared.recorder.now_ns(),
            trace_first: shared.recorder.trace_watermark(),
            child_ns: 0,
        };
        state.stack.push(open);
    }

    /// Closes the innermost open span under the phase it was entered as.
    pub fn exit(&self) {
        self.finish(None);
    }

    /// Closes the innermost open span, recording it as `phase` instead of
    /// the phase it was entered as — for stages whose identity is only known
    /// at exit (a flatten classified as patch vs rebuild, say).
    pub fn exit_as(&self, phase: PhaseId) {
        self.finish(Some(phase));
    }

    /// The recorder's monotonic clock and trace watermark right now — a
    /// start/end pair for [`record_complete`](Self::record_complete). Zeros
    /// on a disabled sink.
    pub fn stamp(&self) -> SpanStamp {
        match &self.shared {
            Some(shared) => SpanStamp {
                ns: shared.recorder.now_ns(),
                trace_seq: shared.recorder.trace_watermark(),
            },
            None => SpanStamp::default(),
        }
    }

    /// Records an externally-timed span of `phase` between two
    /// [`stamp`](Self::stamp)s, as a child of the current top of the stack.
    /// For stages whose borrow structure keeps the sink's enter/exit pair
    /// out of reach (the delta flattener's patch-vs-rebuild classification
    /// is only readable after the flattened graph borrow ends).
    pub fn record_complete(&self, phase: PhaseId, start: SpanStamp, end: SpanStamp) {
        let Some(shared) = &self.shared else {
            return;
        };
        let mut state = self.state.borrow_mut();
        let span = StoredSpan {
            seq: 0,
            id: state.next_id(&shared.recorder),
            parent: None,
            phase,
            start_ns: start.ns,
            end_ns: end.ns,
            child_ns: 0,
            trace_first: start.trace_seq,
            trace_last: end.trace_seq,
            ids: Arc::clone(&state.context),
        };
        state.complete(shared, span);
    }

    fn finish(&self, phase: Option<PhaseId>) {
        let Some(shared) = &self.shared else {
            return;
        };
        let mut state = self.state.borrow_mut();
        let Some(open) = state.stack.pop() else {
            debug_assert!(false, "span exit without a matching enter");
            return;
        };
        let span = StoredSpan {
            seq: 0,
            id: open.id,
            parent: None,
            phase: phase.unwrap_or(open.phase),
            start_ns: open.start_ns,
            end_ns: shared.recorder.now_ns(),
            child_ns: open.child_ns,
            trace_first: open.trace_first,
            trace_last: shared.recorder.trace_watermark(),
            ids: Arc::clone(&state.context),
        };
        state.complete(shared, span);
    }
}

impl Drop for SpanSink {
    /// Publishes whatever is still queued, so spans completed under a span
    /// that never closed (a panicking worker, say) are not lost.
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let pending = &mut self.state.get_mut().pending;
            if !pending.is_empty() {
                shared.ring.publish(&shared.recorder, pending);
            }
        }
    }
}

/// Per-phase aggregate over a set of spans.
#[derive(Debug)]
pub struct PhaseProfile {
    /// The phase.
    pub phase: PhaseId,
    /// Completed spans of this phase.
    pub count: u64,
    /// Summed wall-clock duration.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children).
    pub self_ns: u64,
    /// Log-linear histogram of span durations (bounded ~3% quantile error).
    pub histogram: Histogram,
}

/// One step of a job's critical path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// The phase of the step's span.
    pub phase: PhaseId,
    /// The lease the step ran under, if any.
    pub lease: Option<u64>,
    /// The worker that ran the step, if known.
    pub worker: Option<Arc<str>>,
    /// Span start, ns since the recorder epoch.
    pub start_ns: u64,
    /// Span end, ns since the recorder epoch.
    pub end_ns: u64,
}

impl PathStep {
    fn of(span: &Span) -> PathStep {
        PathStep {
            phase: span.phase,
            lease: span.ids.lease,
            worker: span.ids.worker.clone(),
            start_ns: span.start_ns,
            end_ns: span.end_ns,
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("phase", JsonValue::string(self.phase.name())),
            ("lease", SpanIds::json_num(self.lease)),
            ("worker", SpanIds::json_field(&self.worker)),
            ("start_ns", JsonValue::Int(i128::from(self.start_ns))),
            ("end_ns", JsonValue::Int(i128::from(self.end_ns))),
        ])
    }
}

/// A job's longest observed span chain: consecutive root spans walking
/// backwards from the job's last exit, each starting after the previous one
/// ended. The final step is the **straggler** — the lease whose completion
/// gated the job's wall clock (the lease hedging should have targeted).
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The job.
    pub job: u64,
    /// First span enter to last span exit across the whole job.
    pub wall_ns: u64,
    /// The chain, in chronological order.
    pub steps: Vec<PathStep>,
    /// The last-finishing step (straggler lease attribution).
    pub straggler: Option<PathStep>,
}

impl CriticalPath {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("job", JsonValue::Int(i128::from(self.job))),
            ("wall_ns", JsonValue::Int(i128::from(self.wall_ns))),
            (
                "straggler",
                self.straggler
                    .as_ref()
                    .map_or(JsonValue::Null, PathStep::to_json),
            ),
            (
                "steps",
                JsonValue::Array(self.steps.iter().map(PathStep::to_json).collect()),
            ),
        ])
    }
}

/// The aggregated view the `profile` op serves: per-phase totals, folded
/// flamegraph stacks and per-job critical paths.
#[derive(Debug, Default)]
pub struct Profile {
    /// Phases with at least one span, in [`PhaseId::ALL`] order.
    pub phases: Vec<PhaseProfile>,
    /// Folded stacks (`root;child;leaf self_ns`), one entry per distinct
    /// stack, sorted — the exact input `inferno` / `flamegraph.pl` take.
    pub folded: Vec<(String, u64)>,
    /// One critical path per job that had spans, in job-id order.
    pub critical_paths: Vec<CriticalPath>,
    /// Spans the rings dropped to overflow (the profile is missing them).
    pub dropped: u64,
}

impl Profile {
    /// Aggregates `spans` (any order) into the served profile. `dropped` is
    /// carried through verbatim from the [`SpanDrain`].
    pub fn from_spans(spans: &[Span], dropped: u64) -> Profile {
        let mut by_phase: BTreeMap<PhaseId, PhaseProfile> = BTreeMap::new();
        for span in spans {
            let entry = by_phase.entry(span.phase).or_insert_with(|| PhaseProfile {
                phase: span.phase,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                histogram: Histogram::new(),
            });
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.self_ns();
            entry.histogram.record(span.duration_ns());
        }
        let phases = PhaseId::ALL
            .into_iter()
            .filter_map(|phase| by_phase.remove(&phase))
            .collect();

        // Folded stacks: walk each span's parent chain to its root. A parent
        // the ring already dropped truncates the chain there — the span
        // still folds, just rooted shallower.
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|span| (span.id, span)).collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for span in spans {
            let mut names = vec![span.phase.name()];
            let mut cursor = span.parent;
            while let Some(parent_id) = cursor {
                let Some(parent) = by_id.get(&parent_id) else {
                    break;
                };
                names.push(parent.phase.name());
                cursor = parent.parent;
            }
            names.reverse();
            *folded.entry(names.join(";")).or_insert(0) += span.self_ns();
        }
        let folded = folded.into_iter().collect();

        // Critical path per job, over root spans only (nested spans are
        // already covered by their roots).
        let mut jobs: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for span in spans {
            if let (Some(job), None) = (span.ids.job, span.parent) {
                jobs.entry(job).or_default().push(span);
            }
        }
        let critical_paths = jobs
            .into_iter()
            .map(|(job, mut roots)| {
                roots.sort_by_key(|span| (span.end_ns, span.start_ns));
                let first_start = roots.iter().map(|s| s.start_ns).min().unwrap_or(0);
                let last = *roots.last().expect("a job group is non-empty");
                let mut steps = vec![PathStep::of(last)];
                let mut current_start = last.start_ns;
                // Chain backwards: the latest-ending root that exited before
                // the current step entered is the step that gated it.
                while let Some(prev) = roots.iter().rev().find(|span| span.end_ns <= current_start)
                {
                    current_start = prev.start_ns;
                    steps.push(PathStep::of(prev));
                }
                steps.reverse();
                CriticalPath {
                    job,
                    wall_ns: last.end_ns.saturating_sub(first_start),
                    straggler: Some(PathStep::of(last)),
                    steps,
                }
            })
            .collect();

        Profile {
            phases,
            folded,
            critical_paths,
            dropped,
        }
    }

    /// Summed self time across every phase — approximates total busy worker
    /// time when the drain roots cover the workers' running time.
    pub fn total_self_ns(&self) -> u64 {
        self.phases.iter().map(|phase| phase.self_ns).sum()
    }

    /// The profile as one canonical JSON object (what the `profile` op
    /// returns and quiesce persists as `profile.json`).
    pub fn to_json(&self) -> JsonValue {
        let phases = self
            .phases
            .iter()
            .map(|entry| {
                JsonValue::object([
                    ("phase", JsonValue::string(entry.phase.name())),
                    ("count", JsonValue::Int(i128::from(entry.count))),
                    ("total_ns", JsonValue::Int(i128::from(entry.total_ns))),
                    ("self_ns", JsonValue::Int(i128::from(entry.self_ns))),
                    ("duration_ns", entry.histogram.summary()),
                ])
            })
            .collect();
        let folded = self
            .folded
            .iter()
            .map(|(stack, self_ns)| JsonValue::string(format!("{stack} {self_ns}")))
            .collect();
        let paths = self
            .critical_paths
            .iter()
            .map(CriticalPath::to_json)
            .collect();
        JsonValue::object([
            ("dropped", JsonValue::Int(i128::from(self.dropped))),
            ("phases", JsonValue::Array(phases)),
            ("folded", JsonValue::Array(folded)),
            ("critical_paths", JsonValue::Array(paths)),
        ])
    }
}

/// Renders `spans` as Chrome trace-event JSON — an object with a
/// `traceEvents` array of `ph:"X"` complete events (pid = tenant,
/// tid = worker, ts/dur in microseconds) plus `ph:"M"` metadata events
/// naming each pid/tid, loadable directly in Perfetto or `chrome://tracing`.
/// Each event's `args` carries the span's waitgraph node ids
/// (`job:{j}`, `shard:{j}/{s}`, `lease:{l}`, ...) and its
/// `trace_first`/`trace_last` scheduler-trace window.
pub fn chrome_trace(spans: &[Span]) -> JsonValue {
    // Stable small integer ids: tenants (pids) and workers (tids) in sorted
    // name order, 0 reserved for "no attribution" (registry-side spans).
    let mut tenants: Vec<&str> = spans
        .iter()
        .filter_map(|span| span.ids.tenant.as_deref())
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    let mut workers: Vec<&str> = spans
        .iter()
        .filter_map(|span| span.ids.worker.as_deref())
        .collect();
    workers.sort_unstable();
    workers.dedup();
    let pid_of = |tenant: Option<&str>| {
        tenant.map_or(0, |name| {
            tenants
                .iter()
                .position(|t| *t == name)
                .expect("tenant indexed") as i128
                + 1
        })
    };
    let tid_of = |worker: Option<&str>| {
        worker.map_or(0, |name| {
            workers
                .iter()
                .position(|w| *w == name)
                .expect("worker indexed") as i128
                + 1
        })
    };

    let mut events = Vec::new();
    let mut named: Vec<(i128, i128)> = Vec::new();
    let meta = |name: &str, pid: i128, tid: i128, label: String| {
        JsonValue::object([
            ("name", JsonValue::string(name)),
            ("ph", JsonValue::string("M")),
            ("pid", JsonValue::Int(pid)),
            ("tid", JsonValue::Int(tid)),
            (
                "args",
                JsonValue::object([("name", JsonValue::string(label))]),
            ),
        ])
    };
    events.push(meta("process_name", 0, 0, "store".to_string()));
    for (index, tenant) in tenants.iter().enumerate() {
        events.push(meta(
            "process_name",
            index as i128 + 1,
            0,
            format!("tenant:{tenant}"),
        ));
    }
    for span in spans {
        let pid = pid_of(span.ids.tenant.as_deref());
        let tid = tid_of(span.ids.worker.as_deref());
        if !named.contains(&(pid, tid)) {
            named.push((pid, tid));
            let label = span
                .ids
                .worker
                .as_deref()
                .map_or("registry".to_string(), |worker| format!("worker:{worker}"));
            events.push(meta("thread_name", pid, tid, label));
        }
        let args = JsonValue::object([
            ("span", JsonValue::Int(i128::from(span.id))),
            ("parent", SpanIds::json_num(span.parent)),
            (
                "job",
                span.ids.job.map_or(JsonValue::Null, |job| {
                    JsonValue::string(format!("job:{job}"))
                }),
            ),
            (
                "shard",
                match (span.ids.job, span.ids.shard) {
                    (Some(job), Some(shard)) => JsonValue::string(format!("shard:{job}/{shard}")),
                    _ => JsonValue::Null,
                },
            ),
            (
                "lease",
                span.ids.lease.map_or(JsonValue::Null, |lease| {
                    JsonValue::string(format!("lease:{lease}"))
                }),
            ),
            (
                "tenant",
                span.ids.tenant.as_deref().map_or(JsonValue::Null, |t| {
                    JsonValue::string(format!("tenant:{t}"))
                }),
            ),
            (
                "worker",
                span.ids.worker.as_deref().map_or(JsonValue::Null, |w| {
                    JsonValue::string(format!("worker:{w}"))
                }),
            ),
            ("dur_ns", JsonValue::Int(i128::from(span.duration_ns()))),
            ("self_ns", JsonValue::Int(i128::from(span.self_ns()))),
            ("trace_first", JsonValue::Int(i128::from(span.trace_first))),
            ("trace_last", JsonValue::Int(i128::from(span.trace_last))),
        ]);
        events.push(JsonValue::object([
            ("name", JsonValue::string(span.phase.name())),
            ("cat", JsonValue::string("spi")),
            ("ph", JsonValue::string("X")),
            ("pid", JsonValue::Int(pid)),
            ("tid", JsonValue::Int(tid)),
            ("ts", JsonValue::Int(i128::from(span.start_ns / 1_000))),
            (
                "dur",
                JsonValue::Int(i128::from(span.duration_ns() / 1_000)),
            ),
            ("args", args),
        ]));
    }
    JsonValue::object([
        ("displayTimeUnit", JsonValue::string("ns")),
        ("traceEvents", JsonValue::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder::new(capacity))
    }

    #[test]
    fn disabled_recorder_hands_out_noop_sinks() {
        let recorder = Arc::new(SpanRecorder::disabled());
        assert!(!recorder.is_enabled());
        let sink = recorder.sink("w0");
        assert!(!sink.is_enabled());
        sink.enter(PhaseId::DrainShard);
        sink.exit();
        assert_eq!(recorder.next_seq(), 0);
        assert!(recorder.spans().is_empty());
    }

    #[test]
    fn nesting_assigns_parents_and_self_time() {
        let recorder = recorder(64);
        let sink = recorder.sink("w0");
        sink.set_context(SpanIds {
            job: Some(3),
            shard: Some(1),
            lease: Some(7),
            tenant: Some("team".into()),
            worker: Some("w0".into()),
        });
        sink.enter(PhaseId::DrainShard);
        sink.enter(PhaseId::FlattenRebuild);
        sink.exit();
        sink.enter(PhaseId::CompileLower);
        sink.exit();
        sink.exit();
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        let root = spans
            .iter()
            .find(|s| s.phase == PhaseId::DrainShard)
            .unwrap();
        assert_eq!(root.parent, None);
        for child in spans.iter().filter(|s| s.phase != PhaseId::DrainShard) {
            assert_eq!(child.parent, Some(root.id));
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        let children_ns: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(Span::duration_ns)
            .sum();
        assert_eq!(root.child_ns, children_ns);
        assert_eq!(root.self_ns(), root.duration_ns() - children_ns);
        assert_eq!(root.ids.job, Some(3));
        assert_eq!(root.ids.tenant.as_deref(), Some("team"));
    }

    #[test]
    fn nested_spans_reach_the_ring_in_batches() {
        let recorder = recorder(1024);
        let sink = recorder.sink("w0");
        sink.enter(PhaseId::DrainShard);
        let stamp = sink.stamp();
        for _ in 0..PUBLISH_BATCH - 1 {
            sink.record_complete(PhaseId::FlattenPatch, stamp, stamp);
        }
        assert!(recorder.spans().is_empty(), "queued under the open root");
        sink.record_complete(PhaseId::FlattenPatch, stamp, stamp);
        assert_eq!(
            recorder.spans().len(),
            PUBLISH_BATCH,
            "a full batch publishes"
        );
        sink.record_complete(PhaseId::CompileLower, stamp, stamp);
        sink.exit();
        let spans = recorder.spans();
        assert_eq!(
            spans.len(),
            PUBLISH_BATCH + 2,
            "the root's exit publishes the rest"
        );
        // Sequence numbers stay dense and in exit order.
        for (at, span) in spans.iter().enumerate() {
            assert_eq!(span.seq, at as u64);
        }
        assert_eq!(spans.last().unwrap().phase, PhaseId::DrainShard);
        assert_eq!(recorder.next_seq(), spans.len() as u64);
    }

    #[test]
    fn queued_spans_keep_the_context_they_completed_under() {
        let recorder = recorder(64);
        let sink = recorder.sink("w0");
        let job = |job: u64| SpanIds {
            job: Some(job),
            ..SpanIds::default()
        };
        sink.set_context(job(1));
        sink.enter(PhaseId::DrainShard);
        sink.enter(PhaseId::CompileLower);
        sink.exit();
        sink.set_context(job(2));
        sink.exit();
        let spans = recorder.spans();
        assert_eq!(spans[0].phase, PhaseId::CompileLower);
        assert_eq!(spans[0].ids.job, Some(1));
        assert_eq!(spans[1].phase, PhaseId::DrainShard);
        assert_eq!(spans[1].ids.job, Some(2));
    }

    #[test]
    fn span_ids_stay_unique_across_sinks_and_id_blocks() {
        let recorder = recorder(8192);
        let sinks = [recorder.sink("a"), recorder.sink("b")];
        for round in 0..3 * ID_BLOCK as usize {
            let sink = &sinks[round % 2];
            sink.enter(PhaseId::WalAppend);
            sink.exit();
        }
        let spans = recorder.spans();
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len());
    }

    #[test]
    fn dropping_a_sink_publishes_what_it_queued() {
        let recorder = recorder(64);
        {
            let sink = recorder.sink("w0");
            sink.enter(PhaseId::DrainShard);
            sink.enter(PhaseId::FlattenRebuild);
            sink.exit();
        }
        let spans = recorder.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, PhaseId::FlattenRebuild);
    }

    #[test]
    fn exit_as_reclassifies_the_open_phase() {
        let recorder = recorder(8);
        let sink = recorder.sink("w0");
        sink.enter(PhaseId::FlattenRebuild);
        sink.exit_as(PhaseId::FlattenPatch);
        assert_eq!(recorder.spans()[0].phase, PhaseId::FlattenPatch);
    }

    /// LCG-driven random nesting: every recorded span must exit at or after
    /// it entered, sit fully inside its parent, and never claim more child
    /// time than its own duration.
    #[test]
    fn random_nesting_preserves_span_invariants() {
        let phases = PhaseId::ALL;
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as usize
        };
        let recorder = recorder(4096);
        let sink = recorder.sink("w0");
        let mut depth = 0usize;
        for _ in 0..2000 {
            let enter = depth == 0 || (depth < 12 && next() % 3 != 0);
            if enter {
                sink.enter(phases[next() % phases.len()]);
                depth += 1;
            } else {
                sink.exit();
                depth -= 1;
            }
        }
        while depth > 0 {
            sink.exit();
            depth -= 1;
        }
        let spans = recorder.spans();
        assert!(spans.len() > 100, "the walk closed plenty of spans");
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        for span in &spans {
            assert!(span.end_ns >= span.start_ns, "exit at or after enter");
            assert!(span.child_ns <= span.duration_ns() || span.duration_ns() == 0);
            assert!(span.trace_last >= span.trace_first);
            if let Some(parent) = span.parent {
                let parent = by_id[&parent];
                assert!(
                    parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                    "child [{}, {}] escapes parent [{}, {}]",
                    span.start_ns,
                    span.end_ns,
                    parent.start_ns,
                    parent.end_ns
                );
            }
        }
        // Completion (seq) order is exit order: strictly increasing end_ns
        // modulo clock resolution, and seqs are dense from 0.
        for (index, span) in spans.iter().enumerate() {
            assert_eq!(span.seq, index as u64);
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_first_and_counts() {
        let recorder = recorder(8);
        let sink = recorder.sink("w0");
        for _ in 0..20 {
            sink.enter(PhaseId::WalAppend);
            sink.exit();
        }
        let drain = recorder.read_since(0);
        assert_eq!(drain.dropped, 12);
        assert_eq!(drain.spans.len(), 8);
        // Oldest-first: the survivors are exactly the newest 8 seqs.
        let seqs: Vec<u64> = drain.spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        assert_eq!(recorder.dropped(), 12);
    }

    #[test]
    fn read_since_filters_by_completion_seq_across_rings() {
        let recorder = recorder(64);
        let a = recorder.sink("a");
        let b = recorder.sink("b");
        for _ in 0..3 {
            a.enter(PhaseId::WalAppend);
            a.exit();
            b.enter(PhaseId::LeaseRenew);
            b.exit();
        }
        let all = recorder.read_since(0);
        assert_eq!(all.spans.len(), 6);
        assert!(all.spans.windows(2).all(|w| w[0].seq < w[1].seq));
        let tail = recorder.read_since(4);
        assert_eq!(tail.spans.len(), 2);
        assert!(tail.spans.iter().all(|s| s.seq >= 4));
    }

    #[test]
    fn trace_watermark_brackets_the_span() {
        let recorder = recorder(8);
        let mirror = Arc::new(AtomicU64::new(41));
        recorder.link_trace_seq(Arc::clone(&mirror));
        let sink = recorder.sink("w0");
        sink.enter(PhaseId::ShardCommit);
        mirror.store(45, Ordering::Relaxed);
        sink.exit();
        let span = &recorder.spans()[0];
        assert_eq!((span.trace_first, span.trace_last), (41, 45));
    }

    #[test]
    fn span_json_round_trips_through_the_strict_parser() {
        let recorder = recorder(8);
        let sink = recorder.sink("w0");
        sink.set_context(SpanIds {
            job: Some(1),
            shard: Some(2),
            lease: Some(3),
            tenant: Some("t".into()),
            worker: Some("w0".into()),
        });
        sink.enter(PhaseId::PartitionSearch);
        sink.exit();
        let span = &recorder.spans()[0];
        let parsed = JsonValue::parse(&span.to_json().to_line()).unwrap();
        assert_eq!(
            parsed.get("phase").unwrap().as_str(),
            Some("partition_search")
        );
        assert_eq!(parsed.get("job").unwrap().as_u64(), Some(1));
        assert_eq!(
            PhaseId::from_name(parsed.get("phase").unwrap().as_str().unwrap()),
            Some(PhaseId::PartitionSearch)
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn synthetic_span(
        seq: u64,
        id: u64,
        parent: Option<u64>,
        phase: PhaseId,
        start_ns: u64,
        end_ns: u64,
        child_ns: u64,
        job: Option<u64>,
        lease: Option<u64>,
    ) -> Span {
        Span {
            seq,
            id,
            parent,
            phase,
            start_ns,
            end_ns,
            child_ns,
            trace_first: 0,
            trace_last: 0,
            ids: SpanIds {
                job,
                shard: None,
                lease,
                tenant: None,
                worker: None,
            },
        }
    }

    #[test]
    fn profile_folds_stacks_and_attributes_self_time() {
        // drain[0,100]{ flatten[10,30], search[40,90] }, plus a bare commit.
        let spans = vec![
            synthetic_span(
                0,
                1,
                Some(0),
                PhaseId::FlattenPatch,
                10,
                30,
                0,
                Some(0),
                Some(1),
            ),
            synthetic_span(
                1,
                2,
                Some(0),
                PhaseId::PartitionSearch,
                40,
                90,
                0,
                Some(0),
                Some(1),
            ),
            synthetic_span(
                2,
                0,
                None,
                PhaseId::DrainShard,
                0,
                100,
                70,
                Some(0),
                Some(1),
            ),
            synthetic_span(
                3,
                3,
                None,
                PhaseId::ShardCommit,
                100,
                110,
                0,
                Some(0),
                Some(1),
            ),
        ];
        let profile = Profile::from_spans(&spans, 5);
        assert_eq!(profile.dropped, 5);
        let drain = profile
            .phases
            .iter()
            .find(|p| p.phase == PhaseId::DrainShard)
            .unwrap();
        assert_eq!((drain.count, drain.total_ns, drain.self_ns), (1, 100, 30));
        assert_eq!(profile.total_self_ns(), 30 + 20 + 50 + 10);
        let folded: BTreeMap<&str, u64> = profile
            .folded
            .iter()
            .map(|(stack, ns)| (stack.as_str(), *ns))
            .collect();
        assert_eq!(folded["drain_shard"], 30);
        assert_eq!(folded["drain_shard;flatten_patch"], 20);
        assert_eq!(folded["drain_shard;partition_search"], 50);
        assert_eq!(folded["shard_commit"], 10);
    }

    #[test]
    fn critical_path_chains_backwards_to_the_straggler() {
        // Two "waves" of drains on job 0: [0,50] and [10,60] overlap, then
        // [70,200] runs after both — the path is one early drain plus the
        // straggler, and the wall clock spans first enter to last exit.
        let spans = vec![
            synthetic_span(0, 0, None, PhaseId::DrainShard, 0, 50, 0, Some(0), Some(10)),
            synthetic_span(
                1,
                1,
                None,
                PhaseId::DrainShard,
                10,
                60,
                0,
                Some(0),
                Some(11),
            ),
            synthetic_span(
                2,
                2,
                None,
                PhaseId::DrainShard,
                70,
                200,
                0,
                Some(0),
                Some(12),
            ),
        ];
        let profile = Profile::from_spans(&spans, 0);
        assert_eq!(profile.critical_paths.len(), 1);
        let path = &profile.critical_paths[0];
        assert_eq!(path.job, 0);
        assert_eq!(path.wall_ns, 200);
        assert_eq!(path.straggler.as_ref().unwrap().lease, Some(12));
        let leases: Vec<Option<u64>> = path.steps.iter().map(|s| s.lease).collect();
        assert_eq!(leases, vec![Some(11), Some(12)]);
    }

    #[test]
    fn chrome_trace_emits_metadata_and_complete_events() {
        let recorder = recorder(16);
        let sink = recorder.sink("w0");
        sink.set_context(SpanIds {
            job: Some(0),
            shard: Some(2),
            lease: Some(9),
            tenant: Some("team-a".into()),
            worker: Some("w0".into()),
        });
        sink.enter(PhaseId::DrainShard);
        sink.enter(PhaseId::FlattenRebuild);
        sink.exit();
        sink.exit();
        let trace = chrome_trace(&recorder.spans());
        let parsed = JsonValue::parse(&trace.to_line()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for event in &complete {
            let args = event.get("args").unwrap();
            assert_eq!(args.get("job").unwrap().as_str(), Some("job:0"));
            assert_eq!(args.get("shard").unwrap().as_str(), Some("shard:0/2"));
            assert_eq!(args.get("lease").unwrap().as_str(), Some("lease:9"));
            assert_eq!(args.get("tenant").unwrap().as_str(), Some("tenant:team-a"));
            assert_eq!(args.get("worker").unwrap().as_str(), Some("worker:w0"));
        }
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .filter_map(JsonValue::as_str)
            .collect();
        assert!(names.contains(&"tenant:team-a"));
        assert!(names.contains(&"worker:w0"));
    }
}
