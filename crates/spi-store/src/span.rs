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
//! never throughput. A ring holds its spans packed (see the crate's `packed`
//! module): about 13 bytes a span instead of an 88-byte struct, each span
//! written as its difference from the one before and its context as an
//! index into a per-chunk table.
//!
//! On top of the raw spans this module derives the served views:
//! [`Profile::from_spans`] (per-phase totals + log-linear histograms +
//! folded flamegraph stacks + per-job critical paths) and
//! [`write_chrome_trace`] (Chrome trace-event JSON loadable in Perfetto /
//! `chrome://tracing`).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use spi_model::json::{self, JsonValue};

use crate::metrics::Histogram;
use crate::packed::{Codec, PackedRing, Reader, Writer};

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

/// A completed span as a sink queues it and a ring packs it: a [`Span`]
/// without its `seq` (assigned at publication) whose attribution context is
/// shared with every other span completed under it, so recording one bumps a
/// reference count instead of cloning a [`SpanIds`].
#[derive(Debug)]
struct StoredSpan {
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
    fn to_span(&self, seq: u64) -> Span {
        Span {
            seq,
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

/// Head-byte flags above the three bits of the phase.
const HAS_PARENT: u8 = 1 << 3;
const HAS_GAP: u8 = 1 << 4;

/// Packs a span against the previous one in its chunk: a head byte (phase,
/// whether a parent and a seq gap follow), the gap, the id as a signed
/// delta, the parent as `id - parent`, `start_ns` and `trace_first` as
/// signed deltas (a parent is published after its children), the duration,
/// `child_ns` and `trace_last - trace_first` as they are, and the context as
/// an index into the chunk's table. All differences wrap, so every field
/// value round-trips.
#[derive(Debug, Default)]
struct SpanCodec {
    id: u64,
    start_ns: u64,
    trace_first: u64,
}

impl Codec for SpanCodec {
    type Record = StoredSpan;
    type Shared = Arc<SpanIds>;
    // The head byte, eight varints and a table index below 2^14.
    const MAX_RECORD_BYTES: usize = 1 + 8 * 10 + 2;

    fn encode(&mut self, gap: u64, span: &StoredSpan, out: &mut Writer<'_, Arc<SpanIds>>) {
        let mut head = span.phase as u8;
        if span.parent.is_some() {
            head |= HAS_PARENT;
        }
        if gap > 0 {
            head |= HAS_GAP;
        }
        out.byte(head);
        if gap > 0 {
            out.varint(gap);
        }
        out.delta(&mut self.id, span.id);
        if let Some(parent) = span.parent {
            out.varint(span.id.wrapping_sub(parent));
        }
        out.delta(&mut self.start_ns, span.start_ns);
        out.varint(span.end_ns.wrapping_sub(span.start_ns));
        out.varint(span.child_ns);
        out.delta(&mut self.trace_first, span.trace_first);
        out.varint(span.trace_last.wrapping_sub(span.trace_first));
        // A lease's spans share one `Arc`: the pointer test settles most
        // lookups without comparing fields.
        out.shared(
            |ids| Arc::ptr_eq(ids, &span.ids) || **ids == *span.ids,
            || Arc::clone(&span.ids),
        );
    }

    fn decode(&mut self, input: &mut Reader<'_, Arc<SpanIds>>) -> (u64, StoredSpan) {
        let head = input.byte();
        let gap = if head & HAS_GAP != 0 {
            input.varint()
        } else {
            0
        };
        let id = input.delta(&mut self.id);
        let parent = (head & HAS_PARENT != 0).then(|| id.wrapping_sub(input.varint()));
        let start_ns = input.delta(&mut self.start_ns);
        let end_ns = start_ns.wrapping_add(input.varint());
        let child_ns = input.varint();
        let trace_first = input.delta(&mut self.trace_first);
        let trace_last = trace_first.wrapping_add(input.varint());
        let span = StoredSpan {
            id,
            parent,
            phase: PhaseId::ALL[usize::from(head & 0b111)],
            start_ns,
            end_ns,
            child_ns,
            trace_first,
            trace_last,
            ids: Arc::clone(input.shared()),
        };
        (gap, span)
    }
}

#[derive(Debug)]
struct RingInner {
    ring: PackedRing<SpanCodec>,
    dropped: u64,
}

/// One worker's bounded ring of completed spans. Only the owning sink
/// pushes; readers merge across rings through
/// [`SpanRecorder::read_since`].
#[derive(Debug)]
struct WorkerRing {
    inner: Mutex<RingInner>,
}

impl WorkerRing {
    fn new(capacity: usize) -> WorkerRing {
        WorkerRing {
            inner: Mutex::new(RingInner {
                ring: PackedRing::new(capacity),
                dropped: 0,
            }),
        }
    }

    /// Packs `spans` into the ring under one lock, numbering them from the
    /// recorder's global completion sequence and dropping oldest-first past
    /// the ring's capacity.
    fn publish(&self, recorder: &SpanRecorder, spans: &mut Vec<StoredSpan>) {
        let mut inner = self.inner.lock().expect("span ring lock");
        let first_seq = recorder
            .next_seq
            .fetch_add(spans.len() as u64, Ordering::Relaxed);
        for (seq, span) in (first_seq..).zip(spans.drain(..)) {
            if inner.ring.push(seq, &span) {
                inner.dropped += 1;
            }
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
                .or_insert_with(|| Arc::new(WorkerRing::new(self.capacity))),
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
    ///
    /// The read stops at the [`next_seq`](Self::next_seq) it saw before
    /// locking the first ring. A publisher numbers its spans inside its own
    /// ring's lock, so every span below that bound is in its ring by the
    /// time the scan gets there; a span above it may land in a ring the scan
    /// has already passed, and a cursor moved past it would skip it for good.
    pub fn read_since(&self, since: u64) -> SpanDrain {
        let end = self.next_seq();
        let rings = self.rings.lock().expect("span rings lock");
        let held = rings
            .values()
            .map(|ring| {
                ring.inner
                    .lock()
                    .expect("span ring lock")
                    .ring
                    .len_since(since)
            })
            .sum();
        let mut spans = Vec::with_capacity(held);
        let mut dropped = 0;
        for ring in rings.values() {
            let inner = ring.inner.lock().expect("span ring lock");
            dropped += inner.dropped;
            inner
                .ring
                .read(since..end, |seq, span| spans.push(span.to_span(seq)));
        }
        drop(rings);
        spans.sort_unstable_by_key(|span| span.seq);
        SpanDrain { spans, dropped }
    }

    /// Every buffered span, sorted by completion `seq`.
    pub fn spans(&self) -> Vec<Span> {
        self.read_since(0).spans
    }

    /// The bytes the span rings have allocated: chunk buffers, chunk tables
    /// and chunk lists. 0 on a disabled recorder.
    pub fn ring_bytes(&self) -> usize {
        self.rings
            .lock()
            .expect("span rings lock")
            .values()
            .map(|ring| {
                ring.inner
                    .lock()
                    .expect("span ring lock")
                    .ring
                    .allocated_bytes()
            })
            .sum()
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

    /// Closes the innermost open span.
    pub fn exit(&self) {
        let Some(shared) = &self.shared else {
            return;
        };
        let mut state = self.state.borrow_mut();
        let Some(open) = state.stack.pop() else {
            debug_assert!(false, "span exit without a matching enter");
            return;
        };
        let span = StoredSpan {
            id: open.id,
            parent: None,
            phase: open.phase,
            start_ns: open.start_ns,
            end_ns: shared.recorder.now_ns(),
            child_ns: open.child_ns,
            trace_first: open.trace_first,
            trace_last: shared.recorder.trace_watermark(),
            ids: Arc::clone(&state.context),
        };
        state.complete(shared, span);
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

/// Writes `spans` to `out` as Chrome trace-event JSON, one line without a
/// newline: an object with a `traceEvents` array of `ph:"X"` complete events
/// (pid = tenant, tid = worker, ts/dur in microseconds) plus `ph:"M"`
/// metadata events naming each pid/tid, loadable directly in Perfetto or
/// `chrome://tracing`. Each event's `args` carries the span's waitgraph node
/// ids (`job:{j}`, `shard:{j}/{s}`, `lease:{l}`, ...) and its
/// `trace_first`/`trace_last` scheduler-trace window. The document is
/// written one event at a time: a large trace never exists as a tree or as
/// one string.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_chrome_trace<W: io::Write>(spans: &[Span], out: &mut W) -> io::Result<()> {
    // Stable small integer ids: tenants (pids) and workers (tids) in sorted
    // name order, 0 reserved for "no attribution" (registry-side spans).
    let sorted = |name: fn(&SpanIds) -> Option<&str>| -> Vec<&str> {
        let names: BTreeSet<&str> = spans.iter().filter_map(|span| name(&span.ids)).collect();
        names.into_iter().collect()
    };
    let tenants = sorted(|ids| ids.tenant.as_deref());
    let workers = sorted(|ids| ids.worker.as_deref());
    let index = |names: &[&str], name: Option<&str>| {
        name.map_or(0, |name| {
            names.binary_search(&name).expect("name indexed") + 1
        })
    };

    let mut event = String::with_capacity(512);
    let mut label = String::new();
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    push_meta(&mut event, "process_name", 0, 0, "store");
    for (at, tenant) in tenants.iter().enumerate() {
        label.clear();
        let _ = write!(label, "tenant:{tenant}");
        event.push(',');
        push_meta(&mut event, "process_name", at + 1, 0, &label);
    }
    out.write_all(event.as_bytes())?;

    let mut named = BTreeSet::new();
    for span in spans {
        event.clear();
        let pid = index(&tenants, span.ids.tenant.as_deref());
        let tid = index(&workers, span.ids.worker.as_deref());
        if named.insert((pid, tid)) {
            label.clear();
            match span.ids.worker.as_deref() {
                Some(worker) => {
                    let _ = write!(label, "worker:{worker}");
                }
                None => label.push_str("registry"),
            }
            event.push(',');
            push_meta(&mut event, "thread_name", pid, tid, &label);
        }
        let _ = write!(
            event,
            ",{{\"name\":\"{}\",\"cat\":\"spi\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{},\"dur\":{},\"args\":{{\"span\":{},\"parent\":",
            span.phase.name(),
            span.start_ns / 1_000,
            span.duration_ns() / 1_000,
            span.id,
        );
        match span.parent {
            Some(parent) => {
                let _ = write!(event, "{parent}");
            }
            None => event.push_str("null"),
        }
        let ids = &span.ids;
        event.push_str(",\"job\":");
        match ids.job {
            Some(job) => {
                let _ = write!(event, "\"job:{job}\"");
            }
            None => event.push_str("null"),
        }
        event.push_str(",\"shard\":");
        match (ids.job, ids.shard) {
            (Some(job), Some(shard)) => {
                let _ = write!(event, "\"shard:{job}/{shard}\"");
            }
            _ => event.push_str("null"),
        }
        event.push_str(",\"lease\":");
        match ids.lease {
            Some(lease) => {
                let _ = write!(event, "\"lease:{lease}\"");
            }
            None => event.push_str("null"),
        }
        for (key, prefix, name) in [
            ("tenant", "tenant:", ids.tenant.as_deref()),
            ("worker", "worker:", ids.worker.as_deref()),
        ] {
            let _ = write!(event, ",\"{key}\":");
            match name {
                Some(name) => {
                    label.clear();
                    label.push_str(prefix);
                    label.push_str(name);
                    json::write_string(&label, &mut event);
                }
                None => event.push_str("null"),
            }
        }
        let _ = write!(
            event,
            ",\"dur_ns\":{},\"self_ns\":{},\"trace_first\":{},\"trace_last\":{}}}}}",
            span.duration_ns(),
            span.self_ns(),
            span.trace_first,
            span.trace_last,
        );
        out.write_all(event.as_bytes())?;
    }
    out.write_all(b"]}")
}

/// Appends one `ph:"M"` metadata event naming a pid or tid.
fn push_meta(out: &mut String, name: &str, pid: usize, tid: usize, label: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
    );
    json::write_string(label, out);
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

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
        let mut trace = Vec::new();
        write_chrome_trace(&recorder.spans(), &mut trace).unwrap();
        let parsed = JsonValue::parse(std::str::from_utf8(&trace).unwrap()).unwrap();
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

    /// Spans covering every attribution shape the Chrome trace renders:
    /// full lease context, a registry span with none, a tenant without a
    /// worker, a job without a shard, a shard without a job, and names that
    /// need escaping or are not ASCII, over three tenants and three workers.
    fn chrome_fixture() -> Vec<Span> {
        let ids = |job, shard, lease, tenant: Option<&str>, worker: Option<&str>| SpanIds {
            job,
            shard,
            lease,
            tenant: tenant.map(Arc::from),
            worker: worker.map(Arc::from),
        };
        let span = |seq, id, parent, phase, start_ns, end_ns, child_ns, ids| Span {
            seq,
            id,
            parent,
            phase,
            start_ns,
            end_ns,
            child_ns,
            trace_first: seq * 3,
            trace_last: seq * 3 + id % 4,
            ids,
        };
        let lease_b = ids(Some(0), Some(1), Some(7), Some("team-b"), Some("w1"));
        let lease_a = ids(Some(1), Some(0), Some(8), Some("team \"a\""), Some("w0"));
        vec![
            span(
                0,
                5,
                Some(4),
                PhaseId::FlattenPatch,
                1_500,
                4_250,
                0,
                lease_b.clone(),
            ),
            span(
                1,
                4,
                None,
                PhaseId::DrainShard,
                1_000,
                9_999,
                2_750,
                lease_b,
            ),
            span(
                2,
                9,
                None,
                PhaseId::WalAppend,
                10_000,
                12_345,
                0,
                SpanIds::default(),
            ),
            span(
                3,
                12,
                None,
                PhaseId::ShardCommit,
                12_000,
                13_001,
                0,
                ids(Some(1), None, Some(8), Some("team \"a\""), None),
            ),
            span(
                4,
                20,
                Some(19),
                PhaseId::PartitionSearch,
                20_000,
                20_999,
                0,
                lease_a.clone(),
            ),
            span(
                5,
                19,
                None,
                PhaseId::DrainShard,
                19_000,
                21_000,
                999,
                lease_a,
            ),
            span(
                6,
                30,
                None,
                PhaseId::LeaseRenew,
                u64::MAX - 5_000,
                u64::MAX,
                7_000,
                ids(None, Some(3), None, Some("équipe"), Some("wörker\n2")),
            ),
        ]
    }

    /// The line the `JsonValue` tree that the text renderer replaced wrote
    /// for [`chrome_fixture`].
    const CHROME_FIXTURE_LINE: &str = r#"{"displayTimeUnit":"ns","traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"store"}},{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"tenant:team \"a\""}},{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"tenant:team-b"}},{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"tenant:équipe"}},{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"worker:w1"}},{"name":"flatten_patch","cat":"spi","ph":"X","pid":2,"tid":2,"ts":1,"dur":2,"args":{"span":5,"parent":4,"job":"job:0","shard":"shard:0/1","lease":"lease:7","tenant":"tenant:team-b","worker":"worker:w1","dur_ns":2750,"self_ns":2750,"trace_first":0,"trace_last":1}},{"name":"drain_shard","cat":"spi","ph":"X","pid":2,"tid":2,"ts":1,"dur":8,"args":{"span":4,"parent":null,"job":"job:0","shard":"shard:0/1","lease":"lease:7","tenant":"tenant:team-b","worker":"worker:w1","dur_ns":8999,"self_ns":6249,"trace_first":3,"trace_last":3}},{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"registry"}},{"name":"wal_append","cat":"spi","ph":"X","pid":0,"tid":0,"ts":10,"dur":2,"args":{"span":9,"parent":null,"job":null,"shard":null,"lease":null,"tenant":null,"worker":null,"dur_ns":2345,"self_ns":2345,"trace_first":6,"trace_last":7}},{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"registry"}},{"name":"shard_commit","cat":"spi","ph":"X","pid":1,"tid":0,"ts":12,"dur":1,"args":{"span":12,"parent":null,"job":"job:1","shard":null,"lease":"lease:8","tenant":"tenant:team \"a\"","worker":null,"dur_ns":1001,"self_ns":1001,"trace_first":9,"trace_last":9}},{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker:w0"}},{"name":"partition_search","cat":"spi","ph":"X","pid":1,"tid":1,"ts":20,"dur":0,"args":{"span":20,"parent":19,"job":"job:1","shard":"shard:1/0","lease":"lease:8","tenant":"tenant:team \"a\"","worker":"worker:w0","dur_ns":999,"self_ns":999,"trace_first":12,"trace_last":12}},{"name":"drain_shard","cat":"spi","ph":"X","pid":1,"tid":1,"ts":19,"dur":2,"args":{"span":19,"parent":null,"job":"job:1","shard":"shard:1/0","lease":"lease:8","tenant":"tenant:team \"a\"","worker":"worker:w0","dur_ns":2000,"self_ns":1001,"trace_first":15,"trace_last":18}},{"name":"thread_name","ph":"M","pid":3,"tid":3,"args":{"name":"worker:wörker\n2"}},{"name":"lease_renew","cat":"spi","ph":"X","pid":3,"tid":3,"ts":18446744073709546,"dur":5,"args":{"span":30,"parent":null,"job":null,"shard":null,"lease":null,"tenant":"tenant:équipe","worker":"worker:wörker\n2","dur_ns":5000,"self_ns":0,"trace_first":18,"trace_last":20}}]}"#;

    #[test]
    fn chrome_trace_text_matches_the_tree_rendering_byte_for_byte() {
        let mut streamed = Vec::new();
        write_chrome_trace(&chrome_fixture(), &mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), CHROME_FIXTURE_LINE);
    }

    /// A field value: one of the extremes, or a value near `around`.
    fn field(lcg: &mut spi_testutil::Lcg, around: u64) -> u64 {
        const EXTREMES: [u64; 6] = [0, 1, 1 << 32, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        match lcg.below(4) {
            0 => EXTREMES[lcg.below(EXTREMES.len() as u64) as usize],
            1 => around.wrapping_sub(lcg.below(1 << 20)),
            _ => around.wrapping_add(lcg.below(1 << 12)),
        }
    }

    /// A span with arbitrary fields: ids, parents older or newer than the
    /// span or missing, times and trace watermarks that may run backwards,
    /// `child_ns` that may exceed the duration, and — on most spans — a
    /// context of its own.
    fn arbitrary_span(lcg: &mut spi_testutil::Lcg, previous: &mut Arc<SpanIds>) -> StoredSpan {
        let id = field(lcg, 1000);
        let parent = match lcg.below(4) {
            0 => None,
            1 => Some(id.wrapping_sub(1 + lcg.below(100))),
            2 => Some(id.wrapping_add(lcg.below(100))),
            _ => Some(field(lcg, id)),
        };
        let start_ns = field(lcg, 1 << 40);
        let end_ns = field(lcg, start_ns);
        let trace_first = field(lcg, 50);
        let maybe = |lcg: &mut spi_testutil::Lcg, around: u64| {
            let value = field(lcg, around);
            lcg.chance(2, 3).then_some(value)
        };
        if !lcg.chance(1, 5) {
            *previous = Arc::new(SpanIds {
                job: maybe(lcg, 3),
                shard: maybe(lcg, 7),
                lease: maybe(lcg, 11),
                tenant: lcg
                    .chance(1, 2)
                    .then(|| format!("t{}", lcg.below(3)).into()),
                worker: lcg
                    .chance(1, 2)
                    .then(|| format!("w{}", lcg.below(3)).into()),
            });
        }
        StoredSpan {
            id,
            parent,
            phase: PhaseId::ALL[lcg.below(8) as usize],
            start_ns,
            end_ns,
            child_ns: field(lcg, end_ns.wrapping_sub(start_ns)),
            trace_first,
            trace_last: field(lcg, trace_first),
            ids: Arc::clone(previous),
        }
    }

    /// Differential test of the packed rings against the ring they replaced:
    /// per worker a `VecDeque<Span>` that pushes at the back and pops the
    /// front once full. Two workers publish interleaved batches of 1..=64
    /// arbitrary spans, so each ring's seqs have gaps; after every publish,
    /// `read_since` at every cursor, `spans()` and `dropped()` must agree
    /// with the model. Capacities run from 1 to 300, most not aligned with
    /// a chunk.
    #[test]
    fn packed_span_rings_match_the_deque_model() {
        let mut lcg = spi_testutil::Lcg::new(18);
        for capacity in [1usize, 2, 3, 7, 64, 65, 130, 251, 300] {
            let recorder = recorder(capacity);
            let sinks = [recorder.sink("a"), recorder.sink("b")];
            let mut models: [VecDeque<Span>; 2] = Default::default();
            let mut model_dropped = 0u64;
            let mut next_seq = 0u64;
            let mut context = Arc::new(SpanIds::default());
            while next_seq < 2 * capacity as u64 + 150 {
                let worker = lcg.below(2) as usize;
                let mut batch: Vec<StoredSpan> = (0..lcg.range(1, 64))
                    .map(|_| arbitrary_span(&mut lcg, &mut context))
                    .collect();
                for stored in &batch {
                    let model = &mut models[worker];
                    if model.len() == capacity {
                        model.pop_front();
                        model_dropped += 1;
                    }
                    model.push_back(stored.to_span(next_seq));
                    next_seq += 1;
                }
                let shared = sinks[worker].shared.as_ref().unwrap();
                shared.ring.publish(&recorder, &mut batch);

                let mut all: Vec<Span> = models.iter().flatten().cloned().collect();
                all.sort_by_key(|span| span.seq);
                assert_eq!(recorder.spans(), all, "capacity {capacity}");
                assert_eq!(recorder.dropped(), model_dropped);
                assert_eq!(recorder.next_seq(), next_seq);
                for cursor in (all[0].seq.saturating_sub(1)..=next_seq + 1).chain([0, u64::MAX]) {
                    let read = recorder.read_since(cursor);
                    let held = all.iter().filter(|span| span.seq >= cursor);
                    assert!(
                        read.spans.iter().eq(held),
                        "capacity {capacity}, cursor {cursor}"
                    );
                    assert_eq!(read.dropped, model_dropped);
                }
            }
            assert!(model_dropped > 0, "capacity {capacity} overflowed");
        }
    }
}
