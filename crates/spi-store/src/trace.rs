//! Bounded capture and offline replay of scheduler decisions.
//!
//! Every decision the scheduling layer makes — WFQ enqueue/dequeue with its
//! virtual-time tag, lease grant/renew/expiry, hedge issue/win, cache hit,
//! WAL compaction — is recorded as a [`TraceEvent`] in a fixed-capacity ring
//! ([`TraceCapture`]). The ring is cheap enough to leave on in production:
//! recording packs the event into 5–6.5 bytes (see the crate's `packed`
//! module) under the registry lock the decision already holds, and a full
//! ring drops the *oldest* events (counting them) instead of blocking the
//! scheduler.
//!
//! Readers follow the ring by cursor ([`TraceCapture::read_since`]): a read
//! consumes nothing, so any number of them can each keep their own place.
//! Read events are plain data with a stable JSON form, so a trace can cross
//! the wire (`{"op":"trace"}` in `spi-explored`), land in a file, and be
//! replayed offline by [`TraceReplay`] — a checker that re-derives what
//! *must* have been true of any correct run:
//!
//! * **WFQ proportional share** — over every maximal window in which a set
//!   of tenants stays continuously backlogged, their normalized service
//!   (virtual-time quanta, `SCALE / weight` per dispatch at the weight the
//!   scheduler actually charged) may differ only by a small constant slack.
//!   Linear starvation — a whale draining while a backlogged minnow waits —
//!   grows the gap without bound and trips the check.
//! * **Exactly-once lease accounting** — lease ids are granted once, only
//!   live leases renew or commit, every shard commits at most once, and a
//!   commit retires every outstanding lease on its shard (hedge losers
//!   included), so no retired lease can act again.
//!
//! The checker demands a *complete* trace (contiguous sequence numbers from
//! zero): fairness over a window you only half-saw is not assertable. The
//! capture reports how many events it dropped, so a caller knows when to
//! raise `--trace-capacity` instead of trusting a truncated replay.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spi_model::json::{FromJson, JsonError, JsonResult, JsonValue, ToJson};

use crate::packed::{Codec, PackedRing, Reader, Writer};
use crate::sched::SCALE;

/// Default ring capacity: a few thousand shards' worth of decisions.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Pairwise normalized-service slack allowed by the fairness check, in
/// virtual-time units. Two quanta cover the window-boundary offsets of the
/// two tenants being compared, one covers a finish tag derived under an old
/// weight that a mid-backlog resubmission rewrote, and one is headroom for
/// the discretization of window edges. Starvation is linear in the backlog,
/// so any systematic unfairness still overruns this constant immediately.
pub const FAIRNESS_SLACK: u64 = 4 * SCALE;

/// One scheduler decision, as recorded at the point the decision was made.
///
/// Fields are raw ids (`u64` job ids, lease ids) rather than the registry's
/// typed ids: the trace layer lives below the registry and must stay
/// replayable by tools that know nothing about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A `(job, shard)` entry joined `tenant`'s WFQ queue at `weight`.
    WfqEnqueue {
        /// Tenant whose queue received the entry.
        tenant: String,
        /// Weight in force at enqueue time.
        weight: u32,
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
    },
    /// The WFQ policy dispatched an entry (the registry may still skip it as
    /// stale — a dispatch is a virtual-time advance either way).
    WfqDequeue {
        /// Tenant charged for the dispatch.
        tenant: String,
        /// Weight the finish tag advanced by (`SCALE / weight`).
        weight: u32,
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
        /// Virtual time of the dispatch.
        vtime: u64,
    },
    /// A lease was granted on a shard.
    LeaseGrant {
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
        /// Raw lease id (unique per grant).
        lease: u64,
        /// Worker identity the lease went to.
        worker: String,
        /// True when this is a speculative duplicate lease (a hedge).
        hedged: bool,
    },
    /// A lease's deadline was pushed out by a progress report.
    LeaseRenew {
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
        /// Raw lease id.
        lease: u64,
    },
    /// A lease hit its deadline and was revoked; staged work discarded.
    LeaseExpire {
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
        /// Raw lease id.
        lease: u64,
    },
    /// A lease was abandoned (cancel, shutdown drain); staged work discarded.
    LeaseAbandon {
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
        /// Raw lease id.
        lease: u64,
    },
    /// A hedged (duplicate) lease committed first and won its shard.
    HedgeWin {
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
        /// The winning (hedged) lease id.
        lease: u64,
    },
    /// A shard committed exactly once on a still-valid lease.
    ShardCommit {
        /// Raw job id.
        job: u64,
        /// Shard index within the job.
        shard: usize,
        /// The committing lease id.
        lease: u64,
        /// Variants evaluated by the committed shard.
        evaluated: u64,
    },
    /// A submission was answered from the content-addressed result cache.
    CacheHit {
        /// Raw job id of the newborn (already-completed) job.
        job: u64,
    },
    /// A cache insert evicted `evicted` least-recently-used results.
    CacheEvict {
        /// Number of entries evicted by one insert.
        evicted: u64,
    },
    /// The WAL compacted to a snapshot.
    WalCompact {
        /// Log size in bytes *before* the compaction.
        log_bytes: u64,
    },
}

impl TraceEvent {
    /// The stable `kind` string used in the JSON form.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::WfqEnqueue { .. } => "wfq_enqueue",
            TraceEvent::WfqDequeue { .. } => "wfq_dequeue",
            TraceEvent::LeaseGrant { .. } => "lease_grant",
            TraceEvent::LeaseRenew { .. } => "lease_renew",
            TraceEvent::LeaseExpire { .. } => "lease_expire",
            TraceEvent::LeaseAbandon { .. } => "lease_abandon",
            TraceEvent::HedgeWin { .. } => "hedge_win",
            TraceEvent::ShardCommit { .. } => "shard_commit",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::WalCompact { .. } => "wal_compact",
        }
    }
}

/// A captured event with its position in the capture sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedEvent {
    /// Monotone sequence number assigned at record time (gap-free unless the
    /// ring dropped events).
    pub seq: u64,
    /// The decision itself.
    pub event: TraceEvent,
}

fn num(value: u64) -> JsonValue {
    JsonValue::Int(i128::from(value))
}

impl ToJson for TracedEvent {
    fn to_json(&self) -> JsonValue {
        let mut members: Vec<(String, JsonValue)> = vec![
            ("seq".to_string(), num(self.seq)),
            ("kind".to_string(), JsonValue::string(self.event.kind())),
        ];
        match &self.event {
            TraceEvent::WfqEnqueue {
                tenant,
                weight,
                job,
                shard,
            } => {
                members.push(("tenant".to_string(), JsonValue::string(tenant.clone())));
                members.push(("weight".to_string(), num(u64::from(*weight))));
                members.push(("job".to_string(), num(*job)));
                members.push(("shard".to_string(), num(*shard as u64)));
            }
            TraceEvent::WfqDequeue {
                tenant,
                weight,
                job,
                shard,
                vtime,
            } => {
                members.push(("tenant".to_string(), JsonValue::string(tenant.clone())));
                members.push(("weight".to_string(), num(u64::from(*weight))));
                members.push(("job".to_string(), num(*job)));
                members.push(("shard".to_string(), num(*shard as u64)));
                members.push(("vtime".to_string(), num(*vtime)));
            }
            TraceEvent::LeaseGrant {
                job,
                shard,
                lease,
                worker,
                hedged,
            } => {
                members.push(("job".to_string(), num(*job)));
                members.push(("shard".to_string(), num(*shard as u64)));
                members.push(("lease".to_string(), num(*lease)));
                members.push(("worker".to_string(), JsonValue::string(worker.clone())));
                members.push(("hedged".to_string(), JsonValue::Bool(*hedged)));
            }
            TraceEvent::LeaseRenew { job, shard, lease }
            | TraceEvent::LeaseExpire { job, shard, lease }
            | TraceEvent::LeaseAbandon { job, shard, lease }
            | TraceEvent::HedgeWin { job, shard, lease } => {
                members.push(("job".to_string(), num(*job)));
                members.push(("shard".to_string(), num(*shard as u64)));
                members.push(("lease".to_string(), num(*lease)));
            }
            TraceEvent::ShardCommit {
                job,
                shard,
                lease,
                evaluated,
            } => {
                members.push(("job".to_string(), num(*job)));
                members.push(("shard".to_string(), num(*shard as u64)));
                members.push(("lease".to_string(), num(*lease)));
                members.push(("evaluated".to_string(), num(*evaluated)));
            }
            TraceEvent::CacheHit { job } => {
                members.push(("job".to_string(), num(*job)));
            }
            TraceEvent::CacheEvict { evicted } => {
                members.push(("evicted".to_string(), num(*evicted)));
            }
            TraceEvent::WalCompact { log_bytes } => {
                members.push(("log_bytes".to_string(), num(*log_bytes)));
            }
        }
        JsonValue::Object(members)
    }
}

impl FromJson for TracedEvent {
    fn from_json(value: &JsonValue) -> JsonResult<TracedEvent> {
        let field_u64 = |key: &str| -> JsonResult<u64> {
            value
                .require(key)?
                .as_u64()
                .ok_or_else(|| JsonError::new(format!("`{key}` must be a u64")))
        };
        let field_usize = |key: &str| -> JsonResult<usize> {
            value
                .require(key)?
                .as_usize()
                .ok_or_else(|| JsonError::new(format!("`{key}` must be a usize")))
        };
        let field_str = |key: &str| -> JsonResult<String> {
            Ok(value
                .require(key)?
                .as_str()
                .ok_or_else(|| JsonError::new(format!("`{key}` must be a string")))?
                .to_string())
        };
        let field_weight = |key: &str| -> JsonResult<u32> {
            u32::try_from(field_u64(key)?)
                .map_err(|_| JsonError::new(format!("`{key}` out of range for a weight")))
        };
        let seq = field_u64("seq")?;
        let kind = field_str("kind")?;
        let event = match kind.as_str() {
            "wfq_enqueue" => TraceEvent::WfqEnqueue {
                tenant: field_str("tenant")?,
                weight: field_weight("weight")?,
                job: field_u64("job")?,
                shard: field_usize("shard")?,
            },
            "wfq_dequeue" => TraceEvent::WfqDequeue {
                tenant: field_str("tenant")?,
                weight: field_weight("weight")?,
                job: field_u64("job")?,
                shard: field_usize("shard")?,
                vtime: field_u64("vtime")?,
            },
            "lease_grant" => TraceEvent::LeaseGrant {
                job: field_u64("job")?,
                shard: field_usize("shard")?,
                lease: field_u64("lease")?,
                worker: field_str("worker")?,
                hedged: value
                    .require("hedged")?
                    .as_bool()
                    .ok_or_else(|| JsonError::new("`hedged` must be a bool"))?,
            },
            "lease_renew" => TraceEvent::LeaseRenew {
                job: field_u64("job")?,
                shard: field_usize("shard")?,
                lease: field_u64("lease")?,
            },
            "lease_expire" => TraceEvent::LeaseExpire {
                job: field_u64("job")?,
                shard: field_usize("shard")?,
                lease: field_u64("lease")?,
            },
            "lease_abandon" => TraceEvent::LeaseAbandon {
                job: field_u64("job")?,
                shard: field_usize("shard")?,
                lease: field_u64("lease")?,
            },
            "hedge_win" => TraceEvent::HedgeWin {
                job: field_u64("job")?,
                shard: field_usize("shard")?,
                lease: field_u64("lease")?,
            },
            "shard_commit" => TraceEvent::ShardCommit {
                job: field_u64("job")?,
                shard: field_usize("shard")?,
                lease: field_u64("lease")?,
                evaluated: field_u64("evaluated")?,
            },
            "cache_hit" => TraceEvent::CacheHit {
                job: field_u64("job")?,
            },
            "cache_evict" => TraceEvent::CacheEvict {
                evicted: field_u64("evicted")?,
            },
            "wal_compact" => TraceEvent::WalCompact {
                log_bytes: field_u64("log_bytes")?,
            },
            other => return Err(JsonError::new(format!("unknown trace kind `{other}`"))),
        };
        Ok(TracedEvent { seq, event })
    }
}

/// What one [`TraceCapture::read_since`] read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDrain {
    /// The events at or past the cursor, oldest first.
    pub events: Vec<TracedEvent>,
    /// Events at or past the cursor that the ring overwrote before the read.
    /// A nonzero count means the window is *not* replay-complete.
    pub dropped: u64,
    /// The sequence number the next recorded event will get, read together
    /// with `events`: the cursor that resumes right after this read.
    pub next: u64,
}

/// Packs a decision against the previous one in its chunk: one kind byte
/// with `hedged` folded in, job, lease and vtime as signed deltas from the
/// last ones written, tenant and worker as indices into the chunk's name
/// table, and every other field as it is. Kind codes follow the declaration
/// order of [`TraceEvent`]. A capture's sequence numbers are gap-free, so
/// an event stores none.
#[derive(Debug, Default)]
struct EventCodec {
    job: u64,
    lease: u64,
    vtime: u64,
}

impl EventCodec {
    fn lease(&mut self, out: &mut Writer<'_, Box<str>>, job: u64, shard: usize, lease: u64) {
        out.delta(&mut self.job, job);
        out.varint(shard as u64);
        out.delta(&mut self.lease, lease);
    }
}

fn name(out: &mut Writer<'_, Box<str>>, name: &str) {
    out.shared(|held| **held == *name, || name.into());
}

impl Codec for EventCodec {
    type Record = TraceEvent;
    type Shared = Box<str>;
    // The kind byte and five varints.
    const MAX_RECORD_BYTES: usize = 1 + 5 * 10;

    fn encode(&mut self, gap: u64, event: &TraceEvent, out: &mut Writer<'_, Box<str>>) {
        debug_assert_eq!(gap, 0, "a capture numbers its events without gaps");
        match event {
            TraceEvent::WfqEnqueue {
                tenant,
                weight,
                job,
                shard,
            } => {
                out.byte(0);
                name(out, tenant);
                out.varint(u64::from(*weight));
                out.delta(&mut self.job, *job);
                out.varint(*shard as u64);
            }
            TraceEvent::WfqDequeue {
                tenant,
                weight,
                job,
                shard,
                vtime,
            } => {
                out.byte(1 << 1);
                name(out, tenant);
                out.varint(u64::from(*weight));
                out.delta(&mut self.job, *job);
                out.varint(*shard as u64);
                out.delta(&mut self.vtime, *vtime);
            }
            TraceEvent::LeaseGrant {
                job,
                shard,
                lease,
                worker,
                hedged,
            } => {
                out.byte(2 << 1 | u8::from(*hedged));
                self.lease(out, *job, *shard, *lease);
                name(out, worker);
            }
            TraceEvent::LeaseRenew { job, shard, lease } => {
                out.byte(3 << 1);
                self.lease(out, *job, *shard, *lease);
            }
            TraceEvent::LeaseExpire { job, shard, lease } => {
                out.byte(4 << 1);
                self.lease(out, *job, *shard, *lease);
            }
            TraceEvent::LeaseAbandon { job, shard, lease } => {
                out.byte(5 << 1);
                self.lease(out, *job, *shard, *lease);
            }
            TraceEvent::HedgeWin { job, shard, lease } => {
                out.byte(6 << 1);
                self.lease(out, *job, *shard, *lease);
            }
            TraceEvent::ShardCommit {
                job,
                shard,
                lease,
                evaluated,
            } => {
                out.byte(7 << 1);
                self.lease(out, *job, *shard, *lease);
                out.varint(*evaluated);
            }
            TraceEvent::CacheHit { job } => {
                out.byte(8 << 1);
                out.delta(&mut self.job, *job);
            }
            TraceEvent::CacheEvict { evicted } => {
                out.byte(9 << 1);
                out.varint(*evicted);
            }
            TraceEvent::WalCompact { log_bytes } => {
                out.byte(10 << 1);
                out.varint(*log_bytes);
            }
        }
    }

    fn decode(&mut self, input: &mut Reader<'_, Box<str>>) -> (u64, TraceEvent) {
        let kind = input.byte();
        // Struct fields are evaluated in the order written, which is the
        // order `encode` wrote them.
        let event = match kind >> 1 {
            0 => TraceEvent::WfqEnqueue {
                tenant: input.shared().to_string(),
                weight: input.varint() as u32,
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
            },
            1 => TraceEvent::WfqDequeue {
                tenant: input.shared().to_string(),
                weight: input.varint() as u32,
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
                vtime: input.delta(&mut self.vtime),
            },
            2 => TraceEvent::LeaseGrant {
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
                lease: input.delta(&mut self.lease),
                worker: input.shared().to_string(),
                hedged: kind & 1 == 1,
            },
            3 => TraceEvent::LeaseRenew {
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
                lease: input.delta(&mut self.lease),
            },
            4 => TraceEvent::LeaseExpire {
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
                lease: input.delta(&mut self.lease),
            },
            5 => TraceEvent::LeaseAbandon {
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
                lease: input.delta(&mut self.lease),
            },
            6 => TraceEvent::HedgeWin {
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
                lease: input.delta(&mut self.lease),
            },
            7 => TraceEvent::ShardCommit {
                job: input.delta(&mut self.job),
                shard: input.varint() as usize,
                lease: input.delta(&mut self.lease),
                evaluated: input.varint(),
            },
            8 => TraceEvent::CacheHit {
                job: input.delta(&mut self.job),
            },
            9 => TraceEvent::CacheEvict {
                evicted: input.varint(),
            },
            10 => TraceEvent::WalCompact {
                log_bytes: input.varint(),
            },
            other => unreachable!("trace kind code {other} was never written"),
        };
        (0, event)
    }
}

/// Fixed-capacity ring of scheduler decisions.
///
/// Capacity `0` disables capture entirely (recording becomes a no-op); any
/// other capacity keeps the newest events, and what it had to drop is
/// `next_seq − len`.
#[derive(Debug, Default)]
pub struct TraceCapture {
    ring: PackedRing<EventCodec>,
    next_seq: u64,
    /// Live mirror of `next_seq`, shared lock-free with readers that must
    /// not take the capture's lock (span recording on worker hot paths).
    seq_mirror: Arc<AtomicU64>,
}

impl TraceCapture {
    /// A capture ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceCapture {
            ring: PackedRing::new(capacity),
            next_seq: 0,
            seq_mirror: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A capture ring at [`DEFAULT_TRACE_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        TraceCapture::new(DEFAULT_TRACE_CAPACITY)
    }

    /// True when recording is enabled (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Events the ring has dropped (overwritten) since it was created.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.ring.len() as u64
    }

    /// Records one decision, assigning it the next sequence number; a full
    /// ring drops its oldest event.
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        self.ring.push(self.next_seq, &event);
        self.next_seq += 1;
        self.seq_mirror.store(self.next_seq, Ordering::Relaxed);
    }

    /// The bytes the ring has allocated: chunk buffers, chunk tables and the
    /// chunk list. 0 while it holds nothing.
    pub fn ring_bytes(&self) -> usize {
        self.ring.allocated_bytes()
    }

    /// The sequence number the *next* recorded event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A lock-free live mirror of [`next_seq`](Self::next_seq), updated on
    /// every record. The span recorder reads it at span enter/exit to
    /// bracket each span with the scheduler decisions it overlapped, without
    /// touching whatever lock guards the capture itself.
    pub fn seq_mirror(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.seq_mirror)
    }

    /// Every buffered event with `seq >= since`, oldest first, plus the
    /// `next` cursor read with them. The read consumes nothing, so any
    /// number of readers can each keep their own cursor. `dropped` counts
    /// the events **this cursor** can no longer see — those with sequence
    /// numbers at or past `since` that the ring has already overwritten.
    pub fn read_since(&self, since: u64) -> TraceDrain {
        // Sequence numbers are gap-free, so the oldest held one is the
        // count of events dropped before it.
        let front_seq = self.dropped();
        let mut events =
            Vec::with_capacity(self.next_seq.saturating_sub(since.max(front_seq)) as usize);
        self.ring.read(since..self.next_seq, |seq, event| {
            events.push(TracedEvent { seq, event });
        });
        TraceDrain {
            events,
            dropped: front_seq.saturating_sub(since),
            next: self.next_seq,
        }
    }
}

/// Outcome of replaying a captured trace through the correctness checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events replayed.
    pub events: usize,
    /// WFQ dispatches seen (including ones the registry skipped as stale).
    pub dispatches: u64,
    /// Leases granted.
    pub grants: u64,
    /// Of those, speculative (hedged) grants.
    pub hedged_grants: u64,
    /// Shards won by a hedged lease.
    pub hedge_wins: u64,
    /// Shard commits seen.
    pub commits: u64,
    /// Distinct `(job, shard)` pairs that committed.
    pub committed_shards: usize,
    /// Valid lease renewals seen.
    pub renews: u64,
    /// Valid lease expiries seen.
    pub expiries: u64,
    /// Valid lease abandons seen.
    pub abandons: u64,
    /// Live leases retired as a side effect of another lease committing
    /// their shard (hedge losers). Commits retire these silently — no
    /// expire/abandon event — so conservation laws over grants need this
    /// derived count: grants = commits + expiries + abandons +
    /// retired_by_commit + still-live.
    pub retired_by_commit: u64,
    /// Leases still live when the trace window closed.
    pub live_leases: u64,
    /// Total variants evaluated across every shard commit.
    pub evaluated: u64,
    /// Every invariant violation found, in trace order. Empty ⇔ the run was
    /// provably fair and exactly-once over the captured window.
    pub violations: Vec<String>,
}

impl ReplayReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseState {
    Live,
    Retired,
}

struct LeaseRecord {
    job: u64,
    shard: usize,
    state: LeaseState,
}

/// Offline checker for captured traces: WFQ proportional share and
/// exactly-once lease accounting (see the [module docs](self) for the exact
/// properties).
#[derive(Default)]
pub struct TraceReplay {
    report: ReplayReport,
    // Fairness state.
    last_vtime: u64,
    backlog: BTreeMap<String, u64>,
    members: BTreeSet<String>,
    service: BTreeMap<String, u64>,
    // Lease census state.
    leases: HashMap<u64, LeaseRecord>,
    committed: HashSet<(u64, usize)>,
}

impl TraceReplay {
    /// Replays `events` (as read: oldest first) and reports every
    /// violation of the scheduler's contracts. The trace must be complete —
    /// sequence numbers contiguous from 0 — or the incompleteness itself is
    /// reported as a violation, because neither fairness nor a lease census
    /// is assertable over a window with holes.
    pub fn check(events: &[TracedEvent]) -> ReplayReport {
        let mut replay = TraceReplay::default();
        replay.report.events = events.len();
        for (index, traced) in events.iter().enumerate() {
            if traced.seq != index as u64 {
                replay.report.violations.push(format!(
                    "trace incomplete: expected seq {index}, found {} (events were dropped \
                     or reordered; raise --trace-capacity)",
                    traced.seq
                ));
                return replay.report;
            }
            replay.step(traced);
        }
        replay.close_window();
        replay.report.live_leases = replay
            .leases
            .values()
            .filter(|record| record.state == LeaseState::Live)
            .count() as u64;
        replay.report
    }

    fn step(&mut self, traced: &TracedEvent) {
        let seq = traced.seq;
        match &traced.event {
            TraceEvent::WfqEnqueue { tenant, .. } => {
                let backlog = self.backlog.entry(tenant.clone()).or_insert(0);
                let was_idle = *backlog == 0;
                *backlog += 1;
                if was_idle {
                    // The busy set changed: fairness windows are defined by
                    // "continuously backlogged", so close the current one.
                    self.close_window();
                }
            }
            TraceEvent::WfqDequeue {
                tenant,
                weight,
                vtime,
                ..
            } => {
                self.report.dispatches += 1;
                if *vtime < self.last_vtime {
                    self.report.violations.push(format!(
                        "seq {seq}: WFQ virtual time went backwards ({} -> {vtime})",
                        self.last_vtime
                    ));
                }
                self.last_vtime = (*vtime).max(self.last_vtime);
                let backlog = self.backlog.entry(tenant.clone()).or_insert(0);
                if *backlog == 0 {
                    self.report.violations.push(format!(
                        "seq {seq}: dequeue for tenant `{tenant}` with no traced backlog"
                    ));
                    return;
                }
                *backlog -= 1;
                let emptied = *backlog == 0;
                if self.members.contains(tenant) {
                    *self.service.entry(tenant.clone()).or_insert(0) +=
                        SCALE / u64::from((*weight).max(1));
                }
                if emptied {
                    self.close_window();
                }
            }
            TraceEvent::LeaseGrant {
                job,
                shard,
                lease,
                hedged,
                ..
            } => {
                self.report.grants += 1;
                if *hedged {
                    self.report.hedged_grants += 1;
                }
                if self.leases.contains_key(lease) {
                    self.report
                        .violations
                        .push(format!("seq {seq}: lease id {lease} granted twice"));
                    return;
                }
                if self.committed.contains(&(*job, *shard)) {
                    self.report.violations.push(format!(
                        "seq {seq}: lease {lease} granted on already-committed shard \
                         (job {job}, shard {shard})"
                    ));
                    return;
                }
                self.leases.insert(
                    *lease,
                    LeaseRecord {
                        job: *job,
                        shard: *shard,
                        state: LeaseState::Live,
                    },
                );
            }
            TraceEvent::LeaseRenew { job, shard, lease } => {
                if self.require_live("renewed", seq, *job, *shard, *lease) {
                    self.report.renews += 1;
                }
            }
            TraceEvent::LeaseExpire { job, shard, lease } => {
                if self.require_live("expired", seq, *job, *shard, *lease) {
                    self.report.expiries += 1;
                    self.leases
                        .get_mut(lease)
                        .expect("lease was just checked live")
                        .state = LeaseState::Retired;
                }
            }
            TraceEvent::LeaseAbandon { job, shard, lease } => {
                if self.require_live("abandoned", seq, *job, *shard, *lease) {
                    self.report.abandons += 1;
                    self.leases
                        .get_mut(lease)
                        .expect("lease was just checked live")
                        .state = LeaseState::Retired;
                }
            }
            TraceEvent::HedgeWin { job, shard, lease } => {
                self.report.hedge_wins += 1;
                // The winner was just retired by its own commit, so only the
                // identity is checked, not liveness.
                match self.leases.get(lease) {
                    None => self
                        .report
                        .violations
                        .push(format!("seq {seq}: hedge win cites unknown lease {lease}")),
                    Some(record) if (record.job, record.shard) != (*job, *shard) => {
                        self.report.violations.push(format!(
                            "seq {seq}: hedge win cites lease {lease} of another shard"
                        ));
                    }
                    Some(_) => {}
                }
            }
            TraceEvent::ShardCommit {
                job,
                shard,
                lease,
                evaluated,
            } => {
                self.report.commits += 1;
                self.report.evaluated += *evaluated;
                if !self.require_live("committed", seq, *job, *shard, *lease) {
                    return;
                }
                if !self.committed.insert((*job, *shard)) {
                    self.report.violations.push(format!(
                        "seq {seq}: shard committed twice (job {job}, shard {shard})"
                    ));
                    return;
                }
                self.report.committed_shards = self.committed.len();
                // Exactly-once: a commit retires every lease on the shard —
                // the winner and any hedge losers alike. Losers retire with
                // no event of their own; the derived count keeps the
                // grant-side conservation law closable.
                for (id, record) in self.leases.iter_mut() {
                    if (record.job, record.shard) == (*job, *shard) {
                        if record.state == LeaseState::Live && id != lease {
                            self.report.retired_by_commit += 1;
                        }
                        record.state = LeaseState::Retired;
                    }
                }
            }
            TraceEvent::CacheHit { .. }
            | TraceEvent::CacheEvict { .. }
            | TraceEvent::WalCompact { .. } => {}
        }
    }

    /// Checks that `lease` exists, is live, and belongs to `(job, shard)`;
    /// records a violation and returns false otherwise.
    fn require_live(&mut self, verb: &str, seq: u64, job: u64, shard: usize, lease: u64) -> bool {
        match self.leases.get(&lease) {
            None => {
                self.report
                    .violations
                    .push(format!("seq {seq}: {verb} unknown lease {lease}"));
                false
            }
            Some(record) if (record.job, record.shard) != (job, shard) => {
                self.report.violations.push(format!(
                    "seq {seq}: lease {lease} {verb} against the wrong shard \
                     (granted for job {}, shard {}; cited job {job}, shard {shard})",
                    record.job, record.shard
                ));
                false
            }
            Some(record) if record.state == LeaseState::Retired => {
                self.report.violations.push(format!(
                    "seq {seq}: retired lease {lease} {verb} (job {job}, shard {shard}) — \
                     exactly-once accounting violated"
                ));
                false
            }
            Some(_) => true,
        }
    }

    /// Closes the current fairness window: tenants that stayed backlogged
    /// through the whole window must have received proportional service, and
    /// a new window opens over the currently-backlogged set.
    fn close_window(&mut self) {
        if self.members.len() >= 2 {
            let services: Vec<(&str, u64)> = self
                .members
                .iter()
                .map(|tenant| {
                    (
                        tenant.as_str(),
                        self.service.get(tenant).copied().unwrap_or(0),
                    )
                })
                .collect();
            let (min_tenant, min) = services
                .iter()
                .min_by_key(|(_, service)| *service)
                .copied()
                .expect("members is non-empty");
            let (max_tenant, max) = services
                .iter()
                .max_by_key(|(_, service)| *service)
                .copied()
                .expect("members is non-empty");
            if max - min > FAIRNESS_SLACK {
                self.report.violations.push(format!(
                    "WFQ proportional-share bound violated: over a joint-backlog window \
                     `{max_tenant}` received {max} normalized virtual-time units while \
                     `{min_tenant}` received {min} (slack {FAIRNESS_SLACK})"
                ));
            }
        }
        self.service.clear();
        self.members = self
            .backlog
            .iter()
            .filter(|(_, backlog)| **backlog > 0)
            .map(|(tenant, _)| tenant.clone())
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::sched::FairScheduler;

    fn enqueue(tenant: &str, weight: u32, job: u64, shard: usize) -> TraceEvent {
        TraceEvent::WfqEnqueue {
            tenant: tenant.to_string(),
            weight,
            job,
            shard,
        }
    }

    fn grant(job: u64, shard: usize, lease: u64) -> TraceEvent {
        TraceEvent::LeaseGrant {
            job,
            shard,
            lease,
            worker: "w0".to_string(),
            hedged: false,
        }
    }

    fn commit(job: u64, shard: usize, lease: u64) -> TraceEvent {
        TraceEvent::ShardCommit {
            job,
            shard,
            lease,
            evaluated: 1,
        }
    }

    fn sequenced(events: Vec<TraceEvent>) -> Vec<TracedEvent> {
        events
            .into_iter()
            .enumerate()
            .map(|(seq, event)| TracedEvent {
                seq: seq as u64,
                event,
            })
            .collect()
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut capture = TraceCapture::new(2);
        for job in 0..5 {
            capture.record(TraceEvent::CacheHit { job });
        }
        assert_eq!(capture.len(), 2);
        assert_eq!(capture.dropped(), 3);
        let read = capture.read_since(0);
        assert_eq!(read.dropped, 3);
        assert_eq!(read.events[0].seq, 3);
        assert_eq!(read.events[1].seq, 4);
        assert_eq!(read.next, 5);
    }

    #[test]
    fn zero_capacity_disables_capture() {
        let mut capture = TraceCapture::new(0);
        assert!(!capture.enabled());
        capture.record(TraceEvent::CacheHit { job: 0 });
        assert!(capture.is_empty());
        assert_eq!(capture.read_since(0).next, 0);
        assert_eq!(capture.dropped(), 0);
    }

    #[test]
    fn read_since_is_non_destructive_and_cursor_aware() {
        let mut capture = TraceCapture::new(8);
        for job in 0..5 {
            capture.record(TraceEvent::CacheHit { job });
        }
        let tail = capture.read_since(3);
        assert_eq!(tail.dropped, 0);
        assert_eq!(
            tail.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [3, 4]
        );
        // Nothing was consumed: a second cursor still sees everything.
        let all = capture.read_since(0);
        assert_eq!(all.events.len(), 5);
        assert_eq!(all.dropped, 0);
        // A cursor past the end sees nothing and missed nothing.
        let future = capture.read_since(99);
        assert!(future.events.is_empty());
        assert_eq!(future.dropped, 0);
        assert_eq!(future.next, 5);
    }

    #[test]
    fn read_since_counts_what_the_ring_overwrote() {
        let mut capture = TraceCapture::new(2);
        for job in 0..5 {
            capture.record(TraceEvent::CacheHit { job });
        }
        // Ring holds seqs 3..=4; a cursor at 1 lost seqs 1 and 2.
        let read = capture.read_since(1);
        assert_eq!(read.dropped, 2);
        assert_eq!(
            read.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [3, 4]
        );
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        let events = vec![
            enqueue("a", 2, 0, 1),
            TraceEvent::WfqDequeue {
                tenant: "a".to_string(),
                weight: 2,
                job: 0,
                shard: 1,
                vtime: 524_288,
            },
            TraceEvent::LeaseGrant {
                job: 0,
                shard: 1,
                lease: 7,
                worker: "spi-explore-worker-3".to_string(),
                hedged: true,
            },
            TraceEvent::LeaseRenew {
                job: 0,
                shard: 1,
                lease: 7,
            },
            TraceEvent::LeaseExpire {
                job: 0,
                shard: 1,
                lease: 7,
            },
            TraceEvent::LeaseAbandon {
                job: 0,
                shard: 1,
                lease: 7,
            },
            TraceEvent::HedgeWin {
                job: 0,
                shard: 1,
                lease: 7,
            },
            TraceEvent::ShardCommit {
                job: 0,
                shard: 1,
                lease: 7,
                evaluated: 64,
            },
            TraceEvent::CacheHit { job: 9 },
            TraceEvent::CacheEvict { evicted: 2 },
            TraceEvent::WalCompact { log_bytes: 4096 },
        ];
        for traced in sequenced(events) {
            let line = traced.to_json().to_line();
            let parsed = TracedEvent::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, traced, "round trip of {line}");
        }
    }

    /// Drives a real scheduler and checks the captured trace replays clean.
    #[test]
    fn replay_accepts_a_real_wfq_run() {
        let mut scheduler = FairScheduler::new();
        let mut capture = TraceCapture::with_default_capacity();
        for shard in 0..60 {
            scheduler.enqueue("heavy", 3, (0, shard));
            capture.record(enqueue("heavy", 3, 0, shard));
            scheduler.enqueue("light", 1, (1, shard));
            capture.record(enqueue("light", 1, 1, shard));
        }
        let mut lease = 0u64;
        while let Some(dispatch) = scheduler.dequeue_dispatch() {
            capture.record(TraceEvent::WfqDequeue {
                tenant: dispatch.tenant.clone(),
                weight: dispatch.weight,
                job: dispatch.entry.0,
                shard: dispatch.entry.1,
                vtime: dispatch.vtime,
            });
            capture.record(grant(dispatch.entry.0, dispatch.entry.1, lease));
            capture.record(commit(dispatch.entry.0, dispatch.entry.1, lease));
            lease += 1;
        }
        let read = capture.read_since(0);
        assert_eq!(read.dropped, 0);
        let report = TraceReplay::check(&read.events);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.dispatches, 120);
        assert_eq!(report.commits, 120);
        assert_eq!(report.committed_shards, 120);
    }

    /// A FIFO over the same backlog starves the second tenant; the
    /// proportional-share check must notice.
    #[test]
    fn replay_rejects_fifo_starvation() {
        let mut events = Vec::new();
        for shard in 0..40 {
            events.push(enqueue("whale", 1, 0, shard));
            events.push(enqueue("minnow", 1, 1, shard));
        }
        // The whale drains completely first — what the pre-WFQ FIFO did.
        for (job, tenant) in [(0u64, "whale"), (1u64, "minnow")] {
            for shard in 0..40 {
                events.push(TraceEvent::WfqDequeue {
                    tenant: tenant.to_string(),
                    weight: 1,
                    job,
                    shard,
                    vtime: 0,
                });
            }
        }
        let report = TraceReplay::check(&sequenced(events));
        assert!(
            report
                .violations
                .iter()
                .any(|violation| violation.contains("proportional-share")),
            "expected a fairness violation, got {:?}",
            report.violations
        );
    }

    #[test]
    fn replay_rejects_double_commit_and_stale_lease_action() {
        let events = sequenced(vec![
            grant(0, 0, 1),
            grant(0, 0, 2),
            commit(0, 0, 1),
            // Loser was retired by the commit: both of these must trip.
            commit(0, 0, 2),
            TraceEvent::LeaseRenew {
                job: 0,
                shard: 0,
                lease: 2,
            },
        ]);
        let report = TraceReplay::check(&events);
        assert_eq!(report.committed_shards, 1);
        assert_eq!(
            report.violations.len(),
            2,
            "violations: {:?}",
            report.violations
        );
        assert!(report.violations.iter().all(|v| v.contains("retired")));
    }

    #[test]
    fn replay_rejects_reused_lease_ids_and_gaps() {
        let report = TraceReplay::check(&sequenced(vec![grant(0, 0, 1), grant(0, 1, 1)]));
        assert!(report.violations.iter().any(|v| v.contains("twice")));

        let mut gappy = sequenced(vec![grant(0, 0, 1), commit(0, 0, 1)]);
        gappy[1].seq = 5;
        let report = TraceReplay::check(&gappy);
        assert!(report.violations.iter().any(|v| v.contains("incomplete")));
    }

    /// An event of a random kind with extreme or nearby field values and
    /// names that are long, empty or not ASCII.
    fn arbitrary_event(lcg: &mut spi_testutil::Lcg) -> TraceEvent {
        const NAMES: [&str; 5] = [
            "",
            "a",
            "équipe-ß-東京",
            "spi-explore-worker-12",
            "\u{1F980}\n\"q\"",
        ];
        let value = |lcg: &mut spi_testutil::Lcg| match lcg.below(3) {
            0 => [0, 1, u64::MAX - 1, u64::MAX][lcg.below(4) as usize],
            1 => lcg.below(1 << 40),
            _ => lcg.below(300),
        };
        let name = |lcg: &mut spi_testutil::Lcg| match lcg.below(6) {
            5 => "long-name-".repeat(1 + lcg.below(40) as usize),
            n => NAMES[n as usize].to_string(),
        };
        let (job, shard, lease) = (value(lcg), value(lcg) as usize, value(lcg));
        match lcg.below(11) {
            0 => TraceEvent::WfqEnqueue {
                tenant: name(lcg),
                weight: value(lcg) as u32,
                job,
                shard,
            },
            1 => TraceEvent::WfqDequeue {
                tenant: name(lcg),
                weight: [1, u32::MAX][lcg.below(2) as usize],
                job,
                shard,
                vtime: value(lcg),
            },
            2 => TraceEvent::LeaseGrant {
                job,
                shard,
                lease,
                worker: name(lcg),
                hedged: lcg.chance(1, 2),
            },
            3 => TraceEvent::LeaseRenew { job, shard, lease },
            4 => TraceEvent::LeaseExpire { job, shard, lease },
            5 => TraceEvent::LeaseAbandon { job, shard, lease },
            6 => TraceEvent::HedgeWin { job, shard, lease },
            7 => TraceEvent::ShardCommit {
                job,
                shard,
                lease,
                evaluated: value(lcg),
            },
            8 => TraceEvent::CacheHit { job },
            9 => TraceEvent::CacheEvict {
                evicted: value(lcg),
            },
            _ => TraceEvent::WalCompact {
                log_bytes: value(lcg),
            },
        }
    }

    /// Differential test of the packed capture against the ring it replaced:
    /// a `VecDeque<TracedEvent>` that pushes at the back and pops the front
    /// once full. After every record, `read_since` at every cursor (with its
    /// `next`), `len`, the lifetime `dropped` and `next_seq` must agree with
    /// the model; at capacity 0 nothing is recorded at all.
    #[test]
    fn packed_capture_matches_the_deque_model() {
        let mut lcg = spi_testutil::Lcg::new(18);
        for capacity in [0usize, 1, 2, 3, 50, 127, 300] {
            let mut capture = TraceCapture::new(capacity);
            let mut model: VecDeque<TracedEvent> = VecDeque::new();
            let mut next_seq = 0u64;
            for _ in 0..2 * capacity + 150 {
                let event = arbitrary_event(&mut lcg);
                capture.record(event.clone());
                if capacity > 0 {
                    if model.len() == capacity {
                        model.pop_front();
                    }
                    model.push_back(TracedEvent {
                        seq: next_seq,
                        event,
                    });
                    next_seq += 1;
                }
                assert_eq!(capture.len(), model.len(), "capacity {capacity}");
                assert_eq!(capture.is_empty(), model.is_empty());
                let front = next_seq - model.len() as u64;
                assert_eq!(capture.dropped(), front);
                assert_eq!(capture.next_seq(), next_seq);
                for cursor in (front.saturating_sub(2)..=next_seq + 1).chain([0, u64::MAX]) {
                    let read = capture.read_since(cursor);
                    let held = model.iter().filter(|traced| traced.seq >= cursor);
                    assert!(
                        read.events.iter().eq(held),
                        "capacity {capacity}, cursor {cursor}"
                    );
                    assert_eq!(read.dropped, front.saturating_sub(cursor));
                    assert_eq!(read.next, next_seq);
                }
            }
            assert_eq!(capture.ring_bytes() == 0, capacity == 0 || model.is_empty());
        }
    }
}
