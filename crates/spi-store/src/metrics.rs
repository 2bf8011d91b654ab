//! Lock-free metrics: atomic counters/gauges and log-linear bounded-error
//! histograms, organized in a [`MetricsRegistry`] with static metric ids and
//! per-tenant label handles.
//!
//! Everything on the record path is a handful of `Relaxed` atomic operations
//! — no locks, no allocation. The only lock in the module guards the
//! tenant-label table, and it is taken exactly once per tenant (at submit
//! time) to hand out an [`Arc<TenantMetrics>`] handle; the hot paths then go
//! through the handle. A registry can be constructed *disabled*
//! ([`MetricsRegistry::disabled`]), in which case every record call is a
//! single branch and nothing else — that stubbed mode is what the `obs`
//! bench section compares against to gate instrumentation overhead.
//!
//! # Histogram layout
//!
//! [`Histogram`] is log-linear with [`GROUPS`] = 32 sub-buckets per octave:
//! values below 32 get one exact bucket each; every value `v ≥ 32` lands in
//! the bucket `[(32+s)·2^e, (32+s+1)·2^e)` for `v`'s octave, so a bucket's
//! width is at most `1/32` of its lower bound. Quantiles report the bucket's
//! **upper** bound (clamped to the exact tracked maximum), which pins the
//! error bound tested against the exact sorted-sample oracle:
//! `exact ≤ approx ≤ exact + exact/32` (exact in the linear region). The
//! range is bounded at `2^42` (≈ 73 minutes in nanoseconds); larger values
//! saturate into one overflow bucket and quantiles falling there report the
//! tracked maximum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spi_model::json::JsonValue;

use crate::trace::TraceEvent;

/// Sub-buckets per octave; the histogram's relative-error denominator.
pub const GROUPS: u64 = 32;
/// log2([`GROUPS`]).
const GROUP_BITS: u32 = 5;
/// Values at or above `2^MAX_EXP` saturate into the overflow bucket.
const MAX_EXP: u32 = 42;
/// Linear region (one bucket per value) + 32 buckets per octave for
/// exponents `5..MAX_EXP`, + 1 saturation bucket.
const BUCKETS: usize = (MAX_EXP - GROUP_BITS + 1) as usize * GROUPS as usize + 1;

/// Largest value the histogram resolves without saturating.
pub const HISTOGRAM_BOUND: u64 = 1 << MAX_EXP;

/// Index of the bucket holding `value`.
fn bucket_index(value: u64) -> usize {
    if value < GROUPS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - GROUP_BITS;
    ((shift as u64 + 1) * GROUPS + ((value >> shift) - GROUPS)) as usize
}

/// Inclusive upper bound of bucket `index` (the value a quantile landing in
/// the bucket reports). The saturation bucket has no finite bound; callers
/// clamp to the tracked maximum.
fn bucket_high(index: usize) -> u64 {
    if index < GROUPS as usize {
        return index as u64;
    }
    let octave = (index as u64) >> GROUP_BITS;
    let sub = index as u64 & (GROUPS - 1);
    let shift = (octave - 1) as u32;
    ((GROUPS + sub) << shift) + (1u64 << shift) - 1
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current cumulative count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (bytes outstanding, entries resident, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-linear bounded-error histogram (see the module docs for the bucket
/// layout and the error bound).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; a few `Relaxed` atomics.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, unaffected by bucketing).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The nearest-rank `pct` quantile (0–100), reported as the containing
    /// bucket's upper bound clamped to the exact maximum: never below the
    /// exact quantile, never more than `1/32` of it above (exact below 32
    /// and at `pct == 100`). Returns 0 on an empty histogram.
    pub fn quantile(&self, pct: u32) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let max = self.max();
        if pct >= 100 {
            return max;
        }
        let rank = ((u128::from(count) * u128::from(pct)).div_ceil(100) as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                if index == BUCKETS - 1 {
                    return max;
                }
                return bucket_high(index).min(max);
            }
        }
        max
    }

    /// Folds `other`'s observations into `self`, bucket by bucket. Merging
    /// is associative and commutative: any merge order yields bit-identical
    /// counts, sum, max and therefore quantiles.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The canonical JSON summary: count, sum, p50/p90/p99 and the exact max.
    pub fn summary(&self) -> JsonValue {
        JsonValue::object([
            ("count", JsonValue::Int(self.count() as i128)),
            ("sum", JsonValue::Int(self.sum() as i128)),
            ("p50", JsonValue::Int(self.quantile(50) as i128)),
            ("p90", JsonValue::Int(self.quantile(90) as i128)),
            ("p99", JsonValue::Int(self.quantile(99) as i128)),
            ("max", JsonValue::Int(self.max() as i128)),
        ])
    }
}

/// Static counter ids: one per instrumented event across the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // The names *are* the documentation; see `name()`.
pub enum CounterId {
    WfqEnqueues,
    WfqDequeues,
    LeaseGrants,
    LeaseRenews,
    LeaseExpiries,
    LeaseAbandons,
    HedgesIssued,
    HedgeWins,
    ShardCommits,
    EvalVariants,
    FlattenPatches,
    FlattenRebuilds,
    FlattenFallbacks,
    CacheHits,
    CacheMisses,
    CacheEvictions,
    WalAppends,
    WalAppendBytes,
    WalCompactions,
}

impl CounterId {
    /// Every counter id, in canonical (declaration) order.
    pub const ALL: [CounterId; 19] = [
        CounterId::WfqEnqueues,
        CounterId::WfqDequeues,
        CounterId::LeaseGrants,
        CounterId::LeaseRenews,
        CounterId::LeaseExpiries,
        CounterId::LeaseAbandons,
        CounterId::HedgesIssued,
        CounterId::HedgeWins,
        CounterId::ShardCommits,
        CounterId::EvalVariants,
        CounterId::FlattenPatches,
        CounterId::FlattenRebuilds,
        CounterId::FlattenFallbacks,
        CounterId::CacheHits,
        CounterId::CacheMisses,
        CounterId::CacheEvictions,
        CounterId::WalAppends,
        CounterId::WalAppendBytes,
        CounterId::WalCompactions,
    ];

    /// The stable wire name of this counter.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::WfqEnqueues => "wfq.enqueues",
            CounterId::WfqDequeues => "wfq.dequeues",
            CounterId::LeaseGrants => "lease.grants",
            CounterId::LeaseRenews => "lease.renews",
            CounterId::LeaseExpiries => "lease.expiries",
            CounterId::LeaseAbandons => "lease.abandons",
            CounterId::HedgesIssued => "lease.hedges_issued",
            CounterId::HedgeWins => "lease.hedge_wins",
            CounterId::ShardCommits => "shard.commits",
            CounterId::EvalVariants => "eval.variants",
            CounterId::FlattenPatches => "flatten.patches",
            CounterId::FlattenRebuilds => "flatten.rebuilds",
            CounterId::FlattenFallbacks => "flatten.fallbacks",
            CounterId::CacheHits => "cache.hits",
            CounterId::CacheMisses => "cache.misses",
            CounterId::CacheEvictions => "cache.evictions",
            CounterId::WalAppends => "wal.appends",
            CounterId::WalAppendBytes => "wal.append_bytes",
            CounterId::WalCompactions => "wal.compactions",
        }
    }
}

/// Static gauge ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // The names *are* the documentation; see `name()`.
pub enum GaugeId {
    WalLogBytes,
    CacheEntries,
    CacheBytes,
}

impl GaugeId {
    /// Every gauge id, in canonical (declaration) order.
    pub const ALL: [GaugeId; 3] = [
        GaugeId::WalLogBytes,
        GaugeId::CacheEntries,
        GaugeId::CacheBytes,
    ];

    /// The stable wire name of this gauge.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::WalLogBytes => "wal.log_bytes",
            GaugeId::CacheEntries => "cache.entries",
            GaugeId::CacheBytes => "cache.bytes",
        }
    }
}

/// Static histogram ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // The names *are* the documentation; see `name()`.
pub enum HistogramId {
    ShardEvalNs,
    BatchEvalNs,
    FlattenPatchedProcesses,
}

impl HistogramId {
    /// Every histogram id, in canonical (declaration) order.
    pub const ALL: [HistogramId; 3] = [
        HistogramId::ShardEvalNs,
        HistogramId::BatchEvalNs,
        HistogramId::FlattenPatchedProcesses,
    ];

    /// The stable wire name of this histogram.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::ShardEvalNs => "shard.eval_ns",
            HistogramId::BatchEvalNs => "batch.eval_ns",
            HistogramId::FlattenPatchedProcesses => "flatten.patched_processes",
        }
    }
}

/// Per-tenant metric bundle, handed out once as an `Arc` handle (the one
/// lock acquisition) and then updated lock-free on the hot path.
#[derive(Debug)]
pub struct TenantMetrics {
    enabled: bool,
    /// Shards dispatched to workers for this tenant.
    service: Counter,
    /// Shards enqueued into the fair scheduler for this tenant.
    enqueues: Counter,
    /// Shards currently queued (pending dispatch).
    backlog: Gauge,
    /// How far the tenant's WFQ finish tag trails the scheduler's virtual
    /// time — a persistently growing lag on a backlogged tenant is the
    /// starvation signature the watchdog looks for.
    vtime_lag: Gauge,
}

impl TenantMetrics {
    fn new(enabled: bool) -> TenantMetrics {
        TenantMetrics {
            enabled,
            service: Counter::default(),
            enqueues: Counter::default(),
            backlog: Gauge::default(),
            vtime_lag: Gauge::default(),
        }
    }

    /// Counts one shard dispatch for this tenant.
    pub fn add_service(&self) {
        if self.enabled {
            self.service.add(1);
        }
    }

    /// Counts one shard enqueue for this tenant.
    pub fn add_enqueue(&self) {
        if self.enabled {
            self.enqueues.add(1);
        }
    }

    /// Updates the tenant's queue depth and virtual-time lag.
    pub fn observe_queue(&self, backlog: u64, vtime_lag: u64) {
        if self.enabled {
            self.backlog.set(backlog);
            self.vtime_lag.set(vtime_lag);
        }
    }

    /// Cumulative shard dispatches.
    pub fn service(&self) -> u64 {
        self.service.get()
    }

    /// Cumulative shard enqueues.
    pub fn enqueues(&self) -> u64 {
        self.enqueues.get()
    }

    /// Currently queued shards.
    pub fn backlog(&self) -> u64 {
        self.backlog.get()
    }

    /// Current virtual-time lag behind the scheduler clock.
    pub fn vtime_lag(&self) -> u64 {
        self.vtime_lag.get()
    }
}

/// The process-wide metric registry: static counters/gauges/histograms plus
/// a `(tenant)` label table. All record paths are lock-free; construction
/// with [`MetricsRegistry::disabled`] turns every record call into a single
/// branch (the instrumentation-stubbed mode the `obs` bench compares).
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: [Counter; CounterId::ALL.len()],
    gauges: [Gauge; GaugeId::ALL.len()],
    histograms: [Histogram; HistogramId::ALL.len()],
    tenants: Mutex<BTreeMap<String, Arc<TenantMetrics>>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    fn build(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            counters: std::array::from_fn(|_| Counter::default()),
            gauges: std::array::from_fn(|_| Gauge::default()),
            histograms: std::array::from_fn(|_| Histogram::new()),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// A live registry: every record call lands.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::build(true)
    }

    /// A stubbed registry: every record call is one branch and nothing else.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::build(false)
    }

    /// Whether record calls land.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to a static counter.
    pub fn add(&self, id: CounterId, delta: u64) {
        if self.enabled {
            self.counters[id as usize].add(delta);
        }
    }

    /// Adds the counters a scheduler decision implies. This is the one
    /// mapping from [`TraceEvent`]s to counters: a service that records each
    /// decision through it counts exactly what its trace holds. The match
    /// names every event kind, so a new kind does not compile without its
    /// counters.
    pub fn count(&self, event: &TraceEvent) {
        match event {
            TraceEvent::WfqEnqueue { .. } => self.add(CounterId::WfqEnqueues, 1),
            TraceEvent::WfqDequeue { .. } => self.add(CounterId::WfqDequeues, 1),
            TraceEvent::LeaseGrant { hedged, .. } => {
                self.add(CounterId::LeaseGrants, 1);
                if *hedged {
                    self.add(CounterId::HedgesIssued, 1);
                }
            }
            TraceEvent::LeaseRenew { .. } => self.add(CounterId::LeaseRenews, 1),
            TraceEvent::LeaseExpire { .. } => self.add(CounterId::LeaseExpiries, 1),
            TraceEvent::LeaseAbandon { .. } => self.add(CounterId::LeaseAbandons, 1),
            TraceEvent::HedgeWin { .. } => self.add(CounterId::HedgeWins, 1),
            TraceEvent::ShardCommit { evaluated, .. } => {
                self.add(CounterId::ShardCommits, 1);
                self.add(CounterId::EvalVariants, *evaluated);
            }
            TraceEvent::CacheHit { .. } => self.add(CounterId::CacheHits, 1),
            TraceEvent::CacheEvict { evicted } => self.add(CounterId::CacheEvictions, *evicted),
            TraceEvent::WalCompact { .. } => self.add(CounterId::WalCompactions, 1),
        }
    }

    /// The current value of a static counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].get()
    }

    /// Sets a static gauge.
    pub fn set_gauge(&self, id: GaugeId, value: u64) {
        if self.enabled {
            self.gauges[id as usize].set(value);
        }
    }

    /// The current value of a static gauge.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize].get()
    }

    /// Records one observation into a static histogram.
    pub fn record(&self, id: HistogramId, value: u64) {
        if self.enabled {
            self.histograms[id as usize].record(value);
        }
    }

    /// Read access to a static histogram.
    pub fn histogram(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id as usize]
    }

    /// The label handle for `tenant`, created on first use. This is the one
    /// lock in the registry; call it off the hot path (at submit) and keep
    /// the returned `Arc`.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantMetrics> {
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Arc::new(TenantMetrics::new(self.enabled)))
            .clone()
    }

    /// The cumulative dispatch count for `tenant` (0 if never seen) — the
    /// progress signal the stall watchdog compares between sweeps.
    pub fn tenant_service(&self, tenant: &str) -> u64 {
        self.tenants
            .lock()
            .expect("tenant table poisoned")
            .get(tenant)
            .map_or(0, |handle| handle.service())
    }

    /// The full registry as canonical JSON: cumulative counters, gauge
    /// levels, histogram summaries (p50/p90/p99/max) and per-tenant rows,
    /// each section in a fixed declaration (or sorted-name) order.
    pub fn snapshot(&self) -> JsonValue {
        let counters = CounterId::ALL
            .iter()
            .map(|id| {
                (
                    id.name().to_string(),
                    JsonValue::Int(self.counter(*id) as i128),
                )
            })
            .collect();
        let gauges = GaugeId::ALL
            .iter()
            .map(|id| {
                (
                    id.name().to_string(),
                    JsonValue::Int(self.gauge(*id) as i128),
                )
            })
            .collect();
        let histograms = HistogramId::ALL
            .iter()
            .map(|id| (id.name().to_string(), self.histogram(*id).summary()))
            .collect();
        let tenants = self
            .tenants
            .lock()
            .expect("tenant table poisoned")
            .iter()
            .map(|(name, handle)| {
                (
                    name.clone(),
                    JsonValue::object([
                        ("service", JsonValue::Int(handle.service() as i128)),
                        ("enqueues", JsonValue::Int(handle.enqueues() as i128)),
                        ("backlog", JsonValue::Int(handle.backlog() as i128)),
                        ("vtime_lag", JsonValue::Int(handle.vtime_lag() as i128)),
                    ]),
                )
            })
            .collect();
        JsonValue::object([
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("histograms", JsonValue::Object(histograms)),
            ("tenants", JsonValue::Object(tenants)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let histogram = Histogram::new();
        for v in 0..GROUPS {
            histogram.record(v);
        }
        for pct in [1, 25, 50, 75, 100] {
            let rank = ((GROUPS * pct).div_ceil(100)).max(1);
            assert_eq!(histogram.quantile(pct as u32), rank - 1, "pct {pct}");
        }
    }

    #[test]
    fn bucket_bounds_tile_the_range() {
        // Every bucket's high is one less than the next bucket's low, i.e.
        // bucket_index(high) == index and bucket_index(high + 1) == index+1.
        for index in 0..BUCKETS - 1 {
            let high = bucket_high(index);
            assert_eq!(bucket_index(high), index, "high of {index}");
            assert_eq!(bucket_index(high + 1), index + 1, "next after {index}");
        }
        assert_eq!(bucket_index(HISTOGRAM_BOUND), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_is_upper_bounded_by_max() {
        let histogram = Histogram::new();
        histogram.record(1000);
        histogram.record(1001);
        assert_eq!(histogram.quantile(100), 1001);
        assert!(histogram.quantile(50) >= 1000);
        assert!(histogram.quantile(50) <= 1001);
    }

    #[test]
    fn saturation_clamps_to_tracked_max() {
        let histogram = Histogram::new();
        histogram.record(HISTOGRAM_BOUND + 12345);
        histogram.record(u64::MAX);
        assert_eq!(histogram.count(), 2);
        assert_eq!(histogram.quantile(50), u64::MAX);
        assert_eq!(histogram.quantile(100), u64::MAX);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let registry = MetricsRegistry::disabled();
        registry.add(CounterId::CacheHits, 3);
        registry.set_gauge(GaugeId::WalLogBytes, 99);
        registry.record(HistogramId::ShardEvalNs, 5);
        let tenant = registry.tenant("t");
        tenant.add_service();
        tenant.observe_queue(4, 5);
        assert_eq!(registry.counter(CounterId::CacheHits), 0);
        assert_eq!(registry.gauge(GaugeId::WalLogBytes), 0);
        assert_eq!(registry.histogram(HistogramId::ShardEvalNs).count(), 0);
        assert_eq!(tenant.service(), 0);
        assert_eq!(tenant.backlog(), 0);
    }

    /// `count` adds exactly the counters of each event kind and leaves every
    /// other counter at zero; a disabled registry counts nothing.
    #[test]
    fn count_maps_every_event_kind_to_its_counters() {
        let (job, shard, lease) = (3, 1, 7);
        let grant = |hedged| TraceEvent::LeaseGrant {
            job,
            shard,
            lease,
            worker: "w0".to_string(),
            hedged,
        };
        let cases: [(TraceEvent, &[(CounterId, u64)]); 12] = [
            (
                TraceEvent::WfqEnqueue {
                    tenant: "t".to_string(),
                    weight: 2,
                    job,
                    shard,
                },
                &[(CounterId::WfqEnqueues, 1)],
            ),
            (
                TraceEvent::WfqDequeue {
                    tenant: "t".to_string(),
                    weight: 2,
                    job,
                    shard,
                    vtime: 9,
                },
                &[(CounterId::WfqDequeues, 1)],
            ),
            (grant(false), &[(CounterId::LeaseGrants, 1)]),
            (
                grant(true),
                &[(CounterId::LeaseGrants, 1), (CounterId::HedgesIssued, 1)],
            ),
            (
                TraceEvent::LeaseRenew { job, shard, lease },
                &[(CounterId::LeaseRenews, 1)],
            ),
            (
                TraceEvent::LeaseExpire { job, shard, lease },
                &[(CounterId::LeaseExpiries, 1)],
            ),
            (
                TraceEvent::LeaseAbandon { job, shard, lease },
                &[(CounterId::LeaseAbandons, 1)],
            ),
            (
                TraceEvent::HedgeWin { job, shard, lease },
                &[(CounterId::HedgeWins, 1)],
            ),
            (
                TraceEvent::ShardCommit {
                    job,
                    shard,
                    lease,
                    evaluated: 40,
                },
                &[(CounterId::ShardCommits, 1), (CounterId::EvalVariants, 40)],
            ),
            (TraceEvent::CacheHit { job }, &[(CounterId::CacheHits, 1)]),
            (
                TraceEvent::CacheEvict { evicted: 3 },
                &[(CounterId::CacheEvictions, 3)],
            ),
            (
                TraceEvent::WalCompact { log_bytes: 512 },
                &[(CounterId::WalCompactions, 1)],
            ),
        ];
        let kinds: std::collections::BTreeSet<&str> =
            cases.iter().map(|(event, _)| event.kind()).collect();
        assert_eq!(kinds.len(), 11, "every event kind has a case");
        for (event, expected) in &cases {
            let registry = MetricsRegistry::new();
            registry.count(event);
            for id in CounterId::ALL {
                let want = expected
                    .iter()
                    .find(|(counted, _)| *counted == id)
                    .map_or(0, |(_, delta)| *delta);
                assert_eq!(registry.counter(id), want, "{} on {event:?}", id.name());
            }
            let disabled = MetricsRegistry::disabled();
            disabled.count(event);
            for id in CounterId::ALL {
                assert_eq!(disabled.counter(id), 0, "{} on {event:?}", id.name());
            }
        }
    }

    #[test]
    fn snapshot_is_canonical_and_complete() {
        let registry = MetricsRegistry::new();
        registry.add(CounterId::CacheHits, 2);
        registry.set_gauge(GaugeId::CacheEntries, 1);
        registry.record(HistogramId::ShardEvalNs, 500);
        registry.tenant("b").add_service();
        registry.tenant("a").add_enqueue();
        let snapshot = registry.snapshot();
        let counters = snapshot.require("counters").unwrap();
        for id in CounterId::ALL {
            assert!(counters.get(id.name()).is_some(), "missing {}", id.name());
        }
        assert_eq!(counters.require("cache.hits").unwrap().as_u64(), Some(2));
        let tenants = snapshot.require("tenants").unwrap();
        match tenants {
            JsonValue::Object(members) => {
                let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, ["a", "b"], "tenants sorted by name");
            }
            _ => panic!("tenants must be an object"),
        }
        // The snapshot line is canonical: re-snapshotting an unchanged
        // registry yields the identical line.
        assert_eq!(snapshot.to_line(), registry.snapshot().to_line());
    }
}
