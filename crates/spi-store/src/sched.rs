//! Scheduling policy: weighted-fair queuing across tenants and hedged
//! re-leasing of straggler shards.
//!
//! # Weighted-fair queuing
//!
//! The service's original dispatch order was a single FIFO of `(job, shard)`
//! pairs — one tenant submitting a `2^20`-combination space starved every
//! later submitter until its last shard drained. [`FairScheduler`] replaces
//! it with classic virtual-time WFQ: each tenant owns a FIFO of entries and
//! a *finish tag*; a dispatch picks the non-empty tenant with the smallest
//! tag and advances that tag by `SCALE / weight`. A tenant enqueueing into
//! an empty queue starts at the current virtual time, so newcomers interleave
//! immediately instead of queuing behind the backlog, and a weight-`w` tenant
//! receives `w` shards for every one a weight-1 tenant gets.
//!
//! The scheduler is deliberately oblivious to registry state: it hands out
//! *candidate* entries and the registry skips stale ones (shard already
//! leased, job cancelled), exactly like the FIFO it replaces.
//!
//! # Hedged re-leasing
//!
//! A shard whose worker is slow — overloaded machine, degraded evaluator,
//! one pathological variant — holds its lease until the timeout even though
//! the rest of the job finished long ago. [`LatencyTracker`] keeps each
//! job's completed-shard durations; once enough samples exist, a shard
//! in flight for longer than `multiplier × quantile(q)` is eligible for a
//! **hedge**: a duplicate lease handed to an idle worker. Whichever lease
//! commits first wins the shard; the loser's flushes turn stale and are
//! discarded — the registry's staged/committed split already guarantees
//! exactly-once accounting, so hedging never double-counts.

use std::collections::{BTreeMap, VecDeque};

/// Fixed-point scale for virtual time (so integer weights divide cleanly).
/// One dispatch advances a weight-`w` tenant's finish tag by `SCALE / w`, so
/// `SCALE` is also the natural unit for fairness bounds over traces.
pub const SCALE: u64 = 1 << 20;

/// A schedulable unit: the raw job id and the shard index within it.
pub type Entry = (u64, usize);

struct TenantQueue {
    weight: u32,
    finish: u64,
    /// Virtual time of the last dispatch, or of the enqueue that made it busy.
    waiting_since: u64,
    queue: VecDeque<Entry>,
    enqueues: u64,
    service: u64,
}

/// One tenant's totals and levels: its row in the metrics snapshot, and the
/// service the stall watchdog compares between sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRow {
    /// Dispatches the caller turned into work ([`FairScheduler::mark_service`]).
    pub service: u64,
    /// Entries ever enqueued.
    pub enqueues: u64,
    /// Entries queued now, including ones the caller may skip as stale.
    pub backlog: u64,
    /// Virtual time since the tenant was last dispatched or turned busy; 0
    /// while nothing is queued, as an idle tenant rejoins at the current
    /// virtual time. Fair dispatch keeps it within one advance of the tag
    /// (`SCALE / weight`); a lag that keeps growing on a backlogged tenant
    /// is the starvation signature.
    pub vtime_lag: u64,
}

/// Virtual-time weighted-fair queue of `(job, shard)` entries across tenants.
#[derive(Default)]
pub struct FairScheduler {
    virtual_now: u64,
    tenants: BTreeMap<String, TenantQueue>,
    len: usize,
}

impl FairScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        FairScheduler::default()
    }

    /// Enqueues an entry for `tenant` at `weight` (clamped to ≥ 1; the last
    /// submission's weight wins for the whole tenant).
    pub fn enqueue(&mut self, tenant: &str, weight: u32, entry: Entry) {
        let virtual_now = self.virtual_now;
        let slot = self
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantQueue {
                weight: weight.max(1),
                finish: virtual_now,
                waiting_since: virtual_now,
                queue: VecDeque::new(),
                enqueues: 0,
                service: 0,
            });
        slot.weight = weight.max(1);
        if slot.queue.is_empty() {
            // A newly-busy tenant joins at the current virtual time: it gets
            // its fair share immediately but no credit for having been idle.
            slot.finish = slot.finish.max(virtual_now);
            slot.waiting_since = virtual_now;
        }
        slot.queue.push_back(entry);
        slot.enqueues += 1;
        self.len += 1;
    }

    /// Dispatches the next entry under the WFQ policy, if any.
    pub fn dequeue(&mut self) -> Option<Entry> {
        self.dequeue_dispatch().map(|dispatch| dispatch.entry)
    }

    /// Dispatches the next entry together with the scheduler-truth metadata
    /// the decision was made with — the tenant charged, the weight its finish
    /// tag advanced by, and the virtual time of the dispatch. This is what
    /// trace capture records: the *scheduler's* view, not the job's, which
    /// matters when a later submission rewrote the tenant weight mid-backlog.
    pub fn dequeue_dispatch(&mut self) -> Option<Dispatch> {
        let (name, _) = self
            .tenants
            .iter()
            .filter(|(_, slot)| !slot.queue.is_empty())
            // Deterministic tie-break on the tenant name (BTreeMap order).
            .min_by_key(|(name, slot)| (slot.finish, name.as_str()))
            .map(|(name, slot)| (name.clone(), slot.finish))?;
        let slot = self.tenants.get_mut(&name).expect("tenant exists");
        let entry = slot.queue.pop_front().expect("queue non-empty");
        self.virtual_now = slot.finish;
        slot.waiting_since = slot.finish;
        let weight = slot.weight.max(1);
        slot.finish += SCALE / u64::from(weight);
        self.len -= 1;
        Some(Dispatch {
            tenant: name,
            weight,
            entry,
            vtime: self.virtual_now,
        })
    }

    /// The current virtual time (the finish tag of the last dispatch).
    pub fn virtual_now(&self) -> u64 {
        self.virtual_now
    }

    /// Entries currently queued (including ones the registry may later skip
    /// as stale).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The weight `tenant` last enqueued at, if it ever enqueued.
    pub fn tenant_weight(&self, tenant: &str) -> Option<u32> {
        self.tenants.get(tenant).map(|slot| slot.weight)
    }

    /// Counts one dispatch of `tenant` as service: the caller turned it into
    /// work rather than skipping it as stale. Unknown tenants are ignored.
    pub fn mark_service(&mut self, tenant: &str) {
        if let Some(slot) = self.tenants.get_mut(tenant) {
            slot.service += 1;
        }
    }

    /// The row of every tenant that ever enqueued, in name order.
    pub fn tenant_rows(&self) -> impl Iterator<Item = (&str, TenantRow)> {
        self.tenants.iter().map(|(name, slot)| {
            let vtime_lag = if slot.queue.is_empty() {
                0
            } else {
                self.virtual_now.saturating_sub(slot.waiting_since)
            };
            let row = TenantRow {
                service: slot.service,
                enqueues: slot.enqueues,
                backlog: slot.queue.len() as u64,
                vtime_lag,
            };
            (name.as_str(), row)
        })
    }
}

/// One WFQ dispatch with the metadata the decision was made under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatch {
    /// Tenant whose queue the entry was taken from.
    pub tenant: String,
    /// Weight in force when the tenant's finish tag advanced (post-clamp).
    pub weight: u32,
    /// The dispatched `(job, shard)` entry.
    pub entry: Entry,
    /// Virtual time of the dispatch (the dispatching tenant's finish tag).
    pub vtime: u64,
}

/// Tunables of the speculative re-leasing policy. Integer-valued so configs
/// stay `Eq` and behave identically on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Master switch.
    pub enabled: bool,
    /// The latency quantile (in percent, 1..=100) a straggler must exceed.
    pub quantile_pct: u8,
    /// Multiplier (in percent) applied to the quantile: 200 means a shard
    /// must run 2× the quantile before a hedge is considered.
    pub multiplier_pct: u32,
    /// Completed-shard samples required before hedging activates (too few
    /// samples make the quantile meaningless).
    pub min_samples: usize,
    /// Maximum duplicate leases per shard beyond the primary.
    pub max_hedges: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: true,
            quantile_pct: 95,
            multiplier_pct: 200,
            min_samples: 3,
            max_hedges: 1,
        }
    }
}

impl HedgeConfig {
    /// A disabled policy (pure WFQ, no speculative leases).
    pub fn disabled() -> Self {
        HedgeConfig {
            enabled: false,
            ..HedgeConfig::default()
        }
    }
}

/// Completed-duration samples for one job's shards, bounded in memory.
///
/// Past the cap the tracker keeps a classic **reservoir** (Algorithm R): each
/// of the `observed` durations survives with equal probability, so quantiles
/// stay unbiased estimates of the full run instead of drifting toward the
/// high tail as the old drop-the-smallest policy did. The exact maximum is
/// tracked separately — `quantile_ns(100)` never under-reports the worst
/// shard, which is what the hedging policy's tail honesty rests on.
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    /// Sorted ascending; bounded to keep per-job state O(1)-ish.
    samples_ns: Vec<u64>,
    observed: u64,
    /// Exact maximum over *all* observations, evicted or not.
    max_ns: u64,
    /// Deterministic LCG state for reservoir replacement (no RNG crate; the
    /// tracker must behave identically on every platform and in replays).
    rng: u64,
}

/// Sample cap: enough resolution for a p95 over any realistic shard count.
const MAX_SAMPLES: usize = 512;

impl LatencyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        LatencyTracker::default()
    }

    /// Records one completed-shard duration.
    pub fn record_ns(&mut self, duration_ns: u64) {
        self.observed += 1;
        self.max_ns = self.max_ns.max(duration_ns);
        if self.samples_ns.len() < MAX_SAMPLES {
            let at = self.samples_ns.partition_point(|&s| s <= duration_ns);
            self.samples_ns.insert(at, duration_ns);
            return;
        }
        // Algorithm R: keep the newcomer with probability cap/observed by
        // drawing a uniform slot in 0..observed; a slot under the cap evicts
        // that reservoir element (the draw is independent of the values, so
        // a sorted-rank index is still a uniformly chosen victim).
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let slot = (self.rng >> 33) % self.observed;
        if let Ok(victim) = usize::try_from(slot) {
            if victim < MAX_SAMPLES {
                self.samples_ns.remove(victim);
                let at = self.samples_ns.partition_point(|&s| s <= duration_ns);
                self.samples_ns.insert(at, duration_ns);
            }
        }
    }

    /// Samples recorded so far (uncapped count).
    pub fn count(&self) -> u64 {
        self.observed
    }

    /// The `pct`-th percentile of recorded durations, if any: nearest-rank
    /// over the reservoir, except `pct = 100` which reports the exact maximum
    /// ever observed (the reservoir may have evicted it).
    pub fn quantile_ns(&self, pct: u8) -> Option<u64> {
        if self.samples_ns.is_empty() {
            return None;
        }
        let pct = u64::from(pct.clamp(1, 100));
        if pct == 100 {
            return Some(self.max_ns);
        }
        let rank = ((pct * self.samples_ns.len() as u64).div_ceil(100)).max(1) as usize;
        Some(self.samples_ns[rank.min(self.samples_ns.len()) - 1])
    }

    /// The in-flight duration beyond which a shard counts as a straggler
    /// under `config`, or `None` while hedging is inactive (disabled or not
    /// enough samples yet). The gate compares the *uncapped* observation
    /// count — a `min_samples` above the reservoir cap must delay hedging,
    /// not disable it forever.
    pub fn hedge_threshold_ns(&self, config: &HedgeConfig) -> Option<u64> {
        if !config.enabled || self.observed < config.min_samples as u64 {
            return None;
        }
        let quantile = self.quantile_ns(config.quantile_pct)?;
        Some(quantile.saturating_mul(u64::from(config.multiplier_pct)) / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tenant_is_fifo() {
        let mut scheduler = FairScheduler::new();
        for shard in 0..5 {
            scheduler.enqueue("solo", 1, (0, shard));
        }
        let order: Vec<usize> = std::iter::from_fn(|| scheduler.dequeue())
            .map(|(_, shard)| shard)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(scheduler.is_empty());
    }

    #[test]
    fn late_small_tenant_interleaves_instead_of_waiting() {
        let mut scheduler = FairScheduler::new();
        for shard in 0..100 {
            scheduler.enqueue("whale", 1, (0, shard));
        }
        // Drain a few whale shards, then a small tenant shows up.
        for _ in 0..10 {
            scheduler.dequeue().unwrap();
        }
        for shard in 0..4 {
            scheduler.enqueue("minnow", 1, (1, shard));
        }
        // The minnow's 4 shards must all dispatch within the next 8 slots
        // (equal weights → strict alternation), not after 90 whale shards.
        let next: Vec<u64> = (0..8).map(|_| scheduler.dequeue().unwrap().0).collect();
        assert_eq!(next.iter().filter(|&&job| job == 1).count(), 4);
    }

    #[test]
    fn weights_skew_the_share_proportionally() {
        let mut scheduler = FairScheduler::new();
        for shard in 0..30 {
            scheduler.enqueue("heavy", 3, (0, shard));
            scheduler.enqueue("light", 1, (1, shard));
        }
        let first_twenty: Vec<u64> = (0..20).map(|_| scheduler.dequeue().unwrap().0).collect();
        let heavy = first_twenty.iter().filter(|&&job| job == 0).count();
        // Weight 3 vs 1 → ~15 of the first 20 dispatches.
        assert!((14..=16).contains(&heavy), "heavy got {heavy} of 20");
    }

    #[test]
    fn busy_tenants_reports_only_nonempty_queues() {
        let mut scheduler = FairScheduler::new();
        scheduler.enqueue("a", 1, (0, 0));
        scheduler.enqueue("b", 1, (1, 0));
        scheduler.dequeue().unwrap();
        let busy: Vec<&str> = scheduler
            .tenant_rows()
            .filter(|(_, row)| row.backlog > 0)
            .map(|(name, _)| name)
            .collect();
        assert_eq!(busy.len(), 1);
        assert_eq!(scheduler.len(), 1);
    }

    /// The rows count enqueues and marked service, read the backlog off the
    /// queue, and show a backlogged tenant's lag growing while others are
    /// dispatched; an idle tenant's lag is 0.
    #[test]
    fn tenant_rows_count_and_lag() {
        let mut scheduler = FairScheduler::new();
        for shard in 0..8 {
            scheduler.enqueue("heavy", 4, (0, shard));
        }
        for shard in 0..2 {
            scheduler.enqueue("light", 1, (1, shard));
        }
        let row = |scheduler: &FairScheduler, tenant: &str| {
            scheduler
                .tenant_rows()
                .find(|(name, _)| *name == tenant)
                .map(|(_, row)| row)
                .unwrap()
        };
        assert_eq!(
            row(&scheduler, "light"),
            TenantRow {
                service: 0,
                enqueues: 2,
                backlog: 2,
                vtime_lag: 0,
            }
        );

        // Name order breaks the tie at virtual time 0: heavy, then light.
        for expected in ["heavy", "light"] {
            let dispatch = scheduler.dequeue_dispatch().unwrap();
            assert_eq!(dispatch.tenant, expected);
            scheduler.mark_service(&dispatch.tenant);
        }
        // Light waits one whole advance of its tag (SCALE) while heavy takes
        // its four shards per light shard: its lag grows by SCALE / 4 each.
        let mut lags = vec![row(&scheduler, "light").vtime_lag];
        for _ in 0..3 {
            assert_eq!(scheduler.dequeue_dispatch().unwrap().tenant, "heavy");
            lags.push(row(&scheduler, "light").vtime_lag);
        }
        assert_eq!(lags, [0, SCALE / 4, SCALE / 2, 3 * SCALE / 4]);
        assert_eq!(row(&scheduler, "heavy").vtime_lag, 0, "just dispatched");

        // Light's last shard goes out, unmarked (the caller skipped it as
        // stale): it leaves the backlog but is not service, and the idle
        // tenant lags by nothing however far virtual time moves on.
        let skipped = loop {
            let dispatch = scheduler.dequeue_dispatch().unwrap();
            if dispatch.tenant == "light" {
                break dispatch;
            }
        };
        assert_eq!(skipped.entry, (1, 1));
        while scheduler.dequeue().is_some() {}
        assert_eq!(
            row(&scheduler, "light"),
            TenantRow {
                service: 1,
                enqueues: 2,
                backlog: 0,
                vtime_lag: 0,
            }
        );
        assert!(scheduler.virtual_now() > SCALE);
        let names: Vec<&str> = scheduler.tenant_rows().map(|(name, _)| name).collect();
        assert_eq!(names, ["heavy", "light"]);
    }

    #[test]
    fn latency_quantiles_are_nearest_rank() {
        let mut tracker = LatencyTracker::new();
        for ns in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            tracker.record_ns(ns);
        }
        assert_eq!(tracker.quantile_ns(50), Some(50));
        assert_eq!(tracker.quantile_ns(95), Some(100));
        assert_eq!(tracker.quantile_ns(100), Some(100));
        assert_eq!(tracker.quantile_ns(1), Some(10));
        assert_eq!(tracker.count(), 10);
        assert_eq!(LatencyTracker::new().quantile_ns(50), None);
    }

    #[test]
    fn hedge_threshold_needs_samples_and_scales() {
        let config = HedgeConfig {
            min_samples: 3,
            quantile_pct: 50,
            multiplier_pct: 200,
            ..HedgeConfig::default()
        };
        let mut tracker = LatencyTracker::new();
        tracker.record_ns(100);
        tracker.record_ns(100);
        assert_eq!(tracker.hedge_threshold_ns(&config), None, "too few samples");
        tracker.record_ns(100);
        assert_eq!(tracker.hedge_threshold_ns(&config), Some(200));
        assert_eq!(
            tracker.hedge_threshold_ns(&HedgeConfig::disabled()),
            None,
            "disabled policy never hedges"
        );
    }

    #[test]
    fn sample_cap_keeps_the_high_tail() {
        let mut tracker = LatencyTracker::new();
        for ns in 0..((MAX_SAMPLES as u64) + 100) {
            tracker.record_ns(ns);
        }
        // Whatever the reservoir evicted, the exact maximum survives.
        assert_eq!(
            tracker.quantile_ns(100),
            Some(MAX_SAMPLES as u64 + 99),
            "max sample must survive eviction"
        );
        assert_eq!(tracker.count(), MAX_SAMPLES as u64 + 100);
    }

    #[test]
    fn hedge_activates_past_the_sample_cap() {
        // Regression: the activation gate once compared the *capped* reservoir
        // length (≤ MAX_SAMPLES) against min_samples, so any min_samples above
        // the cap silently disabled hedging forever.
        let config = HedgeConfig {
            min_samples: MAX_SAMPLES + 88,
            quantile_pct: 50,
            multiplier_pct: 200,
            ..HedgeConfig::default()
        };
        let mut tracker = LatencyTracker::new();
        for _ in 0..(MAX_SAMPLES + 87) {
            tracker.record_ns(1_000);
        }
        assert_eq!(
            tracker.hedge_threshold_ns(&config),
            None,
            "gate must still hold below min_samples"
        );
        tracker.record_ns(1_000);
        assert_eq!(
            tracker.hedge_threshold_ns(&config),
            Some(2_000),
            "min_samples > MAX_SAMPLES must delay hedging, not disable it"
        );
    }

    #[test]
    fn reservoir_keeps_quantiles_unbiased_over_skewed_samples() {
        // 10k right-skewed samples: 90% near 1µs, 10% near 100µs. The old
        // drop-the-smallest policy left only the top 512 — all stragglers —
        // so p50 read ~100_000. An unbiased bounded sample keeps p50 in the
        // bulk and p95 in the tail.
        let mut tracker = LatencyTracker::new();
        for i in 0u64..10_000 {
            let ns = if i % 10 == 9 {
                100_000 + i
            } else {
                1_000 + (i % 7)
            };
            tracker.record_ns(ns);
        }
        let p50 = tracker.quantile_ns(50).unwrap();
        assert!(
            (1_000..=1_006).contains(&p50),
            "p50 {p50} must sit in the bulk of the distribution"
        );
        let p95 = tracker.quantile_ns(95).unwrap();
        assert!(p95 >= 100_000, "p95 {p95} must sit in the straggler tail");
        assert_eq!(tracker.quantile_ns(100), Some(109_999), "exact max");
        assert_eq!(tracker.count(), 10_000);
    }

    #[test]
    fn dispatch_carries_scheduler_truth() {
        let mut scheduler = FairScheduler::new();
        for shard in 0..4 {
            scheduler.enqueue("heavy", 2, (0, shard));
            scheduler.enqueue("light", 1, (1, shard));
        }
        let mut last_vtime = 0;
        while let Some(dispatch) = scheduler.dequeue_dispatch() {
            assert!(
                dispatch.vtime >= last_vtime,
                "WFQ virtual time must be non-decreasing"
            );
            last_vtime = dispatch.vtime;
            let expected_weight = if dispatch.tenant == "heavy" { 2 } else { 1 };
            assert_eq!(dispatch.weight, expected_weight);
            assert_eq!(dispatch.entry.0, u64::from(dispatch.tenant == "light"));
            assert_eq!(scheduler.virtual_now(), dispatch.vtime);
        }
        assert!(scheduler.is_empty());
    }
}
