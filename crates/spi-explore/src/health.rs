//! The stall watchdog behind the `health` op.
//!
//! The registry is a pure state machine — it cannot tell a slow shard from a
//! wedged one, and it never flags its own callers. The [`Watchdog`] closes
//! that loop from the outside: it takes periodic [`HealthObservation`]
//! snapshots (assembled under the registry lock by
//! [`JobRegistry::observe_health`](crate::JobRegistry::observe_health)) and
//! compares *consecutive* observations to find the three ways the service
//! wedges in practice:
//!
//! * **stuck leases** — a holder past its deadline (the expiry reaper should
//!   have reclaimed it) or in flight for more than
//!   [`Watchdog::stall_multiplier`] × the job's observed p95 shard duration;
//! * **starved tenants** — a tenant with backlog whose cumulative WFQ
//!   service count has not moved across a full observation window;
//! * **a stalled WAL** — a log over its compaction budget across two
//!   consecutive sweeps with zero compaction progress in between.
//!
//! Each [`HealthFinding`] names the [waitgraph](crate::JobRegistry::waitgraph)
//! node ids it implicates (`lease:7`, `shard:3/1`, `tenant:batch`,
//! `store:wal`, …), so a `health` report can be joined directly against a
//! `graph` snapshot taken in the same breath.
//!
//! The watchdog holds no lock and owns no clock: callers pass `Instant`s in,
//! which keeps every check deterministic under test — the unit tests below
//! drive sweeps with hand-built observations and synthetic time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use spi_model::json::{JsonValue, ToJson};

/// One live lease holder as the watchdog sees it.
#[derive(Debug, Clone)]
pub struct LeaseHealth {
    /// Raw lease id (`lease:<id>` in the waitgraph).
    pub lease: u64,
    /// Raw id of the owning job.
    pub job: u64,
    /// Shard index within the job.
    pub shard: usize,
    /// Worker name the lease was granted to.
    pub worker: String,
    /// How long the holder has been draining the shard.
    pub elapsed: Duration,
    /// The deadline has passed without renewal — the expiry reaper is late.
    pub overdue: bool,
    /// The owning job's completed-shard p95, once any shard has finished.
    pub p95_ns: Option<u64>,
}

/// One backlogged tenant as the watchdog sees it.
#[derive(Debug, Clone)]
pub struct TenantHealth {
    /// Tenant name (`tenant:<name>` in the waitgraph).
    pub tenant: String,
    /// Shards waiting in the tenant's WFQ queue.
    pub backlog: u64,
    /// Cumulative WFQ dispatches of the tenant that became leases (the
    /// scheduler's service count).
    pub service: u64,
}

/// A point-in-time health snapshot of the registry; pure data, assembled
/// under the registry lock and judged outside it.
#[derive(Debug, Clone)]
pub struct HealthObservation {
    /// Every live lease holder.
    pub leases: Vec<LeaseHealth>,
    /// Every tenant with work queued.
    pub tenants: Vec<TenantHealth>,
    /// Current WAL size (0 without a sink).
    pub log_bytes: u64,
    /// The auto-compaction budget, when one is configured.
    pub compact_budget: Option<u64>,
    /// Cumulative compactions (auto and explicit).
    pub compactions: u64,
}

/// One diagnosed stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthFinding {
    /// `stuck_lease`, `starved_tenant` or `wal_stalled`.
    pub kind: &'static str,
    /// Human-readable diagnosis.
    pub message: String,
    /// Waitgraph node ids this finding implicates.
    pub nodes: Vec<String>,
}

impl ToJson for HealthFinding {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("kind", JsonValue::string(self.kind)),
            ("message", self.message.to_json()),
            ("nodes", self.nodes.to_json()),
        ])
    }
}

/// What a sweep concluded: `status` is `"ok"` with no findings, `"stalled"`
/// otherwise.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Sweeps performed so far, including this one.
    pub sweeps: u64,
    /// Every stall diagnosed by this sweep.
    pub findings: Vec<HealthFinding>,
}

impl HealthReport {
    /// `"ok"` or `"stalled"`.
    pub fn status(&self) -> &'static str {
        if self.findings.is_empty() {
            "ok"
        } else {
            "stalled"
        }
    }
}

impl ToJson for HealthReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("status", JsonValue::string(self.status())),
            ("sweeps", self.sweeps.to_json()),
            ("findings", self.findings.to_json()),
        ])
    }
}

/// Remembered slice of the previous sweep, for progress comparisons.
#[derive(Debug, Clone)]
struct PriorSweep {
    at: Instant,
    tenant_service: BTreeMap<String, u64>,
    log_bytes: u64,
    compactions: u64,
}

/// The stall detector; see the module docs for the three checks.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// A lease in flight longer than `stall_multiplier × p95` of its job's
    /// completed shards counts as stuck.
    pub stall_multiplier: u32,
    /// Starvation and WAL checks need two observations at least this far
    /// apart — a single frame proves nothing about progress.
    pub min_window: Duration,
    prior: Option<PriorSweep>,
    sweeps: u64,
}

impl Watchdog {
    /// A watchdog with the default thresholds (stall multiplier 4, 100 ms
    /// minimum progress window).
    pub fn new() -> Watchdog {
        Watchdog {
            stall_multiplier: 4,
            min_window: Duration::from_millis(100),
            prior: None,
            sweeps: 0,
        }
    }

    /// Sweeps performed so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Judges one observation against the previous one and remembers it for
    /// the next sweep. `now` must be the instant the observation was taken.
    pub fn sweep(&mut self, observation: &HealthObservation, now: Instant) -> HealthReport {
        self.sweeps += 1;
        let mut findings = Vec::new();

        for lease in &observation.leases {
            let stalled_vs_peers = lease.p95_ns.is_some_and(|p95| {
                let threshold = u128::from(p95) * u128::from(self.stall_multiplier.max(1));
                lease.elapsed.as_nanos() > threshold
            });
            if !lease.overdue && !stalled_vs_peers {
                continue;
            }
            let age_ms = lease.elapsed.as_millis();
            let reason = if lease.overdue {
                "deadline passed without renewal or reclaim".to_string()
            } else {
                format!(
                    "in flight {age_ms} ms, over {}x the job's p95 shard duration",
                    self.stall_multiplier
                )
            };
            findings.push(HealthFinding {
                kind: "stuck_lease",
                message: format!(
                    "lease {} on shard {}/{} held by {}: {reason}",
                    lease.lease, lease.job, lease.shard, lease.worker
                ),
                nodes: vec![
                    format!("lease:{}", lease.lease),
                    format!("shard:{}/{}", lease.job, lease.shard),
                    format!("worker:{}", lease.worker),
                ],
            });
        }

        // Progress checks compare against the previous sweep, if it is old
        // enough to be meaningful.
        let window = self
            .prior
            .as_ref()
            .filter(|prior| now.saturating_duration_since(prior.at) >= self.min_window);
        if let Some(prior) = window {
            for tenant in &observation.tenants {
                let unchanged = prior
                    .tenant_service
                    .get(&tenant.tenant)
                    .is_some_and(|&before| before == tenant.service);
                if tenant.backlog > 0 && unchanged {
                    findings.push(HealthFinding {
                        kind: "starved_tenant",
                        message: format!(
                            "tenant {} has {} queued shards but received no service \
                             since the previous sweep",
                            tenant.tenant, tenant.backlog
                        ),
                        nodes: vec![format!("tenant:{}", tenant.tenant)],
                    });
                }
            }
            if let Some(budget) = observation.compact_budget {
                let oversized_twice = observation.log_bytes > budget && prior.log_bytes > budget;
                if oversized_twice && observation.compactions == prior.compactions {
                    findings.push(HealthFinding {
                        kind: "wal_stalled",
                        message: format!(
                            "WAL at {} bytes, over its {budget}-byte compaction budget \
                             with no compaction progress",
                            observation.log_bytes
                        ),
                        nodes: vec!["store:wal".to_string()],
                    });
                }
            }
        }

        let replace = match &self.prior {
            // Keep the progress baseline stable across sweeps faster than the
            // window, or back-to-back sweeps could never observe starvation.
            Some(prior) => now.saturating_duration_since(prior.at) >= self.min_window,
            None => true,
        };
        if replace {
            self.prior = Some(PriorSweep {
                at: now,
                tenant_service: observation
                    .tenants
                    .iter()
                    .map(|tenant| (tenant.tenant.clone(), tenant.service))
                    .collect(),
                log_bytes: observation.log_bytes,
                compactions: observation.compactions,
            });
        }

        HealthReport {
            sweeps: self.sweeps,
            findings,
        }
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation() -> HealthObservation {
        HealthObservation {
            leases: Vec::new(),
            tenants: Vec::new(),
            log_bytes: 0,
            compact_budget: None,
            compactions: 0,
        }
    }

    #[test]
    fn healthy_observation_yields_no_findings() {
        let mut watchdog = Watchdog::new();
        let now = Instant::now();
        let mut healthy = observation();
        healthy.leases.push(LeaseHealth {
            lease: 1,
            job: 0,
            shard: 0,
            worker: "w0".into(),
            elapsed: Duration::from_millis(5),
            overdue: false,
            p95_ns: Some(10_000_000),
        });
        let report = watchdog.sweep(&healthy, now);
        assert_eq!(report.status(), "ok");
        assert_eq!(report.sweeps, 1);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn abandoned_lease_is_flagged_with_waitgraph_nodes() {
        let mut watchdog = Watchdog::new();
        let mut stuck = observation();
        stuck.leases.push(LeaseHealth {
            lease: 7,
            job: 3,
            shard: 1,
            worker: "w2".into(),
            elapsed: Duration::from_secs(40),
            overdue: true,
            p95_ns: None,
        });
        let report = watchdog.sweep(&stuck, Instant::now());
        assert_eq!(report.status(), "stalled");
        assert_eq!(report.findings.len(), 1);
        let finding = &report.findings[0];
        assert_eq!(finding.kind, "stuck_lease");
        assert_eq!(
            finding.nodes,
            vec![
                "lease:7".to_string(),
                "shard:3/1".to_string(),
                "worker:w2".to_string()
            ]
        );
    }

    #[test]
    fn straggler_past_the_p95_multiple_is_flagged_without_being_overdue() {
        let mut watchdog = Watchdog::new();
        let mut slow = observation();
        slow.leases.push(LeaseHealth {
            lease: 2,
            job: 0,
            shard: 4,
            worker: "w1".into(),
            elapsed: Duration::from_millis(500),
            overdue: false,
            p95_ns: Some(1_000_000), // 1 ms p95; 500 ms elapsed >> 4 ms threshold.
        });
        let report = watchdog.sweep(&slow, Instant::now());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, "stuck_lease");
    }

    #[test]
    fn starved_tenant_needs_two_sweeps_a_window_apart() {
        let mut watchdog = Watchdog::new();
        let now = Instant::now();
        let mut starved = observation();
        starved.tenants.push(TenantHealth {
            tenant: "batch".into(),
            backlog: 9,
            service: 3,
        });

        // First sweep only records the baseline.
        assert_eq!(watchdog.sweep(&starved, now).status(), "ok");
        // A second sweep inside the window proves nothing.
        let soon = now + Duration::from_millis(1);
        assert_eq!(watchdog.sweep(&starved, soon).status(), "ok");
        // Past the window with identical service: starved.
        let later = now + watchdog.min_window + Duration::from_millis(1);
        let report = watchdog.sweep(&starved, later);
        assert_eq!(report.status(), "stalled");
        assert_eq!(report.findings[0].kind, "starved_tenant");
        assert_eq!(report.findings[0].nodes, vec!["tenant:batch".to_string()]);

        // Any service progress clears it.
        let mut served = starved.clone();
        served.tenants[0].service = 4;
        let even_later = later + watchdog.min_window + Duration::from_millis(1);
        assert_eq!(watchdog.sweep(&served, even_later).status(), "ok");
    }

    #[test]
    fn wal_over_budget_without_compaction_progress_is_flagged() {
        let mut watchdog = Watchdog::new();
        let now = Instant::now();
        let mut bloated = observation();
        bloated.log_bytes = 10_000;
        bloated.compact_budget = Some(1_000);
        bloated.compactions = 2;

        assert_eq!(watchdog.sweep(&bloated, now).status(), "ok");
        let later = now + watchdog.min_window + Duration::from_millis(1);
        let report = watchdog.sweep(&bloated, later);
        assert_eq!(report.status(), "stalled");
        assert_eq!(report.findings[0].kind, "wal_stalled");
        assert_eq!(report.findings[0].nodes, vec!["store:wal".to_string()]);

        // A compaction between sweeps counts as progress even if the log is
        // still over budget (it may simply be refilling).
        let mut compacted = bloated.clone();
        compacted.compactions = 3;
        let even_later = later + watchdog.min_window + Duration::from_millis(1);
        assert_eq!(watchdog.sweep(&compacted, even_later).status(), "ok");
    }
}
