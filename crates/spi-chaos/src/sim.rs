//! The deterministic single-process simulation driver.
//!
//! One run builds a [`JobRegistry`] over an in-memory durable store behind a
//! fault-injecting sink, submits one exploration job, executes a
//! [`FaultPlan`] against it — simulated workers crash before and after
//! staging, simulated time jumps past lease deadlines, the sink fails and
//! tears appends, `kill -9` drops the whole registry and recovers it from
//! the (possibly tail-chopped) store — and then drives whatever is left to a
//! terminal state. The five [`oracle`] properties are checked
//! at every kill point and at the end; any violation aborts the run into a
//! [`SimFailure`] that [`shrink`](crate::shrink::shrink) can minimize.
//!
//! Everything is driven from one thread and one logical clock (a base
//! [`Instant`] plus the plan's `Advance` skews), so a `(config, events)`
//! pair replays the same schedule every time.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spi_explore::{
    drain_lease, rebuild_from_recipe, DrainOutcome, ExploreError, FlushResponse, HedgeConfig,
    JobId, JobRegistry, JobSpec, JobState, Lease, MemoryStore, RegistryConfig, ShardReport,
    SpanSink, TaskParamsSpec,
};
use spi_model::json::{JsonError, JsonValue};
use spi_synth::from_flat_graph;
use spi_synth::partition::{optimize_serial_reference, FeasibilityMode};
use spi_workloads::scaling_system;

use crate::fault::{FaultEvent, FaultPlan};
use crate::oracle;
use crate::sink::{AppendFault, FaultScript, FaultSink};

/// Fixed evaluator parameters of the simulated workload (the values the
/// repo's recovery suite uses, so cross-suite results are comparable).
const PROCESSOR_COST: u64 = 15;
/// Seed of the hashed task parameters inside the evaluator (not the fault
/// plan seed).
const PARAMS_SEED: u64 = 42;
/// Step bound on the drive-to-completion loop; exceeding it is itself a
/// reported violation (livelock).
const MAX_DRIVE_STEPS: usize = 10_000;

/// Shape of the simulated world: the workload and the registry tunables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Interfaces of the scaling workload (`clusters^interfaces` variants).
    pub interfaces: usize,
    /// Cluster choices per interface.
    pub clusters: usize,
    /// Strided shards the job is split into.
    pub shard_count: usize,
    /// Lease timeout of the simulated registry.
    pub lease_timeout: Duration,
    /// Re-introduces the commit-veto bug the harness exists to catch: the
    /// final flush stages its delta with `report_batch` *before* the
    /// write-ahead `complete_shard`, so a vetoed commit leaves the stage
    /// applied and the production retry double-counts it. The acceptance
    /// test flips this on and asserts the oracles catch and the shrinker
    /// minimizes it.
    pub commit_veto_bug: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            interfaces: 4,
            clusters: 2, // 2^4 = 16 variants, 4 per shard
            shard_count: 4,
            lease_timeout: Duration::from_secs(10),
            commit_veto_bug: false,
        }
    }
}

impl SimConfig {
    /// The wire-style recipe the job is submitted with and recovery rebuilds
    /// from after a simulated kill.
    pub fn recipe(&self) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"system":{{"scaling":{{"interfaces":{},"clusters":{}}}}},"evaluator":{{"kind":"partition","processor_cost":{PROCESSOR_COST},"strategy":"exhaustive","mode":"per_application","params":{{"kind":"hashed","seed":{PARAMS_SEED}}}}}}}"#,
            self.interfaces, self.clusters
        ))
        .expect("recipe literal parses")
    }

    /// The serial reference optimum `(index, cost)` for this workload:
    /// flatten every combination in index order, keep the first strict
    /// `(cost, index)` minimum of `optimize_serial_reference`. Every
    /// completed simulated run must reproduce it bit-identically.
    pub fn serial_oracle(&self) -> (usize, u64) {
        let system =
            scaling_system(self.interfaces, self.clusters).expect("simulated workload builds");
        let params = TaskParamsSpec::Hashed { seed: PARAMS_SEED };
        let mut best: Option<(u64, usize)> = None;
        for (index, (_choice, graph)) in system
            .flatten_all()
            .expect("simulated workload flattens")
            .into_iter()
            .enumerate()
        {
            let problem =
                from_flat_graph(&graph, PROCESSOR_COST, |name| Some(params.params_for(name)))
                    .expect("simulated workload derives a problem");
            let result = optimize_serial_reference(&problem, FeasibilityMode::PerApplication)
                .expect("serial reference optimizes");
            let total = result.cost.total();
            if best.is_none_or(|(cost, _)| total < cost) {
                best = Some((total, index));
            }
        }
        let (cost, index) = best.expect("workload has at least one variant");
        (index, cost)
    }

    /// Canonical JSON encoding, for the one-line reproducer.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("interfaces", JsonValue::Int(self.interfaces as i128)),
            ("clusters", JsonValue::Int(self.clusters as i128)),
            ("shards", JsonValue::Int(self.shard_count as i128)),
            (
                "lease_timeout_ms",
                JsonValue::Int(self.lease_timeout.as_millis() as i128),
            ),
            ("bug", JsonValue::Bool(self.commit_veto_bug)),
        ])
    }

    /// Decodes a config from its canonical JSON encoding.
    ///
    /// # Errors
    ///
    /// When any field is missing or mistyped.
    pub fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let field = |key: &str| -> Result<usize, JsonError> {
            value
                .get(key)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| JsonError::new(format!("sim config missing `{key}`")))
        };
        Ok(SimConfig {
            interfaces: field("interfaces")?,
            clusters: field("clusters")?,
            shard_count: field("shards")?,
            lease_timeout: Duration::from_millis(field("lease_timeout_ms")? as u64),
            commit_veto_bug: value
                .get("bug")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
        })
    }
}

/// What a passing run did, for corpus summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Terminal state the job reached.
    pub state: JobState,
    /// Variants accounted (evaluated + pruned + errored) by the terminal
    /// census.
    pub accounted: u64,
    /// Shards committed.
    pub shards_done: usize,
    /// Simulated `kill -9`s survived.
    pub kills: u32,
    /// Registry incarnations (kills + 1).
    pub segments: u32,
}

/// A failing run: which seed and plan step it died at, and every oracle
/// violation found there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFailure {
    /// The seed the plan came from, when it came from one.
    pub seed: Option<u64>,
    /// Index of the plan event whose checkpoint caught the violation
    /// (`None`: caught at the terminal checkpoint).
    pub step: Option<usize>,
    /// Every violation, in detection order.
    pub violations: Vec<String>,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seed {
            Some(seed) => write!(f, "seed {seed}")?,
            None => write!(f, "hand-built plan")?,
        }
        match self.step {
            Some(step) => write!(f, ", step {step}: ")?,
            None => write!(f, ", terminal checkpoint: ")?,
        }
        write!(f, "{}", self.violations.join("; "))
    }
}

struct Sim {
    config: SimConfig,
    oracle_best: (usize, u64),
    store: Arc<Mutex<MemoryStore>>,
    script: Arc<Mutex<FaultScript>>,
    registry: JobRegistry,
    job: JobId,
    now: Instant,
    held: Vec<Lease>,
    violations: Vec<String>,
    kills: u32,
    segments: u32,
}

impl Sim {
    fn new(config: SimConfig, oracle_best: (usize, u64)) -> Result<Sim, SimFailure> {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let script = Arc::new(Mutex::new(FaultScript::default()));
        let mut registry = JobRegistry::with_config(registry_config(&config));
        registry.set_sink(Box::new(FaultSink::new(
            Arc::clone(&store),
            Arc::clone(&script),
        )));
        let recipe = config.recipe();
        let (system, evaluator) = rebuild_from_recipe(&recipe).map_err(|error| SimFailure {
            seed: None,
            step: None,
            violations: vec![format!("setup: recipe rebuild failed: {error}")],
        })?;
        let job = registry
            .submit_with_recipe(
                &system,
                JobSpec {
                    name: "chaos".to_string(),
                    shard_count: config.shard_count,
                    top_k: 1 << 16, // far above any sim space: keep everything
                    tenant: "chaos".to_string(),
                    ..JobSpec::default()
                },
                evaluator,
                Some(recipe),
            )
            .map_err(|error| SimFailure {
                seed: None,
                step: None,
                violations: vec![format!("setup: submit failed: {error}")],
            })?;
        // Compact once at birth so the snapshot always carries the job: a
        // torn tail can then lose shard commits (which recovery re-runs) but
        // never the submission itself.
        registry.compact_store().map_err(|error| SimFailure {
            seed: None,
            step: None,
            violations: vec![format!("setup: initial compaction failed: {error}")],
        })?;
        Ok(Sim {
            config,
            oracle_best,
            store,
            script,
            registry,
            job,
            now: Instant::now(),
            held: Vec::new(),
            violations: Vec::new(),
            kills: 0,
            segments: 1,
        })
    }

    /// Removes and returns the `pick % len`-th held lease.
    fn pick_held(&mut self, pick: u8) -> Option<Lease> {
        if self.held.is_empty() {
            return None;
        }
        let index = usize::from(pick) % self.held.len();
        Some(self.held.remove(index))
    }

    /// A held lease by pick, or a freshly granted one.
    fn pick_or_lease(&mut self, pick: u8) -> Option<Lease> {
        self.pick_held(pick)
            .or_else(|| self.registry.lease_as("sim", self.now))
    }

    /// One flush of a drain, honoring the `commit_veto_bug` knob on the
    /// final (committing) flush.
    fn flush(
        &mut self,
        lease: &Lease,
        delta: ShardReport,
        is_final: bool,
    ) -> spi_explore::Result<()> {
        if !is_final {
            return self.registry.report_batch(lease.lease, delta, self.now);
        }
        if self.config.commit_veto_bug {
            // BUG EMULATION: stage the final delta first, then commit the
            // staged state with an empty delta. A sink veto between the two
            // leaves the stage applied — and the retry re-stages it.
            self.registry.report_batch(lease.lease, delta, self.now)?;
            self.registry
                .complete_shard(lease.lease, ShardReport::default(), self.now)
                .map(|_| ())
        } else {
            self.registry
                .complete_shard(lease.lease, delta, self.now)
                .map(|_| ())
        }
    }

    /// Drains `lease` to completion with the production discipline: a store
    /// error on a flush is retried once with the same delta; a second
    /// failure abandons the lease; a stale lease stops silently (the shard
    /// belongs to someone else now).
    fn drain_commit(&mut self, lease: &Lease, batch: usize) {
        let mut flushes: Vec<(ShardReport, bool)> = Vec::new();
        let metrics = self.registry.metrics();
        let outcome = drain_lease(
            lease,
            batch.max(1),
            &metrics,
            &SpanSink::disabled(),
            || false,
            |delta, is_final| {
                flushes.push((delta, is_final));
                FlushResponse::Continue
            },
        );
        if outcome != DrainOutcome::Completed {
            return; // cancelled mid-drain; nothing coherent to flush
        }
        for (delta, is_final) in flushes {
            match self.flush(lease, delta.clone(), is_final) {
                Ok(()) => {}
                Err(ExploreError::StaleLease(_)) => return,
                Err(ExploreError::Store(_)) => match self.flush(lease, delta, is_final) {
                    Ok(()) => {}
                    Err(_) => {
                        self.registry.abandon(lease.lease);
                        return;
                    }
                },
                Err(_) => {
                    self.registry.abandon(lease.lease);
                    return;
                }
            }
        }
    }

    /// Crash-after-stage: reports up to `batches` single-variant batches,
    /// then the worker goes silent forever — the lease is neither committed
    /// nor abandoned and must be reclaimed by expiry.
    fn drain_crash(&mut self, lease: &Lease, batches: u8) {
        let mut partials: Vec<ShardReport> = Vec::new();
        let metrics = self.registry.metrics();
        let _ = drain_lease(
            lease,
            1,
            &metrics,
            &SpanSink::disabled(),
            || false,
            |delta, is_final| {
                if !is_final && partials.len() < usize::from(batches) {
                    partials.push(delta);
                    FlushResponse::Continue
                } else {
                    FlushResponse::Stop
                }
            },
        );
        for delta in partials {
            if self
                .registry
                .report_batch(lease.lease, delta, self.now)
                .is_err()
            {
                return; // stale: the silent worker's reports bounce
            }
        }
    }

    /// `kill -9`: oracle-check and drop the current registry, chop the
    /// durable tail, recover a fresh registry from what remains.
    fn kill(&mut self, lose_tail: u8) {
        self.kills += 1;
        self.end_segment(false);
        self.held.clear();
        // Armed-but-unconsumed sink faults die with the process.
        *self.script.lock().expect("fault script lock") = FaultScript::default();
        {
            // The torn tail: the last `lose_tail` records never reached the
            // platter. Any prefix of the record stream is a valid earlier
            // durable state, and the setup compaction keeps the submission
            // itself in the snapshot, out of reach.
            let mut store = self.store.lock().expect("store lock");
            let keep = store.records.len().saturating_sub(usize::from(lose_tail));
            store.records.truncate(keep);
            store.log_bytes = store
                .records
                .iter()
                .map(|record| record.to_line().len() as u64 + 1)
                .sum();
        }
        let mut registry = JobRegistry::with_config(registry_config(&self.config));
        let (snapshot, records) = {
            let store = self.store.lock().expect("store lock");
            (store.snapshot.clone(), store.records.clone())
        };
        if let Err(error) = registry.restore(snapshot.as_ref(), &records, &rebuild_from_recipe) {
            self.violations
                .push(format!("recovery: restore failed: {error}"));
        }
        registry.set_sink(Box::new(FaultSink::new(
            Arc::clone(&self.store),
            Arc::clone(&self.script),
        )));
        self.registry = registry;
        self.segments += 1;
    }

    /// Closes one registry incarnation: reads its whole decision trace and
    /// runs the replay, conservation and waitgraph oracles over it. `drained`
    /// asserts the stronger terminal laws (empty queue, no live leases).
    fn end_segment(&mut self, drained: bool) {
        let drain = self.registry.read_trace_since(0);
        if drain.dropped > 0 {
            self.violations.push(format!(
                "replay: trace ring dropped {} events (raise trace_capacity)",
                drain.dropped
            ));
            return;
        }
        let (report, replay_violations) = oracle::check_replay(&drain.events);
        self.violations.extend(replay_violations);
        self.violations
            .extend(oracle::check_conservation(&drain.events, &report, drained));
        self.violations
            .extend(oracle::check_waitgraph(&self.registry.waitgraph()));
    }

    /// Executes one plan event.
    fn apply(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Lease => {
                if let Some(lease) = self.registry.lease_as("sim", self.now) {
                    self.held.push(lease);
                }
            }
            FaultEvent::DrainCommit { pick, batch } => {
                if let Some(lease) = self.pick_or_lease(pick) {
                    self.drain_commit(&lease, usize::from(batch));
                }
            }
            FaultEvent::DrainCrash { pick, batches } => {
                if let Some(lease) = self.pick_or_lease(pick) {
                    self.drain_crash(&lease, batches);
                }
            }
            FaultEvent::CrashBeforeCommit { pick } => {
                // The worker evaluates and dies before any flush: from the
                // registry's perspective the lease simply goes silent.
                let _ = self.pick_or_lease(pick);
            }
            FaultEvent::Advance { ms } => {
                self.now += Duration::from_millis(u64::from(ms));
            }
            FaultEvent::Expire => {
                self.registry.expire(self.now);
            }
            FaultEvent::Abandon { pick } => {
                if let Some(lease) = self.pick_held(pick) {
                    self.registry.abandon(lease.lease);
                }
            }
            FaultEvent::Cancel => {
                // May be vetoed by an armed sink fault — then the job stays
                // running, which the oracles must tolerate.
                let _ = self.registry.cancel(self.job);
            }
            FaultEvent::FailNextAppend => {
                self.script
                    .lock()
                    .expect("fault script lock")
                    .appends
                    .push_back(AppendFault::Fail);
            }
            FaultEvent::TornNextAppend => {
                self.script
                    .lock()
                    .expect("fault script lock")
                    .appends
                    .push_back(AppendFault::Torn);
            }
            FaultEvent::FailNextCompact => {
                self.script.lock().expect("fault script lock").compacts += 1;
            }
            FaultEvent::Compact => {
                let _ = self.registry.compact_store();
            }
            FaultEvent::Kill { lose_tail } => self.kill(lose_tail),
        }
    }

    /// Drives the survivors to a terminal state: expire, lease, drain,
    /// commit — advancing simulated time whenever no work is grantable.
    fn drive(&mut self) {
        for _ in 0..MAX_DRIVE_STEPS {
            let status = match self.registry.poll(self.job) {
                Ok(status) => status,
                Err(error) => {
                    self.violations.push(format!("drive: poll failed: {error}"));
                    return;
                }
            };
            if status.state.is_terminal() {
                return;
            }
            self.registry.expire(self.now);
            match self
                .held
                .pop()
                .or_else(|| self.registry.lease_as("sim", self.now))
            {
                Some(lease) => self.drain_commit(&lease, 3),
                None => {
                    // Nothing grantable: every remaining shard is under a
                    // lost lease. Jump past the deadline so expiry requeues.
                    self.now += self.config.lease_timeout + Duration::from_millis(1);
                }
            }
        }
        self.violations.push(format!(
            "drive: schedule failed to converge within {MAX_DRIVE_STEPS} steps (livelock)"
        ));
    }

    /// Terminal checkpoint: flush the stale queue, then run every oracle.
    fn finish(mut self) -> Result<SimStats, SimFailure> {
        // One final grant attempt drains stale queue entries (recording
        // their dequeues), so the terminal conservation laws are assertable.
        let _ = self.registry.lease_as("sim", self.now);
        let status = match self.registry.poll(self.job) {
            Ok(status) => status,
            Err(error) => {
                self.violations
                    .push(format!("finish: poll failed: {error}"));
                return Err(self.into_failure(None));
            }
        };
        let census = oracle::check_census(&status, status.combinations);
        self.violations.extend(census);
        self.violations.extend(oracle::check_optimum(
            &status,
            self.oracle_best.0,
            self.oracle_best.1,
        ));
        self.end_segment(true);
        if self.violations.is_empty() {
            Ok(SimStats {
                state: status.state,
                accounted: status.report.accounted(),
                shards_done: status.shards_done,
                kills: self.kills,
                segments: self.segments,
            })
        } else {
            Err(self.into_failure(None))
        }
    }

    fn into_failure(self, step: Option<usize>) -> SimFailure {
        SimFailure {
            seed: None,
            step,
            violations: self.violations,
        }
    }
}

fn registry_config(config: &SimConfig) -> RegistryConfig {
    RegistryConfig {
        lease_timeout: config.lease_timeout,
        // Aggressive speculation: one completed sample is enough and a
        // straggler only has to exceed the median, so schedules routinely
        // carry duplicate hedged leases for the oracles to audit.
        hedge: HedgeConfig {
            enabled: true,
            quantile_pct: 50,
            multiplier_pct: 100,
            min_samples: 1,
            max_hedges: 1,
        },
        // Roomy ring: a dropped event would void the replay oracle.
        trace_capacity: 1 << 16,
        ..RegistryConfig::default()
    }
}

/// Runs one explicit plan. `oracle_best` is the workload's serial optimum
/// (from [`SimConfig::serial_oracle`], computed once per config so corpus
/// runs don't re-derive it per seed).
///
/// # Errors
///
/// A [`SimFailure`] carrying every oracle violation, with the plan step
/// whose checkpoint caught it.
pub fn run_plan(
    config: &SimConfig,
    events: &[FaultEvent],
    oracle_best: (usize, u64),
) -> Result<SimStats, SimFailure> {
    let mut sim = Sim::new(config.clone(), oracle_best)?;
    for (step, &event) in events.iter().enumerate() {
        sim.apply(event);
        if !sim.violations.is_empty() {
            return Err(sim.into_failure(Some(step)));
        }
    }
    sim.drive();
    if !sim.violations.is_empty() {
        return Err(sim.into_failure(None));
    }
    sim.finish()
}

/// Runs the seeded plan for `seed` (see [`FaultPlan::for_seed`]).
///
/// # Errors
///
/// As [`run_plan`], with the failure's `seed` filled in.
pub fn run_seed(
    config: &SimConfig,
    seed: u64,
    oracle_best: (usize, u64),
) -> Result<SimStats, SimFailure> {
    let plan = FaultPlan::for_seed(seed);
    run_plan(config, &plan.events, oracle_best).map_err(|mut failure| {
        failure.seed = Some(seed);
        failure
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_faultless_plan_completes_and_matches_the_serial_oracle() {
        let config = SimConfig::default();
        let oracle_best = config.serial_oracle();
        let stats = run_plan(&config, &[], oracle_best).expect("clean run passes every oracle");
        assert_eq!(stats.state, JobState::Completed);
        assert_eq!(stats.accounted, 16);
        assert_eq!(stats.shards_done, 4);
        assert_eq!(stats.kills, 0);
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = SimConfig {
            commit_veto_bug: true,
            ..SimConfig::default()
        };
        let parsed =
            SimConfig::from_json(&JsonValue::parse(&config.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(parsed, config);
    }
}
