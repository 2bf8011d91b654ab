//! Durability-sink failure paths of the registry: every mutation that
//! write-ahead-logs (submit, shard commit, cancel, compaction) must treat a
//! sink failure as a full veto — the in-memory transition must not happen,
//! the state must stay exactly as it was, and the operation must succeed
//! once the sink heals. Torn appends (record persisted, ack lost) must be
//! deduplicated by recovery.
//!
//! These tests drive the faults through `spi-chaos`'s scripted
//! [`FaultSink`], the same decorator the simulation harness uses.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spi_chaos::{AppendFault, FaultScript, FaultSink};
use spi_explore::{
    drain_lease, rebuild_from_recipe, DrainOutcome, ExploreError, FlushResponse, JobRegistry,
    JobSpec, JobState, Lease, MemoryStore, MetricsRegistry, ShardReport, SpanSink,
};
use spi_model::json::JsonValue;

const COMBINATIONS: usize = 16;

fn recipe() -> JsonValue {
    JsonValue::parse(
        r#"{"system":{"scaling":{"interfaces":4,"clusters":2}},"evaluator":{"kind":"partition","processor_cost":15,"strategy":"exhaustive","mode":"per_application","params":{"kind":"hashed","seed":42}}}"#,
    )
    .unwrap()
}

struct Rig {
    registry: JobRegistry,
    store: Arc<Mutex<MemoryStore>>,
    script: Arc<Mutex<FaultScript>>,
    clock: Instant,
}

impl Rig {
    fn new() -> Rig {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        let script = Arc::new(Mutex::new(FaultScript::default()));
        let mut registry = JobRegistry::new(Duration::from_secs(10));
        registry.set_sink(Box::new(FaultSink::new(
            Arc::clone(&store),
            Arc::clone(&script),
        )));
        Rig {
            registry,
            store,
            script,
            clock: Instant::now(),
        }
    }

    fn arm(&self, fault: AppendFault) {
        self.script.lock().unwrap().appends.push_back(fault);
    }

    fn submit(&mut self) -> spi_explore::Result<spi_explore::JobId> {
        let (system, evaluator) = rebuild_from_recipe(&recipe()).unwrap();
        self.registry.submit_with_recipe(
            &system,
            JobSpec {
                name: "sink-faults".into(),
                shard_count: 4,
                top_k: COMBINATIONS,
                ..JobSpec::default()
            },
            evaluator,
            Some(recipe()),
        )
    }

    fn records(&self) -> usize {
        self.store.lock().unwrap().records.len()
    }

    /// Evaluates the lease's whole shard into one final delta (no flushes
    /// applied to the registry — the caller decides how to commit it).
    fn evaluate(lease: &Lease) -> ShardReport {
        let mut merged = ShardReport::default();
        let outcome = drain_lease(
            lease,
            COMBINATIONS,
            &MetricsRegistry::disabled(),
            &SpanSink::disabled(),
            || false,
            |delta, _is_final| {
                merged.merge(&delta, COMBINATIONS);
                FlushResponse::Continue
            },
        );
        assert_eq!(outcome, DrainOutcome::Completed);
        merged
    }
}

#[test]
fn submit_through_a_failing_sink_registers_nothing_and_heals() {
    let mut rig = Rig::new();
    rig.arm(AppendFault::Fail);
    let refused = rig.submit();
    assert!(
        matches!(refused, Err(ExploreError::Store(_))),
        "{refused:?}"
    );
    assert!(
        rig.registry.job_ids().is_empty(),
        "vetoed submit must not register"
    );
    assert!(
        rig.registry.lease(rig.clock).is_none(),
        "nothing may be leased"
    );
    assert_eq!(rig.records(), 0, "nothing may be persisted");

    // Healed: the identical submission goes through.
    let job = rig.submit().expect("sink healed");
    assert_eq!(rig.registry.poll(job).unwrap().state, JobState::Running);
    assert_eq!(rig.records(), 1);
}

#[test]
fn vetoed_commit_leaves_state_unchanged_and_the_same_delta_retries() {
    let mut rig = Rig::new();
    let job = rig.submit().unwrap();
    let lease = rig.registry.lease(rig.clock).unwrap();
    let delta = Rig::evaluate(&lease);

    rig.arm(AppendFault::Fail);
    let before = rig.registry.poll(job).unwrap();
    let vetoed = rig
        .registry
        .complete_shard(lease.lease, delta.clone(), rig.clock);
    assert!(matches!(vetoed, Err(ExploreError::Store(_))), "{vetoed:?}");
    let after = rig.registry.poll(job).unwrap();
    assert_eq!(
        after.shards_done, before.shards_done,
        "commit must be vetoed"
    );
    assert_eq!(
        after.report.evaluated, before.report.evaluated,
        "staged census must be unchanged by the veto"
    );

    // The lease survived the veto: the very same delta commits cleanly and
    // nothing is double-counted.
    rig.registry
        .complete_shard(lease.lease, delta, rig.clock)
        .expect("same-delta retry is safe");
    let done = rig.registry.poll(job).unwrap();
    assert_eq!(done.shards_done, 1);
    assert_eq!(done.report.accounted(), (COMBINATIONS / 4) as u64);
}

#[test]
fn a_twice_vetoed_shard_stays_re_leasable_after_abandon() {
    let mut rig = Rig::new();
    let job = rig
        .registry
        .submit_with_recipe(
            &rebuild_from_recipe(&recipe()).unwrap().0,
            JobSpec {
                name: "sink-faults".into(),
                shard_count: 1,
                top_k: COMBINATIONS,
                ..JobSpec::default()
            },
            rebuild_from_recipe(&recipe()).unwrap().1,
            Some(recipe()),
        )
        .unwrap();
    let lease = rig.registry.lease(rig.clock).unwrap();
    let delta = Rig::evaluate(&lease);

    rig.arm(AppendFault::Fail);
    rig.arm(AppendFault::Fail);
    assert!(rig
        .registry
        .complete_shard(lease.lease, delta.clone(), rig.clock)
        .is_err());
    assert!(rig
        .registry
        .complete_shard(lease.lease, delta, rig.clock)
        .is_err());
    rig.registry.abandon(lease.lease);

    // The shard went back to the queue; a fresh lease finishes the job with
    // an exact census — the abandoned attempts left no residue.
    let lease = rig.registry.lease(rig.clock).expect("shard re-leasable");
    let delta = Rig::evaluate(&lease);
    rig.registry
        .complete_shard(lease.lease, delta, rig.clock)
        .expect("healed sink commits");
    let status = rig.registry.poll(job).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.report.accounted(), COMBINATIONS as u64);
}

#[test]
fn vetoed_cancel_keeps_the_job_running_and_heals() {
    let mut rig = Rig::new();
    let job = rig.submit().unwrap();
    rig.arm(AppendFault::Fail);
    let vetoed = rig.registry.cancel(job);
    assert!(matches!(vetoed, Err(ExploreError::Store(_))), "{vetoed:?}");
    assert_eq!(
        rig.registry.poll(job).unwrap().state,
        JobState::Running,
        "vetoed cancel must leave the job running"
    );
    assert!(
        rig.registry.lease(rig.clock).is_some(),
        "a running job's shards stay leasable after a vetoed cancel"
    );

    let status = rig.registry.cancel(job).expect("healed sink cancels");
    assert_eq!(status.state, JobState::Cancelled);
}

#[test]
fn vetoed_compaction_keeps_the_log_replayable() {
    let mut rig = Rig::new();
    let job = rig.submit().unwrap();
    let lease = rig.registry.lease(rig.clock).unwrap();
    let delta = Rig::evaluate(&lease);
    rig.registry
        .complete_shard(lease.lease, delta, rig.clock)
        .unwrap();
    let records_before = rig.records();
    assert!(records_before >= 2, "submit + shard records expected");

    rig.script.lock().unwrap().compacts = 1;
    assert!(rig.registry.compact_store().is_err());
    let store = rig.store.lock().unwrap();
    assert!(
        store.snapshot.is_none(),
        "failed compaction must not snapshot"
    );
    assert_eq!(store.records.len(), records_before, "log must be untouched");
    drop(store);

    // The untouched log still recovers the exact committed state.
    let (snapshot, records) = {
        let store = rig.store.lock().unwrap();
        (store.snapshot.clone(), store.records.clone())
    };
    let mut recovered = JobRegistry::new(Duration::from_secs(10));
    recovered
        .restore(snapshot.as_ref(), &records, &rebuild_from_recipe)
        .unwrap();
    assert_eq!(recovered.poll(job).unwrap().shards_done, 1);
}

#[test]
fn torn_commit_appends_are_deduplicated_by_recovery() {
    let mut rig = Rig::new();
    let job = rig.submit().unwrap();
    let lease = rig.registry.lease(rig.clock).unwrap();
    let delta = Rig::evaluate(&lease);

    // The append lands but the ack is lost: the worker-side retry persists a
    // second, identical commit record.
    rig.arm(AppendFault::Torn);
    assert!(rig
        .registry
        .complete_shard(lease.lease, delta.clone(), rig.clock)
        .is_err());
    rig.registry
        .complete_shard(lease.lease, delta, rig.clock)
        .expect("retry commits");
    assert_eq!(
        rig.records(),
        3,
        "submit + torn shard record + retried shard record"
    );

    // Recovery replays both records but counts the shard once.
    let (snapshot, records) = {
        let store = rig.store.lock().unwrap();
        (store.snapshot.clone(), store.records.clone())
    };
    let mut recovered = JobRegistry::new(Duration::from_secs(10));
    recovered
        .restore(snapshot.as_ref(), &records, &rebuild_from_recipe)
        .unwrap();
    let status = recovered.poll(job).unwrap();
    assert_eq!(
        status.shards_done, 1,
        "duplicate record must not double-commit"
    );
    assert_eq!(
        status.report.accounted(),
        (COMBINATIONS / 4) as u64,
        "census must not double-count the torn append"
    );
}
