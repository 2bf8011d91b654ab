//! The five property oracles every simulated schedule must satisfy.
//!
//! Each oracle returns the violations it found (empty ⇔ the property held),
//! so the driver can aggregate them into one [`SimFailure`] instead of
//! panicking at the first anomaly:
//!
//! 1. **Census** ([`check_census`]) — exactly-once accounting: a completed
//!    job accounts every combination exactly once, its top-K is strictly
//!    ordered and duplicate-free.
//! 2. **Optimum** ([`check_optimum`]) — the completed job's best variant is
//!    bit-identical to the serial reference oracle.
//! 3. **Replay** ([`check_replay`]) — the drained decision trace replays
//!    cleanly through [`TraceReplay::check`].
//! 4. **Waitgraph** ([`check_waitgraph`]) — the registry's wait-for graph
//!    passes [`GraphSnapshot::validate`].
//! 5. **Conservation** ([`check_conservation`]) — every granted lease is
//!    accounted for by exactly one fate, and no enqueued shard is dispatched
//!    twice or, once the segment is drained, left behind. (The metrics
//!    counters need no law of their own: the registry derives them from the
//!    traced decisions through `MetricsRegistry::count`.)
//!
//! [`SimFailure`]: crate::sim::SimFailure

use spi_explore::{JobState, JobStatus};
use spi_model::introspect::GraphSnapshot;
use spi_model::json::JsonValue;
use spi_store::trace::{ReplayReport, TraceEvent, TraceReplay, TracedEvent};

/// Oracle 1 — exactly-once census over a registry-level [`JobStatus`].
///
/// For a completed job every combination is accounted exactly once and every
/// shard committed; for a cancelled job the partial census must still never
/// over-count. In both cases the top list must be strictly `(cost, index)`
/// ordered with no duplicate index, and the counter split must be coherent.
pub fn check_census(status: &JobStatus, combinations: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let accounted = status.report.accounted();
    match status.state {
        JobState::Completed => {
            if accounted != combinations as u64 {
                violations.push(format!(
                    "census: completed job accounted {accounted} of {combinations} combinations"
                ));
            }
            if status.shards_done != status.shard_count {
                violations.push(format!(
                    "census: completed job committed {} of {} shards",
                    status.shards_done, status.shard_count
                ));
            }
        }
        JobState::Cancelled => {
            if accounted > combinations as u64 {
                violations.push(format!(
                    "census: cancelled job over-counted ({accounted} > {combinations})"
                ));
            }
        }
        JobState::Running => {
            violations.push("census: job is not terminal".to_string());
        }
    }
    if status.state.is_terminal() && status.shards_in_flight != 0 {
        violations.push(format!(
            "census: terminal job still reports {} shards in flight",
            status.shards_in_flight
        ));
    }
    if status.report.feasible > status.report.evaluated {
        violations.push(format!(
            "census: feasible ({}) exceeds evaluated ({})",
            status.report.feasible, status.report.evaluated
        ));
    }
    violations.extend(check_top_order(&status.report.top, status.report.feasible));
    violations
}

/// The top-K ordering half of the census oracle, shared with the wire-level
/// checker: strictly increasing `(cost, index)` keys (which also forbids
/// duplicate indices) and no more entries than feasible variants.
pub fn check_top_order(top: &[spi_explore::BestVariant], feasible: u64) -> Vec<String> {
    let mut violations = Vec::new();
    if top.len() as u64 > feasible {
        violations.push(format!(
            "census: top holds {} entries but only {feasible} variants were feasible",
            top.len()
        ));
    }
    for pair in top.windows(2) {
        if (pair[0].cost, pair[0].index) >= (pair[1].cost, pair[1].index) {
            violations.push(format!(
                "census: top not strictly (cost, index) ordered at index {} \
                 (({}, {}) then ({}, {}))",
                pair[0].index, pair[0].cost, pair[0].index, pair[1].cost, pair[1].index
            ));
        }
    }
    violations
}

/// Oracle 2 — the completed job's optimum is bit-identical to the serial
/// reference `(index, cost)`. Only meaningful for completed jobs; cancelled
/// jobs have no exactness claim to check.
pub fn check_optimum(status: &JobStatus, oracle_index: usize, oracle_cost: u64) -> Vec<String> {
    if status.state != JobState::Completed {
        return Vec::new();
    }
    match status.best() {
        None => vec!["optimum: completed job found no feasible variant".to_string()],
        Some(best) if (best.index, best.cost) != (oracle_index, oracle_cost) => {
            vec![format!(
                "optimum: got (index {}, cost {}), serial oracle says (index {oracle_index}, \
                 cost {oracle_cost})",
                best.index, best.cost
            )]
        }
        Some(_) => Vec::new(),
    }
}

/// Oracle 3 — the drained decision trace replays cleanly. Returns the full
/// [`ReplayReport`] (the conservation oracle consumes its derived counts)
/// along with any violations, each prefixed for attribution.
pub fn check_replay(events: &[TracedEvent]) -> (ReplayReport, Vec<String>) {
    let report = TraceReplay::check(events);
    let violations = report
        .violations
        .iter()
        .map(|violation| format!("replay: {violation}"))
        .collect();
    (report, violations)
}

/// Oracle 4 — the registry's waitgraph snapshot is structurally valid.
pub fn check_waitgraph(snapshot: &GraphSnapshot) -> Vec<String> {
    match snapshot.validate() {
        Ok(()) => Vec::new(),
        Err(message) => vec![format!("waitgraph: {message}")],
    }
}

/// Oracle 5 — conservation laws over one trace segment (one registry
/// incarnation, from birth or restore to kill or quiesce):
///
/// * every granted lease has exactly one fate:
///   `grants = commits + expiries + abandons + retired_by_commit + live`;
/// * dispatches never exceed enqueues, with equality (and no live leases)
///   once the segment is `drained` — terminal job, stale queue flushed.
pub fn check_conservation(
    events: &[TracedEvent],
    replay: &ReplayReport,
    drained: bool,
) -> Vec<String> {
    let mut violations = Vec::new();

    let fates = replay.commits
        + replay.expiries
        + replay.abandons
        + replay.retired_by_commit
        + replay.live_leases;
    if replay.grants != fates {
        violations.push(format!(
            "conservation: {} grants but {fates} fates ({} commits + {} expiries + {} abandons \
             + {} retired-by-commit + {} live)",
            replay.grants,
            replay.commits,
            replay.expiries,
            replay.abandons,
            replay.retired_by_commit,
            replay.live_leases
        ));
    }

    let enqueues = events
        .iter()
        .filter(|traced| matches!(traced.event, TraceEvent::WfqEnqueue { .. }))
        .count() as u64;
    if replay.dispatches > enqueues {
        violations.push(format!(
            "conservation: {} dispatches exceed {enqueues} enqueues",
            replay.dispatches
        ));
    }
    if drained {
        if replay.dispatches != enqueues {
            violations.push(format!(
                "conservation: drained segment left {} of {enqueues} enqueues undispatched",
                enqueues - replay.dispatches
            ));
        }
        if replay.live_leases != 0 {
            violations.push(format!(
                "conservation: drained segment left {} leases live",
                replay.live_leases
            ));
        }
    }

    violations
}

/// The census oracle over a **wire-level** status object (one ndjson line
/// from `poll`/`wait`), for the `spi-chaos check-census` CLI that audits the
/// kill -9 smoke test: same exactly-once and top-ordering laws, read from
/// the JSON fields instead of a [`JobStatus`].
pub fn check_wire_census(status: &JsonValue, expect_combinations: Option<u64>) -> Vec<String> {
    let mut violations = Vec::new();
    let field = |key: &str| status.get(key).and_then(JsonValue::as_u64);
    let (Some(state), Some(combinations)) = (
        status.get("state").and_then(JsonValue::as_str),
        field("combinations"),
    ) else {
        return vec!["census: status line lacks `state`/`combinations`".to_string()];
    };
    if let Some(expected) = expect_combinations {
        if combinations != expected {
            violations.push(format!(
                "census: space holds {combinations} combinations, expected {expected}"
            ));
        }
    }
    let accounted = field("evaluated").unwrap_or(0)
        + field("pruned").unwrap_or(0)
        + field("errors").unwrap_or(0);
    match state {
        "completed" => {
            if accounted != combinations {
                violations.push(format!(
                    "census: completed job accounted {accounted} of {combinations} combinations"
                ));
            }
            if field("shards_done") != field("shards") {
                violations.push(format!(
                    "census: completed job committed {:?} of {:?} shards",
                    field("shards_done"),
                    field("shards")
                ));
            }
        }
        // A non-terminal line (a submit ack, a mid-flight poll) carries a
        // partial census; it must never over-count, but completeness is not
        // yet its law.
        "cancelled" | "running" => {
            if accounted > combinations {
                violations.push(format!(
                    "census: {state} job over-counted ({accounted} > {combinations})"
                ));
            }
        }
        other => violations.push(format!("census: unknown job state `{other}`")),
    }
    if state != "running" {
        if let Some(in_flight) = field("shards_in_flight") {
            if in_flight != 0 {
                violations.push(format!(
                    "census: terminal job still reports {in_flight} shards in flight"
                ));
            }
        }
    }
    if let (Some(top), Some(feasible)) = (
        status.get("top").and_then(JsonValue::as_array),
        field("feasible"),
    ) {
        let mut keys = Vec::new();
        for entry in top {
            match (
                entry.get("cost").and_then(JsonValue::as_u64),
                entry.get("index").and_then(JsonValue::as_u64),
            ) {
                (Some(cost), Some(index)) => keys.push((cost, index)),
                _ => violations.push("census: top entry lacks cost/index".to_string()),
            }
        }
        if keys.len() as u64 > feasible {
            violations.push(format!(
                "census: top holds {} entries but only {feasible} variants were feasible",
                keys.len()
            ));
        }
        for pair in keys.windows(2) {
            if pair[0] >= pair[1] {
                violations.push(format!(
                    "census: top not strictly (cost, index) ordered ({:?} then {:?})",
                    pair[0], pair[1]
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_census_accepts_a_clean_completed_status() {
        let line = r#"{"state":"completed","combinations":16,"evaluated":10,"pruned":6,
            "errors":0,"feasible":4,"shards":4,"shards_done":4,
            "top":[{"cost":5,"index":2},{"cost":7,"index":1}]}"#;
        let status = JsonValue::parse(line).unwrap();
        assert!(check_wire_census(&status, Some(16)).is_empty());
    }

    #[test]
    fn wire_census_rejects_an_over_counted_space() {
        let line = r#"{"state":"completed","combinations":16,"evaluated":12,"pruned":6,
            "errors":0,"feasible":4,"shards":4,"shards_done":4,"top":[]}"#;
        let status = JsonValue::parse(line).unwrap();
        let violations = check_wire_census(&status, None);
        assert!(
            violations.iter().any(|v| v.contains("accounted 18 of 16")),
            "{violations:?}"
        );
    }

    #[test]
    fn wire_census_accepts_a_running_partial_but_rejects_over_count() {
        let running = r#"{"state":"running","combinations":16,"evaluated":4,"pruned":0,
            "errors":0,"feasible":2,"shards":4,"shards_done":1,"top":[]}"#;
        let status = JsonValue::parse(running).unwrap();
        assert!(check_wire_census(&status, Some(16)).is_empty());
        let over = r#"{"state":"running","combinations":16,"evaluated":20,"pruned":0,
            "errors":0,"feasible":2,"shards":4,"shards_done":1,"top":[]}"#;
        let status = JsonValue::parse(over).unwrap();
        assert!(!check_wire_census(&status, Some(16)).is_empty());
    }

    #[test]
    fn wire_census_rejects_disordered_top() {
        let line = r#"{"state":"cancelled","combinations":16,"evaluated":4,"pruned":0,
            "errors":0,"feasible":3,
            "top":[{"cost":7,"index":1},{"cost":5,"index":2}]}"#;
        let status = JsonValue::parse(line).unwrap();
        assert!(!check_wire_census(&status, None).is_empty());
    }
}
