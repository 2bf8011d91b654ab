//! A client that follows the `trace` op by cursor — each request passes the
//! `next` the previous answer carried as its `since` — must see every
//! scheduler decision exactly once while workers keep recording them.
//!
//! The answer's `next` has to be read under the same registry lock as its
//! events. Read under a second lock, it can count decisions recorded in
//! between, which no window then holds: the client's next request starts
//! past them.

use std::sync::Arc;

use spi_explore::{
    serve, Evaluation, ExplorationService, FnEvaluator, JobSpec, ServiceConfig, TracedEvent,
};
use spi_model::json::{FromJson, JsonValue};
use spi_workloads::scaling_system;

/// Independent rounds, each a fresh service running one job. A lost
/// decision needs a worker to take the lock between the two reads; with
/// `next` read apart from the events, five rounds missed some in 7 of 13
/// runs and forty rounds in 15 of 15 (on 2 vCPUs).
const ROUNDS: usize = 40;

/// Sends `{"op":"trace","since":since}` through the ndjson loop and returns
/// the answer's events and `next` cursor.
fn trace_window(service: &ExplorationService, since: u64) -> (Vec<TracedEvent>, u64) {
    let request = format!("{{\"op\":\"trace\",\"since\":{since}}}\n");
    let mut answer = Vec::new();
    serve(service, request.as_bytes(), &mut answer).unwrap();
    let answer = JsonValue::parse(std::str::from_utf8(&answer).unwrap().trim()).unwrap();
    assert_eq!(answer.get("ok").unwrap().as_bool(), Some(true));
    let events = answer
        .get("events")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|event| TracedEvent::from_json(event).unwrap())
        .collect();
    (events, answer.get("next").unwrap().as_u64().unwrap())
}

#[test]
fn a_client_following_next_sees_every_decision_once() {
    for round in 0..ROUNDS {
        let service = ExplorationService::start(ServiceConfig {
            workers: 2,
            batch_size: 1,
            ..ServiceConfig::default()
        });
        // 1024 variants over 256 shards, every variant its own flush: about
        // 2,000 decisions, recorded as fast as two workers can take the lock.
        let system = scaling_system(10, 2).unwrap();
        let evaluator = Arc::new(FnEvaluator::new(|index, _choice, _graph| {
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: "followed".into(),
                    shard_count: 256,
                    use_cache: false,
                    ..JobSpec::default()
                },
                evaluator,
            )
            .unwrap();
        let mut seen = Vec::new();
        let mut cursor = 0u64;
        loop {
            // Read the state first: a window read after the job finished is
            // the last one needed.
            let finished = service.poll(job).unwrap().state.is_terminal();
            let (events, next) = trace_window(&service, cursor);
            for traced in &events {
                assert!(traced.seq >= cursor, "a window went back before its cursor");
            }
            assert!(next >= cursor, "the cursor went backwards");
            seen.extend(events.iter().map(|traced| traced.seq));
            cursor = next;
            if finished {
                break;
            }
        }
        assert_eq!(
            service.read_trace_since(0).dropped,
            0,
            "the default ring holds the whole run"
        );
        assert_eq!(
            cursor,
            service.trace_next_seq(),
            "the last window ends at the final next"
        );
        assert_eq!(
            seen,
            (0..cursor).collect::<Vec<_>>(),
            "round {round}: the windows missed {} of {cursor} decisions",
            cursor.saturating_sub(seen.len() as u64)
        );
    }
}
