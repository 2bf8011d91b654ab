//! The exploration service end to end: submit the scenario suite as jobs,
//! poll their progress while a worker pool drains the variant spaces, and
//! print the per-scenario optimum — then drive the same flow once more over
//! the ndjson wire protocol `spi-explored` speaks.
//!
//! Run with `cargo run --release --example exploration_service`.

use std::sync::Arc;
use std::time::Duration;

use spi_repro::explore::{serve, ExplorationService, JobSpec, PartitionEvaluator, ServiceConfig};
use spi_repro::model::json::JsonValue;
use spi_repro::workloads::exploration_suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- in-process client API ---------------------------------------------------
    //
    // One long-running service; jobs are independent and drain concurrently.
    let service = ExplorationService::start(ServiceConfig::with_workers(4));
    println!("service up with {} workers\n", service.worker_count());

    for (name, system) in exploration_suite()? {
        let combinations = system.variant_space().count();
        let job = service.submit(
            &system,
            JobSpec {
                name: name.clone(),
                shard_count: 8,
                top_k: 3,
                ..JobSpec::default()
            },
            // The default evaluator: pose each flattened variant as a
            // single-application synthesis problem and run the compiled
            // partition search. Implement `Evaluator` to plug in your own.
            Arc::new(PartitionEvaluator::default()),
        )?;

        // Progress is read, never pushed: poll the job's live snapshot
        // (committed plus staged results) until it is terminal. A client
        // that only wants the answer calls `wait`, which blocks instead.
        let mut improvements = 0;
        let mut best_seen = None;
        let status = loop {
            let status = service.poll(job)?;
            let best = status.best().map(|best| best.cost);
            if best.is_some() && best != best_seen {
                improvements += 1;
                best_seen = best;
            }
            if status.state.is_terminal() {
                break status;
            }
            std::thread::sleep(Duration::from_millis(1));
        };

        let best = status
            .best()
            .expect("every scenario has a feasible variant");
        println!(
            "{name}: {combinations} variants in {} shards",
            status.shard_count
        );
        println!(
            "  evaluated {} (pruned {}, improvements seen while polling {})",
            status.report.evaluated, status.report.pruned, improvements
        );
        println!(
            "  optimum: variant #{} cost {} — {} ({})",
            best.index, best.cost, best.choice, best.detail
        );
        for runner_up in status.report.top.iter().skip(1) {
            println!(
                "  runner-up: variant #{} cost {}",
                runner_up.index, runner_up.cost
            );
        }
        println!();
    }

    // --- the same thing over the wire --------------------------------------------
    //
    // `spi-explored` wraps exactly this loop around stdin/stdout; here the
    // requests come from a string (against a fresh service, so the submitted
    // job predictably gets id 0) to keep the example self-contained.
    let wire_service = ExplorationService::start(ServiceConfig::with_workers(4));
    let requests = concat!(
        "{\"op\":\"submit\",\"name\":\"wire-demo\",",
        "\"system\":{\"scaling\":{\"interfaces\":8,\"clusters\":2}},\"shards\":8,\"top_k\":3}\n",
        "{\"op\":\"wait\",\"job\":0}\n",
        "{\"op\":\"shutdown\"}\n",
    );
    let mut responses = Vec::new();
    serve(&wire_service, requests.as_bytes(), &mut responses)?;
    println!("ndjson session:");
    for line in String::from_utf8(responses)?.lines() {
        let value = JsonValue::parse(line)?;
        match value.get("op").and_then(JsonValue::as_str) {
            Some("wait") => println!(
                "  wait → state {} best {}",
                value.get("state").unwrap(),
                value.get("best").unwrap().to_line()
            ),
            Some(op) => println!("  {op} → {}", line),
            None => println!("  {line}"),
        }
    }
    Ok(())
}
