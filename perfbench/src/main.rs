//! `perfbench` — the Rust half of the exploration-service benchmark.
//!
//! `run.py` drives the release `spi-explored` daemon and calls this binary
//! for the two jobs that need the library in-process:
//!
//! ```text
//! perfbench reference JOBS.ndjson      # one {"id","recipe"} per line → one optimum per line
//! perfbench replay LOG.ndjson OUT_DIR  # traced replay → OUT_DIR/replay.json + trace.json
//! ```
//!
//! Both exit non-zero with a message on stderr when a job fails or the
//! replay disagrees with the daemon.

mod ledger;
mod recipe;
mod reference;
mod replay;

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use spi_model::json::{JsonValue, ToJson};
use spi_variants::Flattener;

/// Reference jobs run concurrently on this many threads (each job's sweep
/// is itself single-threaded).
const REFERENCE_THREADS: usize = 2;

fn reference(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let jobs: Vec<JsonValue> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| JsonValue::parse(line).map_err(|e| format!("reference job: {e}")))
        .collect::<Result<_, _>>()?;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<JsonValue, String>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..REFERENCE_THREADS.min(jobs.len()) {
            scope.spawn(|| loop {
                let at = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(at) else {
                    return;
                };
                let outcome = reference_one(job);
                results.lock().expect("reference results lock")[at] = Some(outcome);
            });
        }
    });
    let mut stdout = std::io::stdout().lock();
    for (job, result) in jobs
        .iter()
        .zip(results.into_inner().expect("reference results lock"))
    {
        let optimum = result.expect("every reference job ran")?;
        let id = job.get("id").cloned().unwrap_or(JsonValue::Null);
        let mut members = vec![("id".to_string(), id)];
        if let JsonValue::Object(fields) = optimum {
            members.extend(fields);
        }
        writeln!(stdout, "{}", JsonValue::Object(members).to_line()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn reference_one(job: &JsonValue) -> Result<JsonValue, String> {
    let recipe = job.get("recipe").ok_or("reference job without `recipe`")?;
    let (system, _) = spi_explore::rebuild_from_recipe(recipe).map_err(|e| e.to_string())?;
    let evaluator = recipe::partition_evaluator(recipe.get("evaluator"))?;
    let flattener = Flattener::new(&system).map_err(|e| e.to_string())?;
    Ok(reference::optimum(&flattener, &evaluator)?.to_json())
}

fn replay(log: &Path, out: &Path) -> Result<(), String> {
    let log = replay::Log::read(log)?;
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let untraced = replay::run_pass(&log, false, out)?;
    let traced = replay::run_pass(&log, true, out)?;
    let metrics = replay::metrics(&untraced, &traced);
    std::fs::write(out.join("replay.json"), metrics.to_line() + "\n").map_err(|e| e.to_string())?;
    std::fs::write(
        out.join("trace.json"),
        ledger::chrome_trace(&traced.threads),
    )
    .map_err(|e| e.to_string())?;
    for dir in ["store-traced", "store-untraced"] {
        let _ = std::fs::remove_dir_all(out.join(dir));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let outcome = match args.get(1).map(String::as_str) {
        Some("reference") if args.len() == 3 => reference(Path::new(&args[2])),
        Some("replay") if args.len() == 4 => replay(Path::new(&args[2]), Path::new(&args[3])),
        _ => Err(
            "usage: perfbench reference JOBS.ndjson | perfbench replay LOG.ndjson OUT_DIR".into(),
        ),
    };
    if let Err(message) = outcome {
        eprintln!("perfbench: {message}");
        std::process::exit(1);
    }
}
