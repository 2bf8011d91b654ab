//! `spi-explored` — the exploration service as a process.
//!
//! Speaks the ndjson protocol of [`spi_explore::wire`] over stdin/stdout:
//!
//! ```text
//! $ echo '{"op":"submit","system":{"scaling":{"interfaces":5,"clusters":2}},"shards":8}
//! {"op":"wait","job":0}
//! {"op":"shutdown"}' | spi-explored --workers 8 --store /var/lib/spi
//! ```
//!
//! Flags: `--workers N` (pool size, default: available parallelism),
//! `--batch N` (variants per result batch, default 256), `--lease-ms N`
//! (lease timeout, default 30000), `--store DIR` (durable job state: WAL +
//! snapshot + result cache; the process can be killed and restarted on the
//! same directory and resumes its jobs), `--cache-limit N` (cap the result
//! cache at N entries, LRU-evicted; default unbounded),
//! `--compact-log-bytes N` (compact the WAL whenever the log outgrows N
//! bytes, not only at quiesce), `--no-hedge` (disable speculative
//! re-leases), `--trace-capacity N` (size of the scheduler-decision trace
//! ring that the `trace` op and `watch` read by cursor; 0 disables capture),
//! `--no-metrics` (disable the metrics plane: counters, histograms, the
//! `metrics` op and the watchdog), `--span-capacity N` (per-worker span ring
//! capacity, default 65536; 0 disables the profiling plane: phase spans, the
//! `profile`/`spans` ops, span watch frames and the quiesce `profile.json`),
//! `--watchdog-interval MS`
//! (background stall-sweep period for the `health` op; 0 disables the
//! sweeper thread, default 1000).
//! Diagnostics go to stderr; stdout carries exactly one JSON response line
//! per request — except `watch`, which streams frames until the service
//! goes idle.
//!
//! Shutdown semantics: both the `shutdown` op and **EOF on stdin** end the
//! session cleanly — in-flight shard drains run to completion and commit,
//! then the store is compacted and synced. Pending shards resume on the next
//! start over the same `--store` directory.
//!
//! The full operator guide — every op with request/response examples, flag
//! reference and recovery semantics — lives in `docs/spi-explored.md`.

use std::io::{BufReader, Write};
use std::time::Duration;

use spi_explore::{run_session, ExplorationService, HedgeConfig, ServiceConfig};
use spi_store::CacheLimit;

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|at| args.get(at + 1))
        .and_then(|value| value.parse().ok())
}

fn parse_text_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        eprintln!(
            "usage: spi-explored [--workers N] [--batch N] [--lease-ms N] [--store DIR]\n\
                    [--cache-limit N] [--compact-log-bytes N] [--no-hedge] [--trace-capacity N]\n\
                    [--no-metrics] [--span-capacity N] [--watchdog-interval MS]\n\
             ndjson requests on stdin, one JSON response per line on stdout;\n\
             ops: submit | poll | wait | top | jobs | cancel | graph | trace |\n\
                  metrics | profile | spans | health | watch | shutdown\n\
             --span-capacity 0 turns the profiling plane off, --trace-capacity 0 the\n\
             decision trace (then `trace` and `watch` carry no decisions).\n\
             EOF on stdin quiesces cleanly: in-flight shards commit, the store compacts."
        );
        return;
    }
    let mut config = ServiceConfig::default();
    if let Some(workers) = parse_flag(&args, "--workers") {
        config.workers = (workers as usize).max(1);
    }
    if let Some(batch) = parse_flag(&args, "--batch") {
        config.batch_size = (batch as usize).max(1);
    }
    if let Some(lease_ms) = parse_flag(&args, "--lease-ms") {
        config.lease_timeout = Duration::from_millis(lease_ms.max(1));
    }
    if let Some(store) = parse_text_flag(&args, "--store") {
        config.store_dir = Some(store.into());
    }
    if let Some(entries) = parse_flag(&args, "--cache-limit") {
        config.cache_limit = CacheLimit::entries(entries as usize);
    }
    if let Some(bytes) = parse_flag(&args, "--compact-log-bytes") {
        config.compact_log_bytes = Some(bytes);
    }
    if args.iter().any(|arg| arg == "--no-hedge") {
        config.hedge = HedgeConfig::disabled();
    }
    if let Some(capacity) = parse_flag(&args, "--trace-capacity") {
        config.trace_capacity = capacity as usize;
    }
    if args.iter().any(|arg| arg == "--no-metrics") {
        config.metrics_enabled = false;
    }
    if let Some(capacity) = parse_flag(&args, "--span-capacity") {
        config.span_capacity = capacity as usize;
    }
    if let Some(interval_ms) = parse_flag(&args, "--watchdog-interval") {
        config.watchdog_interval = if interval_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(interval_ms))
        };
    }

    eprintln!(
        "spi-explored: {} workers, batch {}, lease {:?}, store {}, cache limit {}",
        config.workers,
        config.batch_size,
        config.lease_timeout,
        config
            .store_dir
            .as_deref()
            .map_or("none".to_string(), |dir| dir.display().to_string()),
        config
            .cache_limit
            .max_entries
            .map_or("unbounded".to_string(), |n| format!("{n} entries")),
    );
    let service = match ExplorationService::try_start(config) {
        Ok(service) => service,
        Err(error) => {
            eprintln!("spi-explored: failed to start: {error}");
            std::process::exit(1);
        }
    };
    let restored = service.restored();
    if restored.jobs > 0 {
        eprintln!(
            "spi-explored: recovered {} jobs ({} resumed, {} shards requeued, \
             {} unrecoverable, {} cached results)",
            restored.jobs,
            restored.resumed,
            restored.requeued_shards,
            restored.unrecoverable,
            restored.cache_entries,
        );
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    if let Err(error) = run_session(&service, BufReader::new(stdin.lock()), &mut stdout) {
        eprintln!("spi-explored: i/o error: {error}");
    }
    let _ = stdout.flush();
}
