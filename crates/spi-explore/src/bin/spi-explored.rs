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
//! same directory and resumes its jobs), `--cache-limit N` (also cap the
//! result cache at N entries, LRU-evicted; the default bound is 16 MiB of
//! cached lines, which applies either way),
//! `--compact-log-bytes N` (compact the WAL whenever the log outgrows N
//! bytes, not only at quiesce), `--no-hedge` (disable speculative
//! re-leases), `--trace-capacity N` (size of the scheduler-decision trace
//! ring that the `trace` op and `watch` read by cursor; 0 disables capture),
//! `--no-metrics` (disable the metrics plane: the `metrics` op's counters,
//! gauges and histograms read 0; its tenant rows and the watchdog keep
//! working), `--span-capacity N` (per-worker span ring
//! capacity, default 65536; 0 disables the profiling plane: phase spans, the
//! `profile`/`spans` ops, span watch frames and the quiesce `profile.json`),
//! `--watchdog-interval MS`
//! (background stall-sweep period for the `health` op; 0 disables the
//! sweeper thread, default 1000). An unknown flag, a flag without its value
//! or a value that is not a non-negative integer prints the usage, names the
//! argument, and exits with status 2.
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

const USAGE: &str = "\
usage: spi-explored [--workers N] [--batch N] [--lease-ms N] [--store DIR]
                    [--cache-limit N] [--compact-log-bytes N] [--no-hedge] [--trace-capacity N]
                    [--no-metrics] [--span-capacity N] [--watchdog-interval MS]
ndjson requests on stdin, one JSON response per line on stdout;
ops: submit | poll | wait | top | jobs | cancel | graph | trace |
     metrics | profile | spans | health | watch | shutdown
--span-capacity 0 turns the profiling plane off, --trace-capacity 0 the
decision trace (then `trace` and `watch` carry no decisions).
EOF on stdin quiesces cleanly: in-flight shards commit, the store compacts.";

/// The value following `flag`; a missing one, or another flag in its place,
/// is an error.
fn value_of(flag: &str, value: Option<String>) -> Result<String, String> {
    value
        .filter(|value| !value.starts_with("--"))
        .ok_or_else(|| format!("`{flag}` needs a value"))
}

fn number_of<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value_of(flag, value)?;
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a non-negative integer, not `{value}`"))
}

/// Parses the command line against the known flags; `Ok(None)` asks for the
/// usage. Any argument that is not a known flag with a well-formed value is
/// an error naming it.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<ServiceConfig>, String> {
    let mut config = ServiceConfig::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--no-hedge" => config.hedge = HedgeConfig::disabled(),
            "--no-metrics" => config.metrics_enabled = false,
            "--store" => config.store_dir = Some(value_of(&flag, args.next())?.into()),
            "--workers" => config.workers = number_of::<usize>(&flag, args.next())?.max(1),
            "--batch" => config.batch_size = number_of::<usize>(&flag, args.next())?.max(1),
            "--lease-ms" => {
                config.lease_timeout =
                    Duration::from_millis(number_of::<u64>(&flag, args.next())?.max(1));
            }
            "--cache-limit" => {
                config.cache_limit.max_entries = Some(number_of(&flag, args.next())?);
            }
            "--compact-log-bytes" => {
                config.compact_log_bytes = Some(number_of(&flag, args.next())?);
            }
            "--trace-capacity" => {
                config.trace_capacity = number_of(&flag, args.next())?;
            }
            "--span-capacity" => config.span_capacity = number_of(&flag, args.next())?,
            "--watchdog-interval" => {
                let interval_ms: u64 = number_of(&flag, args.next())?;
                config.watchdog_interval =
                    (interval_ms > 0).then(|| Duration::from_millis(interval_ms));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(config))
}

/// Both bounds of the result cache, for the startup banner.
fn describe(limit: CacheLimit) -> String {
    let bound = |max: Option<usize>, unit: &str| {
        max.map_or(format!("unbounded {unit}"), |max| format!("{max} {unit}"))
    };
    format!(
        "{} / {}",
        bound(limit.max_entries, "entries"),
        bound(limit.max_bytes, "bytes")
    )
}

fn main() {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(Some(config)) => config,
        Ok(None) => {
            eprintln!("{USAGE}");
            return;
        }
        Err(error) => {
            eprintln!("spi-explored: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "spi-explored: {} workers, batch {}, lease {:?}, store {}, cache limit {}",
        config.workers,
        config.batch_size,
        config.lease_timeout,
        config
            .store_dir
            .as_deref()
            .map_or("none".to_string(), |dir| dir.display().to_string()),
        describe(config.cache_limit),
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
