//! The ndjson wire protocol of `spi-explored`.
//!
//! One JSON object per line in, one JSON object per line out — a protocol a
//! shell script, a CI step or another service can drive over stdin/stdout.
//! Requests name an `"op"`; responses echo the op and carry `"ok"`:
//!
//! ```text
//! → {"op":"submit","system":{"scaling":{"interfaces":5,"clusters":2}},"shards":8,"top_k":4}
//! ← {"ok":true,"op":"submit","job":0,"combinations":32,"shards":8}
//! → {"op":"wait","job":0}
//! ← {"ok":true,"op":"wait","job":0,"state":"completed","evaluated":32,...,"best":{...},"top":[...]}
//! → {"op":"shutdown"}
//! ← {"ok":true,"op":"shutdown"}
//! ```
//!
//! Ops: `submit`, `poll`, `wait`, `top`, `jobs`, `cancel`, `graph`, `trace`,
//! `metrics`, `profile`, `spans`, `health`, `watch`, `shutdown`.
//! `submit` also takes `tenant` (fair-queuing bucket), `weight` (its WFQ
//! share) and `no_cache` (the job neither reads nor writes the result
//! cache); responses carry `cache_hit` so a client can tell a
//! served-from-cache job (`evaluated` is then 0 and `top` is the cached
//! optimum). A finished job stays answerable until more than 1,024 jobs
//! finished after it; `poll`, `wait`, `top` and
//! `cancel` on it then answer `{"ok":false,"error":"job N was retired",
//! "retired":true}` at once, and `jobs` lists (and rolls up) only the
//! running and retained jobs. `trace` reads the decision ring
//! from a `since` cursor (default 0) without consuming anything, and answers
//! the `next` cursor read with the events. `metrics` returns the full
//! [`MetricsRegistry`](spi_store::MetricsRegistry) snapshot under a
//! `captured_unix_ms`/`uptime_ns` capture header, `profile` returns the
//! span-derived per-phase profile (counts, total/self time, latency
//! histograms, folded flamegraph stacks, per-job critical paths), `spans`
//! exports every recorded span as Chrome trace-event JSON (load it in
//! Perfetto), `health` runs a stall-watchdog sweep, and `watch` upgrades the
//! session to a **stream** — multiple response lines (`frame`: `trace` /
//! `metrics` / `spans` / `lagged` / `end`) until the service goes idle; see
//! [`serve`]. `jobs`, `trace`, `spans` and `watch` are written by [`serve`]
//! as they are read, never held as one tree, so [`handle_request`] refuses
//! them.
//! Malformed
//! requests answer `{"ok":false,"error":...}` and the stream continues; only
//! `shutdown` (or EOF) ends [`serve`] — [`run_session`] then quiesces the
//! service, so a closed stdin is a clean shutdown (in-flight shards commit,
//! the store compacts), not an exit mid-drain.
//!
//! Systems are specified by **construction recipe** — `{"scaling":
//! {"interfaces":k,"clusters":m}}`, a full `{"synthetic":{...}}` parameter
//! set, or a named `{"scenario":"tv"|"automotive"|"figure2"}` — rather than
//! as a serialized graph: recipes are a few bytes, deterministic, and the
//! generators already live in `spi-workloads` on both sides. Results travel
//! back with every symbol resolved to its string (see `spi_model::json`), so
//! a receiving process can re-intern and keep computing.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_model::json::{FromJson, JsonValue, ToJson};
use spi_store::metrics::CounterId;
use spi_synth::{FeasibilityMode, SearchStrategy, TaskParams};
use spi_variants::VariantSystem;
use spi_workloads::{automotive_system, figure2_system, synthetic_system, SyntheticParams};

use crate::error::ExploreError;
use crate::evaluator::{Evaluator, PartitionEvaluator, TaskParamsSpec};
use crate::registry::{JobId, JobSpec, JobStatus};
use crate::service::ExplorationService;
use crate::Result;

/// Renders a status snapshot as the wire object shared by `poll`, `wait` and
/// `cancel` responses.
pub fn status_to_json(op: &str, status: &JobStatus) -> JsonValue {
    JsonValue::object([
        ("ok", JsonValue::Bool(true)),
        ("op", JsonValue::string(op)),
        ("job", status.job.raw().to_json()),
        ("name", status.name.to_json()),
        ("tenant", status.tenant.to_json()),
        ("cache_hit", JsonValue::Bool(status.cache_hit)),
        ("hedges_issued", status.hedges_issued.to_json()),
        ("hedge_wins", status.hedge_wins.to_json()),
        ("state", JsonValue::string(status.state.to_string())),
        ("combinations", status.combinations.to_json()),
        ("shards", status.shard_count.to_json()),
        ("shards_done", status.shards_done.to_json()),
        ("shards_in_flight", status.shards_in_flight.to_json()),
        ("evaluated", status.report.evaluated.to_json()),
        ("feasible", status.report.feasible.to_json()),
        ("pruned", status.report.pruned.to_json()),
        ("errors", status.report.errors.to_json()),
        ("eval_ns", JsonValue::Int(status.report.eval_ns as i128)),
        (
            "best",
            status
                .best()
                .map(ToJson::to_json)
                .unwrap_or(JsonValue::Null),
        ),
        ("top", status.report.top.to_json()),
    ])
}

/// Renders the `top` answer: the `k` cheapest variants of the status (all
/// of its `top` without a `k`).
pub(crate) fn top_to_json(status: &JobStatus, k: Option<usize>) -> JsonValue {
    let top = &status.report.top;
    let k = k.unwrap_or(top.len()).min(top.len());
    JsonValue::object([
        ("ok", JsonValue::Bool(true)),
        ("op", JsonValue::string("top")),
        ("job", status.job.raw().to_json()),
        ("top", top[..k].to_vec().to_json()),
    ])
}

fn error_response(error: &ExploreError) -> JsonValue {
    let mut members = vec![
        ("ok", JsonValue::Bool(false)),
        ("error", JsonValue::string(error.to_string())),
    ];
    if matches!(error, ExploreError::Retired(_)) {
        members.push(("retired", JsonValue::Bool(true)));
    }
    JsonValue::object(members)
}

fn parse_system(value: &JsonValue) -> Result<VariantSystem> {
    if let Some(scaling) = value.get("scaling") {
        let interfaces = scaling
            .get("interfaces")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| ExploreError::Protocol("scaling.interfaces required".into()))?;
        let clusters = scaling
            .get("clusters")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| ExploreError::Protocol("scaling.clusters required".into()))?;
        return Ok(spi_workloads::scaling_system(interfaces, clusters)?);
    }
    if let Some(synthetic) = value.get("synthetic") {
        let field = |name: &str, default: usize| {
            synthetic
                .get(name)
                .and_then(JsonValue::as_usize)
                .unwrap_or(default)
        };
        let params = SyntheticParams {
            common_tasks: field("common_tasks", 4),
            interfaces: field("interfaces", 2),
            clusters_per_interface: field("clusters_per_interface", 3),
            cluster_depth: field("cluster_depth", 2),
            seed: synthetic
                .get("seed")
                .and_then(JsonValue::as_u64)
                .unwrap_or(42),
        };
        return Ok(synthetic_system(&params)?);
    }
    if let Some(scenario) = value.get("scenario").and_then(JsonValue::as_str) {
        return match scenario {
            "tv" => Ok(spi_workloads::tv_system()?),
            "automotive" => Ok(automotive_system()?),
            "figure2" => Ok(figure2_system()?),
            other => Err(ExploreError::Protocol(format!(
                "unknown scenario `{other}` (expected tv | automotive | figure2)"
            ))),
        };
    }
    Err(ExploreError::Protocol(
        "system must specify `scaling`, `synthetic` or `scenario`".into(),
    ))
}

fn parse_evaluator(value: Option<&JsonValue>) -> Result<Arc<dyn Evaluator>> {
    let mut evaluator = PartitionEvaluator::default();
    let Some(value) = value else {
        return Ok(Arc::new(evaluator));
    };
    if let Some(kind) = value.get("kind").and_then(JsonValue::as_str) {
        if kind != "partition" {
            return Err(ExploreError::Protocol(format!(
                "unknown evaluator kind `{kind}` (only `partition` speaks ndjson)"
            )));
        }
    }
    if let Some(cost) = value.get("processor_cost").and_then(JsonValue::as_u64) {
        evaluator.processor_cost = summand("processor_cost", cost)?;
    }
    if let Some(strategy) = value.get("strategy").and_then(JsonValue::as_str) {
        evaluator.strategy = match strategy {
            "auto" => SearchStrategy::Auto,
            "exhaustive" => SearchStrategy::Exhaustive,
            "branch_and_bound" => SearchStrategy::BranchAndBound,
            "greedy" => SearchStrategy::Greedy,
            other => {
                return Err(ExploreError::Protocol(format!(
                    "unknown strategy `{other}`"
                )))
            }
        };
    }
    if let Some(mode) = value.get("mode").and_then(JsonValue::as_str) {
        evaluator.mode = match mode {
            "per_application" => FeasibilityMode::PerApplication,
            "serialized" => FeasibilityMode::Serialized,
            other => return Err(ExploreError::Protocol(format!("unknown mode `{other}`"))),
        };
    }
    if let Some(params) = value.get("params") {
        evaluator.params = parse_params(params)?;
    }
    Ok(Arc::new(evaluator))
}

fn parse_params(value: &JsonValue) -> Result<TaskParamsSpec> {
    match value.get("kind").and_then(JsonValue::as_str) {
        Some("hashed") | None => Ok(TaskParamsSpec::Hashed {
            seed: value.get("seed").and_then(JsonValue::as_u64).unwrap_or(42),
        }),
        Some("uniform") => {
            let field = |name: &str, default: u64| {
                value
                    .get(name)
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(default)
            };
            Ok(TaskParamsSpec::Uniform(TaskParams {
                sw_time: summand("sw_time", field("sw_time", 10))?,
                period: field("period", 100),
                hw_area: summand("hw_area", field("hw_area", 20))?,
                synthesis_effort: field("synthesis_effort", 5),
            }))
        }
        Some(other) => Err(ExploreError::Protocol(format!(
            "unknown params kind `{other}`"
        ))),
    }
}

/// Accepts a value that the searches' cost and load sums add up only below 2^32:
/// a problem has fewer than 2^32 tasks, so no cost sum can then overflow a `u64`,
/// and a load sum only past 2^22 tasks in one application.
fn summand(name: &str, value: u64) -> Result<u64> {
    if value >= 1 << 32 {
        return Err(ExploreError::Protocol(format!(
            "`{name}` must be below 2^32, got {value}"
        )));
    }
    Ok(value)
}

/// Rebuilds the `(system, evaluator)` of a stored submission recipe —
/// `{"system": ..., "evaluator": ...}` as recorded by the `submit` op — using
/// the same parsers the live wire uses. This is the [`RebuildFn`] the service
/// hands to [`JobRegistry::restore`](crate::JobRegistry::restore) at startup.
///
/// # Errors
///
/// [`ExploreError::Protocol`] for unknown recipes, plus any construction
/// error from the workloads layer.
///
/// [`RebuildFn`]: crate::registry::RebuildFn
pub fn rebuild_from_recipe(
    recipe: &JsonValue,
) -> Result<(spi_variants::VariantSystem, Arc<dyn Evaluator>)> {
    let system = parse_system(
        recipe
            .get("system")
            .ok_or_else(|| ExploreError::Protocol("recipe missing `system`".into()))?,
    )?;
    let evaluator = parse_evaluator(recipe.get("evaluator"))?;
    Ok((system, evaluator))
}

fn job_of(request: &JsonValue) -> Result<JobId> {
    request
        .get("job")
        .and_then(JsonValue::as_u64)
        .map(JobId::from_raw)
        .ok_or_else(|| ExploreError::Protocol("`job` id required".into()))
}

/// Handles one request object against the service; the building block of
/// [`serve`] and directly callable from tests.
pub fn handle_request(service: &ExplorationService, request: &JsonValue) -> JsonValue {
    match dispatch(service, request) {
        Ok(response) => response,
        Err(error) => error_response(&error),
    }
}

fn dispatch(service: &ExplorationService, request: &JsonValue) -> Result<JsonValue> {
    let op = request
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ExploreError::Protocol("`op` required".into()))?;
    match op {
        "submit" => {
            let system_value = request
                .get("system")
                .ok_or_else(|| ExploreError::Protocol("`system` required".into()))?;
            let system = parse_system(system_value)?;
            let evaluator = parse_evaluator(request.get("evaluator"))?;
            let spec = JobSpec {
                name: request
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("ndjson")
                    .to_string(),
                shard_count: request
                    .get("shards")
                    .and_then(JsonValue::as_usize)
                    .unwrap_or_else(|| JobSpec::default().shard_count),
                top_k: request
                    .get("top_k")
                    .and_then(JsonValue::as_usize)
                    .unwrap_or_else(|| JobSpec::default().top_k),
                tenant: request
                    .get("tenant")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("default")
                    .to_string(),
                weight: request
                    .get("weight")
                    .and_then(JsonValue::as_u64)
                    .and_then(|weight| u32::try_from(weight).ok())
                    .unwrap_or(1)
                    .max(1),
                use_cache: !request
                    .get("no_cache")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
            };
            // The recipe makes the job durable (replayable after a restart)
            // and content-addressable (cacheable): it is exactly the request's
            // own construction description, echoed into the store.
            let mut recipe = vec![("system".to_string(), system_value.clone())];
            if let Some(evaluator_value) = request.get("evaluator") {
                recipe.push(("evaluator".to_string(), evaluator_value.clone()));
            }
            let status =
                service.submit_status(&system, spec, evaluator, Some(JsonValue::Object(recipe)))?;
            Ok(JsonValue::object([
                ("ok", JsonValue::Bool(true)),
                ("op", JsonValue::string("submit")),
                ("job", status.job.raw().to_json()),
                ("combinations", status.combinations.to_json()),
                ("shards", status.shard_count.to_json()),
                ("cache_hit", JsonValue::Bool(status.cache_hit)),
                ("state", JsonValue::string(status.state.to_string())),
            ]))
        }
        "poll" => Ok(status_to_json("poll", &service.poll(job_of(request)?)?)),
        "wait" => Ok(status_to_json("wait", &service.wait(job_of(request)?)?)),
        "cancel" => Ok(status_to_json("cancel", &service.cancel(job_of(request)?)?)),
        "top" => {
            let status = service.poll(job_of(request)?)?;
            let k = request.get("k").and_then(JsonValue::as_usize);
            Ok(top_to_json(&status, k))
        }
        "graph" => {
            let snapshot = service.waitgraph();
            Ok(JsonValue::object([
                ("ok", JsonValue::Bool(true)),
                ("op", JsonValue::string("graph")),
                ("graph", snapshot.to_json()),
            ]))
        }
        "metrics" => Ok(JsonValue::object([
            ("ok", JsonValue::Bool(true)),
            ("op", JsonValue::string("metrics")),
            ("metrics", service.metrics_snapshot_stamped()),
        ])),
        "profile" => Ok(JsonValue::object([
            ("ok", JsonValue::Bool(true)),
            ("op", JsonValue::string("profile")),
            ("profile", service.profile_snapshot()),
        ])),
        "health" => {
            let report = service.health();
            Ok(JsonValue::object([
                ("ok", JsonValue::Bool(true)),
                ("op", JsonValue::string("health")),
                ("status", JsonValue::string(report.status())),
                ("sweeps", report.sweeps.to_json()),
                ("findings", report.findings.to_json()),
            ]))
        }
        "shutdown" => Ok(JsonValue::object([
            ("ok", JsonValue::Bool(true)),
            ("op", JsonValue::string("shutdown")),
        ])),
        "jobs" | "trace" | "spans" | "watch" => Err(ExploreError::Protocol(format!(
            "`{op}` is a streaming op; drive it through `serve` (it writes the \
             answer as it reads it)"
        ))),
        other => Err(ExploreError::Protocol(format!("unknown op `{other}`"))),
    }
}

/// One job's row of the `jobs` op.
pub(crate) fn job_row(status: &JobStatus) -> JsonValue {
    JsonValue::object([
        ("job", status.job.raw().to_json()),
        ("name", status.name.to_json()),
        ("state", JsonValue::string(status.state.to_string())),
        ("shards_done", status.shards_done.to_json()),
        ("shards", status.shard_count.to_json()),
        ("evaluated", status.report.evaluated.to_json()),
        ("hedges_issued", status.hedges_issued.to_json()),
        ("hedge_wins", status.hedge_wins.to_json()),
        // Completed-shard latency quantiles: null until the first shard of
        // the job commits.
        (
            "latency_ns",
            JsonValue::object([
                ("samples", status.latency.samples.to_json()),
                ("p50", status.latency.p50_ns.to_json()),
                ("p95", status.latency.p95_ns.to_json()),
                ("max", status.latency.max_ns.to_json()),
            ]),
        ),
    ])
}

/// One tenant's aggregates over its running and retained jobs — its entry
/// in the `tenants` array of the `jobs` op, which is sorted by tenant name.
/// Retired jobs count no more.
#[derive(Default)]
struct Rollup {
    jobs: u64,
    shards_pending: u64,
    shards_leased: u64,
    shards_done: u64,
    hedges_issued: u64,
    hedge_wins: u64,
    cache_hits: u64,
}

impl Rollup {
    fn add(&mut self, status: &JobStatus) {
        self.jobs += 1;
        self.shards_done += status.shards_done as u64;
        self.shards_leased += status.shards_in_flight as u64;
        self.shards_pending += status
            .shard_count
            .saturating_sub(status.shards_done)
            .saturating_sub(status.shards_in_flight) as u64;
        self.hedges_issued += status.hedges_issued;
        self.hedge_wins += status.hedge_wins;
        self.cache_hits += u64::from(status.cache_hit);
    }

    fn to_json(&self, tenant: &str) -> JsonValue {
        JsonValue::object([
            ("tenant", JsonValue::string(tenant)),
            ("jobs", self.jobs.to_json()),
            ("shards_pending", self.shards_pending.to_json()),
            ("shards_leased", self.shards_leased.to_json()),
            ("shards_done", self.shards_done.to_json()),
            ("hedges_issued", self.hedges_issued.to_json()),
            ("hedge_wins", self.hedge_wins.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
        ])
    }
}

/// Writes one `watch` frame: `{"ok":true,"op":"watch","frame":kind,"seq":N,
/// ...extras}`, flushed immediately. `seq` is per-watch and strictly
/// monotone across frame kinds — the client's ordering check.
fn write_frame<W: Write>(
    output: &mut W,
    kind: &str,
    seq: &mut u64,
    extras: Vec<(String, JsonValue)>,
) -> std::io::Result<()> {
    let mut members = vec![
        ("ok".to_string(), JsonValue::Bool(true)),
        ("op".to_string(), JsonValue::string("watch")),
        ("frame".to_string(), JsonValue::string(kind)),
        ("seq".to_string(), (*seq).to_json()),
    ];
    members.extend(extras);
    *seq += 1;
    writeln!(output, "{}", JsonValue::Object(members).to_line())?;
    output.flush()
}

/// How often a `watch` re-reads the trace ring: the longest a frame waits
/// to be written, and the bound on how often a watcher takes the registry
/// lock.
const WATCH_POLL: Duration = Duration::from_millis(10);

/// The `watch` op: streams the service's activity until it goes **idle**
/// (no running job, no live lease), then yields a final `end` frame and
/// hands the line loop back to [`serve`].
///
/// Frames, one JSON object per line, all carrying `ok`, `op:"watch"` and a
/// strictly monotone `seq`:
///
/// * `trace` — one scheduler decision (`event`), read from the trace ring
///   by cursor; there are none with `--trace-capacity 0`;
/// * `metrics` — periodic counter **deltas** since the previous metrics
///   frame (`counters`, zero-delta entries omitted), every `metrics_ms`
///   (default 500);
/// * `spans` — one completed phase span (`span`), opt-in via `"spans":true`
///   in the request, read by cursor from the recorder's rings;
/// * `lagged` — the watcher fell behind and `missed` live decisions were
///   skipped (more than `queue` unread, or overwritten in the ring before
///   the watcher read them); a fresh `metrics` frame follows immediately as
///   the resync point, then the decisions after the gap;
/// * `end` — the service is idle, the watch is closed.
///
/// The stream opens with a **backfill**: every event still in the trace
/// ring with `seq >= since` (default 0), up to the `next` cursor read with
/// them, is replayed as `trace` frames, `tail -f` style. Live decisions are
/// read from that cursor on, so the hand-off is gap-free. Nothing is pushed
/// to a watcher: it reads the ring every [`WATCH_POLL`], so a slow watcher
/// loses history but never slows the scheduler.
///
/// Request knobs: `since` sets the backfill cursor, `queue` bounds how many
/// unread live decisions the watcher keeps (default 1024; older ones are
/// skipped), `spans` turns on span frames, and `slow_ms` injects a
/// per-iteration consumer delay — a test knob that makes lag deterministic
/// in CI.
fn run_watch<W: Write>(
    service: &ExplorationService,
    request: &JsonValue,
    output: &mut W,
) -> std::io::Result<()> {
    let queue = request
        .get("queue")
        .and_then(JsonValue::as_u64)
        .unwrap_or(1024)
        .max(1);
    let metrics_interval = Duration::from_millis(
        request
            .get("metrics_ms")
            .and_then(JsonValue::as_u64)
            .unwrap_or(500)
            .max(1),
    );
    let slow = Duration::from_millis(
        request
            .get("slow_ms")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
    );
    let want_spans = request
        .get("spans")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let metrics = service.metrics();
    // Span frames poll the recorder's rings by completion-order cursor; the
    // cursor starts at zero and backfills every span still ringed, mirroring
    // the trace backfill.
    let mut span_cursor = 0u64;
    let span_frames = |output: &mut W, seq: &mut u64, cursor: &mut u64| -> std::io::Result<()> {
        if !want_spans {
            return Ok(());
        }
        for span in service.spans_since(*cursor).spans {
            *cursor = span.seq + 1;
            write_frame(
                output,
                "spans",
                seq,
                vec![("span".to_string(), span.to_json())],
            )?;
        }
        Ok(())
    };
    let trace_frame = |output: &mut W, seq: &mut u64, traced: &spi_store::TracedEvent| {
        write_frame(
            output,
            "trace",
            seq,
            vec![("event".to_string(), traced.to_json())],
        )
    };
    let since = request
        .get("since")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let mut seq = 0u64;
    let backfill = service.read_trace_since(since);
    for traced in &backfill.events {
        trace_frame(output, &mut seq, traced)?;
    }
    let mut cursor = backfill.next;
    // Deltas start from zero, so the first metrics frame is the cumulative
    // baseline — the counter analogue of the trace backfill above.
    let mut prev = [0u64; CounterId::ALL.len()];
    let counter_deltas = |prev: &mut [u64; CounterId::ALL.len()]| {
        let deltas: Vec<(String, JsonValue)> = CounterId::ALL
            .iter()
            .enumerate()
            .filter_map(|(at, id)| {
                let now = metrics.counter(*id);
                let delta = now.saturating_sub(prev[at]);
                prev[at] = now;
                (delta > 0).then(|| (id.name().to_string(), JsonValue::Int(delta as i128)))
            })
            .collect();
        vec![("counters".to_string(), JsonValue::Object(deltas))]
    };
    let mut last_metrics = Instant::now();
    // Set once the service was seen idle: one more read flushes whatever
    // raced in between the previous read and the idle check, then the
    // stream closes.
    let mut closing = false;
    loop {
        if !closing {
            std::thread::sleep(WATCH_POLL + slow);
        }
        let read = service.read_trace_since(cursor);
        // Keep the newest `queue` unread decisions that the ring still holds.
        let keep_from = read.next.saturating_sub(queue).max(cursor + read.dropped);
        let missed = keep_from - cursor;
        cursor = read.next;
        if missed > 0 {
            write_frame(
                output,
                "lagged",
                &mut seq,
                vec![("missed".to_string(), missed.to_json())],
            )?;
            let deltas = counter_deltas(&mut prev);
            write_frame(output, "metrics", &mut seq, deltas)?;
            last_metrics = Instant::now();
        }
        for traced in read.events.iter().filter(|traced| traced.seq >= keep_from) {
            trace_frame(output, &mut seq, traced)?;
        }
        span_frames(output, &mut seq, &mut span_cursor)?;
        if closing || last_metrics.elapsed() >= metrics_interval {
            let deltas = counter_deltas(&mut prev);
            write_frame(output, "metrics", &mut seq, deltas)?;
            last_metrics = Instant::now();
        }
        if closing {
            write_frame(output, "end", &mut seq, Vec::new())?;
            return Ok(());
        }
        closing = read.events.is_empty() && service.is_idle();
    }
}

/// Answers the `trace` op straight onto `output`: the events from the
/// request's `since` cursor (default 0) are read under one registry lock,
/// together with the `next` cursor, then written one event at a time, so a
/// full ring never exists as one [`JsonValue`] tree. The line is the one the
/// tree `{"ok":true,"op":"trace","dropped":D,"next":N,"events":[...]}` would
/// render.
fn write_trace<W: Write>(
    service: &ExplorationService,
    request: &JsonValue,
    output: &mut W,
) -> std::io::Result<()> {
    let since = request
        .get("since")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let read = service.read_trace_since(since);
    let mut out = std::io::BufWriter::with_capacity(1 << 16, output);
    write!(
        out,
        "{{\"ok\":true,\"op\":\"trace\",\"dropped\":{},\"next\":{},\"events\":[",
        read.dropped, read.next
    )?;
    for (at, traced) in read.events.iter().enumerate() {
        if at > 0 {
            out.write_all(b",")?;
        }
        out.write_all(traced.to_json().to_line().as_bytes())?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

/// Answers the `jobs` op straight onto `output`. Under one registry lock,
/// each running and retained job's row is rendered to its line and its
/// tenant's rollup summed; the answer is written once the lock is released,
/// so the listing never exists as one [`JsonValue`] tree. The line is the
/// one the tree `{"ok":true,"op":"jobs","cache":{...},"tenants":[...],
/// "jobs":[...]}` would render.
fn write_jobs<W: Write>(service: &ExplorationService, output: &mut W) -> std::io::Result<()> {
    let mut rollups: BTreeMap<String, Rollup> = BTreeMap::new();
    let mut rows = String::new();
    let (entries, hits, misses) = service.for_each_job(|status| {
        rollups
            .entry(status.tenant.clone())
            .or_default()
            .add(status);
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&job_row(status).to_line());
    });
    let cache = JsonValue::object([
        ("entries", entries.to_json()),
        ("hits", hits.to_json()),
        ("misses", misses.to_json()),
    ]);
    let tenants: Vec<String> = rollups
        .iter()
        .map(|(tenant, rollup)| rollup.to_json(tenant).to_line())
        .collect();
    let mut out = std::io::BufWriter::with_capacity(1 << 16, output);
    writeln!(
        out,
        "{{\"ok\":true,\"op\":\"jobs\",\"cache\":{},\"tenants\":[{}],\"jobs\":[{rows}]}}",
        cache.to_line(),
        tenants.join(","),
    )?;
    out.flush()
}

/// Answers the `spans` op straight onto `output`. The Chrome trace of full
/// span rings runs to tens of megabytes, so it is written event by event
/// rather than built as a [`JsonValue`] tree and serialized.
fn write_spans<W: Write>(service: &ExplorationService, output: &mut W) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::with_capacity(1 << 16, output);
    out.write_all(b"{\"ok\":true,\"op\":\"spans\",\"trace\":")?;
    service.write_chrome_trace(&mut out)?;
    out.write_all(b"}\n")?;
    out.flush()
}

/// Runs the ndjson loop: one request per input line, one response per output
/// line, until `shutdown` or EOF. Empty lines are skipped; parse errors
/// produce an `ok:false` response and the loop continues.
///
/// # Errors
///
/// Propagates I/O errors of the underlying streams.
pub fn serve<R: BufRead, W: Write>(
    service: &ExplorationService,
    input: R,
    output: &mut W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = match JsonValue::parse(trimmed) {
            Ok(request) => match request.get("op").and_then(JsonValue::as_str) {
                Some("watch") => {
                    run_watch(service, &request, output)?;
                    continue;
                }
                Some("jobs") => {
                    write_jobs(service, output)?;
                    continue;
                }
                Some("trace") => {
                    write_trace(service, &request, output)?;
                    continue;
                }
                Some("spans") => {
                    write_spans(service, output)?;
                    continue;
                }
                _ => handle_request(service, &request),
            },
            Err(error) => error_response(&ExploreError::Protocol(error.to_string())),
        };
        writeln!(output, "{}", response.to_line())?;
        output.flush()?;
        if response.get("op").and_then(JsonValue::as_str) == Some("shutdown") {
            break;
        }
    }
    Ok(())
}

/// The full `spi-explored` session: [`serve`] until shutdown or EOF, then
/// **quiesce** — in-flight leases drain to completion (their staged reports
/// commit) and the store compacts to a synced snapshot. This is what makes a
/// closed stdin a *clean* shutdown instead of an exit mid-drain: pending
/// shards stay durably pending and resume on the next start.
///
/// # Errors
///
/// Propagates I/O errors of the underlying streams; quiesce/store failures
/// are reported on `stderr` rather than failing the session (the results
/// that reached the WAL are already durable).
pub fn run_session<R: BufRead, W: Write>(
    service: &ExplorationService,
    input: R,
    output: &mut W,
) -> std::io::Result<()> {
    let served = serve(service, input, output);
    if let Err(error) = service.quiesce() {
        eprintln!("spi-explored: quiesce failed: {error}");
    }
    served
}

/// Parses a status line produced by [`status_to_json`] back into the counts a
/// client cares about — the round-trip proof that results survive the wire.
pub fn status_from_json(value: &JsonValue) -> Result<WireStatus> {
    let proto = |message: &str| ExploreError::Protocol(message.to_string());
    Ok(WireStatus {
        job: value
            .get("job")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto("job missing"))?,
        state: value
            .get("state")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| proto("state missing"))?
            .to_string(),
        tenant: value
            .get("tenant")
            .and_then(JsonValue::as_str)
            .unwrap_or("default")
            .to_string(),
        cache_hit: value
            .get("cache_hit")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
        combinations: value
            .get("combinations")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| proto("combinations missing"))?,
        evaluated: value
            .get("evaluated")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto("evaluated missing"))?,
        feasible: value
            .get("feasible")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto("feasible missing"))?,
        pruned: value
            .get("pruned")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto("pruned missing"))?,
        errors: value
            .get("errors")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto("errors missing"))?,
        best: match value.get("best") {
            None | Some(JsonValue::Null) => None,
            Some(best) => Some(
                crate::report::BestVariant::from_json(best)
                    .map_err(|e| ExploreError::Protocol(format!("bad best variant: {e}")))?,
            ),
        },
        top: value
            .get("top")
            .map(Vec::<crate::report::BestVariant>::from_json)
            .transpose()
            .map_err(|e| ExploreError::Protocol(format!("bad top list: {e}")))?
            .unwrap_or_default(),
    })
}

/// A client-side view of a status response; see [`status_from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireStatus {
    /// Raw job id.
    pub job: u64,
    /// Job state as its wire string (`running` / `completed` / `cancelled`).
    pub state: String,
    /// Fair-queuing tenant of the job.
    pub tenant: String,
    /// Whether the job was served from the result cache.
    pub cache_hit: bool,
    /// Variant-space size.
    pub combinations: usize,
    /// Evaluated variants.
    pub evaluated: u64,
    /// Feasible variants.
    pub feasible: u64,
    /// Pruned variants.
    pub pruned: u64,
    /// Errored variants.
    pub errors: u64,
    /// Best variant, if any.
    pub best: Option<crate::report::BestVariant>,
    /// Top-K variants.
    pub top: Vec<crate::report::BestVariant>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn run_lines(service: &ExplorationService, lines: &str) -> Vec<JsonValue> {
        let mut output = Vec::new();
        serve(service, lines.as_bytes(), &mut output).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| JsonValue::parse(line).unwrap())
            .collect()
    }

    #[test]
    fn malformed_and_unknown_requests_answer_ok_false() {
        let service = ExplorationService::start(ServiceConfig::with_workers(1));
        let responses = run_lines(
            &service,
            "not json\n{\"op\":\"poll\",\"job\":99}\n{\"op\":\"nope\"}\n{\"no_op\":1}\n",
        );
        assert_eq!(responses.len(), 4);
        for response in &responses {
            assert_eq!(response.get("ok").unwrap().as_bool(), Some(false));
            assert!(response.get("error").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn submit_rejects_bad_specs_on_the_wire() {
        let service = ExplorationService::start(ServiceConfig::with_workers(1));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\"}\n",
                "{\"op\":\"submit\",\"system\":{}}\n",
                "{\"op\":\"submit\",\"system\":{\"scenario\":\"ghost\"}}\n",
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":2,\"clusters\":2}},\
                 \"evaluator\":{\"kind\":\"quantum\"}}\n",
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":2,\"clusters\":2}},\
                 \"evaluator\":{\"strategy\":\"psychic\"}}\n",
            ),
        );
        for response in &responses {
            assert_eq!(response.get("ok").unwrap().as_bool(), Some(false));
        }
    }

    #[test]
    fn jobs_op_lists_every_submitted_job() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"name\":\"a\",\"system\":{\"scaling\":{\"interfaces\":2,\"clusters\":2}}}\n",
                "{\"op\":\"submit\",\"name\":\"b\",\"system\":{\"scenario\":\"figure2\"}}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
                "{\"op\":\"wait\",\"job\":1}\n",
                "{\"op\":\"jobs\"}\n",
            ),
        );
        let listing = responses.last().unwrap();
        assert_eq!(listing.get("ok").unwrap().as_bool(), Some(true));
        let jobs = listing.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(jobs[1].get("name").unwrap().as_str(), Some("b"));
        for job in jobs {
            assert_eq!(job.get("state").unwrap().as_str(), Some("completed"));
            // Operator observability: hedge counters and completed-shard
            // latency quantiles ride on every listing entry.
            assert!(job.get("hedges_issued").unwrap().as_u64().is_some());
            assert!(job.get("hedge_wins").unwrap().as_u64().is_some());
            let latency = job.get("latency_ns").unwrap();
            let samples = latency.get("samples").unwrap().as_u64().unwrap();
            assert!(samples >= 1, "a completed job has committed shards");
            let p50 = latency.get("p50").unwrap().as_u64().unwrap();
            let p95 = latency.get("p95").unwrap().as_u64().unwrap();
            let max = latency.get("max").unwrap().as_u64().unwrap();
            assert!(p50 <= p95 && p95 <= max);
        }
    }

    /// The two introspection ops round-trip through their `spi-model` types:
    /// the `graph` payload parses back into a validating [`GraphSnapshot`]
    /// that agrees with the job listing, and the `trace` payload parses back
    /// into [`TracedEvent`]s that replay clean through [`TraceReplay`].
    #[test]
    fn graph_and_trace_ops_round_trip_over_the_wire() {
        use spi_model::introspect::GraphSnapshot;
        use spi_store::trace::{TraceReplay, TracedEvent};

        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"name\":\"traced\",\"tenant\":\"team-a\",\
                 \"system\":{\"scaling\":{\"interfaces\":4,\"clusters\":2}},\"shards\":4}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
                "{\"op\":\"graph\"}\n",
                "{\"op\":\"trace\"}\n",
            ),
        );
        assert_eq!(responses.len(), 4);

        let graph_response = &responses[2];
        assert_eq!(graph_response.get("ok").unwrap().as_bool(), Some(true));
        let snapshot = GraphSnapshot::from_json(graph_response.get("graph").unwrap()).unwrap();
        snapshot.validate().unwrap();
        // The job completed before the snapshot: it appears as a terminal
        // node with its tenant, waiting on nothing.
        let job_node = snapshot.node("job:0").unwrap();
        assert_eq!(job_node.kind, "job");
        assert!(job_node
            .attrs
            .iter()
            .any(|(key, value)| key == "state" && value == "completed"));
        assert!(snapshot.node("tenant:team-a").is_some());
        assert_eq!(snapshot.needs_of("job:0").count(), 0);

        let trace_response = &responses[3];
        assert_eq!(trace_response.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(trace_response.get("dropped").unwrap().as_u64(), Some(0));
        let events: Vec<TracedEvent> = trace_response
            .get("events")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|event| TracedEvent::from_json(event).unwrap())
            .collect();
        let report = TraceReplay::check(&events);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.committed_shards, 4);
    }

    /// `trace` with a `since` cursor is non-destructive: the same window can
    /// be re-read, and the advertised `next` cursor resumes past it.
    #[test]
    fn trace_since_cursor_re_reads_without_draining() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":3,\"clusters\":2}},\
                 \"shards\":4}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
                "{\"op\":\"trace\",\"since\":0}\n",
                "{\"op\":\"trace\",\"since\":0}\n",
            ),
        );
        let first = &responses[2];
        let second = &responses[3];
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));
        let first_events = first.get("events").unwrap().as_array().unwrap();
        let second_events = second.get("events").unwrap().as_array().unwrap();
        assert!(!first_events.is_empty());
        // Cursor reads do not consume: the identical window comes back.
        assert_eq!(first_events.len(), second_events.len());
        assert_eq!(first.get("next").unwrap().as_u64().unwrap(), {
            second.get("next").unwrap().as_u64().unwrap()
        });
        // Resuming from `next` finds nothing new on an idle service.
        let next = first.get("next").unwrap().as_u64().unwrap();
        let resumed = run_lines(
            &service,
            &format!("{{\"op\":\"trace\",\"since\":{next}}}\n"),
        );
        assert_eq!(
            resumed[0].get("events").unwrap().as_array().unwrap().len(),
            0
        );
    }

    /// Without a cursor, `trace` reads the whole ring from 0 and consumes
    /// nothing: asked twice of an idle service, it answers the same events.
    #[test]
    fn trace_without_since_answers_the_same_events_twice() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let mut answers = Vec::new();
        serve(
            &service,
            concat!(
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":3,\"clusters\":2}},\
                 \"shards\":4}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
                "{\"op\":\"trace\"}\n",
                "{\"op\":\"trace\"}\n",
            )
            .as_bytes(),
            &mut answers,
        )
        .unwrap();
        let answers = String::from_utf8(answers).unwrap();
        let lines: Vec<&str> = answers.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2], lines[3], "a read consumes nothing");
        let answer = JsonValue::parse(lines[2]).unwrap();
        let events = answer.get("events").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        assert_eq!(events[0].get("seq").unwrap().as_u64(), Some(0));
        assert_eq!(
            answer.get("next").unwrap().as_u64(),
            Some(events.last().unwrap().get("seq").unwrap().as_u64().unwrap() + 1)
        );
    }

    /// `serve` streams the `trace` answer event by event; the line is the one
    /// the `JsonValue` tree of the same window renders, byte for byte — here
    /// over a ring that dropped events, with escaped and non-ASCII names, and
    /// from a cursor inside the ring. `handle_request` refuses the op.
    #[test]
    fn streamed_trace_line_matches_the_tree_rendering() {
        let service = ExplorationService::start(ServiceConfig {
            trace_capacity: 40,
            ..ServiceConfig::with_workers(2)
        });
        run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"tenant\":\"équipe \\\"a\\\"\\n\",\
                 \"system\":{\"scaling\":{\"interfaces\":4,\"clusters\":2}},\"shards\":16}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
            ),
        );
        let full = service.read_trace_since(0);
        assert!(full.dropped > 0 && full.events.len() == 40);
        assert!(full
            .events
            .iter()
            .any(|traced| traced.to_json().to_line().contains("équipe \\\"a\\\"\\n")));
        for since in [None, Some(full.next - 30)] {
            let request = match since {
                Some(since) => format!("{{\"op\":\"trace\",\"since\":{since}}}\n"),
                None => "{\"op\":\"trace\"}\n".to_string(),
            };
            let mut streamed = Vec::new();
            serve(&service, request.as_bytes(), &mut streamed).unwrap();
            let window = service.read_trace_since(since.unwrap_or(0));
            let tree = JsonValue::object([
                ("ok", JsonValue::Bool(true)),
                ("op", JsonValue::string("trace")),
                ("dropped", window.dropped.to_json()),
                ("next", window.next.to_json()),
                (
                    "events",
                    JsonValue::Array(window.events.iter().map(ToJson::to_json).collect()),
                ),
            ]);
            assert_eq!(String::from_utf8(streamed).unwrap(), tree.to_line() + "\n");
        }
        let refused = handle_request(&service, &JsonValue::parse("{\"op\":\"trace\"}").unwrap());
        assert_eq!(refused.get("ok").unwrap().as_bool(), Some(false));
    }

    /// `serve` writes the `jobs` answer row by row; the line is the one the
    /// `JsonValue` tree of the same listing renders, byte for byte — over a
    /// running job held mid-shard, retained jobs and a cache hit, on two
    /// tenants with escaped and non-ASCII names. `handle_request` refuses
    /// the op.
    #[test]
    fn streamed_jobs_line_matches_the_tree_rendering() {
        use crate::evaluator::{Evaluation, FnEvaluator};
        use std::sync::atomic::{AtomicBool, Ordering};

        let service = ExplorationService::start(ServiceConfig::with_workers(1));
        run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"name\":\"first\",\"system\":{\"scenario\":\"figure2\"}}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
                "{\"op\":\"submit\",\"name\":\"hit\",\"system\":{\"scenario\":\"figure2\"}}\n",
                "{\"op\":\"submit\",\"name\":\"n\\u00e9 \\\"b\\\"\",\"tenant\":\"équipe \\\"b\\\"\\n\",\
                 \"system\":{\"scaling\":{\"interfaces\":3,\"clusters\":2}},\"shards\":4}\n",
                "{\"op\":\"wait\",\"job\":2}\n",
            ),
        );
        // A running job whose one leased shard waits for `release`.
        let release = Arc::new(AtomicBool::new(false));
        let held = Arc::clone(&release);
        let evaluator = Arc::new(FnEvaluator::new(move |_index, _choice, _graph| {
            while !held.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Evaluation {
                cost: 1,
                feasible: true,
                detail: String::new(),
            })
        }));
        let spec = JobSpec {
            name: "held".to_string(),
            shard_count: 4,
            ..JobSpec::default()
        };
        let system = spi_workloads::scaling_system(3, 2).unwrap();
        let running = service.submit(&system, spec, evaluator).unwrap();
        while service.poll(running).unwrap().shards_in_flight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut streamed = Vec::new();
        serve(&service, "{\"op\":\"jobs\"}\n".as_bytes(), &mut streamed).unwrap();
        let statuses = service.jobs();
        let states: Vec<(String, bool)> = statuses
            .iter()
            .map(|status| (status.state.to_string(), status.cache_hit))
            .collect();
        let completed = ("completed".to_string(), false);
        let expected = [
            completed.clone(),
            ("completed".to_string(), true),
            completed,
            ("running".to_string(), false),
        ];
        assert_eq!(states, expected);
        let mut rollups: BTreeMap<String, Rollup> = BTreeMap::new();
        for status in &statuses {
            rollups
                .entry(status.tenant.clone())
                .or_default()
                .add(status);
        }
        assert_eq!(rollups.len(), 2);
        let (entries, hits, misses) = service.cache_stats();
        let tree = JsonValue::object([
            ("ok", JsonValue::Bool(true)),
            ("op", JsonValue::string("jobs")),
            (
                "cache",
                JsonValue::object([
                    ("entries", entries.to_json()),
                    ("hits", hits.to_json()),
                    ("misses", misses.to_json()),
                ]),
            ),
            (
                "tenants",
                JsonValue::Array(
                    rollups
                        .iter()
                        .map(|(tenant, rollup)| rollup.to_json(tenant))
                        .collect(),
                ),
            ),
            (
                "jobs",
                JsonValue::Array(statuses.iter().map(job_row).collect()),
            ),
        ]);
        assert_eq!(String::from_utf8(streamed).unwrap(), tree.to_line() + "\n");
        let refused = handle_request(&service, &JsonValue::parse("{\"op\":\"jobs\"}").unwrap());
        assert_eq!(refused.get("ok").unwrap().as_bool(), Some(false));
        release.store(true, Ordering::Relaxed);
        service.cancel(running).unwrap();
    }

    /// The `jobs` listing carries per-tenant rollups whose shard totals agree
    /// with the per-job entries.
    #[test]
    fn jobs_op_rolls_up_tenants() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"name\":\"a1\",\"tenant\":\"team-a\",\
                 \"system\":{\"scaling\":{\"interfaces\":3,\"clusters\":2}},\"shards\":4}\n",
                "{\"op\":\"submit\",\"name\":\"a2\",\"tenant\":\"team-a\",\
                 \"system\":{\"scaling\":{\"interfaces\":2,\"clusters\":2}},\"shards\":2}\n",
                "{\"op\":\"submit\",\"name\":\"b1\",\"tenant\":\"team-b\",\
                 \"system\":{\"scenario\":\"figure2\"}}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
                "{\"op\":\"wait\",\"job\":1}\n",
                "{\"op\":\"wait\",\"job\":2}\n",
                "{\"op\":\"jobs\"}\n",
            ),
        );
        let listing = responses.last().unwrap();
        assert_eq!(listing.get("ok").unwrap().as_bool(), Some(true));
        let tenants = listing.get("tenants").unwrap().as_array().unwrap();
        assert_eq!(tenants.len(), 2);
        // Sorted by tenant name.
        assert_eq!(tenants[0].get("tenant").unwrap().as_str(), Some("team-a"));
        assert_eq!(tenants[1].get("tenant").unwrap().as_str(), Some("team-b"));
        assert_eq!(tenants[0].get("jobs").unwrap().as_u64(), Some(2));
        assert_eq!(tenants[1].get("jobs").unwrap().as_u64(), Some(1));
        assert_eq!(tenants[0].get("shards_done").unwrap().as_u64(), Some(6));
        assert_eq!(tenants[0].get("shards_pending").unwrap().as_u64(), Some(0));
        assert_eq!(tenants[0].get("shards_leased").unwrap().as_u64(), Some(0));
        for tenant in tenants {
            assert!(tenant.get("hedges_issued").unwrap().as_u64().is_some());
            assert!(tenant.get("hedge_wins").unwrap().as_u64().is_some());
            assert!(tenant.get("cache_hits").unwrap().as_u64().is_some());
        }
    }

    /// `metrics` and `health` answer on the wire: the snapshot's counters
    /// reflect the completed job and the watchdog reports a healthy service.
    #[test]
    fn metrics_and_health_ops_round_trip() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":3,\"clusters\":2}},\
                 \"shards\":4,\"tenant\":\"team-a\"}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
                "{\"op\":\"metrics\"}\n",
                "{\"op\":\"health\"}\n",
            ),
        );
        let metrics = &responses[2];
        assert_eq!(metrics.get("ok").unwrap().as_bool(), Some(true));
        let snapshot = metrics.get("metrics").unwrap();
        let counters = snapshot.get("counters").unwrap();
        assert_eq!(counters.get("wfq.enqueues").unwrap().as_u64(), Some(4));
        assert_eq!(counters.get("shard.commits").unwrap().as_u64(), Some(4));
        assert_eq!(
            counters.get("eval.variants").unwrap().as_u64(),
            Some(8),
            "every variant of the 2^3 space was evaluated exactly once"
        );
        let histograms = snapshot.get("histograms").unwrap();
        let eval = histograms.get("shard.eval_ns").unwrap();
        assert_eq!(eval.get("count").unwrap().as_u64(), Some(4));
        let tenants = snapshot.get("tenants").unwrap();
        let team = tenants.get("team-a").unwrap();
        assert_eq!(team.get("service").unwrap().as_u64(), Some(4));

        let health = &responses[3];
        assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert!(health.get("sweeps").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(health.get("findings").unwrap().as_array().unwrap().len(), 0);
    }

    /// A `watch` session streams frames for a live job: strictly monotone
    /// `seq`, trace frames replaying the run, at least one metrics delta, and
    /// a clean `end` frame once the service goes idle — then the line loop
    /// resumes for ordinary requests.
    #[test]
    fn watch_streams_frames_until_idle_then_resumes_the_loop() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":4,\"clusters\":2}},\
                 \"shards\":8}\n",
                "{\"op\":\"watch\",\"metrics_ms\":20}\n",
                "{\"op\":\"poll\",\"job\":0}\n",
            ),
        );
        // submit ack, then the frames, then the post-watch poll.
        assert!(responses.len() >= 4);
        let poll = responses.last().unwrap();
        assert_eq!(poll.get("op").unwrap().as_str(), Some("poll"));
        assert_eq!(poll.get("state").unwrap().as_str(), Some("completed"));

        let frames: Vec<&JsonValue> = responses
            .iter()
            .filter(|r| r.get("op").and_then(JsonValue::as_str) == Some("watch"))
            .collect();
        assert!(frames.len() >= 2, "at least one metrics frame plus end");
        for (at, frame) in frames.iter().enumerate() {
            assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(frame.get("seq").unwrap().as_u64(), Some(at as u64));
        }
        assert_eq!(
            frames.last().unwrap().get("frame").unwrap().as_str(),
            Some("end")
        );
        let kinds: Vec<&str> = frames
            .iter()
            .map(|f| f.get("frame").unwrap().as_str().unwrap())
            .collect();
        assert!(kinds.contains(&"trace"), "job activity streamed: {kinds:?}");
        assert!(kinds.contains(&"metrics"));
        // The final pre-end metrics frame accounts for all 8 commits across
        // the deltas.
        let commits: u64 = frames
            .iter()
            .filter(|f| f.get("frame").unwrap().as_str() == Some("metrics"))
            .filter_map(|f| f.get("counters").unwrap().get("shard.commits"))
            .filter_map(JsonValue::as_u64)
            .sum();
        assert_eq!(commits, 8);
    }

    /// A deliberately slow watcher on a tiny queue observes `lagged` frames
    /// instead of stalling the scheduler, and still terminates cleanly. The
    /// job is slowed through the in-process API (a sleeping evaluator) so
    /// its events provably race the 5ms/frame consumer.
    #[test]
    fn slow_watcher_lags_without_blocking() {
        use crate::evaluator::{Evaluation, FnEvaluator};
        use crate::registry::JobSpec;
        use std::sync::Arc;

        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let system = spi_workloads::scaling_system(5, 2).expect("system builds");
        let evaluator = Arc::new(FnEvaluator::new(|index, _choice, _graph| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        service
            .submit(
                &system,
                JobSpec {
                    name: "slow".into(),
                    shard_count: 32,
                    ..JobSpec::default()
                },
                evaluator,
            )
            .expect("submit");
        let responses = run_lines(
            &service,
            "{\"op\":\"watch\",\"queue\":1,\"slow_ms\":5,\"metrics_ms\":50}\n",
        );
        let frames: Vec<&JsonValue> = responses
            .iter()
            .filter(|r| r.get("op").and_then(JsonValue::as_str) == Some("watch"))
            .collect();
        assert_eq!(
            frames.last().unwrap().get("frame").unwrap().as_str(),
            Some("end")
        );
        for (at, frame) in frames.iter().enumerate() {
            assert_eq!(frame.get("seq").unwrap().as_u64(), Some(at as u64));
        }
        let lagged: u64 = frames
            .iter()
            .filter(|f| f.get("frame").unwrap().as_str() == Some("lagged"))
            .filter_map(|f| f.get("missed").unwrap().as_u64())
            .sum();
        assert!(
            lagged > 0,
            "a queue of 1 with a 5ms/frame consumer must drop events"
        );
    }

    /// The `watch` frames of one session, in order.
    fn watch_frames(responses: &[JsonValue]) -> Vec<&JsonValue> {
        responses
            .iter()
            .filter(|r| r.get("op").and_then(JsonValue::as_str) == Some("watch"))
            .collect()
    }

    fn frame_kind(frame: &JsonValue) -> &str {
        frame.get("frame").unwrap().as_str().unwrap()
    }

    /// A watch replays the whole backfill whatever its `queue` is, then keeps
    /// at most `queue` unread live decisions: every decision of the run is
    /// either streamed as a `trace` frame, in order, or counted as `missed`
    /// by a `lagged` frame, which the metrics resync follows.
    #[test]
    fn watch_replays_the_backfill_and_accounts_for_every_live_decision() {
        use crate::evaluator::{Evaluation, FnEvaluator};
        use crate::registry::JobSpec;
        use std::sync::Arc;

        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":4,\"clusters\":2}},\
                 \"shards\":8}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
            ),
        );
        let finished = service.trace_next_seq();
        let queue = 4;
        assert!(finished > queue, "the backfill outnumbers the queue");
        let system = spi_workloads::scaling_system(6, 2).expect("system builds");
        let evaluator = Arc::new(FnEvaluator::new(|index, _choice, _graph| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        service
            .submit(
                &system,
                JobSpec {
                    name: "live".into(),
                    shard_count: 64,
                    ..JobSpec::default()
                },
                evaluator,
            )
            .expect("submit");
        let responses = run_lines(
            &service,
            &format!("{{\"op\":\"watch\",\"queue\":{queue},\"slow_ms\":5}}\n"),
        );
        let frames = watch_frames(&responses);
        assert_eq!(frame_kind(frames.last().unwrap()), "end");
        let backfill = frames
            .iter()
            .take_while(|frame| frame_kind(frame) == "trace")
            .count() as u64;
        assert!(backfill >= finished, "the backfill is replayed in full");
        let traced: Vec<u64> = frames
            .iter()
            .filter(|frame| frame_kind(frame) == "trace")
            .map(|frame| {
                frame
                    .get("event")
                    .unwrap()
                    .get("seq")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            traced[..backfill as usize],
            (0..backfill).collect::<Vec<_>>()
        );
        assert!(traced.windows(2).all(|pair| pair[0] < pair[1]));
        let mut missed = 0;
        for (at, frame) in frames.iter().enumerate() {
            if frame_kind(frame) == "lagged" {
                missed += frame.get("missed").unwrap().as_u64().unwrap();
                assert_eq!(frame_kind(frames[at + 1]), "metrics", "the resync follows");
            }
        }
        assert!(
            missed > 0,
            "a queue of {queue} with a slow consumer skips decisions"
        );
        assert_eq!(traced.len() as u64 + missed, service.trace_next_seq());
    }

    /// With the trace ring off there is nothing to read: a watch streams no
    /// `trace` frames, while its metrics frames still count the run.
    #[test]
    fn watch_streams_no_trace_frames_with_the_ring_off() {
        let service = ExplorationService::start(ServiceConfig {
            trace_capacity: 0,
            ..ServiceConfig::with_workers(2)
        });
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":4,\"clusters\":2}},\
                 \"shards\":8}\n",
                "{\"op\":\"watch\",\"metrics_ms\":20}\n",
            ),
        );
        let frames = watch_frames(&responses);
        assert_eq!(frame_kind(frames.last().unwrap()), "end");
        assert!(frames.iter().all(|frame| frame_kind(frame) != "trace"));
        let commits: u64 = frames
            .iter()
            .filter(|frame| frame_kind(frame) == "metrics")
            .filter_map(|frame| frame.get("counters").unwrap().get("shard.commits"))
            .filter_map(JsonValue::as_u64)
            .sum();
        assert_eq!(commits, 8);
    }

    /// The profiling ops round-trip through the strict parser: `profile`
    /// answers a stamped per-phase profile with folded stacks and a critical
    /// path, `spans` answers Chrome trace-event JSON whose `X` events carry
    /// valid phase names, integer pid/tid/ts/dur and waitgraph-formatted id
    /// args, and `metrics` now leads with the capture header.
    #[test]
    fn profile_and_spans_ops_round_trip() {
        use spi_store::span::PhaseId;

        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"name\":\"profiled\",\"tenant\":\"team-a\",\
                 \"system\":{\"scaling\":{\"interfaces\":4,\"clusters\":2}},\"shards\":4,\
                 \"no_cache\":true}\n",
                "{\"op\":\"wait\",\"job\":0}\n",
            ),
        );
        assert_eq!(responses.len(), 2);
        // `wait` wakes on the final shard *commit*, which lands inside the
        // drain — the enclosing drain span exits moments later. Poll until
        // every shard's drain span has been recorded.
        let deadline = Instant::now() + Duration::from_secs(5);
        let profile = loop {
            let response =
                handle_request(&service, &JsonValue::parse("{\"op\":\"profile\"}").unwrap());
            let drains = response
                .get("profile")
                .and_then(|body| body.get("phases"))
                .and_then(JsonValue::as_array)
                .into_iter()
                .flatten()
                .find(|entry| entry.get("phase").unwrap().as_str() == Some("drain_shard"))
                .and_then(|entry| entry.get("count").unwrap().as_u64())
                .unwrap_or(0);
            if drains >= 4 {
                break response;
            }
            assert!(Instant::now() < deadline, "drain spans never landed");
            std::thread::sleep(Duration::from_millis(5));
        };
        let responses = run_lines(&service, "{\"op\":\"spans\"}\n{\"op\":\"metrics\"}\n");
        assert_eq!(responses.len(), 2);

        assert_eq!(profile.get("ok").unwrap().as_bool(), Some(true));
        let body = profile.get("profile").unwrap();
        assert!(body.get("captured_unix_ms").unwrap().as_u64().unwrap() > 0);
        assert!(body.get("uptime_ns").unwrap().as_u64().is_some());
        assert_eq!(body.get("dropped").unwrap().as_u64(), Some(0));
        let phases = body.get("phases").unwrap().as_array().unwrap();
        let drain = phases
            .iter()
            .find(|entry| entry.get("phase").unwrap().as_str() == Some("drain_shard"))
            .expect("drain_shard profiled");
        // At least one drain per shard; hedged or re-leased shards may add
        // more under load, so the bound is one-sided.
        let count = drain.get("count").unwrap().as_u64().unwrap();
        assert!(count >= 4, "4 shards drained, saw {count}");
        let total = drain.get("total_ns").unwrap().as_u64().unwrap();
        let self_ns = drain.get("self_ns").unwrap().as_u64().unwrap();
        assert!(self_ns <= total && total > 0);
        assert_eq!(
            drain
                .get("duration_ns")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(count)
        );
        let folded = body.get("folded").unwrap().as_array().unwrap();
        assert!(folded
            .iter()
            .any(|line| line.as_str().unwrap().starts_with("drain_shard;")));
        let paths = body.get("critical_paths").unwrap().as_array().unwrap();
        assert_eq!(paths.len(), 1, "one completed job, one critical path");
        let path = &paths[0];
        assert!(path.get("wall_ns").unwrap().as_u64().unwrap() > 0);
        assert!(!path.get("steps").unwrap().as_array().unwrap().is_empty());
        assert!(path.get("straggler").unwrap().get("lease").is_some());

        let spans_response = &responses[0];
        assert_eq!(spans_response.get("ok").unwrap().as_bool(), Some(true));
        let trace = spans_response.get("trace").unwrap();
        assert_eq!(trace.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        let mut complete_events = 0usize;
        for event in events {
            match event.get("ph").unwrap().as_str().unwrap() {
                "M" => {
                    assert!(event.get("name").unwrap().as_str().is_some());
                    assert!(event.get("pid").unwrap().as_u64().is_some());
                }
                "X" => {
                    complete_events += 1;
                    let name = event.get("name").unwrap().as_str().unwrap();
                    assert!(PhaseId::from_name(name).is_some(), "phase `{name}`");
                    assert!(event.get("pid").unwrap().as_u64().is_some());
                    assert!(event.get("tid").unwrap().as_u64().is_some());
                    assert!(event.get("ts").unwrap().as_u64().is_some());
                    assert!(event.get("dur").unwrap().as_u64().is_some());
                    let args = event.get("args").unwrap();
                    if let Some(job) = args.get("job").and_then(JsonValue::as_str) {
                        assert!(job.starts_with("job:"), "waitgraph id format: {job}");
                    }
                    if let Some(lease) = args.get("lease").and_then(JsonValue::as_str) {
                        assert!(lease.starts_with("lease:"));
                    }
                }
                other => panic!("unexpected event kind `{other}`"),
            }
        }
        assert!(complete_events >= 4, "at least one span per shard");

        let metrics = responses[1].get("metrics").unwrap();
        assert!(metrics.get("captured_unix_ms").unwrap().as_u64().unwrap() > 0);
        assert!(metrics.get("uptime_ns").unwrap().as_u64().is_some());
        assert!(metrics.get("counters").is_some(), "snapshot body intact");
    }

    /// `"spans":true` upgrades a watch session with span frames: completed
    /// spans stream under the same strictly monotone per-subscription `seq`,
    /// and sessions without the opt-in never see the frame kind.
    #[test]
    fn watch_streams_span_frames_when_opted_in() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let responses = run_lines(
            &service,
            concat!(
                "{\"op\":\"submit\",\"system\":{\"scaling\":{\"interfaces\":4,\"clusters\":2}},\
                 \"shards\":8}\n",
                "{\"op\":\"watch\",\"metrics_ms\":20,\"spans\":true}\n",
                "{\"op\":\"watch\",\"metrics_ms\":20}\n",
            ),
        );
        let frames: Vec<&JsonValue> = responses
            .iter()
            .filter(|r| r.get("op").and_then(JsonValue::as_str) == Some("watch"))
            .collect();
        // Both watch sessions restart seq at 0; split at the second zero.
        let second_start = frames
            .iter()
            .skip(1)
            .position(|frame| frame.get("seq").unwrap().as_u64() == Some(0))
            .unwrap()
            + 1;
        let (with_spans, without) = frames.split_at(second_start);
        for (at, frame) in with_spans.iter().enumerate() {
            assert_eq!(frame.get("seq").unwrap().as_u64(), Some(at as u64));
        }
        let span_frames: Vec<&&JsonValue> = with_spans
            .iter()
            .filter(|f| f.get("frame").unwrap().as_str() == Some("spans"))
            .collect();
        // ≥1, not ≥shards: the last drain span exits moments *after* the
        // commit that makes the service idle, so the closing flush may
        // legitimately miss it — the client resumes from its span `seq`.
        assert!(!span_frames.is_empty(), "spans streamed: {span_frames:?}");
        // Span payloads carry their recorder seq (strictly increasing across
        // frames — the client's resume cursor) and full attribution.
        let mut last_span_seq = None;
        for frame in &span_frames {
            let span = frame.get("span").unwrap();
            let seq = span.get("seq").unwrap().as_u64().unwrap();
            assert!(last_span_seq.is_none_or(|last| seq > last));
            last_span_seq = Some(seq);
            assert!(span.get("phase").unwrap().as_str().is_some());
            assert!(span.get("end_ns").unwrap().as_u64() >= span.get("start_ns").unwrap().as_u64());
        }
        assert!(
            without
                .iter()
                .all(|f| f.get("frame").unwrap().as_str() != Some("spans")),
            "span frames are opt-in"
        );
    }

    /// Past the finished-job cap, `poll`, `wait`, `top` and `cancel` on an
    /// evicted id answer the structured `retired` error at once, an id never
    /// submitted stays unknown, and a retained job answers byte for byte
    /// what it answered when it finished.
    #[test]
    fn retired_jobs_answer_a_structured_error_and_retained_ones_repeat_themselves() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let submit = |no_cache: bool| {
            format!(
                "{{\"op\":\"submit\",\"system\":{{\"scaling\":{{\"interfaces\":3,\"clusters\":2}}}},\
                 \"shards\":2,\"no_cache\":{no_cache}}}\n"
            )
        };
        let serve_lines = |lines: &str| {
            let mut output = Vec::new();
            serve(&service, lines.as_bytes(), &mut output).unwrap();
            String::from_utf8(output).unwrap()
        };
        let first = serve_lines(&format!("{}{{\"op\":\"wait\",\"job\":0}}\n", submit(true)));
        let at_completion = first.lines().nth(1).unwrap().to_string();
        // Job 1 fills the cache, so every later cacheable submit is a hit,
        // finished at submit.
        serve_lines(&format!("{}{{\"op\":\"wait\",\"job\":1}}\n", submit(false)));
        assert_eq!(
            serve_lines("{\"op\":\"wait\",\"job\":0}\n").trim_end(),
            at_completion,
            "a retained job answers as it did at completion"
        );
        // 1,024 jobs finished after job 0: it is retired.
        serve_lines(&submit(false).repeat(1023));

        let answers = serve_lines(concat!(
            "{\"op\":\"poll\",\"job\":0}\n",
            "{\"op\":\"wait\",\"job\":0}\n",
            "{\"op\":\"top\",\"job\":0}\n",
            "{\"op\":\"cancel\",\"job\":0}\n",
            "{\"op\":\"poll\",\"job\":1025}\n",
            "{\"op\":\"jobs\"}\n",
        ));
        let lines: Vec<&str> = answers.lines().collect();
        for line in &lines[..4] {
            assert_eq!(
                *line,
                "{\"ok\":false,\"error\":\"job 0 was retired\",\"retired\":true}"
            );
        }
        let unknown = JsonValue::parse(lines[4]).unwrap();
        assert_eq!(unknown.get("ok").unwrap().as_bool(), Some(false));
        assert!(unknown.get("retired").is_none());
        let listing = JsonValue::parse(lines[5]).unwrap();
        let listed: Vec<u64> = listing
            .get("jobs")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|job| job.get("job").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(listed, (1..=1024).collect::<Vec<u64>>());
        let tenants = listing.get("tenants").unwrap().as_array().unwrap();
        assert_eq!(tenants[0].get("jobs").unwrap().as_u64(), Some(1024));
    }

    #[test]
    fn empty_lines_are_skipped_and_shutdown_ends_the_loop() {
        let service = ExplorationService::start(ServiceConfig::with_workers(1));
        let responses = run_lines(
            &service,
            "\n   \n{\"op\":\"shutdown\"}\n{\"op\":\"poll\",\"job\":0}\n",
        );
        // Only the shutdown got an answer; the request after it was never read.
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].get("op").unwrap().as_str(), Some("shutdown"));
    }
}
