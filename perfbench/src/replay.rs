//! The traced in-process replay of a daemon run.
//!
//! The untraced run logs every submit line it sent, in order, with the
//! census and optimum the daemon answered. The replay feeds the same lines
//! through the public surface the daemon itself is built from: it decodes
//! each request (`JsonValue::parse` + `rebuild_from_recipe`), drives a
//! [`JobRegistry`] behind one mutex through submit, lease and flush, and on
//! as many worker threads as the daemon has workers walks each leased
//! shard's Gray ranks itself, calling the per-variant functions in the order
//! the worker and the partition evaluator do. Every call is timed from here,
//! never from inside the program, so the replay binds only to public
//! functions: it implements no `Evaluator` and calls no `drain_lease*` or
//! `evaluate_spanned`.
//!
//! Each replay runs twice — timers off, then on — and the ratio of the two
//! wall times is the tracing overhead. Both passes must reproduce the logged
//! census and `(cost, index)` optimum of every job exactly.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spi_explore::wire::status_to_json;
use spi_explore::{
    rebuild_from_recipe, BestVariant, JobId, JobRegistry, JobState, JobStatus, Lease,
    PartitionEvaluator, RegistryConfig, ShardReport, WalSink,
};
use spi_model::json::{JsonValue, ToJson};
use spi_store::Wal;
use spi_synth::partition::optimize_compiled;
use spi_synth::{compiled_from_flat_graph, SynthError};
use spi_variants::DeltaFlattener;

use crate::ledger::{Ids, Layer, ThreadTrace};
use crate::recipe;

/// Per-variant spans kept per thread for the Chrome trace (totals count
/// every call regardless).
const VARIANT_SPAN_CAP: usize = 60_000;

/// One logged submit and what the daemon answered for it.
pub struct Entry {
    pub line: String,
    /// Submitted without waiting for it (the interactive workload's whale).
    pub background: bool,
    pub combinations: usize,
    pub best: Option<(u64, usize)>,
    pub cache_hit: bool,
}

/// The replay's input: the daemon's configuration and the logged submits.
pub struct Log {
    pub workers: usize,
    pub batch: usize,
    pub store: Option<PathBuf>,
    pub entries: Vec<Entry>,
}

impl Log {
    /// Reads the log: a header line `{"workers","batch","store"}`, then one
    /// `{"line","background","combinations","cost","index","cache_hit"}` per
    /// submit.
    pub fn read(path: &Path) -> Result<Log, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut lines = text.lines().filter(|line| !line.trim().is_empty());
        let header = JsonValue::parse(lines.next().ok_or("empty log")?)
            .map_err(|e| format!("log header: {e}"))?;
        let field = |value: &JsonValue, key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("log field `{key}` missing"))
        };
        let mut entries = Vec::new();
        for line in lines {
            let value = JsonValue::parse(line).map_err(|e| format!("log entry: {e}"))?;
            let best = match (
                value.get("cost").and_then(JsonValue::as_u64),
                value.get("index").and_then(JsonValue::as_usize),
            ) {
                (Some(cost), Some(index)) => Some((cost, index)),
                _ => None,
            };
            entries.push(Entry {
                line: value
                    .get("line")
                    .and_then(JsonValue::as_str)
                    .ok_or("log entry without `line`")?
                    .to_string(),
                background: value
                    .get("background")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                combinations: field(&value, "combinations")? as usize,
                best,
                cache_hit: value
                    .get("cache_hit")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
            });
        }
        Ok(Log {
            workers: field(&header, "workers")? as usize,
            batch: field(&header, "batch")? as usize,
            store: header
                .get("store")
                .and_then(JsonValue::as_str)
                .map(PathBuf::from),
            entries,
        })
    }
}

/// Counts kept by the worker threads.
#[derive(Default)]
pub struct Counters {
    pub variants: u64,
    pub bound_cuts: u64,
    pub flatten_patches: u64,
    pub flatten_rebuilds: u64,
    pub nodes: u64,
    pub node_cuts: u64,
    pub stale_flushes: u64,
    pub queue_wait_ms: Vec<f64>,
    pub drain_ns: u64,
}

impl Counters {
    fn absorb(&mut self, other: Counters) {
        self.variants += other.variants;
        self.bound_cuts += other.bound_cuts;
        self.flatten_patches += other.flatten_patches;
        self.flatten_rebuilds += other.flatten_rebuilds;
        self.nodes += other.nodes;
        self.node_cuts += other.node_cuts;
        self.stale_flushes += other.stale_flushes;
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.drain_ns += other.drain_ns;
    }
}

/// One replay pass.
pub struct Pass {
    pub wall_ns: u64,
    /// Client thread first, then the workers.
    pub threads: Vec<ThreadTrace>,
    pub counters: Counters,
    pub worker_wall_ns: u64,
    pub cache: (usize, u64, u64),
    pub jobs: usize,
}

struct State {
    registry: JobRegistry,
    /// Submit instants of the jobs the client waits on (not the whale),
    /// whose shards the queue-wait metric samples.
    waited_submits: HashMap<u64, Instant>,
    evaluators: HashMap<u64, PartitionEvaluator>,
    finished: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    progress: Condvar,
}

impl Shared {
    fn lock(&self, trace: &mut ThreadTrace, ids: Ids) -> MutexGuard<'_, State> {
        let waited = trace.stamp();
        let state = self.state.lock().expect("replay registry lock");
        trace.leaf(Layer::RegistryLockWait, waited, ids);
        state
    }
}

fn ids_of(lease: &Lease) -> Ids {
    Ids {
        job: Some(lease.job.raw()),
        shard: Some(lease.shard as u32),
    }
}

/// Copies the prepared store so each pass recovers from the same bytes.
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Runs one pass over `log`; `traced` switches the span timers on.
pub fn run_pass(log: &Log, traced: bool, work_dir: &Path) -> Result<Pass, String> {
    let origin = Instant::now();
    let mut client = ThreadTrace::new("client", traced, origin, VARIANT_SPAN_CAP);
    let mut registry = JobRegistry::with_config(RegistryConfig::default());
    let dir = work_dir.join(if traced {
        "store-traced"
    } else {
        "store-untraced"
    });
    // Without a store the daemon recovers nothing and logs nothing; the
    // replay still times recovering an empty store, so `wal.recovery_ns`
    // stays a measurement, but attaches no log.
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(store) = &log.store {
        copy_store(store, &dir)?;
    }
    let start = client.stamp();
    let (wal, recovered) = Wal::open(&dir).map_err(|e| e.to_string())?;
    registry
        .restore(
            recovered.snapshot.as_ref(),
            &recovered.records,
            &rebuild_from_recipe,
        )
        .map_err(|e| e.to_string())?;
    client.leaf(Layer::WalRecovery, start, Ids::default());
    if log.store.is_some() {
        registry.set_sink(Box::new(WalSink(wal)));
    }
    let shared = Shared {
        state: Mutex::new(State {
            registry,
            waited_submits: HashMap::new(),
            evaluators: HashMap::new(),
            finished: false,
        }),
        work: Condvar::new(),
        progress: Condvar::new(),
    };

    let (client, workers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..log.workers.max(1))
            .map(|index| {
                let shared = &shared;
                let name = format!("replay-worker-{index}");
                let trace = ThreadTrace::new(name.clone(), traced, origin, VARIANT_SPAN_CAP);
                scope.spawn(move || worker(shared, &name, log.batch.max(1), trace))
            })
            .collect();
        let outcome = drive(&shared, log, &mut client);
        shared.state.lock().expect("replay registry lock").finished = true;
        shared.work.notify_all();
        let workers: Vec<_> = handles
            .into_iter()
            .map(|handle| handle.join().expect("replay worker exits cleanly"))
            .collect();
        client.finish();
        (outcome.map(|()| client), workers)
    });
    let client = client?;
    let wall_ns = origin.elapsed().as_nanos() as u64;

    let state = shared.state.into_inner().expect("replay registry lock");
    let mut counters = Counters::default();
    let mut threads = vec![client];
    let mut worker_wall_ns = 0u64;
    for (trace, worker_counters, wall) in workers {
        counters.absorb(worker_counters);
        worker_wall_ns += wall;
        threads.push(trace);
    }
    Ok(Pass {
        wall_ns,
        threads,
        counters,
        worker_wall_ns,
        cache: state.registry.cache_stats(),
        jobs: state.registry.job_ids().len(),
    })
}

/// The client: submits every logged line in order, waits for each
/// foreground job, then for the background ones, and checks every answer.
fn drive(shared: &Shared, log: &Log, trace: &mut ThreadTrace) -> Result<(), String> {
    let mut background: Option<(usize, JobId)> = None;
    for (at, entry) in log.entries.iter().enumerate() {
        let start = trace.stamp();
        let submit = recipe::decode(&entry.line)?;
        trace.leaf(Layer::WireDecode, start, Ids::default());

        let mut state = shared.lock(trace, Ids::default());
        let submitted = Instant::now();
        let start = trace.stamp();
        let job = state
            .registry
            .submit_with_recipe(
                &submit.system,
                submit.spec,
                submit.service_evaluator,
                Some(submit.recipe),
            )
            .map_err(|e| format!("entry {at}: submit failed: {e}"))?;
        let ids = Ids {
            job: Some(job.raw()),
            shard: None,
        };
        trace.leaf(Layer::RegistrySubmit, start, ids);
        if !entry.background {
            state.waited_submits.insert(job.raw(), submitted);
        }
        state.evaluators.insert(job.raw(), submit.evaluator);
        drop(state);
        shared.work.notify_all();

        if entry.background {
            // The batch tenant keeps one whale in flight: the daemon run
            // submitted the next one only after seeing this one done.
            if let Some((previous, job)) = background.replace((at, job)) {
                let status = wait_for(shared, job, trace);
                answer(trace, previous, &log.entries[previous], &status)?;
            }
        } else {
            let status = wait_for(shared, job, trace);
            answer(trace, at, entry, &status)?;
        }
    }
    if let Some((at, job)) = background {
        let status = wait_for(shared, job, trace);
        answer(trace, at, &log.entries[at], &status)?;
    }
    Ok(())
}

fn wait_for(shared: &Shared, job: JobId, trace: &mut ThreadTrace) -> JobStatus {
    let idle = trace.stamp();
    let mut state = shared.state.lock().expect("replay registry lock");
    loop {
        let status = state
            .registry
            .poll(job)
            .expect("submitted jobs stay registered");
        if status.state.is_terminal() {
            trace.leaf(
                Layer::Idle,
                idle,
                Ids {
                    job: Some(job.raw()),
                    shard: None,
                },
            );
            return status;
        }
        state = shared
            .progress
            .wait_timeout(state, Duration::from_millis(50))
            .expect("replay registry lock")
            .0;
    }
}

/// Encodes the answer the daemon would send and checks it against the log.
fn answer(
    trace: &mut ThreadTrace,
    at: usize,
    entry: &Entry,
    status: &JobStatus,
) -> Result<(), String> {
    let start = trace.stamp();
    let line = status_to_json("wait", status).to_line();
    trace.leaf(
        Layer::WireEncode,
        start,
        Ids {
            job: Some(status.job.raw()),
            shard: None,
        },
    );
    std::hint::black_box(line.len());
    let best = status.best().map(BestVariant::key);
    let accounted = status.report.accounted() as usize;
    let census_ok = if status.cache_hit {
        accounted == 0
    } else {
        accounted == status.combinations
    };
    if status.state != JobState::Completed
        || status.report.errors != 0
        || status.combinations != entry.combinations
        || status.cache_hit != entry.cache_hit
        || !census_ok
        || best != entry.best
    {
        return Err(format!(
            "replay entry {at} ({}) disagrees with the daemon: state {} combinations {} \
             accounted {accounted} errors {} cache_hit {} best {best:?}; daemon: combinations {} \
             cache_hit {} best {:?}",
            entry.line,
            status.state,
            status.combinations,
            status.report.errors,
            status.cache_hit,
            entry.combinations,
            entry.cache_hit,
            entry.best
        ));
    }
    Ok(())
}

/// A replay worker: lease, drain, flush — the service worker loop, timed.
fn worker(
    shared: &Shared,
    name: &str,
    batch: usize,
    mut trace: ThreadTrace,
) -> (ThreadTrace, Counters, u64) {
    let started = Instant::now();
    let mut counters = Counters::default();
    loop {
        let mut state = shared.lock(&mut trace, Ids::default());
        let now = Instant::now();
        let start = trace.stamp();
        let lease = state.registry.lease_as(name, now);
        let ids = lease.as_ref().map(ids_of).unwrap_or_default();
        trace.leaf(Layer::RegistryLease, start, ids);
        match lease {
            Some(lease) => {
                if !lease.hedged {
                    if let Some(submitted) = state.waited_submits.get(&lease.job.raw()) {
                        counters
                            .queue_wait_ms
                            .push(now.saturating_duration_since(*submitted).as_secs_f64() * 1e3);
                    }
                }
                let evaluator = state
                    .evaluators
                    .get(&lease.job.raw())
                    .cloned()
                    .expect("every leased job was submitted by the replay");
                drop(state);
                drain(shared, &lease, &evaluator, batch, &mut trace, &mut counters);
            }
            None => {
                if state.finished {
                    break;
                }
                let idle = trace.stamp();
                drop(
                    shared
                        .work
                        .wait_timeout(state, Duration::from_millis(20))
                        .expect("replay registry lock"),
                );
                trace.leaf(Layer::Idle, idle, Ids::default());
            }
        }
    }
    trace.finish();
    let wall = started.elapsed().as_nanos() as u64;
    (trace, counters, wall)
}

/// Drains one leased shard in the worker's order: Gray-rank flatten, choice
/// decode, incumbent bound, compile, search, report record; flushes every
/// `batch` variants (or renew interval) and completes the shard.
fn drain(
    shared: &Shared,
    lease: &Lease,
    evaluator: &PartitionEvaluator,
    batch: usize,
    trace: &mut ThreadTrace,
    counters: &mut Counters,
) {
    let busy = Instant::now();
    let ids = ids_of(lease);
    trace.begin_drain(ids);
    let space = lease.flattener.space();
    let combinations = space.count();
    let mut delta = ShardReport::default();
    let mut flattener = DeltaFlattener::new(&lease.flattener);
    let mut batch_started = Instant::now();
    let mut since_flush = 0usize;
    let mut rank = lease.shard;
    let mut stale = false;
    while rank < combinations {
        let start = trace.stamp();
        let flattened = flattener.flatten_gray_rank(rank);
        trace.leaf(Layer::Flatten, start, ids);
        match flattened {
            Err(_) => delta.errors += 1,
            Ok((index, graph)) => {
                let start = trace.stamp();
                let choice = space
                    .choice_at(index)
                    .expect("gray ranks map into the space");
                trace.leaf(Layer::SpaceChoice, start, ids);
                let incumbent = lease.incumbent.load(Ordering::Relaxed);
                let start = trace.stamp();
                let bound = lease.evaluator.lower_bound(&choice, graph);
                trace.leaf(Layer::EvaluatorBound, start, ids);
                counters.variants += 1;
                if bound > incumbent {
                    delta.pruned += 1;
                    counters.bound_cuts += 1;
                } else {
                    let start = trace.stamp();
                    let compiled =
                        compiled_from_flat_graph(graph, evaluator.processor_cost, |name| {
                            Some(evaluator.params.params_for(name))
                        });
                    trace.leaf(Layer::BridgeCompile, start, ids);
                    match compiled {
                        Err(_) => delta.errors += 1,
                        Ok(compiled) => {
                            let start = trace.stamp();
                            let searched =
                                optimize_compiled(&compiled, evaluator.mode, evaluator.strategy);
                            trace.leaf(Layer::PartitionSearch, start, ids);
                            match searched {
                                Ok(result) => {
                                    counters.nodes += result.evaluated_candidates;
                                    counters.node_cuts += result.pruned_candidates;
                                    let cost = result.cost.total();
                                    let detail = recipe::detail_of(&result.cost);
                                    delta.evaluated += 1;
                                    delta.feasible += 1;
                                    lease.incumbent.fetch_min(cost, Ordering::Relaxed);
                                    let start = trace.stamp();
                                    delta.record(
                                        BestVariant {
                                            index,
                                            cost,
                                            choice,
                                            detail,
                                        },
                                        lease.top_k,
                                    );
                                    trace.leaf(Layer::ReportRecord, start, ids);
                                }
                                Err(SynthError::Infeasible(_)) => delta.evaluated += 1,
                                Err(_) => delta.errors += 1,
                            }
                        }
                    }
                }
            }
        }
        since_flush += 1;
        rank += lease.shard_count;
        let due = since_flush >= batch || batch_started.elapsed() >= lease.renew_interval;
        if due && rank < combinations {
            delta.eval_ns = batch_started.elapsed().as_nanos();
            let batch = std::mem::take(&mut delta);
            if !flush(shared, lease, batch, false, trace, counters) {
                stale = true;
                break;
            }
            since_flush = 0;
            batch_started = Instant::now();
        }
    }
    if !stale {
        delta.eval_ns = batch_started.elapsed().as_nanos();
        flush(shared, lease, delta, true, trace, counters);
    }
    let stats = flattener.stats();
    counters.flatten_patches += stats.patches;
    counters.flatten_rebuilds += stats.rebuilds;
    trace.end_drain();
    counters.drain_ns += busy.elapsed().as_nanos() as u64;
}

/// Hands a batch to the registry; a rejected flush abandons the lease, as
/// the service worker does, and ends the drain.
fn flush(
    shared: &Shared,
    lease: &Lease,
    delta: ShardReport,
    last: bool,
    trace: &mut ThreadTrace,
    counters: &mut Counters,
) -> bool {
    let ids = ids_of(lease);
    let mut state = shared.lock(trace, ids);
    let now = Instant::now();
    let start = trace.stamp();
    let accepted = if last {
        state
            .registry
            .complete_shard(lease.lease, delta, now)
            .is_ok()
    } else {
        state.registry.report_batch(lease.lease, delta, now).is_ok()
    };
    if !accepted {
        state.registry.abandon(lease.lease);
    }
    trace.leaf(Layer::RegistryFlush, start, ids);
    drop(state);
    if last || !accepted {
        shared.progress.notify_all();
        shared.work.notify_all();
    }
    if !accepted {
        counters.stale_flushes += 1;
    }
    accepted
}

/// The per-layer metrics of a traced pass, with the overhead against an
/// untraced pass of the same log.
pub fn metrics(untraced: &Pass, traced: &Pass) -> JsonValue {
    let mut members: Vec<(String, JsonValue)> = Vec::new();
    let mut put = |name: &str, value: JsonValue| members.push((name.to_string(), value));
    let float = |value: f64| JsonValue::Float(value);
    let int = |value: u64| value.to_json();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    for layer in Layer::ALL {
        let (ns, calls) = traced
            .threads
            .iter()
            .map(|thread| thread.total(layer))
            .fold((0, 0), |acc, (ns, calls)| (acc.0 + ns, acc.1 + calls));
        put(layer.metric(), int(ns));
        put(&format!("{}.calls", layer.metric()), int(calls));
    }
    let c = &traced.counters;
    put(
        "flatten.rebuild_share",
        float(ratio(
            c.flatten_rebuilds,
            c.flatten_patches + c.flatten_rebuilds,
        )),
    );
    put(
        "evaluator.bound_cut_share",
        float(ratio(c.bound_cuts, c.variants)),
    );
    put("evaluator.variants", int(c.variants));
    put("partition.nodes", int(c.nodes));
    put("partition.cut_share", float(ratio(c.node_cuts, c.nodes)));
    put("registry.stale_flushes", int(c.stale_flushes));
    put(
        "sched.queue_wait_ms.samples",
        JsonValue::Array(
            c.queue_wait_ms
                .iter()
                .map(|ms| JsonValue::Float(*ms))
                .collect(),
        ),
    );
    let (_, hits, misses) = traced.cache;
    put("cache.hit_share", float(ratio(hits, hits + misses)));
    put("cache.lookups", int(hits + misses));
    put(
        "worker.busy_share",
        float(ratio(c.drain_ns, traced.worker_wall_ns)),
    );
    let wall: u64 = traced.threads.iter().map(|thread| thread.wall_ns).sum();
    let unattributed: u64 = traced
        .threads
        .iter()
        .map(ThreadTrace::unattributed_ns)
        .sum();
    let named: u64 = traced
        .threads
        .iter()
        .map(|thread| {
            Layer::ALL
                .iter()
                .filter(|layer| layer.is_named())
                .map(|layer| thread.total(*layer).0)
                .sum::<u64>()
        })
        .sum();
    put("ledger.thread_wall_ns", int(wall));
    put("ledger.named_self_ns", int(named));
    put("unattributed_ns", int(unattributed));
    put(
        "trace_overhead",
        float(traced.wall_ns as f64 / untraced.wall_ns.max(1) as f64 - 1.0),
    );
    put("replay.untraced_wall_ns", int(untraced.wall_ns));
    put("replay.traced_wall_ns", int(traced.wall_ns));
    put("replay.jobs", int(traced.jobs as u64));
    put(
        "trace.spans_kept",
        int(traced.threads.iter().map(|t| t.spans.len() as u64).sum()),
    );
    put(
        "trace.spans_dropped",
        int(traced.threads.iter().map(|t| t.dropped).sum()),
    );
    JsonValue::Object(members)
}
