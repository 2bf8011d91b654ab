//! The long-running exploration service: registry + worker pool + client API.
//!
//! [`ExplorationService::start`] spawns a pool of OS worker threads that
//! repeatedly lease strided shards from the [`JobRegistry`], drain them
//! ([`crate::worker::drain_lease`]) and feed batched results back. Clients
//! talk to the service in-process through the methods here — submit, poll,
//! cancel, blocking wait, and an event subscription over `std::sync::mpsc`
//! channels (the offline environment has no async runtime; channels plus a
//! blocking `wait` cover the same call patterns) — or across processes via
//! the ndjson frontend in [`crate::wire`].
//!
//! With a [`ServiceConfig::store_dir`], the service becomes **durable**: the
//! registry write-ahead logs every submit / shard commit / cancel to a
//! [`spi_store::Wal`] in that directory, startup replays snapshot + records
//! (resuming interrupted jobs from their pending shards), and the
//! content-addressed result cache persists across restarts. [`quiesce`]
//! drains in-flight leases and compacts the store — the clean-shutdown path
//! `spi-explored` takes on EOF.
//!
//! [`quiesce`]: ExplorationService::quiesce

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spi_store::sched::HedgeConfig;
use spi_store::span::{self, Profile, SpanDrain, SpanIds, SpanRecorder, SpanSink};
use spi_store::trace::TraceSubscription;
use spi_store::{CacheLimit, MetricsRegistry, Wal};
use spi_variants::VariantSystem;

use crate::clock::{Clock, SystemClock};
use crate::durability::WalSink;
use crate::evaluator::Evaluator;
use crate::health::{HealthReport, Watchdog};
use crate::registry::{
    JobEvent, JobId, JobRegistry, JobSpec, JobStatus, Lease, RegistryConfig, RestoreStats,
};
use crate::wire::rebuild_from_recipe;
use crate::worker::{drain_lease, DrainOutcome, FlushResponse};
use crate::{ExploreError, Result};
use spi_model::json::JsonValue;

/// Tunables of an [`ExplorationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// The time source every deadline in the service reads: worker-loop
    /// expiry sweeps, lease grants (and thus hedging deadlines), flush
    /// stamps, watchdog sweeps and quiesce. The default [`SystemClock`]
    /// forwards to [`Instant::now`]; a simulation substitutes
    /// [`SimClock`](crate::SimClock) to jump time deterministically.
    pub clock: Arc<dyn Clock>,
    /// How long a lease survives without a batch or completion before its
    /// shard is re-queued.
    pub lease_timeout: Duration,
    /// Variants accounted per flushed batch.
    pub batch_size: usize,
    /// Speculative re-leasing policy for straggler shards.
    pub hedge: HedgeConfig,
    /// Directory of the durable store (WAL + snapshot + result cache).
    /// `None` keeps the service fully in-memory, as before.
    pub store_dir: Option<PathBuf>,
    /// Bound on the content-addressed result cache; unbounded by default.
    pub cache_limit: CacheLimit,
    /// Compact the WAL once its log exceeds this many bytes (checked after
    /// committed completions); `None` compacts only at quiesce.
    pub compact_log_bytes: Option<u64>,
    /// Capacity of the scheduler-decision trace ring drained over the
    /// `trace` op; `0` disables capture.
    pub trace_capacity: usize,
    /// Whether the metrics plane records anything. `false` swaps in
    /// [`MetricsRegistry::disabled`] — every instrumentation site collapses
    /// to one branch — and also disables the stall watchdog (its progress
    /// signals are metrics).
    pub metrics_enabled: bool,
    /// How often the background stall watchdog sweeps the registry for stuck
    /// leases, starved tenants and a stalled WAL; `None` disables the thread
    /// (the `health` op still sweeps inline on demand).
    pub watchdog_interval: Option<Duration>,
    /// Whether the span recorder captures anything. `false` swaps in
    /// [`SpanRecorder::disabled`] — every instrumentation site collapses to
    /// one branch, same discipline as `metrics_enabled`.
    pub spans_enabled: bool,
    /// Per-worker span ring capacity; `0` disables recording outright.
    pub span_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            clock: Arc::new(SystemClock),
            lease_timeout: Duration::from_secs(30),
            batch_size: 256,
            hedge: HedgeConfig::default(),
            store_dir: None,
            cache_limit: CacheLimit::UNBOUNDED,
            compact_log_bytes: None,
            trace_capacity: spi_store::trace::DEFAULT_TRACE_CAPACITY,
            metrics_enabled: true,
            watchdog_interval: Some(Duration::from_secs(1)),
            spans_enabled: true,
            span_capacity: span::DEFAULT_SPAN_CAPACITY,
        }
    }
}

impl ServiceConfig {
    /// A config with `workers` threads and defaults otherwise.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            ..ServiceConfig::default()
        }
    }
}

struct Inner {
    registry: Mutex<JobRegistry>,
    /// Signalled when shards become available (submit, expiry, abandon).
    work_available: Condvar,
    /// Signalled on shard completion / job termination, for [`wait`].
    progress: Condvar,
    shutdown: AtomicBool,
    /// Set by [`ExplorationService::quiesce`]: workers finish the lease they
    /// hold but take no new ones.
    draining: AtomicBool,
    batch_size: usize,
    /// Shared with the registry (and thus every instrumentation site).
    metrics: Arc<MetricsRegistry>,
    /// Shared stall detector: the background sweeper and on-demand `health`
    /// calls compare against the same progress baselines.
    watchdog: Mutex<Watchdog>,
    /// Where quiesce writes its final `metrics.json`, when durable.
    store_dir: Option<PathBuf>,
    /// The span recorder behind the profiling plane; every worker sink and
    /// the registry's own sink feed it.
    spans: Arc<SpanRecorder>,
    /// When the service came up — the zero point of `uptime_ns` stamps.
    started: Instant,
    /// The deadline time source (see [`ServiceConfig::clock`]).
    clock: Arc<dyn Clock>,
}

/// A running exploration service; dropping it stops the worker pool (workers
/// abandon in-flight shards, which re-queue for a future service over the
/// same registry state — with a store, also durably).
pub struct ExplorationService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// The background watchdog sweeper, when one is configured.
    sweeper: Option<JoinHandle<()>>,
    restored: RestoreStats,
}

impl ExplorationService {
    /// Starts the worker pool, recovering durable state first when the config
    /// names a store directory.
    ///
    /// # Panics
    ///
    /// Panics when the store cannot be opened or replayed — a durable service
    /// must not silently come up empty. Use [`try_start`](Self::try_start)
    /// to handle store failures programmatically.
    pub fn start(config: ServiceConfig) -> Self {
        Self::try_start(config).expect("store opens and replays")
    }

    /// Starts the worker pool; see [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// [`ExploreError::Store`] when the store directory cannot be opened,
    /// its contents fail checksum validation, or replay finds malformed
    /// records.
    pub fn try_start(config: ServiceConfig) -> Result<Self> {
        let mut registry = JobRegistry::with_config(RegistryConfig {
            lease_timeout: config.lease_timeout,
            hedge: config.hedge,
            cache_limit: config.cache_limit,
            compact_log_bytes: config.compact_log_bytes,
            trace_capacity: config.trace_capacity,
        });
        // The observers attach before the restore, so the shards it requeues
        // are counted where the rest of the run is.
        let metrics = Arc::new(if config.metrics_enabled {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        });
        registry.set_metrics(Arc::clone(&metrics));
        let spans = Arc::new(if config.spans_enabled && config.span_capacity > 0 {
            SpanRecorder::new(config.span_capacity)
        } else {
            SpanRecorder::disabled()
        });
        // Trace-seq correlation: every span brackets the scheduler-decision
        // sequence numbers it overlapped.
        spans.link_trace_seq(registry.trace_seq_mirror());
        registry.set_spans(spans.sink("registry"));
        let mut restored = RestoreStats::default();
        if let Some(dir) = &config.store_dir {
            let (wal, recovered) =
                Wal::open(dir).map_err(|e| ExploreError::Store(e.to_string()))?;
            restored = registry.restore(
                recovered.snapshot.as_ref(),
                &recovered.records,
                &rebuild_from_recipe,
            )?;
            registry.set_sink(Box::new(WalSink(wal)));
        }
        let inner = Arc::new(Inner {
            registry: Mutex::new(registry),
            work_available: Condvar::new(),
            progress: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            batch_size: config.batch_size.max(1),
            metrics,
            watchdog: Mutex::new(Watchdog::new()),
            store_dir: config.store_dir.clone(),
            spans,
            started: Instant::now(),
            clock: Arc::clone(&config.clock),
        });
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("spi-explore-worker-{index}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("worker thread spawns")
            })
            .collect();
        let sweeper = config
            .watchdog_interval
            .filter(|_| config.metrics_enabled)
            .map(|interval| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name("spi-explore-watchdog".to_string())
                    .spawn(move || watchdog_loop(&inner, interval))
                    .expect("watchdog thread spawns")
            });
        Ok(ExplorationService {
            inner,
            workers,
            sweeper,
            restored,
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// What startup recovery restored from the store (zeroes without one).
    pub fn restored(&self) -> RestoreStats {
        self.restored
    }

    /// Submits a job; returns immediately with its id.
    ///
    /// # Errors
    ///
    /// As [`JobRegistry::submit`].
    pub fn submit(
        &self,
        system: &VariantSystem,
        spec: JobSpec,
        evaluator: Arc<dyn Evaluator>,
    ) -> Result<JobId> {
        self.submit_with_recipe(system, spec, evaluator, None)
    }

    /// Submits a job carrying a construction recipe, making it recoverable
    /// across restarts and (with a canonical evaluator spec) cacheable.
    ///
    /// # Errors
    ///
    /// As [`JobRegistry::submit_with_recipe`].
    pub fn submit_with_recipe(
        &self,
        system: &VariantSystem,
        spec: JobSpec,
        evaluator: Arc<dyn Evaluator>,
        recipe: Option<JsonValue>,
    ) -> Result<JobId> {
        let id = self
            .registry()
            .submit_with_recipe(system, spec, evaluator, recipe)?;
        self.inner.work_available.notify_all();
        self.inner.progress.notify_all();
        Ok(id)
    }

    /// A point-in-time snapshot of the job.
    ///
    /// # Errors
    ///
    /// As [`JobRegistry::poll`].
    pub fn poll(&self, job: JobId) -> Result<JobStatus> {
        self.registry().poll(job)
    }

    /// Cancels the job (idempotent) and returns the resulting snapshot.
    ///
    /// # Errors
    ///
    /// As [`JobRegistry::cancel`].
    pub fn cancel(&self, job: JobId) -> Result<JobStatus> {
        let status = self.registry().cancel(job)?;
        self.inner.progress.notify_all();
        Ok(status)
    }

    /// Snapshots of every registered job, in submission order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let registry = self.registry();
        registry
            .job_ids()
            .into_iter()
            .filter_map(|id| registry.poll(id).ok())
            .collect()
    }

    /// `(entries, hits, misses)` of the content-addressed result cache.
    pub fn cache_stats(&self) -> (usize, u64, u64) {
        self.registry().cache_stats()
    }

    /// A point-in-time waitgraph snapshot (see [`JobRegistry::waitgraph`]):
    /// what every job, shard and lease is waiting on right now. Assembled
    /// under one registry lock acquisition, so it is never torn.
    pub fn waitgraph(&self) -> spi_model::GraphSnapshot {
        self.registry().waitgraph()
    }

    /// Drains the buffered scheduler-decision trace (see
    /// [`JobRegistry::drain_trace`]).
    pub fn drain_trace(&self) -> spi_store::TraceDrain {
        self.registry().drain_trace()
    }

    /// Reads trace events at or after `since` without consuming them (see
    /// [`JobRegistry::read_trace_since`]).
    pub fn read_trace_since(&self, since: u64) -> spi_store::TraceDrain {
        self.registry().read_trace_since(since)
    }

    /// The sequence number the next trace event will get.
    pub fn trace_next_seq(&self) -> u64 {
        self.registry().trace_next_seq()
    }

    /// Registers a bounded live trace subscription (see
    /// [`JobRegistry::subscribe_trace`]): every subsequent scheduler decision
    /// streams to the returned handle, slow consumers lag instead of ever
    /// blocking the scheduler.
    pub fn subscribe_trace(&self, queue: usize) -> TraceSubscription {
        self.registry().subscribe_trace(queue)
    }

    /// The service-wide metrics registry (counters, gauges, histograms,
    /// per-tenant rows). Shared with the registry and the worker pool; cheap
    /// to clone and safe to read without any service lock.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.metrics)
    }

    /// The full metrics plane as one canonical JSON value — what the
    /// `metrics` op returns and quiesce writes to `metrics.json`.
    pub fn metrics_snapshot(&self) -> JsonValue {
        self.inner.metrics.snapshot()
    }

    /// [`metrics_snapshot`](Self::metrics_snapshot) with a capture header
    /// prepended: `captured_unix_ms` (wall clock) and `uptime_ns` (since
    /// service start). What the `metrics` op and `metrics.json` actually
    /// carry — the raw snapshot stays deliberately time-free so identical
    /// runs stay byte-identical.
    pub fn metrics_snapshot_stamped(&self) -> JsonValue {
        self.stamp(self.inner.metrics.snapshot())
    }

    /// The span recorder behind the profiling plane; cheap to clone, safe to
    /// read without any service lock.
    pub fn span_recorder(&self) -> Arc<SpanRecorder> {
        Arc::clone(&self.inner.spans)
    }

    /// Completed spans with sequence `>= since`, merged across every worker
    /// ring in completion order — the cursor feed behind `spans` watch
    /// frames.
    pub fn spans_since(&self, since: u64) -> SpanDrain {
        self.inner.spans.read_since(since)
    }

    /// Aggregates every recorded span into the per-phase profile: counts,
    /// total/self time, latency histograms, folded flamegraph stacks and
    /// per-job critical paths. What the `profile` op returns and quiesce
    /// writes to `profile.json`.
    pub fn profile(&self) -> Profile {
        let drain = self.inner.spans.read_since(0);
        Profile::from_spans(&drain.spans, drain.dropped)
    }

    /// [`profile`](Self::profile) as stamped canonical JSON.
    pub fn profile_snapshot(&self) -> JsonValue {
        self.stamp(self.profile().to_json())
    }

    /// Every recorded span as Chrome trace-event JSON (`ph:"X"` complete
    /// events, one process per tenant, one thread per worker) — load it at
    /// `ui.perfetto.dev` or `chrome://tracing`.
    pub fn chrome_trace(&self) -> JsonValue {
        let drain = self.inner.spans.read_since(0);
        span::chrome_trace(&drain.spans)
    }

    /// Prepends the capture header to a snapshot object.
    fn stamp(&self, value: JsonValue) -> JsonValue {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |since| since.as_millis() as i128);
        let uptime = self.inner.started.elapsed().as_nanos() as i128;
        let JsonValue::Object(fields) = value else {
            return value;
        };
        let mut stamped = Vec::with_capacity(fields.len() + 2);
        stamped.push(("captured_unix_ms".to_string(), JsonValue::Int(unix_ms)));
        stamped.push(("uptime_ns".to_string(), JsonValue::Int(uptime)));
        stamped.extend(fields);
        JsonValue::Object(stamped)
    }

    /// Sweeps the stall watchdog **now** against a fresh health observation
    /// and returns its report. Shares progress baselines with the background
    /// sweeper, so back-to-back calls inside the watchdog's minimum window
    /// still compare against a meaningful prior sweep.
    pub fn health(&self) -> HealthReport {
        let now = self.inner.clock.now();
        let observation = self.registry().observe_health(now);
        self.inner
            .watchdog
            .lock()
            .expect("watchdog lock")
            .sweep(&observation, now)
    }

    /// `true` when nothing is running or leased — the condition the `watch`
    /// op ends on.
    pub fn is_idle(&self) -> bool {
        let registry = self.registry();
        registry.running_jobs() == 0 && registry.live_lease_count() == 0
    }

    /// Subscribes to the job's event stream (improvements, shard completions,
    /// termination) over an `mpsc` channel.
    ///
    /// # Errors
    ///
    /// As [`JobRegistry::subscribe`].
    pub fn subscribe(&self, job: JobId) -> Result<mpsc::Receiver<JobEvent>> {
        self.registry().subscribe(job)
    }

    /// Blocks until the job reaches a terminal state and returns its final,
    /// exact snapshot.
    ///
    /// # Errors
    ///
    /// As [`JobRegistry::poll`].
    pub fn wait(&self, job: JobId) -> Result<JobStatus> {
        let mut registry = self.inner.registry.lock().expect("registry lock");
        loop {
            let status = registry.poll(job)?;
            if status.state.is_terminal() {
                return Ok(status);
            }
            let (guard, _) = self
                .inner
                .progress
                .wait_timeout(registry, Duration::from_millis(50))
                .expect("registry lock");
            registry = guard;
        }
    }

    /// The clean-shutdown path: stop taking new leases, let every in-flight
    /// lease **drain to completion** (its staged report commits — nothing is
    /// abandoned mid-drain), then compact the store to a synced snapshot.
    /// Pending shards stay pending; with a store they resume on the next
    /// start. Idempotent; the service keeps answering queries afterwards,
    /// but its workers are permanently idle.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Store`] when the final compaction fails (in-flight
    /// work was still committed as far as the WAL allowed).
    pub fn quiesce(&self) -> Result<()> {
        self.inner.draining.store(true, Ordering::Relaxed);
        self.inner.work_available.notify_all();
        let mut registry = self.inner.registry.lock().expect("registry lock");
        loop {
            // Draining workers stop running expiry, so the quiesce loop takes
            // it over — a lease orphaned by a dead or wedged worker must not
            // hold the shutdown hostage (live drains keep renewing via their
            // flushes and are unaffected).
            registry.expire(self.inner.clock.now());
            if registry.live_lease_count() == 0 {
                registry.compact_store()?;
                drop(registry);
                // The final metrics and profile snapshots land next to the
                // WAL — a post-mortem of the run that survives the process.
                if let Some(dir) = &self.inner.store_dir {
                    if self.inner.metrics.is_enabled() {
                        let line = self.metrics_snapshot_stamped().to_line();
                        std::fs::write(dir.join("metrics.json"), line + "\n")
                            .map_err(|e| ExploreError::Store(e.to_string()))?;
                    }
                    if self.inner.spans.is_enabled() {
                        let line = self.profile_snapshot().to_line();
                        std::fs::write(dir.join("profile.json"), line + "\n")
                            .map_err(|e| ExploreError::Store(e.to_string()))?;
                    }
                }
                return Ok(());
            }
            let (guard, _) = self
                .inner
                .progress
                .wait_timeout(registry, Duration::from_millis(10))
                .expect("registry lock");
            registry = guard;
        }
    }

    fn registry(&self) -> std::sync::MutexGuard<'_, JobRegistry> {
        self.inner.registry.lock().expect("registry lock")
    }
}

impl Drop for ExplorationService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    let thread = std::thread::current();
    let worker: Arc<str> = thread.name().unwrap_or("anonymous").into();
    // One sink per worker thread: lock-free enter/exit into this worker's
    // ring, flushed on exit. Lives for the whole loop.
    let spans = inner.spans.sink(&worker);
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let lease = {
            let mut registry = inner.registry.lock().expect("registry lock");
            let draining = inner.draining.load(Ordering::Relaxed);
            if !draining {
                registry.expire(inner.clock.now());
            }
            match (!draining)
                .then(|| registry.lease_as(&worker, inner.clock.now()))
                .flatten()
            {
                Some(lease) => Some(lease),
                None => {
                    // Idle-wait; the timeout re-checks lease expiry and
                    // shutdown even if no submit ever signals.
                    let _ = inner
                        .work_available
                        .wait_timeout(registry, Duration::from_millis(20))
                        .expect("registry lock");
                    None
                }
            }
        };
        if let Some(lease) = lease {
            process_lease(inner, &lease, &spans, &worker);
        }
    }
}

/// Periodic stall sweeps; exits with the worker pool. Sleeps in short slices
/// so a service drop joins promptly even under a long interval.
fn watchdog_loop(inner: &Inner, interval: Duration) {
    let slice = Duration::from_millis(25).min(interval);
    let mut next_sweep = Instant::now() + interval;
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        if now < next_sweep {
            std::thread::sleep(slice.min(next_sweep - now));
            continue;
        }
        next_sweep = now + interval;
        // Sweep pacing runs on wall time (the sleeps above), but the
        // observation itself reads the service clock so simulated-time
        // jumps are visible to stall detection.
        let sweep_now = inner.clock.now();
        let observation = {
            let registry = inner.registry.lock().expect("registry lock");
            registry.observe_health(sweep_now)
        };
        let _ = inner
            .watchdog
            .lock()
            .expect("watchdog lock")
            .sweep(&observation, sweep_now);
    }
}

fn process_lease(inner: &Inner, lease: &Lease, spans: &SpanSink, worker: &Arc<str>) {
    if spans.is_enabled() {
        // Every span recorded during this drain carries the lease's full
        // waitgraph attribution.
        spans.set_context(SpanIds {
            job: Some(lease.job.raw()),
            shard: Some(lease.shard as u64),
            lease: Some(lease.lease.raw()),
            tenant: Some(lease.tenant.as_str().into()),
            worker: Some(Arc::clone(worker)),
        });
    }
    let outcome = drain_lease(
        lease,
        inner.batch_size,
        &inner.metrics,
        spans,
        || inner.shutdown.load(Ordering::Relaxed),
        |delta, is_final| {
            let mut registry = inner.registry.lock().expect("registry lock");
            let result = if is_final {
                registry.complete_shard(lease.lease, delta, inner.clock.now())
            } else {
                registry
                    .report_batch(lease.lease, delta, inner.clock.now())
                    .map(|()| false)
            };
            drop(registry);
            match result {
                Ok(_) => {
                    if is_final {
                        inner.progress.notify_all();
                    }
                    FlushResponse::Continue
                }
                Err(_) => FlushResponse::Stop,
            }
        },
    );
    match outcome {
        DrainOutcome::Stopped | DrainOutcome::Stale => {
            // Stopped: service shutdown or job cancel. Stale: a flush was
            // rejected — usually a genuinely stale lease (expired, hedged
            // over), but also a *store* failure on the final commit, where
            // the registry deliberately keeps the lease live. Abandon covers
            // both: a no-op for truly stale leases, an immediate
            // requeue-and-release for the store-failure case (instead of
            // stalling the shard for a whole lease timeout — or hanging
            // quiesce forever, since draining workers no longer expire).
            let mut registry = inner.registry.lock().expect("registry lock");
            registry.abandon(lease.lease);
            drop(registry);
            inner.work_available.notify_all();
            inner.progress.notify_all();
        }
        DrainOutcome::Completed => {
            // The lease is spent; quiesce may be waiting on it.
            inner.progress.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Evaluation, FnEvaluator};
    use crate::registry::JobState;
    use spi_workloads::scaling_system;

    fn index_cost_evaluator() -> Arc<dyn Evaluator> {
        Arc::new(FnEvaluator::new(|index, _c, _g| {
            Ok(Evaluation {
                cost: ((index as u64) * 131) % 251,
                feasible: true,
                detail: format!("v{index}"),
            })
        }))
    }

    #[test]
    fn service_drains_a_job_to_completion() {
        let service = ExplorationService::start(ServiceConfig::with_workers(4));
        let system = scaling_system(6, 2).unwrap(); // 64 variants
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: "drain".into(),
                    shard_count: 8,
                    top_k: 4,
                    ..JobSpec::default()
                },
                index_cost_evaluator(),
            )
            .unwrap();
        let status = service.wait(job).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.evaluated, 64);
        assert_eq!(status.report.accounted(), 64);
        assert_eq!(status.shards_done, 8);
        // Best is the index minimizing (131·i mod 251, i): i=23 gives cost 1.
        let best = status.best().unwrap();
        let serial_best = (0..64u64).map(|i| ((i * 131) % 251, i)).min().unwrap();
        assert_eq!((best.cost, best.index as u64), serial_best);
        assert_eq!(status.report.top.len(), 4);
    }

    #[test]
    fn wait_and_poll_agree_on_terminal_state() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let system = scaling_system(4, 2).unwrap();
        let job = service
            .submit(&system, JobSpec::default(), index_cost_evaluator())
            .unwrap();
        let finished = service.wait(job).unwrap();
        let polled = service.poll(job).unwrap();
        assert_eq!(finished, polled);
        assert_eq!(polled.shards_in_flight, 0);
    }

    #[test]
    fn cancellation_stops_a_running_job() {
        // A deliberately slow evaluator so cancel lands mid-drain.
        let evaluator = Arc::new(FnEvaluator::new(|index, _c, _g| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let service = ExplorationService::start(ServiceConfig {
            workers: 2,
            batch_size: 4,
            ..ServiceConfig::default()
        });
        let system = scaling_system(8, 2).unwrap(); // 256 variants ≈ 500ms serial
        let job = service
            .submit(&system, JobSpec::default(), evaluator)
            .unwrap();
        let status = service.cancel(job).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        let settled = service.wait(job).unwrap();
        assert_eq!(settled.state, JobState::Cancelled);
        assert!(settled.report.accounted() < 256, "cancel landed mid-drain");
    }

    #[test]
    fn slow_batches_do_not_livelock_under_a_short_lease_timeout() {
        // One 32-variant shard at ~5ms per evaluation ≈ 160ms of work, a 50ms
        // lease timeout, and a batch size that never flushes by count. The
        // idle second worker expires stale leases every ~20ms, so without
        // interval-driven renewal the drain would lose its lease mid-batch,
        // get StaleLease on completion and restart forever.
        let evaluator = Arc::new(FnEvaluator::new(|index, _c, _g| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let service = ExplorationService::start(ServiceConfig {
            workers: 2,
            lease_timeout: Duration::from_millis(50),
            batch_size: 10_000,
            ..ServiceConfig::default()
        });
        let system = scaling_system(5, 2).unwrap(); // 32 variants
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: "slow-batch".into(),
                    shard_count: 1,
                    top_k: 4,
                    ..JobSpec::default()
                },
                evaluator,
            )
            .unwrap();
        // Bounded wait so a livelock regression fails instead of hanging.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let status = loop {
            let status = service.poll(job).unwrap();
            if status.state.is_terminal() {
                break status;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job livelocked: {status:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.accounted(), 32);
    }

    #[test]
    fn dropping_the_service_joins_workers_promptly() {
        let service = ExplorationService::start(ServiceConfig::with_workers(2));
        let system = scaling_system(4, 2).unwrap();
        let _job = service
            .submit(&system, JobSpec::default(), index_cost_evaluator())
            .unwrap();
        drop(service); // must not hang
    }

    #[test]
    fn quiesce_commits_in_flight_leases_and_stops_new_ones() {
        let evaluator = Arc::new(FnEvaluator::new(|index, _c, _g| {
            std::thread::sleep(Duration::from_millis(3));
            Ok(Evaluation {
                cost: index as u64,
                feasible: true,
                detail: String::new(),
            })
        }));
        let service = ExplorationService::start(ServiceConfig {
            workers: 2,
            batch_size: 2,
            ..ServiceConfig::default()
        });
        let system = scaling_system(6, 2).unwrap(); // 64 variants
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: "quiesce".into(),
                    shard_count: 16,
                    top_k: 8,
                    ..JobSpec::default()
                },
                evaluator,
            )
            .unwrap();
        service.quiesce().unwrap();
        let status = service.poll(job).unwrap();
        assert_eq!(status.shards_in_flight, 0, "no lease survives a quiesce");
        // Whatever was accounted is exactly the committed shards — in-flight
        // drains completed their whole shard (4 variants each), nothing was
        // torn mid-shard.
        assert_eq!(status.report.accounted(), status.shards_done as u64 * 4);
        // Quiesce is idempotent and the service still answers.
        service.quiesce().unwrap();
        assert!(service.poll(job).is_ok());
    }
}
