#!/usr/bin/env python3
"""The exploration-service benchmark.

Drives the release ``spi-explored`` daemon (shipped default flags plus
``--workers 2``) from one single-threaded client over one ndjson pipe, runs
one seeded workload, checks every answer against references computed outside
the daemon, and prints the end-to-end metrics; with ``--trace 1`` it then
replays the same requests in-process with every layer call timed and prints
the per-layer ledger instead. See ``perfbench/README.md``.

    python3 perfbench/run.py --workload sweep-greedy --seed 11 --seconds 15 --trace 0

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
import traffic  # noqa: E402
from daemon import Daemon, DaemonError  # noqa: E402

WORKLOADS = ("sweep-greedy", "sweep-exact", "interactive-restart")
DEFAULT_SEEDS = {"sweep-greedy": 11, "sweep-exact": 12, "interactive-restart": 13}
WORKERS = 2
DAEMON_ARGS = ["--workers", str(WORKERS)]
# The daemon's default `--batch`; the replay flushes at the same size.
BATCH = 256
# Set-ups per run; `setup_s` is their median. The sweeps keep the last
# daemon; `interactive-restart` splits its window over RESTARTS restarted
# daemons, so one daemon's luck (thread placement, phase of the whale's
# shards) does not decide the run.
SWEEP_SETUPS = 9
RESTARTS = 3
# The prior session behind `interactive-restart`: completed small jobs whose
# results the restarted daemon recovers and then serves as cache hits.
PRIOR_JOBS = 150
# Fresh and repeated interactive jobs: enough that a p90 has 10 samples
# beyond it.
SAMPLE_FLOOR = 100
# On `interactive-restart`, seven of every eight interactive requests repeat
# an earlier job: a repeat's latency is bimodal under the saturated workers
# (served at once, or after a wait of milliseconds), so its tail needs many
# samples to stay put.
REPEATS_PER_FRESH = 7
THINK_MAX_S = 0.005
# Every daemon is killed at this age, so a wedged one fails the run in time.
DAEMON_DEADLINE_S = 170

# The bounded metrics: the ones every workload reports.
END_TO_END = {
    "setup_s": "s",
    "variants_per_s": "1/s",
    "cpu_us_per_variant": "us",
    "peak_rss_mib": "MiB",
}
# `interactive-restart` also prints its interactive latencies, each with its
# sample count. They carry no bound: the sweeps have no interactive traffic,
# and every bounded metric must be reported by every workload.
INTERACTIVE = {
    "interactive_ms.p50": "ms",
    "interactive_ms.p90": "ms",
    "cache_hit_ms.p50": "ms",
    "cache_hit_ms.p90": "ms",
    "cache_hit_ms.p95": "ms",
}

PER_LAYER = {
    "space.choice_ns": "ns",
    "space.choice_ns.calls": "count",
    "flatten.ns": "ns",
    "flatten.ns.calls": "count",
    "flatten.rebuild_share": "ratio",
    "evaluator.bound_ns": "ns",
    "evaluator.bound_ns.calls": "count",
    "evaluator.bound_cut_share": "ratio",
    "bridge.compile_ns": "ns",
    "bridge.compile_ns.calls": "count",
    "partition.search_ns": "ns",
    "partition.search_ns.calls": "count",
    "partition.nodes": "count",
    "partition.cut_share": "ratio",
    "report.record_ns": "ns",
    "report.record_ns.calls": "count",
    "registry.submit_ns": "ns",
    "registry.submit_ns.calls": "count",
    "registry.lease_ns": "ns",
    "registry.lease_ns.calls": "count",
    "registry.flush_ns": "ns",
    "registry.flush_ns.calls": "count",
    "registry.lock_wait_ns": "ns",
    "registry.lock_wait_ns.calls": "count",
    "registry.stale_flushes": "count",
    "sched.queue_wait_ms.p50": "ms",
    "sched.queue_wait_ms.p90": "ms",
    "wal.recovery_ns": "ns",
    "wal.recovery_ns.calls": "count",
    "wal.bytes_per_job": "B",
    "cache.hit_share": "ratio",
    "wire.decode_ns": "ns",
    "wire.decode_ns.calls": "count",
    "wire.encode_ns": "ns",
    "wire.encode_ns.calls": "count",
    "worker.busy_share": "ratio",
    "idle_ns": "ns",
    "unattributed_ns": "ns",
    "trace_overhead": "ratio",
}


class CheckFailed(Exception):
    pass


class Context:
    def __init__(self, args, root):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = "tiny" if args.tiny else "full"
        self.root = root
        self.work = root / ".perfbench"
        self.out = self.work / "out" / f"{args.workload}-{self.size}"
        self.daemon_bin = None
        self.bench_bin = None
        self.sequence = 0

    def spawn(self, extra=()):
        return Daemon(
            self.daemon_bin,
            DAEMON_ARGS + list(extra),
            self.out / "daemon.stderr",
            DAEMON_DEADLINE_S,
        )


# --- build -------------------------------------------------------------------------


def cargo_build(root, args, binary):
    """Builds with cargo and returns the path of the executable `binary`."""
    command = ["cargo", "build", "--release", "--message-format=json-render-diagnostics"]
    done = subprocess.run(
        command + args, cwd=root, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
    )
    if done.returncode != 0:
        raise RuntimeError(f"`{' '.join(command + args)}` failed ({done.returncode})")
    for row in done.stdout.decode().splitlines():
        message = json.loads(row)
        if (
            message.get("reason") == "compiler-artifact"
            and message.get("executable")
            and message["target"]["name"] == binary
        ):
            return message["executable"]
    raise RuntimeError(f"cargo built no `{binary}` executable")


def build(ctx):
    manifest = ctx.root / "Cargo.toml"
    bench_manifest = ctx.root / "perfbench" / "Cargo.toml"
    ctx.daemon_bin = cargo_build(
        ctx.root,
        ["--manifest-path", str(manifest), "-p", "spi-explore", "--bin", "spi-explored"],
        "spi-explored",
    )
    ctx.bench_bin = cargo_build(ctx.root, ["--manifest-path", str(bench_manifest)], "perfbench")


def context_stamp(ctx):
    """Where a row came from, so rows from different machines never mix."""

    def command(args):
        try:
            done = subprocess.run(
                args, cwd=ctx.root, capture_output=True, text=True, timeout=30
            )
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    digest = hashlib.sha256()
    sources = sorted(
        path
        for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "shims/**/*.rs", "Cargo.toml")
        for path in ctx.root.glob(pattern)
    )
    for path in sources:
        digest.update(str(path.relative_to(ctx.root)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "size": ctx.size,
        "nproc": len(os.sched_getaffinity(0)),
        "daemon_workers": WORKERS,
        "commit": command(["git", "rev-parse", "HEAD"]),
        "source_sha256": digest.hexdigest(),
        "rustc": command(["rustc", "--version"]),
        "profile": "release",
    }


# --- traffic -----------------------------------------------------------------------


def submit(ctx, daemon, request, kind, origin=None, background=False):
    """Sends one submit; unless `background`, waits for its answer too."""
    text = traffic.line(request)
    answer, sent, answered = daemon.send(text)
    ctx.sequence += 1
    job = {
        "kind": kind,
        "seq": ctx.sequence,
        "line": text,
        "request": request,
        "submit": answer,
        "wait": None,
        "sent": sent,
        "latency_s": answered - sent,
        "origin": origin,
        "background": background,
        "rated": False,
    }
    if answer.get("ok") is True and not background:
        job["wait"], _, done = daemon.send(traffic.line({"op": "wait", "job": answer["job"]}))
        job["latency_s"] = done - sent
    return job


def start(ctx, store=None):
    """Starts a daemon — on a fresh copy of `store`, if given — and times
    spawn → first answered request (store recovery included)."""
    extra = []
    if store is not None:
        live = ctx.out / "store"
        shutil.rmtree(live, ignore_errors=True)
        shutil.copytree(store, live)
        extra = ["--store", str(live)]
    started = time.perf_counter()
    daemon = ctx.spawn(extra)
    daemon.request({"op": "jobs"})
    return daemon, time.perf_counter() - started


class Interactive:
    """The seeded interactive client: fresh small exact jobs, and repeats of
    earlier jobs (which the cache must answer), each in exact proportions of
    the job kinds."""

    def __init__(self, ctx, daemon, purpose, earlier=()):
        self.ctx = ctx
        self.daemon = daemon
        self.rng = traffic.stream(ctx.seed, purpose)
        self.kinds = traffic.Blocks(self.rng, traffic.INTERACTIVE_KINDS)
        self.repeat_kinds = traffic.Blocks(self.rng, traffic.INTERACTIVE_KINDS)
        self.history = {kind: [] for kind in traffic.INTERACTIVE_KINDS}
        for job in earlier:
            self.history[traffic.kind_of(job["request"])].append(job)

    def fresh(self):
        job = submit(self.ctx, self.daemon, traffic.interactive(self.rng, self.kinds), "fresh")
        self.history[traffic.kind_of(job["request"])].append(job)
        return job

    def repeat(self):
        origin = self.rng.choice(self.history[self.repeat_kinds.next()])
        return submit(self.ctx, self.daemon, origin["request"], "hit", origin=origin)


def run_sweep(ctx, daemon):
    """A closed loop of one batch job at a time for `--seconds`, after one
    warm-up job that is checked but not rated; the daemon's CPU is read
    around each job."""
    jobs = []
    started = None
    while started is None or time.perf_counter() - started < ctx.seconds:
        if ctx.workload == "sweep-greedy":
            request = traffic.greedy_batch(ctx.seed, len(jobs), ctx.size)
        else:
            request = traffic.exact_batch(ctx.seed, len(jobs), ctx.size)
        cpu_before = daemon.cpu_s()
        job = submit(ctx, daemon, request, "batch")
        job["cpu_s"] = daemon.cpu_s() - cpu_before
        job["rated"] = started is not None
        jobs.append(job)
        if started is None:
            started = time.perf_counter()
    return jobs


def prepared_store(ctx):
    """The prior session's store and answers, built once per seed."""
    rng = traffic.stream(ctx.seed, "prior")
    kinds = traffic.Blocks(rng, traffic.INTERACTIVE_KINDS)
    requests = [traffic.interactive(rng, kinds) for _ in range(PRIOR_JOBS)]
    key = hashlib.sha256(json.dumps(requests).encode()).hexdigest()[:16]
    home = ctx.work / "prep" / f"seed-{ctx.seed}-{key}"
    meta = home / "prior.json"
    if meta.exists():
        return home / "store", json.loads(meta.read_text())
    staging = home.with_name(home.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    daemon = ctx.spawn(["--store", str(staging / "store")])
    prior = []
    try:
        for request in requests:
            prior.append(submit(ctx, daemon, request, "prior"))
        daemon.shutdown()
    finally:
        daemon.kill()
    failures = check(ctx, prior)
    if failures:
        raise CheckFailed(f"prior session: {failures[0]}")
    records = [{"request": job["request"], "wait": job["wait"]} for job in prior]
    (staging / "prior.json").write_text(json.dumps(records))
    shutil.rmtree(home, ignore_errors=True)
    staging.rename(home)
    return home / "store", records


def restart_session(ctx, daemon, prior, session, seconds):
    """Interactive traffic beside a greedy whale after a restart.

    A weight-1 `batch` tenant keeps one greedy whale in flight (resubmitted
    when a poll shows it done); one closed-loop client submits small exact
    jobs under weight-2 tenants, waits for each answer and thinks for a
    seeded interval; seven of every eight requests, in seeded order, repeat
    an earlier job from the prior session or this one, which the cache must
    answer."""
    client = Interactive(
        ctx,
        daemon,
        f"session/{session}",
        [{"kind": "prior", "request": p["request"], "wait": p["wait"]} for p in prior],
    )
    repeat_or_fresh = traffic.Blocks(client.rng, [True] * REPEATS_PER_FRESH + [False])
    jobs = []
    fresh = hits = 0
    cpu_before = daemon.cpu_s()
    started = time.perf_counter()
    whales = 0
    draw = session * traffic.GREEDY_DRAWS // RESTARTS
    whale = submit(
        ctx, daemon, traffic.greedy_batch(ctx.seed, draw, ctx.size), "whale", background=True
    )
    while True:
        elapsed = time.perf_counter() - started
        # The floor is pooled over the restarts.
        floor = -(-SAMPLE_FLOOR // RESTARTS)
        floor_met = fresh >= floor and hits >= floor
        if (elapsed >= seconds and floor_met) or elapsed >= 3 * seconds:
            break
        time.sleep(client.rng.uniform(0.0, THINK_MAX_S))
        if repeat_or_fresh.next():
            jobs.append(client.repeat())
            hits += 1
        else:
            jobs.append(client.fresh())
            fresh += 1
        polled, _, seen = daemon.send(
            traffic.line({"op": "poll", "job": whale["submit"]["job"]})
        )
        if polled.get("state") != "running":
            whale["wait"] = polled
            whale["latency_s"] = seen - whale["sent"]
            # The first whale warms the daemon up; it is checked, not rated.
            whale["rated"] = whales > 0
            jobs.append(whale)
            whales += 1
            whale = submit(
                ctx,
                daemon,
                traffic.greedy_batch(ctx.seed, draw + whales, ctx.size),
                "whale",
                background=True,
            )
    # The whale in flight when the client stops is checked, not rated: it
    # finishes uncontended.
    whale["wait"], _, done = daemon.send(
        traffic.line({"op": "wait", "job": whale["submit"]["job"]})
    )
    whale["latency_s"] = done - whale["sent"]
    jobs.append(whale)
    cpu_s = daemon.cpu_s() - cpu_before
    return jobs, cpu_s


def run_restart(ctx, store, prior):
    """RESTARTS sessions, each on a daemon restarted on a fresh copy of the
    prepared store and serving an equal share of the window. Returns every
    job, the set-up times, the daemon CPU over the traffic, the median peak
    RSS, and the last store's bytes with its job count."""
    jobs, setups, peaks = [], [], []
    cpu_s = 0.0
    for session in range(RESTARTS):
        daemon, setup_s = start(ctx, store)
        setups.append(setup_s)
        gc.disable()
        try:
            session_jobs, session_cpu = restart_session(
                ctx, daemon, prior, session, ctx.seconds / RESTARTS
            )
            peaks.append(daemon.peak_rss_mib())
            daemon.shutdown()
        finally:
            daemon.kill()
            gc.enable()
        jobs.extend(session_jobs)
        cpu_s += session_cpu
    store_bytes = sum(path.stat().st_size for path in (ctx.out / "store").iterdir())
    return jobs, setups, cpu_s, stats.median(peaks), (store_bytes, len(prior) + len(session_jobs))


def run_sweeps(ctx):
    """SWEEP_SETUPS timed set-ups, then the sweep on the last daemon."""
    setups = []
    for attempt in range(SWEEP_SETUPS):
        daemon, setup_s = start(ctx)
        setups.append(setup_s)
        if attempt + 1 < SWEEP_SETUPS:
            daemon.shutdown()
    # No collector pauses inside the client's timed requests.
    gc.disable()
    try:
        jobs = run_sweep(ctx, daemon)
        peak_rss_mib = daemon.peak_rss_mib()
        daemon.shutdown()
    finally:
        daemon.kill()
        gc.enable()
    return jobs, setups, None, peak_rss_mib, (0, 0)


# --- correctness -------------------------------------------------------------------


def recipe_key(request):
    canonical = json.dumps(traffic.recipe_of(request), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def references(ctx, jobs):
    """Reference optima for every computed job, cached per recipe."""
    cache = ctx.work / "ref"
    cache.mkdir(parents=True, exist_ok=True)
    wanted = {}
    for job in jobs:
        if job["kind"] != "hit":
            wanted[recipe_key(job["request"])] = job["request"]
    found = {}
    missing = []
    for key, request in wanted.items():
        path = cache / f"{key}.json"
        if path.exists():
            found[key] = json.loads(path.read_text())
        else:
            missing.append({"id": key, "recipe": traffic.recipe_of(request)})
    if missing:
        batch = ctx.out / "reference-jobs.ndjson"
        batch.write_text("".join(json.dumps(job) + "\n" for job in missing))
        done = subprocess.run(
            [ctx.bench_bin, "reference", str(batch)], capture_output=True, text=True, timeout=170
        )
        if done.returncode != 0:
            raise CheckFailed(f"reference computation failed: {done.stderr.strip()}")
        for row in done.stdout.splitlines():
            result = json.loads(row)
            key = result.pop("id")
            (cache / f"{key}.json").write_text(json.dumps(result))
            found[key] = result
    return found


def mismatch(job, refs):
    """Why `job` fails its correctness checks, or None."""
    submitted, answer = job["submit"], job["wait"]
    if submitted.get("ok") is not True:
        return f"submit answered {submitted}"
    if answer is None or answer.get("ok") is not True:
        return f"wait answered {answer}"
    if answer.get("state") != "completed" or answer.get("errors") != 0:
        return f"state {answer.get('state')} with {answer.get('errors')} errors"
    accounted = answer["evaluated"] + answer["pruned"] + answer["errors"]
    if job["kind"] == "hit":
        origin = job["origin"]["wait"]
        if not answer.get("cache_hit") or accounted != 0:
            return f"a repeat was not served from the cache (accounted {accounted})"
        if answer.get("top") != origin.get("top"):
            return "cache hit's top differs from the job it repeats"
        if answer.get("combinations") != origin.get("combinations"):
            return "cache hit's combinations differ from the job it repeats"
        return None
    if answer.get("cache_hit"):
        return "a fresh job was answered from the cache"
    if accounted != answer["combinations"]:
        return f"census {accounted} != {answer['combinations']} combinations"
    ref = refs[recipe_key(job["request"])]
    if ref["combinations"] != answer["combinations"]:
        return f"combinations {answer['combinations']} != reference {ref['combinations']}"
    best = answer.get("best")
    got = (best["cost"], best["index"]) if best else None
    want = (ref["cost"], ref["index"]) if ref["cost"] is not None else None
    if got != want:
        return f"optimum (cost, index) {got} != reference {want}"
    return None


def check(ctx, jobs):
    refs = references(ctx, jobs)
    failures = []
    for job in jobs:
        reason = mismatch(job, refs)
        if reason is not None:
            failures.append(f"{job['kind']} job {job['line']}: {reason}")
    return failures


# --- metrics -----------------------------------------------------------------------


def accounted(job):
    answer = job["wait"]
    return answer["evaluated"] + answer["pruned"] + answer["errors"]


def end_to_end(setups, jobs, cpu_s, peak_rss_mib):
    """{metric: (value, sample note)} for the untraced run. Throughput is the
    median over the rated batch jobs of each job's variants ÷ its submit →
    answer time. CPU per variant is the median over batch jobs of each
    job's daemon CPU ÷ its variants on the sweeps, and the daemon's CPU
    over the whole traffic window ÷ every job's variants (`cpu_s`) on
    `interactive-restart`, where interactive jobs run between the whale's
    variants."""
    rated = [job for job in jobs if job["rated"]]
    rates = [job["wait"]["combinations"] / job["latency_s"] for job in rated]
    if cpu_s is None:
        cpu_per_variant = stats.median([job["cpu_s"] * 1e6 / accounted(job) for job in rated])
        cpu_note = f"median of {len(rated)} batch jobs"
    else:
        variants = sum(accounted(job) for job in jobs)
        cpu_per_variant = cpu_s * 1e6 / variants
        cpu_note = f"{variants} variants"

    measured = {
        "setup_s": (stats.median(setups), f"median of {len(setups)} set-ups"),
        "variants_per_s": (stats.median(rates), f"median of {len(rated)} batch jobs"),
        "cpu_us_per_variant": (cpu_per_variant, cpu_note),
        "peak_rss_mib": (peak_rss_mib, "VmHWM"),
    }
    for name in INTERACTIVE:
        kind = "fresh" if name.startswith("interactive") else "hit"
        samples = [job["latency_s"] * 1e3 for job in jobs if job["kind"] == kind]
        if samples:
            q = int(name.rsplit(".p", 1)[1])
            measured[name] = (stats.percentile(samples, q), f"n={len(samples)}")
    return measured


def replay_log(ctx, jobs, store):
    """The submits in the order sent, with what the daemon answered."""
    path = ctx.out / "log.ndjson"
    rows = [json.dumps({"workers": WORKERS, "batch": BATCH, "store": store and str(store)})]
    for job in sorted(jobs, key=lambda job: job["seq"]):
        answer = job["wait"]
        best = answer.get("best")
        rows.append(
            json.dumps(
                {
                    "line": job["line"],
                    "background": job["background"],
                    "combinations": answer["combinations"],
                    "cost": best and best["cost"],
                    "index": best and best["index"],
                    "cache_hit": bool(answer.get("cache_hit")),
                }
            )
        )
    path.write_text("\n".join(rows) + "\n")
    return path


def per_layer(ctx, store_bytes, store_jobs, log):
    done = subprocess.run(
        [ctx.bench_bin, "replay", str(log), str(ctx.out)], capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise CheckFailed(f"traced replay failed: {done.stderr.strip()}")
    replay = json.loads((ctx.out / "replay.json").read_text())
    waits = replay.pop("sched.queue_wait_ms.samples")
    replay["sched.queue_wait_ms.p50"] = stats.percentile(waits, 50)
    replay["sched.queue_wait_ms.p90"] = stats.percentile(waits, 90)
    replay["sched.queue_wait_ms.samples"] = len(waits)
    replay["wal.bytes_per_job"] = store_bytes / store_jobs if store_jobs else 0.0
    return replay


# --- the run -----------------------------------------------------------------------


def run(ctx):
    ctx.out.mkdir(parents=True, exist_ok=True)
    (ctx.out / "daemon.stderr").write_bytes(b"")
    build(ctx)
    stamp = context_stamp(ctx)
    (ctx.out / "context.json").write_text(json.dumps(stamp, indent=1))
    print("context " + json.dumps(stamp, separators=(",", ":")))

    store = None
    if ctx.workload == "interactive-restart":
        store, prior = prepared_store(ctx)
        jobs, setups, cpu_s, peak_rss_mib, store_size = run_restart(ctx, store, prior)
    else:
        jobs, setups, cpu_s, peak_rss_mib, store_size = run_sweeps(ctx)

    (ctx.out / "jobs.json").write_text(
        json.dumps([[job["kind"], job["seq"], job["latency_s"]] for job in jobs])
    )
    failures = check(ctx, jobs)
    attempted, failed = len(jobs), len(failures)
    print(f"jobs attempted {attempted}, failed {failed}, failed_share {failed / attempted:.4f}")
    if failures:
        print(f"first mismatch: {failures[0]}")
        print(f"first mismatch: {failures[0]}", file=sys.stderr)

    metrics = {}
    if not failures:
        if ctx.trace:
            log = replay_log(ctx, jobs, store)
            layers = per_layer(ctx, *store_size, log)
            print(f"per-layer ledger ({ctx.workload}, traced replay; spans in {ctx.out / 'trace.json'}):")
            for name, value in layers.items():
                unit = PER_LAYER.get(name, "")
                print(f"  {name:32} {value:>20.6g} {unit}")
            print(
                "  ledger: named layers {:.6g} ns + idle {:.6g} ns + unattributed {:.6g} ns"
                " = thread wall {:.6g} ns".format(
                    layers["ledger.named_self_ns"],
                    layers["idle_ns"],
                    layers["unattributed_ns"],
                    layers["ledger.thread_wall_ns"],
                )
            )
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            measured = end_to_end(setups, jobs, cpu_s, peak_rss_mib)
            print(f"end-to-end metrics ({ctx.workload}, seed {ctx.seed}):")
            for name, (value, note) in measured.items():
                unit = END_TO_END.get(name) or INTERACTIVE[name]
                print(f"  {name:24} {value:>14.6g} {unit:4} ({note})")
            metrics = {
                name: {"value": measured[name][0], "unit": unit} for name, unit in END_TO_END.items()
            }
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    (ctx.out / "result.json").write_text(json.dumps(result))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small spaces, for the self-test")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    ctx = Context(args, Path.cwd())
    try:
        return run(ctx)
    except (
        CheckFailed,
        DaemonError,
        RuntimeError,
        OSError,
        subprocess.SubprocessError,
        stats.TooFewSamples,
    ) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
