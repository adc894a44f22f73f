"""Benchmark for ipir: one workload per run, timed from outside the library.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up its inputs from the seed several times (``setup_s`` is
the median), then calls the workload's entry point until ``--seconds``
have passed, checks every output, and prints a detailed report followed,
as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with every time normalized to a reference speed measured between the
calls (see speed.py).
With ``--trace 1`` the untraced run is followed by a traced replay of the
same calls, whose outputs must equal the untraced ones; the metrics are
then the per-layer ones, and the report adds the tracing overhead. Span
records go to ``.bench_out/``. See bench/README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS of
# wall time (teardowns included) have passed, at most SETUP_MAX times
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 2000, 2.0


def import_library():
    """Import ipir from this checkout's src/, never from elsewhere."""
    if not (SRC / "ipir" / "__init__.py").is_file():
        sys.exit(f"error: no ipir sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ipir

    if Path(ipir.__file__).resolve().parent != SRC / "ipir":
        sys.exit(f"error: imported ipir from {ipir.__file__}, not from {SRC}")
    return ipir


ipir = import_library()
from ipir.errors import IpirError  # noqa: E402

import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass
class Result:
    call: workloads.Call
    done: int
    raw: float  # seconds in the call, reference slices left out
    normalized: float  # the same at the reference speed
    latencies: list = field(default_factory=list)  # normalized seconds
    report: object = None
    error: str | None = None


@dataclass
class Phase:
    results: list
    wall: float
    cpu: float
    speed: Speed

    @property
    def normalized(self) -> float:
        return sum(r.normalized for r in self.results)

    @property
    def attempted(self) -> int:
        return sum(r.call.ops for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.call.ops - r.done for r in self.results)

    @property
    def latencies(self) -> list:
        return [x for r in self.results for x in r.latencies]


def execute(workload, state, call, speed) -> tuple:
    """Run one call; returns (start, end, stamps, report, error)."""
    stamps = workloads.Stamps(state.transport)
    report = error = None
    start = perf_counter()
    try:
        with speed.during(workload.slice_every):
            report = workload.invoke(state, call, stamps)
    except IpirError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return start, perf_counter(), stamps, report, error


def run_calls(workload, state, calls, seconds=None) -> Phase:
    """Execute calls in order with a reference slice before each and after
    the last; with ``seconds``, stop once that much time has passed (the
    call in flight finishes)."""
    speed = Speed()
    runs = []
    start, cpu = perf_counter(), time.process_time()
    for call in calls:
        speed.measure()
        runs.append((call, execute(workload, state, call, speed)))
        if seconds is not None and perf_counter() - start >= seconds:
            break
    speed.measure()
    wall, cpu = perf_counter() - start, time.process_time() - cpu
    results = []
    for call, (begin, end, stamps, report, error) in runs:
        raw, normalized = speed.normalize(begin, end)
        if error is not None:
            results.append(Result(call, workload.done(call, stamps), raw, normalized, error=error))
            continue
        scale = normalized / raw
        latencies = [x * scale for x in workload.latencies(begin, stamps, end, raw)]
        results.append(Result(call, call.ops, raw, normalized, latencies, report))
    return Phase(results, wall, cpu, speed)


def endless(workload, seed):
    index = 0
    while True:
        yield workload.call(seed, index)
        index += 1


def percentile(values, q):
    """Nearest-rank percentile; q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else None


def e2e_metrics(phase: Phase, setup_s: float, rss_mb: float) -> dict:
    """Throughput is completed operations over the normalized time spent in
    calls; latencies and set-up time are normalized too."""
    lat = phase.latencies
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": ((phase.attempted - phase.failed) / phase.normalized, "1/s"),
        "latency_ms_p50": (1000 * statistics.median(lat) if lat else None, "ms"),
        "latency_ms_p90": (1000 * percentile(lat, 0.9) if lat else None, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def named_metrics(workload, metrics: dict, phase: Phase) -> dict:
    """The end-to-end metrics under the names this workload's users know."""
    lat = workload.latency_name
    out = {
        "setup_s": metrics["setup_s"],
        f"{workload.op}s_per_s": metrics["throughput_per_s"],
        f"{lat}_p50": metrics["latency_ms_p50"],
        f"{lat}_p90": metrics["latency_ms_p90"],
        "error_rate": (phase.failed / phase.attempted, "failed/attempted"),
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    return as_json(out)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tear_down(workload, state, teardowns, timeout=5.0) -> list[str]:
    """Stop the state's servers, then confirm no thread but the main one
    outlives them into the next set-up or run."""
    teardowns.append(workload.teardown(state))
    deadline = time.monotonic() + timeout
    while True:
        alive = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
        if not alive:
            return []
        if time.monotonic() >= deadline:
            return [f"threads outlived the teardown: {alive}"]
        time.sleep(0.01)


def set_up(workload, seed, teardowns):
    """Set up repeatedly, with a reference slice before each set-up and
    after the last; keep the last state and tear down the others.
    Returns the state, the median normalized and raw set-up times and any
    failed checks."""
    spans, failed = [], []
    speed = Speed()
    begin = perf_counter()
    while True:
        speed.measure()
        start = perf_counter()
        state = workload.setup(seed)
        spans.append((start, perf_counter()))
        elapsed = perf_counter() - begin
        if len(spans) >= SETUP_MAX or (len(spans) >= SETUP_MIN and elapsed >= SETUP_SECONDS):
            speed.measure()
            times = [speed.normalize(a, b) for a, b in spans]
            return (
                state,
                statistics.median(n for _, n in times),
                statistics.median(r for r, _ in times),
                failed,
            )
        failed += tear_down(workload, state, teardowns)


def check_outputs(workload, state, phase: Phase) -> list[str]:
    failed = [f"call {r.call.index}: {r.error}" for r in phase.results if r.error]
    for r in phase.results:
        if r.report is not None:
            failed += workload.check(state, r.call, r.report)
    return failed + workload.check_run(state, phase.results)


def layer_metrics(workload, t: Tracer, phase: Phase, teardowns, net_totals) -> dict:
    """Per-layer metrics of a traced phase; 0 where the workload does not
    reach the layer."""
    solvers = {"lp": 0, "greedy": 0, "trivial": 0}
    samples = 0
    for r in phase.results:
        if workload.op == "step" and r.report is not None:
            for step in r.report.steps:
                if step.solver in solvers:
                    solvers[step.solver] += 1
        if workload.op == "sample":
            samples += r.done
    builds = t.count("obfuscation.build_lp")
    answer_bits, frame_bytes = net_totals
    s, n = "s", "count"
    return {
        "core.draw_s": (t.busy("core.draw"), s),
        "core.draws": (t.count("core.draw"), n),
        "obfuscation.build_lp_s": (t.busy("obfuscation.build_lp"), s),
        "obfuscation.solve_lp_self_s": (t.self_time("obfuscation.solve_lp"), s),
        "obfuscation.lp_solves": (t.count("obfuscation.solve_lp"), n),
        "obfuscation.lp_vars": (t.counters["obfuscation.lp_vars"] / builds if builds else 0, n),
        "obfuscation.lp_rows": (t.counters["obfuscation.lp_rows"] / builds if builds else 0, n),
        "obfuscation.policy_at_s": (t.busy("obfuscation.policy_at"), s),
        "obfuscation.policy_at_calls": (t.count("obfuscation.policy_at"), n),
        "obfuscation.greedy_s": (t.busy("obfuscation.greedy"), s),
        "simplex.minimize_s": (t.busy("simplex.minimize"), s),
        "simplex.calls": (t.count("simplex.minimize"), n),
        "simplex.share": (t.busy("simplex.minimize") / sum(r.raw for r in phase.results), "share"),
        "pir.key_draw_s": (t.busy("pir.key_draw"), s),
        "pir.plan_s": (t.self_time("pir.open_session"), s),
        "pir.answer_s": (t.busy("pir.answer"), s),
        "pir.decode_s": (t.busy("pir.decode"), s),
        "pir.sessions": (t.count("pir.open_session"), n),
        "pir.answer_bits": (t.counters["pir.answer_bits"], "bit"),
        "intermittent.self_s": (t.self_time("intermittent.run_two_request"), s),
        "location.policy_s": (t.busy("location.policy_for_posterior"), s),
        "location.posterior_s": (
            t.busy("location.advance_posterior") + t.busy("location.condition_posterior"), s
        ),
        "location.self_s": (
            sum(t.self_time(f"location.{f}") for f in ("simulate", "step_private", "step_nonprivate")),
            s,
        ),
        "location.solver_lp": (solvers["lp"], n),
        "location.solver_greedy": (solvers["greedy"], n),
        "location.solver_trivial": (solvers["trivial"], n),
        "audit.online_s": (t.busy("audit.audit_online_privacy"), s),
        "audit.pattern_s": (t.busy("audit.query_pattern"), s),
        "audit.self_s": (t.self_time("audit.audit_query_privacy"), s),
        "audit.samples": (samples, n),
        "net.exchange_s": (t.busy("net.exchange"), s),
        "net.server_eval_s": (t.busy("net.server_eval"), s),
        "net.exchanges": (t.count("net.exchange"), n),
        "net.answer_bits": (answer_bits, "bit"),
        "net.frame_bytes": (frame_bytes, "B"),
        "net.frame_bytes_per_answer_bit": (frame_bytes / answer_bits if answer_bits else 0, "B/bit"),
        "net.teardown_s": (statistics.median(teardowns), s),
        "net.errors": (t.errors("net.exchange"), n),
    }


def metadata(args) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        blob = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def traced_replay(workload, seed, untraced: Phase, untraced_bits, teardowns):
    """Set up once more and replay the untraced run's calls with tracing on.
    Returns the traced phase, its set-up time, the tracer, the wire counters
    and the failed faithfulness checks."""
    with Tracer(ipir) as tracer:
        speed = Speed()
        speed.measure()
        start = perf_counter()
        state = workload.setup(seed)
        end = perf_counter()
        speed.measure()
        setup_s = speed.normalize(start, end)[1]
        traced = run_calls(workload, state, [r.call for r in untraced.results])
    wire = (getattr(state.transport, "answer_bits", 0), getattr(state.transport, "frame_bytes", 0))
    failed = tear_down(workload, state, teardowns)
    failed += [
        f"call {u.call.index}: traced output differs from untraced"
        for u, t in zip(untraced.results, traced.results)
        if (u.report is None) != (t.report is None)
        or (u.report is not None and workload.output(u.report) != workload.output(t.report))
    ]
    if wire[0] != untraced_bits:
        failed.append(f"traced answer_bits {wire[0]} != untraced {untraced_bits}")
    return traced, setup_s, tracer, wire, failed


def phase_summary(phase: Phase) -> dict:
    slices = [e - s for s, e in phase.speed.slices]
    raw = sum(r.raw for r in phase.results)
    return {
        "calls": len(phase.results),
        "operations": phase.attempted,
        "latency_samples": len(phase.latencies),
        "wall_s": phase.wall,
        "cpu_s": phase.cpu,
        "in_calls_raw_s": raw,
        "in_calls_normalized_s": phase.normalized,
        "raw_throughput_per_s": (phase.attempted - phase.failed) / raw,
        "reference_slices": len(slices),
        "reference_slice_ms_median": 1000 * statistics.median(slices),
    }


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    # one CPU for the whole run, inherited by the server threads: the
    # reference slices then time the core the work runs on, and a loopback
    # hand-off between client and server threads does not wait for the
    # other CPU to wake, which under host load spread the loopback trial
    # rate by 0.25 between runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    teardowns: list[float] = []
    state, setup_s, raw_setup_s, failed = set_up(workload, args.seed, teardowns)
    phase = run_calls(workload, state, endless(workload, args.seed), args.seconds)
    rss = peak_rss_mb()
    failed += check_outputs(workload, state, phase)
    wire_bits = getattr(state.transport, "answer_bits", 0)
    failed += tear_down(workload, state, teardowns)
    metrics = e2e_metrics(phase, setup_s, rss)
    result_metrics = metrics
    report = {
        "metadata": metadata(args),
        "runs": {"untraced": dict(phase_summary(phase), raw_setup_s=raw_setup_s)},
        "end_to_end": named_metrics(workload, metrics, phase),
    }

    if args.trace:
        traced, traced_setup_s, tracer, wire, traced_failed = traced_replay(
            workload, args.seed, phase, wire_bits, teardowns
        )
        failed += traced_failed
        traced_metrics = e2e_metrics(traced, traced_setup_s, peak_rss_mb())
        report["runs"]["traced"] = dict(
            phase_summary(traced),
            spans_kept=len(tracer.spans),
            spans_dropped=tracer.dropped_spans,
        )
        overhead = {
            name: (traced_metrics[name][0] - value, unit)
            for name, (value, unit) in metrics.items()
            if value is not None and traced_metrics[name][0] is not None
        }
        overhead["wall_share"] = (traced.wall / phase.wall - 1, "share")
        report["tracing_overhead"] = as_json(overhead)
        result_metrics = layer_metrics(workload, tracer, traced, teardowns, wire)
        report["per_layer"] = as_json(result_metrics)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    missing = [k for k, (v, _) in result_metrics.items() if v is None]
    if missing:
        failed.append(f"no value for {missing}")
    report["checks_failed"] = failed
    print(json.dumps(report, indent=1, default=str))
    correct = not failed and phase.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": as_json(result_metrics),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
