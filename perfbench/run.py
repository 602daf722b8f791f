"""End-to-end benchmark of the HSIS reproduction.

    python3 perfbench/run.py --workload table1|hier|serve --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
imported from ``src/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (whose spans are also written as Chrome trace
JSON under ``.perfbench-out/``).  The lines before it are a readable
report.  The check workloads' timings are in seconds at the reference
speed of ``gauge.py``; the report also gives the raw wall-clock
figures.  See ``NOTES.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
WORKLOADS = ("table1", "hier", "serve")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(q * 100)) * len(ordered) // 100))
    return ordered[rank - 1]


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


# -- set-up -------------------------------------------------------------


def prepare(workload, seed):
    """Import the layers a workload drives and generate its inputs."""
    if workload == "serve":
        import serveload  # noqa: F401  (the import is part of set-up)
        from inputs import CONNECTIONS, ServeStream, serve_designs

        designs = serve_designs()
        return [ServeStream(seed, conn, designs) for conn in range(CONNECTIONS)]
    import checks  # noqa: F401
    from inputs import check_designs

    return check_designs(workload)


def setup_probe(args):
    """Child process body: set up once, report ready, tear down."""
    prepare(args.workload, args.seed)
    server = None
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    if args.workload == "serve":
        import serveload

        server = serveload.boot(ROOT, workdir)
    print("ready", flush=True)
    if server is not None:
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args):
    """Seconds from process start until ready, for fresh child processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        raw = time.perf_counter() - start
        child.stdout.close()
        if child.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append(raw)
    return samples


# -- check workloads ----------------------------------------------------

#: Span name -> per-layer metric, for the check workloads.
CALL_METRICS = {
    "verilog.compile": "verilog.compile_s",
    "blifmv.elaborate": "blifmv.elaborate_s",
    "pif.parse": "pif.parse_s",
    "network.encode": "network.encode_s",
    "network.transition": "network.transition_s",
    "network.reach": "network.reach_s",
    "ctl.check": "ctl.check_s",
    "lc.containment": "lc.containment_s",
}


def run_checks(args, designs, expected):
    from checks import LayerCounters, run_pass
    from gauge import SpeedGauge
    from spans import SpanRecorder

    # The check workloads are single-threaded: keep them and the speed
    # gauge on one CPU, so the gauge sees the speed the checks see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = SpeedGauge()

    untraced = SpanRecorder(record=False, gauge=gauge)
    traced = SpanRecorder(record=True, gauge=gauge)
    counters = LayerCounters()
    scaled = {False: [], True: []}
    raw = {False: [], True: []}
    # Warm-up, untimed: lazy imports and first allocations happen on the
    # smallest design, not inside the first measured pass.
    smallest = min(range(len(designs)), key=lambda i: len(designs[i].verilog))
    failed = run_pass(designs, [smallest], expected, "warmup", untraced)
    attempted = 1
    started = time.perf_counter()
    index = 0
    # With --trace 1 passes alternate untraced / traced, so the run
    # measures the tracing overhead as well as the per-layer spans.
    while index == 0 or time.perf_counter() - started < args.seconds or (
            args.trace and not scaled[True]):
        is_traced = bool(args.trace) and index % 2 == 1
        recorder = traced if is_traced else untraced
        before = recorder.seconds
        start = time.perf_counter()
        failed += run_pass(
            designs, range(len(designs)), expected,
            f"p{index}", recorder, counters if is_traced else None,
        )
        raw[is_traced].append(time.perf_counter() - start)
        scaled[is_traced].append(recorder.seconds - before)
        attempted += len(designs)
        index += 1
    passes = index
    result = {
        "wall_s": median(scaled[False]),
        "jobs_per_s": passes * len(designs) / (sum(scaled[False]) + sum(scaled[True])),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = [
        f"wall_s        {result['wall_s']:.3f} s   (median of {len(scaled[False])} "
        f"untraced passes over {len(designs)} designs; raw wall clock "
        f"{', '.join(f'{t:.2f}' for t in raw[False])} s)",
        f"jobs_per_s    {result['jobs_per_s']:.4f} 1/s (design checks per second "
        f"over {passes} passes)",
        f"peak_rss_mib  {result['peak_rss_mib']:.1f} MiB (the verifying process)",
    ]
    layers = None
    if args.trace:
        traced_passes = len(scaled[True])
        totals = traced.totals()
        layers = {metric: totals.get(name, 0.0) / traced_passes
                  for name, metric in CALL_METRICS.items()}
        for name, value in counters.metrics().items():
            layers[name] = value if name in LayerCounters.NOT_PER_PASS else value / traced_passes
        for layer, seconds in traced.self_times().items():
            layers[f"{layer}.self_s"] = seconds / traced_passes
        layers["trace.overhead_s"] = median(scaled[True]) - median(scaled[False])
        layers["trace.spans"] = len(traced.spans) / traced_passes
        _write_trace(args, traced, report)
    return result, report, attempted, failed, [], layers


def _write_trace(args, spans, report):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    count = spans.write_chrome(path)
    report.append(f"trace         {count} spans written to {os.path.relpath(path, ROOT)}")


# -- serve --------------------------------------------------------------


def run_serve(args, streams, expected):
    import serveload
    from spans import SpanRecorder

    workdir = os.path.join(OUT, f"serve-{os.getpid()}")
    server = serveload.boot(ROOT, workdir)
    try:
        session = serveload.run_session(
            server.port, streams, args.seconds, bool(args.trace), expected)
        status = serveload.asyncio.run(serveload.status(server.port))
        problems = serveload.hygiene(server, session, status["counters"])
    finally:
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    replies = session.replies
    plain = [r for r in replies if not r.traced]
    cold = [r.latency for r in plain if r.cached is False]
    hit = [r.latency for r in plain if r.cached is True]
    failed = sum(1 for r in replies if r.problem is not None)
    for r in replies:
        if r.problem is not None:
            print(f"FAILED {r.request.tag} ({r.request.kind} "
                  f"{r.request.design_key}): {r.problem}", file=sys.stderr)
    rounds = [r for r in session.rounds if not r.traced]
    result = {
        # The mean, not the median: a run has only four or five rounds.
        "wall_s": statistics.fmean(r.seconds for r in rounds),
        "jobs_per_s": sum(r.jobs for r in session.rounds) / sum(r.seconds for r in session.rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    report = [
        f"wall_s        {result['wall_s']:.3f} s   (mean of {len(rounds)} untraced "
        f"rounds of {rounds[0].jobs} jobs: "
        f"{', '.join(f'{r.seconds:.2f}' for r in rounds)} s)",
        f"jobs_per_s    {result['jobs_per_s']:.3f} 1/s ({len(replies)} jobs in "
        f"{session.seconds:.1f} s; "
        f"{serveload.SERVER_JOBS} workers, {len(streams)} closed-loop connections)",
        f"peak_rss_mib  {result['peak_rss_mib']:.1f} MiB (largest of the server "
        f"and its workers)",
    ]
    for label, values in (("cold", cold), ("hit", hit)):
        if values:
            report.append(
                f"{label + '_p50_s':<13} {percentile(values, 0.5):.4f} s  "
                f"{label}_p90_s {percentile(values, 0.9):.4f} s  "
                f"(n={len(values)})")
    layers = None
    if args.trace:
        layers = _serve_layers(session, status, SpanRecorder(), args, report)
    return result, report, len(replies), failed, problems, layers


def _serve_layers(session, status, spans, args, report):
    """Per-layer figures of a traced serve run."""
    plain = [r for r in session.replies if not r.traced]
    traced = [r for r in session.replies if r.traced]
    computed = [r for r in plain if r.cached is False]
    counters = status["counters"]
    phases = status["phases"]
    fuzz_jobs = [r for r in session.replies if r.cached is False and r.request.kind == "fuzz"]
    fuzz_worker_s = sum(r.worker_s for r in fuzz_jobs)
    for r in traced:
        if r.cached is None:
            continue
        end = r.sent + r.latency
        parent = spans.add("serve.request", r.request.tag, r.sent, end)
        if not r.cached and r.queue_wait is not None:
            started = r.sent + min(r.queue_wait, r.latency)
            spans.add("serve.queue", r.request.tag, r.sent, started, parent)
            spans.add("parallel.worker", r.request.tag, started,
                      min(end, started + r.worker_s), parent)
    self_times = spans.self_times()
    traced_rounds = [r.seconds for r in session.rounds if r.traced]
    plain_rounds = [r.seconds for r in session.rounds if not r.traced]
    rounds = len(traced_rounds)
    lookups = counters.get("serve.cache_hits", 0) + counters.get("serve.submitted", 0)
    layers = {
        "parallel.worker_s": median([r.worker_s for r in computed]),
        "serve.overhead_s": median([r.latency - r.worker_s for r in computed]),
        "serve.queue_wait_s": median(
            [r.queue_wait for r in traced if r.cached is False and r.queue_wait is not None]),
        "serve.hit_s": median([r.latency for r in plain if r.cached is True]),
        "serve.cache_hit_ratio": counters.get("serve.cache_hits", 0) / lookups if lookups else 0.0,
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.rejected": counters.get("serve.rejected", 0),
        "oracle.fuzz_oracle_s": (
            phases.get("fuzz.oracle", {}).get("seconds", 0.0) / len(fuzz_jobs)
            if fuzz_jobs else 0.0),
        "oracle.trials_per_s": (
            counters.get("serve.fuzz_trials", 0) / fuzz_worker_s if fuzz_worker_s else 0.0),
        "trace.overhead_s": median(traced_rounds) - median(plain_rounds),
        "trace.spans": len(spans.spans) / rounds,
    }
    for layer in ("serve", "parallel"):
        layers[f"{layer}.self_s"] = self_times.get(layer, 0.0) / rounds
    _write_trace(args, spans, report)
    return layers


# -- driver -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(os.path.join(HERE, "expected.json"))
    inputs = prepare(args.workload, args.seed)
    setup = measure_setup(args)
    if args.workload == "serve":
        result, report, attempted, failed, problems, layers = run_serve(args, inputs, expected)
    else:
        result, report, attempted, failed, problems, layers = run_checks(args, inputs, expected)
    result["setup_s"] = median(setup)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"setup_s       {result['setup_s']:.3f} s   (median of {len(setup)} set-ups "
          f"in fresh processes: {', '.join(f'{raw:.3f}' for raw in setup)} s)")
    for line in report:
        print(line)
    print(f"failed_share  {failed}/{attempted} = {failed / attempted:.4f}")
    for problem in problems:
        print(f"HYGIENE {problem}", file=sys.stderr)
    if args.trace:
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {m["name"]: {"value": float(result[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
