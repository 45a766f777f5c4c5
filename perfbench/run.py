"""Benchmark harness for superinduce: end-to-end op metrics and a traced run.

    python3 perfbench/run.py --workload {gen,floors,queries,all} --seed N \
        --seconds S --trace {0,1}

Each workload runs in a fresh interpreter as a closed loop: one process, one
caller, no threads, each op started as soon as the previous one returned.
Ops come in rounds of fixed make-up (see workloads.py); whole rounds run until
at least S seconds of wall time have passed and at least 100 ops have run, so
a run measures at least S seconds.  Every op's value is checked against its oracle outside the timed
region, and a wrong value or an exception counts as a failure.

With ``--trace 0`` the run reports the end-to-end metrics: ops per second of
busy time, median and 90th-percentile op latency, peak resident memory, and
set-up time (the median of several fresh interpreters importing superinduce
and generating the first round's inputs; caches are not pre-warmed because
every CLI invocation starts cold).  With ``--trace 1`` it wraps the public
functions of superinduce in spans, runs the same rounds traced, replays them
untraced from cold caches, and reports the per-layer metrics together with
the tracing overhead (traced ops/s divided by untraced ops/s).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any op failed, 2
when the program under test is missing.  A result file with the machine's
provenance goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("gen", "floors", "queries")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 175
MAX_FAILURES_KEPT = 20
# enough ops for ten samples beyond the 90th percentile
MIN_OPS = 100
CPU_NOTE = (
    "CPU not pinned or isolated: the benchmark may not change the machine's "
    "settings, so other processes can share these CPUs"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source() -> None:
    if not (SRC / "superinduce" / "__init__.py").is_file():
        print(f"perfbench: no superinduce package under {SRC}", file=sys.stderr)
        sys.exit(2)


# -- provenance ---------------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown: not a git checkout"


def provenance(seed: int, pool_seeds: dict, load_start) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seeds": {"run": seed, **pool_seeds},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "cpu": CPU_NOTE,
    }


# -- set-up -------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Import superinduce and generate the first round, in this fresh process."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.WORKLOADS[workload](seed).round()
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def measure_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- the closed loop ------------------------------------------------------------------


class Outcome:
    def __init__(self):
        self.labels = []
        self.latencies_ns = []
        self.busy_by_field = {}
        self.by_kind = {}
        self.failures = []
        self.failed = 0
        self.rounds = 0

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def run_rounds(make_workload, seconds=None, rounds=None, tracer=None) -> Outcome:
    """Whole rounds until `seconds` of wall time have passed and MIN_OPS ops
    have run, or `rounds` rounds."""
    workload = make_workload()
    out = Outcome()
    clock = time.perf_counter_ns
    started = time.perf_counter()
    while True:
        for op in workload.round():
            span = tracer.begin("op." + op.kind) if tracer else None
            error = None
            t0 = clock()
            try:
                value = op.run()
            except Exception as exc:  # an op that raises is a counted failure
                error = f"{type(exc).__name__}: {exc}"
            elapsed = clock() - t0
            if tracer:
                tracer.end(span)
            if error is None:
                try:
                    if not op.check(value):
                        error = "wrong result"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            out.labels.append(op.label)
            out.latencies_ns.append(elapsed)
            if op.field:
                out.busy_by_field[op.field] = out.busy_by_field.get(op.field, 0.0) + elapsed / 1e9
            count, busy = out.by_kind.get(op.kind, (0, 0))
            out.by_kind[op.kind] = (count + 1, busy + elapsed)
            if error is not None:
                out.failed += 1
                if len(out.failures) < MAX_FAILURES_KEPT:
                    out.failures.append({"op": op.label, "error": error})
        out.rounds += 1
        if rounds is not None:
            if out.rounds >= rounds:
                return out
        elif time.perf_counter() - started >= seconds and out.ops >= MIN_OPS:
            return out


def end_to_end(outcome: Outcome, setup_samples: list):
    """(metrics, notes on how the latencies were taken)."""
    from stats import harrell_davis, percentile_report

    latencies_ms = [ns / 1e6 for ns in outcome.latencies_ns]
    p50 = harrell_davis(latencies_ms, 0.5)
    p90 = percentile_report(latencies_ms, 90)
    metrics = {
        "ops_per_s": {"value": outcome.ops / outcome.busy_s, "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_p90_ms": {"value": p90["value"], "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }
    notes = {"p90": p90, "setup_samples_s": setup_samples}
    return metrics, notes


def run_workload(args) -> int:
    require_source()
    load_start = os.getloadavg()
    setup_samples = measure_setup(args.workload, args.seed) if not args.trace else []
    sys.path.insert(0, str(SRC))
    import workloads

    make = lambda: workloads.WORKLOADS[args.workload](args.seed)  # noqa: E731
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = run_rounds(make, seconds=args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        workloads.clear_ambient_caches()
        plain = run_rounds(make, rounds=traced.rounds)
        ratio = (traced.ops / traced.busy_s) / (plain.ops / plain.busy_s)
        metrics = layers.metrics(tracer, plain.busy_by_field, traced.ops, ratio)
        spans = RESULTS / f"spans-{args.workload}"
        tracer.write(spans)
        report["spans_file"] = str(spans.with_suffix(".bin").relative_to(ROOT))
        report["spans"] = len(tracer.span_name)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = (traced, plain)
    else:
        plain = run_rounds(make, seconds=args.seconds)
        metrics, notes = end_to_end(plain, setup_samples)
        report["latency_notes"] = notes
        outcomes = (plain,)
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report.update(
        provenance=provenance(args.seed, workloads.POOL_SEEDS, load_start),
        rounds=plain.rounds,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        by_kind={
            kind: {"ops": count, "busy_s": busy / 1e9}
            for kind, (count, busy) in sorted(plain.by_kind.items())
        },
        failures=[f for o in outcomes for f in o.failures][:MAX_FAILURES_KEPT],
        ops_ms=[[label, ns / 1e6] for label, ns in zip(plain.labels, plain.latencies_ns)],
        metrics=metrics,
    )
    RESULTS.mkdir(exist_ok=True)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}: seed {args.seed}, {plain.rounds} rounds, "
          f"{attempted} ops attempted, {failed} failed, error_rate {failed / attempted:.4g}")
    if not args.trace:
        p90 = report["latency_notes"]["p90"]
        support = ("" if p90["supported"] else
                   f"; fewer than 10 samples beyond p90, highest supported is "
                   f"p{p90['highest_supported']}")
        print(f"  latency from {p90['samples']} ops, {p90['beyond']} beyond p90{support}")
    else:
        print(f"  {report['spans']} spans, peak RSS {report['peak_rss_mb']:.1f} MB with tracing")
    for failure in report["failures"]:
        print(f"  FAILED {failure['op']}: {failure['error']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; every metric printed."""
    require_source()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        code = max(code, done.returncode)
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        require_source()
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
