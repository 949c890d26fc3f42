"""realcoh benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/` of that
checkout.  The run sets up its workload, then attempts whole rounds of
operations until S seconds have passed, checks every answer with an
independent oracle, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md.
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
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3


def ref_loop_ms() -> float:
    """Median of five timings of a fixed pure-Python loop: host speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Put the checkout's `src/` first on the path and insist on using it."""
    src = ROOT / "src"
    if not (src / "realcoh" / "__init__.py").is_file():
        fail(f"no realcoh sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import realcoh

    if Path(realcoh.__file__).resolve().parent != (src / "realcoh").resolve():
        fail(f"imported realcoh from {realcoh.__file__}, not {src}")
    try:
        assert False
    except AssertionError:
        pass
    else:
        fail("assertions are off (python -O); run without -O")


def set_up(args, workdir: Path):
    """Import, generate the inputs, build and warm up: (workload, seconds)."""
    t0 = time.perf_counter()
    load_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    return workload, time.perf_counter() - t0


def setup_sample(args) -> float:
    """Set-up time of the same workload and seed in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        fail(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Stats:
    def __init__(self):
        self.rounds = []         # per round: [(seconds, passed)] per op
        self.faults = []         # (label, code) of known-fault failures
        self.wrong = []          # (label, reason)

    @property
    def times(self) -> list:
        return [dt for ops in self.rounds for dt, _ in ops]

    def record(self, op, dt, result, error, known_codes):
        self.rounds[-1].append((dt, self._passed(op, result, error,
                                                 known_codes)))

    def _passed(self, op, result, error, known_codes) -> bool:
        if error is not None:
            code = getattr(error, "code", type(error).__name__)
            if op.known_fault and code in known_codes:
                self.faults.append((op.label, code))
            else:
                self.wrong.append((op.label, f"{code}: {error}"))
            return False
        try:
            op.check(result)
        except Exception as exc:
            self.wrong.append((op.label, f"{type(exc).__name__}: {exc}"))
            return False
        return True


def timed(op):
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:
        result, error = None, exc
    return time.perf_counter() - t0, result, error


def measure(workload, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed: (stats, rounds, traced_s,
    untraced_s).  With a tracer each operation first runs traced, so that
    the spans see it as an untraced run would, then once more untraced."""
    import workloads

    stats = Stats()
    rounds = 0
    traced_s = untraced_s = 0.0
    t_start = time.perf_counter()
    while True:
        stats.rounds.append([])
        for i, op in enumerate(workload.round_ops()):
            if tracer is not None:
                tracer.op = f"{rounds}:{i}:{op.label}"
                tracer.install()
                try:
                    dt, result, error = timed(op)
                finally:
                    tracer.uninstall()
                traced_s += dt
                if error is None:
                    try:
                        op.check(result)
                    except Exception as exc:
                        stats.wrong.append((op.label, f"traced: {exc}"))
            dt, result, error = timed(op)
            stats.record(op, dt, result, error, workloads.KNOWN_FAULT_CODES)
            untraced_s += dt
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            return stats, rounds, traced_s, untraced_s


def end_to_end(stats: Stats, setup_s: float) -> dict:
    """Medians over rounds, so that a burst of load on a shared host moves
    them less: throughput of each round; each operation's time in the
    round order, whose largest median is the slowest operation."""
    rates = [sum(ok for _, ok in ops) / sum(dt for dt, _ in ops)
             for ops in stats.rounds]
    per_op = [statistics.median(ops[i][0] for ops in stats.rounds)
              for i in range(len(stats.rounds[0]))]
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(stats.times) * 1000, "ms"),
        "slowest_op_s": (max(per_op), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


# per-layer metrics read off the spans as SPAN.FIELD, per round
SPAN_METRICS = [
    "catalog.get.self_s",
    "reductive.build_reductive.self_s",
    "reductive.weyl_action.self_s",
    "reductive.solve_problem2_reductive.self_s",
    "reductive.solve_problem2_reductive.calls",
    "nonreductive.solve_problem2_connected.self_s",
    "nonconnected.solve_problem2_nonconnected.self_s",
    "nonconnected.h1_nonconnected.self_s",
    "torus.build_presentation.self_s",
    "torus.build_presentation.calls",
    "torus.trivialize_cocycle.self_s",
    "torus.trivialize_cocycle.calls",
    "torus.h1_torus.calls",
    "liealg.LieAlgebraDatum.self_s",
    "liealg.SCAlgebra.centralizer.self_s",
    "liealg.SCAlgebra.center_of.self_s",
    "liealg.root_system.self_s",
    "liealg.SCAlgebra.cartan_subalgebra.self_s",
    "liealg.jordan.self_s",
    "linalg.mmul.self_s",
    "linalg.mmul.calls",
    "linalg.row_reduce.self_s",
    "linalg.row_reduce.calls",
    "linalg.minverse.calls",
    "lattice.hnf.self_s",
    "lattice.snf.self_s",
    "lattice.gamma_decompose.self_s",
    "cli.main.self_s",
    "field.split_poly.self_s",
    "field.split_poly.calls",
]
# per-layer metrics read off the tracer's counts, per round
COUNT_METRICS = ["field.mul.calls", "field.sqrt.calls", "field.tower_gens",
                 "reductive.weyl_elements"]


def per_layer(tracer, rounds: int, ref_ms: float, traced_s: float,
              untraced_s: float) -> dict:
    layers = tracer.layer_totals()
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        value = layers.get(span, {}).get(field, 0)
        out[metric] = (value / rounds, "s" if field == "self_s" else "count")
    for metric in COUNT_METRICS:
        key = metric[:-len(".calls")] if metric.endswith(".calls") else metric
        out[metric] = (tracer.counts.get(key, 0) / rounds, "count")
    solves = layers.get("reductive.solve_problem2_reductive", {}).get(
        "calls", 0)
    twists = tracer.count_within("reductive._twist",
                                 "reductive.solve_problem2_reductive")
    out["reductive.w0_twists_per_solve"] = (twists / solves if solves else 0,
                                            "count")
    so45 = tracer.layer_totals(ops={op for *_, op in tracer.spans
                                    if op.endswith(":so(4,5)")})
    out["so45.group_build_s"] = (
        so45.get("catalog.get", {}).get("total_s", 0) / rounds, "s")
    out["so45.weyl_action_s"] = (
        so45.get("reductive.weyl_action", {}).get("total_s", 0) / rounds, "s")
    out["host.ref_loop_ms"] = (ref_ms, "ms")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["h1-catalog", "equiv-stream", "torus-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    ref_start = ref_loop_ms()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload, own_setup_s = set_up(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        workload.verify_setup()
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        stats, rounds, traced_s, untraced_s = measure(workload, args.seconds,
                                                      tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_ms = statistics.median([ref_start, ref_loop_ms()])
    if tracer:
        metrics = per_layer(tracer, rounds, ref_ms, traced_s, untraced_s)
    else:
        setup_s = statistics.median([own_setup_s] + [
            setup_sample(args) for _ in range(SETUP_SAMPLES - 1)])
        metrics = end_to_end(stats, setup_s)
    faults = Counter(f"{label} {code}" for label, code in stats.faults)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": rounds, "host.ref_loop_ms": ref_ms,
                      "known_faults_per_round": {
                          k: v / rounds for k, v in sorted(faults.items())},
                      "wrong": stats.wrong[:20]}))
    if tracer:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path, {"workload": args.workload,
                                  "seed": args.seed, "rounds": rounds,
                                  "layers": tracer.layer_totals()})
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not stats.wrong,
        "attempted": len(stats.times),
        "failed": len(stats.faults) + len(stats.wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                    in metrics.items()},
    }))
    return 0 if not stats.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
