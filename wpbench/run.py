"""weylpat benchmark: two workloads, checked answers, optional per-stage trace.

    python3 wpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): verify-window, smoothness-s7.
Every operation is one fresh weylpat process, started the way users
run the CLI, and timed from outside.  One busy process runs at a time
and this process blocks while it waits.

--trace 0 runs a fixed number of whole passes, S / PASS_S of them
(at least one), and prints the end-to-end metrics.  --trace 1 runs
every operation three times in the order untraced, traced (tracer.py),
untraced; it checks that all three give the same answers and prints
the per-stage metrics.  The last line of output is one JSON
object.  Results and traces are written under wpbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from tracer import HEAVY, STAGES  # noqa: E402

SETUP_LAUNCHES = 7
OP_TIMEOUT_S = 150
# nominal seconds of one untraced pass of either workload on the
# reference machine (README.md); --seconds buys this many passes
PASS_S = 25


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str]) -> dict:
    """Run one process to its end; wall time and its own peak RSS from wait4."""
    err_path = OUT / f"stderr-{os.getpid()}.txt"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=child_env())
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    err_path.unlink()
    return {"rc": proc.returncode, "stdout": stdout.decode(), "stderr": stderr,
            "seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024}


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: a diagnostic of machine speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def make_inputs(workload: str, seed: int, launches: int) -> tuple[list[float], str]:
    """Start an interpreter that imports weylpat and prints the inputs, `launches` times."""
    argv = [sys.executable, str(BENCH / "make_inputs.py"), workload, str(seed)]
    times, outputs = [], set()
    for _ in range(launches):
        res = spawn(argv)
        if res["rc"] != 0:
            sys.exit(f"set-up failed:\n{res['stderr']}")
        times.append(res["seconds"])
        outputs.add(res["stdout"])
    if len(outputs) != 1:
        sys.exit("set-up is not deterministic for this seed")
    return times, outputs.pop()


def run_op(op: list[str], trace_file: Path | None = None) -> dict:
    if trace_file is None:
        argv = [sys.executable, "-m", "weylpat", *op]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), *op]
    res = spawn(argv)
    res["argv"] = op
    return res


def run_pass(ops: list[list[str]]) -> dict:
    start = time.perf_counter()
    results = [run_op(op) for op in ops]
    return {"wall_s": time.perf_counter() - start, "results": results}


def run_traced(ops: list[list[str]], trace_dir: Path) -> list[dict]:
    """Each operation untraced, traced, untraced, one right after another.

    Returns three passes: untraced, traced, untraced.  Setting each
    traced process between two untraced ones of the same operation
    keeps slow drift of the host out of the tracing overhead.
    """
    passes: list[dict] = [{"results": []} for _ in range(3)]
    for k, op in enumerate(ops):
        passes[0]["results"].append(run_op(op))
        passes[1]["results"].append(run_op(op, trace_dir / f"{k}.json"))
        passes[2]["results"].append(run_op(op))
    for p in passes:
        p["wall_s"] = sum(r["seconds"] for r in p["results"])
    return passes


def run_metrics(passes: list[dict]) -> dict:
    """End-to-end metrics: per-pass values, then the median over the run's passes."""
    walls = [p["wall_s"] for p in passes]
    rss = [max(r["peak_rss_mb"] for r in p["results"]) for p in passes]
    return {"wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def answers(p: dict) -> list:
    """What a pass printed, minus the suites' own wall-time fields."""
    out = []
    for r in p["results"]:
        text = r["stdout"]
        if r["argv"][0] == "verify" and r["rc"] in (0, 1):
            data = json.loads(text)
            for rep in data.get("reports", []):
                rep.pop("wall_time", None)
            text = json.dumps(data, sort_keys=True)
        out.append((r["rc"], text))
    return out


def failed_ops(p: dict) -> int:
    """Operations that crashed, timed out or reported an error (exit 2 or 3)."""
    return sum(r["rc"] not in (0, 1) for r in p["results"])


def check_pass(workload: str, p: dict) -> str | None:
    """A failed operation fails the check too: its answers go unchecked."""
    try:
        checks.check(workload, p["results"])
    except checks.CheckFailed as exc:
        return str(exc)
    return None


def stage_metrics(traces: list[dict]) -> dict:
    metrics = {}
    for stage in STAGES:
        per = [t["stages"][stage] for t in traces]
        metrics[f"{stage}.self_s"] = (sum(s["self_s"] for s in per), "s")
        metrics[f"{stage}.calls"] = (sum(s["calls"] for s in per), "count")
        if stage in HEAVY:
            metrics[f"{stage}.peak_rss_growth_mb"] = (
                max(s["peak_rss_growth_mb"] for s in per), "MB")
    iso_calls = metrics["weyl.isomorphism.calls"][0]
    iso_true = sum(t["isomorphism_true"] for t in traces)
    metrics["weyl.isomorphism.true_share"] = (iso_true / iso_calls if iso_calls else 0.0, "ratio")
    return metrics


def check_traced_smooth_sets(p: dict, traces: list[dict]) -> str | None:
    """Smooth elements seen by the traced sweeps equal the 3412/4231 avoiders."""
    for r, t in zip(p["results"], traces):
        if r["argv"][:2] != ["verify", "type-a-smoothness"] or r["rc"] != 0:
            continue  # a failed process is reported by check_pass
        by_n: dict[int, set] = {}
        for text in t["smooth_type_a"]:
            by_n.setdefault(len(text), set()).add(tuple(int(c) for c in text))
        for n in (rep["parameters"]["n"] for rep in json.loads(r["stdout"])["reports"]):
            if by_n.get(n, set()) != checks.smooth_set(n):
                return f"smooth set of S{n} differs from the 3412/4231 avoiders"
    return None


def emit(result: dict, metrics: dict, extra_lines: list[str]) -> None:
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-counts", action="store_true",
                    help="store the verify-window case counts of this run, then check")
    args = ap.parse_args()
    if not (SRC / "weylpat" / "__init__.py").is_file():
        print(f"error: no weylpat sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    make_inputs(args.workload, args.seed, 1)  # compiles bytecode in a fresh checkout
    # set-up is timed several times, before and after the passes, so its
    # median spans the run's machine phases rather than one second of them
    setup_times, text = make_inputs(args.workload, args.seed, SETUP_LAUNCHES // 2 + 1)
    ops = json.loads(text)
    ref_before = reference_loop_s()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"workload {args.workload}, seed {args.seed}, {len(ops)} processes per pass"]
    problems: list[str] = []

    if args.trace == 0:
        passes = [run_pass(ops) for _ in range(max(1, round(args.seconds / PASS_S)))]
    else:
        trace_dir = OUT / f"trace-{tag}"
        trace_dir.mkdir(exist_ok=True)
        passes = run_traced(ops, trace_dir)
    ref_after = reference_loop_s()
    more_times, text_after = make_inputs(args.workload, args.seed, SETUP_LAUNCHES // 2)
    setup_s = statistics.median(setup_times + more_times)
    if text_after != text:
        problems.append("set-up is not deterministic")

    if args.write_counts and args.workload == "verify-window":
        checks.write_counts(passes[0]["results"])
    for p in passes:
        problem = check_pass(args.workload, p)
        if problem:
            problems.append(problem)
    if any(answers(p) != answers(passes[0]) for p in passes[1:]):
        problems.append("passes gave different answers")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "reference_loop_s": [ref_before, ref_after],
              "passes": [{"wall_s": p["wall_s"],
                          "latencies_s": [r["seconds"] for r in p["results"]],
                          "peak_rss_mb": [r["peak_rss_mb"] for r in p["results"]]}
                         for p in passes]}
    if args.trace == 0:
        metrics = {"setup_s": (setup_s, "s"), **run_metrics(passes)}
    else:
        files = [trace_dir / f"{k}.json" for k in range(len(ops))]
        traces = [json.loads(f.read_text()) for f in files if f.is_file()]
        for f in files:
            f.unlink(missing_ok=True)
        trace_dir.rmdir()
        metrics = {}
        if len(traces) < len(ops):
            problems.append(f"the traced pass left {len(traces)} of {len(ops)} traces")
        else:
            problem = check_traced_smooth_sets(passes[1], traces)
            if problem:
                problems.append(problem)
            metrics = stage_metrics(traces)
        untraced_s = (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2
        metrics["trace.overhead_s"] = (passes[1]["wall_s"] - untraced_s, "s")
        lines.append(f"untraced passes {passes[0]['wall_s']:.2f} s and {passes[2]['wall_s']:.2f} s, "
                     f"traced {passes[1]['wall_s']:.2f} s")
        absent = sorted({name for t in traces for name in t["absent"]})
        lines.append(f"absent names: {', '.join(absent) or 'none'}")
        lines.append(f"spans: {sum(t['span_count'] for t in traces)} "
                     f"(kept {sum(len(t['spans']) for t in traces)} of at least 1 ms)")
        record["traces"] = traces
    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    record["problems"] = problems
    (OUT / f"result-{tag}.json").write_text(json.dumps(record))

    lines.append(f"passes {len(passes)}; reference loop {ref_before * 1000:.1f} ms before, "
                 f"{ref_after * 1000:.1f} ms after")
    lines += [f"CHECK FAILED: {p}" for p in problems]
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(failed_ops(p) for p in passes)
    emit({"correct": not problems, "attempted": attempted, "failed": failed}, metrics, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
