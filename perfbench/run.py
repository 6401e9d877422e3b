"""critline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  A
run is a closed loop: one client, one CLI operation at a time, each pass of
the workload's operations in a fresh interpreter, ``MOLLIFIER_THREADS`` unset
(one evaluation thread).  A run makes round(--seconds / nominal pass
time) passes, at least one; the nominal times are constants, so the number
of passes does not depend on the machine's speed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
set-up time (median of SETUP_REPEATS fresh interpreters that import
``critline.cli`` and build the inputs, spread before, between and after the
passes), time to solution of a pass and peak RSS (medians over passes).  ``--trace 1`` runs one untraced and one traced
pass, requires byte-identical outputs from the two, and reports the
per-layer metrics from the traced one.  Every operation passes its
correctness gate or counts as failed; an operation whose output differs
between passes of one run also counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
per-operation results, metrics) and the spans of a traced pass are written
under ``.perfbench_out/``.  The exit code is 2 for bad arguments or a
checkout without the program, and 1 when a pass cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, ladder_orders, node_counts

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 21
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MOLLIFIER_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded its {DEADLINE_S:.0f} s deadline")
    return left


def measure_setup(workload: str, seed: int, work: Path, samples: range,
                  deadline: float) -> list[float]:
    times = []
    for i in samples:
        target = work / f"setup{i}"
        target.mkdir()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--setup", workload, str(seed), str(target)],
            env=child_env(), capture_output=True, text=True, timeout=_remaining(deadline),
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
    return times


def run_pass(ops, work: Path, index: int, traced: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; returns the worker's result."""
    for op in ops:
        if op.report:
            Path(op.report).unlink(missing_ok=True)
    plan = work / f"plan{index}.json"
    result = work / f"pass{index}.json"
    plan.write_text(json.dumps({"ops": [
        {"name": op.name, "argv": list(op.argv), "report": op.report} for op in ops
    ]}), encoding="utf-8")
    cmd = [sys.executable, str(WORKER), str(plan), str(result)]
    if traced:
        cmd += ["--trace", str(work / f"spans{index}.tsv")]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(result.read_text(encoding="utf-8"))
    out["wall_s"] = sum(op["seconds"] for op in out["ops"])
    if Path(out["program"]) != ROOT / "src" / "critline":
        raise BenchError(f"pass {index} imported critline from {out['program']}, not this checkout")
    return out


def check_ops(ops, passes: list[dict]) -> list[dict]:
    """Gate every operation of every pass; outputs must repeat across passes,
    and an op with ``same_ladders_as`` must step through the same quadrature
    orders as that op did in its pass."""
    outcomes = []
    first = {}
    for index, result in enumerate(passes):
        reports = {}
        for op, got in zip(ops, result["ops"], strict=True):
            try:
                report = json.loads(got["report"]) if got["report"] else None
                errors = op.gate(got["rc"], report, got["stdout"])
            except (ValueError, KeyError, TypeError) as exc:
                report, errors = None, [f"malformed output: {exc!r}"]
            reports[op.name] = report
            if op.same_ladders_as and report:
                base = reports.get(op.same_ladders_as)
                if base is None or ladder_orders(report) != ladder_orders(base):
                    errors.append(f"ladder orders {ladder_orders(report)} differ from "
                                  f"{op.same_ladders_as}'s")
            output = (got["report"], got["stdout"])
            if first.setdefault(op.name, output) != output:
                errors.append("output differs from the first pass of this run")
            outcomes.append({
                "pass": index, "op": op.name, "rc": got["rc"], "seconds": got["seconds"],
                "errors": errors, "kappa": report.get("kappa") if report else None,
                "nodes": node_counts(report) if report else None,
                "stderr": got["stderr"] if errors else "",
            })
    return outcomes


def _cpu_info() -> dict[str, str]:
    info = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return {"cpu_model": info.get("model name", "unknown"),
            "cache_size": info.get("cache size", "unknown")}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(passes: list[dict]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **_cpu_info(),
        **passes[0]["versions"],
        "MOLLIFIER_THREADS": "unset",
        "git_commit": _git_commit(),
    }


def measure(args, ops, work: Path, deadline: float) -> tuple[list[dict], dict]:
    if args.trace:
        plain = run_pass(ops, work, 0, False, deadline)
        traced = run_pass(ops, work, 1, True, deadline)
        metrics = dict(traced["layers"])
        metrics["proc.cpu_s"] = plain["cpu_s"]
        metrics["proc.cpu_util"] = plain["cpu_s"] / plain["wall_s"]
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        return [plain, traced], metrics

    # set-up samples are spread over the run, a share before each pass and
    # after the last, so that a slow spell of the machine moves few of them
    planned = max(1, round(args.seconds / WORKLOADS[args.workload].nominal_s))
    setup, passes = [], []
    window_start = time.perf_counter()
    for index in range(planned):
        share = range(len(setup), SETUP_REPEATS * (index + 1) // (planned + 1))
        setup += measure_setup(args.workload, args.seed, work, share, deadline)
        per_pass = (time.perf_counter() - window_start) / index if index else 0.0
        if per_pass > _remaining(deadline):
            break
        passes.append(run_pass(ops, work, index, False, deadline))
    setup += measure_setup(args.workload, args.seed, work, range(len(setup), SETUP_REPEATS),
                           deadline)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "critline" / "cli.py").is_file():
        print(f"error: no critline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # keep only the latest run per workload and mode: a traced pass's spans run to tens of MB
    for old in OUT.glob(f"{args.workload}-seed*-trace{args.trace}"):
        shutil.rmtree(old)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work / "inputs").mkdir(parents=True)
    (work / "reports").mkdir()
    ops = WORKLOADS[args.workload].build(args.seed, work / "inputs", work / "reports")

    try:
        passes, values = measure(args, ops, work, deadline)
        if set(values) != {m["name"] for m in wanted}:
            raise BenchError(f"computed metrics {sorted(values)} do not match BENCHMARK.json")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outcomes = check_ops(ops, passes)
    failed = sum(bool(o["errors"]) for o in outcomes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for o in outcomes:
        verdict = "ok" if not o["errors"] else "FAILED: " + "; ".join(o["errors"])
        nodes = "/".join(map(str, o["nodes"].values())) if o["nodes"] else "-"
        print(f"pass {o['pass']}  {o['op']:<24} rc={o['rc']}  {o['seconds']:8.3f} s  "
              f"kappa={o['kappa']}  nodes c1/c12/c2={nodes}  {verdict}")
    env = environment(passes)
    print("environment: " + json.dumps(env))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "operations": outcomes,
              "metrics": metrics}
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
