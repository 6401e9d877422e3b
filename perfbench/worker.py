"""One fresh interpreter: run a workload pass through ``critline.cli.main``.

    python3 perfbench/worker.py PLAN.json RESULT.json [--trace SPANS.tsv]
    python3 perfbench/worker.py --setup WORKLOAD SEED DIR

The plan lists the command lines of one pass.  Each runs in-process, one at
a time, with its stdout and stderr captured; the result records per-op exit
code, seconds, output and report bytes, plus peak RSS and CPU time.  With
``--trace`` the program's layers are wrapped for the pass, the spans are
written to SPANS.tsv and the per-layer values go into the result.

``--setup`` does only what every pass must do first: import ``critline.cli``
(numpy, mpmath) and build the workload's inputs into DIR.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_op(cli, argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped exception is a failed op, not a crashed pass
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def run_pass(plan_path: str, result_path: str, spans_path: str | None) -> None:
    import critline
    import critline.cli as cli
    import mpmath
    import numpy

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.instrument()
    cpu0 = _cpu_seconds()
    ops = []
    try:
        for op in plan["ops"]:
            rc, seconds, stdout, stderr = _run_op(cli, op["argv"])
            report = op.get("report")
            report_text = Path(report).read_text(encoding="utf-8") if report and Path(report).is_file() else None
            ops.append({"name": op["name"], "rc": rc, "seconds": seconds, "stdout": stdout,
                        "stderr": stderr, "report": report_text})
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "ops": ops,
        "cpu_s": _cpu_seconds() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "program": str(Path(critline.__file__).resolve().parent),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(spans_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def setup(workload: str, seed: int, directory: str) -> None:
    import critline.cli  # noqa: F401  (the import is what is timed)
    import mpmath  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed, Path(directory), Path(directory))


if __name__ == "__main__":
    if sys.argv[1] == "--setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        run_pass(sys.argv[1], sys.argv[2], sys.argv[4] if len(sys.argv) > 4 else None)
