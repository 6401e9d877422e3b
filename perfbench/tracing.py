"""Spans around critline's layers, recorded from outside the program.

:func:`instrument` replaces the public functions of ``cli``, ``moments``,
``quad``, ``jet``, ``poly``, ``optimize`` and ``oracle`` with wrappers that
record a span per call (name, start, end, parent) in memory, plus the counts
that only the call's arguments show (nodes per rule, jet products).  It
returns a :class:`Tracer`; ``restore()`` puts every original back.  Nothing in
the program is edited.  The program is single-threaded here
(``MOLLIFIER_THREADS`` unset), so spans nest strictly and a span's self time
is its duration minus its children's.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Both p90 and its sample count are reported only when ten samples lie beyond it.
P90_MIN_SAMPLES = 100
# optimize_full's searches, by whether they fit P2 (d2 > 0); each search's
# metrics are kept apart.
SEARCHES = ("no_psi2", "psi2")
ORACLE_SUITES = ("euler", "contour", "mobius", "mellin", "qop", "jets")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.open = Counter()  # name -> number of open spans with that name
        self.counts = Counter()
        self.search = ""  # span-name prefix of the running optimize_full search
        self.gram_seconds: dict[str, list[float]] = defaultdict(list)
        self.final_s: dict[str, float] = defaultdict(float)
        self.kappa: dict[str, float] = defaultdict(float)
        self._last_cube_nodes = 0
        self._search_end = 0.0
        self._rule_misses_at_start = 0
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(sid)
        self.open[name] += 1
        return sid

    def finish(self, sid: int, name: str) -> float:
        now = perf_counter()
        self.end[sid] = now
        self._stack.pop()
        self.open[name] -= 1
        return now - self.start[sid]

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid, name)

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)``; module functions are
        also replaced wherever another critline module imported them by name."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "critline" and mod is not owner:
                    targets += [(mod, key) for key, value in vars(mod).items() if value is original]
        for target, key in targets:
            self._undo.append(lambda target=target, key=key, old=getattr(target, key): setattr(target, key, old))
            setattr(target, key, wrapper)

    def patch_item(self, mapping: dict, key: str, make):
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = make(original)

    def restore(self):
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names, t0 = self.names, (self.start[0] if self.start else 0.0)
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{names[self.name_of[sid]]}\t"
                         f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}\n")

    def busy_and_self(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for sid in range(n):
            name = self.names[self.name_of[sid]]
            dur = self.end[sid] - self.start[sid]
            busy[name] += dur
            own[name] += dur - child[sid]
            calls[name] += 1
        return busy, own, calls


# -- instrumentation -------------------------------------------------------------


def _jet_terms(mx: int, my: int) -> int:
    """Coefficient products in one truncated (mx, my) jet multiply."""
    return (mx + 1) * (mx + 2) // 2 * ((my + 1) * (my + 2) // 2)


def instrument() -> Tracer:
    from critline import cli, jet, moments, optimize, oracle, poly, quad

    t = Tracer()
    counts = t.counts

    t.patch(cli, "main", lambda fn: t.spanned("cli.main", fn))
    for fn_name, span in (("c1_raw", "moments.c1"), ("c12_raw", "moments.c12"),
                          ("c2_raw", "moments.c2"), ("evaluate", "moments.evaluate")):
        t.patch(moments, fn_name, lambda fn, span=span: t.spanned(span, fn))

    # quad: rungs, nodes per dimension, and the integrand timed apart from quad
    def wrap_cube(fn):
        def integrate_cube(f, d, rule, *args, **kwargs):
            nodes = rule.nodes.size ** d
            counts[f"quad.nodes.d{d}"] += nodes
            counts["quad.orders"] += 1
            t._last_cube_nodes = nodes
            inner = t.spanned(f"quad.integrand.d{d}", f)
            sid = t.begin(f"quad.cube.d{d}")
            try:
                return fn(inner, d, rule, *args, **kwargs)
            finally:
                t.finish(sid, f"quad.cube.d{d}")

        return integrate_cube

    def wrap_converged(fn):
        def integrate_converged(*args, **kwargs):
            counts["quad.integrals"] += 1
            if t.search and t.open[f"{t.search}.gram"]:
                counts[f"{t.search}.gram.integrals"] += 1
            sid = t.begin("quad.integrate")
            try:
                result = fn(*args, **kwargs)
            except quad.QuadratureError:
                counts["quad.failures"] += 1
                raise
            finally:
                t.finish(sid, "quad.integrate")
            counts["quad.confirm_nodes"] += t._last_cube_nodes
            return result

        return integrate_converged

    t.patch(quad, "integrate_cube", wrap_cube)
    t.patch(quad, "integrate_converged", wrap_converged)

    # jet ring: exact work from caps x batch size
    def wrap_mul(fn):
        def mul(self, other):
            sid = t.begin("jet.mul")
            try:
                out = fn(self, other)
            finally:
                t.finish(sid, "jet.mul")
            cells = out.coeffs.size
            batch = cells // ((out.mx + 1) * (out.my + 1))
            other_bytes = other.coeffs.nbytes if isinstance(other, jet.Jet) else getattr(other, "nbytes", 8)
            terms = _jet_terms(out.mx, out.my) if isinstance(other, jet.Jet) else (out.mx + 1) * (out.my + 1)
            counts["jet.mul.products"] += terms * batch
            counts["jet.mul.bytes"] += self.coeffs.nbytes + other_bytes + out.coeffs.nbytes
            return out

        return mul

    t.patch(jet.Jet, "__mul__", wrap_mul)
    t.patch(jet.Jet, "__rmul__", wrap_mul)
    t.patch(jet.Jet, "exp", lambda fn: t.spanned("jet.exp", fn))
    t.patch(jet, "jet_eval_poly", lambda fn: t.spanned("jet.poly", fn))
    t.patch(poly.Polynomial, "__call__", lambda fn: t.spanned("poly.eval", fn))

    # optimize: outer steps, Gram builds, solves and the KKT fallback, with
    # span names prefixed by the search (optimize.no_psi2 or optimize.psi2)
    def wrap_nelder_mead(fn):
        def nelder_mead(f, *args, **kwargs):
            if t.open[f"{t.search}.solve"]:
                counts[f"{t.search}.kkt_fallbacks"] += 1
                return t.spanned(f"{t.search}.kkt_fallback", fn)(f, *args, **kwargs)
            try:
                outer_step = t.spanned(f"{t.search}.outer_step", f)
                return t.spanned(f"{t.search}.search", fn)(outer_step, *args, **kwargs)
            finally:
                t._search_end = perf_counter()

        return nelder_mead

    def wrap_gram(fn):
        def build_gram(*args, **kwargs):
            name = f"{t.search}.gram"
            sid = t.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                t.gram_seconds[t.search].append(t.finish(sid, name))

        return build_gram

    def wrap_solve(fn):
        def solve_constrained(*args, **kwargs):
            w, c = t.spanned(f"{t.search}.solve", fn)(*args, **kwargs)
            if t.open[f"{t.search}.outer_step"] and c > 0:
                counts[f"{t.search}.admissible"] += 1
            return w, c

        return solve_constrained

    def wrap_full(fn):
        def optimize_full(*args, **kwargs):
            d2 = kwargs["d2"] if "d2" in kwargs else args[3]
            t.search = "optimize.psi2" if d2 else "optimize.no_psi2"
            sid = t.begin(f"{t.search}.full")
            try:
                result = fn(*args, **kwargs)
            finally:
                t.finish(sid, f"{t.search}.full")
            t.final_s[t.search] += t.end[sid] - t._search_end
            t.kappa[t.search] = result.kappa
            t.search = ""
            return result

        return optimize_full

    t.patch(optimize, "nelder_mead", wrap_nelder_mead)
    t.patch(optimize, "build_gram", wrap_gram)
    t.patch(optimize, "solve_constrained", wrap_solve)
    t.patch(optimize, "optimize_full", wrap_full)

    # oracle: per-suite time and checks, contour integrals, finite differences
    def wrap_suite(fn, suite):
        def run():
            results = t.spanned(f"oracle.suite.{suite}", fn)()
            counts[f"oracle.{suite}.checks"] += len(results)
            counts["oracle.failed_checks"] += sum(not r.passed for r in results)
            return results

        return run

    for suite in ORACLE_SUITES:
        if suite in oracle.SUITES:
            t.patch_item(oracle.SUITES, suite, lambda fn, suite=suite: wrap_suite(fn, suite))
    t.patch(oracle, "contour_circle", lambda fn: t.spanned("oracle.contour_circle", fn))
    t.patch(oracle, "fd_c12", lambda fn: t.spanned("oracle.fd", fn))
    t.patch(oracle, "fd_c2", lambda fn: t.spanned("oracle.fd", fn))

    t._rule_misses_at_start = _rule_misses()
    return t


def _rule_misses() -> int:
    from critline import quad

    info = getattr(quad.gauss_rule, "cache_info", None)
    return info().misses if info else 0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer values by metric name; layers a workload never enters read 0."""
    c = t.counts
    busy, own, calls = t.busy_and_self()
    out = {"cli.evaluate_calls": calls["moments.evaluate"] / max(calls["cli.main"], 1)}
    for key in ("c1", "c12", "c2"):
        out[f"moments.{key}.calls"] = calls[f"moments.{key}"]
        out[f"moments.{key}.s"] = busy[f"moments.{key}"]
    out["moments.evaluate.s"] = busy["moments.evaluate"]

    for key in ("integrals", "failures", "orders"):
        out[f"quad.{key}"] = c[f"quad.{key}"]
    for d in (2, 3, 4):
        out[f"quad.nodes.d{d}"] = c[f"quad.nodes.d{d}"]
    for d in (2, 3, 4):
        out[f"quad.busy_s.d{d}"] = busy[f"quad.cube.d{d}"]
        out[f"quad.self_s.d{d}"] = own[f"quad.cube.d{d}"]
    out["quad.nodes_per_s.d4"] = c["quad.nodes.d4"] / busy["quad.cube.d4"] if busy["quad.cube.d4"] else 0.0
    all_nodes = sum(c[f"quad.nodes.d{d}"] for d in (1, 2, 3, 4))
    out["quad.confirm_node_share"] = c["quad.confirm_nodes"] / all_nodes if all_nodes else 0.0
    out["quad.rule_cache_misses"] = _rule_misses() - t._rule_misses_at_start

    out["poly.eval.calls"] = calls["poly.eval"]
    out["poly.eval.s"] = busy["poly.eval"]
    out["jet.mul.calls"] = calls["jet.mul"]
    out["jet.mul.s"] = busy["jet.mul"]
    out["jet.mul.products"] = c["jet.mul.products"]
    out["jet.mul.bytes"] = c["jet.mul.bytes"]
    for key in ("exp", "poly"):
        out[f"jet.{key}.calls"] = calls[f"jet.{key}"]
        out[f"jet.{key}.s"] = busy[f"jet.{key}"]

    for search in SEARCHES:
        p = f"optimize.{search}"
        steps = calls[f"{p}.outer_step"]
        grams = t.gram_seconds[p]
        out[f"{p}.outer_steps"] = steps
        out[f"{p}.admissible_ratio"] = c[f"{p}.admissible"] / steps if steps else 0.0
        out[f"{p}.gram.calls"] = len(grams)
        out[f"{p}.gram.s"] = busy[f"{p}.gram"]
        out[f"{p}.gram.p50_s"] = statistics.median(grams) if grams else 0.0
        if search == "no_psi2":  # ~1300 builds; the psi2 search makes 9, too few for a p90
            out[f"{p}.gram.p90_s"] = (
                statistics.quantiles(grams, n=10)[-1] if len(grams) >= P90_MIN_SAMPLES else 0.0
            )
        out[f"{p}.gram.integrals_per_build"] = c[f"{p}.gram.integrals"] / len(grams) if grams else 0.0
        out[f"{p}.solve.calls"] = calls[f"{p}.solve"]
        out[f"{p}.solve.s"] = busy[f"{p}.solve"]
        out[f"{p}.kkt_fallbacks"] = c[f"{p}.kkt_fallbacks"]
        out[f"{p}.final.s"] = t.final_s[p]
        out[f"{p}.kappa"] = t.kappa[p]

    for suite in ORACLE_SUITES:
        out[f"oracle.{suite}.s"] = busy[f"oracle.suite.{suite}"]
        out[f"oracle.{suite}.checks"] = c[f"oracle.{suite}.checks"]
    out["oracle.fd.s"] = busy["oracle.fd"]
    out["oracle.contour_circle.calls"] = calls["oracle.contour_circle"]
    out["oracle.contour_circle.s"] = busy["oracle.contour_circle"]
    out["oracle.failed_checks"] = c["oracle.failed_checks"]
    out["trace.spans"] = len(t.start)
    return out
