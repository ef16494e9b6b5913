"""Traced runs: spans around dualent's public functions, and the per-layer
metrics derived from them.

A span is [name, start, end, parent index, attributes]. Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children; a layer's time counts only the outermost
span of that layer, so nested or recursive calls are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

from workloads import ball_keys


def _lp_shape(args, result):
    return {"rows": len(args["eq_rows"]) + len(args["ub_rows"]), "cols": len(args["objective"])}


def _search(args, result):
    group = args["group"]
    candidates = args.get("candidates")
    return {
        "rank": group.rank,
        "orders": tuple(group.torsion),
        "radius": args["radius"],
        "candidates": None if candidates is None
        else [tuple(e.lattice) + tuple(e.torsion) for e in candidates],
        "support": [tuple(e.lattice) + tuple(e.torsion) for e in result.witness.support],
    }


def _sizes(args, result):
    return {"sizes": list(result.sizes)}


def _degree(args, result):
    return {"degree": result.degree}


def _bytes(args, result):
    return {"bytes": len(result)}


# (module, function, attributes taken from the bound arguments and result)
TARGETS = (
    ("dualent.simplex", "solve_lp", _lp_shape),
    ("dualent.folner", "min_rank_bruteforce", _search),
    ("dualent.folner", "defect", None),
    ("dualent.growth", "growth_series", _sizes),
    ("dualent.spectral", "eigen_entropy", None),
    ("dualent.spectral", "char_poly", _degree),
    ("dualent.spectral", "squarefree_decomposition", None),
    ("dualent.spectral", "complex_roots", None),
    ("dualent.crystal", "stabilizer_center", None),
    ("dualent.crystal", "center_quotient_matrix", None),
    ("dualent.specdoc", "parse_spec", None),
    ("dualent.specdoc", "parse_spec_data", None),
    ("dualent.specdoc", "emit_spec", None),
    ("dualent.reports", "emit_report", _bytes),
    ("dualent.cli", "main", None),
)


class Tracer:
    """Replaces each target in every dualent namespace that holds it, for
    the duration of a `with` block."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, original, name, attributes):
        signature = inspect.signature(original)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if attributes is not None:
                bound = signature.bind(*args, **kwargs).arguments
                spans[index][4] = attributes(bound, result)
            return result

        return traced

    def __enter__(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "dualent" or n.startswith("dualent."))
        ]
        for module_name, function, attributes in TARGETS:
            original = getattr(importlib.import_module(module_name), function)
            wrapper = self._wrap(original, f"{module_name.split('.')[-1]}.{function}", attributes)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        return False


def supports_enumerated(attrs: dict) -> int:
    """Supports the search generated up to and including its witness:
    every support of smaller size, then the witness's position among the
    supports of its size (0 plus a lex-ordered combination of the rest of
    the ball)."""
    pool = attrs["candidates"]
    if pool is None:
        pool = ball_keys(attrs["rank"], attrs["orders"], attrs["radius"])
    zero = (0,) * len(attrs["support"][0])
    rest = sorted(set(pool) - {zero})
    position = {e: i for i, e in enumerate(rest)}
    chosen = sorted(position[e] for e in attrs["support"] if e != zero)
    n, r = len(rest), len(chosen)
    count = sum(math.comb(n, m) for m in range(r))
    previous = -1
    for j, c in enumerate(chosen):
        count += sum(math.comb(n - 1 - v, r - 1 - j) for v in range(previous + 1, c))
        previous = c
    return count + 1


def layer_metrics(spans: list, untraced_wall: float, traced_wall: float) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    child_time = defaultdict(float)
    by_name = defaultdict(list)
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            child_time[parent] += end - start

    def outer(*names):
        total = 0.0
        for name in names:
            for i in by_name[name]:
                parent = spans[i][3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += spans[i][2] - spans[i][1]
        return total

    def self_time(name):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in by_name[name])

    def attrs(name):
        return [spans[i][4] for i in by_name[name] if spans[i][4] is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    lps = len(by_name["simplex.solve_lp"])
    lp_s = outer("simplex.solve_lp")
    shapes = attrs("simplex.solve_lp")
    search_s = outer("folner.min_rank_bruteforce")
    enumerated = sum(supports_enumerated(a) for a in attrs("folner.min_rank_bruteforce"))
    series = [a["sizes"] for a in attrs("growth.growth_series")]
    elements = sum(sum(s) for s in series)
    additions = sum(s[0] * x for s in series for x in s[:-1])
    new = sum(sum(s[1:]) for s in series)
    series_s = outer("growth.growth_series")

    return {
        "simplex.lp_s": (lp_s, "s"),
        "simplex.lps": (lps, "count"),
        "simplex.lp_ms_mean": (1000 * ratio(lp_s, lps), "ms"),
        "simplex.lp_rows_mean": (ratio(sum(a["rows"] for a in shapes), lps), "count"),
        "simplex.lp_cols_mean": (ratio(sum(a["cols"] for a in shapes), lps), "count"),
        "simplex.lps_per_support": (ratio(lps, enumerated), "ratio"),
        "folner.search_self_s": (self_time("folner.min_rank_bruteforce"), "s"),
        "folner.defect_s": (outer("folner.defect"), "s"),
        "folner.supports_enumerated": (enumerated, "count"),
        "folner.supports_per_s": (ratio(enumerated, search_s), "1/s"),
        "growth.series_s": (series_s, "s"),
        "growth.elements": (elements, "count"),
        "growth.additions": (additions, "count"),
        "growth.distinct_ratio": (ratio(new, additions), "ratio"),
        "growth.elements_per_s": (ratio(elements, series_s), "1/s"),
        "spectral.char_poly_s": (outer("spectral.char_poly"), "s"),
        "spectral.squarefree_s": (outer("spectral.squarefree_decomposition"), "s"),
        "spectral.roots_s": (self_time("spectral.complex_roots"), "s"),
        "spectral.calls": (len(by_name["spectral.eigen_entropy"]), "count"),
        "spectral.degree_sum": (sum(a["degree"] for a in attrs("spectral.char_poly")), "count"),
        "crystal.center_s": (outer("crystal.stabilizer_center"), "s"),
        "crystal.reduce_s": (outer("crystal.center_quotient_matrix"), "s"),
        "specdoc.parse_s": (outer("specdoc.parse_spec", "specdoc.parse_spec_data"), "s"),
        "specdoc.emit_s": (outer("specdoc.emit_spec"), "s"),
        "reports.emit_s": (outer("reports.emit_report"), "s"),
        "reports.bytes": (sum(a["bytes"] for a in attrs("reports.emit_report")), "count"),
        "cli.main_s": (outer("cli.main"), "s"),
        "trace.overhead": (ratio(traced_wall, untraced_wall), "ratio"),
    }
