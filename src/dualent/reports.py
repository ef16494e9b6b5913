"""Deterministic rendering of computation results as text, JSON, or CSV.

JSON output is byte-identical across runs for identical inputs: keys are
sorted, no timestamps or machine data are included, and floats go through
repr (shortest round-trip form).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .groups import AbelianElement, IntMatrix


def _is(obj, module: str, name: str) -> bool:
    """isinstance(obj, dualent.<module>.<name>) without importing the module:
    no object is an instance of a class whose module was never loaded."""
    home = sys.modules.get(f"{__package__}.{module}")
    return home is not None and isinstance(obj, getattr(home, name))


def jsonable(obj):
    """Plain-data view of any result object this package produces."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    # No result class below is a container, so plain data is matched first.
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(x) for x in items]
    if isinstance(obj, IntMatrix):
        return [list(row) for row in obj.entries]
    if isinstance(obj, AbelianElement):  # docs/format.md "Sets", as specdoc emits it
        return list(obj.lattice) + list(obj.torsion)
    if _is(obj, "crystal", "CrystalElement"):
        return [obj.label(), *obj.lattice]
    if _is(obj, "folner", "WeightedFunction"):
        return {
            "support": [jsonable(e) for e in obj.support],
            "weights": [jsonable(w) for w in obj.weights],
            "exact": True,  # weights are always exact rationals
        }
    if _is(obj, "spectral", "EntropyEstimate"):
        return {
            "type": "entropy",
            "value": obj.value,
            "method": obj.method,
            "tolerance": obj.tolerance,
            "diagnostics": jsonable(obj.diagnostics),
        }
    if _is(obj, "growth", "GrowthSeries"):
        return {
            "type": "growth_series",
            "sizes": list(obj.sizes),
            "capped": obj.capped,
            "zero_adjoined": True,  # growth_series always adjoins 0 to the base
            "log_over_n": [jsonable(x) for x in obj.log_over_n()],
        }
    if _is(obj, "folner", "RankCertificate"):
        return {
            "type": "rank_certificate",
            "rank": obj.rank,
            "delta": obj.delta,
            "defect": obj.defect,
            "defect_exact": jsonable(obj.defect_exact),
            "exact": obj.exact,
            "omega": [jsonable(e) for e in obj.omega],
            "search_radius": obj.search_radius,
            "exhaustive_within_radius": obj.exhaustive_within_radius,
            "witness": jsonable(obj.witness),
        }
    if _is(obj, "laws", "LawInstance"):
        return {
            "index": obj.index,
            "deviation": obj.deviation,
            "note": obj.note,
            "inputs": {key: jsonable(value) for key, value in obj.inputs},
        }
    if _is(obj, "laws", "LawReport"):
        return {
            "type": "law_report",
            "law": obj.law,
            "passed": obj.passed,
            "instances": obj.instances,
            "tolerance": obj.tolerance,
            "max_deviation": obj.max_deviation,
            "seed": obj.seed,
            "failures": [jsonable(f) for f in obj.failures],
            "inconclusive": [jsonable(f) for f in obj.inconclusive],
        }
    if _is(obj, "crystal", "ExtensionRankReport"):
        return {
            "type": "extension_rank_report",
            "lhs": obj.lhs,
            "rhs": obj.rhs,
            "holds": obj.holds,
            "quotient_rank": obj.quotient_rank,
            "kernel_rank": obj.kernel_rank,
            "delta": obj.delta,
        }
    raise TypeError(f"no serialization for {type(obj).__name__}")


def render_json(result) -> str:
    return json.dumps(jsonable(result), sort_keys=True, indent=2) + "\n"


def _csv_escape(value) -> str:
    text = str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(rows) -> str:
    return "\n".join(",".join(_csv_escape(cell) for cell in row) for row in rows) + "\n"


def _series_csv(sizes, log_over_n) -> str:
    rows = [(n, size, repr(lg)) for n, (size, lg) in enumerate(zip(sizes, log_over_n), 1)]
    return _csv_lines([("n", "size", "log_size_over_n"), *rows])


def render_csv(result) -> str:
    """CSV form. A growth series, and a peters estimate through the series in
    its diagnostics, becomes n,size,log_size_over_n rows; other results
    flatten to header-plus-row of their scalar fields."""
    if _is(result, "growth", "GrowthSeries"):
        return _series_csv(result.sizes, result.log_over_n())
    if _is(result, "spectral", "EntropyEstimate"):
        diag = result.diagnostics
        if result.method == "peters" and "sizes" in diag:
            return _series_csv(diag["sizes"], diag["log_over_n"])
        return _csv_lines([
            ("value", "method", "tolerance"),
            (repr(result.value), result.method, repr(result.tolerance)),
        ])
    if _is(result, "folner", "RankCertificate"):
        return _csv_lines([
            ("rank", "defect", "delta", "search_radius", "exhaustive"),
            (
                result.rank,
                repr(result.defect),
                repr(result.delta),
                result.search_radius,
                result.exhaustive_within_radius,
            ),
        ])
    if isinstance(result, (list, tuple)) and all(
        _is(r, "laws", "LawReport") for r in result
    ):
        rows = [(
            "law", "passed", "instances", "failures", "inconclusive",
            "max_deviation", "tolerance",
        )]
        for rep in result:
            rows.append((
                rep.law,
                rep.passed,
                rep.instances,
                len(rep.failures),
                len(rep.inconclusive),
                repr(rep.max_deviation),
                repr(rep.tolerance),
            ))
        return _csv_lines(rows)
    if _is(result, "laws", "LawReport"):
        return render_csv([result])
    raise TypeError(f"no CSV form for {type(result).__name__}")


def render_text(result) -> str:
    if _is(result, "spectral", "EntropyEstimate"):
        lines = [f"entropy {result.value:.10f}  (method: {result.method})"]
        diag = result.diagnostics
        if "root_moduli" in diag:
            moduli = ", ".join(f"{m:.6f}" for m in diag["root_moduli"])
            lines.append(f"  root moduli: {moduli}")
        if "note" in diag:
            lines.append(f"  note: {diag['note']}")
        if "sizes" in diag:
            lines.append(f"  sizes: {list(diag['sizes'])}")
            if diag.get("capped"):
                lines.append("  series hit the enumeration cap; estimate uses the computed prefix")
        return "\n".join(lines) + "\n"
    if _is(result, "growth", "GrowthSeries"):
        lines = [f"sizes: {list(result.sizes)}", f"capped: {result.capped}"]
        return "\n".join(lines) + "\n"
    if _is(result, "folner", "RankCertificate"):
        lines = [
            f"rank {result.rank}  (delta {result.delta:g}, radius {result.search_radius}, "
            f"exhaustive: {result.exhaustive_within_radius})",
            f"  witness defect: {result.defect_exact}",
        ]
        for e, w in zip(result.witness.support, result.witness.weights):
            lines.append(f"    {jsonable(e)}  {w}")
        return "\n".join(lines) + "\n"
    if _is(result, "laws", "LawReport"):
        return result.summary() + "\n"
    if isinstance(result, (list, tuple)) and all(
        _is(r, "laws", "LawReport") for r in result
    ):
        return "".join(render_text(r) for r in result)
    if _is(result, "crystal", "ExtensionRankReport"):
        return (
            f"extension bound: lhs {result.lhs} <= rhs {result.rhs} "
            f"({'holds' if result.holds else 'VIOLATED'}; quotient {result.quotient_rank}, "
            f"kernel {result.kernel_rank})\n"
        )
    return str(result) + "\n"


def emit_report(result, fmt: str) -> bytes:
    """Deterministic serialization in the requested format."""
    if fmt == "json":
        return render_json(result).encode("utf-8")
    if fmt == "csv":
        return render_csv(result).encode("utf-8")
    if fmt == "text":
        return render_text(result).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
