"""Command-line front end.

Subcommands: `entropy` (eigenvalue route), `peters` (sumset growth route),
`rank` (delta-rank search or constructive upper bounds), `verify` (law
suite). Exit codes: 0 success, 1 computation error, 2 spec/usage error,
3 verify found failures.

Start-up: importing this module loads only `dualent` and `dualent.cli`;
each route imports its modules inside the function that runs it. Every
subcommand loads `groups` (the parser's help reads DEFAULT_CAP), `specdoc`
and `reports`. On top of these `entropy` loads `crystal` and `spectral`;
`peters` loads `growth`, `spectral` and numpy; `rank` loads `folner` and
`simplex`; `verify` loads `laws`, `spectral`, `growth`, `folner` and
`simplex`. Parsing a crystal document loads `crystal` too.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .folner import RankCertificate
    from .specdoc import SpecDocument

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_SPEC = 2
EXIT_VERIFY_FAILED = 3


def _finite_float(text: str) -> float:
    """The argparse type of --delta and --tol: a float that is not NaN or
    infinite."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not abs(value) < float("inf"):  # NaN fails this comparison too
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """The argparse type of --tol: the check params.tol gets."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """The argparse type of --n, --radius, --cap and --trials: the check
    their params keys get."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from .groups import DEFAULT_CAP

    parser = argparse.ArgumentParser(
        prog="dualent",
        description="Dual entropy of group automorphisms: spectral and "
        "sumset-growth routes, delta-rank searches, and law verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
        p.add_argument("--out", metavar="PATH", help="write the report to a file")

    p_entropy = sub.add_parser(
        "entropy", help="spectral-route entropy of the document's automorphism"
    )
    p_entropy.add_argument("spec", help="path to a JSON experiment document")
    p_entropy.add_argument("--tol", type=_positive_float, help="root tolerance (default 1e-12)")
    common(p_entropy)

    p_peters = sub.add_parser(
        "peters", help="sumset-growth series and rate estimate"
    )
    p_peters.add_argument("spec", help="path to a JSON experiment document")
    p_peters.add_argument("--n", type=_nonnegative_int, help="series depth (default 12)")
    p_peters.add_argument(
        "--cap", type=_nonnegative_int, help=f"sumset size cap (default {DEFAULT_CAP})"
    )
    common(p_peters)

    p_rank = sub.add_parser(
        "rank", help="minimal support size with translation defect below delta"
    )
    p_rank.add_argument("spec", help="path to a JSON experiment document")
    p_rank.add_argument("--delta", type=_finite_float, help="defect tolerance")
    p_rank.add_argument("--radius", type=_nonnegative_int, help="search ball radius (default 8)")
    p_rank.add_argument(
        "--method",
        choices=("lp", "interval", "parallelepiped", "tower"),
        default="lp",
        help="lp = exact minimum; the rest construct upper-bound witnesses",
    )
    p_rank.add_argument("--cap", type=_nonnegative_int, help="support cap for --method tower")
    common(p_rank)

    p_verify = sub.add_parser("verify", help="run the law verification suite")
    p_verify.add_argument(
        "--suite",
        choices=(
            "all", "power", "conjugacy", "product", "quotient-rank",
            "subgroup-rank", "peters-vs-spectral", "sqrt-overlap",
        ),
        default="all",
    )
    p_verify.add_argument("--trials", type=_nonnegative_int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    common(p_verify)
    return parser


def _require(condition: bool, path: str, message: str):
    from .specdoc import SpecFormatError

    if not condition:
        raise SpecFormatError(path, message)


def _param(flag, spec_value, fallback):
    if flag is not None:
        return flag
    if spec_value is not None:
        return spec_value
    return fallback


def _run_entropy(doc: SpecDocument, args) -> object:
    from .crystal import crystal_entropy, fg_abelian_entropy
    from .spectral import DEFAULT_ROOT_TOL

    _require(doc.automorphism is not None, "auto", "entropy requires an automorphism block")
    tol = _param(args.tol, doc.params.tol, DEFAULT_ROOT_TOL)
    if doc.kind == "crystal":
        return crystal_entropy(doc.group, doc.automorphism, tol)
    return fg_abelian_entropy(doc.automorphism, tol)


def _run_peters(doc: SpecDocument, args) -> object:
    from .growth import DEFAULT_CAP, FiniteSubset, growth_rate_estimate, growth_series

    _require(doc.kind != "crystal", "group.kind", "peters runs on abelian documents")
    _require(doc.automorphism is not None, "auto", "peters requires an automorphism block")
    group = doc.group
    if doc.base is not None:
        base = FiniteSubset.of(group, doc.base)
    else:
        corners = [
            tuple(c) + (0,) * len(group.torsion)
            for c in itertools.product((0, 1), repeat=group.rank)
        ]
        base = FiniteSubset.of(group, corners)
    n_max = _param(args.n, doc.params.n, 12)
    cap = _param(args.cap, doc.params.cap, DEFAULT_CAP)
    series = growth_series(doc.automorphism, base, n_max, cap=cap)
    if args.format == "csv":
        return series
    return growth_rate_estimate(series)


def _first_upper_bound(witnesses, delta_frac, omega, exhausted: str) -> RankCertificate:
    """The first (radius, witness) pair whose defect is below delta, as a
    non-exhaustive certificate; RankSearchExhausted(exhausted) if none is."""
    from .folner import RankCertificate, RankSearchExhausted, defect

    for radius, witness in witnesses:
        d = defect(witness, omega)
        if d < delta_frac:
            return RankCertificate(
                rank=len(witness.support),
                witness=witness,
                defect=float(d),
                delta=float(delta_frac),
                omega=tuple(omega),
                search_radius=radius,
                exhaustive_within_radius=False,
                defect_exact=d,
            )
    raise RankSearchExhausted(exhausted)


def _box_defect(halfwidth: int, omega) -> Fraction:
    """defect of the uniform axis box [-h, h]^p in closed form: a shift s
    keeps prod max(0, 2h + 1 - |s_i|) of the (2h + 1)^p points on the box,
    and moves the rest off it and as many onto it."""
    size = 2 * halfwidth + 1
    return max(
        2 * (1 - math.prod(Fraction(max(0, size - abs(c)), size) for c in s.lattice))
        for s in omega
    )


def _rank_box(doc: SpecDocument, omega, delta_frac, method: str) -> RankCertificate:
    """The first uniform axis box [-h, h]^p, h from 0 (interval) or 1
    (parallelepiped), whose defect is below delta: `interval_folner(h)`, or
    `parallelepiped_folner` on the unit cube at half-width h."""
    from .folner import Parallelepiped, RankSearchExhausted, interval_folner, parallelepiped_folner
    from .groups import IntMatrix

    group = doc.group
    if method == "interval":
        _require(
            group.rank == 1 and not group.torsion,
            "group", "--method interval needs the rank-1 torsion-free group",
        )
        first, limit, name, build = 0, 200000, "interval", interval_folner
    else:
        _require(
            group.rank >= 1 and not group.torsion,
            "group", "--method parallelepiped needs a torsion-free lattice group",
        )
        first, limit, name = 1, 2000 if group.rank == 1 else 60, "axis box"
        unit = Parallelepiped(IntMatrix.identity(group.rank).entries)
        build = functools.partial(parallelepiped_folner, unit)
    exhausted = f"no {name} of halfwidth <= {limit} reaches the tolerance"

    def fits(h: int) -> bool:
        return _box_defect(h, omega) < delta_frac

    # Each factor of the closed form grows with the half-width, so the
    # defect does not: gallop to the first fitting power of two and bisect
    # below it, the first fitting half-width in O(log h) checks.
    low, high = first - 1, first  # low does not fit or is not tried; high is next
    while not fits(high):
        if high == limit:
            raise RankSearchExhausted(exhausted)
        low, high = high, min(2 * high or 1, limit)
    while high - low > 1:
        mid = (low + high) // 2
        if fits(mid):
            high = mid
        else:
            low = mid
    return _first_upper_bound([(high, build(high))], delta_frac, omega, exhausted)


def _rank_tower(doc: SpecDocument, omega, delta_frac, cap) -> RankCertificate:
    from .folner import WeightedFunction, _tower_depths
    from .groups import AbelianAutomorphism

    group = doc.group
    auto = doc.automorphism
    if auto is None:
        auto = AbelianAutomorphism.identity(group)
    seed_support = {group.zero()}
    for s in omega:
        seed_support.add(s)
        seed_support.add(-s)
    f = WeightedFunction.uniform(group, sorted(seed_support, key=lambda e: e.key()))
    return _first_upper_bound(
        enumerate(itertools.islice(_tower_depths(f, auto, cap), 60), 1),
        delta_frac, omega, "convolution tower did not reach the tolerance by depth 60",
    )


def _run_rank(doc: SpecDocument, args) -> object:
    from .folner import exact_delta, min_rank_bruteforce
    from .groups import DEFAULT_CAP

    _require(doc.kind != "crystal", "group.kind", "rank runs on abelian documents")
    _require(doc.omega is not None, "omega", "rank requires a shift set")
    delta = _param(args.delta, doc.params.delta, None)
    _require(delta is not None, "params.delta", "rank requires --delta or params.delta")
    delta_frac = exact_delta(delta)
    if delta_frac <= 0:
        # No witness has a negative defect, and the upper-bound loops would
        # only give up after their whole range.
        raise ValueError("delta must be positive")
    radius = _param(args.radius, doc.params.radius, 8)
    omega = list(doc.omega)
    if args.method == "lp":
        return min_rank_bruteforce(doc.group, omega, delta, radius)
    if args.method in ("interval", "parallelepiped"):
        return _rank_box(doc, omega, delta_frac, args.method)
    cap = _param(args.cap, doc.params.cap, DEFAULT_CAP)
    return _rank_tower(doc, omega, delta_frac, cap)


def _run_verify(args) -> tuple[object, int]:
    from . import laws

    trials = args.trials
    seed = args.seed
    if args.suite == "all":
        reports = laws.run_all_laws(trials, seed)
    else:
        runner = {
            "power": lambda: laws.check_power_law(trials, seed),
            "conjugacy": lambda: laws.check_conjugacy(trials, seed),
            "product": lambda: laws.check_product_bounds(trials, seed),
            "quotient-rank": laws.check_quotient_rank,
            "subgroup-rank": laws.check_subgroup_rank,
            "peters-vs-spectral": laws.check_peters_vs_spectral,
            "sqrt-overlap": lambda: laws.check_sqrt_overlap(trials, seed),
        }[args.suite]
        reports = [runner()]
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED
    return reports, code


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .reports import emit_report
    from .specdoc import SpecFormatError, parse_spec

    code = EXIT_OK
    try:
        if args.command == "verify":
            result, code = _run_verify(args)
        else:
            try:
                doc = parse_spec(args.spec)
            except OSError as exc:
                print(f"spec error: {exc}", file=sys.stderr)
                return EXIT_SPEC
            if args.command == "entropy":
                result = _run_entropy(doc, args)
            elif args.command == "peters":
                result = _run_peters(doc, args)
            else:
                result = _run_rank(doc, args)
    except SpecFormatError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION

    payload = emit_report(result, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_SPEC
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
