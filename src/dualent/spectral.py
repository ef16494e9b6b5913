"""Spectral route to entropy: exact characteristic polynomials, simultaneous
complex root finding, and the log product of eigenvalue moduli outside the
unit circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

from .groups import IntMatrix, _as_int

# Computed eigenvalue moduli this close to 1 are snapped to exactly 1; integer
# matrices cannot have eigenvalues genuinely this near the unit circle without
# being on it (small degrees; the gap for degree <= 12 is far larger).
UNIT_CIRCLE_SNAP = 1e-10

DEFAULT_ROOT_TOL = 1e-12

_ABERTH_MAX_ITERATIONS = 2000


class RootFindingError(ArithmeticError):
    """The simultaneous iteration failed to meet the residual contract."""


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial with coefficients stored leading-first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(_as_int(c) for c in self.coeffs)
        if not cs or cs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = 0
        for c in self.coeffs:
            out = out * x + c
        return out

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))


@dataclass(frozen=True)
class EntropyEstimate:
    """A computed entropy value with the route that produced it."""

    value: float
    method: str
    diagnostics: dict = field(compare=False)
    tolerance: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError("entropy must be finite and nonnegative")


def char_poly(matrix: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(t*I - M) by the Faddeev-LeVerrier
    recurrence; all arithmetic is exact integer arithmetic."""
    n = matrix.dim
    coeffs = [1]
    aux = None
    mk = None
    for k in range(1, n + 1):
        mk = matrix if aux is None else matrix * aux
        ck, rem = divmod(-mk.trace(), k)
        if rem:
            raise ArithmeticError("trace recurrence produced a non-integer coefficient")
        coeffs.append(ck)
        aux = mk.plus_diagonal(ck)
    return IntPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# Square-free decomposition (exact, over Z: primitive pseudo-remainder gcds,
# no rationals). Polynomials are integer coefficient lists, leading first.


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, leading coefficient positive; leading zeros
    are dropped and the zero polynomial comes back as []."""
    p = p[next((i for i, c in enumerate(p) if c), len(p)):]
    if not p:
        return []
    g = math.gcd(*p)
    if p[0] < 0:
        g = -g
    return [c // g for c in p]


def _derivative(p: list[int]) -> list[int]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lc(b)^k * a on division by b for some k >= 0, possibly
    with leading zeros; a itself when deg a < deg b."""
    lead, tail = b[0], b[1:]
    r = a
    for _ in range(len(a) - len(b) + 1):
        q = r[0]
        if q:
            r = [lead * x - q * y for x, y in zip(r[1:], tail)] + [
                lead * x for x in r[len(b):]
            ]
        else:
            r = r[1:]
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient, by the primitive
    pseudo-remainder sequence (Brown 1971); either argument may be zero."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[x]; raises ArithmeticError unless b divides a exactly."""
    r, q = list(a), []
    for i in range(len(a) - len(b) + 1):
        c, rem = divmod(r[i], b[0])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q.append(c)
        if c:
            for j in range(1, len(b)):
                r[i + j] -= c * b[j]
    if any(r[len(q):]):
        raise ArithmeticError("inexact polynomial division")
    return q


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun's algorithm over Z: returns the primitive square-free factors f_i
    (positive leading coefficient, nonconstant) with their multiplicities i,
    in increasing i, so p = content * prod f_i^i up to sign. Every gcd is a
    primitive pseudo-remainder gcd and every division is exact in Z[x]."""
    if p.degree == 0:
        return []
    f = _primitive(list(p.coeffs))
    fp = _derivative(f)
    u = _gcd(f, fp)
    v, w = _exact_quotient(f, u), _exact_quotient(fp, u)
    out = []
    i = 1
    while len(v) > 1:
        # deg w = deg v - 1 throughout, so z has the length of v'; it is
        # zero exactly when every remaining factor has multiplicity i.
        z = [x - y for x, y in zip(w, _derivative(v))]
        h = _gcd(v, z)
        if len(h) > 1:
            out.append((IntPolynomial(tuple(h)), i))
        v, w = _exact_quotient(v, h), _exact_quotient(z, h)
        i += 1
    return out


# ---------------------------------------------------------------------------
# Root finding


def _aberth_simple_roots(coeffs: Sequence[int]) -> list[complex]:
    """All roots of a square-free polynomial by Aberth-Ehrlich simultaneous
    iteration in double precision."""
    n = len(coeffs) - 1
    if n == 0:
        return []
    cs = [complex(c) for c in coeffs]
    dcs = [c * (n - i) for i, c in enumerate(cs[:-1])]
    lead = abs(cs[0])
    radius = 1.0 + max(abs(c) / lead for c in cs[1:])

    roots = [
        radius * cmath.exp(2j * math.pi * (k / n) + 0.4j)
        for k in range(n)
    ]

    def horner(poly, x):
        out = 0j
        for c in poly:
            out = out * x + c
        return out

    for _ in range(_ABERTH_MAX_ITERATIONS):
        converged = True
        new_roots = roots[:]
        for i, x in enumerate(roots):
            px = horner(cs, x)
            dpx = horner(dcs, x)
            if px == 0:
                continue
            if dpx == 0:
                new_roots[i] = x * (1 + 1e-8) + 1e-8
                converged = False
                continue
            w = px / dpx
            s = 0j
            for j, y in enumerate(roots):
                if j != i:
                    diff = x - y
                    if diff == 0:
                        diff = 1e-12
                    s += 1 / diff
            denom = 1 - w * s
            if denom == 0:
                correction = w
            else:
                correction = w / denom
            new_roots[i] = x - correction
            if abs(correction) > 1e-14 * (1 + abs(x)):
                converged = False
        roots = new_roots
        if converged:
            break
    else:
        raise RootFindingError(
            f"Aberth iteration did not converge within {_ABERTH_MAX_ITERATIONS} steps"
        )
    return roots


def _residual_ok(p: IntPolynomial, r: complex, tol: float) -> bool:
    scale = 0.0
    mod = abs(r)
    for c in p.coeffs:
        scale = scale * mod + abs(c)
    return abs(p(r)) <= tol * max(scale, 1.0)


def complex_roots(p: IntPolynomial, tol: float = DEFAULT_ROOT_TOL) -> list[complex]:
    """All complex roots of p, repeated with multiplicity.

    Multiple roots are handled by exact square-free decomposition first, so
    the iteration only ever sees simple roots.  Each returned root r satisfies
    |p(r)| <= tol * sum_i |c_i| |r|^i; a failure to reach that residual raises
    RootFindingError rather than returning silently degraded values.
    """
    roots: list[complex] = []
    for factor, mult in squarefree_decomposition(p):
        for r in _aberth_simple_roots(factor.coeffs):
            if not _residual_ok(factor, r, max(tol, 1e-11)):
                raise RootFindingError(
                    f"root {r!r} fails the residual contract for {factor.coeffs}"
                )
            roots.extend([r] * mult)
    return roots


def eigen_entropy(
    matrix: IntMatrix,
    tol: float = DEFAULT_ROOT_TOL,
    endomorphism: bool = False,
) -> EntropyEstimate:
    """Entropy of the automorphism of Z^n given by an integer matrix: the sum
    of log|lambda| over eigenvalues outside the closed unit disc, equivalently
    the log Mahler measure of the characteristic polynomial.

    With endomorphism=True any nonsingular integer matrix is accepted
    (injective endomorphism); otherwise the matrix must be unimodular.
    """
    d = matrix.det()
    if endomorphism:
        if d == 0:
            raise ValueError("matrix is singular; no injective endomorphism")
    elif d not in (1, -1):
        raise ValueError(
            f"determinant is {d}; an automorphism of Z^n must be unimodular "
            "(pass endomorphism=True for injective endomorphisms)"
        )
    poly = char_poly(matrix)
    roots = complex_roots(poly, tol)
    total = 0.0
    moduli = []
    for r in roots:
        m = abs(r)
        if abs(m - 1.0) <= UNIT_CIRCLE_SNAP:
            m = 1.0
        moduli.append(m)
        if m > 1.0:
            total += math.log(m)
    moduli.sort()
    return EntropyEstimate(
        value=total,
        method="spectral",
        diagnostics={
            "char_poly": list(poly.coeffs),
            "root_moduli": moduli,
            "determinant": d,
        },
        tolerance=tol,
    )
