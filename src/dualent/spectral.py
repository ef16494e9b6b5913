"""Spectral route to entropy: exact characteristic polynomials, simultaneous
complex root finding, and the log product of eigenvalue moduli outside the
unit circle.

The characteristic polynomial comes from a Hessenberg reduction modulo one
Mersenne prime p = 2^k - 1, chosen above twice a Hadamard bound on the
coefficients, so the symmetric residues mod p are the integer coefficients:
O(n^3) operations mod p, no floats and no rationals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

from .groups import IntMatrix, _as_int

# Computed eigenvalue moduli this close to 1 are snapped to exactly 1. This is
# a heuristic: char_poly takes any degree, and no gap between the unit circle
# and the other roots of integer polynomials is proved here for every degree.
# Deciding zero entropy exactly (cyclotomic factors) is ROADMAP item 4.
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


# Exponents k of the Mersenne primes 2^k - 1 (OEIS A000043) from 61 on.
# char_poly works modulo the first of them above twice its coefficient bound;
# the primes themselves are built only when needed.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
    9689, 9941, 11213, 19937, 21701, 23209, 44497,
)


def _coefficient_bound(rows: Sequence[Sequence[int]]) -> int:
    """B = prod_i (2 + isqrt(sum_j a_ij^2)), a bound on every coefficient of
    det(t*I - M). The coefficient of t^(n-k) is a signed sum of principal
    k-minors; by Hadamard each is at most the product of its rows' norms
    r_i, so the sum is at most e_k(r_1..r_n) <= prod (1 + r_i) <= B."""
    bound = 1
    for row in rows:
        bound *= 2 + math.isqrt(sum(a * a for a in row))
    return bound


def _hessenberg_mod(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """An upper Hessenberg matrix similar to `rows` over Z/p, p prime: each
    row operation below the subdiagonal is paired with the inverse column
    operation (Cohen, GTM 138, Alg. 2.2.9)."""
    n = len(rows)
    h = [[a % p for a in row] for row in rows]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, p)
        pivot_row = h[m]
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if not u:
                continue
            # row_i -= u * row_m, then col_m += u * col_i
            h[i] = [(a - u * b) % p for a, b in zip(h[i], pivot_row)]
            for row in h:
                row[m] = (row[m] + u * row[i]) % p
    return h


def _hessenberg_char_poly_mod(h: list[list[int]], p: int) -> list[int]:
    """det(t*I - H) mod p for upper Hessenberg H, lowest coefficient first.
    P_m, the polynomial of the leading m x m block, comes from expanding
    along its last column (indices from 1): P_m = (t - h_mm) P_(m-1) minus,
    for each i < m, h_im times the subdiagonal product h_(i+1,i)...h_(m,m-1)
    times P_(i-1)."""
    polys = [[1]]
    for m in range(len(h)):
        prev = polys[m]
        diag = h[m][m]
        nxt = [0] + prev
        for k, c in enumerate(prev):
            nxt[k] -= diag * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            c = sub * h[i][m] % p
            if c:
                for k, q in enumerate(polys[i]):
                    nxt[k] -= c * q
        polys.append([c % p for c in nxt])
    return polys[-1]


def char_poly(matrix: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(t*I - M), exact over Z.

    The matrix is reduced to Hessenberg form modulo one Mersenne prime
    p > 2B, B the Hadamard-type bound of _coefficient_bound, and each
    coefficient is its symmetric residue mod p; O(n^3) operations mod p.
    ArithmeticError when no listed prime exceeds 2B."""
    rows = matrix.entries
    bound = _coefficient_bound(rows)
    for k in _MERSENNE_EXPONENTS:
        p = (1 << k) - 1
        if p > 2 * bound:
            break
    else:
        raise ArithmeticError(
            f"coefficient bound B of {bound.bit_length()} bits: no listed "
            f"Mersenne prime up to 2^{_MERSENNE_EXPONENTS[-1]} - 1 exceeds 2B"
        )
    coeffs = _hessenberg_char_poly_mod(_hessenberg_mod(rows, p), p)
    half = p // 2
    return IntPolynomial(tuple(c - p if c > half else c for c in reversed(coeffs)))


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


def _reciprocal_sums(xs: Sequence[complex]) -> list[complex]:
    """For each i, the sum over j != i of 1/(x_i - x_j), added in increasing
    j from 0j, with 1/1e-12 for a coincident pair (x_i - x_j == 0).

    Each difference and its reciprocal is computed once per pair i < j. The
    term 1/(x_i - x_j) goes to root i's row; root j gets it through col[j],
    which sums the terms 1/(x_i - x_j) = -1/(x_j - x_i) over i < j, so root
    j starts from 0j - col[j] and then adds its own row. That is the same
    float sum bit for bit: CPython's complex subtraction and division are
    sign-symmetric, negating every term of a left-to-right sum negates each
    partial sum, and an accumulator that starts at +0 never holds -0. A
    coincident pair gives +1/1e-12 to both roots, so col subtracts it."""
    n = len(xs)
    col = [0j] * n
    out = []
    for i, x in enumerate(xs):
        s = 0j - col[i]
        for j in range(i + 1, n):
            d = x - xs[j]
            if d:
                r = 1 / d
                col[j] += r
            else:
                r = 1 / 1e-12
                col[j] -= r
            s += r
        out.append(s)
    return out


def _aberth_simple_roots(coeffs: Sequence[int]) -> list[complex]:
    """All roots of a square-free polynomial by Aberth-Ehrlich simultaneous
    iteration in double precision. Each sweep corrects every root from the
    previous sweep's roots; plain float and complex arithmetic only, so the
    bits do not depend on numpy or on how builtin sum() rounds."""
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
    # p(x) and p'(x) by Horner in one loop, each started at its leading
    # coefficient (0j * x + c is c exactly).
    first, dfirst = cs[0], dcs[0]
    middle = list(zip(cs[1:-1], dcs[1:]))
    last = cs[-1]

    for _ in range(_ABERTH_MAX_ITERATIONS):
        converged = True
        new_roots = roots[:]
        sums = _reciprocal_sums(roots)
        for i, x in enumerate(roots):
            px, dpx = first, dfirst
            for c, dc in middle:
                px = px * x + c
                dpx = dpx * x + dc
            px = px * x + last
            if px == 0:
                continue
            if dpx == 0:
                new_roots[i] = x * (1 + 1e-8) + 1e-8
                converged = False
                continue
            w = px / dpx
            denom = 1 - w * sums[i]
            if denom == 0:
                correction = w
            else:
                correction = w / denom
            new_roots[i] = x - correction
            if converged and abs(correction) > 1e-14 * (1 + abs(x)):
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
    the iteration only ever sees simple roots.  The residual is checked on
    each square-free factor f, not on p: each root r returned for f satisfies
    |f(r)| <= t * sum_i |f_i| |r|^i with t = max(tol, 1e-11), so a tol below
    1e-11 does not tighten it. A failure to reach that residual raises
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


def eigen_entropy(matrix: IntMatrix, tol: float = DEFAULT_ROOT_TOL) -> EntropyEstimate:
    """Entropy of the automorphism of Z^n given by a unimodular integer
    matrix: the sum of log|lambda| over eigenvalues outside the closed unit
    disc, equivalently the log Mahler measure of the characteristic
    polynomial. A matrix of any other determinant raises ValueError.
    """
    poly = char_poly(matrix)
    # det(t*I - M) at t = 0 is det(-M) = (-1)^n det M.
    d = -poly.coeffs[-1] if poly.degree % 2 else poly.coeffs[-1]
    if d not in (1, -1):
        raise ValueError(f"determinant is {d}; an automorphism of Z^n must be unimodular")
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
