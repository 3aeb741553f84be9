"""Exact q-expansions of the three eta-quotient components and their checks.

A series is a truncated Laurent series in q^(1/2) with integer coefficients,
stored densely: ``QSeries(low, coeffs)`` holds the coefficient of
q^((low+i)/2) at ``coeffs[i]``, and its length fixes the truncation.  Every
coefficient of the three components is an integer on this half grid, which
is also the serialization contract.  They are built from the two eta
quotients of the exponent table ``ETA_EXPONENTS`` (``eta_quotient``): each
eta power is expanded by an exact integer recurrence (``euler_power``), the
powers are multiplied as series, and the eta prefactors become a shift on
the half grid.  The translation equations are checked exactly on
coefficients; the inversion equations are measured numerically through the
eta products, whose float residuals are the only inexact values (``checks``
judges them against its tolerance).  Only the three functions that read the
64 vectors import ``f2geom``, where they run, so that ``compute hseries``
never loads it; they take the types in the order of ``f2geom.VectorType``,
that of h00, h0, h1.  ``assemble_and_reduce`` also reads the sign tables t
and H of ``weil``, imported there too, and keeps its values Fractions.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

QQ = Fraction


class QSeries:
    """Truncated series sum_i coeffs[i] q^((low+i)/2) with integer coefficients.

    Coefficients are complete for every exponent below the truncation
    ``trunc = (low + len(coeffs))/2``; arithmetic tracks the truncation of
    results.  Leading zeros are stripped on construction, so ``low`` is twice
    the lowest exponent with a nonzero coefficient, the zero series has no
    coefficients, and equal series have equal fields.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs):
        coeffs = list(coeffs)
        start = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
        self.low = low + start
        self.coeffs = coeffs[start:]

    @property
    def trunc(self) -> Fraction:
        return QQ(self.low + len(self.coeffs), 2)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QSeries) and self.low == other.low
                and self.coeffs == other.coeffs)

    def __repr__(self):
        head = ", ".join("%d q^%s" % (c, e) for e, c in self.terms()[:4])
        return "QSeries(%s ... ; trunc=%s)" % (head, self.trunc)

    def terms(self) -> list[tuple[Fraction, int]]:
        """The nonzero terms as (exponent, coefficient), ascending."""
        return [(QQ(self.low + i, 2), c) for i, c in enumerate(self.coeffs) if c]

    def __getitem__(self, exponent) -> int:
        e = QQ(exponent)
        if e >= self.trunc:
            raise KeyError("exponent %s beyond truncation %s" % (e, self.trunc))
        i = 2 * e - self.low
        return self.coeffs[int(i)] if i.denominator == 1 and i >= 0 else 0

    def __add__(self, other: "QSeries") -> "QSeries":
        low = min(self.low, other.low)
        end = min(self.low + len(self.coeffs), other.low + len(other.coeffs))
        out = [0] * (end - low)
        for series in (self, other):
            for i, c in enumerate(series.coeffs[:max(end - series.low, 0)], series.low - low):
                out[i] += c
        return QSeries(low, out)

    def scale(self, factor: int) -> "QSeries":
        f = operator.index(factor)
        return QSeries(self.low, [f * c for c in self.coeffs])

    def shift(self, steps: int) -> "QSeries":
        """Multiply by q^(steps/2)."""
        return QSeries(self.low + operator.index(steps), self.coeffs)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # the product is known as far as the shorter factor beyond its lowest exponent
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        out = [sum(map(operator.mul, a[:k + 1], b[k::-1])) for k in range(n)]
        return QSeries(self.low + other.low, out)

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = QSeries(0, [1] + [0] * (len(self.coeffs) - 1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "QSeries":
        """Inverse series by the integer recurrence b_k = -c0 sum_{i=1..k} a_i b_{k-i};
        the leading coefficient c0 must be +1 or -1."""
        a = self.coeffs
        if not a:
            raise ZeroDivisionError("cannot invert the zero series")
        c0 = a[0]
        if c0 not in (1, -1):
            raise ArithmeticError("leading coefficient %d is not a unit" % c0)
        b = [c0]
        for k in range(1, len(a)):
            b.append(-c0 * sum(map(operator.mul, a[1:k + 1], b[::-1])))
        return QSeries(-self.low, b)

    def evaluate(self, tau: complex) -> complex:
        """Sum c_r e^{2 pi i tau r}; fractional powers are taken through tau."""
        return sum(complex(c) * cmath.exp(2j * cmath.pi * tau * float(e))
                   for e, c in self.terms())


# ---------------------------------------------------------------------------
# eta quotients

# {scale d: exponent r_d} of A = eta(2 tau)^8 / eta(tau)^16 and B = eta(tau/2)^8 / eta(tau)^16
ETA_EXPONENTS = {"A": {2: 8, 1: -16}, "B": {QQ(1, 2): 8, 1: -16}}


@lru_cache(maxsize=None)
def euler_power(r, n) -> tuple[int, ...]:
    """The first n coefficients of prod_{m>=1} (1 - u^m)^r, from the logarithmic
    derivative: f_0 = 1, k f_k = -r sum_{j=1..k} sigma(j) f_{k-j}.  The division
    is exact for an integer r; a remainder raises ArithmeticError."""
    sigma = [0] * n
    for d in range(1, n):
        for j in range(d, n, d):
            sigma[j] += d
    f = [1]
    for k in range(1, n):
        fk, rem = divmod(-r * sum(map(operator.mul, sigma[1:k + 1], f[::-1])), k)
        if rem:
            raise ArithmeticError("u^%d of the Euler product is not an integer" % k)
        f.append(fk)
    return tuple(f[:n])


def eta_quotient(exponents, order) -> QSeries:
    """prod_d eta(d tau)^(r_d) for ``exponents`` {d: r_d}, d in (1/2)N, exact below
    ``order``: the ``euler_power``s r_d in q^d, steps s = 2d on the half grid,
    multiplied from the least step up, each further one into every residue
    class mod its s (``QSeries.__mul__``), then shifted by the prefactor
    q^(sum r_d d/24), which must lie on the half grid (0 for A, -1/2 for B)."""
    steps = {int(2 * d): r for d, r in exponents.items()}
    shift = sum(r * s for s, r in steps.items()) // 24
    end = 2 * order - shift  # the terms below the truncation
    # every power has end // s + 1 terms, so that A and B share eta(tau)^-16
    (s, r), *rest = sorted(steps.items())
    coeffs = [0] * (s * (end // s + 1))
    coeffs[::s] = euler_power(r, end // s + 1)
    del coeffs[end:]
    for s, r in rest:
        factor = QSeries(0, euler_power(r, end // s + 1))
        for i in range(s):
            part = QSeries(0, coeffs[i::s]) * factor
            coeffs[i::s] = [0] * part.low + part.coeffs
    return QSeries(0, coeffs).shift(shift)


class HComponents(NamedTuple):
    h00: QSeries
    h0: QSeries
    h1: QSeries


@lru_cache(maxsize=None)
def h_components(order=20) -> HComponents:
    """The three component series, exact to every exponent below ``order``:
    h00 = 56 A, h0 = -8 A and h1 = 8 A + B for the ``eta_quotient``s A, in q
    from q^0, and B, in q^(1/2) from q^(-1/2), of ``ETA_EXPONENTS``.  So
    h00 and h0 live on the integer grid and h1 on the half-integer grid."""
    if order < 3:
        raise ValueError("order must be at least 3")
    a, b = (eta_quotient(ETA_EXPONENTS[name], order) for name in "AB")
    return HComponents(a.scale(56), a.scale(-8), a.scale(8) + b)


def component_heads(order=20) -> dict[str, list[str]]:
    """The first three coefficients of each component, as strings."""
    comps = h_components(order)
    return {"h00": [str(comps.h00[n]) for n in range(3)],
            "h0": [str(comps.h0[n]) for n in range(3)],
            "h1": [str(comps.h1[QQ(n, 2)]) for n in (-1, 1, 3)]}


def verify_T_equations(order=20) -> dict:
    """Exact coefficient-level check of the translation behaviour.

    h00 and h0 must have integer exponents only (so they are fixed by
    tau -> tau+1) and every integer-exponent coefficient of h1 must vanish
    (so h1 is negated).
    """
    comps = h_components(order)
    stray = [e for e, _ in comps.h1.terms() if e.denominator == 1]
    integral = all(e.denominator == 1 for s in (comps.h00, comps.h0) for e, _ in s.terms())
    zero_sum = not (comps.h00 + comps.h0.scale(7)).coeffs
    return {"h00_plus_7_h0_is_zero": zero_sum,
            "first_offending_exponent": str(stray[0]) if stray else None,
            "ok": integral and zero_sum and not stray}


# ---------------------------------------------------------------------------
# numeric checks of the inversion equations

S_MIX_ROWS = ((1, 35, 28), (1, 3, -4), (1, -5, 4))
DEFAULT_SAMPLES = (1j, 2j, 0.5 + 1j)


def eta_numeric(scale, tau: complex) -> complex:
    """Dedekind eta at scale*tau by direct truncated product."""
    scale = float(scale)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    n_terms = max(60, int(60. / (scale * tau.imag)) + 1)
    value = cmath.exp(2j * cmath.pi * scale * tau / 24)
    for n in range(1, n_terms + 1):
        value *= 1 - cmath.exp(2j * cmath.pi * scale * n * tau)
    return value


def h_numeric(tau: complex) -> tuple[complex, complex, complex]:
    """The three components evaluated through the eta products."""
    e1 = eta_numeric(1, tau) ** 16
    a = eta_numeric(2, tau) ** 8 / e1
    bq = eta_numeric(0.5, tau) ** 8 / e1
    return 56 * a, -8 * a, 8 * a + bq


def verify_S_equations_numeric(samples=DEFAULT_SAMPLES, order=20) -> dict[str, float]:
    """The largest residual of the three inversion equations at the sample
    points, and of the eta products against the exact series.

    Each component at -1/tau is compared against tau^{-4}/8 times the stated
    mixing of the components at tau; the eta products are compared with the
    exact series evaluation when Im(tau) >= 1.  Whether both lie below a
    tolerance is for the caller to judge.
    """
    max_residual = series_vs_product = 0.0
    comps = h_components(order)
    for tau in samples:
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValueError("tau must have positive imaginary part")
        here = h_numeric(tau)
        there = h_numeric(-1 / tau)
        factor = tau ** -4 / 8
        for i, row in enumerate(S_MIX_ROWS):
            mixed = factor * sum(m * h for m, h in zip(row, here))
            max_residual = max(max_residual, abs(there[i] - mixed))
        if tau.imag >= 1:
            for series, value in zip((comps.h00, comps.h0, comps.h1), here):
                series_vs_product = max(series_vs_product,
                                        abs(series.evaluate(tau) - value))
    return {"max_residual": float(max_residual),
            "series_vs_product": float(series_vs_product)}


# ---------------------------------------------------------------------------
# exact reduction of the 64-component form to the three types


def assemble_and_reduce() -> dict:
    """Exact check that the Weil matrices respect type-constant vectors.

    rho_S = H/8 applied to each type indicator, the sum of the columns of H
    at that type over 8, must give a type-constant vector; the resulting 3x3
    mixing matrix (None if some image is not type-constant) and the diagonal
    translation signs t (None where not constant) are returned as Fractions.
    """
    from . import f2geom, weil
    types = [f2geom.classify(x) for x in f2geom.SPACE]
    mixing = []
    for col_kind in f2geom.VectorType:
        seen = {}
        for kind, row in zip(types, weil.b_signs()):
            image = Fraction(sum(x for x, k in zip(row, types) if k is col_kind), 8)
            seen.setdefault(kind, set()).add(image)
        if any(len(vals) != 1 for vals in seen.values()):
            mixing = None
            break
        mixing.append([next(iter(seen[row_kind])) for row_kind in f2geom.VectorType])
    t_signs = []
    for kind in f2geom.VectorType:
        vals = {Fraction(t) for t, k in zip(weil.q_signs(), types) if k is kind}
        t_signs.append(next(iter(vals)) if len(vals) == 1 else None)
    return {"mixing_matrix": None if mixing is None else [list(col) for col in zip(*mixing)],
            "t_signs": t_signs}


def mixing_rows_from_pair_census() -> tuple[tuple[int, int, int], ...]:
    """Recover the integer mixing rows as m0 - m1 from the pairing census."""
    from . import f2geom
    census = f2geom.pair_census_by_type()
    return tuple(tuple(census[k1][k2][0] - census[k1][k2][1] for k2 in f2geom.VectorType)
                 for k1 in f2geom.VectorType)


# ---------------------------------------------------------------------------
# weight and divisor bookkeeping for the product lift


def borcherds_bookkeeping(order=20) -> dict:
    """Arithmetic cross-checks on the lift's weight and vanishing orders."""
    from . import f2geom
    weight = QQ(h_components(order).h00[0], 2)
    n_aniso = f2geom.census()[f2geom.VectorType.ANISOTROPIC]
    # the product has weight 4 per singular subspace
    vanishing = QQ(4 * len(f2geom.enumerate_singular_subspaces()), n_aniso)
    quartic_count = vanishing * n_aniso
    return {"weight": weight, "vanishing_order": vanishing, "quartic_count": quartic_count,
            "factorization_ok": int(quartic_count) == 2**2 * 3 * 5 * 7}


# ---------------------------------------------------------------------------
# serialization: the golden-file contract


def serialize_series(series: QSeries) -> dict:
    """JSON document with (doubled exponent, coefficient string) pairs."""
    pairs = [[series.low + i, "%d/1" % c] for i, c in enumerate(series.coeffs) if c]
    return {"half_exponent_pairs": pairs, "truncation_order": str(series.trunc)}


def serialization_roundtrip(order=20) -> bool:
    """Each component survives serialization and deserialization unchanged."""
    return all(deserialize_series(serialize_series(series)) == series
               for series in h_components(order))


def deserialize_series(doc: dict) -> QSeries:
    """The series of a ``serialize_series`` document; coefficients must be integers."""
    end = int(2 * QQ(doc["truncation_order"]))
    coeffs = {n2: QQ(cs) for n2, cs in doc["half_exponent_pairs"]}
    if any(c.denominator != 1 for c in coeffs.values()):
        raise ValueError("a series coefficient is not an integer")
    low = min(coeffs, default=end)
    return QSeries(low, [int(coeffs.get(n2, 0)) for n2 in range(low, end)])
