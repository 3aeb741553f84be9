"""Exact q-expansions of the three eta-quotient components and their checks.

Series are truncated Laurent series in fractional powers of q with exact
rational coefficients.  Internally exponents live on the (1/48)Z grid (the
half-argument eta function forces denominator 48); the three assembled
components are validated to have exponents in (1/2)Z, which is the external
serialization contract.  The translation equations are checked exactly on
coefficients; the inversion equations are checked numerically through the
eta products, which is the only place a tolerance appears.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import f2geom, weil
from .f2geom import VectorType

QQ = Fraction


class QSeries:
    """Truncated series sum c_r q^r with rational exponents and coefficients.

    Coefficients are complete for every exponent below ``trunc``; arithmetic
    tracks the truncation of results.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: dict, trunc):
        trunc = QQ(trunc)
        clean = {QQ(e): QQ(c) for e, c in coeffs.items() if c != 0 and QQ(e) < trunc}
        self.coeffs = dict(sorted(clean.items()))
        self.trunc = trunc

    @classmethod
    def zero(cls, trunc) -> "QSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc) -> "QSeries":
        return cls({QQ(0): QQ(1)}, trunc)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QSeries) and self.coeffs == other.coeffs
                and self.trunc == other.trunc)

    def __repr__(self):
        head = ", ".join("%s q^%s" % (c, e) for e, c in list(self.coeffs.items())[:4])
        return "QSeries(%s ... ; trunc=%s)" % (head, self.trunc)

    def __getitem__(self, exponent) -> Fraction:
        e = QQ(exponent)
        if e >= self.trunc:
            raise KeyError("exponent %s beyond truncation %s" % (e, self.trunc))
        return self.coeffs.get(e, QQ(0))

    def valuation(self):
        """Smallest exponent with nonzero coefficient (trunc if none)."""
        return next(iter(self.coeffs), self.trunc)

    def __add__(self, other: "QSeries") -> "QSeries":
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, QQ(0)) + c
        return QSeries(out, trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "QSeries":
        f = QQ(factor)
        return QSeries({e: f * c for e, c in self.coeffs.items()}, self.trunc)

    def shift(self, delta) -> "QSeries":
        d = QQ(delta)
        return QSeries({e + d: c for e, c in self.coeffs.items()}, self.trunc + d)

    def __mul__(self, other: "QSeries") -> "QSeries":
        trunc = min(self.trunc + other.valuation(), other.trunc + self.valuation())
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < trunc:
                    out[e] = out.get(e, QQ(0)) + c1 * c2
        return QSeries(out, trunc)

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = QSeries.one(self.trunc - n * min(self.valuation(), QQ(0)))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "QSeries":
        """Inverse series; the leading term must be nonzero."""
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert the zero series")
        v = self.valuation()
        c0 = self.coeffs[v]
        # self = c0 q^v (1 + u) with val(u) > 0; invert the unit part
        unit_trunc = self.trunc - v
        u = QSeries({e - v: c / c0 for e, c in self.coeffs.items() if e != v}, unit_trunc)
        geom = QSeries.one(unit_trunc)
        term = QSeries.one(unit_trunc)
        if u.coeffs:
            step = u.valuation()
            rounds = int((unit_trunc / step).__ceil__()) + 1
            for _ in range(rounds):
                term = term * u.scale(-1)
                if not term.coeffs:
                    break
                geom = geom + term
        return geom.scale(1 / c0).shift(-v)

    def integer_exponent_part(self) -> "QSeries":
        return QSeries({e: c for e, c in self.coeffs.items() if e.denominator == 1},
                       self.trunc)

    def exponent_denominators(self) -> set[int]:
        return {e.denominator for e in self.coeffs}

    def evaluate(self, tau: complex) -> complex:
        """Sum c_r e^{2 pi i tau r}; fractional powers are taken through tau."""
        return sum(
            complex(c) * cmath.exp(2j * cmath.pi * tau * float(e))
            for e, c in self.coeffs.items()
        )


# ---------------------------------------------------------------------------
# eta series


def eta_unit(scale, order) -> QSeries:
    """Euler product prod_{n>=1} (1 - q^{scale*n}) via pentagonal numbers."""
    scale = QQ(scale)
    order = QQ(order)
    if order <= 0:
        raise ValueError("order must be positive")
    coeffs = {QQ(0): QQ(1)}
    k = 1
    while True:
        added = False
        sign = QQ(-1 if k % 2 else 1)
        for kk in (k, -k):
            e = scale * QQ(kk * (3 * kk - 1), 2)
            if e < order:
                coeffs[e] = coeffs.get(e, QQ(0)) + sign
                added = True
        if not added:
            break
        k += 1
    return QSeries(coeffs, order)


def eta_series(scale, order) -> QSeries:
    """q^{scale/24} * prod (1 - q^{scale*n}), truncated below ``order``."""
    scale = QQ(scale)
    if scale not in (QQ(1, 2), QQ(1), QQ(2)):
        raise ValueError("supported argument scalings are 1/2, 1, 2")
    order = QQ(order)
    if order <= 0:
        raise ValueError("order must be positive")
    return eta_unit(scale, order - scale / 24).shift(scale / 24)


@dataclass(frozen=True)
class HComponents:
    h00: QSeries
    h0: QSeries
    h1: QSeries

    def by_type(self) -> dict[VectorType, QSeries]:
        return {VectorType.ZERO: self.h00, VectorType.ISOTROPIC: self.h0,
                VectorType.ANISOTROPIC: self.h1}


@lru_cache(maxsize=None)
def h_components(order=20) -> HComponents:
    """The three component series, exact to every exponent below ``order``.

    h00 = 56 A and h0 = -8 A with A the weight-minus-4 quotient of the
    doubled-argument eta power by the 16th power of eta; h1 = 8 A + B where B
    is the half-argument analogue.  The eta prefactors q^{scale/24} cancel to
    exponent 0 in A and to -1/2 in B, so h00 and h0 live on the integer grid
    and h1 on the half-integer grid.
    """
    order = QQ(order)
    if order < 3:
        raise ValueError("order must be at least 3")
    margin = order + 1
    unit1_16 = eta_unit(1, margin) ** 16
    a = (eta_unit(2, margin) ** 8) * unit1_16.inverse()
    b = ((eta_unit(QQ(1, 2), margin) ** 8) * unit1_16.inverse()).shift(QQ(-1, 2))
    h00 = a.scale(56)
    h0 = a.scale(-8)
    h1 = a.scale(8) + b
    comps = HComponents(
        h00=QSeries(h00.coeffs, order),
        h0=QSeries(h0.coeffs, order),
        h1=QSeries({e: c for e, c in h1.coeffs.items()}, order),
    )
    for series in (comps.h00, comps.h0, comps.h1):
        if not all(d in (1, 2) for d in series.exponent_denominators()):
            raise ArithmeticError("assembled component leaves the (1/2)Z grid")
    return comps


def verify_T_equations(order=20) -> dict:
    """Exact coefficient-level check of the translation behaviour.

    h00 and h0 must have integer exponents only (so they are fixed by
    tau -> tau+1) and every integer-exponent coefficient of h1 must vanish
    (so h1 is negated).
    """
    comps = h_components(order)
    report = {
        "h00_integer_exponents": comps.h00.exponent_denominators() <= {1},
        "h0_integer_exponents": comps.h0.exponent_denominators() <= {1},
        "h00_plus_7_h0_is_zero": not (comps.h00 + comps.h0.scale(7)).coeffs,
        "first_offending_exponent": None,
    }
    stray = comps.h1.integer_exponent_part().coeffs
    report["h1_half_integer_exponents"] = not stray
    if stray:
        report["first_offending_exponent"] = str(next(iter(stray)))
    report["ok"] = all(v for k, v in report.items() if k != "first_offending_exponent")
    return report


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


def verify_S_equations_numeric(samples=DEFAULT_SAMPLES, tolerance=1e-9, order=20) -> dict:
    """Residuals of the three inversion equations at the sample points.

    Each component at -1/tau is compared against tau^{-4}/8 times the stated
    mixing of the components at tau.  Also cross-checks the eta product
    against the exact series evaluation when Im(tau) >= 1.
    """
    residuals = {}
    series_vs_product = 0.0
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
            residuals["tau=%s,component=%d" % (tau, i)] = abs(there[i] - mixed)
        if tau.imag >= 1:
            for series, value in zip((comps.h00, comps.h0, comps.h1), here):
                series_vs_product = max(series_vs_product,
                                        abs(series.evaluate(tau) - value))
    worst = max(residuals.values())
    return {
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        "max_residual": float(worst),
        "series_vs_product": float(series_vs_product),
        "tolerance": float(tolerance),
        "ok": worst < float(tolerance) and series_vs_product < float(tolerance),
    }


# ---------------------------------------------------------------------------
# exact reduction of the 64-component form to the three types


def assemble_form(order=20) -> dict[VectorType, QSeries]:
    """The 64-component form collapsed to its three distinct components."""
    return h_components(order).by_type()


def expand_form(components: dict[VectorType, QSeries]) -> tuple[QSeries, ...]:
    """All 64 components; the entry at a vector is the series of its type."""
    return tuple(components[f2geom.classify(x)] for x in f2geom.SPACE)


def type_indicator(kind: VectorType) -> list[int]:
    return [1 if f2geom.classify(x) is kind else 0 for x in f2geom.SPACE]


def assemble_and_reduce() -> dict:
    """Exact check that the matrices respect type-constant vectors.

    Applying the inversion matrix to each type indicator must give a
    type-constant vector; the resulting 3x3 mixing matrix and the diagonal
    translation signs are returned exactly.
    """
    order = (VectorType.ZERO, VectorType.ISOTROPIC, VectorType.ANISOTROPIC)
    types = [f2geom.classify(x) for x in f2geom.SPACE]
    s = weil.rho_S()
    t = weil.rho_T()
    mixing = []
    constant = True
    for col_kind in order:
        image = s.apply(type_indicator(col_kind))
        seen = {}
        for x, val in enumerate(image):
            seen.setdefault(types[x], set()).add(val)
        if any(len(vals) != 1 for vals in seen.values()):
            constant = False
            break
        mixing.append([next(iter(seen[row_kind])) for row_kind in order])
    mixing_matrix = [list(col) for col in zip(*mixing)] if constant else None
    t_signs = []
    for kind in order:
        image = t.apply(type_indicator(kind))
        vals = {image[x] for x in f2geom.SPACE if types[x] is kind}
        t_signs.append(next(iter(vals)) if len(vals) == 1 else None)
    expected = [[Fraction(m, 8) for m in row] for row in S_MIX_ROWS]
    return {
        "type_constant": constant,
        "mixing_matrix": mixing_matrix,
        "mixing_matches": mixing_matrix == expected,
        "t_signs": t_signs,
        "t_signs_match": t_signs == [Fraction(1), Fraction(1), Fraction(-1)],
    }


def mixing_rows_from_pair_census() -> tuple[tuple[int, int, int], ...]:
    """Recover the integer mixing rows as m0 - m1 from the pairing census."""
    order = (VectorType.ZERO, VectorType.ISOTROPIC, VectorType.ANISOTROPIC)
    reps = {VectorType.ZERO: 0, VectorType.ISOTROPIC: f2geom.E1,
            VectorType.ANISOTROPIC: f2geom.ALPHA1}
    rows = []
    for kind in order:
        counts = f2geom.pair_census(reps[kind])
        rows.append(tuple(counts[(k2, 0)] - counts[(k2, 1)] for k2 in order))
    return tuple(rows)


# ---------------------------------------------------------------------------
# weight and divisor bookkeeping for the product lift


def borcherds_bookkeeping(order=20) -> dict:
    """Arithmetic cross-checks on the lift's weight and vanishing orders."""
    comps = h_components(order)
    constant_term = comps.h00[0]
    weight = constant_term / 2
    n_singular = len(f2geom.enumerate_singular_subspaces())
    n_aniso = f2geom.census()[VectorType.ANISOTROPIC]
    product_weight = 4 * n_singular
    vanishing = Fraction(product_weight, n_aniso)
    quartic_count = vanishing * n_aniso
    return {
        "h00_constant_term": constant_term,
        "weight": weight,
        "weight_is_28": weight == 28,
        "product_weight": product_weight,
        "vanishing_order": vanishing,
        "vanishing_is_15": vanishing == 15,
        "quartic_count": quartic_count,
        "quartic_count_is_420": quartic_count == 420,
        "factorization_ok": int(quartic_count) == 2**2 * 3 * 5 * 7,
    }


# ---------------------------------------------------------------------------
# serialization: the golden-file contract


def serialize_series(series: QSeries) -> dict:
    """JSON document with (doubled exponent, coefficient string) pairs."""
    if not all(d in (1, 2) for d in series.exponent_denominators()):
        raise ValueError("only series on the (1/2)Z grid are serializable")
    pairs = [[int(e * 2), "%d/%d" % (c.numerator, c.denominator)]
             for e, c in series.coeffs.items()]
    return {"half_exponent_pairs": pairs, "truncation_order": str(series.trunc)}


def deserialize_series(doc: dict) -> QSeries:
    coeffs = {QQ(n2, 2): QQ(cs) for n2, cs in doc["half_exponent_pairs"]}
    return QSeries(coeffs, QQ(doc["truncation_order"]))
