import json
from fractions import Fraction as QQ
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from octet import qseries
from octet.qseries import QSeries

GOLDEN = Path(__file__).parent / "golden" / "hseries_order8.json"


class FractionSeries:
    """Reference: the former dict-of-Fraction series (exponent -> coefficient,
    complete below trunc), kept to cross-check the dense integer series."""

    def __init__(self, coeffs: dict, trunc):
        trunc = QQ(trunc)
        clean = {QQ(e): QQ(c) for e, c in coeffs.items() if c != 0 and QQ(e) < trunc}
        self.coeffs = dict(sorted(clean.items()))
        self.trunc = trunc

    @classmethod
    def of(cls, series: QSeries) -> "FractionSeries":
        return cls(dict(series.terms()), series.trunc)

    def __eq__(self, other) -> bool:
        return self.coeffs == other.coeffs and self.trunc == other.trunc

    def valuation(self):
        return next(iter(self.coeffs), self.trunc)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, QQ(0)) + c
        return FractionSeries(out, min(self.trunc, other.trunc))

    def __mul__(self, other):
        trunc = min(self.trunc + other.valuation(), other.trunc + self.valuation())
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                if e1 + e2 < trunc:
                    out[e1 + e2] = out.get(e1 + e2, QQ(0)) + c1 * c2
        return FractionSeries(out, trunc)

    def inverse(self):
        v = self.valuation()
        c0 = self.coeffs[v]
        # self = c0 q^v (1 + u) with val(u) > 0; sum the geometric series in -u
        unit_trunc = self.trunc - v
        u = FractionSeries({e - v: -c / c0 for e, c in self.coeffs.items() if e != v},
                           unit_trunc)
        geom = term = FractionSeries({0: 1}, unit_trunc)
        rounds = int((unit_trunc / u.valuation()).__ceil__()) + 1 if u.coeffs else 0
        for _ in range(rounds):
            term = term * u
            geom = geom + term
        return FractionSeries({e - v: c / c0 for e, c in geom.coeffs.items()},
                              self.trunc - 2 * v)


def small_series(entries, trunc=10):
    """sum c q^(e/2) over the entries (e, c), complete below q^trunc."""
    end = 2 * trunc
    coeffs = {e: c for e, c in entries if e < end}
    low = min(coeffs, default=end)
    return QSeries(low, [coeffs.get(e, 0) for e in range(low, end)])


series_strategy = st.builds(
    small_series,
    st.dictionaries(st.integers(-4, 12), st.integers(-9, 9), max_size=6).map(dict.items),
    st.integers(1, 10),
)

unit_strategy = st.builds(
    lambda entries, low, c0: small_series([(0, c0)] + [(e, c) for e, c in entries if e > 0])
    .shift(low),
    st.dictionaries(st.integers(1, 12), st.integers(-9, 9), max_size=5).map(dict.items),
    st.integers(-4, 4),
    st.sampled_from((1, -1)),
)


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy)
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_multiplication_associates(f, g, h):
    lhs = (f * g) * h
    rhs = f * (g * h)
    assert lhs.trunc == rhs.trunc
    assert lhs.terms() == rhs.terms()


@settings(max_examples=40, deadline=None)
@given(unit_strategy)
def test_inverse_cancels(f):
    prod = f * f.inverse()
    assert prod.terms() == [(0, 1)]


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, unit_strategy)
def test_arithmetic_matches_fraction_reference(f, g, u):
    ref = FractionSeries.of
    assert ref(f + g) == ref(f) + ref(g)
    assert ref(f * g) == ref(f) * ref(g)
    assert ref(u.inverse()) == ref(u).inverse()
    assert ref(u ** 3) == ref(u) * ref(u) * ref(u)


def test_inverse_needs_a_unit_leading_coefficient():
    with pytest.raises(ArithmeticError):
        small_series([(0, 2), (1, 1)]).inverse()
    with pytest.raises(ZeroDivisionError):
        small_series([]).inverse()


def test_coefficient_lookup():
    f = small_series([(-1, 3), (2, -5)], trunc=2)
    assert (f.low, f.coeffs, f.trunc) == (-1, [3, 0, 0, -5, 0], 2)
    assert f[QQ(-1, 2)] == 3 and f[1] == -5 and f[QQ(3, 2)] == 0
    assert f[-3] == 0 and f[QQ(1, 3)] == 0
    with pytest.raises(KeyError):
        f[2]
    assert small_series([(0, 1)], trunc=2).scale(0) == small_series([], trunc=2)
    # a summand that starts beyond the other's truncation contributes nothing
    assert small_series([(6, 8)], trunc=6) + small_series([(0, -5)], trunc=2) == \
        small_series([(0, -5)], trunc=2)


def test_eta_series_head():
    eta = oracles.eta_unit(1, 10)
    assert eta[0] == 1
    assert eta[1] == -1
    assert eta[2] == -1
    assert eta[5] == 1  # pentagonal exponent 5
    assert eta[7] == 1  # pentagonal exponent 7
    assert eta[3] == 0  # exponent 3 is not pentagonal
    assert eta[QQ(1, 2)] == 0 and eta.trunc == 10


def test_eta_scaling():
    eta2 = oracles.eta_unit(2, 5)
    assert eta2.low == 0
    assert [eta2[n] for n in range(5)] == [1, 0, -1, 0, -1]
    eta_half = oracles.eta_unit(QQ(1, 2), 5)
    assert [eta_half[QQ(n, 2)] for n in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]
    with pytest.raises(ValueError):
        oracles.eta_unit(1, 0)
    with pytest.raises(ValueError):
        oracles.eta_unit(1, -3)
    with pytest.raises(ValueError):
        oracles.eta_unit(QQ(1, 3), 5)


@pytest.mark.parametrize("order", [3, 4, 5, 8, 20, 60, 61, 120, 300])
def test_h_components_equal_the_products_of_euler_products(order):
    assert qseries.h_components(order) == oracles.h_components_by_products(order)


def test_the_recurrence_on_eta_is_the_pentagonal_series():
    # Euler: eta(tau) without its prefactor q^(1/24), and its inverse, whose
    # coefficients are the partition numbers
    for n in (0, 1, 2, 7, 40, 121):
        assert qseries.euler_power(1, n) == tuple(oracles.eta_unit(1, n + 1).coeffs[::2][:n])
    assert qseries.euler_power(-1, 11) == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    # the single factor eta(tau)^24 of the table {1: 24}, prefactor q^1
    assert qseries.eta_quotient({1: 24}, 12) == QSeries(2, (oracles.eta_unit(1, 12) ** 24).coeffs[:22])


@pytest.mark.parametrize("exponents", [
    {2: 24}, {QQ(1, 2): 48}, {1: -24, 2: 24}, {QQ(1, 2): 12, QQ(3, 2): 4},
    {1: 8, QQ(3, 2): 8, 2: -4}, {QQ(5, 2): 24}, {3: -8, QQ(1, 2): 48, 1: -12}])
def test_eta_quotients_are_the_products_of_their_eta_powers(exponents):
    # the prefactor sum r_d d/24 is a multiple of 1/2 for every table here
    shift = QQ(sum(2 * d * r for d, r in exponents.items()), 24)
    assert shift.denominator == 1
    for order in (3, 12, 31):
        product = QSeries(0, [1] + [0] * (2 * order + 40))
        for d, r in exponents.items():
            product = product * oracles.eta_unit(d, order + 20) ** r
        expected = product.shift(int(shift))
        assert qseries.eta_quotient(exponents, order) == QSeries(
            expected.low, expected.coeffs[:2 * order - expected.low])


def test_eta_quotients_shift_by_their_prefactor():
    a, b = (qseries.eta_quotient(qseries.ETA_EXPONENTS[name], 20) for name in "AB")
    assert (a.low, a.trunc, b.low, b.trunc) == (0, 20, -1, 20)


def test_euler_power_divides_exactly():
    assert qseries.euler_power(QQ(1, 2), 1) == (1,)
    with pytest.raises(ArithmeticError):  # prod (1 - u^m)^(1/2) has u^1 coefficient -1/2
        qseries.euler_power(QQ(1, 2), 5)


def test_h_component_heads():
    comps = qseries.h_components(20)
    assert [comps.h00[n] for n in range(3)] == [56, 896, 8064]
    assert [comps.h0[n] for n in range(3)] == [-8, -128, -1152]
    assert [comps.h1[QQ(n, 2)] for n in (-1, 1, 3)] == [1, 36, 402]


def test_translation_equations_exact():
    report = qseries.verify_T_equations(20)
    assert report["ok"]
    assert report["first_offending_exponent"] is None  # h1 has half-integer exponents only
    comps = qseries.h_components(20)
    assert not (comps.h00 + comps.h0.scale(7)).coeffs


def test_inversion_equations_numeric():
    report = qseries.verify_S_equations_numeric(order=20)
    assert set(report) == {"max_residual", "series_vs_product"}
    assert report["max_residual"] < 1e-9
    assert report["series_vs_product"] < 1e-9


def test_numeric_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        qseries.verify_S_equations_numeric(samples=(1 - 1j,))
    with pytest.raises(ValueError):
        qseries.eta_numeric(1, -2j)


def test_mixing_matrix_and_signs():
    red = qseries.assemble_and_reduce()
    assert red["mixing_matrix"] == [[QQ(m, 8) for m in row] for row in qseries.S_MIX_ROWS]
    assert red["t_signs"] == [1, 1, -1]


def test_census_rows():
    assert qseries.mixing_rows_from_pair_census() == ((1, 35, 28), (1, 3, -4), (1, -5, 4))


def test_bookkeeping():
    book = qseries.borcherds_bookkeeping()
    assert book["weight"] == 28 and isinstance(book["weight"], QQ)
    assert book["vanishing_order"] == 15
    assert book["quartic_count"] == 420
    assert book["factorization_ok"]


def test_serialization_roundtrip_and_rejection():
    comps = qseries.h_components(6)
    for series in (comps.h00, comps.h1):
        assert qseries.deserialize_series(qseries.serialize_series(series)) == series
    non_integral = {"half_exponent_pairs": [[0, "1/1"], [3, "1/2"]], "truncation_order": "2"}
    with pytest.raises(ValueError):
        qseries.deserialize_series(non_integral)


def test_golden_h_series():
    doc = json.loads(GOLDEN.read_text())
    comps = qseries.h_components(8)
    assert qseries.serialize_series(comps.h00) == doc["h00"]
    assert qseries.serialize_series(comps.h0) == doc["h0"]
    assert qseries.serialize_series(comps.h1) == doc["h1"]
