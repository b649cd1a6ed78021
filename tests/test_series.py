"""Series arithmetic and builders, checked against hand expansions and the
exhaustive partition-enumeration oracle."""

import time
from functools import cache
from itertools import accumulate
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qident.series as series_module
from qident.profiles import default_catalog
from qident.series import (
    ResidueClass,
    SumTerminationError,
    TruncatedSeries,
    _alpha_from_sum,
    _euler,
    _geometric,
    _glaisher_sum,
    _glaisher_tails,
    _numerator,
    _one_minus,
    _one_plus,
    _pochhammer_inverse_from,
    _product_side,
    _reciprocal,
    _times_dilated,
    alpha_closed_form,
    alpha_recurrence,
    euler_distinct_sum,
    product_side,
    series_one,
    sum_side_glaisher,
    sum_side_standard,
)
from qident.verify import _product_input

from oracles import (
    alpha_term,
    dilate,
    enumerate_partitions,
    enumerate_partitions_with_parts,
    geometric_inverse_factor,
    multiply,
    pochhammer_inverse,
    reciprocal,
    shift,
)

RR2 = ResidueClass(5, frozenset({2, 3}))
ODD = ResidueClass(2, frozenset({1}))


def poly(*coeffs: int) -> TruncatedSeries:
    return TruncatedSeries(tuple(coeffs))


def one_minus_factor(k: int, order: int) -> TruncatedSeries:
    """1 - q^k truncated at ``order``: just 1 when k >= order."""
    coeffs = [1] + [0] * (order - 1)
    if k < order:
        coeffs[k] = -1
    return TruncatedSeries(tuple(coeffs))


def kernel_applied(kernel, series: TruncatedSeries, k: int) -> TruncatedSeries:
    """``series`` with an in-place coefficient kernel applied to a copy."""
    c = series.to_list()
    kernel(c, k)
    return TruncatedSeries(tuple(c))


class TestBasics:
    def test_one(self):
        assert series_one(1).to_list() == [1]
        assert series_one(3).to_list() == [1, 0, 0]

    def test_one_is_identity_for_mul(self):
        s = poly(3, -1, 4, 1, -5)
        assert multiply(series_one(5), s) == s
        assert multiply(s, series_one(5)) == s

    def test_add_componentwise(self):
        assert (poly(1, 2) + poly(0, 3)).to_list() == [1, 5]

    def test_mul_telescopes_geometric(self):
        one_minus_q = poly(*([1, -1] + [0] * 8))
        geo = geometric_inverse_factor(1, 10)
        assert multiply(one_minus_q, geo) == series_one(10)

    def test_mul_direct_polynomial(self):
        a = poly(1, -1, 0, 0)  # 1 - q
        b = poly(1, 0, -1, 0)  # 1 - q^2
        assert multiply(a, b).to_list() == [1, -1, -1, 1]

    def test_mixed_order_truncates_to_minimum(self):
        a = poly(1, 1, 1, 1, 1)
        b = poly(1, 1)
        assert (a + b).order == 2
        assert multiply(a, b).order == 2

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())
        with pytest.raises(ValueError):
            series_one(0)

    def test_explicit_comparison_order_required(self):
        a = series_one(5)
        b = series_one(3)
        assert a.first_difference(b, 3) is None
        with pytest.raises(ValueError):
            a.first_difference(b, 4)
        with pytest.raises(ValueError):
            a.first_difference(b, 0)

    def test_first_difference_is_the_lowest_differing_exponent(self):
        a = poly(1, 2, 3, 4, 5)
        assert a.first_difference(poly(1, 2, 0, 4, 0), 5) == 2
        assert a.first_difference(poly(1, 2, 0, 4, 0), 2) is None
        assert a.first_difference(poly(1, 2, 3, 4, 0), 5) == 4
        assert a.first_difference(poly(0, 2, 3, 4, 5), 1) == 0


class TestRingLaws:
    A = poly(1, -2, 3, 0, 5, -1)
    B = poly(0, 1, 1, -4, 2, 2)
    C = poly(7, 0, -3, 1, -1, 6)

    def test_mul_associative(self):
        A, B, C = self.A, self.B, self.C
        assert multiply(multiply(A, B), C) == multiply(A, multiply(B, C))

    def test_mul_commutative(self):
        assert multiply(self.A, self.B) == multiply(self.B, self.A)

    def test_distributive(self):
        A, B, C = self.A, self.B, self.C
        assert multiply(A, B + C) == multiply(A, B) + multiply(A, C)

    def test_add_commutative_associative(self):
        assert self.A + self.B == self.B + self.A
        assert (self.A + self.B) + self.C == self.A + (self.B + self.C)


class TestFactors:
    def test_geometric_all_ones(self):
        assert geometric_inverse_factor(1, 4).to_list() == [1, 1, 1, 1]

    def test_geometric_spaced(self):
        assert geometric_inverse_factor(3, 7).to_list() == [1, 0, 0, 1, 0, 0, 1]

    def test_geometric_inverts_one_minus(self):
        for k in range(1, 12):
            restored = kernel_applied(_one_minus, geometric_inverse_factor(k, 40), k)
            assert restored == series_one(40)

    def test_bounded_parts_coefficient(self):
        prod = series_one(5)
        for k in (1, 2, 3):
            prod = multiply(prod, geometric_inverse_factor(k, 5))
        # oracle: partitions of 4 with parts <= 3
        assert prod.coefficient(4) == len(enumerate_partitions(4, max_part=3)) == 4

    def test_pochhammer_times_inverse_is_one(self):
        for n in range(1, 21):
            prod = series_one(50)
            for k in range(1, n + 1):
                prod = multiply(prod, one_minus_factor(k, 50))
            c = prod.to_list()
            _pochhammer_inverse_from(c, 0, n)
            assert TruncatedSeries(tuple(c)) == series_one(50)

    def test_factors_at_or_beyond_order_are_skipped(self):
        # one term q^0/(q)_n; the reference multiplies every factor in
        for n in range(15):
            term = sum_side_standard(lambda i: 0 if i == 0 else 10, lambda i: n, 10)
            assert term == pochhammer_inverse(n, 10)

    def test_huge_factor_count_is_bounded_by_order(self):
        started = time.perf_counter()
        term = sum_side_standard(lambda n: 0 if n == 0 else 10, lambda n: 10**7, 10)
        assert term == pochhammer_inverse(9, 10)
        assert time.perf_counter() - started < 1.0


class TestProductSide:
    def test_rr2_low_coefficients(self):
        assert product_side(RR2, 8).to_list() == [1, 0, 1, 1, 1, 1, 2, 2]

    def test_odd_parts_low_coefficients(self):
        assert product_side(ODD, 6).to_list() == [1, 1, 1, 2, 2, 3]

    def test_nonzero_residues_equal_glaisher_product(self):
        rc = ResidueClass.nonzero(4)
        assert rc.residues == frozenset({1, 2, 3})
        explicit = ResidueClass(4, frozenset({1, 2, 3}))
        assert product_side(rc, 30) == product_side(explicit, 30)

    @pytest.mark.parametrize(
        "rc",
        [
            RR2,
            ODD,
            ResidueClass(16, frozenset({1, 4, 6, 7, 9, 10, 12, 15})),
            ResidueClass(20, frozenset({2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18})),
        ],
    )
    def test_coefficients_match_enumeration_oracle(self, rc):
        series = product_side(rc, 31)
        for weight in range(31):
            assert series.coefficient(weight) == len(
                enumerate_partitions_with_parts(rc, weight)
            )

    def test_residue_validation(self):
        with pytest.raises(ValueError):
            ResidueClass(1, frozenset({0}))
        with pytest.raises(ValueError):
            ResidueClass(5, frozenset())
        with pytest.raises(ValueError):
            ResidueClass(5, frozenset({0, 2}))
        with pytest.raises(ValueError):
            ResidueClass(5, frozenset({5}))

    @pytest.mark.parametrize(
        "modulus, residues",
        [
            (5, frozenset({2.7, 3})),
            (5, frozenset({True, 3})),
            (5, frozenset({"2"})),
            (5.0, frozenset({2, 3})),
            (True, frozenset({1})),
        ],
        ids=["float-residue", "bool-residue", "str-residue", "float-modulus", "bool-modulus"],
    )
    def test_fields_must_be_ints_and_are_never_coerced(self, modulus, residues):
        with pytest.raises(ValueError, match="must be ints"):
            ResidueClass(modulus, residues)


# the shipped classes that are not the parts not divisible by some d
SHIPPED = sorted(
    {rc for e in default_catalog().entries() if (rc := e.product) and len(rc.residues) < rc.modulus - 1},
    key=ResidueClass.label,
)
# classes with dense numerators, each with the order from which it is built
# as the direct product: the first n at which its numerator has more nonzero
# terms at q^1..q^n than one plus the sizes up to n that the parts not
# divisible by d allow and the class does not, plus one.  With no term of
# slack they gave up from orders 3, 9, 8, 4, 3 and 3
DENSE = {
    ResidueClass(6, frozenset({1, 5})): 5,
    ResidueClass(8, frozenset({1, 4, 7})): 10,
    ResidueClass(7, frozenset({1, 6})): 9,
    ResidueClass(3, frozenset({1})): 8,
    ResidueClass(12, frozenset({1, 11})): 5,
    ResidueClass(12, frozenset({5, 7})): 7,
}
# a sparse numerator (32 nonzero terms below q^1000) whose terms at q^1 and
# q^4 come before the first size the give-up rule counts: with no slack it
# gave up from order 5
EARLY_TERMS = ResidueClass(12, frozenset({2, 3, 9, 10}))
NONZERO = [ResidueClass.nonzero(d) for d in range(2, 11)]


class TestEulerRoute:
    """The Euler product E = (1-q)(1-q^2)..., the all-parts series as 1/E, and
    the parts not divisible by d as the all-parts series times E(q^d)."""

    @pytest.mark.parametrize("order", (1, 2, 3, 50))
    def test_all_parts_is_the_full_pochhammer_inverse(self, order):
        assert _reciprocal(_euler(order)) == pochhammer_inverse(order - 1, order)

    def test_every_route_equals_the_direct_product_at_every_order(self):
        """d = 2..12 at every order 1..200: d >= n and n = 1 included.  A
        product side truncated lower is the prefix of the one at 200."""
        direct = {d: product_side(ResidueClass.nonzero(d), 200) for d in range(2, 13)}
        every = pochhammer_inverse(199, 200)
        for n in range(1, 201):
            euler = _euler(n)
            all_parts = _reciprocal(euler)
            assert all_parts.coefficients == every.coefficients[:n], n
            for d, expected in direct.items():
                built = _product_side(ResidueClass.nonzero(d), all_parts, euler)
                assert built.coefficients == expected.coefficients[:n], (d, n)

    def test_every_route_equals_the_direct_product_at_order_1000(self):
        euler = _euler(1000)
        all_parts = _reciprocal(euler)
        # every size below the order is allowed, so this is all parts
        assert all_parts == product_side(ResidueClass.nonzero(1000), 1000)
        for d in range(2, 13):
            rc = ResidueClass.nonzero(d)
            assert _product_side(rc, all_parts, euler) == product_side(rc, 1000)

    @pytest.mark.parametrize("order", (1, 2, 3, 4, 5, 30, 31, 61))
    def test_euler_product_is_the_product_of_its_factors(self, order):
        expected = series_one(order)
        for k in range(1, order):
            expected = multiply(expected, one_minus_factor(k, order))
        assert _euler(order) == expected

    @given(coefficients=st.lists(st.integers(-(10**6), 10**6), min_size=0, max_size=60))
    @example(coefficients=[])
    @example(coefficients=[0] * 30)
    def test_reciprocal_equals_long_division(self, coefficients):
        series = TruncatedSeries((1, *coefficients))
        assert _reciprocal(series) == reciprocal(series)

    def test_reciprocal_needs_a_constant_term_of_one(self):
        with pytest.raises(ValueError, match="constant term of 1"):
            _reciprocal(poly(2, 1, 0))

    @given(
        c=st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=80),
        b=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
        d=st.integers(1, 90),
    )
    def test_times_dilated_equals_multiplication(self, c, b, d):
        c_series, b_series = TruncatedSeries(tuple(c)), TruncatedSeries(tuple(b))
        expected = multiply(c_series, dilate(b_series, d, len(c)))
        assert _times_dilated(c, b, d) == expected.to_list()


def numerator_factors(rc: ResidueClass | None, order: int) -> list[int]:
    """The product of (1-q^k) over the sizes below ``order`` that ``rc``
    does not allow, every size for None, one factor at a time."""
    c = [1] + [0] * (order - 1)
    for k in range(1, order):
        if rc is None or not rc.allows(k):
            _one_minus(c, k)
    return c


def full_numerator(rc: ResidueClass | None, order: int) -> list[int] | None:
    """``_numerator`` for ``rc``, or for E, never giving up: every size
    counts as removed."""
    if rc is None:
        return _numerator(order, 1, (0,), (0,))
    m = rc.modulus
    return _numerator(order, m, {r for r in range(m) if not rc.allows(r)}, range(m))


@cache
def all_parts_reference(order: int) -> TruncatedSeries:
    """1/E by long division, E one factor (1-q^k) at a time."""
    return reciprocal(TruncatedSeries(tuple(numerator_factors(None, order))))


def reference_product(rc: ResidueClass, order: int) -> TruncatedSeries:
    """The product side of ``rc`` built in the tests alone: its numerator
    one factor (1-q^k) at a time, times 1/E term by term.  The route of a
    dense class is ``product_side`` itself, so this is what checks it."""
    numerator = TruncatedSeries(tuple(numerator_factors(rc, order)))
    return multiply(numerator, all_parts_reference(order))


def routed(rc: ResidueClass, order: int) -> TruncatedSeries:
    """The product side as a run builds it: the planned input's build, from
    the all-parts series and E, the two inputs every product side reads."""
    euler = _euler(order)
    return _product_input(rc, order).build(_reciprocal(euler), euler)


@pytest.fixture
def directs(monkeypatch):
    """The (class, order) of every product side that ``_product_side``
    builds as the direct product."""
    found = []
    direct = series_module.product_side

    def recording(rc, order):
        found.append((rc, order))
        return direct(rc, order)

    monkeypatch.setattr(series_module, "product_side", recording)
    return found


# the orders at which every class pinned below keeps its route
ROUTE_ORDERS = (*range(1, 41), 60, 1000)


class TestNumeratorRoute:
    """A class other than the parts not divisible by d is the all-parts
    series times its numerator, built from the numerator's logarithmic
    derivative, unless the numerator is dense; then it is the direct
    product."""

    def test_numerator_is_the_product_of_its_factors_at_every_order(self):
        """To 150 for E and the shipped classes; a dense numerator takes a
        pass per coefficient, so those are checked at every order to 60 and
        at 150."""
        for rc in (None, *SHIPPED, EARLY_TERMS, *DENSE):
            expected = numerator_factors(rc, 150)
            for order in (*range(1, 61 if rc in DENSE else 150), 150):
                assert full_numerator(rc, order) == expected[:order], (rc, order)

    def test_numerator_is_the_product_of_its_factors_at_order_1000(self):
        """E, the shipped classes and the sparse 2,3,9,10 mod 12; a run never
        builds a dense numerator this far."""
        for rc in (None, *SHIPPED, EARLY_TERMS):
            assert full_numerator(rc, 1000) == numerator_factors(rc, 1000), rc

    def test_route_equals_the_direct_product_at_every_order(self):
        """The dense classes and 2,3,9,10 mod 12 against the test-side
        reference, the others against ``product_side``; a product side
        truncated lower is the prefix of the one at 150."""
        checked = (EARLY_TERMS, *DENSE)
        expected = {rc: reference_product(rc, 150).coefficients for rc in checked}
        expected |= {rc: product_side(rc, 150).coefficients for rc in (*NONZERO, *SHIPPED)}
        for order in range(1, 151):
            euler = _euler(order)
            all_parts = _reciprocal(euler)
            for rc, coefficients in expected.items():
                built = _product_input(rc, order).build(all_parts, euler)
                assert built.coefficients == coefficients[:order], (rc, order)

    def test_route_equals_the_direct_product_at_order_1000(self):
        euler = _euler(1000)
        all_parts = _reciprocal(euler)
        for rc in (*NONZERO, *SHIPPED, EARLY_TERMS, *DENSE):
            built = _product_input(rc, 1000).build(all_parts, euler)
            checked = rc in (EARLY_TERMS, *DENSE)
            assert built == (reference_product if checked else product_side)(rc, 1000), rc

    @given(
        rc=st.integers(2, 24).flatmap(
            lambda m: st.sets(st.integers(1, m - 1), min_size=1).map(
                lambda residues: ResidueClass(m, frozenset(residues))
            )
        ),
        order=st.integers(1, 200),
    )
    @example(rc=ResidueClass(24, frozenset({1, 5, 7, 11, 13, 17, 19, 23})), order=200)
    @example(rc=ResidueClass(23, frozenset({1})), order=200)
    def test_any_class_equals_the_direct_product_by_either_route(self, rc, order):
        assert routed(rc, order) == product_side(rc, order)

    def test_shipped_classes_take_their_numerators_to_order_1000(self, directs):
        """Whether ``_numerator`` gives up at q^n depends on q^1..q^n alone,
        so a class built from its numerator at order 1000 is built so at
        every order below it."""
        assert len(SHIPPED) == 7
        for rc in SHIPPED:
            for order in ROUTE_ORDERS:
                routed(rc, order)
        assert directs == []

    def test_a_sparse_numerator_with_early_terms_is_never_given_up(self, directs):
        """2,3,9,10 mod 12 has nonzero terms at q^1 and q^4, before the
        first size the give-up rule counts; one term of slack carries it
        past them, and no later prefix gives up."""
        for order in ROUTE_ORDERS:
            routed(EARLY_TERMS, order)
        assert directs == []

    def test_nonzero_classes_take_e_of_q_d_at_every_order(self, monkeypatch):
        """The parts not divisible by d, d = 2..10, build no numerator and no
        direct product; E is built before the watch starts."""

        def must_not_run(*args):
            raise AssertionError("the parts not divisible by d left E(q^d)")

        for order in ROUTE_ORDERS:
            euler = _euler(order)
            all_parts = _reciprocal(euler)
            with monkeypatch.context() as patched:
                patched.setattr(series_module, "_numerator", must_not_run)
                patched.setattr(series_module, "product_side", must_not_run)
                for rc in NONZERO:
                    _product_input(rc, order).build(all_parts, euler)

    def test_dense_classes_give_up_before_q16(self, directs):
        for rc, start in DENSE.items():
            for order in range(1, 17):
                routed(rc, order)
            assert [o for c, o in directs if c == rc] == list(range(start, 17)), rc
        assert max(DENSE.values()) < 16

    def test_an_inexact_quotient_raises(self, monkeypatch):
        """A fault in the running sums shows as an error, not a wrong series:
        each pass lands one exponent late."""
        add_times = series_module._add_times
        monkeypatch.setattr(
            series_module, "_add_times", lambda out, c, e, x: add_times(out, c, e + 1, x)
        )
        with pytest.raises(ArithmeticError, match="inexact numerator coefficient"):
            _euler(30)


class TestSumSideStandard:
    def test_single_term_contribution(self):
        # the n=3 term q^15 / ((1-q)...(1-q^6)) contributes 3 at q^18
        term = sum_side_standard(lambda n: 15 if n == 0 else 19, lambda n: 6, 19)
        oracle = len(enumerate_partitions(3, max_part=6))
        assert term.coefficient(18) == oracle == 3

    def test_rr2_sum_equals_product(self):
        total = sum_side_standard(lambda n: n * n + n, lambda n: n, 8)
        assert total.to_list() == [1, 0, 1, 1, 1, 1, 2, 2]

    def test_empty_term_is_one(self):
        total = sum_side_standard(lambda n: 0 if n == 0 else 99, lambda n: 0, 8)
        assert total.to_list() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_decreasing_exponent_rejected(self):
        with pytest.raises(ValueError):
            sum_side_standard(lambda n: 5 - n, lambda n: n, 10)

    def test_nontermination_reported(self):
        with pytest.raises(SumTerminationError, match="more than 10000 terms"):
            sum_side_standard(lambda n: 0, lambda n: 1, 10)


class TestSumSideGlaisher:
    def test_modulus_two_is_odd_parts(self):
        assert sum_side_glaisher(2, 6).to_list() == [1, 1, 1, 2, 2, 3]

    def test_modulus_three_matches_enumeration(self):
        rc = ResidueClass.nonzero(3)
        series = sum_side_glaisher(3, 7)
        expected = [
            len(enumerate_partitions_with_parts(rc, weight)) for weight in range(7)
        ]
        assert series.to_list() == expected == [1, 1, 2, 2, 4, 5, 7]

    def test_first_term_is_truncated_geometric_block(self):
        # the n=1 term (q - q^M)/(1 - q) expands to q + q^2 + ... + q^{M-1}
        for modulus in (2, 3, 5):
            term = alpha_closed_form(modulus, 1, modulus + 2)
            assert term.to_list() == [0] + [1] * (modulus - 1) + [0, 0]

    @pytest.mark.parametrize("modulus", range(2, 8))
    def test_equals_product_side(self, modulus):
        assert sum_side_glaisher(modulus, 60) == product_side(
            ResidueClass.nonzero(modulus), 60
        )

    def test_euler_distinct_sum_matches(self):
        assert euler_distinct_sum(60) == product_side(ODD, 60)

    @pytest.mark.parametrize("modulus", range(2, 8))
    def test_order_and_modulus_checked(self, modulus):
        for order in (0, -1):
            with pytest.raises(ValueError):
                sum_side_glaisher(modulus, order)
        assert sum_side_glaisher(modulus, 1).to_list() == [1]
        with pytest.raises(ValueError):
            sum_side_glaisher(1, 10)

    def test_euler_distinct_sum_order_checked(self):
        for order in (0, -1):
            with pytest.raises(ValueError):
                euler_distinct_sum(order)
        assert euler_distinct_sum(1).to_list() == [1]


@cache
def closed_form_sum(modulus: int, order: int) -> tuple[int, ...]:
    """1 + alpha_1 + ... + alpha_{order-1}, the closed-form term polynomials
    summed with no nest."""
    total = series_one(order)
    for n in range(1, order):
        total = total + alpha_closed_form(modulus, n, order)
    return total.coefficients


def tail_start(modulus: int, order: int) -> int:
    """n0(M) = ceil((order + M)/(M + 1)), from which the nest has no
    numerator below its length."""
    return -(-(order + modulus) // (modulus + 1))


class TestGlaisherTails:
    """``sum_side_glaisher`` and the builder shared by several moduli, one
    nest of the numerator-free tail and the rest per modulus, against the sum
    of the closed-form terms; a term n >= order starts at q^n, so the sum at a
    lower order is a truncation of the sum at order 80."""

    @pytest.mark.parametrize(
        "moduli", [range(2, 8), (3,), (3, 7), range(2, 10)], ids=["2-7", "3", "3,7", "2-9"]
    )
    def test_sums_are_their_closed_form_terms_at_every_order(self, moduli):
        for order in range(1, 81):
            tails = _glaisher_tails(moduli, order)
            for modulus in moduli:
                expected = closed_form_sum(modulus, 80)[:order]
                assert sum_side_glaisher(modulus, order).coefficients == expected
                assert _glaisher_sum(modulus, order, tails).coefficients == expected

    @given(moduli=st.sets(st.integers(2, 9), min_size=1), order=st.integers(1, 80))
    # n0(M) = order - 1 for every M
    @example(moduli={3, 4, 5, 6, 7, 8, 9}, order=3)
    # (order - 1)//M < n0(M) for both: B is 0 wherever the nest has no
    # numerator, so the tail is A at n0(M)
    @example(moduli={3, 7}, order=6)
    @example(moduli={3}, order=15)
    def test_any_set_of_moduli_shares_one_tail(self, moduli, order):
        tails = _glaisher_tails(sorted(moduli), order)
        assert set(tails) == {m for m in moduli if m > 2}
        # each tail starts where its nest has no numerator
        assert all(order - len(v) >= tail_start(m, order) for m, v in tails.items())
        for modulus in moduli:
            expected = closed_form_sum(modulus, 80)[:order]
            assert _glaisher_sum(modulus, order, tails).coefficients == expected


class TestAlpha:
    def test_alpha_zero_is_one(self):
        assert alpha_closed_form(2, 0, 10) == series_one(10)

    def test_alpha_one_modulus_two_is_q(self):
        assert alpha_closed_form(2, 1, 5).to_list() == [0, 1, 0, 0, 0]

    def test_recurrence_first_term_is_geometric_block(self):
        first = alpha_recurrence(5, 1, [series_one(10)], 10)
        assert first.to_list() == [0, 1, 1, 1, 1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("modulus", range(2, 7))
    def test_recurrence_equals_closed_form(self, modulus):
        terms = [series_one(100)]
        for n in range(1, 26):
            recurred = alpha_recurrence(modulus, n, terms, 100)
            assert recurred == alpha_closed_form(modulus, n, 100), (modulus, n)
            terms.append(recurred)

    @pytest.mark.parametrize("modulus", (2, 3, 4))
    def test_one_plus_alpha_sum_is_glaisher_sum(self, modulus):
        order = 40
        total = series_one(order)
        for n in range(1, order):
            total = total + alpha_closed_form(modulus, n, order)
        assert total == sum_side_glaisher(modulus, order)

    @pytest.mark.parametrize("modulus", range(2, 8))
    def test_closed_form_equals_the_untrimmed_product(self, modulus):
        """The closed form is computed up to its degree (M-1)n(n+1)/2 and
        padded; below that order it is truncated like any series."""
        for n in range(13):
            degree = (modulus - 1) * n * (n + 1) // 2
            for order in (degree // 2 + 1, degree + 1, degree + 5):
                closed = alpha_closed_form(modulus, n, order)
                assert closed == alpha_term(modulus, n, order), (n, order)
                if order > degree:
                    assert closed.coefficient(degree) != 0

    @given(
        lower=st.lists(st.integers(-50, 50), max_size=12),
        modulus=st.integers(2, 7),
        n=st.integers(1, 6),
    )
    @example(lower=[], modulus=2, n=1)
    @example(lower=[1, 0, 0], modulus=7, n=6)
    def test_recurrence_is_computed_to_its_length(self, lower, modulus, n):
        """Listed to any length, trailing zeros and all, the lower sum gives
        the full product of the recurrence at every order below and above
        L + (M-1)n, on min(order, L + (M-1)n) coefficients."""
        top = max((i + 1 for i, x in enumerate(lower) if x), default=0)
        bound = top + (modulus - 1) * n
        for order in sorted({1, max(1, bound // 2), max(1, bound - 1), bound, bound + 7}):
            padded = (lower + [0] * order)[:order]
            block = [1 if e and e % n == 0 and e < modulus * n else 0 for e in range(order)]
            expected = multiply(TruncatedSeries(tuple(padded)), TruncatedSeries(tuple(block)))
            for given_sum in (padded, lower[:order]):
                term = _alpha_from_sum(modulus, n, given_sum, order)
                assert len(term) == min(order, bound)
                assert TruncatedSeries((*term, *(0,) * (order - len(term)))) == expected

    def test_recurrence_requires_all_lower_terms(self):
        with pytest.raises(ValueError):
            alpha_recurrence(3, 2, [series_one(10)], 10)


int_series = st.lists(st.integers(-(10**9), 10**9), min_size=3, max_size=80).map(
    lambda c: TruncatedSeries(tuple(c))
)


def exponent_range(regime: str, order: int) -> tuple[int, int]:
    """Factor exponents for which the 1/(1-q^k) kernel takes the running-sum
    branch (k*k <= order), the block branch, or none (k >= order)."""
    root = isqrt(order)
    return {
        "stride": (1, root),
        "block": (root + 1, order - 1),
        "beyond": (order, 2 * order),
    }[regime]


def naive_geometric(c: list[int], k: int) -> None:
    for i in range(k, len(c)):
        c[i] += c[i - k]


def naive_one_minus(c: list[int], k: int) -> None:
    for i in range(len(c) - 1, k - 1, -1):
        c[i] -= c[i - k]


def naive_glaisher_sum(modulus: int, order: int) -> list[int]:
    """1 + sum of (q^n - q^{nM}) (q^M)_{n-1}/(q)_n, every term built from 1
    one coefficient at a time."""
    total = [1] + [0] * (order - 1)
    for n in range(1, order):
        term = [1] + [0] * (order - 1)
        for j in range(1, n):
            naive_one_minus(term, j * modulus)
        for j in range(1, n + 1):
            naive_geometric(term, j)
        for i, c in enumerate(term):
            if i + n < order:
                total[i + n] += c
            if i + n * modulus < order:
                total[i + n * modulus] -= c
    return total


def naive_euler_sum(order: int) -> list[int]:
    """1 + sum of q^n (1+q)...(1+q^{n-1}), every term built from 1."""
    total = [1] + [0] * (order - 1)
    for n in range(1, order):
        term = [1] + [0] * (order - 1)
        for j in range(1, n):
            for i in range(order - 1, j - 1, -1):
                term[i] += term[i - j]
        for i in range(order - n):
            total[i + n] += term[i]
    return total


class TestKernels:
    @pytest.mark.parametrize("regime", ["stride", "block", "beyond"])
    @given(series=int_series, data=st.data())
    def test_kernels_equal_multiplication(self, regime, series, data):
        order = series.order
        k = data.draw(st.integers(*exponent_range(regime, order)), label="k")
        geometric = geometric_inverse_factor(k, order)
        assert kernel_applied(_geometric, series, k) == multiply(series, geometric)
        assert kernel_applied(_one_minus, series, k) == multiply(
            series, one_minus_factor(k, order)
        )
        one_plus = [1 if x else 0 for x in one_minus_factor(k, order).coefficients]
        assert kernel_applied(_one_plus, series, k) == multiply(
            series, TruncatedSeries(tuple(one_plus))
        )

    @given(
        order=st.integers(1, 40),
        start=st.integers(0, 3),
        steps=st.lists(st.integers(0, 6), min_size=1, max_size=25),
        slots=st.lists(st.integers(0, 15), min_size=1, max_size=25),
    )
    # slot counts that drop, twice to zero, with the scan starting at 2
    @example(order=30, start=2, steps=[0, 1, 0, 2, 3, 1, 4], slots=[5, 2, 7, 0, 9, 0, 3])
    @example(order=10, start=0, steps=[0], slots=[3])  # a single term
    # a first term with exponent and slot count above 0
    @example(order=25, start=1, steps=[2, 0, 3, 1], slots=[4, 6, 1])
    @example(order=20, start=0, steps=[0, 5, 14], slots=[3, 2, 7])  # a last term at q^19
    def test_sum_side_standard_is_the_sum_of_its_terms(self, order, start, steps, slots):
        weights = list(accumulate(steps))  # nondecreasing

        def min_weight(n):
            i = n - start
            return weights[i] if i < len(weights) else order

        def slot_count(n):
            return slots[(n - start) % len(slots)]

        expected = TruncatedSeries((0,) * order)
        for i, w in enumerate(weights):
            if w >= order:
                break
            term = pochhammer_inverse(slot_count(start + i), order)
            expected = expected + shift(term, w)
        assert sum_side_standard(min_weight, slot_count, order, start=start) == expected

    @pytest.mark.parametrize("modulus", range(2, 8))
    def test_glaisher_sum_matches_naive_expansion_at_every_order(self, modulus):
        reference = naive_glaisher_sum(modulus, 120)
        for order in range(1, 121):
            assert sum_side_glaisher(modulus, order).to_list() == reference[:order]

    def test_euler_sum_matches_naive_expansion_at_every_order(self):
        reference = naive_euler_sum(120)
        for order in range(1, 121):
            assert euler_distinct_sum(order).to_list() == reference[:order]
