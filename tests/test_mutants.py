"""Mutant gate for the series builders, the enumeration oracles and the
Glaisher maps.

Each case plants one deliberate fault, runs the whole suite at small bounds,
and asserts two things: the fault turns every named row into a mismatch, and
it leaves every row of the modes the other oracle decides passing.  A map or
enumeration fault must not reach the rows computed by series algebra alone
(``analytic``, ``alpha``, ``forms``); a series fault must not reach the
``bijection`` or ``conjugate`` rows, and one in the sum-side Pochhammer
factors or in the Euler route of the product sides not the ``alpha`` rows
either.  No one series kernel reaches every row with a series side, so the
faults in the series kernels are also planted together, and must then reach
all of them.  A fault that no row reports, or that leaks across, shows that a
fast path has lost its check or that the two oracles share code.  The
direct product, which only a class with a dense numerator takes, must not
run at the gate's bounds, so no product row rests on it.
"""

import sys

import pytest

import qident.bijections as bijections
import qident.partitions as partitions
import qident.series as series
from qident.profiles import default_catalog
from qident.series import TruncatedSeries, _geometric
from qident.verify import plan_checks, run_suite

ORDER, WEIGHT = 30, 13
MODULI = range(2, 8)
PLAN = plan_checks(None, ORDER, WEIGHT, default_catalog())

# modes that a fault in the maps or in partition enumeration must leave passing
SERIES_ROUTE = {"analytic", "alpha", "forms", "combinatorial"}


def patch_everywhere(monkeypatch, module, names, make_fake):
    """Replace each of ``names`` that ``module`` defines with
    ``make_fake(original)`` in every ``qident`` namespace that binds the
    original, so callers that imported it by name see the fault too."""
    for name in names:
        original = getattr(module, name, None)
        if original is None:
            continue
        fake = make_fake(original)
        for module_name, namespace in list(sys.modules.items()):
            if module_name != "qident" and not module_name.startswith("qident."):
                continue
            if vars(namespace).get(name) is original:
                monkeypatch.setattr(namespace, name, fake)


def ascending_image(divide):
    return lambda parts, modulus: divide(parts, modulus)[::-1]


def drops_a_part(divide):
    def fake(parts, modulus):
        image = divide(parts, modulus)
        return image[:-1] if len(image) > 1 else image

    return fake


def wrong_power(merge):
    # groups of M+1 copies merge, so M copies of r never become r*M
    return lambda parts, modulus: merge(parts, modulus + 1)


def exit_ignores_runs(merge):
    # the fixed-point exit tests divisibility alone, so M copies of r come
    # back unmerged
    def fake(parts, modulus):
        if all(part % modulus for part in parts):
            return parts
        return merge(parts, modulus)

    return fake


def repeats_a_partition(walk):
    # weight 6 lists its first partition twice and loses its second:
    # the same number of partitions, one of them repeated
    def fake(max_weight, modulus):
        found = list(walk(max_weight, modulus))
        sixes = [i for i, (weight, _) in enumerate(found) if weight == 6]
        if len(sixes) > 1:
            found[sixes[1]] = found[sixes[0]]
        return found

    return fake


def allows_m_copies(walk):
    return lambda max_weight, modulus: walk(max_weight, modulus + 1)


def count_off_by_one(count):
    """Works for ``count_partitions_with_parts(rc, max_weight)``,
    ``count_chain_by_weight(chain, max_weight)`` and
    ``count_bounded_gap_vectors(modulus, max_weight)`` alike."""

    def fake(what, max_weight):
        counts = count(what, max_weight)
        if max_weight >= 9:
            counts[9] += 1
        return counts

    return fake


def one_factor_short(extend):
    # each extension of 1/(q)_done stops at 1/(q)_(n-1) in place of 1/(q)_n
    return lambda c, done, n: extend(c, done, n - 1)


def skips_last_block(geometric):
    """The block branch of the 1/(1-q^k) kernel (k*k > len(c)) leaves its
    last block as it was."""

    def fake(c, k):
        last = (len(c) - 1) // k * k
        before = c[last:]
        geometric(c, k)
        if k * k > len(c) and last >= k:
            c[last:] = before

    return fake


def keeps_last_coefficient(kernel):
    """The (1-q^k) or (1+q^k) kernel leaves the last coefficient as it was."""

    def fake(c, k):
        last = c[-1]
        kernel(c, k)
        c[-1] = last

    return fake


def leaves_out_first_tail_size(euler):
    """The Euler product leaves out its factor (1-q^k) for k = ceil(order/3):
    E times 1/(1-q^k)."""

    def fake(order):
        c = list(euler(order).coefficients)
        k = -(-order // 3)
        if k < order:
            _geometric(c, k)
        return TruncatedSeries(tuple(c))

    return fake


def drops_top_shift(alpha_from_sum):
    """The recurrence multiplies by q^n + ... + q^{(M-2)n}, without its top
    shift (M-1)n."""
    return lambda modulus, n, lower_sum, order: alpha_from_sum(modulus - 1, n, lower_sum, order)


def drops_top_numerator_term(numerator):
    """The numerator kernel leaves out the highest nonzero term of the
    product it builds, E's among them, unless it gives up on it."""

    def fake(order, p, excluded, removed):
        c = numerator(order, p, excluded, removed)
        if c is not None:
            top = max(j for j, x in enumerate(c) if x)
            if top:
                c[top] = 0
        return c

    return fake


def drops_top_term(reciprocal):
    """The reciprocal kernel ignores the highest nonzero term of the series
    it inverts, so 1/E goes wrong from that exponent up."""

    def fake(series):
        c = list(series.coefficients)
        top = max(j for j, x in enumerate(c) if x)
        if top:
            c[top] = 0
        return reciprocal(TruncatedSeries(tuple(c)))

    return fake


def skips_top_term(times_dilated):
    """The sparse multiply skips the highest nonzero term of b(q^d) that
    lands below the length of the series it multiplies."""

    def fake(c, b, d):
        b = list(b[: (len(c) - 1) // d + 1])
        top = max((j for j, x in enumerate(b) if x), default=0)
        if top:
            b[top] = 0
        return times_dilated(c, b, d)

    return fake


SHAPE, WRONG_CONJUGATE = (3, 1), (2, 2)


def wrong_on_one_shape(conjugate):
    """Same weight, wrong shape."""
    return lambda parts: WRONG_CONJUGATE if parts == SHAPE else conjugate(parts)


def glaisher_rows(*modes):
    return {(f"glaisher-{m}", mode, "") for m in MODULI for mode in modes}


def plan_rows(*modes):
    """Every planned row of ``modes``."""
    return {(c.identity, c.mode, c.subject) for c in PLAN if c.mode in modes}


# every row with a series side
SERIES_ROWS = plan_rows("analytic", "alpha", "forms", "combinatorial", "equinumerosity")

# every row that reads a product side
PRODUCT_ROWS = {
    (c.identity, c.mode, c.subject)
    for c in PLAN
    if any(shared.key[0] == "product" for shared in c.inputs)
}

# The series rows a fault in the 1/(1-q^k) kernel misses.  The equinumerosity
# groups with a product side compare counts with that side alone, built by
# the Euler route without the kernel; at the counting bound the sum sides of
# rr2 and of subbarao-agarwal-1-5 and -1-6 need only factors with
# k*k <= 14, which take the stride branch; and glaisher-2 analytic compares
# the odd parts, built by the Euler route, with the divide-by-2 sum, built in
# distinct-parts form, which takes (1+q^k) factors alone.
BEYOND_GEOMETRIC = {
    (group, "equinumerosity", "")
    for group in (
        "capparelli-1-6+subbarao-agarwal-1-4",
        "euler-interpretations",
        "hirschhorn-1+subbarao-2-2",
        "hirschhorn-2+subbarao-2-1",
        "hirschhorn-3+subbarao-2-4",
        "hirschhorn-4+subbarao-2-3",
        "rr2-interpretations",
    )
} | {("rr2", "combinatorial", f"P{i}") for i in range(2, 6)} | {
    (name, "combinatorial", name) for name in ("subbarao-agarwal-1-5", "subbarao-agarwal-1-6")
} | {("glaisher-2", "analytic", "")}

# The series rows a fault in the (1-q^k) kernel misses.  E and the class
# numerators take no (1-q^k), and at both orders every shipped class other
# than the parts not divisible by d is built from its numerator, not as the
# direct product, so a row sees the fault only through its sum side: the
# divide-by-M sums for M >= 3 take (1-q^{(n-1)M}) and the alpha closed form
# (1-q^{jM}).  No catalog profile sum drops its slot count at these bounds,
# the one case in which a profile sum takes (1-q^k), and the divide-by-2 and
# triangular sums take none.
BEYOND_ONE_MINUS = SERIES_ROWS - glaisher_rows("alpha") - {
    (f"glaisher-{m}", "analytic", "") for m in MODULI if m > 2
}


def catalog_rows(*modes):
    """Every planned row of ``modes`` outside the divide-by-M identities."""
    return {
        (c.identity, c.mode, c.subject)
        for c in PLAN
        if c.mode in modes and not c.identity.startswith("glaisher-")
    }


DISTINCT_PARTS_FAULT = "distinct-parts step drops its last coefficient"

# fault -> (defining module, names it replaces, fake builder, rows that must
# mismatch, modes whose rows must all keep passing)
FAULTS = {
    "divide gives ascending images": (
        bijections, ("glaisher_forward",), ascending_image,
        glaisher_rows("bijection"), SERIES_ROUTE,
    ),
    "divide drops a part": (
        bijections, ("glaisher_forward",), drops_a_part,
        glaisher_rows("bijection"), SERIES_ROUTE,
    ),
    "merge uses a wrong power": (
        bijections, ("glaisher_inverse",), wrong_power,
        glaisher_rows("bijection"), SERIES_ROUTE,
    ),
    "merge exit ignores runs of M copies": (
        bijections, ("glaisher_inverse",), exit_ignores_runs,
        glaisher_rows("bijection"), SERIES_ROUTE,
    ),
    "bounded-repetition domain repeats a partition": (
        partitions, ("repetition_bounded_walk",), repeats_a_partition,
        glaisher_rows("bijection", "conjugate"), SERIES_ROUTE,
    ),
    "bounded-repetition domain allows M copies": (
        partitions, ("repetition_bounded_walk",), allows_m_copies,
        glaisher_rows("bijection", "conjugate"), SERIES_ROUTE,
    ),
    "part-set count off by one at weight 9": (
        partitions, ("count_partitions_with_parts",), count_off_by_one,
        {("euler-interpretations", "equinumerosity", "")} | glaisher_rows("bijection"),
        SERIES_ROUTE,
    ),
    # chain counts size every interpretation, so only the rows that never
    # count a profile's chains stay passing
    "chain count off by one at weight 9": (
        partitions, ("count_chain_by_weight",), count_off_by_one,
        catalog_rows("combinatorial", "equinumerosity"),
        {"analytic", "alpha", "forms", "bijection", "conjugate"},
    ),
    # the one search over bounded-gap vectors sizes the conjugate target
    # alone, so every other row stays passing
    "bounded-gap vector count off by one at weight 9": (
        partitions, ("count_bounded_gap_vectors",), count_off_by_one,
        glaisher_rows("conjugate"),
        {"analytic", "alpha", "forms", "combinatorial", "equinumerosity", "bijection"},
    ),
    "conjugate wrong on one shape": (
        partitions, ("conjugate",), wrong_on_one_shape,
        glaisher_rows("conjugate"), SERIES_ROUTE,
    ),
    # every catalog sum side takes its slot factors 1/(1-q^j) here; the
    # Glaisher sum side, the alpha terms and the enumeration oracles do not
    "Pochhammer inverse one factor short": (
        series, ("_pochhammer_inverse_from",), one_factor_short,
        catalog_rows("analytic", "combinatorial")
        | {
            ("glaisher-2", "forms", ""),
            ("example-family-interpretations", "equinumerosity", ""),
        },
        {"bijection", "conjugate", "alpha"},
    ),
    # every sum side but the divide-by-2 one, the alpha closed form and the
    # sum-side Pochhammer factors multiply through the 1/(1-q^k) kernel, and
    # at the analytic order every k >= 6 takes the block branch
    "geometric kernel skips its last block": (
        series, ("_geometric",), skips_last_block,
        SERIES_ROWS - BEYOND_GEOMETRIC,
        {"bijection", "conjugate"},
    ),
    # the divide-by-M sum sides for M >= 3 and the alpha closed form multiply
    # through the (1-q^k) kernel; no shipped product side does
    "one-minus kernel keeps its last coefficient": (
        series, ("_one_minus",), keeps_last_coefficient,
        SERIES_ROWS - BEYOND_ONE_MINUS,
        {"bijection", "conjugate"},
    ),
    # the distinct-parts nest, in which the divide-by-2 sum is built, alone
    # multiplies through the (1+q^k) kernel
    DISTINCT_PARTS_FAULT: (
        series, ("_one_plus",), keeps_last_coefficient,
        {("glaisher-2", "analytic", ""), ("glaisher-2", "forms", "")},
        {"alpha", "combinatorial", "equinumerosity", "bijection", "conjugate"},
    ),
    # E and every class numerator are built here; every product side is
    # built from 1/E, and the E(q^d) or numerator it is multiplied by
    # cancels no factor of E
    "numerator drops its top term": (
        series, ("_numerator",), drops_top_numerator_term,
        PRODUCT_ROWS,
        {"bijection", "conjugate", "alpha"},
    ),
    # every product side is built from 1/E, and E(q^d) or a numerator
    # cancels no factor of E
    "Euler product leaves out its first tail size": (
        series, ("_euler",), leaves_out_first_tail_size,
        PRODUCT_ROWS,
        {"bijection", "conjugate", "alpha"},
    ),
    # the recurrence side of the alpha rows alone; the closed form and every
    # other row take no recurrence
    "alpha recurrence drops its top shift": (
        series, ("_alpha_from_sum",), drops_top_shift,
        glaisher_rows("alpha"),
        {"analytic", "forms", "combinatorial", "equinumerosity", "bijection", "conjugate"},
    ),
    # at both orders the all-parts series is 1/E, and every product side is
    # built from it
    "reciprocal ignores the top term of E": (
        series, ("_reciprocal",), drops_top_term,
        PRODUCT_ROWS,
        {"bijection", "conjugate", "alpha"},
    ),
    # at both orders the all-parts series times E(q^d) builds the parts not
    # divisible by d, and every other product side is built from one of those
    "dilation skips the top term of E(q^d)": (
        series, ("_times_dilated",), skips_top_term,
        PRODUCT_ROWS,
        {"bijection", "conjugate", "alpha"},
    ),
}

# the faults in the series kernels, which together reach every series row
SERIES_KERNEL_FAULTS = (
    "geometric kernel skips its last block",
    "one-minus kernel keeps its last coefficient",
    DISTINCT_PARTS_FAULT,
    "numerator drops its top term",
    "reciprocal ignores the top term of E",
    "dilation skips the top term of E(q^d)",
)


def mismatched_rows(summary):
    assert not summary.has_error
    return {
        (r.identity, r.mode, r.subject) for r in summary.reports if r.outcome == "mismatch"
    }


def test_unmutated_suite_passes():
    assert run_suite(None, ORDER, WEIGHT).passed


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_is_caught_by_its_rows_only(monkeypatch, fault):
    module, names, make_fake, expected, keep_passing = FAULTS[fault]
    patch_everywhere(monkeypatch, module, names, make_fake)
    mismatched = mismatched_rows(run_suite(None, ORDER, WEIGHT))
    assert expected <= mismatched, sorted(expected - mismatched)
    leaked = {row for row in mismatched if row[1] in keep_passing}
    assert not leaked, sorted(leaked)


def test_series_kernel_faults_together_reach_every_series_row(monkeypatch):
    """A fault in each series kernel at once leaves no row with a series
    side passing."""
    for fault in SERIES_KERNEL_FAULTS:
        module, names, make_fake, _, _ = FAULTS[fault]
        patch_everywhere(monkeypatch, module, names, make_fake)
    mismatched = mismatched_rows(run_suite(None, ORDER, WEIGHT))
    assert SERIES_ROWS <= mismatched, sorted(SERIES_ROWS - mismatched)
    leaked = {row for row in mismatched if row[1] in ("bijection", "conjugate")}
    assert not leaked, sorted(leaked)


def test_distinct_parts_fault_reaches_the_divide_by_2_rows_alone(monkeypatch):
    """No other row, analytic or not, builds a series through the (1+q^k)
    kernel."""
    module, names, make_fake, expected, _ = FAULTS[DISTINCT_PARTS_FAULT]
    patch_everywhere(monkeypatch, module, names, make_fake)
    assert mismatched_rows(run_suite(None, ORDER, WEIGHT)) == expected


def test_every_shipped_class_takes_its_numerator_at_the_gate_orders(monkeypatch):
    """At the orders 14 and 30 no product side is the direct product, so no
    row takes the (1-q^k) kernel, nor 1/(1-q^k) per size, through a
    product."""

    def must_not_run(original):
        def fake(*args):
            raise AssertionError("a product side was built as the direct product")

        return fake

    patch_everywhere(monkeypatch, series, ("product_side",), must_not_run)
    assert run_suite(None, ORDER, WEIGHT).passed
