"""Mutant gate for the enumeration oracles and the Glaisher maps.

Each case plants one deliberate fault, runs the whole suite at small bounds,
and asserts two things: the fault turns every named row into a mismatch, and
it leaves every row computed by series algebra alone (``analytic``,
``alpha``, ``forms``) or by chain counting against it (``combinatorial``)
passing.  A fault that no row reports, or that leaks into the series route,
shows that a fast path has lost its check or that the two oracles share code.
"""

import sys

import pytest

import qident.bijections as bijections
import qident.partitions as partitions
from qident.partitions import Partition
from qident.verify import run_suite

ORDER, WEIGHT = 30, 13
MODULI = range(2, 8)
UNTOUCHED_MODES = {"analytic", "alpha", "forms", "combinatorial"}


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


def repeats_a_partition(generate):
    # weight 6 lists its first partition twice and loses its second:
    # the same number of partitions, one of them repeated
    def fake(weight, modulus):
        found = list(generate(weight, modulus))
        if weight == 6:
            found[1] = found[0]
        return found

    return fake


def allows_m_copies(generate):
    return lambda weight, modulus: generate(weight, modulus + 1)


def count_off_by_one(count):
    def fake(rc, max_weight):
        counts = count(rc, max_weight)
        if max_weight >= 9:
            counts[9] += 1
        return counts

    return fake


SHAPE, WRONG_CONJUGATE = (3, 1), (2, 2)


def wrong_on_one_shape(conjugate):
    """Same weight, wrong shape; works on bare part tuples and on
    ``Partition`` objects alike."""

    def fake(p):
        if isinstance(p, tuple):
            return WRONG_CONJUGATE if p == SHAPE else conjugate(p)
        return Partition(WRONG_CONJUGATE) if p.parts == SHAPE else conjugate(p)

    return fake


def glaisher_rows(*modes):
    return {(f"glaisher-{m}", mode) for m in MODULI for mode in modes}


FAULTS = {
    "divide gives ascending images": (
        bijections, ("_glaisher_divide",), ascending_image,
        glaisher_rows("bijection"),
    ),
    "divide drops a part": (
        bijections, ("_glaisher_divide",), drops_a_part,
        glaisher_rows("bijection"),
    ),
    "merge uses a wrong power": (
        bijections, ("_glaisher_merge",), wrong_power,
        glaisher_rows("bijection"),
    ),
    "bounded-repetition domain repeats a partition": (
        partitions, ("_repetition_bounded_parts",), repeats_a_partition,
        glaisher_rows("bijection", "conjugate"),
    ),
    "bounded-repetition domain allows M copies": (
        partitions, ("_repetition_bounded_parts",), allows_m_copies,
        glaisher_rows("bijection", "conjugate"),
    ),
    "part-set count off by one at weight 9": (
        partitions, ("count_partitions_with_parts",), count_off_by_one,
        {("euler-interpretations", "equinumerosity")},
    ),
    # the public function and the tuple helper it wraps both compute
    # conjugates; the fault goes into each that exists
    "conjugate wrong on one shape": (
        partitions, ("conjugate", "_conjugate_parts"), wrong_on_one_shape,
        glaisher_rows("conjugate"),
    ),
}


def mismatched_rows(summary):
    assert not summary.has_error
    return {(r.identity, r.mode) for r in summary.reports if r.outcome == "mismatch"}


def test_unmutated_suite_passes():
    assert run_suite(None, ORDER, WEIGHT).passed


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_is_caught_by_its_rows_only(monkeypatch, fault):
    module, names, make_fake, expected = FAULTS[fault]
    patch_everywhere(monkeypatch, module, names, make_fake)
    mismatched = mismatched_rows(run_suite(None, ORDER, WEIGHT))
    assert expected <= mismatched, sorted(expected - mismatched)
    leaked = {row for row in mismatched if row[1] in UNTOUCHED_MODES}
    assert not leaked, sorted(leaked)
