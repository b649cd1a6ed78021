"""Verification pipelines and the suite driver."""

import json
import os
import weakref
from collections import Counter
from functools import partial
from pathlib import Path
from select import select

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qident.series as series_module
import qident.verify as verify_module
from qident.cli import EXIT_DOMAIN, main
from qident.profiles import (
    default_catalog,
    dump_catalog,
    loads_catalog,
    profile_chain_counts,
    profile_series,
)
from qident.series import (
    ResidueClass,
    _euler,
    _numerator,
    product_side,
    sum_side_glaisher,
    sum_side_standard,
)
from qident.verify import (
    Check,
    Finding,
    SuiteSummary,
    VerificationReport,
    euler_forms_report,
    glaisher_alpha_report,
    glaisher_bijection_report,
    glaisher_conjugate_report,
    plan_checks,
    run_suite,
    verify_analytic,
    verify_combinatorial,
    verify_equinumerosity,
)

from oracles import enumerate_partitions, offset_rows, repetition_bounded
from test_mutants import FAULTS, patch_everywhere

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def built(shared):
    """A planned shared input, built outside ``run_suite``."""
    return shared.build(*map(built, shared.needs))


def entry(name):
    """The shipped catalog entry named ``name``."""
    return default_catalog().lookup(name)


def entries(*names):
    return tuple(map(entry, names))


def equinumerosity(names, max_weight):
    """``verify_equinumerosity`` on the named entries, against the product
    side of the first."""
    members = entries(*names)
    return verify_equinumerosity(
        members,
        product_side(members[0].product, max_weight + 1),
        *(profile_chain_counts(e.profile, max_weight) for e in members),
    )


def member_names(check):
    """The names of the entries an equinumerosity check compares."""
    return tuple(e.name for e in check.call.args[0])


def plan_rows(plan):
    return [(c.identity, c.mode, c.subject, c.bound) for c in plan]


def suite_row(name, mode, order, max_weight):
    """The one ``mode`` report of ``run_suite([name], ...)``."""
    [report] = [r for r in run_suite([name], order, max_weight).reports if r.mode == mode]
    return report


def assert_row_carries(report, finding):
    """A mismatch row holds the finding's exponent, values and note."""
    assert report.outcome == "mismatch"
    assert (report.exponent, report.lhs, report.rhs, report.note) == (
        finding.exponent,
        finding.lhs,
        finding.rhs,
        finding.note,
    )


def edited_catalog(edit):
    """The shipped catalog with ``edit`` applied to its JSON entry list."""
    payload = json.loads(dump_catalog(default_catalog()))
    edit(payload["entries"])
    return loads_catalog(json.dumps(payload))


class TestAnalytic:
    def test_rr2_passes_order_50(self):
        p2 = entry("P2")
        assert verify_analytic(product_side(p2.product, 50), profile_series(p2.profile, 50)) is None
        assert suite_row("rr2", "analytic", 50, 5).bound == 50

    def test_glaisher_modulus_3_passes_order_50(self):
        product = product_side(ResidueClass.nonzero(3), 50)
        assert verify_analytic(product, sum_side_glaisher(3, 50)) is None

    def test_wrong_product_reports_first_mismatch(self):
        wrong = product_side(ResidueClass(5, frozenset({2, 4})), 10)
        finding = verify_analytic(wrong, profile_series(entry("P2").profile, 10))
        assert not finding.error
        assert finding.exponent == 3
        assert (finding.lhs, finding.rhs) == (0, 1)
        assert finding.note == "product vs sum side"

    def test_sum_side_below_the_product_order_is_refused(self):
        p2 = entry("P2")
        with pytest.raises(ValueError, match="exceeds operand orders"):
            verify_analytic(product_side(p2.product, 20), profile_series(p2.profile, 10))

    def test_missing_product_plans_no_analytic_row(self):
        plan = plan_checks(["example-family"], 10, 5, default_catalog())
        assert plan and "analytic" not in {c.mode for c in plan}


class TestCombinatorial:
    def test_rr2_gap_interpretation(self):
        p2 = entry("P2")
        counts = profile_chain_counts(p2.profile, 25)
        sum_side = profile_series(p2.profile, 26)
        assert verify_combinatorial(counts, sum_side, product_side(p2.product, 26)) is None

    def test_example_family_counts(self):
        plan = plan_checks(["example-family"], 10, 20, default_catalog())
        rows = [c for c in plan if c.mode == "combinatorial"]
        assert len(rows) == 3
        for check in rows:
            # no product side: the chain counts and the sum side
            assert len(check.inputs) == 2
            finding = check.call(*map(built, check.inputs))
            assert finding is None, finding

    def test_appendix_f_against_product(self):
        h3 = entry("hirschhorn-3")
        counts = profile_chain_counts(h3.profile, 25)
        sum_side = profile_series(h3.profile, 26)
        assert verify_combinatorial(counts, sum_side, product_side(h3.product, 26)) is None
        # the sum side agrees, so a wrong product side is what is reported
        wrong = product_side(ResidueClass.nonzero(2), 26)
        assert verify_combinatorial(counts, sum_side, wrong).note == "enumeration vs product side"

    def test_profile_must_be_an_interpretation(self):
        # the planner counts each row's own entry, one of its identity's
        # interpretations, against that identity's sides
        for check in plan_checks(None, 10, 5, default_catalog()):
            if check.mode == "combinatorial":
                subject = entry(check.subject)
                assert (subject.identity or subject.name) == check.identity
                assert check.inputs[0].key == ("chain counts", subject.name, 5)


class TestEquinumerosity:
    def test_rr2_group(self):
        assert equinumerosity(("P2", "P3", "P4", "P5"), 30) is None

    def test_euler_pair(self):
        assert equinumerosity(("euler-staircase", "euler-layers"), 25) is None

    def test_singleton_checked_against_product(self):
        assert equinumerosity(("P2",), 20) is None

    def test_mixed_products_rejected(self):
        with pytest.raises(ValueError, match="disagree on the product side"):
            equinumerosity(("P2", "euler-staircase"), 10)

    def test_one_count_sequence_per_entry(self):
        members = entries("P2", "P3")
        counts = profile_chain_counts(members[0].profile, 10)
        with pytest.raises(ValueError):
            verify_equinumerosity(members, product_side(members[0].product, 11), counts)


TWO_BRANCH = tuple(e.name for e in default_catalog().entries() if len(e.profile.branches) == 2)
SWAP_WEIGHT = 16


@st.composite
def swapped_rows(draw):
    """A shipped two-branch family, one of its branches, a branch index n at
    which the term q^S(n)/(q)_u(n) has a slot and S(n) <= SWAP_WEIGHT, and
    one of the term's offset rows, any of those ``offset_rows`` lists."""
    name = draw(st.sampled_from(TWO_BRANCH))
    branch = draw(st.sampled_from(entry(name).profile.branches))
    n = draw(st.sampled_from([
        n for n in range(branch.n_min, SWAP_WEIGHT + 1)
        if branch.slot_count(n) and branch.declared_weight(n) <= SWAP_WEIGHT
    ]))
    row = draw(st.sampled_from(offset_rows(branch.declared_weight(n), branch.slot_count(n))))
    return name, branch, n, row


class TestOffsetSwapThroughACatalog:
    """The paper's main claim through the path a user takes: a catalog entry
    whose offsets at one index are any valid row, and the shipped offsets
    at every other, counts as the shipped family does."""

    @settings(max_examples=12)
    @given(swapped_rows())
    def test_swapped_row_passes_its_rows(self, case):
        name, branch, n, row = case
        (shipped,) = [
            e for e in json.loads(dump_catalog(default_catalog()))["entries"]
            if e["name"] == name
        ]
        shipped.update(aliases=[], identity="swap")
        swapped = json.loads(json.dumps({**shipped, "name": "swapped"}))
        (target,) = [b for b in swapped["branches"] if b["parity"] == branch.parity_label]
        target["offsets"][:0] = [
            {"when": f"n == {n} and s == {s}", "value": str(v)}
            for s, v in enumerate(row, start=1)
        ]
        catalog = loads_catalog(json.dumps({"entries": [shipped, swapped]}))
        profile = catalog.lookup("swapped").profile
        index = branch.family_index(n)
        assert profile.offsets_at(index) == row
        for other in range(index + 1, index + 3):
            assert profile.offsets_at(other) == entry(name).profile.offsets_at(other)
        summary = run_suite(["swap"], SWAP_WEIGHT + 1, SWAP_WEIGHT, catalog)
        rows = {(r.mode, r.subject): r for r in summary.reports}
        assert rows[("combinatorial", "swapped")].outcome == "pass"
        (group,) = [r for r in summary.reports if r.mode == "equinumerosity"]
        assert (group.identity, group.outcome) == ("swap-interpretations", "pass")


class TestGlaisherFamily:
    def test_family_runs_clean(self):
        summary = run_suite(["glaisher-2", "glaisher-3"], 40, 12)
        assert summary.passed
        modes = {(r.identity, r.mode) for r in summary.reports}
        assert ("glaisher-2", "forms") in modes
        assert ("glaisher-3", "bijection") in modes

    def test_battery_for_any_modulus(self):
        plan = plan_checks(["glaisher-9"], 40, 30, default_catalog())
        assert plan_rows(plan) == [
            ("glaisher-9", "alpha", "", 40),
            ("glaisher-9", "analytic", "", 40),
            ("glaisher-9", "bijection", "", 30),
            ("glaisher-9", "conjugate", "", verify_module.CONJUGATE_MAX_WEIGHT),
        ]

    @pytest.mark.parametrize("name", ["glaisher-1", "glaisher-0"])
    def test_modulus_below_two_rejected(self, name):
        with pytest.raises(ValueError):
            plan_checks([name], 10, 5, default_catalog())

    def test_forms_report(self):
        odd_parts = product_side(ResidueClass.nonzero(2), 80)
        triangular = sum_side_standard(lambda n: (n * n + n) // 2, lambda n: n, 80)
        assert euler_forms_report(odd_parts, sum_side_glaisher(2, 80), triangular) is None
        finding = euler_forms_report(odd_parts, sum_side_glaisher(2, 80), odd_parts + triangular)
        assert (finding.note, finding.exponent) == ("odd-parts product vs triangular sum", 0)

    def test_alpha_report(self):
        assert glaisher_alpha_report(4, 8, 60) is None
        # the running sum is carried at its length, which the order clips
        for modulus in range(2, 8):
            for order in (1, 5, 60, 1000):
                assert glaisher_alpha_report(modulus, 10, order) is None, (modulus, order)

    def test_bijection_report_small(self):
        assert glaisher_bijection_report(3, 12) is None

    def test_conjugate_report_small(self):
        assert glaisher_conjugate_report(3, 12) is None

    @pytest.mark.parametrize(
        "report, mode",
        [
            pytest.param(glaisher_bijection_report, "bijection", id="glaisher_bijection_report"),
            pytest.param(glaisher_conjugate_report, "conjugate", id="glaisher_conjugate_report"),
        ],
    )
    def test_weight_zero_bound_passes(self, report, mode):
        assert report(3, 0) is None
        row = suite_row("glaisher-3", mode, 10, 0)
        assert row.passed and row.bound == 0

    def test_bijection_failure_names_partitions(self, monkeypatch):
        divide = verify_module.glaisher_forward

        def drop_last_part(parts, modulus):
            image = divide(parts, modulus)
            return image[:-1] if len(image) > 1 else image

        monkeypatch.setattr(verify_module, "glaisher_forward", drop_last_part)
        finding = glaisher_bijection_report(3, 12)
        # weight 2: [2] and [1,1] on both sides
        assert (finding.exponent, finding.lhs, finding.rhs) == (2, 2, 2)
        assert finding.note == "inverse round trip failed for [1,1]: got [1] via [1]"
        row = suite_row("glaisher-3", "bijection", 20, 12)
        assert row.bound == 12
        assert_row_carries(row, finding)

    def test_bijection_failure_reports_image_against_target(self, monkeypatch):
        divide = verify_module.glaisher_forward

        def ascending(parts, modulus):
            return divide(parts, modulus)[::-1]

        monkeypatch.setattr(verify_module, "glaisher_forward", ascending)
        finding = glaisher_bijection_report(3, 12)
        # weight 3: [3] and [2,1] map onto [1,1,1] and the unsorted (1, 2),
        # which round-trips but is not a member of the target
        assert (finding.exponent, finding.lhs, finding.rhs) == (3, 2, 2)
        assert finding.note == "image of [2,1] fails the target predicate: [1,2]"

    def test_bijection_failure_on_image_out_of_order_at_its_end(self, monkeypatch):
        divide = verify_module.glaisher_forward

        def last_two_swapped(parts, modulus):
            image = divide(parts, modulus)
            return image[:-2] + image[:-3:-1] if len(image) > 2 else image

        monkeypatch.setattr(verify_module, "glaisher_forward", last_two_swapped)
        finding = glaisher_bijection_report(3, 12)
        # weight 5: the images of [5], [4,1], [3,2] and [3,1,1] end in equal
        # parts or have two; (2,1,2) starts with its largest part and is out
        # of order only in its last pair
        assert (finding.exponent, finding.lhs, finding.rhs) == (5, 5, 5)
        assert finding.note == "image of [2,2,1] fails the target predicate: [2,1,2]"

    def test_bijection_failure_on_image_keeping_a_divisible_part(self, monkeypatch):
        # identity maps: every image is its own source, ordered, of the
        # weight, and round-trips; [3] keeps its part divisible by 3
        monkeypatch.setattr(verify_module, "glaisher_forward", lambda parts, modulus: parts)
        monkeypatch.setattr(verify_module, "glaisher_inverse", lambda parts, modulus: parts)
        finding = glaisher_bijection_report(3, 12)
        assert (finding.exponent, finding.lhs, finding.rhs) == (3, 2, 2)
        assert finding.note == "image of [3] fails the target predicate: [3]"

    def test_bijection_failure_on_image_out_of_order_at_its_start(self, monkeypatch):
        divide = verify_module.glaisher_forward

        def first_two_swapped(parts, modulus):
            image = divide(parts, modulus)
            if len(image) > 2 and image[0] != image[1]:
                return (image[1], image[0], *image[2:])
            return image

        monkeypatch.setattr(verify_module, "glaisher_forward", first_two_swapped)
        finding = glaisher_bijection_report(3, 12)
        # weight 4: (2,1,1) is the first image of three parts that do not
        # start equal; (1,2,1) is out of order only in its first pair
        assert (finding.exponent, finding.lhs, finding.rhs) == (4, 4, 4)
        assert finding.note == "image of [2,1,1] fails the target predicate: [1,2,1]"

    def test_bijection_failure_on_image_with_a_zero_part(self, monkeypatch):
        divide = verify_module.glaisher_forward
        merge = verify_module.glaisher_inverse
        # a trailing 0 keeps the weight and the order, and the merge drops
        # it before merging, so only the part sizes fail, at weight 0
        monkeypatch.setattr(
            verify_module,
            "glaisher_forward",
            lambda parts, modulus: divide(parts, modulus) + (0,),
        )
        monkeypatch.setattr(
            verify_module,
            "glaisher_inverse",
            lambda parts, modulus: merge(parts[:-1] if parts[-1:] == (0,) else parts, modulus),
        )
        finding = glaisher_bijection_report(3, 12)
        assert (finding.exponent, finding.lhs, finding.rhs) == (0, 1, 1)
        assert finding.note == "image of [] fails the target predicate: [0]"

    def test_bijection_failure_on_count_names_both_counts(self, monkeypatch):
        count = verify_module.count_partitions_with_parts

        def one_too_many_at_nine(rc, max_weight):
            counts = count(rc, max_weight)
            counts[9] += 1
            return counts

        monkeypatch.setattr(
            verify_module, "count_partitions_with_parts", one_too_many_at_nine
        )
        finding = glaisher_bijection_report(3, 12)
        # 16 partitions of 9 with no part repeated three times, and as many
        # with no part divisible by 3
        assert (finding.exponent, finding.lhs, finding.rhs) == (9, 16, 17)
        assert finding.note == "domain has 16 elements, target has 17"
        assert_row_carries(suite_row("glaisher-3", "bijection", 20, 12), finding)

    def test_bijection_failure_on_repeated_domain_element(self, monkeypatch):
        walk = verify_module.repetition_bounded_walk

        def first_twice(max_weight, modulus):
            # weight 5 lists its first partition twice and loses its last
            found = list(walk(max_weight, modulus))
            fives = [i for i, (weight, _) in enumerate(found) if weight == 5]
            del found[fives[-1]]
            found.insert(fives[0], found[fives[0]])
            return found

        monkeypatch.setattr(verify_module, "repetition_bounded_walk", first_twice)
        finding = glaisher_bijection_report(3, 12)
        assert (finding.exponent, finding.lhs, finding.rhs) == (5, 5, 5)
        assert finding.note == "domain is not strictly decreasing: [5] after [5]"

    def test_bijection_failure_on_weight_changing_map(self, monkeypatch):
        divide = verify_module.glaisher_forward
        merge = verify_module.glaisher_inverse
        # one extra part 1 on the way out, dropped on the way back: the round
        # trip, the part sizes, the order and the count all still hold
        monkeypatch.setattr(
            verify_module,
            "glaisher_forward",
            lambda parts, modulus: divide(parts, modulus) + (1,),
        )
        monkeypatch.setattr(
            verify_module,
            "glaisher_inverse",
            lambda parts, modulus: merge(parts[:-1], modulus),
        )
        finding = glaisher_bijection_report(3, 12)
        assert (finding.exponent, finding.lhs, finding.rhs) == (0, 1, 1)
        assert finding.note == "image of [] fails the target predicate: [1]"

    def test_conjugate_failure_names_the_weight(self, monkeypatch):
        conjugate = verify_module.conjugate

        def wrong_on_three_one(parts):
            return (2, 2) if parts == (3, 1) else conjugate(parts)

        monkeypatch.setattr(verify_module, "conjugate", wrong_on_three_one)
        finding = glaisher_conjugate_report(3, 12)
        # weight 4: [4], [3,1], [2,2], [2,1,1] against as many chain vectors
        assert (finding.exponent, finding.lhs, finding.rhs) == (4, 4, 4)
        assert finding.note == "inverse round trip failed for [3,1]: got [2,2] via [2,2]"
        row = suite_row("glaisher-3", "conjugate", 20, 12)
        assert row.bound == 12
        assert_row_carries(row, finding)

    def test_conjugate_failure_on_chain_count(self, monkeypatch):
        count = verify_module.count_bounded_gap_vectors

        def one_short_at_seven(modulus, max_weight):
            counts = count(modulus, max_weight)
            counts[7] -= 1
            return counts

        monkeypatch.setattr(verify_module, "count_bounded_gap_vectors", one_short_at_seven)
        finding = glaisher_conjugate_report(2, 12)
        assert (finding.exponent, finding.lhs, finding.rhs) == (7, 5, 4)
        assert finding.note == "domain has 5 elements, target has 4"


class TestOneWalkBookkeeping:
    """One walk certifies every weight at once, so a finding must still name
    the lowest failing weight with that weight's full domain size."""

    @staticmethod
    def ascending_at_eleven(monkeypatch):
        divide = verify_module.glaisher_forward

        def fake(parts, modulus):
            image = divide(parts, modulus)
            return image[::-1] if sum(parts) == 11 else image

        monkeypatch.setattr(verify_module, "glaisher_forward", fake)

    @staticmethod
    def bounded(weight, modulus):
        return sum(1 for p in enumerate_partitions(weight) if repetition_bounded(p, modulus))

    def test_lowest_failing_weight_wins(self, monkeypatch):
        self.ascending_at_eleven(monkeypatch)
        count = verify_module.count_partitions_with_parts

        def one_too_many_at_seven(rc, max_weight):
            counts = count(rc, max_weight)
            counts[7] += 1
            return counts

        monkeypatch.setattr(
            verify_module, "count_partitions_with_parts", one_too_many_at_seven
        )
        finding = glaisher_bijection_report(3, 12)
        size = self.bounded(7, 3)
        assert (finding.exponent, finding.lhs, finding.rhs) == (7, size, size + 1)
        assert finding.note == f"domain has {size} elements, target has {size + 1}"

    def test_failing_weight_is_counted_in_full(self, monkeypatch):
        self.ascending_at_eleven(monkeypatch)
        finding = glaisher_bijection_report(3, 12)
        size = self.bounded(11, 3)
        # [11] is its own reversal; [10,1] is the first image out of order
        assert (finding.exponent, finding.lhs, finding.rhs) == (11, size, size)
        assert finding.note == "image of [10,1] fails the target predicate: [1,10]"

    def test_conjugate_skips_weight_zero(self, monkeypatch):
        conjugate = verify_module.conjugate
        seen = []

        def recording(parts):
            seen.append(parts)
            return conjugate(parts)

        monkeypatch.setattr(verify_module, "conjugate", recording)
        assert glaisher_conjugate_report(3, 8) is None
        assert () not in seen
        # every other partition of weight 1..8 is conjugated there and back
        assert len(seen) == 2 * sum(self.bounded(w, 3) for w in range(1, 9))


# the functions that build the shared series inputs, where a run calls
# them, and the input key of a call
SHARED_BUILDS = (
    (series_module, "product_side", lambda rc, order: ("product", rc, order)),
    (
        verify_module,
        "_product_side",
        lambda rc, all_parts, euler: ("product", rc, all_parts.order),
    ),
    (verify_module, "_reciprocal", lambda euler: ("all parts", euler.order)),
    (verify_module, "_euler", lambda order: ("euler", order)),
    (verify_module, "sum_side_glaisher", lambda modulus, order: ("glaisher", modulus, order)),
    (verify_module, "_glaisher_sum", lambda modulus, order, tails: ("glaisher", modulus, order)),
    (verify_module, "_glaisher_tails", lambda moduli, order: ("glaisher tail", moduli, order)),
)


class TestRunScopedSeries:
    """Within one ``run_suite`` call each product side and each divide-by-M
    sum side the plan declares is built once, and dropped after the last row
    that reads it."""

    ORDER, WEIGHT = 30, 13

    @staticmethod
    def count_builds(monkeypatch):
        """Wrap the functions a run calls to build series, counting builds
        by what they build.  A product side counts alike whether it is built
        directly, from a base series or by the Euler route, and the
        all-parts series whether directly or as 1/E."""
        builds = Counter()

        def count(module, name, key):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                builds[key(*args)] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name, key in SHARED_BUILDS:
            count(module, name, key)
        return builds

    def expected_builds(self):
        """Catalog classes at the analytic order and at the counting bound.
        The divide-by-M identities have no interpretations to count, so their
        sides are needed only at the analytic order, and the sums for
        M = 3..7 run on from one shared tail.  At both orders the Euler
        product and the all-parts series are built too, and every product
        side is built from those two alone: the catalog classes that are not
        the parts not divisible by some d take their numerators, so no such
        class is built as a base of another."""
        catalog = {e.product for e in default_catalog().entries()} - {None}
        moduli = range(2, 8)
        orders = (self.ORDER, self.WEIGHT + 1)
        return (
            {("product", rc, order) for rc in catalog for order in orders}
            | {("product", ResidueClass.nonzero(m), self.ORDER) for m in moduli}
            | {(name, order) for name in ("all parts", "euler") for order in orders}
            | {("glaisher", m, self.ORDER) for m in moduli}
            | {("glaisher tail", (3, 4, 5, 6, 7), self.ORDER)}
        )

    def test_each_side_is_built_once_per_run(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        assert run_suite(None, self.ORDER, self.WEIGHT).passed
        assert set(builds) == self.expected_builds()
        assert set(builds.values()) == {1}

    def test_a_second_run_builds_everything_again(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        run_suite(None, self.ORDER, self.WEIGHT)
        run_suite(None, self.ORDER, self.WEIGHT)
        assert set(builds) == self.expected_builds()
        assert set(builds.values()) == {2}

    def test_no_input_outlives_its_last_reader(self, monkeypatch):
        """Record the shared inputs still alive as each row starts.  An input
        is built just before its first use, the first row that reads it or
        the build of the first input built from it, and dropped after its
        last: it is alive through the last row that reads it, and until the
        row before which the last input built from it is built.  Bases are
        followed to any depth; the plan has chains of two, from the Euler
        product through the all-parts series to a product side, which reads
        the Euler product as well.  The rows that read no input may run in
        a helper process, whose records this one never sees, so the
        assertion covers the rows that read inputs, which this process runs."""
        alive = {}

        class Counts(list):
            """Chain counts that a weak reference can follow."""

        class Tails(dict):
            """Divide-by-M tails that a weak reference can follow."""

        def track(name, key, wrap=lambda value: value, module=verify_module):
            original = getattr(module, name)

            def tracked(*args, **kwargs):
                value = wrap(original(*args, **kwargs))
                alive[key(*args)] = weakref.ref(value)
                return value

            monkeypatch.setattr(module, name, tracked)

        for module, name, key in SHARED_BUILDS:
            wrap = Tails if name == "_glaisher_tails" else (lambda value: value)
            track(name, key, wrap, module=module)
        track(
            "profile_series",
            lambda profile, order: ("profile sum", TestRunScopedCounts.rules(profile), order),
        )
        track(
            "profile_chain_counts",
            lambda profile, weight: ("chain counts", profile.name, weight),
            Counts,
        )
        live_at_rows = {}

        def recording(row, check, *values):
            live_at_rows[row] = {key for key, ref in alive.items() if ref() is not None}
            return check.call(*values)

        monkeypatch.setattr(
            verify_module,
            "plan_checks",
            lambda *args: tuple(
                Check(c.identity, c.mode, c.subject, c.bound, partial(recording, row, c),
                      c.inputs)
                for row, c in enumerate(plan_checks(*args))
            ),
        )
        assert run_suite(None, self.ORDER, self.WEIGHT).passed

        plan = plan_checks(None, self.ORDER, self.WEIGHT, default_catalog())
        readers, built_from = {}, {}
        pending = []
        for row, check in enumerate(plan):
            for shared in check.inputs:
                readers.setdefault(shared.key, []).append(row)
                pending.append(shared)
        while pending:
            shared = pending.pop()
            for need in shared.needs:
                if shared.key not in built_from.setdefault(need.key, set()):
                    built_from[need.key].add(shared.key)
                    pending.append(need)

        def first_use(key):
            return min(readers.get(key, []) + [first_use(k) for k in built_from.get(key, ())])

        def depth(key):
            return max((1 + depth(k) for k in built_from.get(key, ())), default=0)

        assert max(map(depth, built_from)) == 2
        keys = readers.keys() | built_from.keys()
        with_inputs = [row for row, check in enumerate(plan) if check.inputs]
        assert live_at_rows.keys() >= set(with_inputs)
        for row in with_inputs:
            assert live_at_rows[row] == {
                key
                for key in keys
                if first_use(key) <= row
                and (
                    row <= max(readers.get(key, [-1]))
                    or row < max((first_use(k) for k in built_from.get(key, ())), default=-1)
                )
            }, plan[row]
        # and nothing is held once the run is over
        assert all(ref() is None for ref in alive.values())


def product_inputs(plan):
    """Every product side input the rows of ``plan`` read, and every input
    one is built from, by key."""
    found = {}
    pending = [shared for check in plan for shared in check.inputs]
    while pending:
        shared = pending.pop()
        if shared.key[0] in ("product", "all parts", "euler") and shared.key not in found:
            found[shared.key] = shared
            pending += shared.needs
    return found


def built(shared, values=None):
    """The value of a shared input, built through its needs, each once."""
    values = {} if values is None else values
    if shared.key not in values:
        values[shared.key] = shared.build(*(built(need, values) for need in shared.needs))
    return values[shared.key]


def removed_residues(rc, order):
    """The residues mod its modulus that the build of ``rc`` at ``order``
    hands ``_numerator`` as removed, those the parts not divisible by d
    allow and ``rc`` does not, or None if it builds no numerator."""
    euler = _euler(order)  # E's own numerator is built before the watch
    all_parts = series_module._reciprocal(euler)
    calls = []
    numerator = series_module._numerator

    def recording(order, p, excluded, removed):
        calls.append({r for r in range(p) if r in removed})
        return numerator(order, p, excluded, removed)

    series_module._numerator = recording
    try:
        verify_module._product_input(rc, order).build(all_parts, euler)
    finally:
        series_module._numerator = numerator
    assert len(calls) <= 1, calls
    return calls[0] if calls else None


residue_classes = st.integers(2, 30).flatmap(
    lambda m: st.sets(st.integers(1, m - 1), min_size=1).map(
        lambda residues: ResidueClass(m, frozenset(residues))
    )
)

RR2 = ResidueClass(5, frozenset({2, 3}))
# a shipped class of modulus 20
MOD_20 = ResidueClass(20, frozenset({2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18}))


class TestProductSideBases:
    """Every product side is built from the all-parts series and the Euler
    product.  The parts not divisible by d, d the least divisor of its
    modulus from 2 up that divides no allowed residue, are the class itself,
    built by dilation, or the class whose sizes the numerator's give-up rule
    counts."""

    @pytest.mark.parametrize("order", (31, 61, 200))
    def test_every_product_side_equals_the_direct_product(self, order):
        inputs = product_inputs(plan_checks(None, order, 8, default_catalog()))
        values = {}
        assert any(shared.needs for shared in inputs.values())
        for key, shared in inputs.items():
            if key[0] == "product":
                assert built(shared, values) == product_side(key[1], key[2]), key

    @given(rc=residue_classes, order=st.integers(1, 150))
    @example(rc=ResidueClass(20, frozenset({1})), order=150)
    @example(rc=RR2, order=1)
    @example(rc=MOD_20, order=150)
    @example(rc=ResidueClass.nonzero(30), order=2)
    def test_rule_builds_the_product_side_from_a_covering_base(self, rc, order):
        """The sizes the give-up rule counts and those ``rc`` allows are
        together the parts not divisible by some d dividing the modulus."""
        shared = verify_module._product_input(rc, order)
        assert built(shared) == product_side(rc, order)
        removed, m = removed_residues(rc, order), rc.modulus
        if removed is None:
            assert len(rc.residues) == m - 1
        else:
            base = removed | rc.residues
            divisors = [d for d in range(2, m + 1) if not m % d]
            assert any(base == {r for r in range(1, m) if r % d} for d in divisors)

    @pytest.mark.parametrize(
        "rc, d",
        [(ResidueClass(20, frozenset({1})), 2), (RR2, 5), (MOD_20, 10),
         (ResidueClass.nonzero(6), 6)],
        ids=["1-mod-20", "rr2", "shipped-mod-20", "nonzero-6"],
    )
    def test_base_is_the_least_divisor_dividing_no_residue(self, rc, d):
        removed = removed_residues(rc, 50)
        if rc == ResidueClass.nonzero(d):
            assert removed is None
        else:
            assert removed == {r for r in range(rc.modulus) if not rc.allows(r) and r % d}

    def test_build_work_is_at_most_four_fifths_of_the_old_rule(self):
        """Coefficient updates of the planned product builds at (1000, 8),
        counted from the plan and the nonzero terms of the numerators,
        against the rule they replace: a class that allows more than half
        the sizes below the order is built from the all-parts series, any
        other directly.  ``1/(1-q^k)`` costs ``order`` updates when
        k*k <= order and ``order - k`` otherwise, and ``(1-q^k)`` costs
        ``order - k``.  A numerator N, the product of (1-q^k) over the sizes
        k a class does not allow, costs ``(order - 1) // k`` per such k for
        its divisor sums and ``order - e`` per exponent e >= 1 of a nonzero
        term of N; the Euler product E is the numerator with every size.
        1/E costs ``order - e`` per such exponent of E, the all-parts series
        times E(q^d) ``order - e`` per exponent e of a nonzero term of E(q^d),
        and times N ``order - e`` per exponent e of a nonzero term of N."""

        def allowed(key, k):
            return key[0] == "all parts" or key[1].allows(k)

        def direct(key, order):
            return sum(order if k * k <= order else order - k
                       for k in range(1, order) if allowed(key, k))

        def complement(key, base, order):
            return sum(order - k for k in range(1, order)
                       if allowed(base, k) and not allowed(key, k))

        def exponents(c):
            return [e for e, x in enumerate(c) if x]

        def euler_route(key, order):
            euler = exponents(_euler(order).coefficients)
            if key[0] == "all parts":
                return sum(order - e for e in euler[1:])
            d = key[1].modulus
            return sum(order - d * e for e in euler if d * e < order)

        def numerator(sizes, c, order):
            return sum((order - 1) // k for k in sizes) + sum(order - e for e in exponents(c)[1:])

        plan = plan_checks(None, 1000, 8, default_catalog())
        planned = 0
        for key, shared in product_inputs(plan).items():
            order = key[-1]
            if key[0] == "euler":
                planned += numerator(range(1, order), _euler(order).coefficients, order)
            elif key[0] == "all parts" or len(key[1].residues) == key[1].modulus - 1:
                planned += euler_route(key, order)
            else:
                rc, m = key[1], key[1].modulus
                excluded = {r for r in range(m) if not rc.allows(r)}
                n = _numerator(order, m, excluded, removed_residues(rc, order))
                assert n is not None, key  # no catalog class has a dense numerator
                sizes = [k for k in range(1, order) if not rc.allows(k)]
                planned += numerator(sizes, n, order) + sum(order - e for e in exponents(n))
        read = {s.key for check in plan for s in check.inputs if s.key[0] == "product"}
        old = 0
        for order in {key[2] for key in read}:
            every = ("all parts", order)
            dense = False
            for key in (key for key in read if key[2] == order):
                if 2 * sum(allowed(key, k) for k in range(1, order)) > order - 1:
                    old += complement(key, every, order)
                    dense = True
                else:
                    old += direct(key, order)
            if dense:
                old += direct(every, order)
        assert planned <= 0.8 * old, (planned, old)


class TestSharedWork:
    """Deterministic guards on the work the shared series take: one Euler
    product per order serves every product side, a numerator takes one pass
    per nonzero term, one nested sum serves both branches of a profile sum,
    one tail serves every divide-by-M sum, and the ``forms`` row builds
    nothing."""

    def test_divide_by_m_sums_share_one_tail(self, monkeypatch):
        """At order 1000 one nest of the tail A down to n = 143 serves
        M = 3..7, each running on from (order-1)//M, and the divide-by-2 sum
        is the distinct-parts nest, which takes neither kernel.  One nest per
        modulus from order - 1 down takes 5,994 and 1,212 passes, so a return
        to it fails here."""
        passes = Counter()
        for name in ("_geometric", "_one_minus"):
            kernel = getattr(series_module, name)

            def counted(c, k, name=name, kernel=kernel):
                passes[name] += 1
                kernel(c, k)

            monkeypatch.setattr(series_module, name, counted)
        plan = plan_checks(None, 1000, 8, default_catalog())
        sums = {s.key: s for check in plan for s in check.inputs if s.key[0] == "glaisher"}
        assert sorted(sums) == [("glaisher", m, 1000) for m in range(2, 8)]
        values = {}
        for shared in sums.values():
            built(shared, values)
        assert passes == {"_geometric": 1946, "_one_minus": 880}

    def test_forms_row_reads_three_inputs_and_builds_no_series(self, monkeypatch):
        """The odd-parts product, the divide-by-2 sum and the triangular sum,
        keyed as the euler interpretations' profile sum, so a run shares it."""
        [forms] = [c for c in plan_checks(None, 200, 8, default_catalog()) if c.mode == "forms"]
        assert [shared.key for shared in forms.inputs] == [
            ("product", ResidueClass.nonzero(2), 200),
            ("glaisher", 2, 200),
            ("profile sum", TestRunScopedCounts.rules(entry("euler-staircase").profile), 200),
        ]
        values = [built(shared) for shared in forms.inputs]

        def must_not_build(series):
            raise AssertionError("the forms row made a series")

        monkeypatch.setattr(series_module.TruncatedSeries, "__post_init__", must_not_build)
        assert forms.call(*values) is None

    def test_each_nonzero_class_is_built_from_one_euler_product(self):
        """At the analytic order 1000 and at the counting bound 9 alike, and
        every other class from that and the all-parts series alone: no class
        of parts not divisible by d is built as a base of another."""
        inputs = product_inputs(plan_checks(None, 1000, 8, default_catalog()))
        assert sorted(key for key in inputs if key[0] == "euler") == [
            ("euler", 9), ("euler", 1000)
        ]
        moduli = {}
        for key, shared in inputs.items():
            if key[0] == "product":
                order = key[2]
                euler = inputs["euler", order]
                assert inputs["all parts", order].needs == (euler,)
                assert shared.needs == (inputs["all parts", order], euler), key
                if len(key[1].residues) == key[1].modulus - 1:
                    moduli.setdefault(order, set()).add(key[1].modulus)
        assert moduli == {1000: {2, 3, 4, 5, 6, 7}, 9: {2}}

    def test_numerator_passes_are_one_per_nonzero_term(self, monkeypatch):
        """At order 1000, E takes one pass per nonzero term after its
        constant, at the 50 generalized pentagonal numbers k(3k -+ 1)/2
        below 1000; each of the seven classes built from its numerator N
        takes one pass per such term of N, and one per nonzero term of N to
        multiply the all-parts series, 481 in all; none takes a (1-q^k) pass
        or the direct product.  Counts repeat exactly, so a return to a pass per
        factor (1-q^k), 333 for E and 783 for the seven, fails here."""
        passes = []
        add_times = series_module._add_times

        def counted(out, c, e, x):
            passes.append(e)
            add_times(out, c, e, x)

        def must_not_run(*args):
            raise AssertionError("a (1-q^k) pass or the direct product ran")

        monkeypatch.setattr(series_module, "_add_times", counted)
        monkeypatch.setattr(series_module, "_one_minus", must_not_run)
        monkeypatch.setattr(series_module, "product_side", must_not_run)
        inputs = product_inputs(plan_checks(None, 1000, 8, default_catalog()))
        values = {}
        euler = built(inputs["euler", 1000], values)
        pentagonal = {k * (3 * k + s) // 2 for k in range(1, 27) for s in (-1, 1)}
        assert sorted(passes) == sorted(e for e in pentagonal if e < 1000)
        assert len(passes) == 50
        assert [e for e, x in enumerate(euler.coefficients) if x] == [0, *sorted(passes)]
        built(inputs["all parts", 1000], values)
        numerators = [
            shared
            for key, shared in inputs.items()
            if key[0] == "product" and key[2] == 1000
            and len(key[1].residues) < key[1].modulus - 1
        ]
        assert len(numerators) == 7
        passes.clear()
        for shared in numerators:
            product = shared.build(*(values[need.key] for need in shared.needs))
            assert product == product_side(shared.key[1], 1000), shared.key
        assert len(passes) == 481


    def test_two_branch_profile_sums_pass_fewer_coefficients(self, monkeypatch):
        """Coefficients passed through the slot kernel, one nest for both
        branches against one per branch."""
        passed = []
        geometric = series_module._geometric

        def counted(c, k):
            passed.append(len(c))
            geometric(c, k)

        monkeypatch.setattr(series_module, "_geometric", counted)
        profiles = [e.profile for e in default_catalog().entries() if len(e.profile.branches) == 2]
        assert len(profiles) == 11
        for profile in profiles:
            passed.clear()
            merged = profile_series(profile, 300)
            together = sum(passed)
            passed.clear()
            sums = [
                sum_side_standard(b.declared_weight, b.slot_count, 300, start=b.n_min)
                for b in profile.branches
            ]
            assert merged == sums[0] + sums[1]
            assert together < 0.6 * sum(passed), profile.name


class TestRunScopedCounts:
    """Within one ``run_suite`` call each profile's chain counts at a weight
    bound are counted once, and each profile sum side is built once for its
    branch term rules."""

    ORDER, WEIGHT = 30, 13

    @staticmethod
    def rules(profile):
        return tuple((b.n_min, b.slots, b.min_weight) for b in profile.branches)

    def count_calls(self, monkeypatch):
        """Wrap ``profile_chain_counts`` by (profile, weight) and
        ``profile_series`` by (term rules, order) where ``qident.verify``
        calls them."""
        counted, summed = Counter(), Counter()
        chain_counts = verify_module.profile_chain_counts
        series = verify_module.profile_series

        def counting(profile, max_weight):
            counted[profile, max_weight] += 1
            return chain_counts(profile, max_weight)

        def summing(profile, order):
            summed[self.rules(profile), order] += 1
            return series(profile, order)

        monkeypatch.setattr(verify_module, "profile_chain_counts", counting)
        monkeypatch.setattr(verify_module, "profile_series", summing)
        return counted, summed

    def test_each_profile_is_counted_and_summed_once_per_run(self, monkeypatch):
        counted, summed = self.count_calls(monkeypatch)
        assert run_suite(None, self.ORDER, self.WEIGHT).passed
        entries = default_catalog().entries()
        # every entry is an interpretation, counted in its combinatorial row
        # and again in its equinumerosity group, if any, from one count
        assert counted == {(e.profile, self.WEIGHT): 1 for e in entries}
        assert set(summed.values()) == {1}
        # entries that share their term rules share one sum side
        rules = {self.rules(e.profile) for e in entries}
        assert len(rules) < len(entries)
        assert {key for key, _ in summed} <= rules
        assert {order for _, order in summed} == {self.ORDER, self.WEIGHT + 1}

    def test_conjugate_rows_count_no_chain(self, monkeypatch):
        import qident.partitions as partitions_module
        import qident.profiles as profiles_module

        def must_not_run(*args):
            raise AssertionError("a conjugate row counted a chain")

        for module in (verify_module, profiles_module, partitions_module):
            monkeypatch.setattr(module, "count_chain_by_weight", must_not_run, raising=False)
        names = [f"glaisher-{m}" for m in range(2, 8)]
        summary = run_suite(names, self.ORDER, self.WEIGHT)
        assert summary.passed
        assert sum(r.mode == "conjugate" for r in summary.reports) == 6


class TestSuite:
    def test_full_suite_at_default_bounds(self):
        summary = run_suite()
        assert summary.passed
        identities = {r.identity for r in summary.reports}
        assert {"rr2", "euler", "glaisher-2", "glaisher-7", "hirschhorn-3"} <= identities
        assert all(f"appendix-{c}" not in identities for c in "bcdef")  # primary names

    def test_empty_selection_gives_empty_summary(self):
        summary = run_suite([], 10, 5)
        assert summary.reports == ()
        assert summary.passed

    def test_empty_catalog_is_used_as_given(self):
        empty = loads_catalog('{"entries": []}')
        summary = run_suite(None, 20, 8, empty)
        assert len(summary.reports) == 25
        assert all(r.identity.startswith("glaisher-") for r in summary.reports)
        assert summary.passed
        missing = run_suite(["rr2"], 20, 8, empty)
        assert [(r.identity, r.mode, r.outcome) for r in missing.reports] == [
            ("rr2", "lookup", "error")
        ]

    def test_rows_come_from_the_plan_in_order(self):
        summary = run_suite(None, 60, 8)
        assert [(r.identity, r.mode, r.subject, r.bound) for r in summary.reports] == (
            plan_rows(plan_checks(None, 60, 8, default_catalog()))
        )
        assert summary.passed

    def test_unknown_name_listed_not_raised(self):
        summary = run_suite(["no-such-identity"], 10, 5)
        assert len(summary.reports) == 1
        assert summary.reports[0].outcome == "error"
        assert summary.has_error and not summary.has_mismatch

    def test_single_identity_selection(self):
        summary = run_suite(["rr2"], 30, 12)
        assert summary.passed
        assert {r.mode for r in summary.reports} == {
            "analytic",
            "combinatorial",
            "equinumerosity",
        }
        assert sum(r.mode == "equinumerosity" for r in summary.reports) == 1

    def test_alias_selects_identity(self):
        summary = run_suite(["appendix-f"], 30, 12)
        assert summary.passed
        assert all(r.identity == "hirschhorn-3" for r in summary.reports)

    def test_group_name_selects_equinumerosity(self):
        summary = run_suite(["rr2-interpretations"], 30, 12)
        assert summary.passed
        assert [r.mode for r in summary.reports] == ["equinumerosity"]

    def test_machine_lines_round_trip(self):
        summary = run_suite(["rr2"], 30, 10)
        for line in summary.machine_lines():
            payload = json.loads(line)
            assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == line

    def test_deterministic_output(self):
        a = run_suite(["euler", "rr2"], 30, 10)
        b = run_suite(["rr2", "euler"], 30, 10)
        assert a.machine_lines() == b.machine_lines()

        def untimed(summary):
            reports = (
                VerificationReport(
                    r.identity, r.mode, r.bound, r.outcome, r.subject, r.exponent, r.lhs,
                    r.rhs, r.note, elapsed=0.0,
                )
                for r in summary.reports
            )
            return SuiteSummary(tuple(reports))

        assert untimed(a).render_table() == untimed(b).render_table()

    def test_table_ends_with_the_shared_build_time(self):
        plan = plan_checks(["rr2"], 30, 10, default_catalog())
        shared, pending = set(), [x for c in plan for x in c.inputs]
        while pending:  # inputs and what they are built from, to any depth
            x = pending.pop()
            if x not in shared:
                shared.add(x)
                pending += x.needs
        summary = run_suite(["rr2"], 30, 10)
        assert len(summary.build_times) == len(shared)
        *_, passed, built = summary.render_table().splitlines()
        assert passed == f"{len(plan)}/{len(plan)} checks passed"
        assert built == f"{len(shared)} shared inputs built in {sum(summary.build_times):.2f}s"

    def test_groups_cover_catalog_pairs(self):
        groups = {
            c.identity: member_names(c)
            for c in plan_checks(None, 10, 5, default_catalog())
            if c.mode == "equinumerosity"
        }
        assert groups == {
            "rr2-interpretations": ("P2", "P3", "P4", "P5"),
            "euler-interpretations": ("euler-staircase", "euler-layers"),
            "example-family-interpretations": (
                "example-alternating",
                "example-exact-parts",
                "example-atmost-parts",
            ),
            "capparelli-1-6+subbarao-agarwal-1-4": (
                "capparelli-1-6",
                "subbarao-agarwal-1-4",
            ),
            "hirschhorn-1+subbarao-2-2": ("hirschhorn-1", "subbarao-2-2"),
            "hirschhorn-2+subbarao-2-1": ("hirschhorn-2", "subbarao-2-1"),
            "hirschhorn-3+subbarao-2-4": ("hirschhorn-3", "subbarao-2-4"),
            "hirschhorn-4+subbarao-2-3": ("hirschhorn-4", "subbarao-2-3"),
        }


def see_cpus(monkeypatch, count):
    """Let ``run_suite`` see ``count`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def merge_raises_at(monkeypatch, modulus):
    merge = verify_module.glaisher_inverse

    def fake(parts, m):
        if m == modulus:
            raise ValueError(f"merge fails at M = {m}")
        return merge(parts, m)

    monkeypatch.setattr(verify_module, "glaisher_inverse", fake)


class TestHelperProcess:
    """Where a second CPU is free, ``run_suite`` forks one helper that runs
    the rows reading no shared input; with one CPU, or without ``os.fork``,
    it runs them itself.  Either way the reports are the same, an exception
    leaves from the first row in plan order that raises it, and no process is
    left once the run is over."""

    ORDER, WEIGHT = 30, 13

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the helpers that ``run_suite`` forks."""
        made = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return made

    def settle(self, monkeypatch, forks, cpus):
        """The reports of one run on ``cpus`` CPUs, or the type and message of
        the exception it raised; either way no process is left, and a helper
        was forked exactly when there were two CPUs."""
        see_cpus(monkeypatch, cpus)
        forks.clear()
        try:
            result = run_suite(None, self.ORDER, self.WEIGHT).reports
        except Exception as exc:
            result = (type(exc), str(exc))
        assert_no_child_left()
        assert len(forks) == (cpus > 1)
        return result

    def test_reports_are_the_same_with_the_helper_and_without(self, monkeypatch, forks):
        two = self.settle(monkeypatch, forks, 2)
        one = self.settle(monkeypatch, forks, 1)
        # reports compare every field but ``elapsed``
        assert two == one
        assert all(r.passed for r in two)
        assert len(two) == len(plan_checks(None, self.ORDER, self.WEIGHT, default_catalog()))

    def test_a_helper_finding_crosses_the_pipe_intact(self, monkeypatch, forks):
        """This process's first row with inputs waits until the helper has
        run a ``bijection`` row, so the helper certifies at least one of the
        failing rows, which this process then does not run."""
        module, names, make_fake, _, _ = FAULTS["divide gives ascending images"]
        patch_everywhere(monkeypatch, module, names, make_fake)
        one = self.settle(monkeypatch, forks, 1)
        here, (certified, done) = os.getpid(), os.pipe()
        outcome, ran_here = verify_module._outcome, []

        def held(check, values):
            if os.getpid() != here:
                result = outcome(check, values)
                if check.mode == "bijection":
                    os.write(done, b".")
                return result
            if check.inputs and not ran_here and select([certified], [], [], 60)[0]:
                os.read(certified, 1)
            ran_here.append((check.identity, check.mode))
            return outcome(check, values)

        monkeypatch.setattr(verify_module, "_outcome", held)
        try:
            two = self.settle(monkeypatch, forks, 2)
        finally:
            os.close(certified)
            os.close(done)
        assert two == one
        failing = {(r.identity, r.mode) for r in two if not r.passed}
        assert failing == {(f"glaisher-{m}", "bijection") for m in range(2, 8)}
        assert failing - set(ran_here)
        assert all(r.note.startswith("image of ") for r in two if not r.passed)

    def test_more_free_rows_than_tickets_run_once_each(self, monkeypatch, forks):
        """3,000 unknown names make 3,000 ``lookup`` rows, more than a pipe
        of one page holds as 2-byte tickets, so tickets carry two rows."""
        names = [f"unknown-{k}" for k in range(3000)]
        see_cpus(monkeypatch, 2)
        reports = run_suite(names, 10, 5).reports
        assert len(forks) == 1
        assert_no_child_left()
        assert [(r.identity, r.mode, r.outcome) for r in reports] == [
            (name, "lookup", "error") for name in sorted(names)
        ]

    def test_without_fork_the_run_is_one_process(self, monkeypatch, forks):
        one = self.settle(monkeypatch, forks, 1)
        see_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert run_suite(None, self.ORDER, self.WEIGHT).reports == one
        assert_no_child_left()

    def test_a_row_that_raises_in_the_helper_raises_here(self, monkeypatch, forks):
        merge_raises_at(monkeypatch, 5)
        two = self.settle(monkeypatch, forks, 2)
        assert two == self.settle(monkeypatch, forks, 1) == (ValueError, "merge fails at M = 5")

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_a_row_that_raises_in_the_helper_exits_4(self, monkeypatch, capsys, cpus):
        merge_raises_at(monkeypatch, 5)
        see_cpus(monkeypatch, cpus)
        assert main(["verify", "all", "--max-weight", "8"]) == EXIT_DOMAIN
        assert capsys.readouterr() == ("", "error: merge fails at M = 5\n")
        assert_no_child_left()

    def test_a_build_that_raises_here_propagates(self, monkeypatch, forks):
        def no_euler(order):
            raise ValueError("no Euler product")

        monkeypatch.setattr(verify_module, "_euler", no_euler)
        two = self.settle(monkeypatch, forks, 2)
        assert two == self.settle(monkeypatch, forks, 1) == (ValueError, "no Euler product")

    @pytest.mark.parametrize(
        "modulus, first",
        [(3, (ArithmeticError, "sum fails at M = 3")), (7, (ValueError, "merge fails at M = 5"))],
        ids=["earlier-row-here", "earlier-row-in-the-helper"],
    )
    def test_the_first_row_in_plan_order_that_raises_wins(
        self, monkeypatch, forks, modulus, first
    ):
        """The ``glaisher-5`` bijection row raises, and the ``glaisher-M``
        analytic row, which this process runs, raises too: M = 3 comes before
        it in plan order, M = 7 after it."""
        merge_raises_at(monkeypatch, 5)
        glaisher_sum = verify_module._glaisher_sum

        def fake(m, order, tails):
            if m == modulus:
                raise ArithmeticError(f"sum fails at M = {m}")
            return glaisher_sum(m, order, tails)

        monkeypatch.setattr(verify_module, "_glaisher_sum", fake)
        two = self.settle(monkeypatch, forks, 2)
        assert two == self.settle(monkeypatch, forks, 1) == first

    def test_an_interrupt_here_kills_and_reaps_the_helper(self, monkeypatch, forks):
        def interrupted(order):
            raise KeyboardInterrupt

        monkeypatch.setattr(verify_module, "_euler", interrupted)
        see_cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_suite(None, self.ORDER, self.WEIGHT)
        assert len(forks) == 1
        assert_no_child_left()

class TestPlan:
    def test_full_plan_matches_reference_without_running(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("planning ran a check")

        for name in (
            "sum_side_glaisher",
            "profile_series",
            "profile_chain_counts",
            "count_bounded_gap_vectors",
            "count_partitions_with_parts",
            "certify_bijection",
        ):
            monkeypatch.setattr(verify_module, name, must_not_run)
        for module, name, _ in SHARED_BUILDS:
            monkeypatch.setattr(module, name, must_not_run)
        expected = []
        for line in (REFERENCE / "verify-all.txt").read_text().splitlines():
            record = json.loads(line)
            expected.append(
                (
                    record["identity"],
                    record["mode"],
                    record.get("subject", ""),
                    record["bound"],
                )
            )
        assert len(expected) == 70
        assert plan_rows(plan_checks(None, 60, 30, default_catalog())) == expected

    def test_every_shipped_name_resolves(self):
        plan = plan_checks(None, 10, 5, default_catalog())
        identities = {c.identity for c in plan if c.mode != "equinumerosity"}
        groups = {c.identity for c in plan if c.mode == "equinumerosity"}
        aliases = [f"appendix-{letter}" for letter in "abcdefghijklmn"]
        entry_names = [e.name for e in default_catalog().entries()]
        assert len(identities) == 22 and len(groups) == 8 and len(entry_names) == 22
        for name in sorted(identities | groups) + aliases + entry_names:
            checks = plan_checks([name], 10, 5, default_catalog())
            assert checks and all(c.mode != "lookup" for c in checks), name
        assert {c.identity for c in plan_checks(["appendix-a"], 10, 5, default_catalog())} == {
            "euler",
            "euler-interpretations",
        }

    def test_each_name_plans_rows_of_the_whole_plan(self):
        """Whatever one name selects is planned as ``all`` plans it: the same
        row, reading inputs of the same keys."""
        catalog = default_catalog()

        def rows(names):
            plan = plan_checks(names, 10, 5, catalog)
            keys = [tuple(shared.key for shared in c.inputs) for c in plan]
            return [(*row, key) for row, key in zip(plan_rows(plan), keys)]

        everything = rows(None)
        names = {"glaisher-2", "glaisher-3", "glaisher-4", "glaisher-5", "glaisher-6",
                 "glaisher-7"}
        names |= {row[0] for row in everything if row[1] == "equinumerosity"}
        for e in catalog.entries():
            names |= {e.identity or e.name, e.name, *e.aliases}
        # six moduli, eight groups, three shared labels, 22 entries, 14 aliases
        assert len(names) == 6 + 8 + 3 + 22 + 14
        for name in sorted(names):
            selected = rows([name])
            assert selected and set(selected) <= set(everything), name

    def test_unknown_names_are_planned_error_rows(self):
        plan = plan_checks(["nope", "rr2", "nope"], 10, 5, default_catalog())
        lookups = [c for c in plan if c.mode == "lookup"]
        assert [(c.identity, c.bound) for c in lookups] == [("nope", 0), ("nope", 0)]
        assert lookups[0].call() == Finding("unknown identity", error=True)

    def test_term_family_clone_joins_group(self):
        def add_clone(entries):
            clone = dict(next(e for e in entries if e["name"] == "P2"))
            clone.pop("identity")
            entries.append({**clone, "name": "P2-clone"})

        catalog = edited_catalog(add_clone)
        groups = {
            c.identity: member_names(c)
            for c in plan_checks(None, 10, 5, catalog)
            if c.mode == "equinumerosity"
        }
        assert groups["rr2+P2-clone"] == ("P2", "P3", "P4", "P5", "P2-clone")
        assert "rr2-interpretations" not in groups
        summary = run_suite(["rr2+P2-clone"], 20, 12, catalog)
        assert summary.passed
        assert [r.mode for r in summary.reports] == ["equinumerosity"]

    def test_shared_label_makes_one_identity(self):
        def label_pair(entries):
            for entry in entries:
                if entry["name"] in ("hirschhorn-3", "subbarao-2-4"):
                    entry["identity"] = "h3-pair"

        catalog = edited_catalog(label_pair)
        plan = plan_checks(["appendix-n"], 30, 12, catalog)
        assert plan_rows(plan) == [
            ("h3-pair", "analytic", "", 30),
            ("h3-pair", "combinatorial", "hirschhorn-3", 12),
            ("h3-pair", "combinatorial", "subbarao-2-4", 12),
            ("h3-pair-interpretations", "equinumerosity", "", 12),
        ]
        assert plan_rows(plan_checks(["appendix-f"], 30, 12, catalog)) == plan_rows(plan)
        assert run_suite(["h3-pair"], 30, 12, catalog).passed

    def test_two_term_families_in_one_identity_get_distinct_names(self):
        def label_pair(entries):
            for entry in entries:
                if entry["name"] in (
                    "hirschhorn-3", "subbarao-2-4", "hirschhorn-4", "subbarao-2-3"
                ):
                    entry["identity"] = "pair"

        catalog = edited_catalog(label_pair)
        groups = {
            c.identity: member_names(c)
            for c in plan_checks(["pair"], 30, 12, catalog)
            if c.mode == "equinumerosity"
        }
        assert groups == {
            "pair-interpretations-1": ("hirschhorn-3", "subbarao-2-4"),
            "pair-interpretations-2": ("hirschhorn-4", "subbarao-2-3"),
        }
        for name, members in groups.items():
            plan = plan_checks([name], 30, 12, catalog)
            assert [(c.identity, c.mode, member_names(c)) for c in plan] == [
                (name, "equinumerosity", members)
            ]
            assert run_suite([name], 30, 12, catalog).passed


class TestIndependenceOfPipelines:
    """The analytic route (series algebra) and the combinatorial route
    (exhaustive enumeration) must not share counting code."""

    def test_partitions_module_uses_no_series_arithmetic(self):
        import ast
        import inspect

        import qident.partitions as partitions_module

        tree = ast.parse(inspect.getsource(partitions_module))
        imported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and "series" in node.module:
                imported.update(alias.name for alias in node.names)
        # the only allowed crossover is the ResidueClass data type
        assert imported == {"ResidueClass"}

    def test_series_module_never_imports_enumeration(self):
        import ast
        import inspect

        import qident.series as series_module

        tree = ast.parse(inspect.getsource(series_module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module is None or "partitions" not in node.module
            if isinstance(node, ast.Import):
                assert all("partitions" not in alias.name for alias in node.names)
