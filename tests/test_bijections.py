"""The three explicit maps and their exhaustive certification."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qident
from qident.bijections import (
    BijectionRecord,
    certify_bijection,
    glaisher_forward,
    glaisher_forward_steps,
    glaisher_inverse,
    glaisher_inverse_steps,
    profile_bijection,
    rr2_forward,
    rr2_inverse,
    rr2_record,
    rr2_step_c,
    weight_relation_check,
)
from qident.partitions import (
    ChainConstraint,
    GapBound,
    Partition,
    chain_violation,
    enumerate_chain,
)
from qident.profiles import default_catalog, profile_to_chain
from qident.series import ResidueClass

from oracles import (
    enumerate_partitions_with_parts,
    glaisher_divide,
    glaisher_merge,
    no_part_divisible,
    partitions_repetition_bounded,
    repetition_bounded,
)

RR2 = ResidueClass(5, frozenset({2, 3}))


class TestProfileBijection:
    def test_staircase_to_layers_worked_example(self):
        staircase = default_catalog().lookup("euler-staircase").profile
        layers = default_catalog().lookup("euler-layers").profile
        image = profile_bijection((7, 6, 4, 2, 1), staircase, layers, 5)
        assert image == (11, 7, 2, 0, 0)

    def test_identity_when_profiles_equal(self):
        p2 = default_catalog().lookup("P2").profile
        assert profile_bijection((9, 5, 2), p2, p2, 3) == (9, 5, 2)

    def test_exact_to_atmost(self):
        p3 = default_catalog().lookup("P3").profile
        p4 = default_catalog().lookup("P4").profile
        assert profile_bijection((5, 1), p3, p4, 2) == (6, 0)
        assert chain_violation((6, 0), profile_to_chain(p4, 2)) is None

    def test_rejects_chain_violation(self):
        p3 = default_catalog().lookup("P3").profile
        p4 = default_catalog().lookup("P4").profile
        with pytest.raises(ValueError):
            profile_bijection((3, 3), p3, p4, 2)

    def test_rejects_slot_mismatch(self):
        p2 = default_catalog().lookup("P2").profile
        alternating = default_catalog().lookup("example-alternating").profile
        with pytest.raises(ValueError):
            profile_bijection((4, 2), p2, alternating, 2)

    @pytest.mark.parametrize(
        "source,target",
        [
            ("P2", "P3"),
            ("P2", "P4"),
            ("P2", "P5"),
            ("P3", "P4"),
            ("P3", "P5"),
            ("P4", "P5"),
            ("euler-staircase", "euler-layers"),
            ("example-alternating", "example-exact-parts"),
            ("example-alternating", "example-atmost-parts"),
            ("capparelli-1-6", "subbarao-agarwal-1-4"),
            ("hirschhorn-1", "subbarao-2-2"),
            ("hirschhorn-2", "subbarao-2-1"),
            ("hirschhorn-3", "subbarao-2-4"),
            ("hirschhorn-4", "subbarao-2-3"),
        ],
    )
    def test_two_sided_inverse_over_chain_sets(self, source, target):
        src = default_catalog().lookup(source).profile
        tgt = default_catalog().lookup(target).profile
        for index in range(1, 7):
            src_chain = profile_to_chain(src, index)
            tgt_chain = profile_to_chain(tgt, index)
            src_offsets = src.offsets_at(index)
            tgt_offsets = tgt.offsets_at(index)
            weight_shift = sum(tgt_offsets) - sum(src_offsets)
            for weight in range(sum(src_offsets), 26):
                for vector in enumerate_chain(src_chain, weight):
                    image = profile_bijection(vector, src, tgt, index)
                    assert chain_violation(image, tgt_chain) is None
                    assert sum(image) == weight + weight_shift
                    # base vector is preserved, so swapping back inverts
                    assert profile_bijection(image, tgt, src, index) == vector


class TestRR2Map:
    @pytest.mark.parametrize(
        "parts,expected_c,expected_b",
        [((2,), (2,), (2,)), ((7,), (4,), (4,)), ((3, 2), (6, 1), (5, 2))],
    )
    def test_worked_examples(self, parts, expected_c, expected_b):
        p = Partition.of(parts)
        assert rr2_step_c(p) == expected_c
        assert rr2_forward(p) == expected_b
        assert rr2_inverse(expected_b) == p

    def test_weight_relation_examples(self):
        assert rr2_record(Partition.of([7])).image_weight == 4
        assert rr2_record(Partition.of([3, 2])).image_weight == 7
        assert weight_relation_check(rr2_record(Partition.of([7])))
        assert weight_relation_check(rr2_record(Partition.of([2])))

    def test_corrupted_record_fails_relation(self):
        record = rr2_record(Partition.of([3, 2]))
        tampered = BijectionRecord(
            source=record.source,
            image=(record.image[0] + 1,) + record.image[1:],
            term_index=record.term_index,
            source_weight=record.source_weight,
            image_weight=record.image_weight + 1,
        )
        assert not weight_relation_check(tampered)

    def test_rejects_wrong_residues(self):
        with pytest.raises(ValueError):
            rr2_forward(Partition.of([5, 2]))
        with pytest.raises(ValueError):
            rr2_forward(Partition.of([4]))

    def test_inverse_rejects_chain_violation(self):
        with pytest.raises(ValueError):
            rr2_inverse((4, 3))  # difference 1 < 2
        with pytest.raises(ValueError):
            rr2_inverse((5, 1))  # terminal 1 < 2

    def test_part_map_is_increasing_on_allowed_values(self):
        allowed = [v for v in range(1, 200) if v % 5 in (2, 3)]
        images = [2 * (v // 5) + v % 5 - 1 for v in allowed]
        assert images == sorted(images)
        assert len(set(images)) == len(images)

    def test_intermediate_chain_holds(self):
        for weight in range(1, 26):
            for p in enumerate_partitions_with_parts(RR2, weight):
                n = len(p)
                c = rr2_step_c(p)
                chain = ChainConstraint(
                    (GapBound(n * n),) + (GapBound(0),) * (n - 2) if n > 1 else (),
                    GapBound(1),
                )
                assert chain_violation(c, chain) is None, (p, c)

    def test_certified_to_weight_30(self):
        for weight in range(31):
            for p in enumerate_partitions_with_parts(RR2, weight):
                n = len(p)
                image = rr2_forward(p)
                assert len(image) == n
                if n:
                    chain = ChainConstraint((GapBound(2),) * (n - 1), GapBound(2))
                    assert chain_violation(image, chain) is None
                assert rr2_inverse(image) == p
                assert weight_relation_check(rr2_record(p))

    def test_inverse_floor_recovers_fifths(self):
        # k_s computed inside the inverse must equal floor(a_s/5)
        for weight in range(1, 31):
            for p in enumerate_partitions_with_parts(RR2, weight):
                n = len(p)
                image = rr2_forward(p)
                for s, value in enumerate(image, start=1):
                    delta = n * n if s == 1 else 0
                    pi_first = n * n + 1 if s == 1 else 1
                    pi_classical = 2 * (n + 1 - s)
                    k = (value - 1 - delta - pi_classical + pi_first) // 2
                    assert k == p.parts[s - 1] // 5


class TestGlaisherMaps:
    def test_forward_worked_example_with_steps(self):
        steps = glaisher_forward_steps(Partition.of([7, 6, 4, 2, 1]), 2)
        assert [s.parts for s in steps] == [
            (7, 6, 4, 2, 1),
            (7, 3, 3, 2, 2, 1, 1, 1),
            (7, 3, 3, 1, 1, 1, 1, 1, 1, 1),
        ]

    def test_inverse_worked_example_with_steps(self):
        steps = glaisher_inverse_steps(Partition.of([7, 3, 3, 1, 1, 1, 1, 1, 1, 1]), 2)
        assert [s.parts for s in steps] == [
            (7, 3, 3, 1, 1, 1, 1, 1, 1, 1),
            (7, 6, 2, 2, 2, 1),
            (7, 6, 4, 2, 1),
        ]

    def test_modulus_three_example(self):
        image = glaisher_forward((9, 2), 3)
        assert image == (2,) + (1,) * 9
        assert sum(image) == 11
        assert glaisher_inverse(image, 3) == (9, 2)

    def test_forward_confluence_one_part_at_a_time(self):
        # rewriting a single divisible part per step reaches the same fixed point
        def one_at_a_time(p: Partition, modulus: int) -> tuple[int, ...]:
            parts = list(p.parts)
            while True:
                for i, part in enumerate(parts):
                    if part % modulus == 0:
                        parts[i : i + 1] = [part // modulus] * modulus
                        parts.sort(reverse=True)
                        break
                else:
                    return Partition(tuple(parts)).parts

        for modulus in (2, 3):
            for weight in range(1, 16):
                for p in partitions_repetition_bounded(weight, modulus):
                    assert glaisher_forward(p.parts, modulus) == one_at_a_time(p, modulus)

    @pytest.mark.parametrize("modulus", (2, 3, 4, 5))
    def test_weight_preserved_and_images_valid(self, modulus):
        def assert_valid_steps(steps):
            for step in steps:
                assert Partition(step.parts) == step
                assert step.weight == sum(step.parts)

        for weight in range(1, 21):
            for p in partitions_repetition_bounded(weight, modulus):
                steps = glaisher_forward_steps(p, modulus)
                assert_valid_steps(steps)
                image = steps[-1]
                assert image.weight == p.weight
                assert no_part_divisible(image, modulus)
            coprime = ResidueClass.nonzero(modulus)
            for p in enumerate_partitions_with_parts(coprime, weight):
                steps = glaisher_inverse_steps(p, modulus)
                assert_valid_steps(steps)
                back = steps[-1]
                assert back.weight == p.weight
                assert all(
                    back.parts.count(v) < modulus for v in set(back.parts)
                )
                assert glaisher_forward(back.parts, modulus) == p.parts

    def test_modulus_validation(self):
        # every part is divisible by 1, and -2 divides as 2 does, so a map
        # that took such a modulus would divide or merge without end; 0
        # divides nothing
        for call in (
            "glaisher_forward((2,), m)", "glaisher_forward((4, 2, 1), m)",
            "glaisher_inverse((3, 3), m)", "glaisher_inverse((2, 1), m)",
        ):
            assert errors_of(call, (1, 0, -2)) == ["modulus must be at least 2"] * 3, call


random_partitions = st.lists(st.integers(1, 40), max_size=14).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)
moduli = st.integers(2, 7)
MODULI = range(2, 8)


def assert_valid_partition(p: Partition) -> None:
    assert Partition(p.parts) == p
    assert p.weight == sum(p.parts)


class TestGlaisherProperties:
    @given(random_partitions, moduli)
    def test_one_pass_maps_equal_last_step(self, p, modulus):
        """The maps that ``verify`` certifies give the image that ``qident
        bijection`` prints; the steps only supply the lines before it."""
        forward_steps = glaisher_forward_steps(p, modulus)
        inverse_steps = glaisher_inverse_steps(p, modulus)
        assert glaisher_forward(p.parts, modulus) == forward_steps[-1].parts
        assert glaisher_inverse(p.parts, modulus) == inverse_steps[-1].parts

    @given(random_partitions, moduli)
    def test_round_trips(self, p, modulus):
        forward = Partition(glaisher_forward(p.parts, modulus))
        inverse = Partition(glaisher_inverse(p.parts, modulus))
        for image in (forward, inverse):
            assert image.weight == p.weight
            assert_valid_partition(image)
        assert no_part_divisible(forward, modulus)
        assert repetition_bounded(inverse, modulus)
        # both maps keep, for every root r not divisible by M, the total
        # sum of M^k over the parts r*M^k, which fixes each image
        assert glaisher_forward(inverse.parts, modulus) == forward.parts
        assert glaisher_inverse(forward.parts, modulus) == inverse.parts
        if repetition_bounded(p, modulus):
            assert inverse == p
        if no_part_divisible(p, modulus):
            assert forward == p


@st.composite
def merge_inputs(draw):
    """A modulus and a part tuple for the merge.  Its runs are those of a
    fixed point (distinct values not divisible by M, each fewer than M
    times) or arbitrary ones, whose lengths include exactly M-1 and M and
    whose values may be divisible by M.  The parts come in decreasing order,
    shuffled, or decreasing but for one swapped pair of unequal neighbours."""
    modulus = draw(moduli)
    if draw(st.booleans()):
        values = st.integers(1, 40).filter(lambda v: v % modulus)
        counts = st.integers(1, modulus - 1)
        runs = draw(st.dictionaries(values, counts, max_size=8)).items()
    else:
        lengths = st.integers(1, 2 * modulus) | st.sampled_from((modulus - 1, modulus))
        runs = draw(st.lists(st.tuples(st.integers(1, 40), lengths), max_size=8))
    parts = sorted((v for v, c in runs for _ in range(c)), reverse=True)
    order = draw(st.sampled_from(("decreasing", "shuffled", "swapped")))
    if order == "shuffled":
        parts = draw(st.permutations(parts))
    elif order == "swapped":
        steps = [i for i in range(len(parts) - 1) if parts[i] != parts[i + 1]]
        if steps:
            i = draw(st.sampled_from(steps))
            parts[i], parts[i + 1] = parts[i + 1], parts[i]
    return tuple(parts), modulus


class TestGlaisherMerge:
    """The merge returns a fixed point unchanged; on every tuple, sorted or
    not, it must give exactly what a merge that always rebuilds gives."""

    @given(merge_inputs())
    def test_equals_the_rebuilding_merge(self, case):
        parts, modulus = case
        assert glaisher_inverse(parts, modulus) == glaisher_merge(parts, modulus)

    @pytest.mark.parametrize("modulus", MODULI)
    def test_pinned_cases(self, modulus):
        assert glaisher_inverse((1, 2), modulus) == (2, 1)
        assert glaisher_inverse((1,) * modulus, modulus) == (modulus,)
        assert glaisher_inverse((1,) * (modulus - 1), modulus) == (1,) * (modulus - 1)

    @pytest.mark.parametrize("modulus", MODULI)
    def test_fixed_points_come_back_as_given(self, modulus):
        for weight in range(13):
            for p in partitions_repetition_bounded(weight, modulus):
                if no_part_divisible(p, modulus):
                    assert glaisher_inverse(p.parts, modulus) is p.parts

    @given(merge_inputs())
    def test_comes_back_as_given_exactly_on_fixed_points(self, case):
        """Sorted or not: the very tuple comes back when the parts are weakly
        decreasing with no part divisible by M and no M copies of a part,
        and a new tuple otherwise."""
        parts, modulus = case
        fixed = (
            list(parts) == sorted(parts, reverse=True)
            and all(part % modulus for part in parts)
            and all(parts.count(part) < modulus for part in parts)
        )
        assert (glaisher_inverse(parts, modulus) is parts) == fixed


class TestGlaisherDivide:
    """The divide map returns a fixed point unchanged; on every tuple, sorted
    or not, it must give exactly what a one-part-at-a-time rewrite gives."""

    @given(merge_inputs())
    def test_equals_the_rewriting_divide(self, case):
        parts, modulus = case
        assert glaisher_forward(parts, modulus) == glaisher_divide(parts, modulus)

    @pytest.mark.parametrize("modulus", MODULI)
    def test_pinned_cases(self, modulus):
        assert glaisher_forward((1, 2 * modulus + 1), modulus) == (2 * modulus + 1, 1)
        assert glaisher_forward((modulus,), modulus) == (1,) * modulus
        assert glaisher_forward((1, modulus), modulus) == (1,) * (modulus + 1)
        assert glaisher_forward((), modulus) == ()

    @pytest.mark.parametrize("modulus", MODULI)
    def test_fixed_points_come_back_as_given(self, modulus):
        for weight in range(13):
            for p in partitions_repetition_bounded(weight, modulus):
                if no_part_divisible(p, modulus):
                    assert glaisher_forward(p.parts, modulus) is p.parts
                else:
                    assert glaisher_forward(p.parts, modulus) == glaisher_divide(
                        p.parts, modulus
                    )


def errors_of(call, moduli):
    """The ``ValueError`` messages of ``call`` at each modulus ``m`` of
    ``moduli``, run in a process of its own under a timeout, so that a map
    that loops fails the test instead of hanging it."""
    script = (
        "from qident.bijections import glaisher_forward, glaisher_inverse\n"
        f"for m in {tuple(moduli)!r}:\n"
        "    try:\n"
        f"        {call}\n"
        "    except ValueError as error:\n"
        "        print(error)\n"
    )
    src = str(Path(qident.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stderr) == (0, "")
    return run.stdout.splitlines()


class TestZeroPart:
    """0 is divisible by every power of M, so a map that divided or merged
    it as any other divisible part would never stop."""

    @pytest.mark.parametrize(
        "call",
        ["glaisher_forward((0,), m)", "glaisher_forward((3, 1, 0), m)",
         "glaisher_inverse((0,), m)", "glaisher_inverse((1, 0), m)",
         "glaisher_inverse((0, 0, 1), m)"],
    )
    def test_raises_value_error_naming_the_part(self, call):
        lines = errors_of(call, range(2, 8))
        assert len(lines) == 6
        assert all(line.startswith("part 0 has no fixed point") for line in lines)


rr2_partitions = st.lists(
    st.builds(lambda k, r: 5 * k + r, st.integers(0, 12), st.sampled_from((2, 3))),
    max_size=12,
).map(lambda parts: Partition(tuple(sorted(parts, reverse=True))))


class TestRR2Properties:
    @given(rr2_partitions)
    def test_inverse_undoes_forward_and_weights_relate(self, p):
        assert rr2_inverse(rr2_forward(p)) == p
        assert weight_relation_check(rr2_record(p))


def one_class(domain):
    """Every element of ``domain`` in class 0."""
    return [(0, x) for x in domain]


class TestCertify:
    def test_distinct_vs_odd_at_weight_ten(self):
        domain = partitions_repetition_bounded(10, 2)
        target = enumerate_partitions_with_parts(ResidueClass.nonzero(2), 10)
        report = certify_bijection(
            one_class(p.parts for p in domain),
            lambda parts: glaisher_forward(parts, 2),
            lambda parts: glaisher_inverse(parts, 2),
            lambda k, parts: no_part_divisible(Partition(parts), 2),
            target_sizes=[len(target)],
        )
        assert report.ok
        assert report.domain_size == report.target_size == 10

    def test_one_shot_generator_domain_streams(self):
        domain = partitions_repetition_bounded(12, 3)
        pulled = []

        def once():
            for p in domain:
                pulled.append(p)
                yield 0, p.parts

        def certify(items):
            return certify_bijection(
                items,
                lambda parts: glaisher_forward(parts, 3),
                lambda parts: glaisher_inverse(parts, 3),
                lambda k, parts: no_part_divisible(Partition(parts), 3),
                target_sizes=[
                    len(enumerate_partitions_with_parts(ResidueClass.nonzero(3), 12))
                ],
            )

        stream = once()
        streamed = certify(stream)
        assert streamed == certify(one_class(p.parts for p in domain))
        assert streamed.ok and streamed.domain_size == len(domain)
        assert pulled == domain
        assert next(stream, None) is None

    def test_failure_still_counts_whole_domain(self):
        listed = certify_bijection(
            one_class([4, 3, 2, 1]), lambda x: 0, lambda y: y, lambda k, y: True, [4]
        )
        streamed = certify_bijection(
            iter(one_class([4, 3, 2, 1])), lambda x: 0, lambda y: y, lambda k, y: True, [4]
        )
        assert not streamed.ok
        assert streamed == listed
        assert streamed.domain_size == 4

    def test_empty_domain_passes_vacuously(self):
        report = certify_bijection([], lambda x: x, lambda x: x, lambda k, x: True, [])
        assert report.ok
        assert report.domain_size == report.target_size == 0

    def test_detects_non_injective(self):
        report = certify_bijection(
            one_class([2, 1]), lambda x: 0, lambda y: 1, lambda k, y: True, [2]
        )
        assert not report.ok
        assert "round trip" in report.failure or "injective" in report.failure

    def test_detects_wrong_target(self):
        report = certify_bijection(
            one_class([2, 1]),
            lambda x: x,
            lambda y: y,
            lambda k, y: True,
            target_sizes=[3],
        )
        assert not report.ok
        assert (report.domain_size, report.target_size) == (2, 3)
        # no element is at fault, so the note gives both counts and no witness
        assert report.failure == "domain has 2 elements, target has 3"

    def test_repeated_domain_element_is_named(self):
        # a repeat keeps every round trip and the count of the duplicated
        # domain [3, 2, 2] equal to a target of size 3
        report = certify_bijection(
            one_class([3, 2, 2]), lambda x: x, lambda y: y, lambda k, y: True,
            target_sizes=[3],
        )
        assert not report.ok
        assert report.domain_size == 3
        assert report.failure == "domain is not strictly decreasing: 2 after 2"

    def test_ascending_domain_fails(self):
        report = certify_bijection(
            one_class([1, 2]), lambda x: x, lambda y: y, lambda k, y: True, [2]
        )
        assert report.failure == "domain is not strictly decreasing: 2 after 1"

    def test_weight_changing_map_fails_target_predicate(self):
        # one more part of size 1 round-trips, keeps parts odd and leaves the
        # count alone; only the weight in the target predicate catches it
        domain = partitions_repetition_bounded(6, 2)
        report = certify_bijection(
            one_class(domain),
            lambda p: Partition(glaisher_forward(p.parts, 2) + (1,)),
            lambda q: Partition(glaisher_inverse(q.parts[:-1], 2)),
            lambda k, q: q.weight == 6 and no_part_divisible(q, 2),
            target_sizes=[
                len(enumerate_partitions_with_parts(ResidueClass.nonzero(2), 6))
            ],
        )
        assert not report.ok
        assert report.failure == "image of [6] fails the target predicate: [3,3,1]"

    def test_part_tuples_are_named_in_bracketed_form(self):
        report = certify_bijection(
            one_class([(2,), (1, 1)]), lambda x: x[:1], lambda y: y, lambda k, y: True, [2]
        )
        assert report.failure == "inverse round trip failed for [1,1]: got [1] via [1]"
