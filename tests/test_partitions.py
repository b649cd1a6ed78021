"""Partition values, chains, and the enumeration oracles."""

from functools import lru_cache
from itertools import product as cartesian

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident.partitions import (
    ChainConstraint,
    GapBound,
    Partition,
    repetition_bounded_walk,
    chain_violation,
    conjugate,
    count_bounded_gap_vectors,
    count_chain_by_weight,
    count_partitions_with_parts,
    enumerate_chain,
    parse_partition,
)
from qident.profiles import default_catalog, profile_to_chain
from qident.series import ResidueClass

from oracles import (
    chain_vectors,
    enumerate_partitions,
    enumerate_partitions_with_parts,
    no_part_divisible,
    partitions_repetition_bounded,
    repetition_bounded,
)

RR2 = ResidueClass(5, frozenset({2, 3}))
ODD = ResidueClass(2, frozenset({1}))


@lru_cache(maxsize=None)
def all_partitions(weight: int) -> list[Partition]:
    """``enumerate_partitions(weight)``, listed once per weight for the
    property tests that filter it."""
    return enumerate_partitions(weight)


def lower_gaps(lowers, terminal: int) -> ChainConstraint:
    """The chain with lower bounds ``lowers`` on its gaps and ``terminal`` on
    its last entry, and no upper bounds."""
    return ChainConstraint(tuple(GapBound(g) for g in lowers), GapBound(terminal))


def assert_valid(p: Partition) -> None:
    """``p`` passes the public constructor's checks and carries its own sum."""
    assert Partition(p.parts) == p
    assert p.weight == sum(p.parts)


class TestPartition:
    def test_weight_and_len(self):
        p = Partition.of([7, 6, 4, 2, 1])
        assert p.weight == 20
        assert len(p) == 5

    def test_empty_is_weight_zero(self):
        assert Partition(()).weight == 0
        assert str(Partition(())) == "[]"

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_from_vector_trims_trailing_zeros(self):
        assert Partition.from_vector((5, 2, 0, 0)).parts == (5, 2)
        assert Partition.from_vector((0, 0)).parts == ()

    def test_str_round_trip(self):
        p = Partition.of([7, 3, 3, 1])
        assert parse_partition(str(p)) == p

    def test_parse_rejects_bad_literals(self):
        with pytest.raises(ValueError):
            parse_partition("7,6")
        with pytest.raises(ValueError):
            parse_partition("[1,2]")
        with pytest.raises(ValueError):
            parse_partition("[a]")


class TestConjugate:
    def test_empty(self):
        assert conjugate(()) == ()

    def test_hand_example(self):
        assert conjugate((3, 1)) == (2, 1, 1)

    def test_involution_and_weight_preserved(self):
        for weight in range(26):
            for p in enumerate_partitions(weight):
                q = Partition(conjugate(p.parts))
                assert_valid(p)
                assert_valid(q)
                assert q.weight == p.weight
                assert conjugate(q.parts) == p.parts


class TestChains:
    def test_satisfies_worked_examples(self):
        chain = lower_gaps((1, 0, 1, 0, 1), 1)
        assert chain_violation((7, 3, 3, 2, 2, 1), chain) is None
        steep = lower_gaps((9, 0, 0, 0, 0), 1)
        assert chain_violation((13, 1, 1, 1, 1, 1), steep) is None

    def test_gap_violation(self):
        chain = lower_gaps((1,), 0)
        assert chain_violation((2, 2), chain) is not None
        assert "slots 1 and 2" in chain_violation((2, 2), chain)

    def test_length_mismatch_is_error(self):
        chain = lower_gaps((1,), 0)
        with pytest.raises(ValueError):
            chain_violation((1, 1, 1), chain)

    def test_gap_bound_validation(self):
        with pytest.raises(ValueError):
            GapBound(-1)
        with pytest.raises(ValueError):
            GapBound(3, 2)

    def test_bounded_gap(self):
        bound = GapBound(1, 3)
        assert not bound.admits(0)
        assert bound.admits(1) and bound.admits(3)
        assert not bound.admits(4)


class TestEnumerateChain:
    def test_alternating_example_weight_18(self):
        chain = lower_gaps((1, 0, 1, 0, 1), 1)
        assert enumerate_chain(chain, 18) == [
            (7, 3, 3, 2, 2, 1),
            (6, 4, 3, 2, 2, 1),
            (5, 4, 4, 2, 2, 1),
        ]

    def test_steep_atmost_example_weight_18(self):
        chain = lower_gaps((15, 0, 0, 0, 0), 0)
        assert enumerate_chain(chain, 18) == [
            (18, 0, 0, 0, 0, 0),
            (17, 1, 0, 0, 0, 0),
            (16, 1, 1, 0, 0, 0),
        ]

    def test_weight_zero(self):
        lax = lower_gaps((0, 0), 0)
        assert enumerate_chain(lax, 0) == [(0, 0, 0)]
        strict = lower_gaps((0, 0), 1)
        assert enumerate_chain(strict, 0) == []

    def test_results_satisfy_chain_and_weight(self):
        chain = lower_gaps((2, 2, 0), 2)
        for weight in range(30):
            seen = set()
            for vector in enumerate_chain(chain, weight):
                assert chain_violation(vector, chain) is None
                assert sum(vector) == weight
                assert vector not in seen
                seen.add(vector)

    def test_lexicographically_decreasing_order(self):
        chain = lower_gaps((0, 0, 0), 0)
        vectors = enumerate_chain(chain, 9)
        assert vectors == sorted(vectors, reverse=True)

    def test_bounded_chain_glaisher_example(self):
        # differences in [0,1], last entry exactly 1: weight 3 leaves (2,1)
        chain = ChainConstraint((GapBound(0, 1),), GapBound(1, 1))
        assert enumerate_chain(chain, 3) == [(2, 1)]

    def test_bounded_chain_matches_filter_oracle(self):
        chain = ChainConstraint((GapBound(0, 2),) * 2, GapBound(1, 2))
        for weight in range(20):
            brute = [
                (a, b, c)
                for a in range(weight + 1)
                for b in range(weight + 1)
                for c in range(weight + 1)
                if a + b + c == weight
                and 0 <= a - b <= 2
                and 0 <= b - c <= 2
                and 1 <= c <= 2
            ]
            assert enumerate_chain(chain, weight) == sorted(brute, reverse=True)

    def test_single_slot_counts(self):
        chain = ChainConstraint((), GapBound(1))
        assert count_chain_by_weight(chain, 5) == [0, 1, 1, 1, 1, 1]

    def test_alternating_chain_count_at_18(self):
        chain = lower_gaps((1, 0, 1, 0, 1), 1)
        assert count_chain_by_weight(chain, 18)[18] == 3

    def test_matches_brute_force_over_mixed_bound_chains(self):
        # differential oracle: filter the full vector space directly
        chains = []
        for gaps, terminal in [
            (((0, None), (2, 3)), (1, None)),
            (((1, 1), (0, 2)), (0, 0)),
            (((3, None), (0, None)), (2, 4)),
            (((0, 1), (1, 2), (0, 0)), (1, 2)),
            (((2, 2),), (0, None)),
        ]:
            chains.append(
                ChainConstraint(
                    tuple(GapBound(lo, hi) for lo, hi in gaps),
                    GapBound(*terminal),
                )
            )
        for chain in chains:
            m = chain.slots
            for weight in range(11):
                brute = sorted(
                    (
                        v
                        for v in cartesian(range(weight + 1), repeat=m)
                        if sum(v) == weight and chain_violation(v, chain) is None
                    ),
                    reverse=True,
                )
                assert enumerate_chain(chain, weight) == brute, (chain, weight)

    def test_shipped_chains_list_as_the_recursive_reference(self):
        """Every shipped family at every index with at most 8 slots, at
        every weight to 14: the same vectors in the same order."""
        chains = 0
        for entry in default_catalog().entries():
            for index in range(1, 9):
                try:
                    chain = profile_to_chain(entry.profile, index)
                except ValueError:  # below the family's first index, or no slots
                    continue
                if chain.slots > 8:
                    break
                chains += 1
                for weight in range(15):
                    assert enumerate_chain(chain, weight) == chain_vectors(chain, weight), (
                        entry.name, index, weight,
                    )
        assert chains == 154


gap_bounds = st.integers(0, 3).flatmap(
    lambda lower: st.builds(
        GapBound, st.just(lower), st.none() | st.integers(lower, lower + 3)
    )
)
chains = st.builds(
    ChainConstraint, st.lists(gap_bounds, max_size=3).map(tuple), gap_bounds
)
# lower gaps of 0 next to large ones, each with or without an upper bound
irregular_gap_bounds = st.sampled_from((0, 0, 1, 4, 7)).flatmap(
    lambda lower: st.builds(
        GapBound, st.just(lower), st.none() | st.integers(lower, lower + 4)
    )
)
irregular_chains = st.builds(
    ChainConstraint,
    st.lists(irregular_gap_bounds, min_size=1, max_size=4).map(tuple),
    irregular_gap_bounds,
)
residue_classes = st.integers(2, 8).flatmap(
    lambda modulus: st.builds(
        ResidueClass,
        st.just(modulus),
        st.frozensets(st.integers(1, modulus - 1), min_size=1),
    )
)


class TestChainProperties:
    @given(chains, st.integers(0, 9))
    def test_enumeration_matches_brute_force(self, chain, max_weight):
        by_weight = {w: [] for w in range(max_weight + 1)}
        for v in cartesian(range(max_weight + 1), repeat=chain.slots):
            if sum(v) <= max_weight and chain_violation(v, chain) is None:
                by_weight[sum(v)].append(v)
        for weight, vectors in by_weight.items():
            assert enumerate_chain(chain, weight) == sorted(vectors, reverse=True)

    @given(irregular_chains, st.integers(0, 16))
    def test_irregular_chains_list_as_the_recursive_reference(self, chain, weight):
        """Zero lower gaps next to large ones, upper bounds or none: the
        feasibility bound of each slot admits the very values the unpruned
        recursion keeps, in the same order."""
        assert enumerate_chain(chain, weight) == chain_vectors(chain, weight)

    @given(chains, st.integers(-1, 25))
    def test_counts_match_enumeration(self, chain, max_weight):
        assert count_chain_by_weight(chain, max_weight) == [
            len(enumerate_chain(chain, w)) for w in range(max_weight + 1)
        ]

    @given(residue_classes, st.integers(-1, 22))
    def test_product_counts_match_enumeration(self, rc, max_weight):
        assert count_partitions_with_parts(rc, max_weight) == [
            len(enumerate_partitions_with_parts(rc, w)) for w in range(max_weight + 1)
        ]


class TestOneSearchCounts:
    @pytest.mark.parametrize("modulus", range(2, 8))
    def test_bounded_gap_vectors_match_per_slot_chain_counts(self, modulus):
        # one search over every length against one chain search per slot count
        gap, last = GapBound(0, modulus - 1), GapBound(1, modulus - 1)
        for max_weight in range(26):
            per_slot = [0] * (max_weight + 1)
            for slots in range(1, max_weight + 1):
                chain = ChainConstraint((gap,) * (slots - 1), last)
                for weight, count in enumerate(count_chain_by_weight(chain, max_weight)):
                    per_slot[weight] += count
            assert count_bounded_gap_vectors(modulus, max_weight) == per_slot, max_weight

    def test_bounded_gap_vector_edges(self):
        assert count_bounded_gap_vectors(2, -1) == []
        assert count_bounded_gap_vectors(2, 0) == [0]
        assert count_bounded_gap_vectors(3, 1) == [0, 1]
        # modulus 2: last entry 1 and every gap 0 or 1, the conjugates of the
        # partitions into distinct parts, none of them of weight 0
        assert count_bounded_gap_vectors(2, 7) == [0, 1, 1, 2, 2, 3, 4, 5]
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            count_bounded_gap_vectors(1, 5)

    @pytest.mark.parametrize(
        "rc",
        [
            ResidueClass(7, frozenset({2, 3, 6})),
            ResidueClass(8, frozenset({3, 4, 7})),
            ResidueClass(9, frozenset({4, 6, 7})),
            ResidueClass(11, frozenset({5, 8, 9})),
        ],
        ids=lambda rc: f"{sorted(rc.residues)}mod{rc.modulus}",
    )
    def test_running_sums_by_residue_of_the_smallest_part(self, rc):
        # smallest allowed parts 2 to 5: every weight's count is a running
        # sum over the weights below it in steps of that part, one sum per
        # residue, none of which may leak into another
        assert count_partitions_with_parts(rc, 40) == [
            len(enumerate_partitions_with_parts(rc, w)) for w in range(41)
        ]

    @pytest.mark.parametrize(
        "gaps, terminal",
        [
            (((0, 2), (1, 3), (0, 1)), (1, 4)),
            (((2, 3), (0, 0)), (0, 2)),
            (((1, 4),), (3, 3)),
            (((0, 1), (0, 1), (0, 1), (0, 1)), (0, 1)),
            (((3, 5), (2, 2), (1, 6)), (0, 0)),
        ],
    )
    def test_chain_counts_with_upper_bounds_match_enumeration(self, gaps, terminal):
        # every gap and the terminal bounded above, so a slot's range is cut
        # from both sides by the slot before it
        chain = ChainConstraint(
            tuple(GapBound(lo, hi) for lo, hi in gaps), GapBound(*terminal)
        )
        assert count_chain_by_weight(chain, 30) == [
            len(enumerate_chain(chain, w)) for w in range(31)
        ]

    @pytest.mark.parametrize(
        "rc",
        [RR2] + [ResidueClass(m, frozenset({m - 1})) for m in range(3, 9)],
        ids=lambda rc: f"{sorted(rc.residues)}mod{rc.modulus}",
    )
    def test_counts_without_part_one_match_enumeration(self, rc):
        # the smallest allowed part exceeds 1, so its run in one loop steps
        # over weights that no partition of the run reaches
        assert count_partitions_with_parts(rc, 30) == [
            len(enumerate_partitions_with_parts(rc, w)) for w in range(31)
        ]


class TestPartitionEnumeration:
    def test_allowed_parts_examples(self):
        assert {p.parts for p in enumerate_partitions_with_parts(RR2, 6)} == {
            (3, 3),
            (2, 2, 2),
        }
        assert {p.parts for p in enumerate_partitions_with_parts(ODD, 4)} == {
            (3, 1),
            (1, 1, 1, 1),
        }

    def test_weight_zero_gives_empty_partition(self):
        assert enumerate_partitions_with_parts(RR2, 0) == [Partition(())]

    def test_all_partitions_count(self):
        # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(enumerate_partitions(w)) for w in range(11)] == expected

    def test_deterministic_decreasing_order(self):
        listing = enumerate_partitions_with_parts(RR2, 14)
        assert listing == sorted(listing, key=lambda p: p.parts, reverse=True)
        for p in listing:
            assert_valid(p)


class TestPredicates:
    def test_repetition_bounded(self):
        assert repetition_bounded(Partition.of([7, 6, 4, 2, 1]), 2)
        assert not repetition_bounded(Partition.of([3, 3, 3]), 3)
        assert repetition_bounded(Partition.of([3, 3]), 3)

    def test_no_part_divisible(self):
        assert no_part_divisible(Partition.of([7, 3, 3, 1, 1, 1, 1, 1, 1, 1]), 2)
        assert not no_part_divisible(Partition.of([6, 1]), 3)

    @pytest.mark.parametrize("modulus", (2, 3, 4, 5, 6, 7))
    def test_glaisher_equinumerosity(self, modulus):
        # the direct generators must list exactly what filtering all
        # partitions lists, in the same order
        for weight in range(26):
            everything = enumerate_partitions(weight)
            bounded = partitions_repetition_bounded(weight, modulus)
            coprime = enumerate_partitions_with_parts(
                ResidueClass.nonzero(modulus), weight
            )
            assert bounded == [
                p for p in everything if repetition_bounded(p, modulus)
            ], (modulus, weight)
            assert coprime == [
                p for p in everything if no_part_divisible(p, modulus)
            ], (modulus, weight)
            for p in bounded + coprime:
                assert_valid(p)
            assert len(bounded) == len(coprime), (modulus, weight)

    @pytest.mark.parametrize("modulus", (2, 3, 4, 5, 6, 7))
    def test_walk_lists_each_weight_as_filtering_does(self, modulus):
        # one walk over every weight up to 16 gives, weight by weight, what
        # filtering all partitions of that weight gives, in the same order
        by_weight = {w: [] for w in range(17)}
        for weight, parts in repetition_bounded_walk(16, modulus):
            by_weight[weight].append(parts)
        for weight, walked in by_weight.items():
            assert walked == [
                p.parts
                for p in enumerate_partitions(weight)
                if repetition_bounded(p, modulus)
            ], (modulus, weight)

    @given(st.integers(-1, 18), st.integers(2, 9))
    def test_walk_at_any_bound_lists_each_weight_as_filtering_does(
        self, max_weight, modulus
    ):
        by_weight = {w: [] for w in range(max_weight + 1)}
        for weight, parts in repetition_bounded_walk(max_weight, modulus):
            by_weight[weight].append(parts)
        for weight, walked in by_weight.items():
            assert walked == [
                p.parts for p in all_partitions(weight) if repetition_bounded(p, modulus)
            ], (modulus, weight)

    @pytest.mark.parametrize(
        "generator",
        (
            partitions_repetition_bounded,
            lambda w, m: enumerate_partitions_with_parts(ResidueClass.nonzero(m), w),
            lambda w, m: [Partition(parts) for _, parts in repetition_bounded_walk(w, m)],
        ),
        ids=(
            "partitions_repetition_bounded",
            "enumerate_partitions_with_parts",
            "repetition_bounded_walk",
        ),
    )
    def test_generators_validate_modulus_before_weight(self, generator):
        for weight in (-1, 0, 5):
            with pytest.raises(ValueError, match="modulus must be at least 2"):
                generator(weight, 1)
        assert generator(-1, 2) == []
        assert generator(0, 2) == [Partition(())]
