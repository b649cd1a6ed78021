"""Profile rules, the shipped catalog, and chain/series agreement."""

import json
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident.partitions import GapBound, count_chain_by_weight
from qident.profiles import (
    PiecewiseCase,
    ProfileBranch,
    ProfileFamily,
    UnknownNameError,
    default_catalog,
    dump_catalog,
    evaluate_rule,
    loads_catalog,
    profile_chain_counts,
    profile_series,
    profile_to_chain,
    _offsets_chain,
    validate_profile,
)
from qident.series import _sum_terms, product_side, sum_side_standard

from oracles import offset_rows, pochhammer_inverse, shift

CATALOG_PATH = Path(__file__).resolve().parents[1] / "src" / "qident" / "catalog.json"


def branch_sums(branches, order):
    """The sum side of each branch on its own, added."""
    sums = [
        sum_side_standard(b.declared_weight, b.slot_count, order, start=b.n_min)
        for b in branches
    ]
    return sums[0] if len(sums) == 1 else sums[0] + sums[1]


def family(name, slots, min_weight, offsets, n_min=0):
    cases = tuple(PiecewiseCase(w, v) for w, v in offsets)
    return ProfileFamily(name, (ProfileBranch("all", n_min, slots, min_weight, cases),))


class TestRules:
    def test_arithmetic(self):
        assert evaluate_rule("2*(n + 1 - s)", n=3, s=1) == 6
        assert evaluate_rule("(2*n + 2 + parity(s) - s) // 2", n=3, s=3) == 3

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            evaluate_rule("__import__", n=1)
        with pytest.raises(ValueError):
            evaluate_rule("m + 1", n=1)

    def test_rejects_calls_other_than_parity(self):
        with pytest.raises(ValueError):
            evaluate_rule("abs(n)", n=1)

    def test_rejects_non_integer_constants(self):
        with pytest.raises(ValueError):
            evaluate_rule("n * 1.5", n=2)
        with pytest.raises(ValueError):
            evaluate_rule("'x'", n=2)

    def test_division_by_zero_names_the_rule_and_bindings(self):
        with pytest.raises(ValueError) as raised:
            evaluate_rule("n*n + n + n // (n - 1)", n=1)
        assert str(raised.value) == (
            "rule 'n*n + n + n // (n - 1)' divides by zero at n=1"
        )
        with pytest.raises(ValueError, match="divides by zero at n=3, s=2"):
            evaluate_rule("n % (s - 2)", n=3, s=2)


    def test_powers_within_bounds(self):
        assert evaluate_rule("2**n", n=64) == 2**64
        assert evaluate_rule("2**2**n", n=6) == 2**64
        assert evaluate_rule("-n**2 + s**0", n=3, s=5) == -8
        assert evaluate_rule("n**64", n=10_000) == 10_000**64

    @pytest.mark.parametrize(
        "rule,n,message",
        [
            ("2**2**n", 7, "exponent 128 outside 0..64"),
            ("2**(n - 1)", 0, "exponent -1 outside 0..64"),
            ("((n**64)**64)**64", 2, "exceeds 4096 bits"),
        ],
    )
    def test_power_out_of_bounds_names_the_rule(self, rule, n, message):
        with pytest.raises(ValueError) as raised:
            evaluate_rule(rule, n=n)
        assert repr(rule) in str(raised.value)
        assert message in str(raised.value)

    def test_user_catalog_with_unbounded_power_fails_on_use(self):
        entries = json.loads(dump_catalog(default_catalog()))["entries"]
        entry = next(e for e in entries if e["name"] == "P2")
        entry["branches"][0]["slots"] = "2**2**(n + 7)"
        catalog = loads_catalog(json.dumps({"entries": [entry]}))
        with pytest.raises(ValueError, match=r"2\*\*2\*\*\(n \+ 7\)"):
            profile_chain_counts(catalog.lookup("P2").profile, 20)


class TestShippedCatalog:
    def test_round_trip_is_byte_exact(self):
        text = CATALOG_PATH.read_text(encoding="utf-8")
        assert dump_catalog(loads_catalog(text)) == text

    def test_expected_entry_count(self):
        assert len(default_catalog().entries()) >= 20

    def test_required_names_present(self):
        catalog = default_catalog()
        for name in ("P2", "P3", "P4", "P5", "euler-staircase", "euler-layers"):
            assert catalog.lookup(name).name == name
        for letter in "abcdefghijklmn":
            alias = f"appendix-{letter}"
            assert alias in catalog.lookup(alias).aliases

    def test_alias_lookup(self):
        entry = default_catalog().lookup("appendix-f")
        assert entry.name == "hirschhorn-3"
        assert entry.product.modulus == 16
        assert entry.product.residues == frozenset({1, 4, 6, 7, 9, 10, 12, 15})

    def test_p3_data(self):
        entry = default_catalog().lookup("P3")
        assert entry.product.modulus == 5
        assert entry.product.residues == frozenset({2, 3})
        assert entry.profile.offsets_at(3) == (10, 1, 1)

    def test_appendix_a_is_staircase(self):
        entry = default_catalog().lookup("appendix-a")
        assert entry.name == "euler-staircase"
        assert entry.profile.offsets_at(4) == (4, 3, 2, 1)
        assert entry.product.modulus == 2

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            default_catalog().lookup("no-such-profile")

    def test_every_profile_validates_to_12(self):
        for entry in default_catalog().entries():
            report = validate_profile(entry.profile, 12)
            assert report.ok, report.failures

    # hand-computed minimal weights of the first two terms of each branch
    BRANCH_WEIGHTS = {
        "appendix-a": {"all": (1, 3)},
        "appendix-b": {"even": (4, 10), "odd": (2, 6)},
        "appendix-c": {"even": (3, 8), "odd": (1, 6)},
        "appendix-d": {"even": (3, 8), "odd": (1, 4)},
        "appendix-e": {"even": (2, 6), "odd": (1, 5)},
        "appendix-f": {"even": (4, 12), "odd": (1, 7)},
        "appendix-g": {"even": (4, 12), "odd": (2, 8)},
        "appendix-h": {"even": (4, 10), "odd": (2, 6)},
        "appendix-i": {"all": (4, 12)},
        "appendix-j": {"all": (3, 10)},
        "appendix-k": {"even": (2, 6), "odd": (1, 5)},
        "appendix-l": {"even": (3, 8), "odd": (1, 4)},
        "appendix-m": {"even": (4, 12), "odd": (2, 8)},
        "appendix-n": {"even": (4, 12), "odd": (1, 7)},
    }

    def test_branch_weights_spot_checked(self):
        for alias, branch_weights in self.BRANCH_WEIGHTS.items():
            entry = default_catalog().lookup(alias)
            for branch in entry.profile.branches:
                expected = branch_weights[branch.parity_label]
                got = (branch.declared_weight(1), branch.declared_weight(2))
                assert got == expected, (alias, branch.parity_label)

    def test_branch_offsets_spot_checked(self):
        # hand-evaluated first offset rows of two even branches
        even_b = default_catalog().lookup("appendix-b").profile.branches[0]
        assert even_b.offsets_at(1) == (2, 2)
        even_d = default_catalog().lookup("appendix-d").profile.branches[0]
        assert even_d.offsets_at(1) == (2, 1)

    def test_every_chain_has_nonnegative_gaps_to_12(self):
        for entry in default_catalog().entries():
            for branch in entry.profile.branches:
                for n in range(max(branch.n_min, 1), 13):
                    if branch.slot_count(n) == 0:
                        continue
                    offsets = branch.offsets_at(n)
                    assert all(
                        offsets[s] >= offsets[s + 1] for s in range(len(offsets) - 1)
                    ), (entry.name, n)
                    assert all(v >= 0 for v in offsets), (entry.name, n)


class TestProfileToChain:
    def test_gap_two_family(self):
        chain = profile_to_chain(default_catalog().lookup("P2").profile, 3)
        assert chain.gaps == (GapBound(2), GapBound(2))
        assert chain.terminal == GapBound(2)

    def test_steep_family(self):
        chain = profile_to_chain(default_catalog().lookup("P4").profile, 3)
        assert chain.gaps == (GapBound(12), GapBound(0))
        assert chain.terminal == GapBound(0)

    def test_constant_family(self):
        chain = profile_to_chain(default_catalog().lookup("P5").profile, 3)
        assert chain.gaps == (GapBound(0), GapBound(0))
        assert chain.terminal == GapBound(4)

    def test_two_branch_indexing_by_part_count(self):
        profile = default_catalog().lookup("capparelli-1-6").profile
        assert len(profile.offsets_at(4)) == 4  # even index -> even branch
        assert len(profile.offsets_at(3)) == 3  # odd index -> odd branch

    def test_increasing_offsets_rejected(self):
        bad = family("bad", "2", "3", [("s == 1", "1"), ("otherwise", "2")])
        with pytest.raises(ValueError):
            profile_to_chain(bad, 1)

    def test_index_below_domain_rejected(self):
        profile = default_catalog().lookup("capparelli-1-6").profile
        with pytest.raises(ValueError):
            profile.offsets_at(-1)


class TestValidateProfile:
    def test_detects_increase(self):
        bad = family("grows", "2", "3", [("s == 1", "1"), ("otherwise", "2")])
        report = validate_profile(bad, 3)
        assert not report.ok
        assert "increase" in report.failures[0]

    def test_detects_weight_mismatch(self):
        bad = family("off-by-one", "n", "n + 1", [("otherwise", "1")])
        report = validate_profile(bad, 3)
        assert not report.ok
        assert "declared weight" in report.failures[0]

    def test_reports_location(self):
        bad = family("grows", "3", "4", [("s == 1", "1"), ("otherwise", "2")])
        report = validate_profile(bad, 1)
        assert "n=0" in report.failures[0] or "n=1" in report.failures[0]
        assert "s=1" in report.failures[0]


class TestEveryOffsetRow:
    """The paper's main claim at small sizes: for a term q^S/(q)_u, every
    offset row that is nonnegative, weakly decreasing and sums to S gives a
    chain whose vectors the term counts, not only the rows the catalog
    ships."""

    W = 24

    @staticmethod
    def terms(max_weight):
        """(n, S(n), u(n)) of every shipped term rule, by its slot rule,
        weight rule and first index, at each n with S(n) <= max_weight and
        u(n) >= 1."""
        rules = {
            (b.slots, b.min_weight, b.n_min)
            for e in default_catalog().entries()
            for b in e.profile.branches
        }
        assert len(rules) == 14
        for slots, min_weight, n_min in sorted(rules):
            for n in count(n_min):
                total = evaluate_rule(min_weight, n=n)
                if total > max_weight:
                    break
                if (u := evaluate_rule(slots, n=n)) >= 1:
                    yield n, total, u

    def test_every_row_counts_its_term(self):
        rows = 0
        for n, total, u in self.terms(self.W):
            expected = list(_sum_terms([(total, u)], self.W + 1).coefficients)
            for row in offset_rows(total, u):
                chain = _offsets_chain("row", n, row)
                assert count_chain_by_weight(chain, self.W) == expected, (n, row)
                rows += 1
        assert rows == 5999

    @pytest.mark.parametrize("change", [1, -1])
    def test_row_off_its_weight_is_rejected_naming_the_index(self, change):
        """The first entry one more or one less, a row still nonnegative and
        weakly decreasing, fails ``validate_profile`` at its index."""
        for n, total, u in self.terms(8):
            for row in offset_rows(total, u):
                if row[0] + change < 0 or u > 1 and row[0] + change < row[1]:
                    continue
                cases = [(f"s == {s}", str(v)) for s, v in enumerate(row[1:], start=2)]
                cases = [("s == 1", str(row[0] + change)), *cases, ("otherwise", "0")]
                found = validate_profile(family("row", str(u), str(total), cases, n_min=n), n)
                assert found.failures == (
                    f"row[all] n={n}: offsets sum to {total + change}, "
                    f"declared weight is {total}",
                ), row

    def test_increasing_or_negative_row_is_rejected_naming_the_index(self):
        for n, total, u in self.terms(8):
            for row in offset_rows(total, u):
                if u > 1 and row[0] > row[1]:
                    swapped = (row[1], row[0], *row[2:])
                    with pytest.raises(ValueError, match=rf"\(index={n}, s=1 -> 2\)"):
                        _offsets_chain("row", n, swapped)
                negative = (*row[:-1], -1)
                with pytest.raises(ValueError, match=rf"offset -1 at \(index={n}, s={u}\)"):
                    _offsets_chain("row", n, negative)


class TestProfileSeries:
    def test_same_slots_and_weights_share_series(self):
        catalog = default_catalog()
        series = {
            name: profile_series(catalog.lookup(name).profile, 30)
            for name in ("P2", "P3", "P4", "P5")
        }
        assert len({tuple(s.to_list()) for s in series.values()}) == 1

    def test_example_family_series(self):
        catalog = default_catalog()
        expected = sum_side_standard(lambda n: n * n + 2 * n, lambda n: 2 * n, 30)
        for name in ("example-alternating", "example-exact-parts", "example-atmost-parts"):
            assert profile_series(catalog.lookup(name).profile, 30) == expected

    def test_staircase_series_is_triangular_family(self):
        got = profile_series(default_catalog().lookup("euler-staircase").profile, 30)
        expected = sum_side_standard(lambda n: (n * n + n) // 2, lambda n: n, 30)
        assert got == expected

    def test_merged_scan_equals_the_sum_of_its_branches(self):
        """Every shipped profile at every order 1..120: one scan over the
        terms of all branches, merged by exponent, equals each branch summed
        on its own.  A sum truncated lower is the prefix of the one at 120."""
        for entry in default_catalog().entries():
            branches = entry.profile.branches
            expected = branch_sums(branches, 120)
            for order in range(1, 121):
                got = profile_series(entry.profile, order)
                assert got.coefficients == expected.coefficients[:order], (entry.name, order)

    @given(
        rules=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(1, 4), st.integers(0, 5),
                st.integers(0, 3), st.integers(1, 4), st.integers(0, 6),
            ),
            min_size=2,
            max_size=2,
        ),
        order=st.integers(1, 60),
    )
    def test_merged_scan_with_dropping_slot_counts(self, rules, order):
        """Two branches with exponents a*n*n + b*n + c and slot counts
        s*(n % m) + t, which drop every m terms, and the merged scan drops
        them again where the branches interleave: the nest multiplies by
        (1-q^j) at each drop."""
        branches = tuple(
            ProfileBranch(
                parity, 0, f"{s}*(n % {m}) + {t}", f"{a}*n*n + {b}*n + {c}",
                (PiecewiseCase("otherwise", "0"),),
            )
            for parity, (a, b, c, s, m, t) in zip(("even", "odd"), rules)
        )
        assert profile_series(ProfileFamily("drops", branches), order) == branch_sums(
            branches, order
        )

    def test_single_term_counts_match_term_series(self):
        # one fixed index: chain counts equal q^(offset sum)/((1-q)...(1-q^u))
        from qident.partitions import count_chain_by_weight

        for name, index in (("P2", 3), ("P5", 4), ("euler-staircase", 5)):
            profile = default_catalog().lookup(name).profile
            chain = profile_to_chain(profile, index)
            offsets = profile.offsets_at(index)
            term = shift(pochhammer_inverse(len(offsets), 26), sum(offsets))
            assert count_chain_by_weight(chain, 25) == term.to_list(), name

    def test_counts_match_series_for_all_entries(self):
        for entry in default_catalog().entries():
            counts = profile_chain_counts(entry.profile, 30)
            series = profile_series(entry.profile, 31)
            assert counts == series.to_list(), entry.name

    def test_negative_exponent_fails_on_both_routes(self):
        # n = 0 has exponent -1; counted, its term would land in the last
        # weight's count as counts[-1]
        profile = family("neg", "0", "n - 1", ())
        message = "negative exponent or slot count at n=0"
        with pytest.raises(ValueError, match=message):
            profile_chain_counts(profile, 6)
        with pytest.raises(ValueError, match=message):
            profile_series(profile, 7)

    def test_counts_match_product_for_backed_entries(self):
        for entry in default_catalog().entries():
            if entry.product is None:
                continue
            counts = profile_chain_counts(entry.profile, 30)
            series = product_side(entry.product, 31)
            assert counts == series.to_list(), entry.name

    def test_shared_term_families_have_equal_counts(self):
        # group catalog entries by their (slots, weight) value sequences
        catalog = default_catalog()
        signature = {}
        for entry in catalog.entries():
            key = tuple(
                (
                    branch.parity_label,
                    tuple(
                        (branch.slot_count(n), branch.declared_weight(n))
                        for n in range(branch.n_min, branch.n_min + 7)
                    ),
                )
                for branch in entry.profile.branches
            )
            signature.setdefault(key, []).append(entry)
        for group in signature.values():
            if len(group) < 2:
                continue
            sequences = [profile_chain_counts(e.profile, 18) for e in group]
            assert all(seq == sequences[0] for seq in sequences), [
                e.name for e in group
            ]


class TestCatalogFormat:
    def test_loader_rejects_duplicate_names(self):
        text = CATALOG_PATH.read_text(encoding="utf-8")
        payload = json.loads(text)
        payload["entries"].append(dict(payload["entries"][0]))
        with pytest.raises(ValueError):
            loads_catalog(json.dumps(payload))

    def test_loader_requires_final_otherwise(self):
        payload = {
            "entries": [
                {
                    "name": "x",
                    "aliases": [],
                    "source": "",
                    "modulus": None,
                    "residues": None,
                    "branches": [
                        {
                            "parity": "all",
                            "n_min": 0,
                            "slots": "n",
                            "min_weight": "n",
                            "offsets": [{"when": "s == 1", "value": "n"}],
                        }
                    ],
                }
            ]
        }
        with pytest.raises(ValueError):
            loads_catalog(json.dumps(payload))

    def test_loader_rejects_bad_parity_pair(self):
        payload = {
            "entries": [
                {
                    "name": "x",
                    "aliases": [],
                    "source": "",
                    "modulus": None,
                    "residues": None,
                    "branches": [
                        {
                            "parity": "even",
                            "n_min": 0,
                            "slots": "2*n",
                            "min_weight": "n",
                            "offsets": [{"when": "otherwise", "value": "0"}],
                        },
                        {
                            "parity": "even",
                            "n_min": 0,
                            "slots": "2*n",
                            "min_weight": "n",
                            "offsets": [{"when": "otherwise", "value": "0"}],
                        },
                    ],
                }
            ]
        }
        with pytest.raises(ValueError):
            loads_catalog(json.dumps(payload))

    def test_loader_rejects_malicious_rules(self):
        payload = {
            "entries": [
                {
                    "name": "x",
                    "aliases": [],
                    "source": "",
                    "modulus": None,
                    "residues": None,
                    "branches": [
                        {
                            "parity": "all",
                            "n_min": 0,
                            "slots": "n",
                            "min_weight": "__import__('os').system('true')",
                            "offsets": [{"when": "otherwise", "value": "0"}],
                        }
                    ],
                }
            ]
        }
        with pytest.raises(ValueError):
            loads_catalog(json.dumps(payload))


linear_rules = st.builds(
    lambda a, b, var: f"{a}*{var} + {b}",
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from(("n", "s")),
)
term_rules = st.builds(lambda a, b: f"{a}*n + {b}", st.integers(0, 3), st.integers(0, 3))
offset_cases = st.builds(
    lambda cases, last: [{"when": f"s == {k}", "value": v} for k, v in cases]
    + [{"when": "otherwise", "value": last}],
    st.lists(st.tuples(st.integers(1, 4), linear_rules), max_size=2),
    linear_rules,
)


def branch_json(parity):
    return st.builds(
        lambda n_min, slots, min_weight, offsets: {
            "parity": parity,
            "n_min": n_min,
            "slots": slots,
            "min_weight": min_weight,
            "offsets": offsets,
        },
        st.integers(0, 3),
        term_rules,
        term_rules,
        offset_cases,
    )


branch_lists = st.one_of(
    st.tuples(branch_json("all")).map(list),
    st.permutations([0, 1]).flatmap(
        lambda order: st.tuples(branch_json("even"), branch_json("odd")).map(
            lambda pair: [pair[i] for i in order]
        )
    ),
)
products = st.one_of(
    st.just((None, None)),
    st.integers(2, 8).flatmap(
        lambda m: st.sets(st.integers(1, m - 1), min_size=1).map(
            lambda residues: (m, sorted(residues))
        )
    ),
)
entry_bodies = st.tuples(
    st.integers(0, 2),
    st.sampled_from((None, "id-0", "id-1")),
    st.text(max_size=8),
    products,
    branch_lists,
)


def entry_json(i, body):
    """One entry in the key order the dumper writes, named ``p<i>``."""
    aliases, identity, source, (modulus, residues), branches = body
    entry = {"name": f"p{i}", "aliases": [f"p{i}-{j}" for j in range(aliases)]}
    if identity is not None:
        entry["identity"] = identity
    entry.update(source=source, modulus=modulus, residues=residues, branches=branches)
    return entry


class TestCatalogProperties:
    @given(st.lists(entry_bodies, max_size=4))
    def test_generated_catalog_dumps_back_byte_identically(self, bodies):
        payload = {"entries": [entry_json(i, body) for i, body in enumerate(bodies)]}
        text = dump_catalog(loads_catalog(json.dumps(payload)))
        assert json.loads(text) == payload
        assert dump_catalog(loads_catalog(text)) == text
