"""Command-line behaviour: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qident
from qident.cli import (
    EXIT_DOMAIN,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNKNOWN_NAME,
    EXIT_USAGE,
    main,
)
from qident.profiles import default_catalog, dump_catalog

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_alternating_listing(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "example-alternating", "--n", "3", "--weight", "18"
        )
        assert code == EXIT_OK
        assert out == "[7,3,3,2,2,1]\n[6,4,3,2,2,1]\n[5,4,4,2,2,1]\n"

    def test_exact_parts_listing(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "example-exact-parts", "--n", "3", "--weight", "18"
        )
        assert code == EXIT_OK
        assert out == "[13,1,1,1,1,1]\n[12,2,1,1,1,1]\n[11,2,2,1,1,1]\n"

    def test_atmost_parts_listing_trims_zeros(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "example-atmost-parts", "--n", "3", "--weight", "18"
        )
        assert code == EXIT_OK
        assert out == "[18]\n[17,1]\n[16,1,1]\n"

    def test_unknown_profile(self, capsys):
        code, _, err = run(capsys, "enumerate", "nope", "--n", "1", "--weight", "1")
        assert code == EXIT_UNKNOWN_NAME
        assert "unknown" in err

    def test_infeasible_weight_gives_empty_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "P2", "--n", "1", "--weight", "0")
        assert code == EXIT_OK
        assert out == ""

    def test_two_branch_profile_indexed_by_part_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "capparelli-1-6", "--n", "2", "--weight", "5"
        )
        assert code == EXIT_OK
        # chain a1 >= a2 >= 2 at part count 2
        assert out == "[3,2]\n"

    def test_invalid_index(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "capparelli-1-6", "--n", "0", "--weight", "4"
        )
        assert code == EXIT_DOMAIN


class TestBijectionCommand:
    def test_glaisher_with_steps(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "glaisher", "--modulus", "2", "[7,6,4,2,1]"
        )
        assert code == EXIT_OK
        assert out == (
            "input:  [7,6,4,2,1]\n"
            "step:   [7,3,3,2,2,1,1,1]\n"
            "output: [7,3,3,1,1,1,1,1,1,1]\n"
        )

    def test_glaisher_inverse(self, capsys):
        code, out, _ = run(
            capsys,
            "bijection",
            "glaisher-inv",
            "--modulus",
            "2",
            "[7,3,3,1,1,1,1,1,1,1]",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "input:  [7,3,3,1,1,1,1,1,1,1]"
        assert lines[1] == "step:   [7,6,2,2,2,1]"
        assert lines[-1] == "output: [7,6,4,2,1]"

    def test_rr2_prints_intermediate_and_weights(self, capsys):
        code, out, _ = run(capsys, "bijection", "rr2", "[3,2]")
        assert code == EXIT_OK
        assert out == (
            "input:  [3,2]\n"
            "c:      [6,1]\n"
            "output: [5,2]\n"
            "weight: 7 = 5 + 4 - 2\n"
        )

    def test_rr2_inverse(self, capsys):
        code, out, _ = run(capsys, "bijection", "rr2-inv", "[5,2]")
        assert code == EXIT_OK
        assert "output: [3,2]" in out

    def test_profile_map(self, capsys):
        code, out, _ = run(
            capsys,
            "bijection",
            "profile",
            "--source",
            "P3",
            "--target",
            "P4",
            "--n",
            "2",
            "[5,1]",
        )
        assert code == EXIT_OK
        assert "output: [6,0]" in out

    def test_machine_format(self, capsys):
        code, out, _ = run(
            capsys,
            "bijection",
            "rr2",
            "[3,2]",
            "--format",
            "machine",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["c"] == [6, 1]
        assert payload["output"] == [5, 2]

    def test_malformed_partition_is_domain_error(self, capsys):
        code, _, err = run(capsys, "bijection", "rr2", "[1,2]")
        assert code == EXIT_DOMAIN

    def test_wrong_residue_is_domain_error(self, capsys):
        code, _, err = run(capsys, "bijection", "rr2", "[5]")
        assert code == EXIT_DOMAIN
        assert "congruent" in err


class TestSeriesCommand:
    def test_product_dump(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "product",
            "--residues",
            "2,3",
            "--modulus",
            "5",
            "--order",
            "8",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0] == "0:1"
        assert lines[-1] == "7:2"

    def test_glaisher_sum_dump(self, capsys):
        code, out, _ = run(
            capsys, "series", "glaisher-sum", "--modulus", "2", "--order", "6"
        )
        assert code == EXIT_OK
        assert out == "0:1\n1:1\n2:1\n3:2\n4:2\n5:3\n"

    def test_machine_format_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "glaisher-sum",
            "--modulus",
            "2",
            "--order",
            "6",
            "--format",
            "machine",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == [1, 1, 1, 2, 2, 3]
        assert json.dumps(payload, separators=(",", ":")) == out.strip()

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_divide_by_2_sum_is_the_distinct_parts_sum(self, capsys, fmt):
        """The divide-by-2 sum is evaluated in distinct-parts form, so the
        two kinds print the same coefficients."""
        code, glaisher, _ = run(
            capsys, "series", "glaisher-sum", "--modulus", "2", "--order", "50", "--format", fmt
        )
        assert code == EXIT_OK
        code, distinct, _ = run(capsys, "series", "distinct-sum", "--order", "50", "--format", fmt)
        assert code == EXIT_OK
        assert glaisher == distinct and glaisher.count("\n") == (50 if fmt == "text" else 1)

    def test_profile_sum(self, capsys):
        code, out, _ = run(
            capsys, "series", "profile-sum", "--profile", "P2", "--order", "8"
        )
        assert code == EXIT_OK
        assert out == "0:1\n1:0\n2:1\n3:1\n4:1\n5:1\n6:2\n7:2\n"


class TestCatalogCommand:
    def test_lists_at_least_twenty_entries(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == EXIT_OK
        data_rows = out.splitlines()[2:]
        assert len(data_rows) >= 20

    def test_machine_format_matches_shipped_file(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "machine")
        assert code == EXIT_OK
        assert out == dump_catalog(default_catalog())

    def test_empty_catalog_lists_only_the_headers(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"entries": []}')
        code, out, err = run(capsys, "--catalog", str(path), "catalog")
        assert (code, err) == (EXIT_OK, "")
        assert out == "name  product  terms  source\n----  -------  -----  ------\n"


class TestVerifyCommand:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "rr2", "--order", "40", "--max-weight", "12"
        )
        assert code == EXIT_OK
        assert "checks passed" in out

    def test_glaisher_with_modulus(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "glaisher",
            "--modulus",
            "4",
            "--order",
            "40",
            "--max-weight",
            "10",
        )
        assert code == EXIT_OK
        assert "glaisher-4" in out

    def test_glaisher_any_modulus_sorted(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "glaisher",
            "--modulus",
            "9",
            "--order",
            "30",
            "--max-weight",
            "8",
            "--format",
            "machine",
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert {r["identity"] for r in records} == {"glaisher-9"}
        assert [r["mode"] for r in records] == ["alpha", "analytic", "bijection", "conjugate"]

    def test_glaisher_modulus_below_two(self, capsys):
        code, _, err = run(capsys, "verify", "glaisher", "--modulus", "1")
        assert code == EXIT_DOMAIN
        assert "modulus" in err

    @pytest.mark.parametrize("names", [["rr2"], [], ["glaisher", "rr2"]])
    def test_modulus_outside_glaisher_is_usage_error(self, capsys, names):
        code, out, err = run(capsys, "verify", *names, "--modulus", "4")
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1 and "--modulus" in err

    def test_unknown_identity_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "no-such-identity")
        assert code == EXIT_UNKNOWN_NAME

    def test_machine_output_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "rr2",
            "--order",
            "30",
            "--max-weight",
            "10",
            "--format",
            "machine",
        )
        assert code == EXIT_OK
        for line in out.splitlines():
            payload = json.loads(line)
            assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == line

    def test_series_deep_output_matches_reference(self, capsys):
        # every row at order 1000, where one run shares each series side
        # among the rows that need it, is the recorded row
        code, out, err = run(
            capsys, "verify", "all", "--order", "1000", "--max-weight", "8",
            "--format", "machine",
        )
        assert (code, err) == (EXIT_OK, "")
        expected = (REFERENCE / "series-deep.txt").read_text().splitlines()
        assert len(expected) == 70
        assert out.splitlines() == expected

    def test_verify_all_output_matches_reference(self, capsys):
        # every row at weight 30, where one run shares each profile's chain
        # counts and the conjugate rows stop at their cap, is the recorded row
        code, out, err = run(
            capsys, "verify", "all", "--max-weight", "30", "--format", "machine"
        )
        assert (code, err) == (EXIT_OK, "")
        expected = (REFERENCE / "verify-all.txt").read_text().splitlines()
        assert len(expected) == 70
        assert out.splitlines() == expected

    def test_mismatch_exit_code_with_custom_catalog(self, capsys, tmp_path):
        # a deliberately wrong product side must fail with the mismatch code
        text = dump_catalog(default_catalog())
        payload = json.loads(text)
        broken = [e for e in payload["entries"] if e["name"] == "P2"][0]
        broken = json.loads(json.dumps(broken))
        broken["name"] = "broken-rr2"
        broken["aliases"] = []
        del broken["identity"]
        broken["residues"] = [2, 4]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [broken]}), encoding="utf-8")
        code, out, _ = run(
            capsys,
            "--catalog",
            str(path),
            "verify",
            "broken-rr2",
            "--order",
            "12",
            "--max-weight",
            "8",
        )
        assert code == EXIT_MISMATCH
        assert "mismatch" in out

    def test_unbounded_power_in_custom_catalog_exits_fast(self, capsys, tmp_path):
        payload = json.loads(dump_catalog(default_catalog()))
        entry = next(e for e in payload["entries"] if e["name"] == "P2")
        entry["branches"][0]["slots"] = "2**2**(n + 7)"
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run(capsys, "--catalog", str(path), "verify", "rr2")
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "2**2**(n + 7)" in err and "outside 0..64" in err

    @pytest.mark.parametrize("label", ["P3", "appendix-f", ""])
    def test_identity_label_collision_rejected(self, capsys, tmp_path, label):
        payload = json.loads(dump_catalog(default_catalog()))
        payload["entries"][0]["identity"] = label
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "--catalog", str(path), "verify", "rr2")
        assert code == EXIT_DOMAIN
        assert out == "" and "identity" in err

    def test_empty_custom_catalog_is_used_as_given(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('{"entries": []}', encoding="utf-8")
        code, out, _ = run(
            capsys,
            "--catalog",
            str(path),
            "verify",
            "all",
            "--order",
            "20",
            "--max-weight",
            "8",
            "--format",
            "machine",
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 25
        assert all(row["identity"].startswith("glaisher-") for row in rows)
        code, out, _ = run(
            capsys, "--catalog", str(path), "verify", "rr2", "--format", "machine"
        )
        assert code == EXIT_UNKNOWN_NAME
        assert json.loads(out) == {
            "bound": 0,
            "identity": "rr2",
            "mode": "lookup",
            "note": "unknown identity",
            "outcome": "error",
        }

    @pytest.mark.parametrize(
        "branches, index, message",
        [
            (
                [("all", 0, "n", "n*(n+1)", [("otherwise", "2*s")])],
                2,
                "offsets increase at (index=2, s=1 -> 2)",
            ),
            (
                [
                    ("even", 0, "2*n", "n*n", [("otherwise", "0")]),
                    (
                        "odd",
                        1,
                        "2*n - 1",
                        "n*n",
                        [("s == 2", "-1"), ("otherwise", "0")],
                    ),
                ],
                3,
                "offset -1 at (index=3, s=2) is negative",
            ),
        ],
        ids=["increasing", "negative-odd-branch"],
    )
    def test_bad_offsets_named_as_enumerate_names_them(
        self, capsys, tmp_path, branches, index, message
    ):
        entry = {
            "name": "bad",
            "aliases": [],
            "source": "",
            "modulus": None,
            "residues": None,
            "branches": [
                {
                    "parity": parity,
                    "n_min": n_min,
                    "slots": slots,
                    "min_weight": min_weight,
                    "offsets": [{"when": w, "value": v} for w, v in cases],
                }
                for parity, n_min, slots, min_weight, cases in branches
            ],
        }
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        code, out, err = run(capsys, "--catalog", str(path), "verify", "bad")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == f"error: profile bad: {message}\n"
        enumerate_args = ("enumerate", "bad", "--n", str(index), "--weight", "9")
        assert run(capsys, "--catalog", str(path), *enumerate_args) == (
            EXIT_DOMAIN,
            "",
            err,
        )

    def test_env_var_catalog_override(self, capsys, tmp_path, monkeypatch):
        text = dump_catalog(default_catalog())
        path = tmp_path / "catalog.json"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setenv("QIDENT_CATALOG", str(path))
        code, out, _ = run(capsys, "catalog", "--format", "machine")
        assert code == EXIT_OK
        assert out == text

    WIDE = {
        "name": "wide",
        "source": "",
        "branches": [{
            "parity": "all",
            "n_min": 0,
            "slots": "1000 * n",
            "min_weight": "n",
            "offsets": [
                {"when": "s == 1", "value": "n"},
                {"when": "otherwise", "value": "0"},
            ],
        }],
    }

    def test_chain_of_thousands_of_slots_counts_without_recursion(self, capsys, tmp_path):
        """Term n has 1000 n slots, offsets n then zeros: far deeper than
        the interpreter's recursion limit, so the chain search must keep its
        own stack."""
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [self.WIDE]}), encoding="utf-8")
        code, out, err = run(
            capsys, "--catalog", str(path), "verify", "wide",
            "--order", "10", "--max-weight", "8", "--format", "machine",
        )
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {
            "bound": 8, "identity": "wide", "mode": "combinatorial",
            "outcome": "pass", "subject": "wide",
        }

    def test_chain_of_thousands_of_slots_enumerates_without_recursion(self, capsys, tmp_path):
        """2,000 slots at n = 2: the one vector of weight 2 is the offsets
        (2, 0, ..., 0), listed without recursion as the partition [2]."""
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [self.WIDE]}), encoding="utf-8")
        code, out, err = run(
            capsys, "--catalog", str(path), "enumerate", "wide", "--n", "2", "--weight", "2",
        )
        assert (code, err) == (EXIT_OK, "")
        assert out == "[2]\n"


class TestClosedStdout:
    """A reader that has closed stdout before the output is written ends the
    output, not the run: no traceback, and the exit code of the verdict."""

    # ``main`` on the arguments, then exit 99 if this process has a child
    # left, running or unreaped, and with main's code otherwise
    LEAVES_NO_CHILD = """
import os, sys
from qident.cli import main
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""

    @staticmethod
    def run_closed(*argv, program=("-m", "qident.cli")):
        read, write = os.pipe()
        os.close(read)
        src = str(Path(qident.__file__).resolve().parents[1])
        try:
            return subprocess.run(
                [sys.executable, *program, *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write)

    @pytest.mark.parametrize("fmt", ["machine", "text"])
    def test_passing_run_exits_0(self, fmt):
        run = self.run_closed("verify", "all", "--max-weight", "8", "--format", fmt)
        assert (run.returncode, run.stderr) == (EXIT_OK, "")

    def test_mismatch_still_exits_1(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(custom_fields(residues=[2, 4]), encoding="utf-8")
        run = self.run_closed(
            "--catalog", str(path), "verify", "custom", "--order", "12", "--max-weight", "8"
        )
        assert (run.returncode, run.stderr) == (EXIT_MISMATCH, "")

    def test_no_helper_outlives_the_run(self):
        run = self.run_closed(
            "verify", "all", "--max-weight", "8", program=("-c", self.LEAVES_NO_CHILD)
        )
        assert (run.returncode, run.stderr) == (EXIT_OK, "")

    def test_other_commands_exit_0(self):
        run = self.run_closed("catalog")
        assert (run.returncode, run.stderr) == (EXIT_OK, "")


class TestSumSideErrors:
    """A sum side whose term exponents decrease, or never reach the order,
    exits 4 on one line, from either branch of a two-branch entry, whose
    branches are scanned together."""

    @pytest.mark.parametrize(
        "command",
        [("verify", "custom"), ("series", "profile-sum", "--profile", "custom", "--order", "30")],
        ids=["verify", "profile-sum"],
    )
    @pytest.mark.parametrize("branch", [0, 1])
    @pytest.mark.parametrize(
        "min_weight, message",
        [
            ("5 - n", "term exponents must be nondecreasing: value"),
            ("1", "for more than 10000 terms"),
        ],
        ids=["decreasing", "endless"],
    )
    def test_is_a_domain_error_on_one_line(
        self, capsys, tmp_path, command, branch, min_weight, message
    ):
        entry = next(
            e for e in json.loads(dump_catalog(default_catalog()))["entries"]
            if e["name"] == "hirschhorn-1"
        )
        assert len(entry["branches"]) == 2
        entry.update(name="custom", aliases=[])
        entry.pop("identity", None)
        entry["branches"][branch]["min_weight"] = min_weight
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        code, out, err = run(capsys, "--catalog", str(path), *command)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def custom_entry(**branch):
    """P2 as a catalog entry of its own named ``custom``, with ``branch``
    overriding its branch's fields (a None value removes the field)."""
    entry = next(
        e for e in json.loads(dump_catalog(default_catalog()))["entries"]
        if e["name"] == "P2"
    )
    entry.update(name="custom", aliases=[])
    del entry["identity"]
    for key, value in branch.items():
        if value is None:
            del entry["branches"][0][key]
        else:
            entry["branches"][0][key] = value
    return json.dumps({"entries": [entry]})


def custom_fields(**fields):
    """``custom_entry()`` with the entry's own ``fields`` replaced."""
    payload = json.loads(custom_entry())
    payload["entries"][0].update(fields)
    return json.dumps(payload)


class TestMalformedCatalog:
    @pytest.mark.parametrize(
        "command",
        [("verify", "custom"), ("series", "profile-sum", "--profile", "custom")],
        ids=["verify", "profile-sum"],
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            ("{}", "a catalog must be a JSON object with an 'entries' list"),
            ("[1]", "a catalog must be a JSON object with an 'entries' list"),
            (
                custom_entry(min_weight=None),
                "catalog entry 'custom': missing key 'min_weight'",
            ),
            (None, "cannot read catalog"),
            (
                custom_entry(min_weight="n*n + n + n // (n - 1)"),
                "rule 'n*n + n + n // (n - 1)' divides by zero at n=1",
            ),
            (
                json.dumps({"entries": [{"name": "named", "branches": []}]}),
                "catalog entry 'named': a profile has one or two branches",
            ),
            (custom_entry(n_min=-1), "catalog entry 'custom': n_min must be nonnegative"),
            (custom_fields(name=5), "catalog entry #1: name must be a string"),
            (custom_fields(source=["a"]), "catalog entry 'custom': source must be a string"),
            (custom_fields(aliases=[7]), "'custom': aliases must be a list of strings"),
            (custom_fields(aliases="zq"), "'custom': aliases must be a list of strings"),
            (
                custom_fields(residues=["2", "3"]),
                "catalog entry 'custom': residues must be a list of integers",
            ),
            (
                custom_fields(residues=[2.7, 3]),
                "catalog entry 'custom': residues must be a list of integers",
            ),
            (custom_entry(n_min=1.5), "catalog entry 'custom': n_min must be an integer"),
            (custom_entry(n_min="2"), "catalog entry 'custom': n_min must be an integer"),
            (custom_entry(n_min=True), "catalog entry 'custom': n_min must be an integer"),
            (custom_fields(modulus=5.9), "catalog entry 'custom': modulus must be an integer"),
            (custom_fields(modulus="5"), "catalog entry 'custom': modulus must be an integer"),
            (custom_fields(modulos=5), "catalog entry 'custom': unknown key 'modulos'"),
            (custom_fields(identty="rr2"), "catalog entry 'custom': unknown key 'identty'"),
            (custom_entry(slotz="n"), "catalog entry 'custom': unknown branch key 'slotz'"),
            (
                custom_entry(offsets=[{"when": "otherwise", "value": "1", "vaule": "2"}]),
                "catalog entry 'custom': unknown offset case key 'vaule'",
            ),
            (
                custom_fields(modulus=None),
                "catalog entry 'custom': residues must be null without a modulus",
            ),
            (custom_entry(slots=3), "catalog entry 'custom': slots must be a string"),
            (
                custom_entry(
                    offsets=[{"when": 1, "value": "0"}, {"when": "otherwise", "value": "0"}]
                ),
                "catalog entry 'custom': when must be a string",
            ),
            (
                custom_entry(offsets=[{"when": "otherwise", "value": 0}]),
                "catalog entry 'custom': value must be a string",
            ),
            (
                custom_entry(min_weight=["n"]),
                "catalog entry 'custom': min_weight must be a string",
            ),
            (
                custom_fields(branches={"a": 1}),
                "catalog entry 'custom': branches must be a list of objects",
            ),
            (
                custom_entry(offsets="otherwise"),
                "catalog entry 'custom': offsets must be a list of objects",
            ),
            (json.dumps({"entries": [5]}), "catalog entry #1: entries must be JSON objects"),
        ],
        ids=[
            "no-entries", "list", "no-min-weight", "no-file", "zero-division",
            "no-branches", "negative-n-min", "int-name", "list-source", "int-alias",
            "string-aliases", "string-residues", "float-residue", "float-n-min",
            "string-n-min", "bool-n-min", "float-modulus", "string-modulus",
            "unknown-entry-key", "unknown-identity-key", "unknown-branch-key",
            "unknown-case-key", "residues-without-modulus", "int-slots", "int-when",
            "int-value", "list-min-weight", "object-branches", "string-offsets", "int-entry",
        ],
    )
    def test_is_a_domain_error_on_one_line(
        self, capsys, tmp_path, text, message, command
    ):
        path = tmp_path / "catalog.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "--catalog", str(path), *command)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
