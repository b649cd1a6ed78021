"""The public surface: ``qident`` exports exactly its modules' ``__all__``,
its source keeps to the oldest Python it declares, and importing it loads
neither ``dataclasses`` nor ``inspect``, nor any module for running processes."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import qident
from qident import bijections, partitions, profiles, series, verify

MODULES = (series, partitions, profiles, bijections, verify)

# Names that only renamed another public call, had no caller outside the
# tests, made up the run-scoped memo that the plan's declared inputs
# replaced, made up the cost model that planned product-side routes before
# every product side followed one rule, built product sides before that
# rule was one function, or were the private tuple twins of a public
# partition map or the scan limit that the shared sum-side scan replaced,
# or planned a catalog identity and a divide-by-M one through one record;
# each must stay gone from the package, its module and the class that held
# it.
REMOVED = (
    (partitions, "satisfies_chain"),
    (partitions, "partitions_no_part_divisible"),
    (profiles, "catalog_lookup"),
    (profiles, "catalog_list"),
    (series.TruncatedSeries, "agrees_to"),
    (series.TruncatedSeries, "truncate"),
    (profiles.Catalog, "names"),
    (series, "geometric_inverse_factor"),
    (series, "pochhammer"),
    (series, "pochhammer_base"),
    (series, "pochhammer_inverse"),
    (series.TruncatedSeries, "render_text"),
    (series.TruncatedSeries, "__sub__"),
    (series.TruncatedSeries, "__neg__"),
    (series.TruncatedSeries, "shift"),
    (partitions, "enumerate_partitions"),
    (partitions, "enumerate_partitions_with_parts"),
    (partitions, "_parts_with"),
    (partitions, "repetition_bounded"),
    (partitions, "no_part_divisible"),
    (partitions.ChainConstraint, "from_lower_gaps"),
    (partitions.ChainConstraint, "uniform"),
    (profiles.Catalog, "__len__"),
    (profiles.Catalog, "__iter__"),
    (profiles.Catalog, "__contains__"),
    (profiles.ProfileFamily, "slot_count"),
    (series.TruncatedSeries, "__mul__"),
    (verify, "_RUN_SERIES"),
    (verify, "_once"),
    *((series, name) for name in (
        "_ALL", "_EULER", "_FACTOR", "_PASS", "_BUILD", "_PLAN", "_cost_terms",
        "_nonzero_terms", "_pentagonal", "_product_bases", "_product_routes", "_all_parts",
    )),
    (verify, "_product_inputs"),
    (bijections, "_glaisher_divide"),
    (bijections, "_glaisher_merge"),
    (partitions, "_conjugate_parts"),
    (partitions, "_repetition_bounded_walk"),
    (profiles, "_SCAN_LIMIT"),
    *((series, name) for name in (
        "_product_side_by_dilation", "_product_side_by_numerator",
        "_product_side_by_complement", "_one_minus_tail",
    )),
    *((verify, name) for name in (
        "IdentityDescriptor", "_catalog_identities", "_glaisher_identity", "_sum_input",
    )),
)

# Parameters that only a test ever set, or that routed product sides through
# a planner; each must stay gone from the call or class that took it.  The
# planner binds catalog entries, not names, the divide-by-M ``alpha`` check
# always compares the same number of terms, and every product side input
# follows one rule.
REMOVED_PARAMETERS = (
    (verify.verify_analytic, "catalog"),
    (verify.verify_combinatorial, "catalog"),
    (verify.verify_equinumerosity, "catalog"),
    (verify.plan_checks, "alpha_terms"),
    (verify.run_suite, "alpha_terms"),
    (bijections.rr2_step_c, "n"),
    (bijections.rr2_inverse, "n"),
    (verify._identity_checks, "product"),
    (verify._group_series_input, "product"),
)


def test_package_list_is_the_module_lists():
    expected = [name for module in MODULES for name in module.__all__]
    assert qident.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    for name in module.__all__:
        assert getattr(qident, name) is getattr(module, name), name


@pytest.mark.parametrize("owner, name", REMOVED, ids=[n for _, n in REMOVED])
def test_removed_names_stay_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(qident, name)


@pytest.mark.parametrize(
    "owner, name",
    REMOVED_PARAMETERS,
    ids=[f"{owner.__name__}-{name}" for owner, name in REMOVED_PARAMETERS],
)
def test_removed_parameters_stay_gone(owner, name):
    assert name not in inspect.signature(owner).parameters


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_definition_is_listed(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__), sorted(defined - set(module.__all__))


def test_verify_imports_only_public_names_of_the_maps():
    """``verify`` certifies the maps and the domain that users import, so it
    takes no private name from the modules that define them."""
    path = Path(verify.__file__)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module in ("partitions", "bijections")
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python = ">=3.10"
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "qident").glob("*.py"))
    assert {path.stem for path in sources} >= {m.__name__[len("qident."):] for m in MODULES}
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def loaded_by_set_up(*names):
    """Those of ``names`` loaded once a fresh interpreter has imported
    ``qident.cli`` and loaded the shipped catalog."""
    src = Path(qident.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import qident.cli, qident.profiles; qident.profiles.default_catalog(); "
        f"print(sorted({set(names)!r} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    return ast.literal_eval(run.stdout)


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # Generating dataclass methods and importing ``inspect`` for them were
    # about 40% of the set-up that every ``qident`` command pays.  Checking
    # the catalog's rules through ``ast`` cost most of another sixth, so the
    # loaded catalog must not have imported it either.
    assert loaded_by_set_up("dataclasses", "inspect", "ast") == []


def test_importing_the_package_loads_no_process_machinery():
    # ``verify`` forks its helper and talks to it through pipes and
    # ``marshal``, all loaded before the package is; a pool or a pickled
    # channel would add its modules to the set-up every command pays.
    names = ("multiprocessing", "concurrent", "pickle", "subprocess")
    assert loaded_by_set_up(*names) == []


def test_every_private_definition_has_a_caller_in_the_package():
    """A module-level function or class whose name starts with an underscore
    is named somewhere in ``src/qident`` other than its own definition; one
    that only tests call belongs in the tests or nowhere."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "qident").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    defined = {
        (stem, node.name)
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    used = set()  # an import alone is no caller
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphaned = sorted(f"{stem}.{name}" for stem, name in defined if name not in used)
    assert orphaned == [], orphaned
