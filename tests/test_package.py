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
# or planned a catalog identity and a divide-by-M one through one record,
# or bounded a chain's gaps from above, which no chain the package builds
# does; each must stay gone from the package, its module and the class that held
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
    (partitions, "GapBound"),
    (series, "alpha_recurrence"),
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


# Every underscore name that one module of the package imports from another,
# as (importer, module, name); each group is listed with its reason.  Making
# them public would grow ``__all__`` by about ten names, so they wait to move
# next to their one caller or to fold into one public function each.
PRIVATE_IMPORTS = {
    # the shared series builds that ``verify`` declares as plan inputs, each
    # built once per run; a public call per build cost time
    ("verify", "series", "_alpha_from_sum"),
    ("verify", "series", "_euler"),
    ("verify", "series", "_glaisher_sum"),
    ("verify", "series", "_glaisher_tails"),
    ("verify", "series", "_product_side"),
    ("verify", "series", "_reciprocal"),
    # the term scan and the nested sum that ``profile_series`` shares with
    # ``sum_side_standard``
    ("profiles", "series", "_standard_terms"),
    ("profiles", "series", "_sum_terms"),
    # formatting: the bracketed part list of errors and CLI lines, and the
    # text table that the CLI's ``catalog`` listing shares with ``verify``
    ("bijections", "partitions", "_bracketed"),
    ("cli", "partitions", "_bracketed"),
    ("cli", "verify", "_table"),
    # the rr2 map's shift, which the CLI prints among the map's steps
    ("cli", "bijections", "_rr2_shift"),
}


def test_verify_imports_only_public_names_of_the_maps():
    """No module of the package imports another's underscore name unless
    ``PRIVATE_IMPORTS`` lists it, and every listed import is still made;
    ``verify`` certifies the maps and the domain that users import, so no
    entry lets it take a private name from the modules that define them."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "qident").glob("*.py"))
    imported = {
        (path.stem, node.module, alias.name)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported == PRIVATE_IMPORTS
    verify_takes = {module for importer, module, _ in PRIVATE_IMPORTS if importer == "verify"}
    assert verify_takes.isdisjoint({"partitions", "bijections"})


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


# Public definitions with no caller in the package that stay, each for a
# reason of its own.
UNCALLED = {
    # the library example in the README
    "series.sum_side_standard",
    # checks that ROADMAP item 3 gives rows of ``verify``
    "profiles.validate_profile",
    "bijections.weight_relation_check",
}


def test_every_private_definition_has_a_caller_in_the_package():
    """A module-level function or class, public or not, is named somewhere in
    ``src/qident`` other than its own definition, unless ``UNCALLED`` gives
    it a reason; one that only tests call belongs in the tests or nowhere."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "qident").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    defined = {
        (stem, node.name)
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = set()  # an import alone is no caller
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphaned = sorted(f"{stem}.{name}" for stem, name in defined if name not in used)
    assert orphaned == sorted(UNCALLED), orphaned
