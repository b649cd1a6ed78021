"""Offset profiles: families n -> (slot count, offsets pi(n,1..u)) stored as
data, the conversion into chain constraints, and the shipped catalog.

A profile adds the offset pi(n,s) to the s-th entry of a generic weakly
decreasing vector, turning the plain family of at-most-u-part partitions into
a gap-constrained one.  Profiles are kept as piecewise rule strings in a JSON
catalog so the shipped interpretations are auditable and users can add their
own without touching code.
"""

import _ast
import json
from collections.abc import Iterable
from functools import lru_cache
from importlib import resources
from pathlib import Path

from ._record import Record
from .partitions import ChainConstraint, GapBound, count_chain_by_weight
from .series import (
    ResidueClass,
    TruncatedSeries,
    _standard_terms,
    _sum_terms,
)

__all__ = [
    "UnknownNameError",
    "parity",
    "evaluate_rule",
    "PiecewiseCase",
    "ProfileBranch",
    "ProfileFamily",
    "ProfileValidation",
    "CatalogEntry",
    "Catalog",
    "loads_catalog",
    "load_catalog",
    "dump_catalog",
    "default_catalog",
    "profile_to_chain",
    "profile_series",
    "profile_chain_counts",
    "validate_profile",
]


class UnknownNameError(KeyError):
    """Lookup of a catalog name or alias that does not exist."""

    def __str__(self) -> str:
        return self.args[0] if self.args else "unknown name"


def parity(m: int) -> int:
    """1 for odd integers, 0 for even ones."""
    return m & 1


_ALLOWED_NODES = (
    _ast.Expression,
    _ast.BinOp,
    _ast.UnaryOp,
    _ast.BoolOp,
    _ast.Compare,
    _ast.Call,
    _ast.Name,
    _ast.Load,
    _ast.Constant,
    _ast.Add,
    _ast.Sub,
    _ast.Mult,
    _ast.FloorDiv,
    _ast.Mod,
    _ast.Pow,
    _ast.USub,
    _ast.UAdd,
    _ast.And,
    _ast.Or,
    _ast.Lt,
    _ast.LtE,
    _ast.Gt,
    _ast.GtE,
    _ast.Eq,
    _ast.NotEq,
)
_ALLOWED_NAMES = frozenset({"n", "s", "parity"})

# Largest exponent of ``**`` in a rule, and largest result of it in bits, so
# that no rule (``2**2**n``, or nested powers) can demand unbounded work.
_MAX_EXPONENT = 64
_MAX_POWER_BITS = 4096


def _bounded_pow(base: int, exponent: int, expr: str) -> int:
    if not 0 <= exponent <= _MAX_EXPONENT:
        raise ValueError(
            f"rule {expr!r}: exponent {exponent} outside 0..{_MAX_EXPONENT}"
        )
    if abs(base).bit_length() * exponent > _MAX_POWER_BITS:
        raise ValueError(
            f"rule {expr!r}: a {abs(base).bit_length()}-bit base to the power "
            f"{exponent} exceeds {_MAX_POWER_BITS} bits"
        )
    return base**exponent


def _children(node: _ast.AST) -> Iterable[_ast.AST]:
    """The nodes directly below ``node``, in the order of its fields."""
    for name in node._fields:
        field = getattr(node, name, None)
        if isinstance(field, _ast.AST):
            yield field
        elif isinstance(field, list):
            yield from (item for item in field if isinstance(item, _ast.AST))


def _bound_powers(node: _ast.AST, expr: str) -> _ast.AST:
    """Rewrite every ``a ** b`` below and at ``node`` into
    ``_bounded_pow(a, b, rule)``, each new node at the location of the
    power it replaces."""
    for name in node._fields:
        field = getattr(node, name, None)
        if isinstance(field, _ast.AST):
            setattr(node, name, _bound_powers(field, expr))
        elif isinstance(field, list):
            field[:] = [
                _bound_powers(item, expr) if isinstance(item, _ast.AST) else item
                for item in field
            ]
    if not (isinstance(node, _ast.BinOp) and isinstance(node.op, _ast.Pow)):
        return node
    where = {
        name: getattr(node, name)
        for name in ("lineno", "col_offset", "end_lineno", "end_col_offset")
    }
    return _ast.Call(
        func=_ast.Name("_bounded_pow", _ast.Load(), **where),
        args=[node.left, node.right, _ast.Constant(expr, **where)],
        keywords=[],
        **where,
    )


@lru_cache(maxsize=None)
def _compiled_rule(expr: str):
    """Validate a rule against the whitelist and compile it once, with every
    ``**`` bounded by ``_bounded_pow``.  The tree comes from ``compile``
    itself and is checked breadth first, in the order of ``ast.walk``, so
    that the first disallowed node is the one reported, with no import of
    ``ast``; a rule with no power is compiled from its text."""
    try:
        tree = compile(expr, "<unknown>", "eval", _ast.PyCF_ONLY_AST)
    except SyntaxError as exc:
        raise ValueError(f"invalid rule {expr!r}: {exc.msg}") from None
    todo = [tree]
    for node in todo:  # breadth first: the list grows while it is read
        todo.extend(_children(node))
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"rule {expr!r} uses disallowed syntax: {type(node).__name__}"
            )
        if isinstance(node, _ast.Name) and node.id not in _ALLOWED_NAMES:
            raise ValueError(f"rule {expr!r} references unknown name {node.id!r}")
        if isinstance(node, _ast.Call):
            if not (isinstance(node.func, _ast.Name) and node.func.id == "parity"):
                raise ValueError(f"rule {expr!r} may only call parity()")
            if node.keywords or len(node.args) != 1:
                raise ValueError(f"rule {expr!r}: parity() takes one argument")
        if isinstance(node, _ast.Constant) and not isinstance(node.value, int):
            raise ValueError(f"rule {expr!r} uses a non-integer constant")
    source = _bound_powers(tree, expr) if "**" in expr else expr
    return compile(source, f"<rule {expr!r}>", "eval")


def evaluate_rule(expr: str, **variables: int):
    """Evaluate a whitelisted integer rule with the given variable bindings.
    An exponent outside 0..64, a power above 4096 bits, or a division by
    zero raises ValueError."""
    env = {"parity": parity, "_bounded_pow": _bounded_pow, **variables}
    try:
        return eval(_compiled_rule(expr), {"__builtins__": {}}, env)
    except ZeroDivisionError:
        bindings = ", ".join(f"{k}={v}" for k, v in variables.items())
        raise ValueError(f"rule {expr!r} divides by zero at {bindings}") from None


class PiecewiseCase(Record):
    """One case of a piecewise offset rule; ``when`` is a boolean expression in
    n and s, or the literal "otherwise" for the final catch-all."""

    when: str
    value: str


class ProfileBranch(Record):
    """One indexed sub-family: slot count, declared minimal weight, and the
    piecewise offsets, each as rules in the branch index n."""

    parity_label: str  # "all", "even" or "odd"
    n_min: int
    slots: str
    min_weight: str
    offsets: tuple[PiecewiseCase, ...]

    def slot_count(self, n: int) -> int:
        u = evaluate_rule(self.slots, n=n)
        if u < 0:
            raise ValueError(f"slot rule {self.slots!r} is negative at n={n}")
        return u

    def declared_weight(self, n: int) -> int:
        return evaluate_rule(self.min_weight, n=n)

    def offset(self, n: int, s: int) -> int:
        for case in self.offsets:
            if case.when == "otherwise" or evaluate_rule(case.when, n=n, s=s):
                return evaluate_rule(case.value, n=n, s=s)
        raise ValueError(f"no offset case matched n={n}, s={s}")

    def offsets_at(self, n: int) -> tuple[int, ...]:
        return tuple(self.offset(n, s) for s in range(1, self.slot_count(n) + 1))

    def family_index(self, n: int) -> int:
        """The family index of branch term n, inverting
        ``ProfileFamily.resolve``."""
        return {"all": n, "even": 2 * n, "odd": 2 * n - 1}[self.parity_label]


class ProfileFamily(Record):
    """A named offset profile: one branch, or an even and an odd one by part count."""

    name: str
    branches: tuple[ProfileBranch, ...]

    def resolve(self, index: int) -> tuple[ProfileBranch, int]:
        """Map a family index to (branch, branch-local n).

        Single-branch families are indexed by the branch's own n.  Two-branch
        families are indexed by part count: the even branch covers even
        indexes with n = index/2, the odd branch covers odd indexes with
        n = (index+1)/2.
        """
        if len(self.branches) == 1:
            branch = self.branches[0]
            if index < branch.n_min:
                raise ValueError(
                    f"index {index} below the domain of profile {self.name}"
                )
            return branch, index
        label = "even" if index % 2 == 0 else "odd"
        for branch in self.branches:
            if branch.parity_label == label:
                n = index // 2 if label == "even" else (index + 1) // 2
                if n < branch.n_min:
                    raise ValueError(
                        f"index {index} below the domain of profile {self.name}"
                    )
                return branch, n
        raise ValueError(f"profile {self.name} has no branch for index {index}")

    def offsets_at(self, index: int) -> tuple[int, ...]:
        branch, n = self.resolve(index)
        return branch.offsets_at(n)


class ProfileValidation(Record):
    """What ``validate_profile`` found up to ``checked_to``, a line per failure."""

    profile: str
    checked_to: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class CatalogEntry(Record):
    """An interpretation: its profile, the product side it counts, if any, its
    source, its other names and the label of the identity it belongs to."""

    profile: ProfileFamily
    product: ResidueClass | None
    source: str
    aliases: tuple[str, ...] = ()
    identity: str | None = None  # shared label; None means the entry's own name

    @property
    def name(self) -> str:
        return self.profile.name


class Catalog:
    """Ordered, immutable collection of entries addressable by name or alias."""

    def __init__(self, entries: Iterable[CatalogEntry]):
        self._entries = tuple(entries)
        self._by_name: dict[str, CatalogEntry] = {}
        for entry in self._entries:
            for key in (entry.name, *entry.aliases):
                if key in self._by_name:
                    raise ValueError(f"duplicate catalog name {key!r}")
                self._by_name[key] = entry
        for entry in self._entries:
            owner = self._by_name.get(entry.identity)
            if owner is not None and owner is not entry:
                raise ValueError(
                    f"identity {entry.identity!r} of {entry.name!r} is the name "
                    f"or alias of entry {owner.name!r}"
                )

    def entries(self) -> tuple[CatalogEntry, ...]:
        return self._entries

    def lookup(self, name: str) -> CatalogEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownNameError(f"unknown catalog entry {name!r}") from None


# the keys of each JSON object of a catalog, as ``dump_catalog`` writes them
_ENTRY_KEYS = frozenset(
    {"name", "aliases", "identity", "source", "modulus", "residues", "branches"}
)
_BRANCH_KEYS = frozenset({"parity", "n_min", "slots", "min_weight", "offsets"})
_CASE_KEYS = frozenset({"when", "value"})


def _known_keys(data: dict, known: frozenset[str], what: str) -> None:
    """Reject a key of ``data`` outside ``known``: a misspelt key would
    otherwise be ignored, and its field would silently keep its default."""
    if unknown := sorted(set(data) - known):
        raise ValueError(f"unknown {what} {unknown[0]!r}")


def _strings(data: dict, *keys: str) -> None:
    """Reject a value of ``data`` under one of ``keys`` that is not a string."""
    for key in keys:
        if not isinstance(data.get(key, ""), str):
            raise ValueError(f"{key} must be a string")


def _branch_from_json(data: dict) -> ProfileBranch:
    _known_keys(data, _BRANCH_KEYS, "branch key")
    _strings(data, "slots", "min_weight")
    label = data["parity"]
    if label not in ("all", "even", "odd"):
        raise ValueError(f"invalid branch parity {label!r}")
    n_min = data["n_min"]
    if not _list_of([n_min], int):
        raise ValueError("n_min must be an integer")
    if n_min < 0:
        raise ValueError("n_min must be nonnegative")
    if not _list_of(data["offsets"], dict):
        raise ValueError("offsets must be a list of objects")
    for case in data["offsets"]:
        _known_keys(case, _CASE_KEYS, "offset case key")
        _strings(case, "when", "value")
    cases = tuple(PiecewiseCase(c["when"], c["value"]) for c in data["offsets"])
    if not cases or cases[-1].when != "otherwise":
        raise ValueError("the last offset case must be 'otherwise'")
    for case in cases[:-1]:
        if case.when == "otherwise":
            raise ValueError("'otherwise' is only allowed as the final case")
        _compiled_rule(case.when)
    for case in cases:
        _compiled_rule(case.value)
    _compiled_rule(data["slots"])
    _compiled_rule(data["min_weight"])
    return ProfileBranch(label, n_min, data["slots"], data["min_weight"], cases)


def _list_of(values, kind: type) -> bool:
    """Whether ``values`` is a JSON array of ``kind`` values, a bool counting
    as no int."""
    return isinstance(values, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in values
    )


def _entry_from_json(data: dict) -> CatalogEntry:
    if not isinstance(data, dict):
        raise ValueError("entries must be JSON objects")
    if not _list_of(data["branches"], dict):
        raise ValueError("branches must be a list of objects")
    branches = tuple(_branch_from_json(b) for b in data["branches"])
    _known_keys(data, _ENTRY_KEYS, "key")
    _strings(data, "name", "source")
    if not _list_of(data.get("aliases", []), str):
        raise ValueError("aliases must be a list of strings")
    if len(branches) == 1:
        if branches[0].parity_label != "all":
            raise ValueError("a single branch must have parity 'all'")
    elif len(branches) == 2:
        if {b.parity_label for b in branches} != {"even", "odd"}:
            raise ValueError("two branches must be one 'even' and one 'odd'")
    else:
        raise ValueError("a profile has one or two branches")
    identity = data.get("identity")
    if identity is not None and not (isinstance(identity, str) and identity):
        raise ValueError("identity must be a nonempty string")
    product = None
    if data.get("modulus") is not None:
        if not _list_of([data["modulus"]], int):
            raise ValueError("modulus must be an integer")
        if not _list_of(data["residues"], int):
            raise ValueError("residues must be a list of integers")
        product = ResidueClass(data["modulus"], frozenset(data["residues"]))
    elif data.get("residues") is not None:
        raise ValueError("residues must be null without a modulus")
    return CatalogEntry(
        profile=ProfileFamily(data["name"], branches),
        product=product,
        source=data.get("source", ""),
        aliases=tuple(data.get("aliases", ())),
        identity=identity,
    )


def loads_catalog(text: str) -> Catalog:
    """Parse a catalog.  A payload that is not an object with an ``entries``
    list raises ValueError; so does an entry with a missing or unknown key, a
    value of the wrong type or an invalid field, and the error names the
    entry (by position when it has no string name)."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ValueError("a catalog must be a JSON object with an 'entries' list")
    entries = []
    for position, data in enumerate(payload["entries"], start=1):
        try:
            entries.append(_entry_from_json(data))
        except (KeyError, TypeError, ValueError) as exc:
            name = data.get("name") if isinstance(data, dict) else None
            label = repr(name) if isinstance(name, str) else f"#{position}"
            problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"catalog entry {label}: {problem}") from None
    return Catalog(entries)


def load_catalog(path: str | Path) -> Catalog:
    """Read and parse a catalog file; one that cannot be read raises
    ValueError naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or exc
        raise ValueError(f"cannot read catalog {str(path)!r}: {reason}") from None
    return loads_catalog(text)


def dump_catalog(catalog: Catalog) -> str:
    """Canonical JSON rendering; loading and re-dumping a shipped file is
    byte-identical."""
    entries = []
    for entry in catalog.entries():
        identity = {"identity": entry.identity} if entry.identity is not None else {}
        entries.append(
            {
                "name": entry.name,
                "aliases": list(entry.aliases),
                **identity,
                "source": entry.source,
                "modulus": entry.product.modulus if entry.product else None,
                "residues": (
                    list(entry.product.sorted_residues()) if entry.product else None
                ),
                "branches": [
                    {
                        "parity": b.parity_label,
                        "n_min": b.n_min,
                        "slots": b.slots,
                        "min_weight": b.min_weight,
                        "offsets": [
                            {"when": c.when, "value": c.value} for c in b.offsets
                        ],
                    }
                    for b in entry.profile.branches
                ],
            }
        )
    return json.dumps({"entries": entries}, indent=2) + "\n"


@lru_cache(maxsize=1)
def default_catalog() -> Catalog:
    text = resources.files(__package__).joinpath("catalog.json").read_text("utf-8")
    return loads_catalog(text)


def _offsets_chain(name: str, index: int, offsets: tuple[int, ...]) -> ChainConstraint:
    """Chain constraint of one nonempty offset row: lower gap bounds are
    adjacent offset differences, the terminal bound is the last offset.
    Rejects rows that go negative or increase, naming profile and position."""
    for s, value in enumerate(offsets, start=1):
        if value < 0:
            raise ValueError(
                f"profile {name}: offset {value} at (index={index}, s={s}) "
                "is negative"
            )
    for s in range(len(offsets) - 1):
        if offsets[s] < offsets[s + 1]:
            raise ValueError(
                f"profile {name}: offsets increase at (index={index}, "
                f"s={s + 1} -> {s + 2})"
            )
    gaps = tuple(
        GapBound(offsets[s] - offsets[s + 1]) for s in range(len(offsets) - 1)
    )
    return ChainConstraint(gaps, GapBound(offsets[-1]))


def profile_to_chain(family: ProfileFamily, index: int) -> ChainConstraint:
    """Chain constraint induced by the offsets at one family index."""
    offsets = family.offsets_at(index)
    if not offsets:
        raise ValueError(f"profile {family.name} has no slots at index {index}")
    return _offsets_chain(family.name, index, offsets)


def profile_series(family: ProfileFamily, order: int) -> TruncatedSeries:
    """Sum over all branch terms of q^{min_weight(n)}/((1-q)...(1-q^{slots(n)})).

    Identical for every profile sharing the same slot-count and weight rules;
    the offsets do not enter.  Each branch's terms are scanned and checked
    as ``sum_side_standard`` scans them, and the terms of all branches are
    sorted by exponent and summed in one nest from the last term down, so
    one nest serves every branch.
    """
    return _sum_terms(
        sorted(
            term
            for b in family.branches
            for term in _standard_terms(b.declared_weight, b.slot_count, order, b.n_min)
        ),
        order,
    )


def profile_chain_counts(family: ProfileFamily, max_weight: int) -> list[int]:
    """Counts, for every weight 0..max_weight, of chain vectors over all branch
    terms of the family.  This is the enumeration route: it never touches the
    series algebra, though each branch's terms are scanned and checked by the
    scan ``profile_series`` reads, up to exponent ``max_weight``."""
    counts = [0] * (max_weight + 1)
    for branch in family.branches:
        terms = _standard_terms(
            branch.declared_weight, branch.slot_count, max_weight + 1, branch.n_min
        )
        for n, (w, u) in enumerate(terms, start=branch.n_min):
            if u == 0:
                counts[w] += 1
                continue
            chain = _offsets_chain(family.name, branch.family_index(n), branch.offsets_at(n))
            term_counts = count_chain_by_weight(chain, max_weight)
            for weight in range(w, max_weight + 1):
                counts[weight] += term_counts[weight]
    return counts


def validate_profile(family: ProfileFamily, n_max: int) -> ProfileValidation:
    """Check, for every branch index up to ``n_max``, that the offsets pass
    the nonnegativity and weak-decrease checks of ``_offsets_chain`` and sum
    to the declared weight."""
    failures: list[str] = []
    for branch in family.branches:
        for n in range(branch.n_min, n_max + 1):
            where = f"{family.name}[{branch.parity_label}] n={n}: "
            try:
                offsets = branch.offsets_at(n)
            except ValueError as exc:
                failures.append(where + str(exc))
                continue
            if offsets:
                try:
                    _offsets_chain(family.name, branch.family_index(n), offsets)
                except ValueError as exc:
                    failures.append(where + str(exc))
            declared = branch.declared_weight(n)
            total = sum(offsets)
            if total != declared:
                failures.append(
                    f"{where}offsets sum to {total}, declared weight is {declared}"
                )
    return ProfileValidation(family.name, n_max, tuple(failures))
