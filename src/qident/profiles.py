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
from operator import sub
from pathlib import Path

from ._record import Record
from .partitions import ChainConstraint, count_chain_by_weight
from .series import (
    ResidueClass,
    SumTerminationError,
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
_VARIABLES = frozenset({"n", "s"})
_ALLOWED_NAMES = _VARIABLES | {"parity"}

# Largest exponent of ``**`` in a rule, and largest result of it in bits, so
# that no rule (``2**2**n``, or nested powers) can demand unbounded work; and
# the longest rule, past which compiling one can exhaust the parser's stack.
_MAX_EXPONENT = 64
_MAX_RULE_LENGTH = 256
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
    if len(expr) > _MAX_RULE_LENGTH:
        raise ValueError(f"a rule of {len(expr)} characters is longer than {_MAX_RULE_LENGTH}")
    try:
        tree = compile(expr, "<unknown>", "eval", _ast.PyCF_ONLY_AST)
    except SyntaxError as exc:
        raise ValueError(f"invalid rule {expr!r}: {exc.msg}") from None
    todo = [tree]
    for node in todo:  # breadth first: the list grows while it is read
        todo.extend(_children(node))
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"rule {expr!r} uses disallowed syntax: {type(node).__name__}")
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
    An exponent outside 0..64, a power above 4096 bits, a division by zero
    or a variable left unbound raises ValueError."""
    env = {"parity": parity, "_bounded_pow": _bounded_pow, **variables}
    try:
        return eval(_compiled_rule(expr), {"__builtins__": {}}, env)
    except ZeroDivisionError:
        bindings = ", ".join(f"{k}={v}" for k, v in variables.items())
        raise ValueError(f"rule {expr!r} divides by zero at {bindings}") from None
    except NameError as exc:
        raise ValueError(f"rule {expr!r} names {exc.name}, which is not bound") from None


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
            branch, n = self.branches[0], index
        else:
            label = "odd" if index % 2 else "even"
            matching = [b for b in self.branches if b.parity_label == label]
            if not matching:
                raise ValueError(f"profile {self.name} has no branch for index {index}")
            branch, n = matching[0], (index + 1) // 2
        if n < branch.n_min:
            raise ValueError(f"index {index} below the domain of profile {self.name}")
        return branch, n

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


# One table per JSON object of a catalog: its keys in the order ``dump_catalog``
# writes them, each with the JSON type of its value and, for a key that may be
# absent, the default it then reads as.  A type is ``str``, ``int``, ``list``,
# ``(type,)`` for a list of one type, or a rule: the frozenset of the names it
# may use.  A key whose default is None or _UNSET may also be null, read as
# None; the dumper writes a None value as null, but leaves an _UNSET key out.
_UNSET = object()
_CASE = (("when", str), ("value", frozenset({"n", "s"})))
_BRANCH = (
    ("parity", str),
    ("n_min", int),
    ("slots", frozenset({"n"})),
    ("min_weight", frozenset({"n"})),
    ("offsets", (dict,)),
)
_ENTRY = (
    ("name", str),
    ("aliases", (str,), []),
    ("identity", str, _UNSET),
    ("source", str, ""),
    ("modulus", int, None),
    ("residues", (int,), None),
    ("branches", (dict,)),
)
_ENTRIES = "entries"
_CATALOG = ((_ENTRIES, list),)  # the top-level object; each entry is checked on its own
_TYPE_NAMES = {str: "a string", int: "an integer", (str,): "a list of strings",
               (int,): "a list of integers", (dict,): "a list of objects"}


def _is(value, json_type) -> bool:
    """Whether ``value``, as ``json`` parsed it, is of ``json_type``: a bool is no int."""
    if isinstance(json_type, tuple):
        return type(value) is list and all(type(v) is json_type[0] for v in value)
    return type(value) is json_type


def _fields(data: dict, table: tuple, what: str) -> list:
    """The values of ``data`` in ``table`` order, an absent key read as its
    default.  A key outside the table (a misspelt key would otherwise be
    ignored), a value of the wrong type and a rule naming a variable its key
    does not take raise ValueError, and a missing key KeyError."""
    if unknown := sorted(set(data) - {key for key, *_ in table}):
        raise ValueError(f"unknown {what} {unknown[0]!r}")
    values = []
    for key, kind, *default in table:
        value = data.get(key, *default) if default else data[key]
        json_type = str if isinstance(kind, frozenset) else kind
        if value is _UNSET or value is None and default in ([None], [_UNSET]):
            value = None
        elif not _is(value, json_type):
            raise ValueError(f"{key} must be {_TYPE_NAMES[json_type]}")
        elif kind is not json_type:  # a rule, in the names ``kind`` holds
            if unbound := _VARIABLES.intersection(_compiled_rule(value).co_names) - kind:
                raise ValueError(
                    f"{key} rule {value!r} names {min(unbound)}, as only offset rules may"
                )
        values.append(value)
    return values


def _branch_from_json(data: dict) -> ProfileBranch:
    label, n_min, slots, min_weight, offsets = _fields(data, _BRANCH, "branch key")
    if label not in ("all", "even", "odd"):
        raise ValueError(f"invalid branch parity {label!r}")
    if n_min < 0:
        raise ValueError("n_min must be nonnegative")
    cases = tuple(PiecewiseCase(*_fields(c, _CASE, "offset case key")) for c in offsets)
    if not cases or cases[-1].when != "otherwise":
        raise ValueError("the last offset case must be 'otherwise'")
    for case in cases[:-1]:
        if case.when == "otherwise":
            raise ValueError("'otherwise' is only allowed as the final case")
        _compiled_rule(case.when)
    return ProfileBranch(label, n_min, slots, min_weight, cases)


def _entry_from_json(data: dict) -> CatalogEntry:
    if not isinstance(data, dict):
        raise ValueError("entries must be JSON objects")
    name, aliases, identity, source, modulus, residues, branches = _fields(data, _ENTRY, "key")
    for key, value in (("name", name), ("identity", identity)):
        if value == "":
            raise ValueError(f"{key} must be a nonempty string")
    branches = tuple(map(_branch_from_json, branches))
    if len(branches) == 1:
        if branches[0].parity_label != "all":
            raise ValueError("a single branch must have parity 'all'")
    elif len(branches) == 2:
        if {b.parity_label for b in branches} != {"even", "odd"}:
            raise ValueError("two branches must be one 'even' and one 'odd'")
    else:
        raise ValueError("a profile has one or two branches")
    if (modulus is None) != (residues is None):
        given = "null without" if modulus is None else "given with"
        raise ValueError(f"residues must be {given} a modulus")
    if residues is not None and len(set(residues)) < len(residues):
        raise ValueError("residues must not repeat a value")
    product = None if modulus is None else ResidueClass(modulus, frozenset(residues))
    return CatalogEntry(ProfileFamily(name, branches), product, source, tuple(aliases), identity)


def loads_catalog(text: str) -> Catalog:
    """Parse a catalog.  A payload that is not an object with an ``entries``
    list and nothing else raises ValueError; so does an entry with a missing
    or unknown key, a value of the wrong type or an invalid field, and the
    error names the entry (by position when it has no nonempty string name)."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get(_ENTRIES), list):
        raise ValueError("a catalog must be a JSON object with an 'entries' list")
    (items,) = _fields(payload, _CATALOG, "top-level key")
    entries = []
    for position, data in enumerate(items, start=1):
        try:
            entries.append(_entry_from_json(data))
        except (KeyError, TypeError, ValueError) as exc:
            name = data.get("name") if isinstance(data, dict) else None
            label = repr(name) if isinstance(name, str) and name else f"#{position}"
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


def _json(table: tuple, *values) -> dict:
    """``values`` under ``table``'s keys, less an _UNSET key holding None."""
    return {row[0]: v for row, v in zip(table, values) if v is not None or _UNSET not in row}


def dump_catalog(catalog: Catalog) -> str:
    """Canonical JSON rendering, each object's keys in its table's order;
    loading and re-dumping a shipped file is byte-identical."""
    entries = []
    for entry in catalog.entries():
        rc = entry.product
        product = (rc.modulus, list(rc.sorted_residues())) if rc else (None, None)
        branches = [
            _json(_BRANCH, b.parity_label, b.n_min, b.slots, b.min_weight,
                  [_json(_CASE, c.when, c.value) for c in b.offsets])
            for b in entry.profile.branches
        ]
        values = entry.name, list(entry.aliases), entry.identity, entry.source, *product
        entries.append(_json(_ENTRY, *values, branches))
    return json.dumps(_json(_CATALOG, entries), indent=2) + "\n"


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
    return ChainConstraint(tuple(map(sub, offsets, offsets[1:])), offsets[-1])


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


# Terms a branch's scan may list with exponents within the bound before it
# gives up: the limit ``sum_side_standard`` sets on the series route.
_MAX_TERMS = 10_000


def _chain_terms(branch: ProfileBranch, max_weight: int) -> list[tuple[int, int, int]]:
    """(n, S(n), u(n)) of every term of ``branch`` whose exponent S(n) is at
    most ``max_weight``, read from its rules up to the first that is not.
    The exponents must be nonnegative and nondecreasing, and a scan that
    stays within the bound for more than 10,000 terms raises
    SumTerminationError.  This is the enumeration route's own scan, sharing
    no code with the one ``profile_series`` reads."""
    terms = []
    previous = 0
    for n in range(branch.n_min, branch.n_min + _MAX_TERMS + 1):
        w, u = branch.declared_weight(n), branch.slot_count(n)
        if w < 0:
            raise ValueError(f"negative exponent at n={n}")
        if w < previous:
            raise ValueError(
                f"term exponents must be nondecreasing: value {w} at n={n} "
                f"after {previous}"
            )
        if w > max_weight:
            return terms
        previous = w
        terms.append((n, w, u))
    raise SumTerminationError(
        f"exponent stayed at most {max_weight} for more than {_MAX_TERMS} "
        f"terms (last n={n})"
    )


def profile_chain_counts(family: ProfileFamily, max_weight: int) -> list[int]:
    """Counts, for every weight 0..max_weight, of chain vectors over all branch
    terms of the family.  This is the enumeration route: it never touches the
    series algebra.  Every branch's terms are scanned by ``_chain_terms``
    before any chain is counted, so a scan that fails does so before the
    counting work."""
    terms = [(b, term) for b in family.branches for term in _chain_terms(b, max_weight)]
    counts = [0] * (max_weight + 1)
    for branch, (n, w, u) in terms:
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
