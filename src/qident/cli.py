"""Command-line surface: verify identities, enumerate chain vectors, apply
bijections, inspect the catalog, and dump series coefficients.

Exit codes: 0 success, 1 verification mismatch, 2 bad flags (argparse),
3 unknown name, 4 domain violation.  A reader that closes stdout early ends
the output, not the run: ``verify`` still exits with its verdict's code, any
other command with 0, and no traceback is printed.
"""

import argparse
import json
import os
import sys
from collections.abc import Sequence

from .bijections import (
    _rr2_shift,
    glaisher_forward,
    glaisher_forward_steps,
    glaisher_inverse,
    glaisher_inverse_steps,
    profile_bijection,
    rr2_inverse,
    rr2_record,
    rr2_step_c,
)
from .partitions import Partition, _bracketed, enumerate_chain, parse_partition
from .profiles import (
    Catalog,
    UnknownNameError,
    default_catalog,
    dump_catalog,
    load_catalog,
    profile_series,
    profile_to_chain,
)
from .series import (
    ResidueClass,
    SumTerminationError,
    alpha_closed_form,
    euler_distinct_sum,
    product_side,
    sum_side_glaisher,
)
from .verify import CONJUGATE_MAX_WEIGHT, _table, run_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_NAME = 3
EXIT_DOMAIN = 4

CATALOG_ENV = "QIDENT_CATALOG"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _residue_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid residue list {text!r}") from None


def _resolve_catalog(args: argparse.Namespace) -> Catalog:
    path = getattr(args, "catalog", None) or os.environ.get(CATALOG_ENV)
    if path:
        return load_catalog(path)
    return default_catalog()


def _discard_stdout() -> None:
    """Point stdout at the null device once its reader has closed it, so the
    flush at exit has nothing to fail on."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def cmd_verify(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args)
    names = args.names or ["all"]
    if names == ["glaisher"]:
        if args.modulus is None:
            print("error: verify glaisher requires --modulus", file=sys.stderr)
            return EXIT_USAGE
        names = [f"glaisher-{args.modulus}"]
    elif args.modulus is not None:
        print("error: --modulus applies only to 'verify glaisher'", file=sys.stderr)
        return EXIT_USAGE
    summary = run_suite(names, args.order, args.max_weight, catalog)
    try:
        if args.format == "machine":
            for line in summary.machine_lines():
                print(line)
        else:
            print(summary.render_table())
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
    if summary.has_mismatch:
        return EXIT_MISMATCH
    if summary.has_error:
        return EXIT_UNKNOWN_NAME
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args)
    entry = catalog.lookup(args.profile)
    chain = profile_to_chain(entry.profile, args.n)
    for vector in enumerate_chain(chain, args.weight):
        print(Partition.from_vector(vector))
    return EXIT_OK


def cmd_bijection(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args)
    p = parse_partition(args.partition)
    record: dict[str, object] = {"input": list(p.parts)}
    lines = [f"input:  {p}"]
    trailer: list[str] = []
    if args.map in ("glaisher", "glaisher-inv"):
        if args.modulus is None:
            print("error: glaisher maps require --modulus", file=sys.stderr)
            return EXIT_USAGE
        stepper, image = (
            (glaisher_forward_steps, glaisher_forward)
            if args.map == "glaisher"
            else (glaisher_inverse_steps, glaisher_inverse)
        )
        steps = stepper(p, args.modulus)
        record["steps"] = [list(s.parts) for s in steps[1:-1]]
        output = image(p.parts, args.modulus)
        lines += [f"step:   {step}" for step in steps[1:-1]]
    elif args.map == "rr2":
        c = rr2_step_c(p)
        weights = rr2_record(p)
        output = weights.image
        shift = _rr2_shift(p.parts)
        record.update(
            c=list(c),
            input_weight=weights.source_weight,
            output_weight=weights.image_weight,
        )
        lines.append(f"c:      {_bracketed(c)}")
        n = len(p.parts)
        trailer.append(
            f"weight: {weights.image_weight} = {weights.source_weight} "
            f"+ {n * n} - {shift}"
        )
    elif args.map == "rr2-inv":
        output = rr2_inverse(p.parts).parts
    else:  # profile
        if args.source is None or args.target is None or args.n is None:
            print(
                "error: bijection profile requires --source, --target and --n",
                file=sys.stderr,
            )
            return EXIT_USAGE
        source = catalog.lookup(args.source).profile
        target = catalog.lookup(args.target).profile
        output = profile_bijection(p.parts, source, target, args.n)
        base = tuple(a - off for a, off in zip(p.parts, source.offsets_at(args.n)))
        record["base"] = list(base)
        lines.append(f"base:   {_bracketed(base)}")
    record["output"] = list(output)
    lines += [f"output: {_bracketed(output)}", *trailer]
    if args.format == "machine":
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args)
    if args.format == "machine":
        sys.stdout.write(dump_catalog(catalog))
        return EXIT_OK
    headers = ["name", "product", "terms", "source"]
    rows = []
    for entry in catalog.entries():
        name = entry.name
        if entry.aliases:
            name += f" ({', '.join(entry.aliases)})"
        product = entry.product.label() if entry.product else "-"
        terms = "; ".join(
            f"u={b.slots}, S={b.min_weight}" for b in entry.profile.branches
        )
        rows.append([name, product, terms, entry.source])
    print("\n".join(_table(headers, rows)))
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args)
    kind = args.kind
    if kind == "product":
        if args.modulus is None or not args.residues:
            print(
                "error: series product requires --modulus and --residues",
                file=sys.stderr,
            )
            return EXIT_USAGE
        series = product_side(
            ResidueClass(args.modulus, frozenset(args.residues)), args.order
        )
    elif kind == "glaisher-sum":
        if args.modulus is None:
            print("error: series glaisher-sum requires --modulus", file=sys.stderr)
            return EXIT_USAGE
        series = sum_side_glaisher(args.modulus, args.order)
    elif kind == "profile-sum":
        if args.profile is None:
            print("error: series profile-sum requires --profile", file=sys.stderr)
            return EXIT_USAGE
        series = profile_series(catalog.lookup(args.profile).profile, args.order)
    elif kind == "distinct-sum":
        series = euler_distinct_sum(args.order)
    elif kind == "alpha":
        if args.modulus is None or args.n is None:
            print("error: series alpha requires --modulus and --n", file=sys.stderr)
            return EXIT_USAGE
        series = alpha_closed_form(args.modulus, args.n, args.order)
    else:
        raise UnknownNameError(f"unknown series kind {kind!r}")
    if args.format == "machine":
        print(json.dumps(series.to_list(), separators=(",", ":")))
    else:
        for exponent, coefficient in enumerate(series.coefficients):
            print(f"{exponent}:{coefficient}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact verification of partition identities: "
        "truncated q-series on both sides, chain enumeration as an "
        "independent oracle, and certified bijections.",
    )
    parser.add_argument(
        "--catalog",
        default=None,
        help=f"path to an alternative profile catalog (or ${CATALOG_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("names", nargs="*", help="identity names, or 'all'")
    p_verify.add_argument("--order", type=_positive_int, default=60)
    p_verify.add_argument(
        "--max-weight",
        type=_nonnegative_int,
        default=25,
        help="largest weight for enumeration checks; the divide-by-M conjugate "
        f"check stops at {CONJUGATE_MAX_WEIGHT}",
    )
    p_verify.add_argument(
        "--modulus",
        type=_positive_int,
        default=None,
        help="M for 'verify glaisher' (same as 'verify glaisher-M')",
    )
    p_verify.add_argument("--format", choices=("text", "machine"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list chain vectors of a profile")
    p_enum.add_argument("profile")
    p_enum.add_argument("--n", type=_nonnegative_int, required=True,
                        help="family index (part count for two-branch profiles)")
    p_enum.add_argument("--weight", type=_nonnegative_int, required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    p_bij = sub.add_parser("bijection", help="apply one of the explicit maps")
    p_bij.add_argument(
        "map", choices=("profile", "rr2", "rr2-inv", "glaisher", "glaisher-inv")
    )
    p_bij.add_argument("partition", help="bracketed form, e.g. '[7,6,4,2,1]'")
    p_bij.add_argument("--modulus", type=_positive_int, default=None)
    p_bij.add_argument("--source", default=None, help="source profile name")
    p_bij.add_argument("--target", default=None, help="target profile name")
    p_bij.add_argument("--n", type=_nonnegative_int, default=None)
    p_bij.add_argument("--format", choices=("text", "machine"), default="text")
    p_bij.set_defaults(func=cmd_bijection)

    p_cat = sub.add_parser("catalog", help="list the profile catalog")
    p_cat.add_argument("--format", choices=("text", "machine"), default="text")
    p_cat.set_defaults(func=cmd_catalog)

    p_series = sub.add_parser("series", help="dump series coefficients")
    p_series.add_argument(
        "kind",
        choices=("product", "glaisher-sum", "profile-sum", "distinct-sum", "alpha"),
    )
    p_series.add_argument("--order", type=_positive_int, default=60)
    p_series.add_argument("--modulus", type=_positive_int, default=None)
    p_series.add_argument("--residues", type=_residue_list, default=None)
    p_series.add_argument("--profile", default=None)
    p_series.add_argument("--n", type=_nonnegative_int, default=None)
    p_series.add_argument("--format", choices=("text", "machine"), default="text")
    p_series.set_defaults(func=cmd_series)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_OK
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except (ValueError, SumTerminationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
