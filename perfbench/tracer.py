"""Outside-in tracer for the traced benchmark pass.

The tracer replaces each public layer function named in ``TARGETS`` with a
timing wrapper, in every ``qident`` module namespace that binds it, so calls
between modules and calls inside one module (``sum_side_standard`` ->
``pochhammer_inverse``) are both caught.  Nothing under ``src/`` changes; the
untraced passes import the package unpatched.

Spans are kept in memory as ``[name, start, end, parent, check, count]`` and
written out after the pass.  ``parent`` is the index of the enclosing span
(-1 at the root), ``check`` the id shared by every span under one check
function, ``count`` the work the call returned (series order, partitions,
vectors, certified domain size) or a key, where the layer has one.
"""

import json
import sys
import time
from collections import Counter


def _size(result, args, kwargs):
    return len(result)


def _order(result, args, kwargs):
    return result.order


def _certified(result, args, kwargs):
    return result.domain_size


def _chain_key(result, args, kwargs):
    family = args[0] if args else kwargs["family"]
    max_weight = args[1] if len(args) > 1 else kwargs["max_weight"]
    return [family.name, max_weight]


# defining module -> {function name: (layer group, what a call records)}
TARGETS = {
    "qident.series": {
        name: ("series", _order)
        for name in (
            "product_side",
            "sum_side_standard",
            "sum_side_glaisher",
            "euler_distinct_sum",
            "alpha_closed_form",
            "alpha_recurrence",
            "pochhammer_inverse",
        )
    },
    "qident.partitions": {
        "enumerate_partitions": ("generate", _size),
        "enumerate_partitions_with_parts": ("generate", _size),
        "partitions_repetition_bounded": ("filter", _size),
        "partitions_no_part_divisible": ("filter", _size),
        "enumerate_chain": ("chain", _size),
        "count_chain_by_weight": ("chain", None),
    },
    "qident.profiles": {
        "profile_chain_counts": ("chain_counts", _chain_key),
        "profile_series": ("profile_series", None),
    },
    "qident.bijections": {
        "certify_bijection": ("certify", _certified),
        "glaisher_forward": ("map", None),
        "glaisher_inverse": ("map", None),
    },
    "qident.verify": {
        "verify_analytic": ("check:analytic", None),
        "glaisher_analytic_report": ("check:analytic", None),
        "verify_combinatorial": ("check:combinatorial", None),
        "verify_equinumerosity": ("check:equinumerosity", None),
        "glaisher_bijection_report": ("check:bijection", None),
        "glaisher_conjugate_report": ("check:conjugate", None),
        "glaisher_alpha_report": ("check:alpha", None),
        "euler_forms_report": ("check:forms", None),
        "run_suite": ("suite", None),
    },
    "qident.cli": {"main": ("cli", None)},
}

CHECK_KINDS = (
    "analytic",
    "combinatorial",
    "equinumerosity",
    "bijection",
    "conjugate",
    "alpha",
    "forms",
)


class Tracer:
    """Span store for one traced process; ``install`` patches the package."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._checks = 0
        self.groups: dict[str, str] = {}

    def _wrap(self, name, group, record, fn):
        spans = self.spans
        stack = self._stack
        is_check = group.startswith("check:")

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_check:
                self._checks += 1
                check = self._checks
            else:
                check = spans[parent][4] if parent >= 0 else None
            span = [name, 0.0, 0.0, parent, check, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if record is not None:
                span[5] = record(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every target that its defining module still has, and rebind
        the wrapper wherever a ``qident`` module namespace holds the
        original.  Targets a later version removed are skipped."""
        wrappers = {}
        for module_name, functions in TARGETS.items():
            module = sys.modules[module_name]
            for name, (group, record) in functions.items():
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, group, record, fn))
                self.groups[name] = group
        for module_name, module in list(sys.modules.items()):
            if module_name != "qident" and not module_name.startswith("qident."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self, verify_s: float) -> dict[str, float]:
        """Per-layer figures for one pass; ``*_s`` are self times (span minus
        child spans) unless ``workloads.json`` calls them inclusive."""
        spans = self.spans
        groups = self.groups
        child_time = [0.0] * len(spans)
        received: dict[int, int] = {}
        for span in spans:
            parent = span[3]
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
                if span[0] == "enumerate_partitions" and groups[spans[parent][0]] == "filter":
                    received[parent] = received.get(parent, 0) + span[5]

        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        counts: Counter = Counter()
        kept = fed = 0
        chain_keys = []
        for i, span in enumerate(spans):
            name = span[0]
            group = groups[name]
            duration = span[2] - span[1]
            own = duration - child_time[i]
            self_s[group] += own
            inclusive[group] += duration
            calls[group] += 1
            if name == "profile_chain_counts":
                chain_keys.append(tuple(span[5]))
            elif span[5] is not None:
                counts[name] += span[5]
            if group == "filter":
                kept += span[5]
                fed += received.get(i, span[5])

        check_self = sum(self_s["check:" + kind] for kind in CHECK_KINDS)
        # Time in untraced functions lands in its traced caller's self time,
        # so the share of the call held by the named layers (leaving out the
        # cli, suite and check-function residue) is what the tracer covers.
        layer_self = sum(
            own for group, own in self_s.items()
            if group not in ("cli", "suite") and not group.startswith("check:")
        )
        chain_calls = len(chain_keys)
        metrics = {
            "series.self_s": self_s["series"],
            "series.calls": calls["series"],
            "series.coefficients": sum(
                counts[name] for name, g in groups.items() if g == "series"
            ),
            "partitions.generate_s": self_s["generate"] + self_s["filter"],
            "partitions.generated": counts["enumerate_partitions"]
            + counts["enumerate_partitions_with_parts"],
            "partitions.filter_yield": kept / fed if fed else 1.0,
            "partitions.filter_kept": kept,
            "partitions.filter_received": fed,
            "partitions.chain_s": self_s["chain"],
            "partitions.chain_calls": calls["chain"],
            "partitions.chain_vectors": counts["enumerate_chain"],
            "profiles.chain_counts_s": self_s["chain_counts"],
            "profiles.series_s": self_s["profile_series"],
            "profiles.chain_counts_calls": chain_calls,
            "profiles.chain_counts_distinct": len(set(chain_keys)),
            "profiles.chain_counts_reuse": (
                len(set(chain_keys)) / chain_calls if chain_calls else 1.0
            ),
            "bijections.certify_s": self_s["certify"],
            "bijections.map_s": self_s["map"],
            "bijections.map_calls": calls["map"],
            "bijections.certified": counts["certify_bijection"],
        }
        for kind in CHECK_KINDS:
            metrics[f"verify.{kind}_s"] = inclusive["check:" + kind]
        metrics["verify.checks_self_s"] = check_self
        metrics["verify.self_s"] = self_s["suite"]
        metrics["cli.self_s"] = self_s["cli"]
        metrics["trace.coverage"] = layer_self / verify_s
        return metrics
