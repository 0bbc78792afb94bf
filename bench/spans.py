"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps the public functions of each ``igf`` module at every
module attribute where callers look them up (``igf.cli.scheme_from_dict``
and ``igf.distributions.scheme_from_dict`` are two bindings of one
function; both get the same wrapper).  Nothing under ``src/`` changes.
``json.loads`` is traced as the CLI calls it, through a stand-in for the
``json`` module inside ``igf.cli`` only.

A span is (name, kind, parent span, op id, start ns, end ns, entries,
raised).  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its direct child
spans; a layer's time is the sum of its spans' self times.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

# (module, function, span kind).  The layer is the part of the kind before
# the first dot.
TARGETS = (
    ("igf.cli", "main", "cli.main"),
    ("igf.cli", "render_scheme_json", "cli.render"),
    ("igf.cli", "render_curve_csv", "cli.render"),
    ("igf.distributions", "scheme_from_dict", "distributions.construct"),
    ("igf.distributions", "make_scheme", "distributions.construct"),
    ("igf.distributions", "constant_utility_scheme", "distributions.construct"),
    ("igf.distributions", "realize_family", "distributions.realize"),
    *(
        ("igf.generating_functions", name, "generating_functions")
        for name in (
            "weighted_igf", "golomb_igf", "hooda_bhaker_igf", "weighted_igf_derivative",
            "shannon_entropy", "weighted_entropy", "self_information_moment",
            "weighted_self_information_moment",
        )
    ),
    ("igf.escort", "escort_transform", "escort"),
    ("igf.escort", "generalized_igf", "escort"),
    ("igf.escort", "unnormalized_power_igf", "escort"),
    ("igf.escort", "verify_scaling_identity", "escort"),
    ("igf.closed_forms", "zeta", "closed_forms.zeta"),
    ("igf.closed_forms", "zeta_derivative", "closed_forms.zeta"),
    *(
        ("igf.closed_forms", name, "closed_forms")
        for name in (
            "uniform_igf", "uniform_entropy", "geometric_igf", "geometric_entropy",
            "beta_power_igf", "beta_power_entropy",
        )
    ),
)
LAYERS = ("cli", "distributions", "generating_functions", "escort", "closed_forms")

NAME, KIND, PARENT, OP, START, END, ENTRIES, RAISED = range(8)


def _entries(kind: str, args: tuple, result: object) -> int:
    if kind == "distributions.construct":
        return len(result)
    if kind == "generating_functions":
        return len(args[0])
    return 0


class _TracedJson:
    """Stands in for the ``json`` module inside ``igf.cli``."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Installs span-recording wrappers into the igf modules and removes them."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, kind: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, kind, stack[-1] if stack else -1, self.op, clock(), 0, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            rec[ENTRIES] = _entries(kind, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "igf" or name.startswith("igf.")]
        for module_name, attr, kind in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(fn, f"{module_name[4:]}.{attr}", kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)
        cli = sys.modules["igf.cli"]
        self._set(cli, "json", _TracedJson(self._wrap(json.loads, "cli.json.loads", "cli.parse")))

    def _set(self, module, key, value) -> None:
        self._undo.append((module, key, getattr(module, key)))
        setattr(module, key, value)

    def uninstall(self) -> None:
        while self._undo:
            module, key, value = self._undo.pop()
            setattr(module, key, value)

    def write(self, path: Path) -> None:
        """gzip-compressed JSON lines: a header naming the fields, then one
        array per span."""
        fields = ["name", "kind", "parent", "op", "start_ns", "end_ns", "entries", "raised"]
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(fields) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[int]:
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def check_nesting(spans: list[list], own: list[int]) -> list[str]:
    """Per cli.main span, the self times of everything under it may not sum
    to more than the span itself."""
    under: dict[int, int] = {}
    for i, rec in enumerate(spans):
        root, j = None, rec[PARENT]
        while j >= 0:
            if spans[j][KIND] == "cli.main":
                root = j
            j = spans[j][PARENT]
        if root is not None:
            under[root] = under.get(root, 0) + own[i]
    return [
        f"op {spans[root][OP]}: child self times {total} ns exceed cli.main "
        f"{spans[root][END] - spans[root][START]} ns"
        for root, total in under.items()
        if total > spans[root][END] - spans[root][START]
    ]


def layer_metrics(spans: list[list], n_ops: int, zeta_hits: int, zeta_misses: int) -> dict:
    """Per-op averages of every per-layer metric the traced run reports."""
    own = self_times(spans)
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    entries: dict[str, int] = {}
    errors = dict.fromkeys(LAYERS, 0)
    verifies = transforms_in_verify = 0
    for i, rec in enumerate(spans):
        kind = rec[KIND]
        ms[kind] = ms.get(kind, 0.0) + own[i] / 1e6
        parent_kind = spans[rec[PARENT]][KIND] if rec[PARENT] >= 0 else None
        if parent_kind != kind:  # nested calls within one kind count once
            calls[kind] = calls.get(kind, 0) + 1
            entries[kind] = entries.get(kind, 0) + rec[ENTRIES]
        layer = kind.split(".")[0]
        if rec[RAISED] and (parent_kind or "").split(".")[0] != layer:
            errors[layer] += 1
        if rec[NAME] == "escort.verify_scaling_identity":
            verifies += 1
        if rec[NAME] == "escort.escort_transform":
            j = rec[PARENT]
            while j >= 0 and spans[j][NAME] != "escort.verify_scaling_identity":
                j = spans[j][PARENT]
            transforms_in_verify += j >= 0

    def per_op(x: float) -> float:
        return x / n_ops

    main_ms = sum((r[END] - r[START]) / 1e6 for r in spans if r[KIND] == "cli.main")
    gf_terms = entries.get("generating_functions", 0)
    zeta_lookups = zeta_hits + zeta_misses
    out = {
        "cli.main_ms": per_op(main_ms),
        "cli.self_ms": per_op(ms.get("cli.main", 0.0)),
        "cli.parse_ms": per_op(ms.get("cli.parse", 0.0)),
        "cli.render_ms": per_op(ms.get("cli.render", 0.0)),
        "distributions.construct_ms": per_op(ms.get("distributions.construct", 0.0)),
        "distributions.calls": per_op(calls.get("distributions.construct", 0)),
        "distributions.entries": per_op(entries.get("distributions.construct", 0)),
        "distributions.realize_ms": per_op(ms.get("distributions.realize", 0.0)),
        "generating_functions.self_ms": per_op(ms.get("generating_functions", 0.0)),
        "generating_functions.calls": per_op(calls.get("generating_functions", 0)),
        "generating_functions.terms": per_op(gf_terms),
        "generating_functions.ns_per_term": (
            ms.get("generating_functions", 0.0) * 1e6 / gf_terms if gf_terms else 0.0
        ),
        "escort.self_ms": per_op(ms.get("escort", 0.0)),
        "escort.calls": per_op(sum(1 for r in spans if r[KIND] == "escort")),
        "escort.transforms_per_verify": transforms_in_verify / verifies if verifies else 0.0,
        "closed_forms.zeta_ms": per_op(ms.get("closed_forms.zeta", 0.0)),
        "closed_forms.zeta_calls": per_op(calls.get("closed_forms.zeta", 0)),
        "closed_forms.zeta_cache_hit_ratio": zeta_hits / zeta_lookups if zeta_lookups else 0.0,
        "closed_forms.self_ms": per_op(ms.get("closed_forms", 0.0)),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = per_op(errors[layer])
    return out
