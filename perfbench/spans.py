"""Span tracing from outside the package.

The tracer replaces each traced public function with a timing wrapper
wherever a ``blockdesigns.*`` module binds it, and each traced method on its
class.  A traced pass therefore runs the same code path as an untraced one;
only the wrappers are added.  Spans nest (name, start, end, parent, counts)
and are kept in memory; ``self_s`` of a span is its duration minus the
durations of its direct children.

Counts that describe the work of a call (incidences, block pairs, bytes)
are computed from the call's arguments and result, after the span closes.
``FieldSpec.add``/``mul`` are counted, not spanned: they run hundreds of
thousands of times per pass.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter
PACKAGE = "blockdesigns"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _spectrum_counts(args, kwargs, result, error):
    design, t = _arg(args, kwargs, 0, "design"), _arg(args, kwargs, 1, "t")
    return {"incidences": len(design.blocks) * math.comb(design.k, t)}


def _profile_counts(args, kwargs, result, error):
    design = _arg(args, kwargs, 0, "design")
    pairs = math.comb(len(design.blocks), 2)
    words = (design.points.size + 63) // 64
    return {"block_pairs": pairs, "bytes_computed": pairs * words * 8}


def _design_counts(args, kwargs, result, error):
    return {"blocks": len(args[0].blocks)}


def _find_counts(args, kwargs, result, error):
    if error is not None:
        return {"budget_exhausted": int(type(error).__name__ == "SearchBudgetExceeded")}
    return {"found": len(result)}


def _prp_counts(args, kwargs, result, error):
    res = _arg(args, kwargs, 1, "res")
    counts = {"class_pairs": math.comb(len(res.classes), 2)}
    if error is None:
        counts["violations"] = len(result)
    return counts


def _construct_counts(args, kwargs, result, error):
    return {} if error is not None else {"blocks_built": len(result.design.blocks)}


def _load_counts(args, kwargs, result, error):
    path = _arg(args, kwargs, 0, "path")
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    return {"bytes_read": size, "loads": 1, "loads_ok": int(error is None)}


def _save_counts(args, kwargs, result, error):
    path = _arg(args, kwargs, 1, "path")
    size = os.path.getsize(path) if error is None else 0
    return {"bytes_written": size}


def _main_counts(args, kwargs, result, error):
    return {"nonzero_exits": int(error is not None or result != 0)}


# (span name, module, attribute path, counts function).  The attribute path
# names a function on the module, or a method as "Class.method".
SPANNED = [
    ("core.t_coverage_spectrum", "core", "t_coverage_spectrum", _spectrum_counts),
    ("core.intersection_profile", "core", "intersection_profile", _profile_counts),
    ("core.verify_ibd", "core", "verify_ibd", None),
    ("core.is_simple", "core", "is_simple", None),
    ("core.is_trivial", "core", "is_trivial", None),
    ("core.Design", "core", "Design.__post_init__", _design_counts),
    ("galois.field", "galois", "field", None),
    ("generators.affine_hyperplane_design", "generators", "affine_hyperplane_design", None),
    ("generators.cyclic_develop", "generators", "cyclic_develop", None),
    ("generators.trivial_design", "generators", "trivial_design", None),
    ("resolution.find_resolutions", "resolution", "find_resolutions", _find_counts),
    ("resolution.prp_violations", "resolution", "prp_violations", _prp_counts),
    ("resolution.verify_resolution", "resolution", "verify_resolution", None),
    ("construct.shrikhande_raghavarao", "construct", "shrikhande_raghavarao", _construct_counts),
    ("construct.IndexingParams.from_design", "construct", "IndexingParams.from_design", None),
    ("reproduce.reproduce_entry", "reproduce", "reproduce_entry", None),
    ("formats.load_design", "formats", "load_design", _load_counts),
    ("formats.load_resolution", "formats", "load_resolution", _load_counts),
    ("formats.save_design", "formats", "save_design", _save_counts),
    ("formats.save_resolution", "formats", "save_resolution", _save_counts),
    ("cli.gen", "cli", "cmd_gen", None),
    ("cli.prp", "cli", "cmd_prp", None),
    ("cli.construct", "cli", "cmd_construct", None),
    ("cli.verify", "cli", "cmd_verify", None),
    ("cli.profile", "cli", "cmd_profile", None),
    ("cli.main", "cli", "main", _main_counts),
]

# (counter name, module, "Class.method"): counted calls, no span.
COUNTED = [
    ("galois.add.calls", "galois", "FieldSpec.add"),
    ("galois.mul.calls", "galois", "FieldSpec.mul"),
]


class Tracer:
    """Installs wrappers, records spans and counters, removes wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _spanning(self, name, fn, counts_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            result = error = None
            record[1] = _perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record[2] = _perf()
                stack.pop()
                if counts_fn is not None:
                    record[4] = counts_fn(args, kwargs, result, error)

        return wrapper

    def _counting(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------
    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_method(self, module, path, make):
        cls_name, method = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            self._patch(cls, method, classmethod(make(raw.__func__)))
        else:
            self._patch(cls, method, make(raw))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for name, module_name, path, counts_fn in SPANNED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            make = functools.partial(self._spanning, name, counts_fn=counts_fn)
            if "." in path:
                self._install_method(module, path, make)
                continue
            original = getattr(module, path)
            wrapper = make(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for name, module_name, path in COUNTED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            self._install_method(
                module, path, functools.partial(self._counting, name)
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- results ----------------------------------------------------------
    def mark(self) -> tuple[int, Counter]:
        """A position to pass to ``summarize`` later."""
        return len(self.spans), Counter(self.counters)

    def summarize(self, since: tuple[int, Counter]) -> dict:
        """Per-name totals of the spans and counters recorded since a mark:
        self_s, calls, summed counts, plus the total root-span time."""
        start, counters_then = since
        spans = self.spans[start:]
        child_time = [0.0] * len(spans)
        for record in spans:
            parent = record[3] - start
            if parent >= 0:
                child_time[parent] += record[2] - record[1]
        totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        root_s = 0.0
        for i, (name, begin, end, parent, counts) in enumerate(spans):
            entry = totals[name]
            entry["self_s"] += (end - begin) - child_time[i]
            entry["calls"] += 1
            for key, value in (counts or {}).items():
                entry[key] += value
            if parent < start:
                root_s += end - begin
        counters = Counter(self.counters)
        counters.subtract(counters_then)
        return {
            "layers": {name: dict(entry) for name, entry in totals.items()},
            "counters": {name: n for name, n in counters.items() if n},
            "root_s": root_s,
        }


# Per-layer metrics of a traced pass: (metric name, unit).  A name is
# "<span>.<stat>"; the few that are not are computed in layer_metrics.
LAYER_METRICS = [
    ("core.t_coverage_spectrum.self_s", "s"),
    ("core.t_coverage_spectrum.calls", "count"),
    ("core.t_coverage_spectrum.incidences", "count"),
    ("core.intersection_profile.self_s", "s"),
    ("core.intersection_profile.block_pairs", "count"),
    ("core.intersection_profile.bytes_computed", "bytes"),
    ("core.verify_ibd.self_s", "s"),
    ("core.is_simple.self_s", "s"),
    ("core.is_trivial.self_s", "s"),
    ("core.Design.validate_s", "s"),
    ("core.Design.blocks", "count"),
    ("galois.field.self_s", "s"),
    ("galois.add.calls", "count"),
    ("galois.mul.calls", "count"),
    ("generators.affine_hyperplane_design.self_s", "s"),
    ("generators.cyclic_develop.self_s", "s"),
    ("generators.trivial_design.self_s", "s"),
    ("resolution.find_resolutions.self_s", "s"),
    ("resolution.find_resolutions.calls", "count"),
    ("resolution.find_resolutions.found", "count"),
    ("resolution.find_resolutions.budget_exhausted", "count"),
    ("resolution.prp_violations.self_s", "s"),
    ("resolution.prp_violations.class_pairs", "count"),
    ("resolution.prp_violations.violations", "count"),
    ("resolution.verify_resolution.self_s", "s"),
    ("resolution.verify_resolution.calls", "count"),
    ("construct.shrikhande_raghavarao.self_s", "s"),
    ("construct.shrikhande_raghavarao.blocks_built", "count"),
    ("construct.IndexingParams.from_design.self_s", "s"),
    ("reproduce.reproduce_entry.self_s", "s"),
    ("formats.load_design.self_s", "s"),
    ("formats.load_design.calls", "count"),
    ("formats.load_resolution.self_s", "s"),
    ("formats.load_resolution.calls", "count"),
    ("formats.save_design.self_s", "s"),
    ("formats.save_design.calls", "count"),
    ("formats.save_resolution.self_s", "s"),
    ("formats.save_resolution.calls", "count"),
    ("formats.bytes_read", "bytes"),
    ("formats.bytes_written", "bytes"),
    ("formats.parse_useful_ratio", "ratio"),
    ("cli.gen.self_s", "s"),
    ("cli.prp.self_s", "s"),
    ("cli.construct.self_s", "s"),
    ("cli.verify.self_s", "s"),
    ("cli.profile.self_s", "s"),
    ("cli.main.nonzero_exits", "count"),
]


def _layer_sum(layers: dict, prefix: str, key: str) -> float:
    return sum(
        entry.get(key, 0) for name, entry in layers.items() if name.startswith(prefix)
    )


def layer_metrics(summary: dict) -> dict[str, float]:
    """Values of LAYER_METRICS from one ``Tracer.summarize`` result.  A
    layer that was not called reads 0; a ratio with no attempts reads 1."""
    layers, counters = summary["layers"], summary["counters"]
    loads = _layer_sum(layers, "formats.load_", "loads")
    special = {
        "core.Design.validate_s": layers.get("core.Design", {}).get("self_s", 0.0),
        "galois.add.calls": counters.get("galois.add.calls", 0),
        "galois.mul.calls": counters.get("galois.mul.calls", 0),
        "formats.bytes_read": _layer_sum(layers, "formats.load_", "bytes_read"),
        "formats.bytes_written": _layer_sum(layers, "formats.save_", "bytes_written"),
        "formats.parse_useful_ratio": (
            _layer_sum(layers, "formats.load_", "loads_ok") / loads if loads else 1.0
        ),
    }
    values = {}
    for metric, unit in LAYER_METRICS:
        if metric in special:
            value = special[metric]
        else:
            span, stat = metric.rsplit(".", 1)
            value = layers.get(span, {}).get(stat, 0)
        values[metric] = float(value) if unit in ("s", "ratio") else int(value)
    return values
