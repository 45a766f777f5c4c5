"""Which superinduce functions the traced run wraps, and the per-layer metrics
it derives from them.

Each metric is named ``<module>.<function>.<stat>`` after the function it
measures.  The comments give the end-to-end metric each group should move.
"""

from __future__ import annotations

import importlib
import json

from tracing import Tracer


def _failed_hook(prefix: str):
    key = prefix + ".failed"

    def hook(counters, args, result):
        if result is None:
            counters[key] += 1

    return hook


def _mul_hook(counters, args, result):
    a, b = args
    if hasattr(b, "terms"):
        counters["superpoly.mul.term_pairs"] += len(a.terms) * len(b.terms)
    if hasattr(result, "terms"):
        counters["superpoly.mul.terms_out"] += len(result.terms)


def _apply_loc_hook(counters, args, result):
    counters["derivation.apply_loc.terms_in"] += len(args[1].num.terms)
    counters["derivation.apply_loc.terms_out"] += len(result.num.terms)


def _extract_floors_hook(counters, args, result):
    counters["floors_primitives.extract_floors.terms_in"] += len(args[0].num.terms)


# (module, attribute, span name, hook, cached)
SPANNED = (
    # polynomial kernel: ops_per_s and op_p90_ms on gen and floors
    ("superpoly", "SuperPolynomial.__mul__", "superpoly.mul", _mul_hook, False),
    ("superpoly", "SuperPolynomial.__add__", "superpoly.add", None, False),
    ("superpoly", "exact_divide", "superpoly.exact_divide",
     _failed_hook("superpoly.exact_divide"), False),
    # derivations and fractions: gen, and floors through fe_eq
    ("derivation", "apply_loc", "derivation.apply_loc", _apply_loc_hook, False),
    ("fraction", "loc_eq", "fraction.loc_eq", None, False),
    ("fraction", "loc_add", "fraction.loc_add", None, False),
    ("fraction", "loc_mul", "fraction.loc_mul", None, False),
    ("fraction", "loc_divide_exact", "fraction.loc_divide_exact",
     _failed_hook("fraction.loc_divide_exact"), False),
    # floor machinery: floors only
    ("floors_primitives", "extract_floors", "floors_primitives.extract_floors",
     _extract_floors_hook, False),
    ("floors_primitives", "pi_ij", "floors_primitives.pi_ij", None, False),
    ("floors_primitives", "pi_IJ_raw", "floors_primitives.pi_IJ_raw", None, False),
    ("floors_primitives", "phi_floor", "floors_primitives.phi_floor", None, False),
    ("floors_primitives", "is_primitive", "floors_primitives.is_primitive", None, False),
    ("floors_primitives", "search_module_combinations",
     "floors_primitives.search_module_combinations", None, False),
    ("floors_primitives", "divide_floor", "floors_primitives.divide_floor",
     _failed_hook("floors_primitives.divide_floor"), False),
    # cached ring data: op_p50_ms and peak_rss_mb on gen and floors
    ("minors", "y_entry", "minors.y_entry", None, True),
    ("minors", "twisted_generator", "minors.twisted_generator", None, True),
    ("weights_tableaux", "bideterminant_plus", "weights_tableaux.bideterminant_plus", None, False),
    ("weights_tableaux", "bideterminant_minus", "weights_tableaux.bideterminant_minus", None, False),
    ("weights_tableaux", "is_admissible_pair", "weights_tableaux.is_admissible_pair", None, False),
    # combinatorics and the CLI: queries only
    ("lr_oracle", "lr_coefficient_flagged", "lr_oracle.lr_coefficient_flagged", None, False),
    ("lr_oracle", "admissible_families", "lr_oracle.admissible_families", None, False),
    ("linkage", "odd_linked", "linkage.odd_linked", None, False),
    ("linkage", "link_chain_search", "linkage.link_chain_search", None, False),
    ("cli", "main", "cli.main", None, False),
)

# functions that consult Ambient._cache but get no span of their own
CACHED_ONLY = (
    ("fraction", "det_block11"),
    ("fraction", "det_block22"),
    ("derivation", "_den_derivative"),
    ("floors_primitives", "_structured_image"),
    ("minors", "_adjugate_table"),
)

# name -> (unit, better), in report order
PER_LAYER = {}


def _add(names, unit, better):
    for name in names:
        PER_LAYER[name] = (unit, better)


_add(["superpoly.mul.calls"], "count", "lower")
_add(["superpoly.mul.self_s"], "s", "lower")
_add(["superpoly.mul.term_pairs", "superpoly.mul.terms_out"], "count", "lower")
_add(["superpoly.add.self_s"], "s", "lower")
_add(["superpoly.exact_divide.calls"], "count", "lower")
_add(["superpoly.exact_divide.self_s"], "s", "lower")
_add(["superpoly.exact_divide.failed"], "count", "lower")
_add(["derivation.apply_loc.calls"], "count", "lower")
_add(["derivation.apply_loc.self_s"], "s", "lower")
_add(["derivation.apply_loc.terms_in", "derivation.apply_loc.terms_out"], "count", "lower")
_add([f"fraction.{f}.self_s" for f in ("loc_eq", "loc_add", "loc_mul")], "s", "lower")
_add(["fraction.loc_divide_exact.calls", "fraction.loc_divide_exact.failed"], "count", "lower")
_add(["floors_primitives.extract_floors.calls"], "count", "lower")
_add(["floors_primitives.extract_floors.self_s"], "s", "lower")
_add(["floors_primitives.extract_floors.terms_in"], "count", "lower")
_add(
    [
        f"floors_primitives.{f}.self_s"
        for f in ("pi_ij", "pi_IJ_raw", "phi_floor", "is_primitive", "search_module_combinations")
    ],
    "s",
    "lower",
)
_add(["floors_primitives.divide_floor.calls", "floors_primitives.divide_floor.failed"], "count", "lower")
_add(["coeff_field.q.busy_s", "coeff_field.fp.busy_s"], "s", "lower")
for _fn in (
    "minors.y_entry",
    "minors.twisted_generator",
    "weights_tableaux.bideterminant_plus",
    "weights_tableaux.bideterminant_minus",
    "weights_tableaux.is_admissible_pair",
    "lr_oracle.lr_coefficient_flagged",
    "lr_oracle.admissible_families",
    "linkage.odd_linked",
    "linkage.link_chain_search",
):
    _add([f"{_fn}.calls"], "count", "lower")
    _add([f"{_fn}.self_s"], "s", "lower")
_add(["ambient_cache.hits"], "count", "higher")
_add(["ambient_cache.misses", "ambient_cache.entries"], "count", "lower")
_add(["cli.main.self_s", "cli.json.self_s"], "s", "lower")
_add(["trace.ops"], "count", "higher")
_add(["trace.overhead_ratio"], "ratio", "higher")


class _JsonProxy:
    """Stands in for the ``json`` module inside cli, with dumps traced."""

    def __init__(self, tracer: Tracer, real):
        self._real = real
        self.dumps = tracer.wrap("cli.json", real.dumps)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    """Wrap every function named above, wherever superinduce imported it."""
    for mod_name, attr, name, hook, cached in SPANNED:
        module = importlib.import_module(f"superinduce.{mod_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            tracer.patch_attribute(cls, method, tracer.wrap(name, getattr(cls, method), hook))
            continue
        wrapped = tracer.wrap(name, getattr(module, attr), hook)
        if cached:
            wrapped = tracer.wrap_cached(wrapped)
        tracer.patch_function(module, attr, wrapped)
    for mod_name, attr in CACHED_ONLY:
        module = importlib.import_module(f"superinduce.{mod_name}")
        tracer.patch_function(module, attr, tracer.wrap_cached(getattr(module, attr)))
    cli = importlib.import_module("superinduce.cli")
    tracer.patch_attribute(cli, "json", _JsonProxy(tracer, json))


def metrics(tracer: Tracer, busy_by_field: dict, ops: int, overhead_ratio: float) -> dict:
    """Every per-layer metric, zero where the workload never reached a layer."""
    calls = tracer.calls()
    self_s = tracer.self_seconds()
    values = dict(tracer.counters)
    for name, count in calls.items():
        values[f"{name}.calls"] = count
    for name, seconds in self_s.items():
        values[f"{name}.self_s"] = seconds
    values["ambient_cache.entries"] = tracer.cache_entries()
    values["coeff_field.q.busy_s"] = busy_by_field.get("q", 0.0)
    values["coeff_field.fp.busy_s"] = busy_by_field.get("fp", 0.0)
    values["trace.ops"] = ops
    values["trace.overhead_ratio"] = overhead_ratio
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }
