"""Timing and counting wrappers around the public calls of each nagata layer,
and the per-layer metrics computed from what they record.

Nothing under ``src/`` is edited: ``install`` rebinds module attributes and
class methods and returns what ``uninstall`` needs to put the originals
back.  A name bound with ``from .x import y`` is looked up in the importing
module, so it is wrapped there (``fatpoints.kernel_basis``,
``green.kernel_polynomials``, ``cli.build_approximant``, ...).

Span names are the metric stems below; each metric's target end-to-end
metric and workload is documented in README.md.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics

from nagata import cli, configs, exactla, fatpoints, green, invariants

BOOKKEEPING = "trace.count"  # span of the counter hooks, reported in no metric
BYTES_PER_ELEMENT = 24  # vec_submul reads v and e and writes the result, 8 B each

_OMEGA_SIG = inspect.signature(invariants.omega_l)


def _field_or_exact(stem):
    # RankAccumulator and ExactMatrix both carry the domain in .field
    return lambda args: stem + ("_exact" if args[0].field is None else "_field")


def _count_columns(rec, args, kwargs, result, before):
    rec.counts["fatpoints.columns_built"] += args[0]._cols - before


def _count_entries(rec, args, kwargs, result, before):
    rec.counts["fatpoints.matrix_entries"] += result.rows * result.cols


def _count_rank_add(rec, args, kwargs, result, before):
    rec.counts["exactla.rank_adds"] += 1
    rec.counts["exactla.rank_adds_useful"] += bool(result)


def _count_kernel(rec, args, kwargs, result, before):
    rec.counts["exactla.kernel_vectors"] += len(result)


def _count_omega(rec, args, kwargs, result, before):
    bound = _OMEGA_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    orders = fatpoints.uniform_orders(a["config"], a["l"])
    rec.distinct["invariants.omega_l"].add(
        (a["config"], orders, invariants.resolve_scalar(a["scalar"], a["prime"])))
    rec.counts["invariants.degrees_scanned"] += result - max(orders) + 1


def _count_points(rec, args, kwargs, result, before):
    rec.counts["green.points_evaluated"] += len(args[1])


def _count_report(rec, args, kwargs, result, before):
    argv = list(args[0])
    path = os.path.join(argv[argv.index("--out") + 1], argv[0] + ".json")
    if os.path.exists(path):
        rec.counts["cli.report_bytes"] += os.path.getsize(path)


# (owner, attribute, span name or args -> name, counter hook, pre-call state)
_SPANNED = [
    *((mod, fn, "configs.generate", None, None)
      for mod, fn in ((configs, "generic_points"), (configs, "grid_points"),
                      (configs, "two_point_example"), (invariants, "generic_points"),
                      (cli, "generic_points"), (cli, "grid_points"),
                      (cli, "two_point_example"))),
    (fatpoints.DimensionSearch, "dimension_at", "fatpoints.column_build",
     _count_columns, lambda args: args[0]._cols),
    (fatpoints, "condition_matrix", "fatpoints.assemble", _count_entries, None),
    (fatpoints, "vanishing_order", "fatpoints.order_verify", None, None),
    *((mod, "kernel_polynomials", "fatpoints.kernel_poly", None, None)
      for mod in (fatpoints, invariants, green)),
    (exactla.RankAccumulator, "add", _field_or_exact("exactla.rank_add"),
     _count_rank_add, None),
    (fatpoints, "kernel_basis", _field_or_exact("exactla.kernel_basis"),
     _count_kernel, None),
    *((mod, "omega_l", "invariants.omega_l", _count_omega, None)
      for mod in (invariants, green)),
    *((cli, fn, "invariants.report", None, None)
      for fn in ("invariant_report", "nagata_check", "omega_table",
                 "harbourne_table_check")),
    *((mod, "build_approximant", "green.approximant", None, None)
      for mod in (cli, green)),
    (green.GreenApproximant, "values", "green.values", _count_points, None),
    *((cli, fn, "green.oracle", None, None)
      for fn in ("two_point_oracle", "ball_green_single_pole",
                 "polydisc_two_pole_limit")),
    (cli, "radial_profile", "green.radial", None, None),
    (cli, "collision_experiment", "green.collision", None, None),
    (cli, "schwarz_check", "green.schwarz", None, None),
    (cli, "main", "cli.main", _count_report, None),
]


def _spanned(rec, fn, name, count, pre):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = pre(args) if pre else None
        handle = rec.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(handle)
        if count:
            # a span of its own, so the bookkeeping is no layer's self time
            handle = rec.open(BOOKKEEPING)
            try:
                count(rec, args, kwargs, result, before)
            finally:
                rec.close(handle)
        return result
    return wrapper


def _vector_counters(rec):
    # vec_submul calls vec_mul itself: count elements once per top-level call
    submul = exactla.PrimeField.vec_submul
    mul = exactla.PrimeField.vec_mul
    depth = [0]

    def vec_submul(self, v, c, e):
        rec.counts["exactla.vec_submul_calls"] += 1
        rec.counts["exactla.vec_elems"] += len(v)
        depth[0] += 1
        try:
            return submul(self, v, c, e)
        finally:
            depth[0] -= 1

    def vec_mul(self, v, c):
        if not depth[0]:
            rec.counts["exactla.vec_elems"] += len(v)
        return mul(self, v, c)

    return [(exactla.PrimeField, "vec_submul", vec_submul),
            (exactla.PrimeField, "vec_mul", vec_mul)]


def install(rec) -> list:
    """Wrap every target so it records into rec; returns the undo list."""
    replacements = [
        (owner, attr, _spanned(rec, getattr(owner, attr), name, count, pre))
        for owner, attr, name, count, pre in _SPANNED
    ] + _vector_counters(rec)
    undo = []
    for owner, attr, wrapper in replacements:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics

# span names whose self time is reported as <name>_s
_SELF_TIME = (
    "configs.generate", "fatpoints.column_build", "fatpoints.assemble",
    "fatpoints.order_verify", "fatpoints.kernel_poly", "exactla.rank_add_field",
    "exactla.rank_add_exact", "exactla.kernel_basis_field",
    "exactla.kernel_basis_exact", "invariants.omega_l", "invariants.report",
    "green.approximant", "green.values", "green.oracle", "green.radial",
    "green.collision", "green.schwarz", "cli.main",
)
# metric -> span name whose inclusive time it reports (omega_l never nests)
_INCLUSIVE = {"invariants.omega_l_total_s": "invariants.omega_l"}
# metric -> span name whose calls it counts
_CALLS = {
    "configs.generate_calls": "configs.generate",
    "fatpoints.order_verify_calls": "fatpoints.order_verify",
    "invariants.omega_l_calls": "invariants.omega_l",
    "green.approximants": "green.approximant",
    "green.oracle_calls": "green.oracle",
}
_COUNTERS = (
    "fatpoints.columns_built", "fatpoints.matrix_entries", "exactla.rank_adds",
    "exactla.vec_submul_calls", "exactla.vec_elems", "exactla.kernel_vectors",
    "invariants.degrees_scanned", "green.points_evaluated",
)

# the configs layer does its work in set-up on the library workloads and
# inside each op on cli-reports; its metrics add the set-up phase to a pass
_SETUP_METRICS = ("configs.generate_s", "configs.generate_calls")


def pass_metrics(rec) -> dict:
    """Per-layer metrics of one recorded phase."""
    spans = rec.by_name()
    out = {}
    for name in _SELF_TIME:
        out[name + "_s"] = spans.get(name, (0.0, 0.0, 0))[0]
    for metric, name in _INCLUSIVE.items():
        out[metric] = spans.get(name, (0.0, 0.0, 0))[1]
    for metric, name in _CALLS.items():
        out[metric] = spans.get(name, (0.0, 0.0, 0))[2]
    for name in (*_COUNTERS, "cli.report_bytes"):
        out[name] = rec.counts[name]
    adds = rec.counts["exactla.rank_adds"]
    out["exactla.rank_add_useful_ratio"] = (
        rec.counts["exactla.rank_adds_useful"] / adds if adds else 0.0)
    out["exactla.vec_bytes_computed"] = BYTES_PER_ELEMENT * rec.counts["exactla.vec_elems"]
    out["invariants.omega_l_distinct"] = len(rec.distinct["invariants.omega_l"])
    return out


UNITS = {
    **{m + "_s": "s" for m in _SELF_TIME},
    **{m: "s" for m in _INCLUSIVE},
    **{m: "count" for m in (*_CALLS, *_COUNTERS, "invariants.omega_l_distinct")},
    "exactla.rank_add_useful_ratio": "ratio",
    "exactla.vec_bytes_computed": "B",
    "cli.report_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(setup: dict, passes: list, scales: list, overhead_ratio: float) -> dict:
    """Per-layer metrics of one pass: times are in reference seconds (each
    traced pass's seconds times its scale) and medians over the traced
    passes, counts come from the first (they repeat exactly for a seed).
    ``setup`` holds the first traced pass's set-up metrics."""
    out = {}
    for metric in passes[0]:
        if UNITS[metric] == "s":
            value = statistics.median(p[metric] * f for p, f in zip(passes, scales))
        else:
            value = passes[0][metric]
        if metric in _SETUP_METRICS:
            value += setup[metric] * (scales[0] if UNITS[metric] == "s" else 1)
        out[metric] = value
    out["trace.overhead_ratio"] = overhead_ratio
    return out
