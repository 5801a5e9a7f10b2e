"""Per-layer metrics from a traced run (see tracer.py).

Every count and time is reported for the whole run and, with the suffix
`.per_op`, divided by the run's operation count.  Kernel metrics sum the
spans under operation roots only, so the calls the benchmark makes to build
its inputs do not count; `instances.*` and `triangulation.*` sum the input
building too, since that is where set-up spends its time.

Self times under the operation roots, `other.self_ms` (traced functions not
named here) and `bench.glue_ms` (the benchmark's own time inside an
operation root) add up to `bench.op_wall_ms`; `per_layer` returns the
relative error of that sum, which is rounding only.
"""

from __future__ import annotations

from tracer import add_counts

OP = ("op",)
ALL = ("op", "inputs")

SELF_TIMES = (
    ("conformal.boundary_lengths", OP),
    ("conformal.admissibility_margin", OP),
    ("conformal.deform", OP),
    ("hexagon.opposite_arcs", OP),
    ("hexagon.arc_side_jacobian", OP),
    ("jacobian.boundary_jacobian", OP),
    ("jacobian.delta_power", OP),
    ("energy.segment_flux", OP),
    ("flows.vector_field", OP),
    ("flows.integrate", OP),
    ("newton.solve_prescribed", OP),
    ("instances.random_instance", ALL),
    ("triangulation.build_triangulation", ALL),
)
CALLS = (
    "conformal.boundary_lengths",
    "conformal.admissibility_margin",
    "jacobian.boundary_jacobian",
    "jacobian.delta_power",
    "energy.segment_flux",
    "flows.vector_field",
)
CLI_SPANS = ("cli.interpreter", "cli.import")


def _sum(tracer, column, name, kinds=OP, parent=None):
    return sum(
        row[column]
        for (kind, n, p), row in tracer.agg.items()
        if n == name and kind in kinds and (parent is None or p == parent)
    )


def _units(tracer, name, parent=None, default=0):
    total = default
    for (kind, n, p), value in tracer.units.items():
        if kind == "op" and n == name and (parent is None or p == parent):
            total = add_counts(total, value)
    return total


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, ops: int) -> tuple[dict, float]:
    op_roots = [r for r in tracer.roots if r[0] == "op"]
    op_wall = sum(end - start for _, _, start, end, _ in op_roots)
    glue = sum((end - start) - covered for _, _, start, end, covered in op_roots)

    counts = {}  # name -> (per-run value, unit)
    for name in CALLS:
        counts[f"{name}.calls"] = (_sum(tracer, 0, name), "count")
    counts["conformal.boundary_lengths.states"] = (
        _units(tracer, "conformal.boundary_lengths"), "count")
    for name, kinds in SELF_TIMES:
        counts[f"{name}.self_ms"] = (_sum(tracer, 2, name, kinds) * 1e3, "ms")

    accepted, rejected = _units(tracer, "flows.integrate", default=(0, 0))
    counts["flows.steps.accepted"] = (accepted, "count")
    counts["flows.steps.rejected"] = (rejected, "count")
    iterations = _units(tracer, "newton.solve_prescribed")
    trials = _sum(tracer, 0, "conformal.admissibility_margin", parent="newton.solve_prescribed")
    counts["newton.iterations"] = (iterations, "count")
    counts["newton.trials"] = (trials, "count")

    interpreter = _sum(tracer, 1, "cli.interpreter")
    imports = _sum(tracer, 1, "cli.import")
    compute = sum(
        row[1]
        for (kind, name, parent), row in tracer.agg.items()
        if kind == "op" and parent.startswith("cli.cmd_")
        and name in ("flows.integrate", "newton.solve_prescribed")
    )
    cli_wall = op_wall if interpreter else 0.0
    counts["cli.interpreter_ms"] = (interpreter * 1e3, "ms")
    counts["cli.import_ms"] = (imports * 1e3, "ms")
    counts["cli.compute_ms"] = (compute * 1e3, "ms")
    counts["cli.rest_ms"] = ((cli_wall - interpreter - imports - compute) * 1e3, "ms")

    named = {name for name, _ in SELF_TIMES} | set(CLI_SPANS)
    all_self = sum(row[2] for (kind, _, _), row in tracer.agg.items() if kind == "op")
    other = sum(
        row[2] for (kind, name, _), row in tracer.agg.items()
        if kind == "op" and name not in named
    )
    counts["other.self_ms"] = (other * 1e3, "ms")
    counts["bench.glue_ms"] = (glue * 1e3, "ms")
    counts["bench.op_wall_ms"] = (op_wall * 1e3, "ms")

    metrics = {}
    for name, (value, unit) in counts.items():
        metrics[name] = (value, unit)
        metrics[f"{name}.per_op"] = (value / ops, unit)
    flux_calls = counts["energy.segment_flux.calls"][0]
    flux_states = _units(tracer, "conformal.boundary_lengths", parent="energy.segment_flux")
    metrics["energy.segment_flux.states_per_call"] = (_ratio(flux_states, flux_calls), "count")
    metrics["flows.steps.accept_ratio"] = (_ratio(accepted, accepted + rejected), "ratio")
    metrics["newton.iterations_per_trial"] = (_ratio(iterations, trials), "ratio")
    metrics["bench.ops"] = (ops, "count")

    identity_error = abs(all_self + glue - op_wall) / op_wall
    return metrics, identity_error
