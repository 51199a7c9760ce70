"""Names and units of the benchmark's per-layer metrics.

BENCHMARK.json lists the same metrics in the same order; a test keeps the
two in step.  Which end-to-end metric each one should move, and on which
workload, is tabulated in perfbench/README.md.
"""

from tracer import LAYERS

# (metric, aggregate field of the span named by the metric's prefix, unit):
# `calls` are exact counts per op, `self_s` is span time minus child spans,
# summed per op; both are medians over the traced ops.
SPAN_METRICS = [
    ("ddf.ddf_modes.calls", "calls", "count"),
    ("ddf.ddf_modes.self_s", "self_s", "s"),
    ("numerics.invert_monotone.calls", "calls", "count"),
    ("numerics.invert_monotone.self_s", "self_s", "s"),
    ("ddf.reconstruct_field_direct.self_s", "self_s", "s"),
    ("numerics.trig_interpolate.calls", "calls", "count"),
    ("numerics.trig_interpolate.self_s", "self_s", "s"),
    ("ddf.compute_R.self_s", "self_s", "s"),
    ("ddf.reconstruct_field.self_s", "self_s", "s"),
    ("numerics.simplex_iterated_integral.calls", "calls", "count"),
    ("numerics.simplex_iterated_integral.self_s", "self_s", "s"),
    ("numerics.periodic_antiderivative.calls", "calls", "count"),
    ("pohlmeyer.pohlmeyer_invariant.calls", "calls", "count"),
    ("pohlmeyer.pohlmeyer_invariant.self_s", "self_s", "s"),
    ("pohlmeyer.wilson_loop.self_s", "self_s", "s"),
    ("poisson.gradient.calls", "calls", "count"),
    ("poisson.gradient.self_s", "self_s", "s"),
    ("poisson.invariance_report.self_s", "self_s", "s"),
    ("poisson.omega.calls", "calls", "count"),
    ("poisson.omega.self_s", "self_s", "s"),
    ("jets.fft_ifft.calls", "calls", "count"),
    ("jets.fft_ifft.self_s", "self_s", "s"),
    ("ddf.ddf_invariant.calls", "calls", "count"),
    ("ddf.ddf_invariant.self_s", "self_s", "s"),
    ("phase_space.eval_field.calls", "calls", "count"),
    ("phase_space.eval_field.self_s", "self_s", "s"),
    ("reparam.pullback_weight_one.self_s", "self_s", "s"),
    ("cli.main.self_s", "self_s", "s"),
    ("phase_space.random_state.self_s", "self_s", "s"),
]

# verify.SUITES, in report order
SUITES = ("negative-controls", "periodicity", "poisson", "reality", "reparam",
          "shuffle", "substitution", "transversality", "witt")

# Worst value over a run's ops of the workload's correctness checks; 0 where
# the workload does not compute the quantity.
CHECK_METRICS = ("ddf.substitution.err_over_tol", "ddf.reconstruction.err_over_tol",
                 "numerics.invert_monotone.roundtrip_err", "pohlmeyer.wilson.err_over_tol")


def per_layer():
    """[(name, unit)] of every metric a traced run reports, in BENCHMARK.json order."""
    out = [(name, unit) for name, _, unit in SPAN_METRICS]
    out.append(("ddf.ddf_modes.peak_mib", "MiB"))
    out += [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    out += [(f"verify.{s}.{f}", "s") for s in SUITES for f in ("wall_s", "thread_cpu_s")]
    out += [("verify.pool.busy_ratio", "ratio"), ("verify.pool.wait_s", "s"),
            ("process.op_p50_s", "s"), ("process.cpu_per_op_s", "s")]
    out += [(name, "rad" if name.endswith("roundtrip_err") else "ratio") for name in CHECK_METRICS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out
