"""Names, units and directions of every metric the benchmark reports.

Standard library only: the parent process (`run.py`) imports this module
without importing hypspeed, so that its own footprint stays out of the
workload measurements.
"""

WORKLOADS = ("tables", "suites", "certify")

#: (name, unit, better) of the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: printed with the end-to-end metrics but carried in the result line as
#: `failed` / `attempted`: it is 0 on a correct program, so it has no
#: relative bound
FAIL_RATIO = ("fail_ratio", "ratio", "lower")

LAYERS = ("cli", "verify", "speeds", "semigroups", "mapchain", "domains",
          "hyperbolic", "comb")

#: public functions wrapped by the traced run, per layer (module)
TRACED = {
    "cli": ("parse_args", "run"),
    "domains": ("domain_from_json", "to_halfplane", "contains", "delta",
                "delta_pm", "k_domain", "quasihyp_lower"),
    "mapchain": ("RiemannMapChain.forward_lp", "RiemannMapChain.forward",
                 "RiemannMapChain.inverse"),
    "semigroups": ("koenigs_semigroup", "model_point", "orbit_halfplane", "orbit"),
    "speeds": ("default_grid", "sample_speeds", "speeds_from_halfplane",
               "surrogate_speeds", "nontangential_ratio"),
    "hyperbolic": ("k_half", "omega", "cayley", "cayley_inv",
                   "project_to_radius", "dist_to_radius",
                   "tangential_distance", "path_length"),
    "comb": ("build_comb", "verify_comb"),
    "verify": ("run_suite",),
}

SUITE_NAMES = ("lemma_halfplane", "pythagoras", "contraction", "chains",
               "split", "julia_tangent", "surrogates", "lower_bounds",
               "betsakos", "sector_asymptotics", "basepoint", "conjugation",
               "semigroup_model", "nontangential", "comb")


def traced_functions() -> list[str]:
    """Qualified names `<layer>.<function>` in a fixed order."""
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of the per-layer metrics, reported with --trace 1."""
    out = []
    for qual in traced_functions():
        out.append((f"{qual}.calls", "count", "lower"))
        out.append((f"{qual}.self_us", "us", "lower"))
    out += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    out += [(f"verify.{suite}.ms", "ms", "lower") for suite in SUITE_NAMES]
    out.append(("domains.quasihyp_lower.evals_per_call", "count", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out
