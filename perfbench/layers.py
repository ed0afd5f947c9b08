"""Per-layer metrics of the traced passes, from the tracer's counters.

Every value is per traced pass: calls and work counts are exact (each pass
repeats the same corpus), times are averaged over the traced passes.
Which end-to-end metric each one should move, on which workload, is
recorded in DESIGN.md.
"""

from __future__ import annotations

import tracing

CONJUGACY = tracing.outcome_keys(tracing.CONJUGACY_REASONS)
INDECOMPOSABILITY = tracing.outcome_keys(tracing.INDECOMPOSABILITY_REASONS)

UNITS = {"self_s": "s", "incl_s": "s", "accept_ratio": "ratio", "nnz_frac": "fraction"}

# span name -> statistics reported for it
LAYERS = {
    **{f"groebner.buchberger.{c}": ("calls", "self_s", "basis_size") for c in tracing.BUCHBERGER_CALLERS.values()},
    "groebner.TaggedBasis": ("calls", "self_s"),
    "groebner.GroebnerBasis.normal_form": ("calls", "self_s"),
    "groebner.module_numerator": ("calls", "self_s"),
    "groebner.standard_terms": ("calls", "self_s"),
    "rings.QuotientRing.extend": ("calls",),
    "modules.ModulePresentation.quotient": ("calls",),
    "modules.ModulePresentation.reduce_mod": ("calls",),
    **{f"wildness.verify_regular_element.{c}": ("calls", "self_s", "accepted", "accept_ratio")
       for c in tracing.REGULAR_CALLERS.values()},
    "wildness.find_regular_sequence": ("self_s",),
    "wildness.artinian_reduction": ("self_s",),
    "resolution.minimal_resolution": ("calls", "self_s", "incl_s", "total_rank"),
    "resolution.comparison_map": ("self_s",),
    "resolution.koszul_complex": ("self_s",),
    "matalg.rref": ("calls", "self_s", "cells", "rank_sum", "nnz_frac"),
    "matalg.intertwiner_basis": ("calls", "self_s", "system_cells"),
    "matalg.nullspace": ("calls", "self_s"),
    "matalg.mat_mul": ("calls", "self_s"),
    "matalg.is_invertible": ("calls",),
    "matalg.simultaneous_conjugacy": tuple(f"decided_by.{k}" for k in CONJUGACY),
    "matalg.endomorphism_indecomposability": tuple(f"decided_by.{k}" for k in INDECOMPOSABILITY),
    "family.action_matrices": ("self_s",),
    "family.verify_shift_embedding": ("self_s",),
    "family.verify_resolution_shape": ("self_s",),
    "poly.PolyRing.parse": ("self_s",),
    "cli.main": ("self_s",),
}

# Reported by the runner itself, not from span counters.
RUN_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.covered_frac", "fraction"),
    ("trace.spans", "count"),
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{span}.{stat}", UNITS.get(stat, "count"))
           for span, stats in LAYERS.items() for stat in stats]
    return out + list(RUN_METRICS)


def layer_metrics(stats, passes: int) -> dict:
    out = {}
    for span, wanted in LAYERS.items():
        st = stats.get(span, {})
        for stat in wanted:
            if stat == "accept_ratio":
                value = st.get("accepted", 0) / st["calls"] if st.get("calls") else 0.0
            elif stat == "nnz_frac":
                value = st.get("nnz", 0) / st["cells"] if st.get("cells") else 0.0
            else:
                value = st.get(stat, 0) / passes
            out[f"{span}.{stat}"] = (value, UNITS.get(stat, "count"))
    return out
