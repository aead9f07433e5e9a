"""The per-layer metrics of the traced run, read off the tracer's totals.

The suffix of a metric name says what it reads: ``.self_s`` a span's self
time, ``.calls`` its call count (or the counter of a count-only wrapper),
``verify.suite.<id>.s`` a suite's inclusive time; any other name is a size
counter recorded by a wrapper hook.
"""

from __future__ import annotations

from tracer import HOOKS_SPAN
from workloads import SUITES

PER_LAYER = (
    ("permutations.act.calls", "count"),
    ("permutations.enumerate_group.calls", "count"),
    ("complex_model.enumerate_generators.self_s", "s"),
    ("complex_model.generators", "count"),
    ("complex_model.load_complex.self_s", "s"),
    ("complex_model.face.calls", "count"),
    ("alt_chains.alt_chain_complex.self_s", "s"),
    ("alt_chains.boundary.calls", "count"),
    ("alt_chains.boundary.self_s", "s"),
    ("alt_chains.canonicalize.calls", "count"),
    ("alt_chains.presentation_generators", "count"),
    ("alt_chains.presentation_dense_cells", "count"),
    ("alt_chains.presentation_to_json.self_s", "s"),
    ("integer_homology.smith_normal_form.self_s", "s"),
    ("integer_homology.smith_normal_form.calls", "count"),
    ("integer_homology.smith_normal_form.cells", "count"),
    ("integer_homology.smith_normal_form.density", "ratio"),
    ("integer_homology.homology_presented.self_s", "s"),
    ("integer_homology.sparse_diagonalize.self_s", "s"),
    ("integer_homology.sparse_diagonalize.calls", "count"),
    ("integer_homology.sparse_diagonalize.nnz_in", "count"),
    ("integer_homology.homology_free.self_s", "s"),
    ("integer_homology.cohomology_rational.self_s", "s"),
    ("integer_homology.verify_cohomology_splitting.self_s", "s"),
    ("cochain_algebra.alternative_maker.self_s", "s"),
    ("cochain_algebra.alternative_maker.calls", "count"),
    ("cochain_algebra.alternative_maker.support_in", "count"),
    ("cochain_algebra.alternative_maker.support_out", "count"),
    ("cochain_algebra.is_alternative.self_s", "s"),
    ("cochain_algebra.coboundary.self_s", "s"),
    ("cochain_algebra.coboundary.calls", "count"),
    ("cochain_algebra.cup.self_s", "s"),
    ("cochain_algebra.coboundary_matrix.self_s", "s"),
    ("cochain_algebra.alt_coboundary_matrix.self_s", "s"),
    ("cochain_algebra.alternative_maker_matrix_scaled.self_s", "s"),
    ("cochain_algebra.alternating_cochain.self_s", "s"),
    ("cochain_algebra.cochain_io.self_s", "s"),
    ("homotopy_prism.prism.self_s", "s"),
    ("homotopy_prism.prism_alt.self_s", "s"),
    ("homotopy_prism.pull_back.self_s", "s"),
    *((f"verify.suite.{sid}.s", "s") for sid in SUITES),
    ("verify.cases", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
)

# Calls that must not happen on a workload: each prefix names spans and
# count-only wrappers whose call counts are predicted to be exactly zero.
PREDICTED_ZERO = {
    "laws": (),
    "homology_ladder": ("permutations.", "cochain_algebra.", "homotopy_prism.",
                        "verify."),
    "cochain_ops": ("alt_chains.", "homotopy_prism.", "verify.",
                    "integer_homology.smith_normal_form",
                    "integer_homology.homology_presented"),
}


def compute(tracer, traced_wall_s: float, untraced_wall_s: float,
            output_bytes: int) -> dict:
    cli_calls, cli_inclusive, cli_self = tracer.span("cli")
    hooks = tracer.span(HOOKS_SPAN)[1]
    special = {
        "integer_homology.smith_normal_form.density":
            tracer.counts.get("integer_homology.smith_normal_form.nonzeros", 0)
            / max(1, tracer.counts.get("integer_homology.smith_normal_form.cells", 0)),
        "cli.self_s": cli_self,
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
        "trace.coverage": (cli_inclusive - cli_self - hooks) / traced_wall_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = tracer.span(name[:-len(".self_s")])[2]
        elif name.startswith("verify.suite."):
            value = tracer.span(name[:-len(".s")])[1]
        elif name.endswith(".calls") and name[:-len(".calls")] in tracer.spans:
            value = tracer.span(name[:-len(".calls")])[0]
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def zero_violations(workload: str, tracer) -> list:
    """Predicted-zero call counts that are not zero, as 'name=count'."""
    prefixes = PREDICTED_ZERO[workload]
    calls = {name: stat[0] for name, stat in tracer.spans.items()}
    calls.update({k[:-len(".calls")]: v for k, v in tracer.counts.items()
                  if k.endswith(".calls")})
    return sorted(f"{name}={n}" for name, n in calls.items()
                  if n and name.startswith(prefixes))
