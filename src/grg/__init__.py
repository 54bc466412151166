"""Generalized random graphs with random vertex weights.

Edge {i, j} appears independently with probability
W_i W_j / (L + W_i W_j) given positive i.i.d. vertex weights with total
L.  The package samples these graphs at scale, and verifies by
simulation how the total edge count concentrates and fluctuates:
normal fluctuations under a finite second moment, stable fluctuations
under regularly varying tails with index in (1, 2), the law of large
numbers for edges per vertex, and the vanishing bound terms behind the
characteristic-function proofs of those limits.

The public names below load their module on first use (PEP 562), so a
command imports only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "BracketingError ConfigError DomainError GrgError HypothesisError "
              "ParameterError SizeError UnsupportedModelError",
    "seeding": "derive_seed splitmix64",
    "weights": "ConstantWeights ExponentialWeights GammaWeights LemmaRatios LogNormalWeights "
               "Moments ParetoLogWeights ParetoWeights WeightModel WeightVector "
               "analytic_moments compute_norming lemma1_ratio_check model_from_config "
               "model_to_config sample_weights truncated_first_moment_tail "
               "truncated_second_moment",
    "graph": "GraphSample conditional_edge_mean pair_sums sample_graph_fast write_edge_list",
    "stable": "StableParams sample_stable stable_cdf_batch",
    "stats": "KsResult kolmogorov_sf ks_one_sample ks_two_sample normal_cdf",
    "limits": "AuditTerms ExperimentConfig ExperimentResult "
              "normal_limit_statistic proof_audit run_experiment stable_limit_statistic",
    "report": "RunManifest config_from_dict config_to_dict emit_report read_run",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
