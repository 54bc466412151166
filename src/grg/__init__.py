"""Generalized random graphs with random vertex weights.

Edge {i, j} appears independently with probability
W_i W_j / (L + W_i W_j) given positive i.i.d. vertex weights with total
L.  The package samples these graphs at scale, and verifies by
simulation how the total edge count concentrates and fluctuates:
normal fluctuations under a finite second moment, stable fluctuations
under regularly varying tails with index in (1, 2), the law of large
numbers for edges per vertex, and the vanishing bound terms behind the
characteristic-function proofs of those limits.
"""

__version__ = "0.1.0"

from .errors import (
    BracketingError,
    ConfigError,
    DomainError,
    GrgError,
    HypothesisError,
    IntegrationError,
    ParameterError,
    SizeError,
    UnsupportedModelError,
)
from .seeding import derive_seed, splitmix64
from .weights import (
    ConstantWeights,
    ExponentialWeights,
    GammaWeights,
    LemmaRatios,
    LogNormalWeights,
    Moments,
    ParetoLogWeights,
    ParetoWeights,
    TailParams,
    WeightModel,
    WeightVector,
    analytic_moments,
    compute_norming,
    lemma1_ratio_check,
    model_from_config,
    model_to_config,
    sample_weights,
    tail_params,
    truncated_first_moment_tail,
    truncated_second_moment,
)
from .graph import (
    EdgeCountPmf,
    GraphSample,
    NAIVE_MAX_N,
    conditional_edge_mean,
    edge_probability,
    exact_edge_count_pmf,
    sample_graph_fast,
    sample_graph_naive,
    write_edge_list,
)
from .stable import (
    StableParams,
    sample_stable,
    stable_cdf,
    stable_cdf_batch,
    stable_char_fn,
)
from .stats import (
    EmpiricalCdf,
    KsResult,
    empirical_cdf,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    normal_cdf,
)
from .limits import (
    AuditResult,
    AuditTerms,
    ExperimentConfig,
    LimitResult,
    LlnResult,
    NormalizedSample,
    mc_pair_moments,
    normal_limit_statistic,
    proof_audit,
    run_experiment,
    run_gaussian_limit,
    run_lln,
    run_proof_audit,
    run_stable_limit,
    stable_limit_statistic,
)
from .report import RunManifest, config_from_dict, config_to_dict, emit_report, read_run
