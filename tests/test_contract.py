"""A property test of the weight-draw contract and of what is built on a draw.

Models are drawn over the whole double range, with alpha near 1, in (1, 2), at 2 and
above.  Every call either returns a result that passes a cheap invariant or raises a
``GrgError`` or an ``ArithmeticError``; any other exception, and any warning, fails.
"""

import math
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grg import (
    ConstantWeights,
    ExponentialWeights,
    GammaWeights,
    GrgError,
    LogNormalWeights,
    ParetoLogWeights,
    ParetoWeights,
    WeightVector,
    analytic_moments,
    compute_norming,
    conditional_edge_mean,
    lemma1_ratio_check,
    proof_audit,
    sample_graph_fast,
    sample_weights,
    truncated_second_moment,
)
from grg.graph import descending_weights
from grg.limits import AUDIT_TERM_NAMES

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
# mostly moderate values, so that most draws get past the model and the weights
SCALES = st.one_of(st.floats(min_value=1e-3, max_value=1e3), POSITIVE)
MUS = st.one_of(st.floats(min_value=-30.0, max_value=30.0), FINITE)
ALPHAS = st.one_of(
    st.floats(min_value=1.0, max_value=1.0 + 1e-6, exclude_min=True),  # near 1
    st.floats(min_value=1.0, max_value=2.0, exclude_min=True, exclude_max=True),
    st.just(2.0),
    st.floats(min_value=2.0, max_value=1e6, exclude_min=True),
    POSITIVE,
)
# a model class and its parameters, which its constructor may refuse
MODELS = st.one_of(
    st.tuples(st.just(ConstantWeights), SCALES),
    st.tuples(st.just(ExponentialWeights), SCALES),
    st.tuples(st.just(LogNormalWeights), MUS, SCALES),
    st.tuples(st.just(GammaWeights), SCALES, SCALES),
    st.tuples(st.just(ParetoWeights), ALPHAS, SCALES),
    st.tuples(st.just(ParetoLogWeights), ALPHAS, SCALES),
)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or None when it raises a GrgError or an ArithmeticError."""
    try:
        return fn(*args, **kwargs)
    except (GrgError, ArithmeticError):
        return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    spec=MODELS,
    n=st.one_of(st.integers(min_value=2, max_value=300),
                st.integers(min_value=2, max_value=3000)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    t=FINITE,
    scale=POSITIVE,
    x_factor=st.floats(min_value=1.0, max_value=1e300),
)
def test_every_call_returns_a_checked_result_or_a_package_error(spec, n, seed, t, scale,
                                                               x_factor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = outcome(*spec)
        if model is not None:
            check_model(model, n, seed, t, scale, x_factor)


def check_model(model, n, seed, t, scale, x_factor):
    moments = outcome(analytic_moments, model, n)
    if moments is not None:
        assert all(m >= 0.0 for m in moments), moments

    a_n = outcome(compute_norming, model, n)
    if a_n is not None:
        assert math.isfinite(a_n) and a_n > model.xm
        assert abs(a_n * a_n - n * truncated_second_moment(model, a_n)) <= 1e-7 * a_n * a_n

    if isinstance(model, (ParetoWeights, ParetoLogWeights)):
        rows = outcome(lemma1_ratio_check, model, [model.xm, model.xm * x_factor])
        for row in rows or []:
            assert all(math.isfinite(v) and v >= 0.0 for v in row), row

    wv = outcome(sample_weights, model, n, seed)
    if wv is None:
        return
    assert wv.n == n and np.all(wv.values > 0) and np.all(np.isfinite(wv.values))
    assert math.isfinite(wv.sum_l) and sys.float_info.min <= wv.sum_sq < math.inf

    pairs = n * (n - 1) // 2
    mean = outcome(conditional_edge_mean, wv)
    if mean is not None:
        assert 0.0 <= mean <= pairs

    norming = scale if a_n is None else a_n
    terms = outcome(proof_audit, wv, t, 0.5 * norming, norming)
    if terms is not None:
        values = [getattr(terms, name) for name in AUDIT_TERM_NAMES]
        assert all(math.isfinite(v) and v >= 0.0 for v in values), terms

    # the draw order, its descending copy and the draw sorted in place: one graph
    drawn = WeightVector(wv.values.copy(), wv.sum_l, wv.sum_sq)
    graphs = [sample_graph_fast(w, seed + 1) for w in
              (wv, descending_weights(wv), descending_weights(drawn, in_place=True))]
    assert 0 <= graphs[0].edge_count <= pairs
    counts = {(g.edge_count, g.candidates_examined) for g in graphs}
    assert len(counts) == 1, counts
