import copy
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilite import policy
from hilite.errors import StructureError
from hilite.policy import (
    FEATURE_DIM,
    ScorerParams,
    build_idf_table,
    entropy,
    featurize,
    init_params,
    log_prob,
    score,
)
from hilite.tokenization import tokenize
from hilite.trainer import TrainConfig, objective


def identity_params(w, b=0.0, tau=1.0):
    w = np.asarray(w, dtype=np.float64)
    return ScorerParams(
        w=w,
        b=b,
        tau=tau,
        norm_mean=np.zeros_like(w),
        norm_var=np.ones_like(w),
    )


def feats_of(matrix):
    return np.asarray(matrix, dtype=np.float64)


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_query_overlap_feature_is_definitional():
    ctx = tokenize("the raven settled")
    f = featurize("where is the raven", ctx, {})
    assert f[1, 0] == 1.0  # "raven" appears in the query
    assert f[2, 0] == 0.0  # "settled" does not


def test_first_token_relative_position_zero():
    ctx = tokenize("alpha beta")
    f = featurize("", ctx, {})
    assert f[0, 3] == 0.0


def test_relative_position_midpoint():
    ctx = tokenize("a b c d")  # 4 tokens; index 2 -> 2/4
    f = featurize("", ctx, {})
    assert f[2, 3] == pytest.approx(0.5)


def test_missing_idf_entries_use_ceiling():
    ctx = tokenize("zyxwv")
    f = featurize("", ctx, {}, idf_ceiling=6.0)
    assert f[0, 2] == 6.0


def test_bigram_numeric_and_sentence_initial_features():
    ctx = tokenize("Code 417. Next line")
    f = featurize("the code 417 please", ctx, {})
    assert f[0, 1] == 1.0  # "code 417" bigram matches
    assert f[1, 5] == 1.0  # 417 is numeric
    assert f[0, 6] == 1.0  # first token is sentence-initial
    assert f[3, 6] == 1.0  # "Next" follows a period
    assert f[4, 6] == 0.0


def test_build_idf_table_counts_documents():
    ctxs = [tokenize("a b"), tokenize("a c")]
    table = build_idf_table(ctxs)
    assert table["a"] == pytest.approx(math.log(3 / 3))
    assert table["b"] == pytest.approx(math.log(3 / 2))


def reference_featurize(query, ctx, idf_table, idf_ceiling):
    """The seven features computed one token at a time from the token texts."""
    texts = [t.text for t in ctx.tokens]
    words = [t.casefold() for t in texts]
    q_words = [t.text.casefold() for t in tokenize(query).tokens]
    q_bigrams = set(zip(q_words, q_words[1:]))
    n = len(texts)
    rows = []
    for i, text in enumerate(texts):
        rows.append([
            words[i] in q_words,
            (i > 0 and (words[i - 1], words[i]) in q_bigrams)
            or (i + 1 < n and (words[i], words[i + 1]) in q_bigrams),
            idf_table.get(words[i], idf_ceiling),
            i / n,
            min(len(text), 20) / 20,
            text.isdigit(),
            i == 0 or texts[i - 1] in {".", "!", "?"},
        ])
    return np.array(rows, dtype=np.float64).reshape(n, FEATURE_DIM)


# repeated words, casefold collisions (Straße/STRASSE, ǅ/Ǆ/ǆ, İ), digits of
# two scripts and the sentence-final characters, glued or spaced
FEATURE_TEXTS = st.lists(
    st.sampled_from(["Straße", "STRASSE", "strasse", "İ", "i̇", "i", "ǅ", "Ǆ", "ǆ",
                     "the", "The", "417", "٤١٧", "x9", ".", "!", "?", " ", " ", "\n"]),
    max_size=40,
).map("".join)


@given(FEATURE_TEXTS, FEATURE_TEXTS, st.lists(FEATURE_TEXTS, max_size=3))
@settings(max_examples=300, deadline=None)
def test_featurize_matches_per_token_reference(context, query, documents):
    ctx = tokenize(context)
    idf_table = build_idf_table([tokenize(d) for d in documents])
    got = featurize(query, ctx, idf_table, idf_ceiling=6.0)
    assert np.array_equal(got, reference_featurize(query, ctx, idf_table, 6.0))


@given(FEATURE_TEXTS, FEATURE_TEXTS, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_standardized_parts_give_standardized_rows_bit_for_bit(context, query, seed):
    # a table standardized once per vocabulary entry, gathered, equals the
    # standardized rows; written over a buffer that holds other rows
    ctx = tokenize(context)
    rng = np.random.default_rng(seed)
    params = identity_params(np.zeros(FEATURE_DIM))
    params.norm_mean, params.norm_var = rng.normal(size=FEATURE_DIM), rng.random(FEATURE_DIM)
    parts = policy.feature_parts(query, ctx, {"the": 0.25})
    raw = featurize(query, ctx, {"the": 0.25})
    buf = rng.normal(size=(len(ctx) + 3, FEATURE_DIM))
    got = parts.standardized(params).rows(buf[:len(ctx)])
    assert got.base is buf
    assert got.tobytes() == policy.standardize(raw, params).tobytes()
    assert parts.table.shape == (len(ctx.vocab), FEATURE_DIM) and parts.text_ids is ctx.text_ids
    assert parts.bigram.dtype == parts.initial.dtype == bool


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_zero_params_give_half_everywhere():
    f = feats_of(np.random.default_rng(0).normal(size=(5, 3)))
    params = identity_params(np.zeros(3))
    s = score(f, params)
    assert np.allclose(s, 0.5)


def test_zero_logit_is_half_for_any_tau():
    f = feats_of(np.zeros((4, 2)))
    for tau in (0.5, 1.0, 3.0):
        params = identity_params(np.zeros(2), tau=tau)
        assert np.allclose(score(f, params), 0.5)


def test_logistic_spot_value():
    f = feats_of([[1.0, 0.0]])
    params = identity_params([2.0, 0.0])
    assert score(f, params)[0] == pytest.approx(0.8807970779778823, abs=1e-6)


def two_branch_sigmoid(z):
    """The sigmoid as two masked branches, kept as the reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@given(st.lists(st.floats(width=64), max_size=40))
@settings(max_examples=300, deadline=None)
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 709.0, -709.0, 745.0, -745.0])
def test_sigmoid_equals_the_two_branch_formula(values):
    z = np.array(values, dtype=np.float64)
    got = policy._sigmoid(z)
    assert got.dtype == np.float64
    assert np.array_equal(got, two_branch_sigmoid(z), equal_nan=True)


def test_score_dim_mismatch_rejected():
    f = feats_of(np.zeros((3, 4)))
    params = identity_params(np.zeros(2))
    with pytest.raises(StructureError):
        score(f, params)


def test_score_rejects_non_matrix_features():
    params = identity_params(np.zeros(2))
    with pytest.raises(StructureError):
        score(np.zeros(2), params)


def test_temperature_pulls_probabilities_toward_half():
    f = feats_of([[1.0], [-2.0]])
    dist = []
    for tau in (0.5, 1.0, 2.0, 5.0):
        p = score(f, identity_params([1.0], tau=tau))
        dist.append(np.abs(p - 0.5))
    for a, b in zip(dist, dist[1:]):
        assert np.all(b < a)


def test_clamping_keeps_probs_interior():
    f = feats_of([[1000.0], [-1000.0]])
    p = score(f, identity_params([1.0]))
    assert p[0] == pytest.approx(1.0 - 1e-6)
    assert p[1] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# log_prob / entropy
# ---------------------------------------------------------------------------


def test_uniform_log_prob():
    n = 7
    s = np.full(n, 0.5)
    mask = np.zeros(n, dtype=np.uint8)
    assert log_prob(mask[None], s)[0] == pytest.approx(-n * math.log(2))


def test_log_prob_decomposes_per_token():
    s = np.array([0.9, 0.1])
    mask = np.array([1, 0], dtype=np.uint8)
    assert log_prob(mask[None], s)[0] == pytest.approx(
        math.log(0.9) + math.log(0.9), abs=1e-12
    )
    assert log_prob(mask[None], s)[0] == pytest.approx(-0.2107, abs=1e-4)


def test_log_prob_ignores_bits_outside_omega():
    s = np.array([0.9, 0.5])
    m1 = np.array([1, 1], dtype=np.uint8)
    m0 = np.array([1, 0], dtype=np.uint8)
    omega = [0]
    assert log_prob(m1[None, omega], s[omega]) == log_prob(m0[None, omega], s[omega])


@pytest.mark.parametrize("n", [2_000, 16_000])
def test_log_prob_picks_the_terms_of_the_product_form_bit_for_bit(n):
    # random 0/1 stacks, with probabilities drawn across (0, 1) and pinned at the clamps
    rng = np.random.default_rng(n)
    probs = rng.random(n)
    probs[: n // 4] = policy.PROB_CLAMP
    probs[n // 4 : n // 2] = 1.0 - policy.PROB_CLAMP
    probs = np.clip(probs, policy.PROB_CLAMP, 1.0 - policy.PROB_CLAMP)
    masks = (rng.random((4, n)) < 0.5).astype(np.uint8)
    m = masks.astype(np.float64)
    terms = m * np.log(probs) + (1.0 - m) * np.log1p(-probs)
    expected = np.array([np.sum(row) for row in terms])
    assert log_prob(masks, probs).tobytes() == expected.tobytes()


def test_given_logs_give_the_same_bits():
    p = np.random.default_rng(1).uniform(1e-6, 1 - 1e-6, size=500)
    masks = (np.random.default_rng(2).random((4, 500)) < 0.3).astype(np.uint8)
    logs = policy.bernoulli_logs(p)
    assert log_prob(masks, p, logs).tobytes() == log_prob(masks, p).tobytes()
    assert entropy(p, logs) == entropy(p)


def test_entropy_bounds_and_values():
    n = 4
    assert entropy(np.full(n, 0.5)) == pytest.approx(
        math.log(2)
    )
    assert entropy(np.full(n, 1e-6)) == pytest.approx(
        0.0, abs=1e-4
    )
    assert entropy(np.full(n, 0.25)) == pytest.approx(
        0.5623351446188083, abs=1e-12
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def pg_term_grad(mask, feats, params, omega):
    """Gradient of log pi(mask) restricted to omega with respect to (w, b),
    read off the training objective over omega's rows: its L_PG term for one
    mask with advantage -1, no length or entropy term."""
    masks = np.asarray(mask, dtype=np.uint8)[None, omega]
    cfg = TrainConfig(steps=0, lambda_len=0.0, beta_ent=0.0)
    fwd = policy.forward(policy.standardize(feats, params)[omega], params)
    terms = objective(masks, np.array([-1.0]), fwd, params, cfg)
    return terms.grad_w, terms.grad_b


def test_single_token_gradient_values():
    f = feats_of([[1.0]])
    params = identity_params([0.0])
    gw, gb = pg_term_grad(np.array([1], dtype=np.uint8), f, params, [0])
    assert gw[0] == pytest.approx(0.5)
    assert gb == pytest.approx(0.5)
    gw, gb = pg_term_grad(np.array([0], dtype=np.uint8), f, params, [0])
    assert gw[0] == pytest.approx(-0.5)
    assert gb == pytest.approx(-0.5)


def test_score_function_identity_expected_gradient_zero():
    # sum over all 2^n masks of pi(mask) * grad log pi(mask) == 0
    rng = np.random.default_rng(3)
    n, d = 6, 3
    f = feats_of(rng.normal(size=(n, d)))
    params = identity_params(rng.normal(scale=0.5, size=d), b=0.1, tau=1.3)
    p = score(f, params)
    omega = list(range(n))
    total_w = np.zeros(d)
    total_b = 0.0
    for bits in itertools.product([0, 1], repeat=n):
        mask = np.array(bits, dtype=np.uint8)
        prob = float(np.prod(np.where(mask, p, 1 - p)))
        gw, gb = pg_term_grad(mask, f, params, omega)
        total_w += prob * gw
        total_b += prob * gb
    assert np.allclose(total_w, 0.0, atol=1e-12)
    assert total_b == pytest.approx(0.0, abs=1e-12)


def finite_diff_log_prob(mask, feats, params, omega, h=1e-6):
    masks = np.asarray(mask)[None, omega]
    gw = np.zeros_like(params.w)
    for i in range(params.dim):
        up = copy.deepcopy(params)
        up.w[i] += h
        down = copy.deepcopy(params)
        down.w[i] -= h
        gw[i] = (
            log_prob(masks, score(feats, up)[omega])[0]
            - log_prob(masks, score(feats, down)[omega])[0]
        ) / (2 * h)
    up = copy.deepcopy(params)
    up.b += h
    down = copy.deepcopy(params)
    down.b -= h
    gb = (
        log_prob(masks, score(feats, up)[omega])[0]
        - log_prob(masks, score(feats, down)[omega])[0]
    ) / (2 * h)
    return gw, gb


@pytest.mark.parametrize("seed", range(8))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    d = int(rng.integers(1, 8))
    feats = feats_of(rng.normal(size=(n, d)))
    params = ScorerParams(
        w=rng.normal(scale=0.5, size=d),
        b=float(rng.normal(scale=0.3)),
        tau=float(rng.uniform(0.5, 2.0)),
        norm_mean=rng.normal(scale=0.2, size=d),
        norm_var=rng.uniform(0.5, 2.0, size=d),
    )
    mask = (rng.random(n) < 0.5).astype(np.uint8)
    omega = sorted(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
    gw, gb = pg_term_grad(mask, feats, params, omega)
    fw, fb = finite_diff_log_prob(mask, feats, params, omega)
    ref = np.concatenate([fw, [fb]])
    got = np.concatenate([gw, [gb]])
    denom = max(np.linalg.norm(ref), 1e-8)
    assert np.linalg.norm(got - ref) / denom < 1e-4


def test_gradient_at_extreme_logits_is_finite_and_ignores_clamped_tokens():
    # z = 1000 x: tokens 0, 1, 3, 4 are clamped (|z| >= 800), token 2 (z = 1) is not
    params = identity_params([1000.0])
    f = feats_of([[-1.0], [-0.8], [0.001], [0.8], [1.0]])
    mask = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gw, gb = pg_term_grad(mask, f, params, range(5))
        gw_2, gb_2 = pg_term_grad(mask, f, params, [2])
    assert np.all(np.isfinite(gw)) and math.isfinite(gb)
    assert gw.tolist() == gw_2.tolist() and gb == gb_2
    assert gb == pytest.approx(1.0 - 1.0 / (1.0 + math.exp(-1.0)))


# ---------------------------------------------------------------------------
# budget-matched initialization
# ---------------------------------------------------------------------------


def raw_parts(rng, n, loc=0.0, scale=1.0):
    """Raw FeatureParts of n tokens drawn from a random vocabulary table."""
    table = rng.normal(loc=loc, scale=scale, size=(max(n // 2, 1), FEATURE_DIM))
    table[:, 5] = 0.0  # a constant column: variance 0
    return policy.FeatureParts(table, rng.integers(0, len(table), size=n, dtype=np.int32),
                               rng.random(n) < 0.1, rng.random(n) < 0.3)


def test_init_params_freezes_stats_and_budget_bias():
    rng = np.random.default_rng(0)
    parts = raw_parts(rng, 100, loc=2.0, scale=3.0)
    params = init_params([parts], tau=1.0, init_prob=0.15)
    raw = parts.rows()
    assert np.allclose(params.norm_mean, raw.mean(axis=0))
    assert np.allclose(params.norm_var, raw.var(axis=0))
    assert params.b == pytest.approx(math.log(0.15 / 0.85))
    # initial policy selects at the requested rate
    assert np.allclose(score(raw[:10], params), 0.15, atol=1e-2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e4]))
@example(n=16_385, seed=1, scale=1.0)
@example(n=49_169, seed=2, scale=1e4)
def test_init_params_statistics_and_rows_equal_numpy_bit_for_bit(n, seed, scale):
    # running sums in numpy's axis-0 order give numpy's mean and var of the
    # part's rows, not just close values, and leave the part as it was; the
    # examples run past 16,384 rows, where numpy's pairwise sum splits
    rng = np.random.default_rng(seed)
    part = raw_parts(rng, n, scale * rng.normal(size=FEATURE_DIM), scale)
    before = copy.deepcopy(part)
    raw = part.rows()
    params = init_params([part])
    assert params.norm_mean.tobytes() == raw.mean(axis=0).tobytes()
    assert params.norm_var.tobytes() == raw.var(axis=0).tobytes()
    assert all(np.array_equal(getattr(part, f), value) for f, value in vars(before).items())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3000), max_size=6), st.integers(0, 2**32 - 1))
@example(sizes=[0, 16_385, 0, 2], seed=3)
@example(sizes=[1] * 5 + [3000], seed=4)
@example(sizes=[0, 0], seed=5)
def test_init_params_statistics_over_any_block_split_equal_numpy_bit_for_bit(sizes, seed):
    # the statistics over parts of any sizes, empty parts and no parts
    # included, are numpy's mean and var of the stacked rows
    rng = np.random.default_rng(seed)
    parts = [raw_parts(rng, size, rng.normal(size=FEATURE_DIM)) for size in sizes]
    if not sum(sizes):
        with pytest.raises(StructureError, match="at least one row"):
            init_params(parts)
        return
    stacked = np.vstack([part.rows() for part in parts])
    params = init_params(parts)
    assert params.norm_mean.tobytes() == stacked.mean(axis=0).tobytes()
    assert params.norm_var.tobytes() == stacked.var(axis=0).tobytes()


def test_init_params_makes_no_full_size_temporary():
    # numpy reports its buffers to tracemalloc; a stack of the rows would
    # make the traced peak as large as the stacked matrix itself
    rng = np.random.default_rng(0)
    parts = [raw_parts(rng, 20_000) for _ in range(10)]
    stacked_nbytes = sum(len(part.text_ids) for part in parts) * FEATURE_DIM * 8
    tracemalloc.start()
    try:
        init_params(parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stacked_nbytes / 4
