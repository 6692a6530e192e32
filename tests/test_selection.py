import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilite.errors import BudgetError, StructureError
from hilite.policy import PROB_CLAMP
from hilite.selection import (
    GUMBEL_FLOOR,
    Budget,
    SamplerKind,
    _topk_indices,
    project_k,
    random_mask,
    rng_stream,
    sample_bernoulli,
    sample_mask,
    topk,
)
from hilite.tokenization import tokenize


def scores_of(values):
    return np.asarray(values, dtype=np.float64)


def test_budget_floor():
    assert Budget.for_omega(0.15, 2000).k == 300
    assert Budget.for_omega(0.25, 10).k == 2
    assert Budget.for_omega(1.0, 7).k == 7
    with pytest.raises(StructureError):
        Budget.for_omega(0.0, 10)
    with pytest.raises(StructureError):
        Budget.for_omega(1.5, 10)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(StructureError):
            Budget.for_omega(gamma, 10)


# ---------------------------------------------------------------------------
# sample_bernoulli
# ---------------------------------------------------------------------------


def test_bernoulli_degenerate_low():
    n = 500
    s = scores_of(np.full(n, PROB_CLAMP))
    totals = 0
    for seed in range(20):
        totals += sample_bernoulli(s, seed).sum()
    assert totals / (20 * n) <= 1e-5


def test_bernoulli_degenerate_high():
    n = 500
    s = scores_of(np.full(n, 1 - PROB_CLAMP))
    mask = sample_bernoulli(s, 0)
    assert mask.sum() == n


def test_bernoulli_concentration():
    n = 1000
    s = scores_of(np.full(n, 0.5))
    one = sample_bernoulli(s, 0).sum() / n
    assert abs(one - 0.5) <= 0.05
    mean = np.mean(
        [sample_bernoulli(s, seed).sum() / n for seed in range(100)]
    )
    assert abs(mean - 0.5) <= 0.005


def test_bernoulli_deterministic_given_seed():
    s = scores_of(np.random.default_rng(0).uniform(0.2, 0.8, size=50))
    a = sample_bernoulli(s, 42)
    b = sample_bernoulli(s, 42)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# project_k
# ---------------------------------------------------------------------------


def test_project_feasible_mask_passes_through():
    s = scores_of([0.9, 0.1, 0.8])
    mask = np.array([1, 0, 1], dtype=np.uint8)
    assert np.array_equal(project_k(mask, s, 2), mask)


def test_project_k_zero_clears_mask():
    s = scores_of([0.9, 0.1])
    mask = np.array([1, 1], dtype=np.uint8)
    assert project_k(mask, s, 0).sum() == 0


def test_project_prioritizes_larger_probabilities():
    s = scores_of([0.9, 0.1, 0.8, 0.7])
    mask = np.ones(4, dtype=np.uint8)
    out = project_k(mask, s, 2)
    assert set(np.flatnonzero(out).tolist()) == {0, 2}


def test_project_tie_break_lowest_index():
    s = scores_of([0.5, 0.5, 0.5])
    mask = np.ones(3, dtype=np.uint8)
    out = project_k(mask, s, 2)
    assert set(np.flatnonzero(out).tolist()) == {0, 1}


def test_project_subset_and_idempotent():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(1, 40))
        s = scores_of(rng.uniform(0.01, 0.99, size=n))
        mask = (rng.random(n) < 0.6).astype(np.uint8)
        k = int(rng.integers(0, n + 1))
        out = project_k(mask, s, k)
        assert out.sum() <= k
        assert np.all(out <= mask)  # only deselection
        assert np.array_equal(project_k(out, s, k), out)


# ---------------------------------------------------------------------------
# topk
# ---------------------------------------------------------------------------


def test_topk_full_and_empty():
    s = scores_of([0.3, 0.6, 0.1])
    assert topk(s, range(3), 3).sum() == 3
    assert topk(s, range(3), 0).sum() == 0


def test_topk_tie_break():
    s = scores_of([0.2, 0.9, 0.9, 0.1])
    out = topk(s, range(4), 2)
    assert set(np.flatnonzero(out).tolist()) == {1, 2}


def lexsort_topk(keys, idx, k):
    """The full sort that _topk_indices replaced, kept as the reference:
    key descending, ties by lowest token index."""
    return idx[np.lexsort((idx, -keys))[:k]]


@st.composite
def topk_cases(draw):
    """(keys, idx, k): keys from 3-5 shared values so that ties are heavy,
    token indices unsorted, and k often at an edge (0, 1, n - 1, n)."""
    n = draw(st.integers(0, 60))
    levels = draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=5, unique=True))
    keys = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    idx = np.array(draw(st.lists(st.integers(0, 200), min_size=n, max_size=n, unique=True)),
                   dtype=np.int64)
    edges = [k for k in (0, 1, n - 1, n) if 0 <= k <= n]
    k = draw(st.sampled_from(edges) | st.integers(0, n))
    return keys, idx, k


@given(topk_cases())
@settings(max_examples=500, deadline=None)
def test_topk_indices_match_the_lexsort_reference(case):
    keys, idx, k = case
    got = _topk_indices(keys, idx, k)
    assert np.array_equal(np.sort(got), np.sort(lexsort_topk(keys, idx, k)))


def test_topk_budget_error():
    s = scores_of([0.5, 0.5])
    with pytest.raises(BudgetError):
        topk(s, range(2), 3)


def test_topk_restricted_to_omega():
    s = scores_of([0.99, 0.01, 0.98, 0.01])
    out = topk(s, [1, 3], 1)
    assert set(np.flatnonzero(out).tolist()) == {1}


# ---------------------------------------------------------------------------
# alternative samplers
# ---------------------------------------------------------------------------


def test_greedy_topk_equals_topk():
    s = scores_of([0.3, 0.8, 0.5, 0.5])
    got = sample_mask(s, 2, SamplerKind.GREEDY_TOPK, 0)[1]
    want = topk(s, range(4), 2)
    assert np.array_equal(got, want)


def test_softmax_single_candidate():
    s = scores_of([0.7])
    out = sample_mask(s, 1, SamplerKind.SOFTMAX_WOR, 0)[1]
    assert out[0] == 1


def test_gumbel_golden_draw():
    # frozen draw: fixed seed on equal probabilities must reproduce exactly
    s = scores_of([0.5, 0.5, 0.5])
    out = sample_mask(s, 1, SamplerKind.GUMBEL_TOPK, rng_stream(7))[1]
    first = int(np.flatnonzero(out)[0])
    again = sample_mask(s, 1, SamplerKind.GUMBEL_TOPK, rng_stream(7))[1]
    assert int(np.flatnonzero(again)[0]) == first
    assert first == 0  # golden value recorded from the reference run


def test_greedy_topk_ignores_rng():
    s = scores_of([0.1, 0.9, 0.3])
    a = sample_mask(s, 1, SamplerKind.GREEDY_TOPK, 0)[1]
    b = sample_mask(s, 1, SamplerKind.GREEDY_TOPK, 999)[1]
    assert np.array_equal(a, b)


def test_alternative_exact_k_and_budget_error():
    rng = np.random.default_rng(1)
    s = scores_of(rng.uniform(0.05, 0.95, size=30))
    for kind in (SamplerKind.GREEDY_TOPK, SamplerKind.SOFTMAX_WOR, SamplerKind.GUMBEL_TOPK):
        out = sample_mask(s, 7, kind, 0)[1]
        assert out.sum() == 7
        with pytest.raises(BudgetError):
            sample_mask(s, 31, kind, 0)


# ---------------------------------------------------------------------------
# router + properties
# ---------------------------------------------------------------------------


def test_budget_safety_across_kinds_and_seeds():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        s = scores_of(rng.uniform(0.01, 0.99, size=n))
        gamma = float(rng.uniform(0.05, 1.0))
        k = Budget(gamma, n).k
        for kind in SamplerKind:
            prelim, mask = sample_mask(s, k, kind, int(rng.integers(1 << 31)))
            assert mask.shape == (n,)
            assert mask.sum() <= k


def test_seed_determinism_all_kinds():
    s = scores_of(np.random.default_rng(5).uniform(0.1, 0.9, size=40))
    for kind in SamplerKind:
        a_prelim, a = sample_mask(s, 10, kind, rng_stream(3, "x", 1, 2))
        b_prelim, b = sample_mask(s, 10, kind, rng_stream(3, "x", 1, 2))
        assert np.array_equal(a, b)
        assert np.array_equal(a_prelim, b_prelim)
        c_prelim, c = sample_mask(s, 10, kind, rng_stream(4, "x", 1, 2))
        if kind != SamplerKind.GREEDY_TOPK:
            assert not np.array_equal(a_prelim, c_prelim) or kind == SamplerKind.GREEDY_TOPK


def test_greedy_consistency_with_degenerate_probs():
    # clamp-high tokens with k >= their count: bernoulli+projection == topk
    probs = np.full(20, PROB_CLAMP)
    high = [3, 7, 11]
    probs[high] = 1 - PROB_CLAMP
    s = scores_of(probs)
    _, mask = sample_mask(s, 5, SamplerKind.BERNOULLI_PROJECT, 0)
    want = topk(s, range(20), 3)
    assert np.array_equal(np.flatnonzero(mask), np.flatnonzero(want))


def test_rng_stream_is_stable_and_distinct():
    a = rng_stream(1, "inst", 0, 0).random(3)
    b = rng_stream(1, "inst", 0, 0).random(3)
    c = rng_stream(1, "inst", 1, 0).random(3)
    d = rng_stream(1, "inst", 0, 1).random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# one keyed exact-k sampler, pinned by properties
# ---------------------------------------------------------------------------

EXACT_K_KINDS = (SamplerKind.GREEDY_TOPK, SamplerKind.SOFTMAX_WOR, SamplerKind.GUMBEL_TOPK)


@st.composite
def sampling_cases(draw):
    """(probs, k, seed) with probabilities inside the policy's clamp, drawn
    from a few shared levels so that ties are common."""
    n = draw(st.integers(1, 60))
    p = st.floats(PROB_CLAMP, 1 - PROB_CLAMP)
    levels = draw(st.lists(p, min_size=1, max_size=3))
    probs = np.array(draw(st.lists(st.sampled_from(levels) | p, min_size=n, max_size=n)))
    return probs, draw(st.integers(0, n)), draw(st.integers(0, 2**32 - 1))


def gumbel_reference(probs, k, rng):
    """Top k of log p + Gumbel(0, 1) noise, ties to the lowest index."""
    u = rng.random(len(probs))
    keys = np.log(probs) - np.log(-np.log(np.maximum(u, GUMBEL_FLOOR)))
    mask = np.zeros(len(probs), dtype=np.uint8)
    mask[np.lexsort((np.arange(len(probs)), -keys))[:k]] = 1
    return mask


@given(sampling_cases())
@settings(max_examples=300, deadline=None)
def test_softmax_wor_and_gumbel_topk_draw_the_gumbel_reference_mask(case):
    probs, k, seed = case
    want = gumbel_reference(probs, k, rng_stream(seed))
    for kind in (SamplerKind.SOFTMAX_WOR, SamplerKind.GUMBEL_TOPK):
        prelim, proj = sample_mask(probs, k, kind, rng_stream(seed))
        assert np.array_equal(prelim, want)
        assert np.array_equal(proj, want)


@given(sampling_cases())
@settings(max_examples=300, deadline=None)
def test_every_mask_lies_in_omega_within_budget(case):
    # omega is every token: each mask has one bit per token, within budget
    probs, k, seed = case
    for kind in SamplerKind:
        prelim, proj = sample_mask(probs, k, kind, rng_stream(seed))
        assert prelim.shape == proj.shape == probs.shape
        assert np.all(proj <= prelim)
        assert proj.sum() == k if kind in EXACT_K_KINDS else proj.sum() <= k
    ctx = tokenize(" ".join(["w"] * len(probs)))
    mask = random_mask(ctx, k, rng_stream(seed))
    assert mask.shape == probs.shape
    assert mask.sum() == k


# ---------------------------------------------------------------------------
# the samplers over every token equal their index-set forms on omega = arange(n)
# ---------------------------------------------------------------------------


def omega_sample_mask(probs, omega, k, kind, rng):
    """Reference: sample_mask as written for an index set omega, every
    per-token array gathered through omega's index (the Bernoulli draw
    skipped on an empty omega)."""
    idx = np.asarray(omega, dtype=np.int64)
    mask = np.zeros(len(probs), dtype=np.uint8)
    if kind == SamplerKind.BERNOULLI_PROJECT:
        if idx.size:
            mask[idx[rng.random(idx.size) < probs[idx]]] = 1
        return mask, project_k(mask, probs, k)
    if k > idx.size:
        raise BudgetError(f"k={k} exceeds |omega|={idx.size}")
    if kind == SamplerKind.GREEDY_TOPK:
        keys = probs[idx]
    else:
        keys = np.log(np.maximum(rng.random(idx.size), GUMBEL_FLOOR)) / probs[idx]
    mask[_topk_indices(keys, idx, k)] = 1
    return mask, mask


def omega_random_mask(n, omega, k, rng):
    """Reference: random_mask as written for an index set omega."""
    idx = np.asarray(omega, dtype=np.int64)
    if k > idx.size:
        raise BudgetError(f"k={k} exceeds |omega|={idx.size}")
    mask = np.zeros(n, dtype=np.uint8)
    mask[rng.choice(idx, size=k, replace=False)] = 1
    return mask


@st.composite
def long_sampling_cases(draw):
    """(probs, k, seed) for n from 0 to 3000, k from 0 to n + 1 (n + 1 is
    over budget); probabilities from a seeded generator inside the clamp,
    rounded to one decimal in half the cases so that ties are heavy."""
    n = draw(st.integers(0, 3000))
    probs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        PROB_CLAMP, 1 - PROB_CLAMP, size=n
    )
    if draw(st.booleans()):
        probs = np.clip(np.round(probs, 1), PROB_CLAMP, 1 - PROB_CLAMP)
    k = draw(st.sampled_from([0, n, n + 1]) | st.integers(0, n))
    return probs, k, draw(st.integers(0, 2**32 - 1))


@given(long_sampling_cases())
@example((np.zeros(0), 0, 0))
@example((np.zeros(0), 1, 0))
@example((np.full(1, 0.5), 1, 3))
@settings(max_examples=200, deadline=None)
def test_samplers_over_every_token_equal_the_omega_gathering_forms(case):
    probs, k, seed = case
    n = probs.size
    omega = np.arange(n, dtype=np.int64)
    ctx = tokenize(" ".join(["w"] * n))
    draws = [(kind, lambda rng, kind=kind: sample_mask(probs, k, kind, rng),
              lambda rng, kind=kind: omega_sample_mask(probs, omega, k, kind, rng))
             for kind in SamplerKind]
    draws.append(("random", lambda rng: (random_mask(ctx, k, rng),),
                  lambda rng: (omega_random_mask(n, omega, k, rng),)))
    for kind, new, old in draws:
        rng_new, rng_old = rng_stream(seed, "x", 0, 0), rng_stream(seed, "x", 0, 0)
        try:
            want = old(rng_old)
        except BudgetError:
            with pytest.raises(BudgetError):
                new(rng_new)
            continue
        got = new(rng_new)
        assert [m.dtype for m in got] == [m.dtype for m in want], kind
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want], kind
        # each form leaves the generator where the other does
        assert rng_new.random() == rng_old.random(), kind
