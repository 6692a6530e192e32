"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 5 trains the scorer end-to-end against the coverage
oracle and takes a couple of minutes; everything else is fast.
"""

import copy
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from hilite.cli import main as cli_main
from hilite.data import (
    build_covis,
    candidates,
    gen_dataset,
    popularity_from_histories,
    save_jsonl,
)
from hilite.markup import (
    BUILTIN_FORMATS,
    coalesce,
    inject,
    strip,
)
from hilite.policy import ScorerParams, forward, score, standardize
from hilite.rewards import RewardSpec, composite, em, hr_at_k, ndcg_at_k, token_f1
from hilite.selection import Budget, SamplerKind, rng_stream, sample_mask, topk
from hilite.solver import OracleSolver, OracleSolverConfig
from hilite.tokenization import tokenize
from hilite.trainer import (
    TrainConfig,
    advantages,
    evaluate,
    objective,
    train,
)

PASS = "ACCEPTANCE {n} PASS: {what}"


def report(n, what):
    print(PASS.format(n=n, what=what))


# ---------------------------------------------------------------------------
# 1. Non-destructiveness
# ---------------------------------------------------------------------------


def test_criterion_1_non_destructiveness():
    rng = np.random.default_rng(101)
    # alphabet avoids every marker character so removal inverts injection
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 éü中文ж"
    formats = sorted(BUILTIN_FORMATS)
    start = time.monotonic()
    failures = 0
    for case in range(10_000):
        n_chars = int(rng.integers(0, 120))
        text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n_chars))
        ctx = tokenize(text)
        mask = np.zeros(len(ctx), dtype=np.uint8)
        if len(ctx.tokens):
            rate = rng.uniform(0.0, 1.0)
            mask[rng.random(len(ctx.tokens)) < rate] = 1
        delta = int(rng.integers(0, 13))
        fmt = BUILTIN_FORMATS[formats[case % len(formats)]]
        emphasized = inject(ctx, coalesce(mask, ctx, delta), fmt)
        if strip(emphasized, fmt) != text:
            failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 10.0
    report(1, f"10,000 strip(inject(..)) round-trips byte-exact in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Budget safety
# ---------------------------------------------------------------------------


def test_criterion_2_budget_safety():
    rng = np.random.default_rng(202)
    kinds = list(SamplerKind)
    violations = 0
    for case in range(10_000):
        n = int(rng.integers(2, 60))
        probs = rng.uniform(1e-6, 1 - 1e-6, size=n)
        gamma = float(rng.uniform(0.02, 1.0))
        k = Budget(gamma, n).k
        kind = kinds[case % 4]
        _, mask = sample_mask(probs, k, kind, int(rng.integers(1 << 62)))
        if int(mask.sum()) > k:
            violations += 1
    assert violations == 0
    report(2, "10,000 sampler invocations across all four kinds respect k")


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(303)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 9))
        feats = rng.normal(size=(n, d))
        params = ScorerParams(
            w=rng.normal(scale=0.4, size=d),
            b=float(rng.normal(scale=0.3)),
            tau=float(rng.uniform(0.7, 1.5)),
            norm_mean=rng.normal(scale=0.2, size=d),
            norm_var=rng.uniform(0.5, 2.0, size=d),
        )
        g = int(rng.integers(2, 5))
        masks = (rng.random((g, n)) < 0.5).astype(np.uint8)
        rewards = rng.random(g)
        omega = sorted(rng.choice(n, size=max(2, n // 2), replace=False).tolist())
        cfg = TrainConfig(group_size=2, steps=0, gamma=0.3)
        adv = advantages(rewards)
        # the loss over omega: the forward pass and masks of omega's rows
        terms = objective(masks[:, omega], adv, forward(standardize(feats, params)[omega], params),
                          params, cfg)
        gw, gb = terms.grad_w, terms.grad_b

        def total_at(p2):
            fwd = forward(standardize(feats, p2)[omega], p2)
            return objective(masks[:, omega], adv, fwd, p2, cfg).total

        h = 1e-6
        fd = np.zeros(d + 1)
        for i in range(d):
            up = copy.deepcopy(params); up.w[i] += h
            dn = copy.deepcopy(params); dn.w[i] -= h
            fd[i] = (total_at(up) - total_at(dn)) / (2 * h)
        up = copy.deepcopy(params); up.b += h
        dn = copy.deepcopy(params); dn.b -= h
        fd[d] = (total_at(up) - total_at(dn)) / (2 * h)
        got = np.concatenate([gw, [gb]])
        rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    report(3, f"100 finite-difference checks, worst rel err {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Advantage contract
# ---------------------------------------------------------------------------


def test_criterion_4_advantage_contract():
    rng = np.random.default_rng(404)
    for _ in range(2_000):
        g = int(rng.integers(2, 10))
        r = np.round(rng.random(g), 3)
        adv = advantages(r)
        if np.all(r == r[0]):
            assert np.all(adv == 0.0)
            continue
        assert abs(adv.mean()) < 1e-9
        for i in range(g):
            for j in range(g):
                if r[i] > r[j]:
                    assert adv[i] > adv[j]
                elif r[i] == r[j]:
                    assert adv[i] == adv[j]
    assert np.all(advantages([0.25] * 4) == 0.0)
    report(4, "advantage mean < 1e-9, ordering matches rewards, zero-variance -> zeros")


# ---------------------------------------------------------------------------
# 5. Oracle-convergence experiment
# ---------------------------------------------------------------------------


def test_criterion_5_oracle_convergence():
    start = time.monotonic()
    train_set = gen_dataset(500, target_tokens=2000, seed=1000)
    held_out = gen_dataset(100, target_tokens=2000, seed=9000)

    cfg = TrainConfig(
        group_size=4, gamma=0.15, delta=10, lambda_len=0.01, beta_ent=1.0,
        learning_rate=1e-4, weight_decay=1e-2, steps=2000, seed=0,
    )
    solver = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
    result = train(train_set, solver, cfg)

    trained = evaluate(held_out, result.params, solver, cfg, result.idf_table)
    random_baseline = evaluate(
        held_out, result.params, solver, cfg, result.idf_table, variant="random"
    )
    elapsed = time.monotonic() - start

    assert trained["evidence"]["f1"] >= 0.90, trained["evidence"]
    assert trained["mean_reward"] >= 0.95, trained["mean_reward"]
    # a sampling property of these seeds, not a guarantee: the random variant
    # reads 0.26 at TrainConfig(seed=332) on its own held-out needles
    assert random_baseline["mean_reward"] <= 0.25, random_baseline["mean_reward"]
    assert elapsed <= 600.0
    report(
        5,
        f"held-out reward {trained['mean_reward']:.3f} >= 0.95, "
        f"evidence F1 {trained['evidence']['f1']:.3f} >= 0.90, "
        f"random baseline {random_baseline['mean_reward']:.3f} <= 0.25, "
        f"{elapsed:.0f}s <= 600s",
    )


# ---------------------------------------------------------------------------
# 6. Marker-swap invariance
# ---------------------------------------------------------------------------


def test_criterion_6_marker_swap_invariance():
    data = gen_dataset(20, target_tokens=400, seed=77, n_clusters=3,
                       cluster_size=4, filler_gap=3)
    cfg = TrainConfig(steps=200, seed=3)
    solver = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
    result = train(data, solver, cfg)

    span_sets = {}
    rewards = {}
    for name in sorted(BUILTIN_FORMATS):
        fmt = BUILTIN_FORMATS[name]
        per_instance_spans = []
        from hilite.policy import featurize

        for inst in data:
            ctx = tokenize(inst.context)
            feats = featurize(inst.query, ctx, result.idf_table, cfg.idf_ceiling)
            s = score(feats, result.params)
            budget = Budget.for_omega(cfg.gamma, len(ctx.omega))
            mask = topk(s, ctx.omega, budget.k)
            spans = coalesce(mask, ctx, cfg.delta)
            per_instance_spans.append(tuple(map(tuple, spans.tolist())))
        span_sets[name] = tuple(per_instance_spans)
        fmt_solver = OracleSolver(OracleSolverConfig(coverage_threshold=0.8), fmt)
        fmt_cfg = TrainConfig.from_dict({**cfg.to_dict(), "marker_format": name})
        rewards[name] = evaluate(
            data, result.params, fmt_solver, fmt_cfg, result.idf_table
        )["mean_reward"]

    baseline_spans = span_sets["default"]
    baseline_reward = rewards["default"]
    for name in BUILTIN_FORMATS:
        assert span_sets[name] == baseline_spans, name
        assert rewards[name] == baseline_reward, name
    report(6, f"identical span sets and oracle reward {baseline_reward:.3f} "
              "across all 7 marker formats")


# ---------------------------------------------------------------------------
# 7. Metric oracles
# ---------------------------------------------------------------------------


def _ref_normalize(s):
    import re as _re
    import string as _string

    s = s.lower()
    s = "".join(ch for ch in s if ch not in set(_string.punctuation))
    s = _re.sub(r"\b(a|an|the)\b", " ", s)
    return " ".join(s.split())


def _ref_em(pred, gold):
    return 1.0 if _ref_normalize(pred) == _ref_normalize(gold) else 0.0


def _ref_f1(pred, gold):
    p = _ref_normalize(pred).split()
    g = _ref_normalize(gold).split()
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    used = [False] * len(g)
    overlap = 0
    for tok in p:
        for i, gtok in enumerate(g):
            if not used[i] and gtok == tok:
                used[i] = True
                overlap += 1
                break
    if overlap == 0:
        return 0.0
    precision = overlap / len(p)
    recall = overlap / len(g)
    return 2 * precision * recall / (precision + recall)


def _ref_hr(ranking, gold, k):
    return 1.0 if gold in list(ranking)[:k] else 0.0


def _ref_ndcg(ranking, gold, k):
    for rank, item in enumerate(list(ranking)[:k], start=1):
        if item == gold:
            return 1.0 / math.log2(rank + 1)
    return 0.0


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(707)
    vocabulary = ["red", "fox", "jumps", "the", "a", "35,124", "quick.", "Dog"]
    for _ in range(1_000):
        pred = " ".join(
            vocabulary[i] for i in rng.integers(0, len(vocabulary), rng.integers(0, 6))
        )
        gold = " ".join(
            vocabulary[i] for i in rng.integers(0, len(vocabulary), rng.integers(0, 6))
        )
        assert em(pred, gold) == _ref_em(pred, gold)
        assert abs(token_f1(pred, gold) - _ref_f1(pred, gold)) < 1e-12

        n_items = int(rng.integers(1, 12))
        ranking = rng.permutation(n_items).tolist()
        gold_item = int(rng.integers(0, n_items + 3))
        k = int(rng.integers(1, 12))
        assert hr_at_k(ranking, gold_item, k) == _ref_hr(ranking, gold_item, k)
        assert abs(ndcg_at_k(ranking, gold_item, k) - _ref_ndcg(ranking, gold_item, k)) < 1e-12

    # paper-anchored spot values
    assert ndcg_at_k([42], 42, 10) == 1.0
    spec = RewardSpec((("hr", 0.7), ("ndcg", 0.3)), k=10)
    ranking = [1, 2, 42, 4, 5, 6, 7, 8, 9, 10]
    expected = 0.7 * 1.0 + 0.3 * (1.0 / math.log2(4))
    assert composite(ranking, 42, spec) == pytest.approx(expected, abs=1e-12)
    report(7, "1,000 randomized metric cases match brute-force references")


# ---------------------------------------------------------------------------
# 8. Co-visitation pipeline
# ---------------------------------------------------------------------------

FIVE_USERS = [
    [0, 1, 2],
    [1, 2, 3],
    [2, 3, 4],
    [3, 4, 5],
    [5, 0],
]

# hand enumeration for window 2: each ordered pair within distance <= 2 of
# some history contributes 1 per occurrence
HAND_COUNTS = {
    (0, 1): 1, (0, 2): 1, (0, 5): 1,
    (1, 0): 1, (1, 2): 2, (1, 3): 1,
    (2, 0): 1, (2, 1): 2, (2, 3): 2, (2, 4): 1,
    (3, 1): 1, (3, 2): 2, (3, 4): 2, (3, 5): 1,
    (4, 2): 1, (4, 3): 2, (4, 5): 1,
    (5, 0): 1, (5, 3): 1, (5, 4): 1,
}


def test_criterion_8_covis_pipeline():
    graph = build_covis(FIVE_USERS, window=2)
    got = {
        (a, b): c
        for a, pairs in graph.items()
        for b, c in pairs
    }
    assert got == HAND_COUNTS

    history = [0, 1]
    alpha, m_recent, k_top = 0.85, 10, 40
    popularity = popularity_from_histories(FIVE_USERS)
    got_candidates = candidates(history, graph, alpha=alpha, M=m_recent,
                                K=k_top, popularity=popularity)

    # brute force: score every catalog item from scratch
    catalog = sorted({i for h in FIVE_USERS for i in h})
    recent = list(reversed(history[-m_recent:]))
    scores = {}
    for c in catalog:
        if c in history:
            continue
        s = sum(
            (alpha**rank) * HAND_COUNTS.get((r, c), 0)
            for rank, r in enumerate(recent)
        )
        if s > 0:
            scores[c] = s
    expected = [c for c, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]
    for item in popularity:
        if len(expected) >= k_top:
            break
        if item not in history and item not in expected:
            expected.append(item)
    assert got_candidates == expected
    report(8, f"co-vis counts match hand enumeration; candidates {got_candidates} "
              "match brute-force scoring")


# ---------------------------------------------------------------------------
# 9. Pruned-vs-emphasis harness
# ---------------------------------------------------------------------------


def test_criterion_9_pruned_vs_emphasis(tmp_path):
    data = gen_dataset(30, target_tokens=400, seed=55, n_clusters=3,
                       cluster_size=4, filler_gap=3)
    dataset_path = tmp_path / "oracle.jsonl"
    save_jsonl(data, dataset_path)
    runner = CliRunner()

    out_dir = tmp_path / "run"
    res = runner.invoke(cli_main, [
        "train", "--dataset", str(dataset_path), "--out", str(out_dir),
        "--steps", "500", "--seed", "2",
    ])
    assert res.exit_code == 0, res.output
    checkpoint = out_dir / "checkpoint.json"

    plain_report = tmp_path / "plain.json"
    res = runner.invoke(cli_main, [
        "eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--pruned", "--random", "--no-highlight", "--out", str(plain_report),
    ])
    assert res.exit_code == 0, res.output
    plain = json.loads(plain_report.read_text())
    assert set(plain["variants"]) == {"hilite", "random", "pruned", "no-highlight"}

    bridging_report = tmp_path / "bridging.json"
    res = runner.invoke(cli_main, [
        "eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--pruned", "--random", "--no-highlight", "--bridging",
        "--out", str(bridging_report),
    ])
    assert res.exit_code == 0, res.output
    bridging = json.loads(bridging_report.read_text())
    pruned_reward = bridging["variants"]["pruned"]["mean_reward"]
    hilite_reward = bridging["variants"]["hilite"]["mean_reward"]
    assert pruned_reward < hilite_reward
    report(9, f"all four eval rows emitted; bridging oracle: pruned "
              f"{pruned_reward:.3f} < hilite {hilite_reward:.3f}")
