"""Each benchmark check must reject a deliberately corrupted output.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from hilite import (  # noqa: E402
    DEFAULT_FORMAT, OracleSolver, OracleSolverConfig, SynthSpec, coalesce, gen_needle,
    inject, tokenize,
)
from hilite.data import Instance  # noqa: E402


@pytest.fixture(scope="module")
def needle():
    inst = gen_needle(SynthSpec(target_tokens=300, seed=5))
    ctx = tokenize(inst.context)
    gold_tokens = [i for i, t in enumerate(ctx.tokens)
                   if any(t.char_start < e and t.char_end > s
                          for s, e in inst.evidence_spans)]
    mask = ctx_mask(ctx, gold_tokens)
    emphasized = inject(ctx, coalesce(mask, ctx, 0), DEFAULT_FORMAT)
    return inst, ctx, mask, emphasized


def ctx_mask(ctx, indices):
    mask = np.zeros(len(ctx.tokens), dtype=np.uint8)
    mask[indices] = 1
    return mask


def test_round_trip_accepts_program_output(needle):
    inst, _, _, emphasized = needle
    assert checks.check_round_trip(emphasized, inst.context) is None


def test_round_trip_rejects_changed_byte(needle):
    inst, _, _, emphasized = needle
    i = emphasized.index("access code") + 2
    corrupted = emphasized[:i] + ("X" if emphasized[i] != "X" else "Y") + emphasized[i + 1:]
    assert checks.check_round_trip(corrupted, inst.context) is not None


def test_round_trip_rejects_unbalanced_markers(needle):
    inst, _, _, emphasized = needle
    corrupted = emphasized.replace("<end_important>", "", 1)
    assert checks.check_round_trip(corrupted, inst.context) is not None


def test_budget_rejects_extra_token(needle):
    inst, ctx, _, _ = needle
    k = checks.budget(0.15, inst.context)
    assert k == int(0.15 * len(ctx.tokens))
    assert checks.check_budget(k, k) is None
    assert checks.check_budget(k + 1, k) is not None


def test_budget_counts_utf8_tokens_like_the_documented_rule():
    text = "Über die Brücke, 古い灯台 — und zurück."
    assert len(checks.TOKEN_RULE.findall(text)) == len(tokenize(text).tokens) == 9


def test_reward_agrees_with_oracle_and_rejects_wrong_reward(needle):
    inst, ctx, _, emphasized = needle
    oracle = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
    answer = oracle.solve(inst.query, emphasized, inst).raw_text
    assert answer == f"<answer>{inst.gold}</answer>"
    assert checks.check_reward(1.0, emphasized, inst.context,
                               inst.evidence_spans, inst.gold) is None
    assert checks.check_reward(0.0, emphasized, inst.context,
                               inst.evidence_spans, inst.gold) is not None
    plain = inst.context
    assert checks.check_reward(0.0, plain, inst.context,
                               inst.evidence_spans, inst.gold) is None
    assert checks.check_reward(1.0, plain, inst.context,
                               inst.evidence_spans, inst.gold) is not None


def test_coverage_matches_oracle_on_partial_masks(needle):
    inst, ctx, full_mask, _ = needle
    oracle = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
    selected = full_mask.nonzero()[0]
    for keep in (len(selected), len(selected) * 9 // 10, len(selected) * 7 // 10, 1):
        mask = ctx_mask(ctx, selected[:keep])
        emphasized = inject(ctx, coalesce(mask, ctx, 3), DEFAULT_FORMAT)
        want = oracle.solve(inst.query, emphasized, inst).raw_text
        got = checks.coverage_answer(emphasized, inst.context,
                                     inst.evidence_spans, inst.gold)
        assert want == f"<answer>{got}</answer>", keep


def test_utf8_mixing_keeps_evidence_on_its_bytes():
    import workloads

    inst = gen_needle(SynthSpec(target_tokens=600, seed=11))
    mixed = workloads.mix_utf8(inst, 3, np.random.default_rng(0), Instance)
    assert not mixed.context.isascii()
    old, new = inst.context.encode(), mixed.context.encode()
    for (os_, oe), (ns, ne) in zip(inst.evidence_spans, mixed.evidence_spans):
        assert old[os_:oe] == new[ns:ne]
    assert mixed.context.count(str(inst.gold)) == 1


def test_stub_answers_and_counts_violations(needle):
    from hilite import TEMPLATES, render_prompt, prune

    import stub_solver

    inst, ctx, mask, emphasized = needle
    stub = stub_solver.Stub(service_s=0.0)
    stub.load({"gamma": 0.15, "instances": [inst.to_record()]})

    def ask(text):
        return stub.answer(render_prompt(inst.query, text, TEMPLATES["qa"]))

    assert ask(emphasized) == inst.gold
    assert ask(inst.context) == checks.DISTRACTOR
    assert stub.stats()["violation_total"] == 0

    spans = coalesce(mask, ctx, 0)
    assert ask(prune(ctx, spans, " ... ")) == checks.DISTRACTOR
    assert stub.stats()["destructive"] == 1 and stub.stats()["violation_total"] == 0

    ask(emphasized.replace("<end_important>", "", 1))
    ask(emphasized.replace("access", "axcess", 1))
    many = ctx_mask(ctx, list(range(0, len(ctx.tokens), 2)))
    ask(inject(ctx, coalesce(many, ctx, 0), DEFAULT_FORMAT))
    stub.answer("not a prompt")
    v = stub.stats()["violations"]
    assert v == {"malformed_prompt": 1, "unknown_query": 0, "unbalanced": 1,
                 "too_many_pairs": 1, "not_round_trip": 1}


def test_recorded_traffic_stays_aligned_when_a_call_raises():
    import run
    from hilite.solver import SolverOutput

    class Flaky:
        output_contract = "free-text"

        def solve(self, query, emphasized, instance=None):
            if emphasized == "b":
                raise RuntimeError("endpoint down")
            return SolverOutput(raw_text=f"<answer>{emphasized}</answer>")

    solver = run.BenchSolver(Flaky())
    solver.record = []
    for text in ("a", "b", "c"):
        try:
            solver.solve("q", text)
        except RuntimeError:
            assert text == "b"
    assert solver.record == [["a", False], ["b", True], ["c", False]]
