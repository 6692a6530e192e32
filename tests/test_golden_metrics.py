"""Golden fixture for the per-step training metrics.

``golden_train_seed3.json`` pins rewards, emphasized texts and parameters;
this one pins every ``metrics.jsonl`` line byte for byte, so the logged
loss terms (``L_PG``, ``L_LEN``, ``L_ENT``) and ``mean_p`` cannot drift
either.  Three runs are digested: a short oracle run with each of the
``bernoulli_project`` and ``softmax_wor`` samplers, and a ``ScriptedSolver``
run whose dataset holds an empty-context instance (no policy-controlled
token: ``L_ENT`` is logged as ``-0.0`` and ``mean_p`` as ``0.0``).

Regenerate the fixture, only on purpose, with:

    PYTHONPATH=src python tests/test_golden_metrics.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from hilite.data import Instance, gen_dataset
from hilite.solver import OracleSolver, OracleSolverConfig, ScriptedSolver
from hilite.trainer import TrainConfig, train

FIXTURE = Path(__file__).parent / "fixtures" / "golden_metrics.json"


def _metrics_sha256(dataset, solver, cfg) -> str:
    with tempfile.TemporaryDirectory() as out:
        train(dataset, solver, cfg, out_dir=out)
        return hashlib.sha256((Path(out) / "metrics.jsonl").read_bytes()).hexdigest()


def _oracle_run(sampler: str) -> str:
    data = gen_dataset(8, target_tokens=300, seed=41, n_clusters=3,
                       cluster_size=4, filler_gap=3)
    solver = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
    return _metrics_sha256(data, solver, TrainConfig(steps=120, seed=5, sampler=sampler))


def _scripted_run() -> str:
    data = [replace(inst, gold="x") for inst in gen_dataset(3, target_tokens=120, seed=61)]
    data.insert(1, Instance(id="empty", query="find nothing", context="", gold="x"))
    solver = ScriptedSolver(["<answer>x</answer>", "<answer>y</answer>", "no tags"])
    cfg = TrainConfig(steps=40, seed=7, solver_failure_budget=100)
    return _metrics_sha256(data, solver, cfg)


def golden_digests() -> dict:
    return {
        "oracle_bernoulli_project": _oracle_run("bernoulli_project"),
        "oracle_softmax_wor": _oracle_run("softmax_wor"),
        "scripted_with_empty_context": _scripted_run(),
    }


def test_golden_metrics_lines():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden_digests() == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
