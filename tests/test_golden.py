"""Golden fixture for the training loop.

A fixed-seed oracle run (20 x 400-token needles, 200 steps, seed 3) must
keep producing the same per-step rewards and emphasized texts, and final
scorer parameters equal to the recorded ones within rtol=1e-12 (refactors
of the floating-point math may move the last few ulps, nothing more).

Regenerate the fixture, only on purpose, with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from hilite import markup, trainer
from hilite.data import gen_dataset
from hilite.solver import OracleSolver, OracleSolverConfig
from hilite.trainer import TrainConfig

FIXTURE = Path(__file__).parent / "fixtures" / "golden_train_seed3.json"


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


def golden_run() -> dict:
    """Train on the fixed set-up and digest what it produced.  Emphasized
    texts are recorded as ``markup.inject`` returns them, which
    ``rollout_group`` calls once per rollout in group order, and split into
    one list per step."""
    data = gen_dataset(20, target_tokens=400, seed=77, n_clusters=3,
                       cluster_size=4, filler_gap=3)
    cfg = TrainConfig(steps=200, seed=3)
    solver = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
    injected: list[str] = []
    original = markup.inject

    def recording(*args, **kwargs):
        injected.append(original(*args, **kwargs))
        return injected[-1]

    markup.inject = recording
    try:
        result = trainer.train(data, solver, cfg)
    finally:
        markup.inject = original
    g = cfg.group_size
    texts = [injected[i:i + g] for i in range(0, len(injected), g)]
    return {
        "steps": len(result.history),
        "rewards_sha256": _sha256([r["rewards"] for r in result.history]),
        "emphasized_sha256": _sha256(texts),
        "w": result.params.w.tolist(),
        "b": result.params.b,
    }


def test_golden_training_run():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = golden_run()
    assert got["steps"] == expected["steps"]
    assert got["rewards_sha256"] == expected["rewards_sha256"]
    assert got["emphasized_sha256"] == expected["emphasized_sha256"]
    assert np.allclose(got["w"], expected["w"], rtol=1e-12, atol=0.0)
    assert np.allclose(got["b"], expected["b"], rtol=1e-12, atol=0.0)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_run(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
