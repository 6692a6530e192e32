"""Golden fixture for evaluation reports.

Parameters come from a short fixed-seed oracle training run.  On the three
2K-token needles of ``test_golden_substrate.py`` and one ≈16K-token needle
mixed with multi-byte sentences, ``evaluate`` runs once per variant and
once more with ``mask_sampler=softmax_wor``, all on the same instance list.
The fixture pins a SHA-256 of each report, serialized with sorted keys.

Regenerate the fixture, only on purpose, with:

    PYTHONPATH=src python tests/test_golden_eval.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from test_golden_oracle import mixed_utf8_needle

from hilite import trainer
from hilite.data import Instance, SynthSpec, gen_dataset, gen_needle
from hilite.selection import SamplerKind
from hilite.solver import OracleSolver, OracleSolverConfig

FIXTURE = Path(__file__).parent / "fixtures" / "golden_eval.json"


def held_out() -> list[Instance]:
    out = [gen_needle(SynthSpec(target_tokens=2000, seed=seed)) for seed in (21, 22, 23)]
    query, context, spans = mixed_utf8_needle(14000, seed=25)
    gold = gen_needle(SynthSpec(target_tokens=14000, seed=25)).gold
    out.append(Instance(id="utf8-16k", query=query, context=context, gold=gold,
                        evidence_spans=spans))
    return out


def golden_eval() -> dict:
    """run name -> digest of its report."""
    data = gen_dataset(8, target_tokens=300, seed=40, n_clusters=2, cluster_size=3)
    cfg = trainer.TrainConfig(steps=40, seed=9, learning_rate=0.05)
    solver = OracleSolver(OracleSolverConfig())
    result = trainer.train(data, solver, cfg)
    dataset = held_out()
    runs = {variant: dict(variant=variant) for variant in trainer.VARIANTS}
    runs["hilite-softmax_wor"] = dict(mask_sampler=SamplerKind.SOFTMAX_WOR)
    out = {}
    for name, kwargs in runs.items():
        report = trainer.evaluate(dataset, result.params, solver, cfg, result.idf_table,
                                  **kwargs)
        out[name] = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode("utf-8")
        ).hexdigest()
    return out


def test_golden_eval():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden_eval() == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_eval(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
