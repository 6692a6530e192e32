"""Golden fixture for budgeted mask drawing.

The masks that ``sample_mask`` draws for every sampler kind, and the
masks ``random_mask`` draws, must stay byte-identical for fixed seeds.
Inputs: the three 2K-token needles of ``test_golden_substrate.py``, scored
with its fixed weights, at three budgets and three ``rng_stream`` seeds.
The fixture stores SHA-256 digests only.

Regenerate the fixture, only on purpose, with:

    PYTHONPATH=src python tests/test_golden_sampler.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from hilite import (
    Budget,
    SamplerKind,
    SynthSpec,
    build_idf_table,
    featurize,
    gen_needle,
    init_params,
    random_mask,
    rng_stream,
    sample_mask,
    score,
    tokenize,
)
from hilite.policy import ScorerParams

FIXTURE = Path(__file__).parent / "fixtures" / "golden_sampler.json"

NEEDLE_SEEDS = (21, 22, 23)
WEIGHTS = [2.0, 1.5, 0.5, -0.3, 0.4, 1.0, 0.2]
GAMMAS = (0.05, 0.15, 0.3)
DRAW_SEEDS = (0, 1, 2)


def _sha(hexes: list[str]) -> str:
    return hashlib.sha256(json.dumps(hexes).encode("utf-8")).hexdigest()


def golden_sampler() -> dict:
    """name -> kind -> digest of every mask drawn for that needle."""
    needles = {
        f"needle-{seed}": gen_needle(SynthSpec(target_tokens=2000, seed=seed))
        for seed in NEEDLE_SEEDS
    }
    ctxs = {name: tokenize(inst.context) for name, inst in needles.items()}
    idf = build_idf_table(list(ctxs.values()))
    feats = {name: featurize(inst.query, ctxs[name], idf) for name, inst in needles.items()}
    base = init_params(np.vstack(list(feats.values())))
    params = ScorerParams(
        w=np.asarray(WEIGHTS), b=-0.5, tau=1.0,
        norm_mean=base.norm_mean, norm_var=base.norm_var,
    )
    out: dict[str, dict[str, str]] = {}
    for name, ctx in ctxs.items():
        probs = score(feats[name], params)
        drawn: dict[str, list[str]] = {kind.value: [] for kind in SamplerKind}
        drawn["random"] = []
        for gamma in GAMMAS:
            k = Budget.for_omega(gamma, len(ctx)).k
            for seed in DRAW_SEEDS:
                for kind in SamplerKind:
                    prelim, proj = sample_mask(probs, k, kind, rng_stream(seed, name, 0, 0))
                    drawn[kind.value] += [prelim.tobytes().hex(), proj.tobytes().hex()]
                mask = random_mask(ctx, k, rng_stream(seed, f"eval-random-{name}"))
                drawn["random"].append(mask.tobytes().hex())
        out[name] = {kind: _sha(hexes) for kind, hexes in drawn.items()}
    return out


def test_golden_sampler():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden_sampler() == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_sampler(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
