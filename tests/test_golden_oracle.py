"""Golden fixture for the oracle's reading of emphasized text.

For three 2K-token needles and one ≈16K-token needle mixed with multi-byte
sentences, top-k and random masks at δ ∈ {0, 10} are injected under every
builtin format whose markers do not occur in the source.  The fixture pins
SHA-256 digests of what ``scan_markers`` returns (stripped bytes and
enclosed regions) and of what ``evidence_coverage`` returns (coverage and
the connective flag), on the emphasized text and on the pruned text.

Regenerate the fixture, only on purpose, with:

    PYTHONPATH=src python tests/test_golden_oracle.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from hilite.data import SynthSpec, gen_needle
from hilite.markup import BUILTIN_FORMATS, coalesce, inject, prune, scan_markers
from hilite.policy import (
    ScorerParams,
    build_idf_table,
    feature_parts,
    featurize,
    init_params,
    score,
)
from hilite.selection import Budget, random_mask, topk
from hilite.solver import evidence_coverage
from hilite.tokenization import tokenize

FIXTURE = Path(__file__).parent / "fixtures" / "golden_oracle.json"

MULTIBYTE_SENTENCES = (
    "Die Straße über der Brücke führt nach Süden, sagt Jürgen.",
    "Η γέφυρα ενώνει τις δύο όχθες του ποταμού εδώ και 300 χρόνια.",
    "古い灯台は港の北にあります。船は夜に戻る。",
    "Съешь же ещё этих мягких французских булок, да выпей чаю.",
    "Zażółć gęślą jaźń, szepnął żeglarz przy dogasającym ognisku.",
)

WEIGHTS = [2.0, 1.5, 0.5, -0.3, 0.4, 1.0, 0.2]
GAMMA = 0.15
DELTAS = (0, 10)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, ensure_ascii=False).encode("utf-8")).hexdigest()


def mixed_utf8_needle(target_tokens: int, seed: int, every: int = 10):
    """A needle with a multi-byte sentence spliced in at every ``every``-th
    sentence start; evidence spans are relocated by their byte content."""
    inst = gen_needle(SynthSpec(target_tokens=target_tokens, seed=seed))
    pieces = inst.context.split(". ")
    for i in range(len(pieces) // every, 0, -1):
        pieces.insert(i * every, MULTIBYTE_SENTENCES[i % len(MULTIBYTE_SENTENCES)])
    context = ". ".join(pieces)
    old, new = inst.context.encode("utf-8"), context.encode("utf-8")
    spans = []
    for s, e in inst.evidence_spans:
        start = new.find(old[s:e])
        assert start >= 0
        spans.append((start, start + e - s))
    return inst.query, context, spans


def cases() -> dict[str, tuple[str, str, list[tuple[int, int]]]]:
    """name -> (query, context, evidence byte spans)."""
    out = {}
    for seed in (21, 22, 23):
        inst = gen_needle(SynthSpec(target_tokens=2000, seed=seed))
        out[f"needle-{seed}"] = (inst.query, inst.context, inst.evidence_spans)
    out["utf8-16k"] = mixed_utf8_needle(14000, seed=25)
    return out


def golden_oracle() -> dict:
    data = cases()
    ctxs = {name: tokenize(text) for name, (_, text, _) in data.items()}
    idf = build_idf_table(list(ctxs.values()))
    feats = {name: featurize(query, ctxs[name], idf) for name, (query, _, _) in data.items()}
    base = init_params([feature_parts(query, ctxs[name], idf)
                        for name, (query, _, _) in data.items()])
    params = ScorerParams(
        w=np.asarray(WEIGHTS), b=-0.5, tau=1.0,
        norm_mean=base.norm_mean, norm_var=base.norm_var,
    )
    out = {}
    for name, (_, text, evidence) in data.items():
        ctx = ctxs[name]
        k = Budget.for_omega(GAMMA, len(ctx.omega)).k
        masks = (topk(score(feats[name], params), ctx.omega, k), random_mask(ctx, k, 5))
        formats = [f for f in BUILTIN_FORMATS.values()
                   if f.open not in text and f.close not in text]
        scans, coverages, n_spans = [], [], []
        for mask in masks:
            for delta in DELTAS:
                spans = coalesce(mask, ctx, delta)
                n_spans.append(len(spans))
                pruned = prune(ctx, spans, " ... ")
                for fmt in formats:
                    emphasized = inject(ctx, spans, fmt)
                    stripped, regions = scan_markers(emphasized.encode("utf-8"), fmt)
                    scans.append([hashlib.sha256(stripped).hexdigest(), regions])
                    for given in (emphasized, pruned):
                        coverages.append(list(evidence_coverage(given, ctx.source_bytes, evidence, fmt)))
        out[name] = {
            "formats": [f.name for f in formats],
            "spans_per_mask": n_spans,
            "scan_markers": _sha(scans),
            "evidence_coverage": _sha(coverages),
        }
    return out


def test_golden_oracle():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden_oracle() == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_oracle(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
