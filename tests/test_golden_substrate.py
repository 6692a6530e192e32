"""Golden fixture for the token substrate.

Tokens, features, top-k and random masks (over every token and over a
restricted index set), gold token indices, coalesced spans, emphasized and pruned texts, and the checkpoint
file of a short fixed-seed training run must stay byte-identical.  Inputs:
three 2K-token needles, one needle with multi-byte sentences (German,
Greek, Japanese, emoji) spliced in, and a handful of edge strings.  The
fixture stores SHA-256 digests only.

Regenerate the fixture, only on purpose, with:

    PYTHONPATH=src python tests/test_golden_substrate.py
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gold_token_indices
from hilite import trainer
from hilite.data import SynthSpec, gen_dataset, gen_needle
from hilite.markup import DEFAULT_FORMAT, coalesce, inject, prune
from hilite.policy import (
    ScorerParams,
    build_idf_table,
    feature_parts,
    featurize,
    init_params,
    score,
)
from hilite.selection import Budget, random_mask, topk
from hilite.solver import OracleSolver, OracleSolverConfig
from hilite.tokenization import tokenize, tokens_touching

FIXTURE = Path(__file__).parent / "fixtures" / "golden_substrate.json"

MULTIBYTE_SENTENCES = (
    "Die Straße über der Brücke führt nach Süden, sagt Jürgen.",
    "Η γέφυρα ενώνει τις δύο όχθες του ποταμού εδώ και 300 χρόνια.",
    "古い灯台は港の北にあります。船は夜に戻る。",
    "Emoji 🚀🌍 und 👩‍🔬 neben ✨ und 🏳️‍🌈, dann Schluss.",
)

EDGE_STRINGS = (
    "",
    " \t\n  　 ",
    "Straße STRASSE ß",
    "İstanbul ΣΑΣ σας",
    "0123 4567 ٣٤٥ ²³ 12a b34",
    "...?",
)
EDGE_QUERY = "strasse İstanbul σας 4567 ?"

WEIGHTS = [2.0, 1.5, 0.5, -0.3, 0.4, 1.0, 0.2]
GAMMAS = (0.05, 0.15, 0.3)
DELTAS = (0, 3, 10)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, ensure_ascii=False).encode("utf-8")).hexdigest()


def _sha_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _multibyte_needle():
    """A needle with fixed multi-byte sentences spliced between its own
    sentences; evidence spans are relocated by their byte content."""
    inst = gen_needle(SynthSpec(target_tokens=2000, seed=24))
    pieces = inst.context.split(". ")
    for i, sentence in enumerate(MULTIBYTE_SENTENCES):
        pieces.insert((i + 1) * len(pieces) // (len(MULTIBYTE_SENTENCES) + 1), sentence)
    context = ". ".join(pieces)
    old, new = inst.context.encode("utf-8"), context.encode("utf-8")
    spans = []
    for s, e in inst.evidence_spans:
        start = new.find(old[s:e])
        spans.append((start, start + e - s))
    return inst.query, context, spans


def cases() -> dict[str, tuple[str, str, list[tuple[int, int]]]]:
    """name -> (query, context, evidence byte spans)."""
    out = {}
    for seed in (21, 22, 23):
        inst = gen_needle(SynthSpec(target_tokens=2000, seed=seed))
        out[f"needle-{seed}"] = (inst.query, inst.context, inst.evidence_spans)
    out["needle-multibyte"] = _multibyte_needle()
    for i, text in enumerate(EDGE_STRINGS):
        n = len(text.encode("utf-8"))
        out[f"edge-{i}"] = (EDGE_QUERY, text, [(n // 3, n)] if n else [])
    return out


def _checkpoint_sha() -> str:
    """Digest of the checkpoint file a short fixed-seed oracle run writes."""
    data = gen_dataset(8, target_tokens=300, seed=40, n_clusters=2, cluster_size=3)
    cfg = trainer.TrainConfig(steps=40, seed=9)
    result = trainer.train(data, OracleSolver(OracleSolverConfig()), cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        trainer.save_checkpoint(path, result.params, result.opt, cfg, result.idf_table)
        return _sha_bytes(path.read_bytes())


def golden_substrate() -> dict:
    """Digest everything the substrate produces for each case."""
    data = cases()
    needles = {
        f"needle-{seed}": gen_needle(SynthSpec(target_tokens=2000, seed=seed)).to_record()
        for seed in (21, 22, 23, 24)
    }
    ctxs = {name: tokenize(text) for name, (_, text, _) in data.items()}
    idf = build_idf_table(list(ctxs.values()))
    feats = {
        name: featurize(query, ctxs[name], idf) for name, (query, _, _) in data.items()
    }
    base = init_params([feature_parts(query, ctxs[name], idf)
                        for name, (query, _, _) in data.items()])
    params = ScorerParams(
        w=np.asarray(WEIGHTS), b=-0.5, tau=1.0,
        norm_mean=base.norm_mean, norm_var=base.norm_var,
    )
    out = {
        "instances": _sha(needles),
        "idf_table": _sha(idf),
        "norm": _sha_bytes(params.norm_mean.tobytes() + params.norm_var.tobytes()),
        "checkpoint": _checkpoint_sha(),
        "cases": {},
    }
    for name, (_, text, evidence) in data.items():
        ctx = ctxs[name]
        matrix = feats[name]
        assert matrix.dtype == np.float64
        n_bytes = len(text.encode("utf-8"))
        excluded = ([(0, n_bytes // 4), (n_bytes // 2, n_bytes // 2 + 40)]
                    if n_bytes > 40 else [(0, n_bytes // 2)])
        # a restricted index set: the tokens that touch no excluded byte range
        restricted = np.flatnonzero(~tokens_touching(ctx, excluded))
        scores = score(feats[name], params)
        record = {
            "tokens": _sha([(t.text, t.char_start, t.char_end) for t in ctx.tokens]),
            "features": _sha_bytes(matrix.tobytes()),
            "restricted_omega": _sha([int(i) for i in restricted]),
            "gold_tokens": _sha(sorted(gold_token_indices(ctx, evidence))),
        }
        masks, spans, emphasized, pruned = [], [], [], []
        for gamma in GAMMAS:
            for idx in (ctx.omega, restricted):
                k = Budget.for_omega(gamma, idx.size).k
                if idx.size == len(ctx):
                    drawn = random_mask(ctx, k, 5)
                else:  # random_mask's draw, over the restricted index set
                    drawn = np.zeros(len(ctx), dtype=np.uint8)
                    drawn[np.random.default_rng(5).choice(idx, size=k, replace=False)] = 1
                for mask in (topk(scores, idx, k), drawn):
                    masks.append(mask.tobytes().hex())
                    for delta in DELTAS:
                        sp = coalesce(mask, ctx, delta)
                        spans.append([[f, l, int(ctx.starts[f]), int(ctx.ends[l])]
                                      for f, l in sp.tolist()])
                        emphasized.append(inject(ctx, sp, DEFAULT_FORMAT))
                        pruned.append(prune(ctx, sp, " ... "))
        record["masks"] = _sha(masks)
        record["spans"] = _sha(spans)
        record["emphasized"] = _sha(emphasized)
        record["pruned"] = _sha(pruned)
        out["cases"][name] = record
    return out


def test_golden_substrate():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = golden_substrate()
    assert got == expected


# The tokenizer rule and the per-character byte-offset loop it was first
# written with, kept as the reference for the array implementation.
_REFERENCE_RULE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def reference_tokenize(text: str) -> list[tuple[str, int, int]]:
    byte_at = [0] * (len(text) + 1)
    pos = 0
    for i, ch in enumerate(text):
        pos += len(ch.encode("utf-8"))
        byte_at[i + 1] = pos
    return [(m.group(0), byte_at[m.start()], byte_at[m.end()])
            for m in _REFERENCE_RULE.finditer(text)]


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300))
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_per_character_reference(text):
    ctx = tokenize(text)
    assert ctx.starts.dtype == ctx.ends.dtype == np.int32 and ctx.omega.dtype == np.int64
    texts = [ctx.vocab[i] for i in ctx.text_ids]
    got = list(zip(texts, ctx.starts.tolist(), ctx.ends.tolist()))
    assert got == reference_tokenize(text)
    assert ctx.omega.tolist() == list(range(len(got)))


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_substrate(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
