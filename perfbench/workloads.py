"""Workload definitions and their inputs.

Every input is made from the workload seed: training needles use generator
seeds ``seed * 100000 + 1000 + i`` and held-out needles
``seed * 100000 + 9000 + i``, so seed 0 reproduces the acceptance test's
convergence run.  The long workload mixes multi-byte UTF-8 sentences into
the generator's ASCII text and shifts the evidence spans by the bytes it
inserts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 100_000
TRAIN_SEED_BASE = 1000
HELDOUT_SEED_BASE = 9000


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_heldout: int
    target_tokens: int  # of the generator's ASCII text, before UTF-8 mixing
    steps: int
    solver: str  # "oracle" or "http"
    utf8_every: int = 0  # insert one UTF-8 sentence per this many sentences
    min_highlight_samples: int = 100
    setup_repeats: int = 3  # set-up is measured this many times; the last one trains


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-2k-oracle", n_train=500, n_heldout=100, target_tokens=2000,
                 steps=2000, solver="oracle", min_highlight_samples=200,
                 setup_repeats=2),
        Workload("long-utf8-oracle", n_train=16, n_heldout=6, target_tokens=14000,
                 steps=150, solver="oracle", utf8_every=10),
        Workload("train-2k-http", n_train=100, n_heldout=50, target_tokens=2000,
                 steps=400, solver="http", min_highlight_samples=200),
    )
}

# Digit-free, so the needle's access code stays unique in the context; no
# "..." either, which the pruned ablation uses as its joiner.
UTF8_SENTENCES = (
    "Über den Brücken der Altstadt hängen leise Nebelschwaden, während die Straßenbahn gähnt.",
    "Der Fährmann zählt die Möwen und grüßt die Bäckerin am Ufer.",
    "Στην άκρη του λιμανιού οι ψαράδες διορθώνουν τα δίχτυα τους κάτω από τον ήλιο.",
    "Ο γέρος φύλακας του φάρου μετράει τα κύματα κάθε βράδυ.",
    "Над рекой медленно поднимается туман, и старый мельник считает мешки с мукой.",
    "Почтальон спешит через площадь, прижимая к груди тяжёлую сумку.",
    "古い灯台の下で、旅人たちは静かに潮の満ち引きを眺めていた。",
    "山の向こうから鐘の音が聞こえ、村の子どもたちは家へ帰った。",
    "Zażółć gęślą jaźń, szepnął żeglarz przy dogasającym ognisku.",
    "La señora Núñez guardó el cuaderno junto a la ventana del desván.",
)

_SENTENCE_START = re.compile(r"\. ")


def mix_utf8(inst, every: int, rng: np.random.Generator, instance_cls):
    """Insert one UTF-8 sentence at about every ``every``-th sentence start.

    Insertions land only at sentence starts, never inside the needle, and
    every evidence span at or after an insertion moves by its byte length.
    """
    context = inst.context
    starts = [m.end() for m in _SENTENCE_START.finditer(context)]
    n_insert = max(1, len(starts) // every)
    chosen = np.sort(rng.choice(len(starts), size=n_insert, replace=False))
    pieces: list[str] = []
    inserted: list[tuple[int, int]] = []  # (byte offset in the original, bytes added)
    prev = 0
    byte_pos = 0
    for idx in chosen:
        cut = starts[int(idx)]
        segment = context[prev:cut]
        pieces.append(segment)
        byte_pos += len(segment.encode("utf-8"))
        sentence = UTF8_SENTENCES[int(rng.integers(len(UTF8_SENTENCES)))] + " "
        pieces.append(sentence)
        inserted.append((byte_pos, len(sentence.encode("utf-8"))))
        prev = cut
    pieces.append(context[prev:])
    mixed = "".join(pieces)

    spans = []
    for start, end in inst.evidence_spans:
        shift = sum(added for pos, added in inserted if pos <= start)
        spans.append((start + shift, end + shift))
    old_bytes = context.encode("utf-8")
    new_bytes = mixed.encode("utf-8")
    for (os_, oe), (ns, ne) in zip(inst.evidence_spans, spans):
        if old_bytes[os_:oe] != new_bytes[ns:ne]:
            raise RuntimeError(f"{inst.id}: evidence span moved off its text")
    return instance_cls(id=inst.id, query=inst.query, context=mixed,
                        gold=inst.gold, evidence_spans=spans)


def make_instances(data, wl: Workload, seed: int, instance_cls, between=None):
    """(training split, held-out split) for workload ``wl`` at ``seed``.

    ``data`` is hilite's data module, looked up at call time so that a
    traced run sees its wrapped generator.  ``between()``, when given, is
    called after each instance.
    """
    base = seed * SEED_STRIDE

    def split(first_seed: int, n: int):
        out = []
        for i in range(n):
            spec = data.SynthSpec(target_tokens=wl.target_tokens, seed=first_seed + i)
            inst = data.gen_needle(spec)
            if wl.utf8_every:
                rng = np.random.default_rng((first_seed + i, 8))
                inst = mix_utf8(inst, wl.utf8_every, rng, instance_cls)
            out.append(inst)
            if between is not None:
                between()
        return out

    return (split(base + TRAIN_SEED_BASE, wl.n_train),
            split(base + HELDOUT_SEED_BASE, wl.n_heldout))
