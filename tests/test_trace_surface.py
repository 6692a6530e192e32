"""The traced benchmark's contract with the package.

``perfbench/run.py --trace 1`` wraps hilite functions by name and divides
span totals by their call counts.  A refactor that stops calling one of
them (or stops looking it up where the benchmark wraps it) would make the
traced run fail with a missing name or a division by zero; here it fails
the test suite instead.  The benchmark's own files are only imported.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import hilite
from hilite.data import gen_dataset
from hilite.markup import get_format
from hilite.solver import OracleSolver, OracleSolverConfig
from hilite.trainer import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# spans the benchmark's layer_metrics reads per call or in total, and the
# counters it divides by: a missing one is a division by zero there
DIVIDED_SPANS = (
    "tokenization.tokenize",
    "policy.featurize",
    "policy.score",
    "policy.log_prob",
    "selection.sample_mask",
    "selection.topk",
    "markup.coalesce",
    "markup.inject",
    "solver.parse_output",
    "rewards.composite",
    "data.gen_needle",
    "data.evidence_overlap",
)
DIVIDED_COUNTERS = ("tokens", "feature_rows", "drawn", "groups")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracing

    return run, tracing


def test_traced_work_records_every_span_the_benchmark_divides_by(bench):
    run, tracing = bench
    tracer = tracing.Tracer()
    try:
        run.install_tracing(tracer, hilite)
        data = gen_dataset(3, target_tokens=150, seed=4, n_clusters=2,
                           cluster_size=3, filler_gap=2)
        cfg = TrainConfig(steps=3, seed=0)
        solver = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
        with tracer.span("bench.train"):
            result = hilite.trainer.train(data, solver, cfg)
        for variant in run.VARIANTS:
            hilite.trainer.evaluate(data, result.params, solver, cfg, result.idf_table,
                                    variant=variant)
        text, n_selected = run.highlight(hilite, data[0].context, data[0].query,
                                         result.params, cfg, result.idf_table,
                                         get_format(cfg.marker_format))
    finally:
        tracer.unwrap_all()
    assert text != data[0].context and n_selected > 0
    recorded = set(tracer.names)
    assert [name for name in DIVIDED_SPANS if name not in recorded] == []
    for name in ("trainer.rollout_group", "trainer.grad_step"):
        assert len(tracer.durations(name, "bench.train")) == cfg.steps
    assert [c for c in DIVIDED_COUNTERS if not tracer.counters[c]] == []
    assert not hasattr(hilite.trainer.train, "__wrapped__")  # unwrapped again
