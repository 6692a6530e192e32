import csv
import gc
import hashlib
import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_instance, write_checkpoint
from hilite import policy
from hilite.cli import main
from hilite.data import SynthSpec, gen_dataset, gen_needle, load_jsonl, save_jsonl
from hilite.markup import DEFAULT_FORMAT, scan_markers
from hilite.policy import FEATURE_DIM, ScorerParams, build_idf_table, featurize, init_params
from hilite.solver import ANSWER_TAG, OracleSolver, OracleSolverConfig, SolverOutput
from hilite.tokenization import tokenize
from hilite.trainer import (
    VARIANTS,
    OptimizerState,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)
from test_golden_oracle import WEIGHTS, mixed_utf8_needle


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def oracle_run(tmp_path, runner):
    """A small oracle dataset plus a trained checkpoint."""
    data = gen_dataset(4, target_tokens=150, seed=0, n_clusters=2,
                       cluster_size=3, filler_gap=2)
    dataset_path = tmp_path / "train.jsonl"
    save_jsonl(data, dataset_path)
    out_dir = tmp_path / "run"
    result = runner.invoke(main, [
        "train", "--dataset", str(dataset_path), "--out", str(out_dir),
        "--steps", "5", "--seed", "1",
    ])
    assert result.exit_code == 0, result.output
    return dataset_path, out_dir / "checkpoint.json", tmp_path


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_missing_dataset_path_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["train", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "dataset" in result.output


def test_train_nonexistent_dataset_exits_4(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path),
    ])
    assert result.exit_code == 4


def test_train_malformed_dataset_line_exits_4(runner, tmp_path):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text('{"id": "a", "query": "q", "context": 5, "gold": "g"}\n')
    result = runner.invoke(main, ["train", "--dataset", str(dataset), "--out", str(tmp_path)])
    assert result.exit_code == 4
    assert "bad.jsonl:1" in result.output


def test_train_writes_checkpoint_and_log(oracle_run):
    _, checkpoint, _ = oracle_run
    assert checkpoint.exists()
    metrics = checkpoint.parent / "metrics.jsonl"
    assert len(metrics.read_text().strip().splitlines()) == 5


def test_train_seed_repetition_identical_log(runner, tmp_path):
    data = gen_dataset(3, target_tokens=120, seed=0, n_clusters=2,
                       cluster_size=3, filler_gap=2)
    dataset_path = tmp_path / "d.jsonl"
    save_jsonl(data, dataset_path)
    logs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = runner.invoke(main, [
            "train", "--dataset", str(dataset_path), "--out", str(out),
            "--steps", "4", "--seed", "9",
        ])
        assert result.exit_code == 0, result.output
        logs.append((out / "metrics.jsonl").read_text())
    assert logs[0] == logs[1]


def test_train_bad_config_file_exits_2(runner, tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("not json")
    result = runner.invoke(main, ["train", "--config", str(bad)])
    assert result.exit_code == 2


# case id -> (config file, what the error names: the key, or the bad term)
BAD_CONFIG_VALUES = {
    "reward-weight": ({"reward_terms": "em:x"}, "'em:x'"),
    "reward-weight-nan": ({"reward_terms": "em:nan"}, "'em'"),
    "reward-weight-inf": ({"reward_terms": "em:inf"}, "'em'"),
    "reward-k": ({"reward_k": "ten"}, "reward_k"),
    "threshold-text": ({"coverage_threshold": "abc"}, "coverage_threshold"),
    "threshold-range": ({"coverage_threshold": 2}, "coverage_threshold"),
    "http-timeout": ({"solver": "http", "endpoint": "http://127.0.0.1:9/", "timeout": "x"},
                     "timeout"),
    "connective-text": ({"require_connective": "false"}, "require_connective"),
    "steps-fraction": ({"steps": 2.5}, "steps"),
    "group-size-fraction": ({"group_size": 2.5}, "group_size"),
    "seed-text": ({"seed": "x"}, "seed"),
    "steps-bool": ({"steps": True}, "steps"),
    "delta-fraction": ({"delta": 2.5}, "delta"),
    "retries-fraction": ({"max_retries": 2.7}, "max_retries"),
    "reward-k-fraction": ({"reward_k": 2.9}, "reward_k"),
    "timeout-numeric-text": ({"timeout": "30"}, "timeout"),
    "gamma-range": ({"gamma": 7}, "gamma"),
    "gamma-too-large-for-a-float": ({"gamma": 10**400}, "gamma"),
    "http-timeout-nan": ({"solver": "http", "endpoint": "http://127.0.0.1:9/",
                          "timeout": float("nan")}, "timeout"),
    "tau-zero": ({"tau": 0.0}, "tau"),
    "marker-format-unknown": ({"marker_format": "bogus"}, "marker_format"),
    "idf-ceiling-negative": ({"idf_ceiling": -1.0}, "idf_ceiling"),
    "failure-budget-negative": ({"solver_failure_budget": -1}, "solver_failure_budget"),
    "template-unknown-under-oracle": ({"solver": "oracle", "template": "bogus"}, "template"),
    "endpoint-not-a-url-under-oracle": ({"solver": "oracle", "endpoint": "nope"}, "endpoint"),
    "threshold-range-under-http": ({"solver": "http", "endpoint": "http://127.0.0.1:9/x",
                                    "coverage_threshold": 5}, "coverage_threshold"),
    "http-timeout-negative": ({"solver": "http", "endpoint": "http://127.0.0.1:9/",
                               "timeout": -1}, "timeout"),
    "http-timeout-zero": ({"solver": "http", "endpoint": "http://127.0.0.1:9/",
                           "timeout": 0}, "timeout"),
    "http-retries-zero": ({"solver": "http", "endpoint": "http://127.0.0.1:9/",
                           "max_retries": 0}, "max_retries"),
    "reward-hr-under-oracle": ({"reward_terms": "hr:1"}, "'hr'"),
    "reward-k-negative": ({"reward_k": -3}, "reward_k"),
    "reward-k-zero": ({"reward_k": 0}, "reward_k"),
    "http-max-tokens-zero": ({"solver": "http", "endpoint": "http://127.0.0.1:9/",
                              "max_tokens": 0}, "max_tokens"),
    "http-temperature-negative": ({"solver": "http", "endpoint": "http://127.0.0.1:9/",
                                   "temperature": -2}, "temperature"),
}


# the train cases keep the bare case id
@pytest.mark.parametrize("command,case", [
    pytest.param(command, case, id=case if command == "train" else f"{case}-{command}")
    for command in ("train", "eval", "sweep") for case in BAD_CONFIG_VALUES
])
def test_train_bad_config_value_exits_2(runner, oracle_run, command, case):
    dataset, checkpoint, tmp_path = oracle_run
    options, named = BAD_CONFIG_VALUES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options))
    result = runner.invoke(main, [*command_args(command, dataset, checkpoint, tmp_path),
                                  "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # reported, not a traceback
    assert result.output.startswith("error: ")
    assert named in result.output
    assert not (tmp_path / "run2").exists() and not (tmp_path / "s.csv").exists()


def command_args(command, dataset, checkpoint, tmp_path):
    if command == "train":
        return ["train", "--dataset", str(dataset), "--out", str(tmp_path / "run2")]
    args = [command, "--checkpoint", str(checkpoint), "--dataset", str(dataset)]
    if command == "sweep":
        args += ["--axis", "budget", "--grid", "0.1", "--out", str(tmp_path / "s.csv")]
    return args


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_help_says_checkpoint_training_values_are_used(runner, command):
    result = runner.invoke(main, [command, "--help"], terminal_width=200)
    assert result.exit_code == 0
    assert ("training keys, solver_failure_budget included, are checked, but the "
            "checkpoint's values are used") in result.output


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
@pytest.mark.parametrize("key", ["stpes", "adam_beta1"])
def test_unknown_config_key_exits_2_and_names_it(runner, oracle_run, command, key):
    dataset, checkpoint, tmp_path = oracle_run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 1, key: 1}))
    result = runner.invoke(main, [*command_args(command, dataset, checkpoint, tmp_path),
                                  "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert f"unknown config key {key!r}" in result.output
    assert not (tmp_path / "run2").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_one_config_file_serves_train_eval_and_sweep(runner, oracle_run, command):
    dataset, checkpoint, tmp_path = oracle_run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": str(dataset), "output_dir": str(tmp_path / "run2"), "steps": 2,
        "seed": 4, "gamma": 0.2, "solver": "oracle", "coverage_threshold": 0.7,
        "require_connective": False, "template": "qa", "reward_terms": "em:0.5,f1:0.5",
        "reward_k": 5, "timeout": 1.0, "max_retries": 1, "max_tokens": 16,
        "temperature": 0.0, "auth_token": "", "endpoint": "http://127.0.0.1:9/",
    }))
    result = runner.invoke(main, [*command_args(command, dataset, checkpoint, tmp_path),
                                  "--config", str(cfg)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_http_solver_is_closed_when_the_command_returns(runner, oracle_run,
                                                        keepalive_server, command):
    dataset, checkpoint, tmp_path = oracle_run
    url, server = keepalive_server
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "http", "endpoint": url, "steps": 2}))
    args = command_args(command, dataset, checkpoint, tmp_path)
    if command == "sweep":
        args[args.index("--grid") + 1] = "0.1,0.2,0.3"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        gc.collect()
    assert result.exit_code == 0, result.output
    assert server.requests > 0
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_unreachable_solver_exits_3(runner, tmp_path):
    data = gen_dataset(2, target_tokens=120, seed=0, n_clusters=2,
                       cluster_size=3, filler_gap=2)
    dataset_path = tmp_path / "d.jsonl"
    save_jsonl(data, dataset_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "solver": "http",
        "endpoint": "http://127.0.0.1:9/",  # discard port: connection refused
        "max_retries": 1,
        "timeout": 0.2,
        "solver_failure_budget": 0,
    }))
    result = runner.invoke(main, [
        "train", "--config", str(cfg), "--dataset", str(dataset_path),
        "--out", str(tmp_path / "run"), "--steps", "2",
    ])
    assert result.exit_code == 3


def failing_endpoint_config(tmp_path, scripted_server, n_requests):
    """A config file whose http solver gets 503 on every request, one
    attempt each."""
    url, handler = scripted_server
    handler.script.extend([(503, {"err": "unavailable"})] * n_requests)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "http", "endpoint": url, "max_retries": 1,
                               "timeout": 5.0}))
    return cfg


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_solver_failures_over_the_budget_exit_3(runner, oracle_run, scripted_server, command):
    _, checkpoint, tmp_path = oracle_run
    # more instances than the checkpoint's solver_failure_budget (10)
    dataset = tmp_path / "many.jsonl"
    save_jsonl(gen_dataset(12, target_tokens=150, seed=3, n_clusters=2, cluster_size=3,
                           filler_gap=2), dataset)
    cfg = failing_endpoint_config(tmp_path, scripted_server, 12)
    report = tmp_path / "report.json"
    args = command_args(command, dataset, checkpoint, tmp_path)
    if command == "eval":
        args += ["--out", str(report)]
    result = runner.invoke(main, [*args, "--config", str(cfg)])
    assert result.exit_code == 3, result.output
    assert "11 solver failures" in result.output
    assert not report.exists() and not (tmp_path / "s.csv").exists()
    assert len(scripted_server[1].requests_seen) == 11


def test_eval_within_the_failure_budget_writes_the_flagged_report(runner, oracle_run,
                                                                   scripted_server):
    dataset, checkpoint, tmp_path = oracle_run
    cfg = failing_endpoint_config(tmp_path, scripted_server, 4)
    report_path = tmp_path / "report.json"
    result = runner.invoke(main, [*command_args("eval", dataset, checkpoint, tmp_path),
                                  "--config", str(cfg), "--out", str(report_path)])
    assert result.exit_code == 0, result.output
    row = json.loads(report_path.read_text())["variants"]["hilite"]
    assert row["n"] == 4 and row["flagged"] == 4 and row["mean_reward"] == 0.0


# ---------------------------------------------------------------------------
# highlight
# ---------------------------------------------------------------------------


class RecordingSolver:
    """Records every emphasized context it is sent."""

    output_contract = ANSWER_TAG

    def __init__(self):
        self.sent = []

    def solve(self, query, emphasized_context, instance=None):
        self.sent.append(emphasized_context)
        return SolverOutput("<answer>x</answer>")


def test_evaluate_sends_the_text_hilite_highlight_prints(runner, oracle_run):
    dataset_path, checkpoint, _ = oracle_run
    source = json.loads(dataset_path.read_text().splitlines()[0])
    text = "Straße ΣΑΣ 日本語. " + source["context"]  # byte and char offsets differ
    params, _, cfg, idf_table = load_checkpoint(checkpoint)
    solver = RecordingSolver()
    evaluate([make_instance(context=text, query=source["query"])], params, solver, cfg,
             idf_table, variant="hilite")
    result = runner.invoke(main, ["highlight", "--checkpoint", str(checkpoint),
                                  "--text", text, "--query", source["query"]])
    assert result.exit_code == 0, result.output
    assert solver.sent == [result.output.removesuffix("\n")]
    assert solver.sent[0] != text


def test_highlight_gamma_zero_still_checks_delta(runner, oracle_run):
    _, checkpoint, _ = oracle_run
    result = runner.invoke(main, ["highlight", "--checkpoint", str(checkpoint),
                                  "--text", "alpha beta", "--gamma", "0", "--delta", "-1"])
    assert result.exit_code == 2, result.output
    assert "delta must be >= 0" in result.output


def test_highlight_gamma_zero_is_identity(runner, oracle_run):
    _, checkpoint, _ = oracle_run
    text = "some plain text with several words"
    result = runner.invoke(main, [
        "highlight", "--checkpoint", str(checkpoint), "--text", text,
        "--gamma", "0",
    ])
    assert result.exit_code == 0, result.output
    assert result.output.rstrip("\n") == text


@pytest.mark.parametrize("gamma", ["-1", "-0.5"])
def test_highlight_negative_gamma_exits_2(runner, oracle_run, gamma):
    _, checkpoint, _ = oracle_run
    result = runner.invoke(main, [
        "highlight", "--checkpoint", str(checkpoint), "--text", "alpha beta gamma",
        "--gamma", gamma,
    ])
    assert result.exit_code == 2, result.output
    assert "gamma must lie in (0, 1]" in result.output


def test_highlight_html_b_format(runner, oracle_run):
    _, checkpoint, _ = oracle_run
    result = runner.invoke(main, [
        "highlight", "--checkpoint", str(checkpoint),
        "--text", "alpha beta gamma delta", "--gamma", "0.25",
        "--format", "html-b",
    ])
    assert result.exit_code == 0, result.output
    assert "<b>" in result.output and "</b>" in result.output


def test_highlight_deterministic(runner, oracle_run):
    _, checkpoint, _ = oracle_run
    args = ["highlight", "--checkpoint", str(checkpoint),
            "--text", "one two three four five six", "--gamma", "0.4"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_highlight_spans_json(runner, oracle_run):
    _, checkpoint, _ = oracle_run
    result = runner.invoke(main, [
        "highlight", "--checkpoint", str(checkpoint),
        "--text", "one two three four", "--gamma", "0.5", "--spans",
    ])
    assert result.exit_code == 0
    last_line = result.output.strip().splitlines()[-1]
    spans = json.loads(last_line)["spans"]
    assert all(len(s) == 2 and s[0] < s[1] for s in spans)


def test_highlight_spans_json_are_the_marked_byte_ranges(runner, oracle_run):
    dataset_path, checkpoint, _ = oracle_run
    # multi-byte text first, so byte and character offsets of every span differ
    text = "Straße ΣΑΣ. " + json.loads(dataset_path.read_text().splitlines()[0])["context"]
    result = runner.invoke(main, [
        "highlight", "--checkpoint", str(checkpoint), "--text", text,
        "--gamma", "0.2", "--delta", "1", "--spans",
    ])
    assert result.exit_code == 0, result.output
    emphasized, spans_line = result.output.rstrip("\n").rsplit("\n", 1)
    stripped, regions = scan_markers(emphasized.encode("utf-8"), DEFAULT_FORMAT)
    assert stripped.decode("utf-8") == text
    assert len(regions) > 1
    assert json.loads(spans_line) == {"spans": [list(r) for r in regions]}


# SHA-256 of ``hilite highlight --spans`` stdout on each case of
# highlight_cases(), under the checkpoint of highlight_checkpoint()
HIGHLIGHT_STDOUT_SHA256 = {
    "needle-2k": "4f07d9626adaf1c4e663eaa4990a065057cd4c90696b4042a6a0b11f9e4e01bd",
    "utf8-16k": "38293be20a86dddca11cc3c2c7c2c448c61affe24e3c15d027cd1335f526dd34",
}


def highlight_cases() -> dict[str, tuple[str, str]]:
    """name -> (query, context): a 2K-token needle, and a 16K-token needle
    mixed with multi-byte sentences."""
    needle = gen_needle(SynthSpec(target_tokens=2000, seed=21))
    query, context, _ = mixed_utf8_needle(14000, seed=25)
    return {"needle-2k": (needle.query, needle.context), "utf8-16k": (query, context)}


def highlight_checkpoint(path, cases) -> None:
    """A checkpoint whose idf table and standardization statistics come
    from ``cases``, with fixed weights that read every feature."""
    ctxs = [tokenize(context) for _, context in cases.values()]
    idf_table = build_idf_table(ctxs)
    base = init_params([featurize(query, ctx, idf_table)
                        for (query, _), ctx in zip(cases.values(), ctxs)])
    params = ScorerParams(w=np.asarray(WEIGHTS), b=-0.5, tau=1.0,
                          norm_mean=base.norm_mean, norm_var=base.norm_var)
    save_checkpoint(path, params, OptimizerState.zeros(FEATURE_DIM), TrainConfig(), idf_table)


def test_highlight_spans_stdout_matches_the_recorded_digests(runner, tmp_path):
    cases = highlight_cases()
    checkpoint = tmp_path / "checkpoint.json"
    highlight_checkpoint(checkpoint, cases)
    got = {}
    for name, (query, context) in cases.items():
        source = tmp_path / f"{name}.txt"
        source.write_text(context, encoding="utf-8")
        result = runner.invoke(main, ["highlight", "--checkpoint", str(checkpoint),
                                      "--input", str(source), "--query", query, "--spans"])
        assert result.exit_code == 0, result.output
        got[name] = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert got == HIGHLIGHT_STDOUT_SHA256


def test_inference_standardizes_no_more_rows_than_the_vocabulary_has(
    runner, oracle_run, monkeypatch
):
    # standardizing once per vocabulary entry, as training does, never
    # reads more rows than the context has distinct token texts
    dataset_path, checkpoint, _ = oracle_run
    sizes = []
    standardize = policy.standardize

    def recording(feats, params, *args, **kwargs):
        sizes.append(len(feats))
        return standardize(feats, params, *args, **kwargs)

    monkeypatch.setattr(policy, "standardize", recording)
    data = load_jsonl(dataset_path)
    params, _, cfg, idf_table = load_checkpoint(checkpoint)
    vocab_sizes = [len(inst.tokens.vocab) for inst in data]
    assert all(len(inst.tokens) > size for inst, size in zip(data, vocab_sizes))
    for variant in VARIANTS:
        sizes.clear()
        evaluate(data, params, OracleSolver(OracleSolverConfig()), cfg, idf_table,
                 variant=variant)
        assert len(sizes) == len(data)
        assert all(got <= size for got, size in zip(sizes, vocab_sizes)), (variant, sizes)

    text = "the cat and the dog and the bird. The cat saw the dog, and the bird saw the cat."
    sizes.clear()
    result = runner.invoke(main, ["highlight", "--checkpoint", str(checkpoint),
                                  "--text", text, "--query", "the cat"])
    assert result.exit_code == 0, result.output
    assert sizes and max(sizes) <= len(tokenize(text).vocab) < len(tokenize(text))


@pytest.mark.parametrize("case", ["empty", "idf-null", "norm-mean-short", "idf-ceiling-nan",
                                  "gamma-true", "config-list", "config-string",
                                  "config-null"])
def test_highlight_corrupt_checkpoint_exits_4(runner, tmp_path, case):
    bad = tmp_path / "bad.json"
    if case == "empty":
        bad.write_text("{}")
    else:
        write_checkpoint(bad, corrupt=case)
    result = runner.invoke(main, [
        "highlight", "--checkpoint", str(bad), "--text", "x",
    ])
    assert result.exit_code == 4


# reader -> (the command line that reads the file at {bad}, its exit code)
FILE_READERS = {
    "dataset": (["eval", "--checkpoint", "{checkpoint}", "--dataset", "{bad}"], 4),
    "config": (["eval", "--checkpoint", "{checkpoint}", "--dataset", "{dataset}",
                "--config", "{bad}"], 2),
    "input": (["highlight", "--checkpoint", "{checkpoint}", "--input", "{bad}"], 4),
    "checkpoint": (["highlight", "--checkpoint", "{bad}", "--text", "alpha beta"], 4),
}


# no directory case for the checkpoint: load_checkpoint already maps OSError
@pytest.mark.parametrize("reader,fault", [
    *((reader, fault) for reader in ("dataset", "config", "input")
      for fault in ("directory", "non-utf8")),
    ("checkpoint", "non-utf8"),
])
def test_unreadable_file_exits_with_the_readers_error_naming_it(runner, tmp_path, reader,
                                                                fault):
    sound = {name: tmp_path / f"{name}.txt" for name in FILE_READERS}
    write_checkpoint(sound["checkpoint"])
    save_jsonl([make_instance()], sound["dataset"])
    sound["config"].write_text('{"seed": 1}')
    sound["input"].write_text("alpha beta")
    bad = tmp_path / "bad"
    if fault == "directory":
        bad.mkdir()
    else:  # the sound file with one byte 0xff, never valid UTF-8, appended
        bad.write_bytes(sound[reader].read_bytes() + b"\xff")
    argv, code = FILE_READERS[reader]
    result = runner.invoke(main, [arg.format(bad=bad, **sound) for arg in argv])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # reported, not a traceback
    assert result.output.startswith("error: ")
    assert str(bad) in result.output


# "\udcff" is what Python's surrogateescape makes of the argv byte 0xff
@pytest.mark.parametrize("argv, where", [
    (["highlight", "--text", "abc \udcff def"], "character 4"),
    (["highlight", "--text", "abc def", "--query", "q\udcff"], "character 1"),
    (["eval", "--dataset", "{dataset}"], "bad.jsonl:2: field 'context'"),
], ids=["highlight-text", "highlight-query", "eval-dataset"])
def test_lone_surrogate_input_exits_4(runner, tmp_path, argv, where):
    checkpoint, dataset = tmp_path / "checkpoint.json", tmp_path / "bad.jsonl"
    write_checkpoint(checkpoint)
    save_jsonl([make_instance()], dataset)
    with dataset.open("a") as fh:
        fh.write('{"id": "b", "query": "q", "context": "ab\\ud800c", "gold": "g"}\n')
    result = runner.invoke(main, [argv[0], "--checkpoint", str(checkpoint),
                                  *(arg.format(dataset=dataset) for arg in argv[1:])])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)  # reported, not a traceback
    assert result.output.startswith("error: ")
    assert "not valid Unicode" in result.output and where in result.output


def test_highlight_requires_one_input(runner, oracle_run):
    _, checkpoint, _ = oracle_run
    result = runner.invoke(main, ["highlight", "--checkpoint", str(checkpoint)])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_emits_all_variants_and_report(runner, oracle_run, tmp_path):
    dataset_path, checkpoint, root = oracle_run
    report_path = root / "report.json"
    result = runner.invoke(main, [
        "eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--pruned", "--random", "--no-highlight", "--out", str(report_path),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert set(report["variants"]) == {"hilite", "random", "pruned", "no-highlight"}
    for row in report["variants"].values():
        assert "mean_reward" in row and "mean_highlight_fraction" in row
    # gold evidence spans exist, so the evidence block is present
    assert "evidence" in report["variants"]["hilite"]


def test_eval_no_highlight_passthrough_zero_reward(runner, oracle_run):
    dataset_path, checkpoint, _ = oracle_run
    result = runner.invoke(main, [
        "eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--no-highlight",
    ])
    assert result.exit_code == 0, result.output
    line = [l for l in result.output.splitlines() if l.startswith("no-highlight")][0]
    assert "reward=0.0000" in line


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_budget_grid_rows(runner, oracle_run, tmp_path):
    dataset_path, checkpoint, root = oracle_run
    csv_path = root / "budget.csv"
    result = runner.invoke(main, [
        "sweep", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--axis", "budget", "--grid", "0.10,0.15,0.25,0.30",
        "--out", str(csv_path),
    ])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [r["axis_value"] for r in rows] == ["0.10", "0.15", "0.25", "0.30"]
    assert set(rows[0]) == {"axis_value", "mean_reward", "mean_highlight_fraction",
                            "mean_covered_fraction", "mean_spans"}


def test_sweep_marker_grid_all_builtins(runner, oracle_run, tmp_path):
    dataset_path, checkpoint, root = oracle_run
    csv_path = root / "marker.csv"
    grid = "default,markdown-bold,double-bracket,brace,chevron,html-b,important-tag"
    result = runner.invoke(main, [
        "sweep", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--axis", "marker", "--grid", grid, "--out", str(csv_path),
    ])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 7
    # identical spans per row: the highlight fraction never moves
    fractions = {r["mean_highlight_fraction"] for r in rows}
    assert len(fractions) == 1


def test_sweep_width_grid(runner, oracle_run, tmp_path):
    dataset_path, checkpoint, root = oracle_run
    csv_path = root / "width.csv"
    result = runner.invoke(main, [
        "sweep", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--axis", "width", "--grid", "4,6,8,10,12,14,16", "--out", str(csv_path),
    ])
    assert result.exit_code == 0, result.output
    assert len(list(csv.DictReader(csv_path.read_text().splitlines()))) == 7


def test_sweep_sampler_grid(runner, oracle_run, tmp_path):
    dataset_path, checkpoint, root = oracle_run
    csv_path = root / "sampler.csv"
    result = runner.invoke(main, [
        "sweep", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--axis", "sampler",
        "--grid", "bernoulli_project,greedy_topk,softmax_wor,gumbel_topk",
        "--out", str(csv_path),
    ])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 4
    # exact-k samplers fill the budget; bernoulli may come in under it
    by_kind = {r["axis_value"]: float(r["mean_highlight_fraction"]) for r in rows}
    assert by_kind["greedy_topk"] >= by_kind["bernoulli_project"] - 1e-9


def test_sweep_unknown_sampler_exits_2(runner, oracle_run, tmp_path):
    dataset_path, checkpoint, root = oracle_run
    result = runner.invoke(main, [
        "sweep", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--axis", "sampler", "--grid", "bogus", "--out", str(root / "x.csv"),
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("axis,grid", [
    ("budget", "abc"), ("budget", "0.15,1.5"), ("width", "1.5"), ("width", "4,-1"),
    ("marker", "default,bogus"),
])
def test_sweep_bad_grid_value_exits_2(runner, oracle_run, axis, grid):
    dataset_path, checkpoint, root = oracle_run
    result = runner.invoke(main, [
        "sweep", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--axis", axis, "--grid", grid, "--out", str(root / "x.csv"),
    ])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output
    assert not (root / "x.csv").exists()


def test_sweep_empty_grid_exits_2(runner, oracle_run, tmp_path):
    dataset_path, checkpoint, root = oracle_run
    result = runner.invoke(main, [
        "sweep", "--checkpoint", str(checkpoint), "--dataset", str(dataset_path),
        "--axis", "budget", "--grid", " ", "--out", str(root / "x.csv"),
    ])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# gen-synth
# ---------------------------------------------------------------------------


def test_gen_synth_zero_instances(runner, tmp_path):
    out = tmp_path / "none.jsonl"
    result = runner.invoke(main, ["gen-synth", "--n", "0", "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text() == ""


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--filler-gap", "-2")])
def test_gen_synth_negative_seed_or_filler_gap_exits_4(runner, tmp_path, flag, value):
    out = tmp_path / "synth.jsonl"
    result = runner.invoke(main, ["gen-synth", "--n", "1", flag, value, "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "must be >= 0" in result.output
    assert not out.exists()


def test_gen_synth_deterministic_files(runner, tmp_path):
    args = ["gen-synth", "--n", "3", "--target-tokens", "200", "--seed", "5"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_synth_length_audit(runner, tmp_path):
    from hilite.data import load_jsonl
    from hilite.tokenization import tokenize

    out = tmp_path / "synth.jsonl"
    result = runner.invoke(main, [
        "gen-synth", "--n", "5", "--target-tokens", "800", "--out", str(out),
    ])
    assert result.exit_code == 0
    for inst in load_jsonl(out):
        n = len(tokenize(inst.context).tokens)
        assert abs(n - 800) <= 16  # within 2%
