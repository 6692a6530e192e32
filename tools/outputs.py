"""Write the outputs that a byte-identical refactor must leave unchanged.

Usage:

    python tools/outputs.py OUT

runs the ``hilite`` of this checkout (its ``src/``, ahead of whatever is on
``PYTHONPATH``) and writes into the directory OUT:

- ``train/``: 500 × 2K-token needles (gen-synth seed 1000) trained for 2000
  steps with seed 0 against the oracle: ``checkpoint.json`` and
  ``metrics.jsonl``;
- ``eval/``: ``hilite eval --random --pruned --no-highlight`` of that
  checkpoint on 100 held-out needles (seed 9000): report and stdout;
- ``sweep/``: ``hilite sweep`` CSVs on the budget, width, marker and
  sampler axes over the same held-out needles;
- ``highlight/``: ``hilite highlight --spans`` stdout on a 2K needle and on
  the ≈16K-token needle mixed with multi-byte sentences of
  ``tests/test_golden_oracle.py``;
- ``demos/``: the stdout of every script in ``demos/``.

Every command runs with OUT as its working directory and relative paths,
so no output names the directory.  Compare two checkouts with

    python A/tools/outputs.py OUT_A && python B/tools/outputs.py OUT_B
    diff -r OUT_A OUT_B

One run took 12 s on a 2 vCPU Xeon.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hilite.data import SynthSpec, gen_needle  # noqa: E402
from test_golden_oracle import mixed_utf8_needle  # noqa: E402

SWEEPS = {
    "budget": "0.05,0.10,0.15,0.25,0.30",
    "width": "0,2,5,10",
    "marker": "default,markdown-bold,double-bracket,brace,chevron,html-b,important-tag",
    "sampler": "bernoulli_project,greedy_topk,softmax_wor,gumbel_topk",
}


def run(args: list[str], cwd: Path, stdout_path: Path | None = None) -> None:
    """Run ``args`` with this checkout's ``src/`` first on the path; fail
    loudly on a non-zero exit, and keep stdout when ``stdout_path`` is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                            capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {result.returncode}:\n{result.stderr}")
    if stdout_path is not None:
        stdout_path.write_text(result.stdout, encoding="utf-8")


def hilite(out: Path, *args: str, stdout: str | None = None) -> None:
    run(["-m", "hilite.cli", *args], out, out / stdout if stdout else None)


def main(out: Path) -> None:
    for sub in ("data", "eval", "sweep", "highlight", "demos"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    hilite(out, "gen-synth", "--n", "500", "--target-tokens", "2000", "--seed", "1000",
           "--out", "data/train.jsonl")
    hilite(out, "gen-synth", "--n", "100", "--target-tokens", "2000", "--seed", "9000",
           "--out", "data/held.jsonl")
    hilite(out, "train", "--dataset", "data/train.jsonl", "--out", "train",
           "--steps", "2000", "--seed", "0", stdout="train/stdout.txt")
    checkpoint = ["--checkpoint", "train/checkpoint.json"]

    hilite(out, "eval", *checkpoint, "--dataset", "data/held.jsonl",
           "--random", "--pruned", "--no-highlight", "--out", "eval/report.json",
           stdout="eval/stdout.txt")
    for axis, grid in SWEEPS.items():
        hilite(out, "sweep", *checkpoint, "--dataset", "data/held.jsonl",
               "--axis", axis, "--grid", grid, "--out", f"sweep/{axis}.csv",
               stdout=f"sweep/{axis}.txt")

    needle = gen_needle(SynthSpec(target_tokens=2000, seed=21))
    texts = {"needle-2k": (needle.query, needle.context),
             "utf8-16k": mixed_utf8_needle(14000, seed=25)[:2]}
    for name, (query, context) in texts.items():
        (out / "data" / f"{name}.txt").write_text(context, encoding="utf-8")
        hilite(out, "highlight", *checkpoint, "--input", f"data/{name}.txt",
               "--query", query, "--spans", stdout=f"highlight/{name}.txt")

    for demo in sorted((ROOT / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as workdir:
            run([str(demo)], Path(workdir), out / "demos" / f"{demo.stem}.txt")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]).resolve())
