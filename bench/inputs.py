"""Seeded inputs for the maxprob benchmark.

Each workload is a list of operations.  An operation is one argv for the
public CLI (``maxprob.cli.dispatch``) plus the reference values its
correctness check needs.  Everything here is a pure function of the
workload name, the seed and the scale, and is computed with numpy alone:
the references are closed forms, never values obtained from maxprob.

Run as a script, this file is the benchmark's set-up step.  It starts in a
fresh process, imports maxprob from the checkout's ``src/`` and writes the
inputs and ``manifest.json`` into the output directory::

    python3 bench/inputs.py --workload fit-small --seed 1 --out .bench_out/run
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("fit-small", "fit-wide", "sweep", "train-toy")
SCALES = ("full", "tiny")

# The four (kind, assumption) cells every objective family has.
CELLS = (
    ("likelihood", "cond-independent"),
    ("likelihood", "oracle-subset"),
    ("intersection", "cond-independent"),
    ("intersection", "oracle-subset"),
)

# fit-small: the stated closed forms are exact only once the ascent has
# converged.  With step 1 every converging cell does so within 400 steps for
# theta* up to 1.25; the diverging cell (likelihood / cond-independent) stops
# at max-iters.
FIT_SMALL_THETA_STAR = (0.25, 1.25)
FIT_SMALL_ARGS = ("--step", "1.0", "--max-iters", "400", "--grad-tol", "1e-10")

# fit-wide: a fixed number of steps, so one operation costs the same however
# far the ascent has to go.  Step 1 keeps every cell's trace monotone.
FIT_WIDE_ALPHA = 2.0
FIT_WIDE_ZERO_SHARE = 0.1

# sweep: at full scale the CLI's default grid and alphas, which the check
# asserts; (grid min, max, step) and alphas are passed explicitly only when tiny.
SWEEP_DEFAULT_GRID = (-8.0, 8.0, 0.01)
SWEEP_DEFAULT_ALPHAS = (1.0, 2.0, 4.0, 16.0, 256.0)
SWEEP_THETA_STAR = (0.5, 3.0)

TRAIN_MODES = (("intersection", 1.0), ("intersection", 2.0), ("intersection", 4.0),
               ("ce-l2", 1.0))
TRAIN_LAM = 1e-3
TRAIN_BATCH = 32
TRAIN_CLASSES = 3

SIZES = {
    "full": {"fit_small_n": 8, "wide_k": 2048, "wide_iters": 5, "sweep_grid": None,
             "train_n": 2, "train_epochs": 20},
    "tiny": {"fit_small_n": 1, "wide_k": 64, "wide_iters": 3,
             "sweep_grid": ((-4.0, 4.0, 0.1), (1.0, 2.0, 256.0)),
             "train_n": 1, "train_epochs": 3},
}


def import_maxprob():
    """Import maxprob from this checkout's src/ and nowhere else."""
    package = SRC / "maxprob"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: maxprob sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import maxprob
    if Path(maxprob.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported maxprob from {maxprob.__file__}, not {package}")
    return maxprob


def _sigmoid(t: float) -> float:
    return float(1.0 / (1.0 + np.exp(-t)))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw per equal-width stratum, so every seed covers the range alike."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _fit_small(rng, out: Path, size: dict) -> list[dict]:
    ops = []
    for i, theta_star in enumerate(_stratified(rng, *FIT_SMALL_THETA_STAR, size["fit_small_n"])):
        p = _sigmoid(theta_star)
        oracle = _write_json(out / f"oracle-{i}.json", {"range": ["1", "0"], "probs": [p, 1.0 - p]})
        for alpha in (2.0, 4.0):
            for kind, assumption in CELLS:
                n = len(ops)
                ops.append({
                    "argv": ["optimize", "--kind", kind, "--assumption", assumption,
                             "--alpha", repr(alpha), "--oracle", oracle, "--param", "sigmoid",
                             *FIT_SMALL_ARGS, "--out", str(out / f"trace-{n}.csv")],
                    "outputs": [str(out / f"trace-{n}.csv")],
                    "check": {"type": "fit-small", "kind": kind, "assumption": assumption,
                              "alpha": alpha, "theta_star": float(theta_star)},
                })
    return ops


def _fit_wide(rng, out: Path, size: dict) -> list[dict]:
    k = size["wide_k"]
    labels = [f"v{i}" for i in range(k)]
    prior = rng.dirichlet(np.ones(k))
    oracle = rng.dirichlet(np.ones(k))
    oracle[rng.choice(k, int(round(FIT_WIDE_ZERO_SHARE * k)), replace=False)] = 0.0
    oracle /= oracle.sum()
    prior_path = _write_json(out / "prior.json", {"range": labels, "probs": prior.tolist()})
    oracle_path = _write_json(out / "oracle.json", {"range": labels, "probs": oracle.tolist()})
    ops = []
    for n, (kind, assumption) in enumerate(CELLS):
        ops.append({
            "argv": ["optimize", "--kind", kind, "--assumption", assumption,
                     "--alpha", repr(FIT_WIDE_ALPHA), "--oracle", oracle_path,
                     "--prior", prior_path, "--param", "softmax", "--dim", str(k),
                     "--step", "1.0", "--max-iters", str(size["wide_iters"]),
                     "--out", str(out / f"trace-{n}.csv")],
            "outputs": [str(out / f"trace-{n}.csv")],
            "check": {"type": "fit-wide", "kind": kind, "assumption": assumption,
                      "alpha": FIT_WIDE_ALPHA, "prior": prior_path, "oracle": oracle_path,
                      "iters": size["wide_iters"]},
        })
    return ops


def _sweep(rng, out: Path, size: dict) -> list[dict]:
    theta_star = float(rng.uniform(*SWEEP_THETA_STAR))
    grid_args: list[str] = []
    grid, alphas = SWEEP_DEFAULT_GRID, SWEEP_DEFAULT_ALPHAS
    if size["sweep_grid"] is not None:
        grid, alphas = size["sweep_grid"]
        grid_args = ["--grid-min", repr(grid[0]), "--grid-max", repr(grid[1]),
                     "--grid-step", repr(grid[2]), "--alphas", ",".join(map(repr, alphas))]
    ops = []
    for n, assumption in enumerate(("cond-independent", "oracle-subset")):
        csv_path, summary_path = str(out / f"sweep-{n}.csv"), str(out / f"summary-{n}.json")
        ops.append({
            "argv": ["sweep-bernoulli", "--theta-star", repr(theta_star),
                     "--assumption", assumption, *grid_args,
                     "--out", csv_path, "--summary-out", summary_path],
            "outputs": [csv_path, summary_path],
            "check": {"type": "sweep", "assumption": assumption, "theta_star": theta_star,
                      "grid": list(grid), "alphas": list(alphas)},
        })
    return ops


def _train_toy(rng, out: Path, size: dict) -> list[dict]:
    ops = []
    for _ in range(size["train_n"]):
        shuffle_seed, net_seed, data_seed = (int(s) for s in rng.integers(0, 2**31, size=3))
        for mode, alpha in TRAIN_MODES:
            n = len(ops)
            loss_args = (["--lam", repr(TRAIN_LAM)] if mode == "ce-l2"
                         else ["--alpha", repr(alpha)])
            ops.append({
                "argv": ["train-toy", "--loss", mode, *loss_args,
                         "--epochs", str(size["train_epochs"]),
                         "--batch-size", str(TRAIN_BATCH), "--classes", str(TRAIN_CLASSES),
                         "--seed", str(shuffle_seed), "--net-seed", str(net_seed),
                         "--data-seed", str(data_seed), "--out", str(out / f"report-{n}.json")],
                "outputs": [str(out / f"report-{n}.json")],
                "check": {"type": "train-toy", "mode": mode, "alpha": alpha,
                          "epochs": size["train_epochs"], "classes": TRAIN_CLASSES},
            })
    return ops


def generate(workload: str, seed: int, scale: str, out: Path) -> dict:
    """Write the workload's input files into out and return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    size = SIZES[scale]
    if workload == "fit-small":
        ops = _fit_small(rng, out, size)
    elif workload == "fit-wide":
        ops = _fit_wide(rng, out, size)
    elif workload == "sweep":
        ops = _sweep(rng, out, size)
    else:
        ops = _train_toy(rng, out, size)
    manifest = {"workload": workload, "seed": seed, "scale": scale, "ops": ops}
    _write_json(out / "manifest.json", manifest)
    return manifest


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=SCALES)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    import_maxprob()
    generate(args.workload, args.seed, args.scale, args.out)


if __name__ == "__main__":
    main()
