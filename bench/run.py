"""maxprob benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fit-small --seed 1 --seconds 20 --trace 0

Set-up runs ``bench/inputs.py`` in fresh processes, which import maxprob
and write the seeded inputs.  The run then drives the public CLI in this
process (``maxprob.cli.dispatch``), one operation at a time in a closed
loop, and checks every operation's output (see checks.py).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
makes whole passes over the workload's operations untraced and then
traced (tracer.py), and reports per-layer metrics per unit of work plus
the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines before it give
each metric with its unit, the failure ratio, the tail percentile used and
run metadata; the same goes to .bench_out/ in the checkout, with the spans
of traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs
from tracer import LAYERS, Tracer

OUT_DIR = inputs.ROOT / ".bench_out"
SETUP_REPEATS = 7
# make_toy_dataset's default training-set size, which train-toy always uses.
TRAIN_EXAMPLES_PER_EPOCH = 512
TAIL_SAMPLES_BEYOND = 10
# Timing on a shared host whose speed drifts: after each operation the run
# times a fixed calibration kernel for CAL_SHARE of the operation's time,
# and every reported time is rescaled to a host on which that kernel takes
# CAL_REFERENCE_S.  Set-up, dominated by process start and imports, is
# rescaled by STARTUP_PROBE instead.  bench/README.md gives the
# measurements behind this.
CAL_SHARE = 0.1
CAL_REFERENCE_S = 700e-6
STARTUP_PROBE = (sys.executable, "-c", "import numpy")
STARTUP_REFERENCE_S = 0.15

UNIT_OF_WORK = {
    "fit-small": "ascent step (trace row)",
    "fit-wide": "ascent step (trace row)",
    "sweep": "tabulated objective value (CSV row)",
    "train-toy": "training example processed",
}

END_TO_END_UNITS = {
    "work_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: every layer's self time, then the functions named in
# the benchmark's design (bench/README.md says which end-to-end metric each
# should move).
SELF_TIME = ("optimize.ascend", "distributions.parameterization_jacobian",
             "bernoulli.run_sweep", "nn.train", "nn.loss_and_grads")
CALLS = ("objectives.value_at_theta", "objectives.gradient_at_theta",
         "distributions.apply_parameterization", "distributions.from_logp",
         "bounds.softmax_probability", "logspace.logsumexp", "nn.loss_and_grads",
         "nn.ToyNet.forward", "nn.intersection_loss")
BYTES = ("distributions.parameterization_jacobian",)
PER_LAYER_UNITS = {
    **{f"{layer}.self_us_per_unit": "us/unit" for layer in LAYERS},
    **{f"{name}.self_us_per_unit": "us/unit" for name in SELF_TIME},
    **{f"{name}.calls_per_unit": "calls/unit" for name in CALLS},
    **{f"{name}.bytes_per_unit": "bytes/unit" for name in BYTES},
    "trace.spans_per_unit": "spans/unit",
    "trace.overhead_ratio": "ratio",
}


class Workload:
    """Runs the manifest's operations through the CLI and checks each output.

    The first run of an operation gets the full check against closed forms;
    its output digest and verdict are kept, and later runs of the same
    operation must reproduce that output byte for byte.
    """

    def __init__(self, maxprob, manifest: dict) -> None:
        from maxprob import cli
        self.maxprob = maxprob
        self.cli = cli
        self.ops = manifest["ops"]
        self.verified: dict[int, tuple[str, int, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _dispatch(self, argv, tracer=None) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    code = self.cli.dispatch(argv)
                except Exception:
                    code = None
                    err.write(traceback.format_exc())
                seconds = time.perf_counter() - start
        return seconds, code, out.getvalue(), err.getvalue()

    def run(self, index: int, tracer=None) -> tuple[float, int]:
        """One timed operation; returns (seconds, units of work)."""
        op = self.ops[index]
        seconds, code, stdout, stderr = self._dispatch(op["argv"], tracer)
        self.attempted += 1
        units = 0
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
        else:
            try:
                problems, units = self._verify(index, stdout)
            except Exception:
                problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {index} {' '.join(op['argv'][:5])}: {'; '.join(problems)}")
        return seconds, units

    def _verify(self, index: int, stdout: str) -> tuple[list[str], int]:
        """Full check on an operation's first run; later runs must match it."""
        op = self.ops[index]
        outputs = [Path(path).read_bytes() for path in op["outputs"]]
        digest = hashlib.sha256()
        for blob in (*outputs, stdout.encode()):
            digest.update(len(blob).to_bytes(8, "little"))
            digest.update(blob)
        if index not in self.verified:
            problems, units = self._check(op, stdout, outputs)
            self.verified[index] = (digest.hexdigest(), units, problems)
            return problems, units
        expected, units, problems = self.verified[index]
        if digest.hexdigest() != expected:
            return ["output differs from the checked output of the same input"], units
        return problems, units

    def _check(self, op: dict, stdout: str, outputs: list[bytes]) -> tuple[list[str], int]:
        ref = op["check"]
        kind = ref["type"]
        if kind in ("fit-small", "fit-wide"):
            summary = json.loads(stdout)
            trace_text = outputs[0].decode()
            if kind == "fit-small":
                problems = checks.check_fit_small(ref, summary, trace_text)
            else:
                fd_error = checks.fit_wide_fd_error(self.maxprob, ref, summary["final_theta"])
                problems = checks.check_fit_wide(ref, summary, trace_text, fd_error)
            return problems, summary["iterations"]
        if kind == "sweep":
            csv_text = outputs[0].decode()
            problems = checks.check_sweep(ref, json.loads(outputs[1]), csv_text)
            return problems, csv_text.count("\n") - 1
        # train-toy: a second run with the same seeds must write the same bytes
        argv = list(op["argv"])
        out_at = argv.index("--out") + 1
        argv[out_at] += ".rerun"
        _, code, _, stderr = self._dispatch(argv)
        if code != 0:
            return [f"rerun exit code {code}: {stderr.strip()[-500:]}"], 0
        report = outputs[0]
        problems = checks.check_train_toy(ref, report, Path(argv[out_at]).read_bytes())
        epochs = len(json.loads(report)["records"]) - 1
        return problems, epochs * TRAIN_EXAMPLES_PER_EPOCH


def _calibration_kernel() -> float:
    """Seconds for a fixed piece of work in the program's style that does not
    use maxprob: small numpy calls and JSON round trips driven from Python."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(30):
        a = np.asarray([0.3, 0.7], dtype=float)
        m = float(np.max(a))
        acc += m + float(np.log(np.sum(np.exp(a - m))))
        acc += json.loads(json.dumps({"x": [1.0, 2.0]}))["x"][0]
    return time.perf_counter() - start


def _speed(op_seconds: float) -> float:
    """Reference over measured kernel time, for a window of CAL_SHARE * op_seconds."""
    times = [_calibration_kernel()]
    while sum(times) < CAL_SHARE * op_seconds:
        times.append(_calibration_kernel())
    return CAL_REFERENCE_S * len(times) / sum(times)


def _startup_probe() -> float:
    start = time.perf_counter()
    subprocess.run(STARTUP_PROBE, check=True, timeout=60)
    return time.perf_counter() - start


class Loop:
    """Timed operations of one closed loop, each with the calibration around it."""

    def __init__(self) -> None:
        # (operation, seconds, units, speed factor: mean of the windows before and after)
        self.samples: list[tuple[int, float, int, float]] = []

    @property
    def scale(self) -> float:
        """Factor converting this loop's seconds, taken as a whole, to reference seconds."""
        return statistics.median(speed for *_, speed in self.samples)

    def run_seconds(self) -> list[float]:
        """Each timed run in reference seconds, rescaled by the calibration around it."""
        return [seconds * speed for _, seconds, _, speed in self.samples]

    def op_seconds(self) -> list[float]:
        """Per timed run, the median over all runs of the same operation."""
        repeats: dict[int, list[float]] = {}
        for (index, *_), seconds in zip(self.samples, self.run_seconds()):
            repeats.setdefault(index, []).append(seconds)
        median = {index: statistics.median(v) for index, v in repeats.items()}
        return [median[index] for index, *_ in self.samples]

    def units(self) -> int:
        return sum(u for _, _, u, _ in self.samples)

    def work_per_s(self) -> float:
        return self.units() / sum(self.op_seconds())


def timed_loop(workload: Workload, budget_s: float, tracer=None) -> Loop:
    """Run whole passes over the operations until budget_s seconds of them are timed.

    Whole passes keep every operation equally represented, so medians and
    counts per unit of work do not depend on where the budget ran out.
    """
    n = len(workload.ops)
    wall_limit = time.monotonic() + 2 * budget_s + 60
    loop = Loop()
    spent = 0.0
    i = 0
    speed_before = _speed(0.0)
    while i == 0 or i % n or (spent < budget_s and time.monotonic() < wall_limit):
        seconds, units = workload.run(i % n, tracer)
        speed_after = _speed(seconds)
        loop.samples.append((i % n, seconds, units, (speed_before + speed_after) / 2.0))
        speed_before = speed_after
        spent += seconds
        i += 1
    return loop


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with
    at least TAIL_SAMPLES_BEYOND samples above it; the maximum if too few."""
    ordered = sorted(values)
    beyond = TAIL_SAMPLES_BEYOND if len(ordered) > TAIL_SAMPLES_BEYOND else 0
    at = len(ordered) - beyond - 1
    return ordered[at], 100.0 * (at + 1) / len(ordered), beyond


def set_up(args, run_dir: Path, repeats: int) -> tuple[float, dict]:
    """Generate the inputs `repeats` times in fresh processes.

    Returns the manifest and the median time in reference seconds, each run
    rescaled by the STARTUP_PROBE times just before and after it.
    """
    cmd = [sys.executable, str(Path(inputs.__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--out", str(run_dir)]
    times = []
    probe_before = _startup_probe()
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"bench: input generation failed: {proc.stderr.strip()}")
        probe_after = _startup_probe()
        times.append(seconds * STARTUP_REFERENCE_S * 2.0 / (probe_before + probe_after))
        probe_before = probe_after
    return statistics.median(times), json.loads((run_dir / "manifest.json").read_text())


def end_to_end(args, workload: Workload, setup_s: float) -> tuple[dict, dict]:
    workload.run(0)  # warm-up, checked but not timed
    loop = timed_loop(workload, args.seconds)
    tail_s, tail_pct, beyond = tail(loop.run_seconds())
    raw = [s for _, s, _, _ in loop.samples]
    values = {
        "work_per_s": loop.work_per_s(),
        "op_s_p50": statistics.median(loop.op_seconds()),
        "op_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"timed_ops": len(raw), "distinct_ops": len(workload.ops), "units": loop.units(),
               "op_s_tail_percentile": tail_pct, "op_s_tail_samples_beyond": beyond,
               "speed_scale": loop.scale, "samples": loop.samples,
               "unscaled": {"work_per_s": loop.units() / sum(raw),
                            "op_s_p50": statistics.median(raw), "op_s_tail": tail(raw)[0]}}
    return values, details


def per_layer(args, workload: Workload) -> tuple[dict, dict, Tracer]:
    workload.run(0)  # warm-up, checked but not timed
    half = args.seconds / 2.0
    plain = timed_loop(workload, half)
    tracer = Tracer()
    traced = timed_loop(workload, half, tracer=tracer)
    units = traced.units()
    totals = tracer.totals()
    empty = {"calls": 0, "self_ns": 0.0, "bytes": 0}

    def self_us(key: str) -> float:
        return totals.get(key, empty)["self_ns"] / 1e3 * traced.scale / units

    values = {f"{layer}.self_us_per_unit": self_us(f"layer:{layer}") for layer in LAYERS}
    for name in SELF_TIME:
        values[f"{name}.self_us_per_unit"] = self_us(name)
    for name in CALLS:
        values[f"{name}.calls_per_unit"] = totals.get(name, empty)["calls"] / units
    for name in BYTES:
        values[f"{name}.bytes_per_unit"] = totals.get(name, empty)["bytes"] / units
    values["trace.spans_per_unit"] = tracer.span_count / units
    values["trace.overhead_ratio"] = plain.work_per_s() / traced.work_per_s()
    details = {"untraced_ops": len(plain.samples), "traced_ops": len(traced.samples),
               "traced_units": units, "spans": tracer.span_count,
               "speed_scale": traced.scale}
    return values, details, tracer


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    git = inputs.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(maxprob) -> dict:
    src_lines = sum(len(path.read_bytes().splitlines())
                    for path in sorted(inputs.SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "maxprob": maxprob.__version__, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "git_commit": _git_commit(), "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of operations to time (split in half with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=inputs.SCALES, default="full",
                        help="'tiny' shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    maxprob = inputs.import_maxprob()
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    try:
        setup_s, manifest = set_up(args, run_dir, 1 if args.trace else SETUP_REPEATS)
        workload = Workload(maxprob, manifest)
        tracer = None
        if args.trace:
            values, details, tracer = per_layer(args, workload)
            units = PER_LAYER_UNITS
        else:
            values, details = end_to_end(args, workload, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    details["failed_ratio"] = workload.failed / workload.attempted
    details["failures"] = workload.failures
    details["unit_of_work"] = UNIT_OF_WORK[args.workload]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    meta = run_metadata(maxprob)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"metrics": metrics, "details": details, "meta": meta}, indent=1))
    if tracer is not None:
        tracer.save(OUT_DIR / f"{args.workload}.spans.npz")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"unit of work = {UNIT_OF_WORK[args.workload]}")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']!r} {metric['unit']}")
    print(f"  failed_ratio {details['failed_ratio']!r} ratio "
          f"({workload.failed} of {workload.attempted} operations)")
    if not args.trace:
        print(f"  op_s_tail is p{details['op_s_tail_percentile']:.2f} of "
              f"{details['timed_ops']} operations, {details['op_s_tail_samples_beyond']} beyond")
    for failure in workload.failures:
        print(f"  FAILED {failure}")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": workload.failed == 0, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
