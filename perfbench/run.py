"""Benchmark for the permnet CLI: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload W --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --seed N          # every workload, both modes

Run from the root of a source checkout; permnet is imported from ``src/``.
The workloads are in ``workloads.py`` and the reasons for them in
``BENCHMARK.json``.  One client drives ``permnet.cli.main`` in process and
sends each op only after the previous one returned.

A run repeats passes of the workload for about ``--seconds``.  A pass is a
fixed, seeded op sequence run in a fresh interpreter (see ``worker.py``), so
caches start cold in each pass.  The end-to-end metrics
(``--trace 0``) are the median over passes of each pass's figure:

  wall_s       time for the pass's whole op sequence
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile that still has at least 10
               samples beyond it: the 11th slowest op of the pass
  ok_ratio     ops that did not fail / ops attempted, over the run
  peak_rss_mb  ru_maxrss of the pass's process
  setup_s      process start to first op, median over the passes and
               SETUP_PROBES extra processes that stop at the first op

``--trace 1`` runs pass 0 alternately plain and under the timing wrappers
of ``tracer.py`` and reports the per-layer metrics of the traced passes:
counts from one pass (they repeat exactly), self times as medians, and
``trace.overhead_ratio``, traced over plain wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false if any op
came back with a wrong exit code or wrong output; ops whose exception
escaped ``cli.main`` count as failed, not as wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

E2E_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class HarnessError(RuntimeError):
    pass


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has at least ten
    samples beyond it, by nearest rank: the 11th largest sample."""
    n = len(latencies)
    if n < 11:
        raise ValueError(f"{n} samples: a tail needs at least 11")
    k = n - 11
    return sorted(latencies)[k], 100.0 * (k + 1) / n


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"nproc={nproc} python={platform.python_version()} cpu={cpu}"


class Run:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def more(self, last: float) -> bool:
        """Whether to start another pass after one that took ``last`` seconds:
        so that the run ends nearest to ``seconds``, and never past the limit."""
        elapsed = self.elapsed()
        return elapsed + last / 2 < self.seconds and elapsed + 1.5 * last < RUN_LIMIT_S

    def spawn(self, pass_index: int, trace: bool = False, probe: bool = False) -> dict:
        spawned_at = time.monotonic()
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--pass", str(pass_index),
               "--spawned-at", repr(spawned_at)]
        cmd += ["--trace"] * trace + ["--probe"] * probe
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"pass {pass_index} ran past the run limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(
                f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    run = Run(workload, seed, seconds)
    setups = [run.spawn(0, probe=True)["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while not plain or run.more(last):
        begun = time.monotonic()
        plain.append(run.spawn(0 if trace else len(plain)))
        if trace:
            traced.append(run.spawn(0, trace=True))
        last = time.monotonic() - begun
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    ops = plain[0]["attempted"]
    lines = [
        f"workload {workload} seed {seed}: {len(plain)} plain and {len(traced)} traced "
        f"passes of {ops} ops, each in a fresh interpreter, closed loop with 1 client",
        f"machine: {machine()}",
        f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} ops failed, "
        f"{sum(p['escaped'] for p in passes)} by an escaped exception, {wrong} wrong)",
    ]
    for reason in sorted({r for p in passes for r in p["reasons"]})[:5]:
        lines.append(f"  failure: {reason}")

    units: dict[str, str]
    if not trace:
        setups += [p["setup_s"] for p in plain]
        tails = [tail(p["latencies"]) for p in plain]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "op_p50_ms": statistics.median(
                statistics.median(p["latencies"]) * 1e3 for p in plain
            ),
            "op_tail_ms": statistics.median(t[0] * 1e3 for t in tails),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
        }
        units = E2E_UNITS
        notes = {
            "op_tail_ms": f"p{tails[0][1]:.1f} of {ops} ops per pass",
            "setup_s": f"median of {len(setups)} processes",
        }
    else:
        layers = [p["layers"] for p in traced]
        units = metric_units()
        metrics = {}
        for name, unit in units.items():
            if name == "trace.overhead_ratio":
                continue
            values = [layer[name] for layer in layers]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) > 1:
                    lines.append(f"warning: {name} differs between traced passes: {values}")
                metrics[name] = values[0]
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain)
        )
        notes = {}
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {metrics[name]} {unit}{note}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; without it, every workload in both modes")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "permnet", "__init__.py")):
        print(f"error: no permnet sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    for workload, trace in plan:
        try:
            result, lines = measure(workload, args.seed, args.seconds, trace)
        except HarnessError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
