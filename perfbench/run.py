"""liftsim benchmark: time to a checked verdict on three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every call runs in a fresh interpreter (worker.py) on an input made from the
seed.  With ``--trace 0`` calls start until S seconds have passed and the
end-to-end metrics are medians over them.  With ``--trace 1`` each round runs the
seed's first input once plain and once with layer wrappers (tracer.py); the
per-layer metrics are medians over at least two traced calls, whose call
tables must be identical and whose outputs must match the plain call.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2, with no
result, when liftsim cannot be imported from ``src`` or a worker crashes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, metric_name  # noqa: E402
from workloads import DEFAULT_SEED, SPEC_KEYS, WORKLOADS  # noqa: E402

# No new call starts after this many seconds, so a run ends well within 180 s.
LAST_START_S = 120
WORKER_TIMEOUT_S = 170

# The shared host's speed drifts by up to 50% over minutes.  A fresh
# interpreter's start-up slows in step with liftsim's calls (which also run in
# fresh interpreters), while liftsim cannot change it.  So before every call
# and after the last, the benchmark times starts of an interpreter that
# imports only standard-library modules, and scales each call's times by
# REFERENCE_S / (median start time just before and just after it): times are
# seconds on a host where that start takes REFERENCE_S (its median on the
# 2-CPU machine the bounds were set on).
REFERENCE_CODE = ("import fractions, json, decimal, random, dataclasses, time; "
                  "print(repr(time.monotonic()))")
REFERENCE_S = 0.05
# Samples before each call: one, plus this many per second of the previous call.
REFERENCE_PER_S = 2
REFERENCE_MAX_SAMPLES = 12

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def per_layer_units() -> dict:
    units = {}
    for layer, (_, funcs) in LAYERS.items():
        for func in funcs:
            name = metric_name(layer, func)
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
    units["structure.is_dangerous.total_s"] = "s"
    units["structure.is_dangerous.flagged_ratio"] = "ratio"
    units["simulate.lift_deterministic.rounds"] = "count"
    for key in SPEC_KEYS:
        units[f"verify.{key}.s"] = "s"
        units[f"verify.{key}.instances"] = "count"
    units["verify.vacuous_ratio"] = "ratio"
    units["trace.errors"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def worker_env() -> dict:
    """liftsim from this checkout, with bytecode cached as a user's install has it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def check_liftsim() -> None:
    """Fail unless liftsim imports from this checkout; also compiles the .pyc files."""
    if not (SRC / "liftsim" / "__init__.py").is_file():
        raise BenchError(f"no liftsim sources under {SRC}")
    code = "import liftsim, liftsim.verify, liftsim.cli; print(liftsim.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], env=worker_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode or not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"liftsim does not import from {SRC}: {proc.stderr.strip()[-500:]}")


def call(workload: str, unit: dict, mode: str) -> dict:
    request = json.dumps({"workload": workload, "unit": unit, "mode": mode})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), request],
                          env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode:
        raise BenchError(f"worker crashed on {request}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["unit"], out["mode"] = unit, mode
    return out


class HostSpeed:
    """Start-up times of a reference interpreter, in one batch before each
    call and one after the last."""

    def __init__(self):
        self.batches = []

    def sample(self, last_wall_s: float) -> None:
        # The child reads the system-wide monotonic clock once its imports are
        # done: waiting on it with a timeout would round the time to a poll step.
        batch = []
        for _ in range(min(REFERENCE_MAX_SAMPLES, 1 + int(last_wall_s * REFERENCE_PER_S))):
            start = time.monotonic()
            proc = subprocess.run([sys.executable, "-c", REFERENCE_CODE], env=worker_env(),
                                  cwd=ROOT, capture_output=True, text=True, check=True,
                                  timeout=60)
            batch.append(float(proc.stdout) - start)
        self.batches.append(batch)

    def scale(self, i: int) -> float:
        """Factor from seconds of call i to reference-host seconds, from the
        batches just before and just after it."""
        return REFERENCE_S / statistics.median(self.batches[i] + self.batches[i + 1])


def report_problems(out: dict) -> bool:
    for problem in out["problems"]:
        print(f"FAILED {out['mode']} call {out['unit']}: {problem}", file=sys.stderr)
    return bool(out["problems"])


def timed_calls(workload: str, requests, seconds: float, min_calls: int):
    """Start (unit, mode) requests until `seconds` have passed, at least `min_calls`.

    Each result gains ``scale``, its factor to reference-host seconds.
    """
    host = HostSpeed()
    results = []
    start = time.perf_counter()
    for unit, mode in requests:
        if len(results) >= min_calls and time.perf_counter() - start >= min(seconds, LAST_START_S):
            break
        host.sample(results[-1]["wall_s"] if results else 0)
        results.append(call(workload, unit, mode))
    host.sample(results[-1]["wall_s"])
    for i, r in enumerate(results):
        r["scale"] = host.scale(i)
    return results


def median(results: list, key: str) -> float:
    return statistics.median(r[key] for r in results)


def scaled(results: list, key: str) -> float:
    """Median over calls of a time in reference-host seconds."""
    return statistics.median(r[key] * r["scale"] for r in results)


def plain_run(workload: str, seed: int, seconds: float):
    work = WORKLOADS[workload]
    requests = ((work.unit(seed, k), "plain") for k in itertools.count())
    results = timed_calls(workload, requests, seconds, 1)
    failed = sum(map(report_problems, results))
    ok = [r for r in results if not r["problems"]] or results
    metrics = {"wall_s": scaled(ok, "wall_s"), "setup_s": scaled(ok, "setup_s"),
               "peak_rss_mib": median(ok, "rss_mib")}
    digests = {work.key(r["unit"]): r["digest"] for r in results}
    print(f"calls: {len(results)}, failed: {failed}, failed_ratio: {failed / len(results):g}")
    print(f"host scale: median {median(results, 'scale'):.4f}; unscaled wall_s {median(ok, 'wall_s'):.6g} s, "
          f"setup_s {median(ok, 'setup_s'):.6g} s")
    print(f"digests: {json.dumps(digests, sort_keys=True)}")
    return True, len(results), failed, metrics, END_TO_END


def traced_run(workload: str, seed: int, seconds: float):
    work = WORKLOADS[workload]
    unit = work.unit(seed, 0)
    requests = ((unit, mode) for _ in itertools.count() for mode in ("plain", "traced"))
    runs = timed_calls(workload, requests, seconds, 4)
    if workload == "verify_corpus":
        runs += timed_calls(workload, [(unit, "sections")], 0, 1)
    plain = [r for r in runs if r["mode"] == "plain"]
    traced = [r for r in runs if r["mode"] == "traced"]
    sections = next((r for r in runs if r["mode"] == "sections"), None)
    failed = sum(map(report_problems, runs))

    checks = []
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        checks.append(f"traced, plain and per-section outputs differ: {sorted(map(str, digests))}")
    tables = [{name: s[0] for name, s in r["stats"].items()} for r in traced]
    if any(t != tables[0] for t in tables):
        checks.append("two traced calls of one input made different call counts")
    for r in traced[:1] + ([sections] if sections else []):
        checks.extend(f"tracer: {msg}" for msg in r["unbound"])
    entry = {"verify_corpus": None, "lift_det_n3": "simulate.lift_deterministic",
             "gadget_disc_b4": "gadgets.discrepancy"}[workload]
    if entry and tables[0][entry] != 1:
        checks.append(f"tracer saw {tables[0][entry]} calls of {entry}, the workload made 1")
    for msg in checks:
        print(f"SELF-CHECK FAILED: {msg}", file=sys.stderr)

    def med(index: int, name: str) -> float:
        return statistics.median(r["stats"][name][index] * r["scale"] for r in traced)

    units = per_layer_units()
    metrics = dict.fromkeys(units, 0)
    for name in tables[0]:
        metrics[f"{name}.calls"] = tables[0][name]
        metrics[f"{name}.self_s"] = med(1, name)
    dangerous = "structure.is_dangerous"
    metrics[f"{dangerous}.total_s"] = med(2, dangerous)
    if tables[0][dangerous]:
        metrics[f"{dangerous}.flagged_ratio"] = traced[0]["stats"][dangerous][4] / tables[0][dangerous]
    info = traced[0]["info"]
    metrics["simulate.lift_deterministic.rounds"] = info.get("rounds", 0)
    metrics["verify.vacuous_ratio"] = info.get("vacuous_ratio", 0)
    if sections:
        for key, stat in sections["sections"].items():
            metrics[f"verify.{key}.s"] = stat["s"] * sections["scale"]
            metrics[f"verify.{key}.instances"] = stat["instances"]
    metrics["trace.errors"] = sum(s[3] for s in traced[0]["stats"].values())
    metrics["trace.overhead_ratio"] = scaled(traced, "wall_s") / scaled(plain, "wall_s")
    print(f"calls: {len(runs)} ({len(plain)} plain, {len(traced)} traced"
          f"{', 1 per-section' if sections else ''}), failed: {failed}")
    print(f"host scale: median {median(runs, 'scale'):.4f}")
    print(f"digest: {work.key(unit)} {runs[0]['digest']}")
    return not checks, len(runs), failed, metrics, units


def metadata() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "src_liftsim_lines": sum(len(p.read_text().splitlines())
                                     for p in sorted((SRC / "liftsim").glob("*.py")))}


def declared_metrics(trace: int):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_liftsim()
        run = traced_run if args.trace else plain_run
        checks_ok, attempted, failed, metrics, units = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}",
              file=sys.stderr)
        return 2
    print(f"meta: {json.dumps(metadata())}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
