"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3_batched --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: set-up time in fresh
interpreters, then whole units of the workload (at least two, more while
they fit in ``--seconds``) with every output checked.  ``--trace 1`` runs a
warm-up unit, a traced unit (see ``tracing.py``) and an untraced unit, and
reports the per-layer metrics plus the tracing overhead.  Every metric is printed as
one line with its workload, unit and sample count (or the base of a
ratio); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(provenance included) and the spans of a traced run are written under
``.perfbench_out/`` in the checkout.  The exit code is 0 only when every
output check passed.

``--workload all`` runs every workload both ways, each in a fresh
interpreter, and prints all their metric lines and tracing-overhead lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh-interpreter set-up probes per ``--trace 0`` run; setup_s is their median.
SETUP_PROBES = 3
#: A ``--trace 0`` run needs two units to compare their result digests.
MIN_UNITS = 2
MAX_UNITS = 50  # bounds a run of very fast units
#: Samples a tail percentile must leave beyond it to be reported.
TAIL_SAMPLES = 10
#: Engines whose per-point counts the traced run reports.
ENGINES = ("batched", "counts", "ensemble", "array", "sequential")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


# ----------------------------------------------------------------- statistics


def tail_percentile(values: Sequence[float], wanted: int = 95) -> tuple[int, float, bool]:
    """(percentile, value, is_wanted) by nearest rank, under the ten-beyond rule.

    Returns ``wanted`` when at least ``TAIL_SAMPLES`` samples lie beyond it;
    otherwise the highest whole percentile that has that many beyond it.
    With fewer than eleven samples no percentile qualifies; the median
    (percentile 50) is then the only steady figure and is returned instead.
    """
    ordered = sorted(values)
    count = len(ordered)

    def beyond(p: int) -> int:
        return count - max(1, math.ceil(p * count / 100))

    for p in range(wanted, 0, -1):
        if beyond(p) >= TAIL_SAMPLES:
            return p, ordered[max(1, math.ceil(p * count / 100)) - 1], p == wanted
    return 50, statistics.median(ordered), False


class Report:
    """Metric lines for standard output plus the values for the JSON line."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.values: dict[str, dict[str, Any]] = {}  # the JSON line's metrics
        self.printed: dict[str, dict[str, Any]] = {}  # every line, for the record

    def add(self, name: str, value: float, unit: str, detail: str, *, emit: bool = True) -> None:
        if emit:
            self.values[name] = {"value": value, "unit": unit}
        self.printed[name] = {"value": value, "unit": unit, "detail": detail}
        print(f"metric {self.workload} {name} = {value:.6g} {unit} ({detail})")


# ------------------------------------------------------------------- set-up


def _probe_setup(workload: str, work_dir: Path) -> float:
    """Seconds from launching a fresh interpreter to the workload being ready."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe", str(work_dir)],
        check=True,
        cwd=ROOT,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


# --------------------------------------------------------------- provenance


def _declaration(workload: str) -> dict[str, str | None]:
    """The ``engine=`` / ``jit=`` a workload's ``why`` in BENCHMARK.json declares."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {"engine": None, "jit": None}
    why = next((w["why"] for w in spec.get("workloads", []) if w.get("name") == workload), "")
    found = {key: re.search(rf"\b{key}=([A-Za-z0-9_-]+)", why) for key in ("engine", "jit")}
    return {key: match.group(1) if match else None for key, match in found.items()}


def _git() -> dict[str, Any]:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"commit": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"commit": commit, "dirty": bool(status.strip())}


def provenance(workload: str, units: Sequence[Any]) -> dict[str, Any]:
    """What actually ran, next to what BENCHMARK.json declares for the workload."""
    import numpy

    from repro.kernels import availability

    engines: dict[str, int] = {}
    jit: set[str] = set()
    workers: set[Any] = set()
    for unit in units:
        for engine, points in unit.engines.items():
            engines[engine] = engines.get(engine, 0) + points
        jit |= unit.jit
        workers |= unit.workers_requested
    kernels = availability()
    declared = _declaration(workload)
    mismatches = []
    if set(engines) != {declared["engine"]}:
        mismatches.append(f"resolved engines {sorted(engines)} != declared {declared['engine']!r}")
    if jit != {declared["jit"]}:
        mismatches.append(f"jit status {sorted(jit)} != declared {declared['jit']!r}")
    return {
        "declared": declared,
        "resolved_engine_points": engines,
        "jit": sorted(jit),
        "kernels": {
            "compiled": kernels.enabled,
            "reason": kernels.reason,
            "numba_version": kernels.numba_version,
        },
        "workers_requested": sorted(workers, key=str),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": _git(),
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------- runs


def _failures(units: Sequence[Any]) -> dict[tuple[int, int], list[str]]:
    """(unit, operation) -> what failed, including digest mismatches against unit 0.

    Same seed, same rows: every operation's result digest must equal the
    first unit's.
    """
    failed: dict[tuple[int, int], list[str]] = {}
    for number, unit in enumerate(units):
        for op, message in unit.failures:
            failed.setdefault((number, op), []).append(message)
        for op, (want, got) in enumerate(zip(units[0].op_digests, unit.op_digests)):
            if want is not None and got is not None and want != got:
                failed.setdefault((number, op), []).append("result rows differ from unit 0")
    return failed


def run_untraced(
    workload: Any, seed: int, seconds: float, work_dir: Path, report: Report
) -> tuple[list[Any], list[float]]:
    """Set-up probes, then whole units while they fit in ``seconds``; returns both."""
    setup = [_probe_setup(workload.name, work_dir) for _ in range(SETUP_PROBES)]
    workload.setup(work_dir)
    units = []
    started = time.perf_counter()
    while len(units) < MAX_UNITS:
        units.append(workload.run_unit(seed, work_dir, None))
        elapsed = time.perf_counter() - started
        next_unit = statistics.median(unit.wall_s for unit in units)
        if len(units) >= MIN_UNITS and elapsed + next_unit > seconds:
            break
    walls = [unit.wall_s for unit in units]
    wall = statistics.median(walls)
    latencies = [ms for unit in units for ms in unit.latencies_ms]
    nominal = units[0].nominal_interactions
    valid = sum(unit.valid for unit in units)
    checked = sum(unit.checked for unit in units)
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    report.add("setup_s", statistics.median(setup), "s",
               f"median of {len(setup)} fresh-interpreter set-ups")
    report.add("wall_s", wall, "s", f"median of {len(walls)} units")
    report.add("interactions_per_s", nominal / wall, "1/s",
               f"base: {nominal} nominal interactions per unit / wall_s, {len(walls)} units")
    if latencies:
        report.add("request_p50_ms", statistics.median(latencies), "ms",
                   f"median of {len(latencies)} operations")
        pct, value, qualifies = tail_percentile(latencies)
        detail = f"p{pct} of {len(latencies)} operations"
        if not qualifies and len(latencies) > TAIL_SAMPLES:
            detail += (f"; p95 has fewer than {TAIL_SAMPLES} samples beyond it, "
                       "so this is the highest percentile that has")
        elif not qualifies:
            detail += (f"; no percentile has {TAIL_SAMPLES} samples beyond it, "
                       "so this is the median")
        report.add("request_p95_ms", value, "ms", detail)
    report.add("peak_rss_mb", rss_kib / 1024.0, "MB", "1 sample: max of self and children")
    if checked:
        report.add("valid_fraction", valid / checked, "ratio",
                   f"base: {valid} valid / {checked} checked units")
    return units, setup


def _layer_metrics(
    tracer: Any, unit: Any, window: tuple[float, float], base_wall: float, report: Report
) -> None:
    from perfbench import tracing

    totals = tracing.layer_totals(tracer.spans)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    for name in (
        "rng.ordered_pairs", "rng.ordered_pair_matrix", "vectorized.interact_batch",
        "vectorized.interact_ensemble", "counts.step", "counts.apply", "counts.multiset_sample",
        "snapshot.quantiles", "resize", "registry.make_engine", "figures.run_estimate_trace",
        "runner.run_engine_trials", "scenarios.run_scenario", "checkpoint.write",
        "checkpoint.read", "serve.submit", "serve.keys", "serve.cache.get", "serve.cache.put",
        "serve.result_payload",
    ):
        report.add(f"{name}.self_s", self_s(name), "s", f"{calls(name)} calls")
    for name in ("rng.ordered_pairs", "vectorized.interact_batch", "snapshot.quantiles",
                 "resize", "checkpoint.write"):
        report.add(f"{name}.calls", calls(name), "count", "1 traced unit")
    interactions = tracer.counters["vectorized.interact_batch.interactions"]
    report.add("vectorized.interact_batch.ns_per_interaction",
               self_s("vectorized.interact_batch") * 1e9 / interactions if interactions else 0.0,
               "ns", f"base: {int(interactions)} interactions in "
               f"{calls('vectorized.interact_batch')} calls")
    states = tracer.samples["counts.states"]
    report.add("counts.states_mean", statistics.fmean(states) if states else 0.0, "count",
               f"mean of {len(states)} counts steps")
    for engine in ENGINES:
        report.add(f"registry.engine_points.{engine}", unit.engines.get(engine, 0), "count",
                   "points resolved to this engine in 1 traced unit")
    shards = int(tracer.counters["parallel.shards"])
    report.add("parallel.shards", shards, "count",
               f"{calls('parallel.execute_shards')} execute_shards calls")
    report.add("parallel.shard_compute_s", tracer.counters["parallel.shard_compute_s"], "s",
               f"sum over {shards} shards")
    report.add("parallel.dispatch_overhead_s", tracer.counters["parallel.dispatch_overhead_s"],
               "s", f"execute_shards wall - slowest shard, {calls('parallel.execute_shards')} calls")
    report.add("checkpoint.write.bytes", tracer.counters["checkpoint.write.bytes"], "B",
               f"{calls('checkpoint.write')} writes")
    report.add("serve.cache.put.bytes", tracer.counters["serve.cache.put.bytes"], "B",
               f"{calls('serve.cache.put')} puts")
    report.add("serve.cache.hit_ratio", unit.hits / unit.submits if unit.submits else 0.0,
               "ratio", f"base: {unit.hits} hits / {unit.submits} submits")
    report.add("serve.jobs.queue_wait_s", unit.queue_wait_s, "s", "summed over the unit's jobs")
    report.add("serve.jobs.run_s", unit.job_run_s, "s", "summed over the unit's jobs")
    report.add("trace.uncovered_s", tracing.uncovered_seconds(tracer.spans, *window), "s",
               f"of the traced unit's {window[1] - window[0]:.3f} s wall, not covered by any span")
    report.add("trace.overhead_ratio", unit.wall_s / base_wall, "ratio",
               f"base: traced wall {unit.wall_s:.3f} s / untraced wall {base_wall:.3f} s, "
               "1 unit each")


def run_traced(workload: Any, seed: int, work_dir: Path, report: Report) -> list[Any]:
    """Untraced, traced, untraced unit; the overhead compares the last two.

    A process's first unit is slower than later ones (allocator and cache
    warm-up), so it only warms up and is not compared.
    """
    from perfbench import tracing

    workload.setup(work_dir)
    first = workload.run_unit(seed, work_dir, None)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        started = time.perf_counter()
        unit = workload.run_unit(seed, work_dir, tracer)
        ended = time.perf_counter()
    base = workload.run_unit(seed, work_dir, None)
    _layer_metrics(tracer, unit, (started, ended), base.wall_s, report)
    print(f"tracing overhead {workload.name}: traced/untraced wall = "
          f"{unit.wall_s / base.wall_s:.4f} (1 unit each, {len(tracer.spans)} spans)")
    tracing.write_spans(tracer.spans, work_dir / "spans.jsonl.gz")
    return [first, unit, base]


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own interpreter; metric lines only."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
            )
            print("\n".join(done.stdout.rstrip("\n").splitlines()[:-1]), flush=True)
            status = status or done.returncode
    return status


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload of BENCHMARK.json, or 'all' to run each"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        workload.setup(args.setup_probe)
        return 0

    work_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    report = Report(workload.name)
    setup: list[float] = []
    if args.trace:
        units = run_traced(workload, args.seed, work_dir, report)
    else:
        units, setup = run_untraced(workload, args.seed, args.seconds, work_dir, report)
    failures = _failures(units)
    attempted = sum(unit.attempted for unit in units)
    report.add("failed_ops_ratio", len(failures) / attempted, "ratio",
               f"base: {len(failures)} failed / {attempted} attempted operations", emit=False)
    record = provenance(workload.name, units)
    for mismatch in record["mismatches"]:
        print(f"provenance {workload.name}: FLAGGED {mismatch}")
    for (number, op), messages in sorted(failures.items()):
        print(f"check {workload.name}: FAILED unit {number} op {op}: {'; '.join(messages)}")
    (work_dir / "record.json").write_text(json.dumps(
        {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "provenance": record,
            "failures": {f"unit {n} op {op}": m for (n, op), m in sorted(failures.items())},
            "metrics": report.printed,
            "samples": {"setup_s": setup, "unit_wall_s": [unit.wall_s for unit in units]},
        },
        indent=2, sort_keys=True, default=str,
    ))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report.values,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
