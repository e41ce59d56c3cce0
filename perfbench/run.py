"""End-to-end LDV pipeline benchmark: one command, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit-dml --seed 1 --seconds 54 \\
        --trace 0

Each sample is one cycle of ``perfbench/cycle.py`` in a fresh
interpreter, one after another: a closed loop with one application
client and nothing else running. A run takes as many samples as
``--seconds`` holds at the workload's nominal cycle time, at least
one. Each sample makes its inputs from its own seed, derived from
``--seed`` and the sample's index, so a run's medians cover several
datasets. With ``--trace 1`` samples alternate traced and untraced, at
least one of each, and the run reports the per-layer table of the
traced samples plus the tracing overhead; end-to-end figures always
come from untraced samples.

The report lines describe the run; the last line of standard output is
the JSON result. The command exits 1 when any output check failed and
2 when it cannot run at all (for example without ``src/`` beside it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics, stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

STATE_DIR = ROOT / ".perfbench"
# a run must end within 180 s; stop starting samples this early
HARD_LIMIT_S = 165.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end LDV pipeline benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one cycle each way (for tests)")
    args = parser.parse_args(argv)
    # a terminated run unwinds: subprocess.run kills the running sample
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = STATE_DIR / "work" / f"{run_id}-{os.getpid()}"
    try:
        samples = collect(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = summarize(args, workload, samples)
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


def planned_samples(args, workload) -> int:
    """Samples in this run: as many cycles as ``--seconds`` holds at
    the workload's nominal cycle time; a traced run takes one traced
    and one untraced sample."""
    if args.trace:
        return 2
    if args.smoke:
        return 1
    return max(1, int(args.seconds // workload.cycle_s))


def collect(args, workload, workdir: Path) -> list[dict[str, Any]]:
    """Run the planned samples, traced and untraced in turn. On a
    machine slower than the nominal one, an untraced run stops early
    rather than overrun ``--seconds`` by more than a tenth."""
    samples: list[dict[str, Any]] = []
    started = time.perf_counter()
    longest = 0.0
    limit = HARD_LIMIT_S if args.trace else min(HARD_LIMIT_S,
                                                args.seconds * 1.1)
    for index in range(planned_samples(args, workload)):
        elapsed = time.perf_counter() - started
        if index and elapsed + longest > limit:
            break
        traced = bool(args.trace) and index % 2 == 0
        samples.append(run_sample(args, workdir, index, traced,
                                  HARD_LIMIT_S + 10 - elapsed))
        longest = max(longest, time.perf_counter() - started - elapsed)
    return samples


def sample_seed(args, index: int) -> int:
    """The seed of sample ``index``. A traced run's traced and untraced
    samples come in pairs on one seed, so the overhead compares like
    with like."""
    return args.seed * 1000 + (index // 2 if args.trace else index)


def run_sample(args, workdir: Path, index: int, traced: bool,
               timeout: float) -> dict[str, Any]:
    sample_dir = workdir / f"sample-{index}"
    out = workdir / f"sample-{index}.json"
    seed = sample_seed(args, index)
    command = [sys.executable, str(BENCH_DIR / "cycle.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--workdir", str(sample_dir),
               "--out", str(out)]
    if traced:
        command += ["--spans", str(STATE_DIR / "spans" / (
            f"{args.workload}-seed{seed}-sample{index}.jsonl"))]
    if args.smoke:
        command.append("--smoke")
    sample_dir.mkdir(parents=True, exist_ok=True)
    try:
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "seed": seed, "error": "sample timed out"}
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    if completed.returncode != 0 or not out.is_file():
        tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "seed": seed,
                "error": f"cycle exited {completed.returncode}: {tail[0]}"}
    sample = json.loads(out.read_text())
    sample.update(traced=traced, seed=seed)
    return sample


def summarize(args, workload, samples: list[dict[str, Any]]) -> dict:
    """Medians, checks and the report lines of one run."""
    attempted = failed = 0
    problems: list[str] = []
    for index, sample in enumerate(samples):
        if sample.get("error"):
            attempted += max(sample.get("attempted", 0), 1)
            failed += max(sample.get("failed", 0), 1)
            problems.append(f"sample {index}: {sample['error']}")
            continue
        attempted += sample["attempted"]
        failed += sample["failed"]
        problems += [f"sample {index}: {check}"
                     for check in sample["checks"]]
    good = [sample for sample in samples if not sample.get("error")]
    for key in ("package_digest", "answer_digest"):
        for seed in sorted({sample["seed"] for sample in good}):
            attempted += 1
            if not same_everywhere(args, key, seed, [
                    s[key] for s in good if s["seed"] == seed]):
                failed += 1
                problems.append(f"{key} of sample seed {seed} differs "
                                "between samples or from an earlier run")
    untraced = [sample for sample in good if not sample["traced"]]
    traced = [sample for sample in good if sample["traced"]]

    lines = stamp_lines(args, workload)
    lines.append(f"samples: {len(untraced)} untraced, {len(traced)} "
                 f"traced, {len(samples) - len(good)} failed")
    result_metrics: dict[str, dict[str, Any]] = {}
    if args.trace:
        table = layer_medians(traced, untraced)
        units = metrics.per_layer_units()
        for name, unit in units.items():
            result_metrics[name] = {"value": table.get(name, 0), "unit": unit}
            lines.append(f"  {name:34} {table.get(name, 0):>16.6g} {unit}")
    elif untraced:
        figures, counts = end_to_end(untraced, lines)
        gated = {name: unit for name, unit, _ in metrics.END_TO_END}
        units = {**gated, **dict(metrics.REPORTED)}
        for name, value in figures.items():
            if name in gated:
                result_metrics[name] = {"value": value, "unit": units[name]}
            lines.append(f"  {name:20} {value:>14.6f} {units[name]:5} "
                         f"(n={counts[name]})"
                         + ("" if name in gated else "  not gated"))
    failed_ratio = failed / attempted if attempted else 1.0
    lines.append(f"  {'failed_ratio':20} {failed_ratio:>14.6f} ratio "
                 f"({failed} of {attempted} operations)")
    for problem in problems:
        lines.append(f"FAILED: {problem}")
    correct = (not problems and failed == 0 and bool(good)
               and bool(untraced))
    return {"lines": lines,
            "result": {"correct": correct, "attempted": max(attempted, 1),
                       "failed": failed, "metrics": result_metrics}}


def end_to_end(samples: list[dict], lines: list[str]
               ) -> tuple[dict[str, float], dict[str, int]]:
    """Medians of the untraced samples. Timings are at reference speed
    (see ``perfbench.speed``); their wall-time medians are printed as
    ``<name>_wall``."""
    pooled = {name: flat(samples, name) for name in (
        *metrics.TIMINGS, "package_bytes", "peak_rss_mb", "speed_factor")}
    for name in metrics.TIMINGS:
        pooled[f"{name}_wall"] = [v for s in samples for v in s["wall"][name]]
    figures = {name: stats.median(values) for name, values in pooled.items()}
    counts = {name: len(values) for name, values in pooled.items()}
    latencies = [v for s in samples for v in s["stmt_ms"]]
    for pct in (50, 95):
        tail = stats.tail_report(latencies, pct)
        name = f"audit_stmt_p{pct}_ms"
        figures[name] = tail["value"]
        counts[name] = tail["samples"]
        if not tail["trusted"]:
            lines.append(f"note: {name} has only {tail['beyond']} samples "
                         f"beyond it (fewer than {stats.MIN_BEYOND})")
    order = ["setup_s", "setup_s_wall", "audit_s", "audit_s_wall",
             "audit_stmt_p50_ms", "audit_stmt_p95_ms", "package_bytes",
             "exec_s", "exec_s_wall", "exec_init_s", "exec_init_s_wall",
             "trace_query_s", "trace_query_s_wall", "peak_rss_mb",
             "speed_factor"]
    return ({name: figures[name] for name in order},
            {name: counts[name] for name in order})


def layer_medians(traced: list[dict], untraced: list[dict]
                  ) -> dict[str, float]:
    """Median of each per-layer value over the traced samples, plus the
    traced-over-untraced overhead ratios."""
    table: dict[str, float] = {}
    if traced:
        for name in traced[0]["layers"]:
            table[name] = stats.median([s["layers"][name] for s in traced])
    for key, name in (("audit_s", "trace.overhead.audit_ratio"),
                      ("exec_s", "trace.overhead.exec_ratio")):
        if traced and untraced:
            table[name] = (stats.median(flat(traced, key))
                           / stats.median(flat(untraced, key)))
    return table


def flat(samples: list[dict], key: str) -> list[float]:
    values: list[float] = []
    for sample in samples:
        value = sample[key]
        values += value if isinstance(value, list) else [value]
    return values


def same_everywhere(args, key: str, seed: int, values: list[str]) -> bool:
    """True when the samples on ``seed`` agree and agree with the value
    an earlier run of the same program, workload and seed recorded."""
    if not values:
        return True
    if len(set(values)) != 1:
        return False
    record_path = STATE_DIR / "digests.json"
    record = (json.loads(record_path.read_text())
              if record_path.is_file() else {})
    run_key = "|".join([args.workload, str(seed), str(args.smoke),
                        key, source_digest()])
    expected = record.setdefault(run_key, values[0])
    if expected == values[0]:
        temp = record_path.with_suffix(".tmp")
        temp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(temp, record_path)
    return expected == values[0]


def source_digest() -> str:
    """Digest of the program and benchmark sources: digests recorded
    by a different program version are never compared."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp_lines(args, workload) -> list[str]:
    return [
        f"workload: {workload.name}  seed: {args.seed}  "
        f"trace: {args.trace}  seconds: {args.seconds:g}",
        f"tpch: SF {workload.scale_factor}  query {workload.variant}  "
        f"inserts {workload.inserts}  selects {workload.selects}  "
        f"updates {workload.updates}  mode {workload.mode}",
        f"cycle: {workload.replays} ldv_exec + {workload.prepares} "
        f"prepare, {workload.query_sets} ldv-trace query set(s) with "
        f"{workload.dependency_pairs} depends_on pair(s)",
        f"host: {len(os.sched_getaffinity(0))} usable cores  "
        f"python {platform.python_version()}",
        "flush: WAL fsync per commit, no group commit; parallel_workers=1; "
        "closed loop, 1 client, 1 sample process at a time",
    ]


if __name__ == "__main__":
    sys.exit(main())
