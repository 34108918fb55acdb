"""Performance ledger v1: one workload, one process, one verdict.

    python3 benchmarks/ledger/run.py --workload paper_campaign_save \\
        --seed 11 --seconds 24 --trace 0

prints every end-to-end metric by name with its unit, checks every
unit's outputs, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is non-zero if a check failed.
``--trace 1`` is the separate traced run behind the per-layer ledger;
``--repeat N`` makes N whole runs back to back and prints each metric's
median, quartiles and spread.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = (
    "paper_campaign_save",
    "paper_resume_warm",
    "train_160atom",
    "real_campaign_pool",
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="whole runs back to back, seeds --seed, --seed+1, ...",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the self-test"
    )
    return parser.parse_args(argv)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The contract's last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def run_once(args: argparse.Namespace) -> int:
    import harness

    harness.pin_threads()  # before NumPy loads; pool workers inherit it
    if not (harness.SRC / "repro").is_dir():
        print(f"no program to measure: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # a run told to end leaves through the ``finally`` below as well
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = harness.make_workdir(args.workload)  # while single-threaded
    sys.path.insert(0, str(harness.SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, workdir, smoke=args.smoke, traced=bool(args.trace)
    )
    harness.print_block("environment", harness.environment(workload.workdir))
    harness.print_block(
        "workload",
        {
            "name": workload.name,
            "seed": args.seed,
            "loop": "closed, one client",
            "why": workload.why,
        },
    )
    try:
        # set-up, in the three parts the report gives beside their sum
        clock = [_STARTED, time.perf_counter()]
        workload.setup()
        clock.append(time.perf_counter())
        warm_up = workload.run_unit(0)
        clock.append(time.perf_counter())
        if args.trace:
            return traced_run(args, harness, workload, warm_up)
        return plain_run(args, harness, workload, warm_up, clock)
    finally:
        try:
            workload.close()
        finally:
            harness.stop_children()


def verdict(workload, warm_up, units) -> tuple[list[str], int, int]:
    """(what failed, operations attempted, operations failed)."""
    problems = []
    if warm_up.error:
        problems.append(f"warm-up unit: {warm_up.error}")
    problems += [
        f"unit {i}: {u.error}" for i, u in enumerate(units, 1) if u.error
    ]
    final = workload.finish()
    if final:
        problems.append(f"after the last unit: {final}")
    if len({u.work for u in units}) != 1:
        problems.append("units disagree on their work count")
    attempted = sum(u.work for u in units)
    failed = sum(u.work for u in units if u.error)
    return problems, attempted, failed


def floor_of(harness, units, problems: list[str]) -> float:
    """``harness.unit_floor``, or the fastest unit and one more problem
    when the units were not cut into the same segments."""
    try:
        return harness.unit_floor(units)
    except ValueError as exc:
        problems.append(str(exc))
        return min(u.wall for u in units)


def plain_run(args, harness, workload, warm_up, clock: list[float]) -> int:
    deadline = time.perf_counter() + args.seconds
    units = harness.run_units(workload, 1, count=workload.min_units)
    # memory at a fixed amount of work, not at the end of the run: a
    # pool worker grows with every unit, and a faster host fits more
    peak_rss = harness.peak_rss_mb()
    units += harness.run_units(workload, len(units) + 1, until=deadline)
    problems, attempted, failed = verdict(workload, warm_up, units)
    walls = [u.wall for u in units]
    q1, median, _ = harness.quartiles(walls)
    unit_wall = floor_of(harness, units, problems)
    metrics = {
        "setup_s": (clock[-1] - clock[0], "s"),
        "unit_wall_s": (unit_wall, "s"),
        "work_per_s": (units[0].work / unit_wall, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    harness.print_metrics("end to end", metrics)
    harness.print_metrics(
        "harness",
        {
            "harness.units": (len(units), "count"),
            "harness.segments_per_unit": (len(units[0].segments), "count"),
            "harness.timed_region_s": (sum(walls), "s"),
            "harness.unit_wall_min_s": (min(walls), "s"),
            "harness.unit_wall_lower_quartile_s": (q1, "s"),
            "harness.unit_wall_median_s": (median, "s"),
            "harness.unit_wall_max_s": (max(walls), "s"),
            "harness.unit_spread": (harness.relative_spread(walls), "1"),
            "harness.setup_imports_s": (clock[1] - clock[0], "s"),
            "harness.setup_inputs_s": (clock[2] - clock[1], "s"),
            "harness.setup_warm_up_unit_s": (clock[3] - clock[2], "s"),
            **{k: (v, "s") for k, v in workload.setup_facts.items()},
        },
    )
    print(f"  unit walls [s]: {[round(w, 3) for w in walls]}")
    harness.print_block(
        "operations",
        {
            "operation": f"one {workload.operation}",
            "work_per_unit": units[0].work,
            "attempted": attempted,
            "failed": failed,
            "scored_maxint_by_design_per_unit": units[0].maxint,
            "checks": "all passed" if not problems else problems,
            "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        },
    )
    emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


def traced_run(args, harness, workload, warm_up) -> int:
    import layers
    from spans import SpanRecorder, installed

    # the untraced reference of this very process: two plain units
    # (overhead ratios of single units drown in the host's noise)
    plain = harness.run_units(workload, 1, count=2)
    recorder = SpanRecorder()
    roots = (harness.SRC / "repro", harness.LEDGER_DIR)
    with installed(recorder, layers.targets(), roots), workload.tracing():
        units = harness.run_units(
            workload,
            3,
            count=2 if args.smoke else workload.traced_units,
            recorder=recorder,
        )
    spans = recorder.all_spans()
    problems, attempted, failed = verdict(workload, warm_up, [*plain, *units])
    plain_wall = floor_of(harness, plain, problems)
    values = layers.blank()
    values.update(
        layers.campaign_plane(
            spans,
            recorder.counts,
            recorder.seen["engines"],
            [u.facts for u in units],
        )
    )
    values.update(layers.trainer_plane(spans, recorder.counts))
    values.update(workload.setup_facts)
    values.update(workload.probes(plain_wall, units))
    walls = [u.wall for u in units]
    values.update(
        {
            "harness.units": float(len(units)),
            "harness.unit_wall_median_s": harness.quartiles(walls)[1],
            "harness.unit_wall_max_s": max(walls),
            "harness.unit_spread": harness.relative_spread(walls),
            # like against like: as many wrapped units as plain ones
            "harness.trace_overhead_ratio": (
                floor_of(harness, units[: len(plain)], problems) / plain_wall
            ),
        }
    )
    unknown = sorted(set(values) - set(layers.UNITS))
    if unknown:
        problems.append(f"undeclared per-layer metrics: {unknown}")
    out = harness.ROOT / "bench-reports" / "ledger" / f"{workload.name}.spans.jsonl"
    written = recorder.write_jsonl(out)
    metrics = {
        name: (float(values[name]), unit)
        for name, unit in layers.UNITS.items()
    }
    harness.print_metrics("per layer", metrics)
    harness.print_block(
        "trace",
        {
            "spans": written,
            "written_to": out,
            "plain_unit_wall_s": round(plain_wall, 6),
            "traced_units": len(units),
            "checks": "all passed" if not problems else problems,
            "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        },
    )
    emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


def repeat(args: argparse.Namespace) -> int:
    """N whole runs, each its own process and seed, then the spread of
    every metric — the way the driver judges steadiness."""
    import harness

    runs: list[dict] = []
    for i in range(args.repeat):
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed + i),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        # the harness.* lines ride along, so their spread shows too
        for found in re.finditer(
            r"^  (harness\.\w+) +([0-9.]+) +(\S+)$", done.stdout, re.MULTILINE
        ):
            runs[-1]["metrics"].setdefault(
                found[1], {"value": float(found[2]), "unit": found[3]}
            )
        line = "  ".join(
            f"{name}={m['value']:.4f}"
            for name, m in runs[-1]["metrics"].items()
            if not args.trace and not name.startswith("harness.")
        )
        print(f"run {i + 1}/{args.repeat} seed {args.seed + i}: {line}",
              flush=True)
    print(f"[{args.workload}: {args.repeat} runs]")
    print(f"  {'metric':<44}{'p25':>14}{'median':>14}{'p75':>14}{'spread':>9}")
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = harness.quartiles(values)
        print(
            f"  {name + ' [' + first['unit'] + ']':<44}"
            f"{q1:>14.5f}{q2:>14.5f}{q3:>14.5f}"
            f"{harness.relative_spread(values):>9.4f}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    return repeat(args) if args.repeat > 1 else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
