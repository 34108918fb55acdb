"""The benchmark runner and CI regression gate.

Runs the machine-readable perf benches and writes one JSON report per
bench (``BENCH_engine.json``, ``BENCH_nsga2.json``, ...).  With ``--check``
it compares each report's ``metrics`` block against the committed
``benchmarks/baselines.json`` and exits non-zero when any metric
regresses beyond its tolerance — the CI ``bench-gate`` job runs
exactly this.

Baselines are deliberately *same-machine ratios* (pool speedup over
inline, vectorized speedup over scalar) rather than absolute
wall-clock numbers, so the gate is robust to CI hardware changing
underneath it.  Each baseline entry carries::

    {"value": <reference>, "direction": "higher"|"lower", "tolerance": 0.25}

``direction: higher`` means bigger is better — the gate fails when the
measured value drops below ``value * (1 - tolerance)``; ``lower``
mirrors that.  To refresh the baselines after an intentional
performance change, run::

    python benchmarks/runner.py --quick --write-baselines

and commit the updated ``benchmarks/baselines.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.ledger.harness import pin_threads

BASELINES_PATH = Path(__file__).parent / "baselines.json"

#: bench name -> (module runner, report filename)
BENCHES = {
    "engine": "BENCH_engine.json",
    "nsga2": "BENCH_nsga2.json",
    "obs": "BENCH_obs.json",
    "mo": "BENCH_mo.json",
    "store": "BENCH_store.json",
    "training": "BENCH_training.json",
}


def _run_bench(name: str, quick: bool) -> dict:
    if name == "engine":
        from benchmarks.bench_engine_throughput import run
    elif name == "obs":
        from benchmarks.bench_obs_overhead import run
    elif name == "mo":
        from benchmarks.bench_mo_metrics import run
    elif name == "store":
        from benchmarks.bench_store import run
    elif name == "training":
        from benchmarks.bench_real_training import run
    else:
        from benchmarks.bench_nsga2_kernels import run
    return run(quick=quick)


def check_metrics(
    measured: dict[str, float], baselines: dict[str, dict]
) -> list[str]:
    """Regression messages for every gated metric (empty = pass).

    Metrics present in the report but absent from the baselines are
    ignored (informational); baselined metrics missing from the report
    fail loudly so a renamed metric can't silently disable its gate.
    """
    failures = []
    for name, spec in baselines.items():
        if name not in measured:
            failures.append(f"{name}: baselined but not measured")
            continue
        value = float(measured[name])
        ref = float(spec["value"])
        tol = float(spec.get("tolerance", 0.25))
        direction = spec.get("direction", "higher")
        if direction == "higher":
            floor = ref * (1.0 - tol)
            if value < floor:
                failures.append(
                    f"{name}: {value:.3f} < floor {floor:.3f} "
                    f"(baseline {ref:.3f}, tolerance {tol:.0%})"
                )
        else:
            ceiling = ref * (1.0 + tol)
            if value > ceiling:
                failures.append(
                    f"{name}: {value:.3f} > ceiling {ceiling:.3f} "
                    f"(baseline {ref:.3f}, tolerance {tol:.0%})"
                )
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workloads (seconds instead of minutes)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if any metric regresses vs benchmarks/baselines.json",
    )
    parser.add_argument(
        "--write-baselines",
        action="store_true",
        help="refresh benchmarks/baselines.json from this run",
    )
    parser.add_argument(
        "--only",
        choices=sorted(BENCHES),
        default=None,
        help="run a single bench",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for the BENCH_*.json reports",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [args.only] if args.only else sorted(BENCHES)

    # one BLAS thread for every bench, as the ledger runs: set before
    # the first bench loads NumPy, or the training bench's own pin
    # comes too late (its GEMM-bound step is a gated denominator)
    pin_threads()
    measured: dict[str, float] = {}
    for name in names:
        report = _run_bench(name, quick=args.quick)
        out = out_dir / BENCHES[name]
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"[{name}] report written to {out}")
        for metric, value in report["metrics"].items():
            print(f"[{name}]   {metric} = {value:.3f}")
            measured[metric] = value

    if args.write_baselines:
        if BASELINES_PATH.exists():
            baselines = json.loads(BASELINES_PATH.read_text())
        else:
            baselines = {}
        for metric, value in measured.items():
            spec = baselines.get(
                metric, {"direction": "higher", "tolerance": 0.25}
            )
            spec["value"] = round(float(value), 3)
            baselines[metric] = spec
        BASELINES_PATH.write_text(
            json.dumps(baselines, indent=2, sort_keys=True) + "\n"
        )
        print(f"baselines refreshed in {BASELINES_PATH}")

    if args.check:
        if not BASELINES_PATH.exists():
            print("no baselines.json to check against", file=sys.stderr)
            return 2
        baselines = json.loads(BASELINES_PATH.read_text())
        if args.only:
            # partial runs only gate the metrics they measured
            baselines = {
                k: v for k, v in baselines.items() if k in measured
            }
        failures = check_metrics(measured, baselines)
        if failures:
            for message in failures:
                print(f"REGRESSION {message}", file=sys.stderr)
            return 1
        print(f"bench gate passed ({len(baselines)} metric(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
