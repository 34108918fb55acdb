"""Same bits: a campaign gives the same answer however it is run.

    python tools/same_bits.py compare A B
    python tools/same_bits.py matrix [--against REF]

``compare`` checks two directories ``repro-hpo run --save`` wrote: the
configs, the runs, and every record's generation index and population
and evaluated genomes and fitness as bytes
(:func:`repro.chaos.verify_resume_equivalence`).  It reads the saved
snapshot, not the journal, which a chaos run tears on purpose.

``matrix`` runs the standard cells through the CLI (``CELLS``: every
mode at every seed cold, warm over a copy of the cold cache, resumed
from the cold journal cut at 45 % of its bytes, on a 2-worker pool and
on a 2-worker fleet, plus the kill and chaos cases), prints one verdict
per cell and exits non-zero unless:

* every cell holds the bits of its mode's inline cold cell, but for
  steady-state on a pool or fleet, which only has to finish: its
  completion order is part of its bytes;
* every warm cell inserts nothing and misses only the failures the
  cache never kept;
* every chaos cell prints ``chaos invariants: OK`` and saves its plan;
* every kill step exits 137.

``--against REF`` also runs the cells from ``git archive REF`` and
compares each one with its twin here: stdout (cell directory masked),
the journal (``ts`` / ``uuid`` / ``uuids`` / ``dedup_of`` masked) and
the cache entry files, byte for byte.  Bits depend on the CPU as well
as the code (numpy's SIMD ``exp``/``log`` differ in the last ulp across
instruction sets), so the trees are compared on one host and no
digests are stored.  Scratch goes under ``$TMPDIR``.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.chaos import verify_resume_equivalence  # noqa: E402

SEEDS = (7, 11, 2023)
MODES = ("generational", "steady-state", "pso", "surrogate")
SIZE = ("--runs", "2", "--pop-size", "12", "--generations", "3")
#: share of the cold journal's bytes a resume cell starts from
CUT = 0.45
KILL = ("--kill-after-evals", "20")  # a killed campaign exits 137
POOL = ("--backend", "pool", "--pool-workers", "2")
FLEET = ("--backend", "fleet", "--pool-workers", "2")
#: journal keys whose values differ between any two runs
VOLATILE = re.compile(
    r'"(ts|uuid|uuids|dedup_of)": (\[[^\]]*\]|"[^"]*"|[^,}]+)'
)


@dataclass
class Cell:
    """One campaign: ``run`` steps save to the cell's directory and
    ``resume`` steps resume it."""

    name: str
    steps: list[tuple[str, ...]]
    #: the cell whose bits this one must hold (None: no equality rule)
    twin: Optional[str] = None
    #: start from a copy of another cell: ``("warm", cell)`` copies its
    #: cache, ``("cut", cell)`` its directory with the journal cut
    start: Optional[tuple[str, str]] = None
    note: str = ""


def _cells() -> list[Cell]:
    cells = []
    for seed in SEEDS:
        for mode in MODES:
            at = f"{mode}/s{seed}"
            run = ("run", *SIZE, "--seed", str(seed), "--mode", mode)
            cold = f"{at}/cold"
            parallel = {"twin": cold}
            if mode == "steady-state":
                parallel = {"note": "exempt: completion order is in its bytes"}
            cells += [
                Cell(cold, [run]),
                Cell(f"{at}/warm", [run], cold, ("warm", cold)),
                Cell(f"{at}/resume", [("resume",)], cold, ("cut", cold)),
                Cell(f"{at}/pool", [(*run, *POOL)], **parallel),
                Cell(f"{at}/fleet", [(*run, *FLEET)], **parallel),
            ]
            if seed == 7:
                cells += [
                    Cell(f"{at}/{name}", steps, cold)
                    for name, steps in _kill_and_chaos(mode, run)
                ]
    return cells


def _kill_and_chaos(mode: str, run: tuple[str, ...]):
    """The kill and chaos cases CI has always run."""
    yield "kill", [(*run, *KILL), ("resume",)]
    if mode == "steady-state":
        yield "kill-no-cache", [
            (*run, "--no-cache", *KILL), ("resume", "--no-cache"),
        ]
    if mode in ("pso", "surrogate"):
        yield "chaos-11", [(*run, "--chaos-seed", "11")]
    if mode == "generational":
        yield "chaos-kill", [
            (*run, "--chaos-seed", "11", *KILL),
            ("resume", "--chaos-seed", "12"),
        ]
        # a tear at append 0 leaves no journal record readable
        yield "chaos-4", [(*run, "--chaos-seed", "4")]
        yield "chaos-4-pool", [(*run, *POOL, "--chaos-seed", "4")]
        yield "pool-4-chunked", [(
            *run, "--no-cache", "--backend", "pool", "--pool-workers", "4",
            "--batch-evals",
        )]
        # every worker revoked (--chaos-revoke 1,3 takes both), then
        # the last resort runs the backlog in the driver's process
        yield "fleet-revoke-all", [(
            *run, "--no-cache", *FLEET, "--max-workers", "4",
            "--speculate", "--chaos-revoke", "1,3",
        )]


CELLS = _cells()


@dataclass
class Ran:
    """What one cell left: its directory, stdout, and failed steps."""

    cell: Cell
    directory: Path
    stdout: str
    problems: list[str]


def _run_cell(cell: Cell, work: Path, src: Path) -> Ran:
    directory = work / cell.name
    if cell.start is not None:
        how, source = cell.start
        if how == "warm":
            shutil.copytree(work / source / "cache", directory / "cache")
        else:
            shutil.copytree(work / source, directory)
            for name in ("campaign.json", "arrays.npz"):
                (directory / name).unlink()
            journal = directory / "journal.jsonl"
            data = journal.read_bytes()
            journal.write_bytes(data[: int(len(data) * CUT)])
    directory.parent.mkdir(parents=True, exist_ok=True)
    stdout, problems = [], []
    for command, *flags in cell.steps:
        argv = [command, str(directory), *flags]
        if command == "run":
            argv = [command, *flags, "--save", str(directory)]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.hpo.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            cwd=work, capture_output=True, text=True,
        )
        want = 137 if KILL[0] in argv else 0
        if proc.returncode != want:
            tail = proc.stderr.strip().splitlines()[-1:]
            problems.append(f"{command} exited {proc.returncode} {tail}")
        stdout.append(proc.stdout.replace(str(directory), "<dir>"))
    return Ran(cell, directory, "".join(stdout), problems)


def run_cells(cells: list[Cell], work: Path, src: Path = ROOT / "src"):
    """Run ``cells`` under ``work`` from the tree at ``src``: each
    mode-and-seed group in order, two groups at a time."""
    groups = groupby(cells, lambda c: c.name.rsplit("/", 1)[0])
    with ThreadPoolExecutor(2) as pool:
        done = pool.map(
            lambda group: [_run_cell(c, work, src) for c in group],
            [list(group) for _, group in groups],
        )
        return {ran.cell.name: ran for group in done for ran in group}


def cache_stats(stdout: str) -> dict:
    line = re.search(r"evaluation cache: (\{.*\})", stdout)
    return ast.literal_eval(line.group(1)) if line else {}


def check(ran: dict[str, Ran]) -> dict[str, list[str]]:
    """The matrix rules, per cell."""
    verdicts = {}
    for name, here in ran.items():
        cell, problems = here.cell, list(here.problems)
        if cell.twin is not None and ran[cell.twin].problems:
            problems.append(f"{cell.twin} failed")
        elif cell.twin is not None and not problems:
            problems += map(str, verify_resume_equivalence(
                ran[cell.twin].directory, here.directory
            ))
        if cell.start and cell.start[0] == "warm":
            stats = cache_stats(here.stdout)
            if stats.get("inserts") != 0 or (
                stats["misses"] != stats["skipped_failures"]
            ):
                problems.append(f"warm cache stats {stats}")
        if any(flag.startswith("--chaos") for flag in cell.steps[-1]):
            if "chaos invariants: OK" not in here.stdout:
                problems.append("chaos invariants not OK")
            if not any(here.directory.glob("chaos_plan_*.json")):
                problems.append("no saved fault plan")
        verdicts[name] = problems
    return verdicts


def artifacts(ran: Ran) -> dict[str, object]:
    """A cell's stdout, masked journal and cache entry files."""
    out: dict[str, object] = {"stdout": ran.stdout}
    journal = ran.directory / "journal.jsonl"
    if journal.exists():
        out["journal"] = VOLATILE.sub(r'"\1": _', journal.read_text())
    for entry in sorted(ran.directory.glob("cache/*/*")):
        out[entry.relative_to(ran.directory).as_posix()] = entry.read_bytes()
    return out


def differences(here: Ran, there: Ran) -> list[str]:
    a, b = artifacts(here), artifacts(there)
    return [f"{key} differs" for key in sorted(a.keys() | b.keys())
            if a.get(key) != b.get(key)]


def matrix(against: Optional[str] = None) -> int:
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        ran = run_cells(CELLS, Path(tmp, "head"))
        verdicts = check(ran)
        if against is not None:
            tree = Path(tmp, "ref-tree")
            tree.mkdir()
            tar = subprocess.run(["git", "-C", str(ROOT), "archive", against],
                                 check=True, capture_output=True).stdout
            subprocess.run(["tar", "-xC", str(tree)], input=tar, check=True)
            ref = run_cells(CELLS, Path(tmp, "ref"), tree / "src")
            for name, problems in verdicts.items():
                if not ran[name].cell.note:
                    problems += [f"vs {against}: {d}"
                                 for d in differences(ran[name], ref[name])]
        for name, problems in verdicts.items():
            note = ran[name].cell.note
            print(f"{name:32} {'; '.join(problems) or 'ok'}"
                  + (f" ({note})" if note else ""))
        failed = sum(map(bool, verdicts.values()))
        print(f"{len(verdicts) - failed} of {len(verdicts)} cells ok")
        return 1 if failed else 0


def compare(a: str, b: str) -> int:
    violations = verify_resume_equivalence(Path(a), Path(b))
    for violation in violations:
        print(violation)
    print(f"{len(violations)} difference(s)" if violations else "same bits")
    return 1 if violations else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="compare two saved campaigns")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("matrix", help="run and check the standard cells")
    p.add_argument("--against", metavar="REF",
                   help="also compare every cell with its twin run at REF")
    args = parser.parse_args()
    if args.command == "compare":
        return compare(args.a, args.b)
    return matrix(args.against)


if __name__ == "__main__":
    sys.exit(main())
