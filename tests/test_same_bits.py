"""``tools/same_bits.py``: the one comparison, its normaliser, and seed 7
of the matrix.

``compare`` must see every bit of a record (a one-ulp fitness, one
genome byte, the order of records, the config's mode); the ``--against``
normaliser must mask exactly what differs between any two runs (``ts``,
``uuid``, ``uuids``, ``dedup_of``) and nothing else.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.io import load_campaign, save_campaign
from repro.store import CachedProblem, CampaignJournal, EvaluationCache
from repro.store.journal import journal_path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
_spec = importlib.util.spec_from_file_location("same_bits", TOOL)
same_bits = sys.modules["same_bits"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)

CFG = CampaignConfig(n_runs=2, pop_size=6, generations=2, base_seed=7)


def _campaign(directory: Path):
    """Run CFG with a journal and a cache under ``directory`` and save it."""
    cache = EvaluationCache(directory / "cache")
    with CampaignJournal(
        journal_path(directory), problem_spec={"backend": "surrogate"}
    ) as journal:
        result = Campaign(
            lambda seed: CachedProblem(
                SurrogateDeepMDProblem(seed=seed), cache
            ),
            CFG,
            journal=journal,
        ).run()
    save_campaign(result, directory)
    return result


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("saved") / "a"
    _campaign(directory)
    return directory


def _edited(saved, tmp_path, edit):
    result = load_campaign(saved)
    edit(result)
    save_campaign(result, tmp_path / "b")
    return same_bits.compare(str(saved), str(tmp_path / "b"))


def test_compare_passes_a_faithful_copy(saved, tmp_path, capsys):
    assert _edited(saved, tmp_path, lambda result: None) == 0
    assert "same bits" in capsys.readouterr().out


def _one_ulp(result):
    ind = result.runs[1][2].evaluated[3]
    ind.fitness = ind.fitness.copy()
    ind.fitness[1] = np.nextafter(ind.fitness[1], np.inf)


def _genome_byte(result):
    ind = result.runs[0][1].population[0]
    ind.genome = ind.genome.copy()
    ind.genome.view(np.uint8)[0] ^= 1


def _swap_records(result):
    run = result.runs[0]
    run[1], run[2] = run[2], run[1]


def _mode(result):
    result.config = dataclasses.replace(result.config, mode="pso")


@pytest.mark.parametrize(
    "edit, where",
    [
        (_one_ulp, "run 1 gen 2: evaluated differs"),
        (_genome_byte, "run 0 gen 1: population differs"),
        (_swap_records, "run 0 gen 2: the other side's record is gen 1"),
        (_mode, "configs differ in ['mode']"),
    ],
    ids=["one-ulp-fitness", "genome-byte", "swapped-records", "mode"],
)
def test_compare_fails_on_any_changed_bit(
    saved, tmp_path, capsys, edit, where
):
    assert _edited(saved, tmp_path, edit) == 1
    assert where in capsys.readouterr().out


def test_compare_ignores_how_evaluations_were_dispatched(saved, tmp_path):
    def chunked(result):
        result.config = dataclasses.replace(result.config, batch_evals=True)

    assert _edited(saved, tmp_path, chunked) == 0


# ----------------------------------------------------------------------
# the --against normaliser
# ----------------------------------------------------------------------
def _ran(directory, stdout="Table 2\n1  0.0381\n"):
    return same_bits.Ran(same_bits.CELLS[0], directory, stdout, [])


def test_two_runs_differ_only_in_masked_values(saved, tmp_path):
    """A second run of the same campaign writes other ``ts`` and
    ``uuid`` values, and nothing else that differs."""
    _campaign(tmp_path / "b")
    assert (tmp_path / "b" / "journal.jsonl").read_text() != (
        saved / "journal.jsonl"
    ).read_text()
    assert same_bits.differences(_ran(saved), _ran(tmp_path / "b")) == []


def test_the_normaliser_sees_one_cache_byte_and_one_stdout_line(
    saved, tmp_path
):
    other = tmp_path / "b"
    shutil.copytree(saved, other)
    changed = _ran(other, "Table 2\n1  0.0382\n")
    assert same_bits.differences(_ran(saved), changed) == ["stdout differs"]
    entry = sorted((other / "cache").rglob("*.json"))[5]
    data = bytearray(entry.read_bytes())
    data[-3] ^= 1
    entry.write_bytes(bytes(data))
    assert same_bits.differences(_ran(saved), _ran(other)) == [
        f"cache/{entry.relative_to(other / 'cache')} differs"
    ]


@pytest.mark.parametrize(
    "a, b, same",
    [
        # every masked key, including a list of uuids and a torn line
        ('{"type": "x", "ts": 1.5, "n": 1}',
         '{"type": "x", "ts": 17.25, "n": 1}', True),
        ('{"uuid": "ab", "metadata": {"dedup_of": "cd"}}',
         '{"uuid": "ef", "metadata": {"dedup_of": "01"}}', True),
        ('{"uuids": ["a", "b"], "fitness": [[1.0, 2.0]]}',
         '{"uuids": ["c", "d"], "fitness": [[1.0, 2.0]]}', True),
        ('{"type": "run_end", "ts": 2.0, "run": 0',
         '{"type": "run_end", "ts": 3.5, "run": 0', True),
        # and nothing else
        ('{"ts": 1.5, "n": 1}', '{"ts": 1.5, "n": 2}', False),
        ('{"uuids": ["a"], "fitness": [[1.0, 2.0]]}',
         '{"uuids": ["a"], "fitness": [[1.0, 2.5]]}', False),
        ('{"metadata": {"dedup_of": null, "failed": false}}',
         '{"metadata": {"dedup_of": null, "failed": true}}', False),
    ],
)
def test_journal_mask(a, b, same):
    masked = [same_bits.VOLATILE.sub(r'"\1": _', line) for line in (a, b)]
    assert (masked[0] == masked[1]) is same


# ----------------------------------------------------------------------
# seed 7 of the matrix
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_seed_7_matrix_inline_and_on_a_pool(tmp_path):
    """Every mode cold, warm and resumed from a 45 % journal, inline, and
    generational on a 2-worker pool: the rules hold in every cell."""
    cells = [
        cell
        for cell in same_bits.CELLS
        if cell.name.endswith(("s7/cold", "s7/warm", "s7/resume"))
        or cell.name == "generational/s7/pool"
    ]
    assert len(cells) == 13
    ran = same_bits.run_cells(cells, tmp_path)
    assert same_bits.check(ran) == {cell.name: [] for cell in cells}
    # the warm rule is not vacuous: at seed 7 every mode has failures,
    # which the cache never kept and the warm run misses again
    warm = [
        same_bits.cache_stats(r.stdout)
        for name, r in ran.items()
        if name.endswith("/warm")
    ]
    assert len(warm) == 4
    assert all(stats["skipped_failures"] > 0 for stats in warm)
