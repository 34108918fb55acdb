"""Write-ahead campaign journal: strict JSONL, fsync on commit.

The paper's campaigns ran 12-hour batch jobs on a machine with known
node failures, yet the original persistence layer
(:mod:`repro.io.campaign_store`) only wrote a snapshot *after* a
campaign finished — a SIGKILL lost everything.  The journal instead
appends one self-contained record per event as the campaign runs:

``campaign_begin``
    schema version, campaign config, and the problem spec needed to
    rebuild the evaluator on resume.
``run_begin`` / ``run_resume`` / ``run_end``
    run boundaries with the per-run seed.
``generation``
    the full generation state — genomes, fitnesses, UUIDs, metadata
    for both the post-selection population and everything evaluated,
    the annealed mutation deviations, failure count, and the EA RNG
    state *after* the generation — appended (flushed and fsynced)
    before the generation is committed to the in-memory record list.
``evaluation``
    one completed candidate evaluation (genome, fitness, UUID,
    metadata) — a barrier-free driver's unit of progress, appended by
    the driver loop as each completion is told, since its next
    generation record can be a whole window away.
``campaign_end``
    normal completion marker.

Every line is strict JSON (floats round-trip bit-exactly through
Python's shortest-repr encoder; NaN/inf in metadata become null), so a
journal truncated at an arbitrary byte offset parses cleanly up to the
torn record and the resume engine continues from the last whole
generation (or, without a barrier, replays the journaled evaluations).
A SIGKILL therefore loses at most the in-flight evaluations of one
generation — and those are recoverable from the evaluation cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.evo.algorithm import GenerationRecord
from repro.evo.individual import Individual, RobustIndividual
from repro.injection import FaultInjector, get_injector
from repro.obs.metrics import get_registry

#: journal format version; readers skip records from future versions
JOURNAL_SCHEMA_VERSION = 1

#: conventional file name inside a campaign directory
JOURNAL_NAME = "journal.jsonl"


def journal_path(directory: str | Path) -> Path:
    return Path(directory) / JOURNAL_NAME


#: per-record latencies run from tens of microseconds (a run marker on
#: a warm page cache) to tens of milliseconds (a paper-size generation
#: on a busy disk)
COMMIT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)  # fmt: skip

_encode = json.JSONEncoder(allow_nan=False).encode


def _json_safe(value: Any) -> Any:
    """Strict-JSON coercion: numpy scalars/arrays to Python, NaN/inf
    to null, exotic objects to their ``str``."""
    # in order of how often a record holds them; numpy's abstract
    # scalar classes are slow to test against, so they come last
    if type(value) is float:
        return value if isfinite(value) else None
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float):
        return value if isfinite(value) else None
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return _json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return str(value)


def _floats(vector: Any) -> list[float]:
    """A genome, fitness or deviation vector as Python floats.  These
    are the bulk of a record and the journal builds them itself, so
    they skip :func:`_json_safe`; :meth:`CampaignJournal._append` falls
    back to it should one hold a NaN."""
    return np.asarray(vector, dtype=np.float64).tolist()


def _group_doc(group: list[Individual]) -> dict[str, Any]:
    return {
        "genomes": [_floats(ind.genome) for ind in group],
        "fitness": [
            None if ind.fitness is None else _floats(ind.fitness)
            for ind in group
        ],
        "uuids": [ind.uuid for ind in group],
        "metadata": [_json_safe(ind.metadata) for ind in group],
    }


def _group_individuals(
    doc: dict[str, Any],
    decoder: Any = None,
    problem: Any = None,
) -> list[RobustIndividual]:
    out: list[RobustIndividual] = []
    for genome, fit, uuid, meta in zip(
        doc["genomes"], doc["fitness"], doc["uuids"], doc["metadata"]
    ):
        ind = RobustIndividual(genome, decoder=decoder, problem=problem)
        if fit is not None:
            ind.fitness = np.asarray(fit, dtype=np.float64)
        ind.uuid = uuid
        ind.metadata = dict(meta)
        if problem is not None:
            ind.n_objectives = problem.n_objectives
        out.append(ind)
    return out


def rng_state_of(rng: Any) -> Optional[dict[str, Any]]:
    """The JSON-serializable bit-generator state of a numpy Generator
    (None when the generator doesn't expose one)."""
    try:
        return _json_safe(rng.bit_generator.state)
    except AttributeError:
        return None


def restore_rng(state: dict[str, Any]) -> np.random.Generator:
    """Rebuild a Generator from a journaled bit-generator state."""
    name = state.get("bit_generator", "PCG64")
    bit_generator = getattr(np.random, name)()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class CampaignJournal:
    """Append-only writer; one strict-JSON object per line.

    ``mode="w"`` starts a fresh journal, ``mode="a"`` continues an
    existing one (the resume engine's mode) from the end of the prefix
    :func:`read_journal` accepts: a torn tail left by a crash is cut
    off first, or the first new record would fuse with the fragment and
    take every later record down with it.  Each append flushes and
    fsyncs before returning, so a record that was reported committed
    survives a SIGKILL.
    """

    def __init__(
        self,
        path: str | Path,
        problem_spec: Optional[dict[str, Any]] = None,
        mode: str = "w",
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if mode not in ("w", "a"):
            raise ValueError("journal mode must be 'w' or 'a'")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.problem_spec = dict(problem_spec or {})
        if mode == "a" and self.path.exists():
            _cut_torn_tail(self.path)
        self._file = open(self.path, mode, encoding="utf-8")
        self._run: Optional[int] = None
        #: chaos seam: torn-write simulation (None normally)
        self._injector = (
            fault_injector if fault_injector is not None else get_injector()
        )
        #: one observation per record: the whole commit, and the part
        #: of it spent waiting for the disk
        registry = get_registry()
        self._h_commit = registry.histogram(
            "store_journal_commit_seconds", buckets=COMMIT_BUCKETS
        )
        self._h_fsync = registry.histogram(
            "store_journal_fsync_seconds", buckets=COMMIT_BUCKETS
        )

    # ------------------------------------------------------------------
    def _append(self, doc: dict[str, Any]) -> None:
        """Commit one record: encode, write, flush, fsync.

        The record methods hand over docs whose open-ended parts
        (metadata, config, driver state) already went through
        :func:`_json_safe`, so the line is one pass of the C encoder;
        a NaN in a float vector, or an object only ``str`` can spell,
        sends the whole doc through the walk instead.
        """
        start = time.perf_counter()
        try:
            line = _encode(doc)
        except (ValueError, TypeError):
            line = _encode(_json_safe(doc))
        self._file.write(line + "\n")
        self._file.flush()
        written = time.perf_counter()
        os.fsync(self._file.fileno())
        done = time.perf_counter()
        self._h_fsync.observe(done - written)
        self._h_commit.observe(done - start)
        if self._injector is not None:
            chop = self._injector.journal_truncation()
            if chop:
                # simulate a torn write: drop the record's tail.  Later
                # appends land after the cut, so the garbled text
                # becomes a mid-file torn record that read_journal
                # stops at — exactly a crash-during-write artifact.
                fd = self._file.fileno()
                size = os.fstat(fd).st_size
                os.ftruncate(fd, max(0, size - int(chop)))
                self._file.seek(0, os.SEEK_END)

    def begin_campaign(self, config: Any) -> None:
        if dataclasses.is_dataclass(config):
            config_doc = dataclasses.asdict(config)
        else:
            config_doc = dict(config)
        self._append(
            {
                "type": "campaign_begin",
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "ts": time.time(),
                "config": _json_safe(config_doc),
                "problem_spec": _json_safe(self.problem_spec),
            }
        )

    def begin_run(self, run: int, seed: int) -> None:
        self._run = int(run)
        self._append(
            {"type": "run_begin", "run": int(run), "seed": int(seed)}
        )

    def resume_run(self, run: int, generation: int) -> None:
        """Mark that a later session is continuing ``run`` after the
        journaled ``generation``."""
        self._run = int(run)
        self._append(
            {
                "type": "run_resume",
                "run": int(run),
                "generation": int(generation),
                "ts": time.time(),
            }
        )

    def append_generation(
        self,
        record: GenerationRecord,
        rng_state: Any = None,
        driver_state: Any = None,
    ) -> None:
        """The write-ahead commit of one generation.

        ``driver_state`` carries optimizer-specific continuation state
        beyond the population itself (the PSO driver journals particle
        velocities and personal bests here); readers that don't know
        the driver simply ignore it.
        """
        if self._run is None:
            raise RuntimeError(
                "append_generation before begin_run/resume_run"
            )
        doc = {
            "type": "generation",
            "run": self._run,
            "generation": int(record.generation),
            "std": _floats(record.std),
            "n_failures": int(record.n_failures),
            "population": _group_doc(record.population),
            "evaluated": _group_doc(record.evaluated),
            "rng_state": _json_safe(rng_state),
        }
        if driver_state is not None:
            doc["driver_state"] = _json_safe(driver_state)
        self._append(doc)

    def append_evaluation(self, individual: Individual) -> None:
        """The write-ahead commit of one completed evaluation: a driver
        without a barrier makes each completion durable as the loop
        tells it (:func:`repro.evo.algorithm.run_driver`)."""
        if self._run is None:
            raise RuntimeError(
                "append_evaluation before begin_run/resume_run"
            )
        self._append(
            {
                "type": "evaluation",
                "run": self._run,
                "genome": _floats(individual.genome),
                "fitness": (
                    None
                    if individual.fitness is None
                    else _floats(individual.fitness)
                ),
                "uuid": individual.uuid,
                "metadata": _json_safe(individual.metadata),
            }
        )

    def end_run(self, run: int) -> None:
        self._append({"type": "run_end", "run": int(run)})
        self._run = None

    def end_campaign(self) -> None:
        self._append({"type": "campaign_end", "ts": time.time()})

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
@dataclass
class RunJournalState:
    """Everything the journal knows about one EA run."""

    run: int
    seed: Optional[int] = None
    #: generation docs keyed by generation index (last write wins)
    generations: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: per-evaluation docs in the order the driver consumed them
    #: (drivers without a barrier)
    evaluations: list[dict[str, Any]] = field(default_factory=list)
    complete: bool = False

    def contiguous_generations(self) -> list[dict[str, Any]]:
        """Generation docs 0..k with no gaps (a resume must not jump
        over a missing generation)."""
        out = []
        for g in range(len(self.generations) + 1):
            doc = self.generations.get(g)
            if doc is None:
                break
            out.append(doc)
        return out


@dataclass
class JournalState:
    """Parsed journal contents, tolerant of a torn tail."""

    schema_version: int = JOURNAL_SCHEMA_VERSION
    config_doc: Optional[dict[str, Any]] = None
    problem_spec: dict[str, Any] = field(default_factory=dict)
    runs: dict[int, RunJournalState] = field(default_factory=dict)
    campaign_complete: bool = False
    n_records: int = 0
    n_torn: int = 0

    def run_state(self, run: int) -> RunJournalState:
        if run not in self.runs:
            self.runs[run] = RunJournalState(run=run)
        return self.runs[run]


def _record(line: str) -> Optional[dict[str, Any]]:
    """The journal record on ``line``, or ``None`` when it is torn."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "type" in doc else None


def _cut_torn_tail(path: Path) -> None:
    """Truncate ``path`` to the records :func:`read_journal` accepts,
    newline-terminated, so the next append starts a record of its own."""
    data = path.read_bytes()
    end = 0
    while end < len(data):
        newline = data.find(b"\n", end)
        stop = len(data) if newline < 0 else newline
        text = data[end:stop].decode("utf-8", errors="replace")
        if text.strip() and _record(text) is None:
            break
        end = stop + 1
    with open(path, "r+b") as fh:
        fh.truncate(min(end, len(data)))
        if end > len(data):
            # a whole last record that lost only its newline
            fh.seek(0, os.SEEK_END)
            fh.write(b"\n")


def read_journal(path: str | Path) -> JournalState:
    """Parse a journal, stopping cleanly at the first torn record.

    A half-written (or garbage) line and everything after it are
    counted in ``n_torn`` and ignored — write-ahead semantics mean
    nothing after a torn record can be trusted.
    """
    state = JournalState()
    path = Path(path)
    if not path.exists():
        return state
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        doc = _record(line)
        if doc is None:
            state.n_torn = len(lines) - i
            break
        state.n_records += 1
        kind = doc["type"]
        if kind == "campaign_begin":
            state.schema_version = int(
                doc.get("schema_version", JOURNAL_SCHEMA_VERSION)
            )
            state.config_doc = dict(doc.get("config") or {})
            state.problem_spec = dict(doc.get("problem_spec") or {})
        elif kind == "run_begin":
            rs = state.run_state(int(doc["run"]))
            rs.seed = int(doc["seed"])
        elif kind == "run_resume":
            state.run_state(int(doc["run"]))
        elif kind == "generation":
            rs = state.run_state(int(doc["run"]))
            rs.generations[int(doc["generation"])] = doc
        elif kind == "evaluation":
            state.run_state(int(doc["run"])).evaluations.append(doc)
        elif kind == "run_end":
            state.run_state(int(doc["run"])).complete = True
        elif kind == "campaign_end":
            state.campaign_complete = True
        # unknown record types from future versions are skipped
    return state


def record_from_doc(
    doc: dict[str, Any],
    decoder: Any = None,
    problem: Any = None,
) -> GenerationRecord:
    """Rebuild a :class:`GenerationRecord` from a generation doc.

    ``decoder``/``problem`` are attached to the restored individuals
    when the record will seed further evolution; analysis-only
    restores can leave them None.
    """
    return GenerationRecord(
        generation=int(doc["generation"]),
        population=_group_individuals(
            doc["population"], decoder=decoder, problem=problem
        ),
        evaluated=_group_individuals(
            doc["evaluated"], decoder=decoder, problem=problem
        ),
        std=np.asarray(doc["std"], dtype=np.float64),
        n_failures=int(doc["n_failures"]),
    )


def evaluations_from_docs(
    docs: Any, decoder: Any = None, problem: Any = None
) -> list[RobustIndividual]:
    """The individuals of journaled ``evaluation`` docs, in order."""
    group = {
        "genomes": [doc["genome"] for doc in docs],
        "fitness": [doc["fitness"] for doc in docs],
        "uuids": [doc["uuid"] for doc in docs],
        "metadata": [doc["metadata"] for doc in docs],
    }
    return _group_individuals(group, decoder=decoder, problem=problem)
