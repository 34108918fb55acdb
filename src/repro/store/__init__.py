"""Durable campaign state: evaluation cache, journal, resume.

The paper's campaigns are ~3500 independent multi-hour trainings on a
machine with known node failures; this package makes that workload
restartable and cheap to iterate on:

* :mod:`repro.store.cache` — a content-addressed
  :class:`EvaluationCache` memoizing finished evaluations on disk,
  keyed by (phenome, dataset identity, evaluator settings), with
  atomic writes and corruption-tolerant reads.  Failed evaluations are
  not memoized unless opted in.
* :mod:`repro.store.journal` — a write-ahead
  :class:`CampaignJournal` appending strict-JSONL generation records
  (genomes, fitnesses, mutation deviations, RNG state) before each
  generation commits, fsynced so a SIGKILL loses at most in-flight
  evaluations.
* :mod:`repro.store.resume` — :func:`resume_campaign` reconstructs
  campaign/EA state from journal + cache and continues evolution at
  the exact generation, bit-identically, re-submitting only uncached
  individuals (``repro-hpo resume <dir>`` on the command line).
"""

from repro.store.cache import (
    CachedFailure,
    CachedProblem,
    CacheEntry,
    CanonicalFingerprint,
    EvaluationCache,
    canonical_json,
    dataset_fingerprint,
    evaluation_key,
)
from repro.store.journal import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA_VERSION,
    CampaignJournal,
    JournalState,
    RunJournalState,
    journal_path,
    read_journal,
    record_from_doc,
    restore_rng,
)
from repro.store.resume import (
    cached_problem_factory,
    campaign_config_from_doc,
    problem_factory_from_spec,
    resume_campaign,
)

__all__ = [
    "CacheEntry",
    "CachedFailure",
    "CachedProblem",
    "CanonicalFingerprint",
    "EvaluationCache",
    "canonical_json",
    "dataset_fingerprint",
    "evaluation_key",
    "CampaignJournal",
    "JournalState",
    "RunJournalState",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA_VERSION",
    "journal_path",
    "read_journal",
    "record_from_doc",
    "restore_rng",
    "cached_problem_factory",
    "campaign_config_from_doc",
    "problem_factory_from_spec",
    "resume_campaign",
]
