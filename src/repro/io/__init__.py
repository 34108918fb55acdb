"""Serialization of campaign results and analysis exports.

A 12-hour Summit campaign is far too expensive to re-run for every
analysis question, so results must round-trip to disk.  This package
persists campaigns (per-run, per-generation populations with genomes,
fitnesses, and metadata) as JSON + NumPy archives, and exports the
figure data as CSV for external plotting.
"""

from repro.io.campaign_store import load_campaign, save_campaign
from repro.io.csv_export import (
    export_frontier_csv,
    export_level_plot_csv,
    export_parallel_coordinates_csv,
)

__all__ = [
    "save_campaign",
    "load_campaign",
    "export_frontier_csv",
    "export_level_plot_csv",
    "export_parallel_coordinates_csv",
]
