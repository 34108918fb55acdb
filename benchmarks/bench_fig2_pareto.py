"""Experiment ``fig2`` — Fig. 2: the aggregate Pareto frontier.

Benchmarks frontier extraction from the combined last generations of
all five runs and asserts the paper's shape: a small set of
non-dominated points clustered close to the origin with a monotone
energy/force trade-off.
"""

from repro.analysis import format_table, frontier_table


def test_fig2_frontier(paper_campaign, benchmark):
    table = benchmark(frontier_table, paper_campaign)
    print()
    print(
        format_table(
            table.rows(),
            title=f"Fig. 2 frontier ({len(table)} non-dominated solutions)",
        )
    )
    # paper: 8 points; shape target: a handful, not the whole population
    assert 4 <= len(table) <= 20
    F = table.fitness_matrix()
    # clustered close to the origin (paper: force 0.0357-0.0409 eV/A,
    # energy 0.0004-0.0016 eV/atom)
    assert F[:, 1].min() < 0.045  # best force
    assert F[:, 1].max() < 0.06  # even the worst frontier force is near
    assert F[:, 0].min() < 0.002  # best energy
    assert F[:, 0].max() < 0.006
    # the defining staircase: force up, energy down
    assert table.monotone_tradeoff()


def test_fig2_frontier_members_viable_and_final(paper_campaign, benchmark):
    from benchmarks.conftest import once

    table = once(benchmark, frontier_table, paper_campaign)
    final_ids = {
        id(ind) for ind in paper_campaign.last_generation_individuals()
    }
    for member in table.members:
        assert member.is_viable
        assert id(member) in final_ids
