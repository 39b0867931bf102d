"""Verdict census of both paper scenarios on small lattices.

The position scenario runs at L = 3..6 on every pair of momentum modes,
every pair of window centers and every window width 1..L, for both
statistics: 24,336 calls. The momentum scenario runs on every pair of
distinct modes at the same sizes: 136 calls. Each call is tallied by its
verdict, the post-state's Schmidt and Slater ranks, and the
``entangled_by_measure`` flag, and the tallies are pinned whole.
"""

from collections import Counter

from pairmeasure import (
    SpaceSpec,
    Statistics,
    VerdictTag,
    scenario_momentum_projection,
    scenario_position_windows,
)

LATTICES = range(3, 7)

ENTANGLING = VerdictTag.ENTANGLING_MEASUREMENT
NON_ORTHOGONAL = VerdictTag.NON_ORTHOGONAL_EVENTS

# (statistics, verdict, Schmidt rank, Slater rank, entangled_by_measure): cases
POSITION_CENSUS = {
    (Statistics.BOSON, ENTANGLING, 2, None, True): 3004,
    (Statistics.BOSON, NON_ORTHOGONAL, 2, None, True): 9164,
    (Statistics.FERMION, ENTANGLING, 2, None, True): 3004,
    (Statistics.FERMION, NON_ORTHOGONAL, 2, 1, True): 4084,
    (Statistics.FERMION, NON_ORTHOGONAL, 2, None, True): 5080,
}


def _row(stat, result):
    report = result.report
    return (stat, result.verdict.tag, report.schmidt_rank, report.slater_rank,
            result.evidence.entangled_by_measure)


def test_position_census_of_every_mode_window_and_width_pair():
    census = Counter()
    for sites in LATTICES:
        space = SpaceSpec(sites, 2)
        for stat in Statistics:
            for m_a in range(sites):
                for m_b in range(sites):
                    for x_a in range(sites):
                        for x_b in range(sites):
                            for width in range(1, sites + 1):
                                result = scenario_position_windows(
                                    space, m_a, m_b, x_a, x_b, width, stat
                                )
                                census[_row(stat, result)] += 1
    assert dict(census) == POSITION_CENSUS


def test_momentum_census_of_every_distinct_mode_pair():
    census = Counter()
    probabilities = set()
    for sites in LATTICES:
        space = SpaceSpec(sites, 2)
        for stat in Statistics:
            for m_a in range(sites):
                for m_b in range(sites):
                    if m_a != m_b:
                        result = scenario_momentum_projection(space, m_a, m_b, stat)
                        census[_row(stat, result)] += 1
                        probabilities.add(result.probability)
    local = VerdictTag.LOCAL_OPERATION
    assert dict(census) == {
        (Statistics.BOSON, local, 1, None, False): 68,
        (Statistics.FERMION, local, 1, None, False): 68,
    }
    # 1/2 to roundoff: the squared norm of a core entry 1/sqrt(2)
    assert all(abs(probability - 0.5) <= 2**-52 for probability in probabilities)
