"""Seeded random Moebius maps for the invariance and round-trip tests.

``random_map(rng)`` draws the four entries as standard complex Gaussians
from ``rng`` and redraws until the determinant is at least 0.1 in modulus,
so a given seed always yields the same sequence of maps.
"""

from kleinlab.mobius import MoebiusMap


def random_map(rng):
    while True:
        entries = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        if abs(entries[0] * entries[3] - entries[1] * entries[2]) > 0.1:
            return MoebiusMap(*entries)
