"""Closed form for star trees whose leaves do not pair with each other.

A star with centre gamma_0 and leaves lambda (lambda with multiplicity
m_lambda) is a halo around gamma_0.  Its tree value, in units of sigma of
the total charge, is

    DT(gamma_0) * prod_lambda c_lambda^m_lambda / m_lambda!,
    c_lambda = (-1)^(|p|+1) |p| DT(lambda),   p = <gamma_0, lambda>.
"""
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial


def star_value(theory, table, charges, edges):
    """The halo value of the tree, or None when it is not a star or two of
    its leaves have a nonzero pairing.  A two-vertex tree is a star about
    either end, and the value is the same."""
    n = len(charges)
    degree = Counter(v for edge in edges for v in edge)
    centres = [v for v in range(n) if degree[v] == n - 1]
    if not centres:
        return None
    centre = centres[0]
    leaves = [c for i, c in enumerate(charges) if i != centre]
    if any(theory.pair(a, b) for a, b in combinations(leaves, 2)):
        return None
    value = table.dt(charges[centre])
    for lam, m in Counter(leaves).items():
        p = abs(theory.pair(charges[centre], lam))
        value *= Fraction((-1) ** (p + 1) * p * table.dt(lam)) ** m / factorial(m)
    return value
