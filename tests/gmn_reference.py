"""Slow reference for framed-diagram weights.

Each vertex carries its f-coefficient f^gamma = DT(gamma) content(gamma)
times the primitive direction of gamma (in units of sigma(gamma)), each
edge pairs the parent's charge with the child's f-direction, and the
automorphism order is counted by brute force over vertex permutations
instead of read off the canonical encoding.  The refinement sign is the
left-to-right fold of sigma over the vertices, pairing afresh.
"""
from fractions import Fraction
from itertools import permutations, product

from wallcross.lattice import cadd, content, primitive


def sigma_reduce(theory, charges):
    """Fold sigma(a)sigma(b) = (-1)^<a,b> sigma(a+b) left-to-right.

    Returns (sign, total) with prod_k sigma(c_k) = sign * sigma(total).
    """
    sign = 1
    total = theory.zero()
    for c in charges:
        if theory.pair(total, c) % 2:
            sign = -sign
        total = cadd(total, c)
    return sign, total


def f_coeff(table, gamma):
    """f^gamma as (c, direction) with f^gamma = c * sigma(gamma) * direction."""
    return table.dt(gamma) * content(gamma), primitive(gamma)


def aut_count(diag):
    """Automorphisms of the rooted decorated tree: the permutations of
    vertices within classes of equal charge that fix the root and carry
    each vertex's parent to the image's parent."""
    classes: dict = {}
    for i, c in enumerate(diag.charges):
        classes.setdefault(c, []).append(i)
    count = 0
    for images in product(*(permutations(vs) for vs in classes.values())):
        pi = {}
        for vs, image in zip(classes.values(), images):
            pi.update(zip(vs, image))
        count += (pi[diag.root] == diag.root
                  and all(p is None or diag.parent[pi[i]] == pi[p]
                          for i, p in enumerate(diag.parent)))
    return count


def weight(theory, table, diag):
    """(-1)^n / |Aut| * f^root * prod <gamma_parent, f^child>, as a
    coefficient of sigma of the diagram's total charge."""
    charges = diag.charges
    w = Fraction((-1) ** diag.n * sigma_reduce(theory, charges)[0],
                 aut_count(diag))
    for c, p in zip(charges, diag.parent):
        coeff, direction = f_coeff(table, c)
        w *= coeff
        if p is not None:
            w *= theory.pair(charges[p], direction)
    return w
