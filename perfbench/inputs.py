"""Seeded workload inputs, built in benchmark code.

Nothing here calls a dqmf sampling or enumeration helper: elements are
assembled from the grading formula of K[E,g,h] (weight 2a + (q-1)b + (q+1)c,
type a + c mod q-1, depth a) and the public PolyT/RatT/QmPoly constructors,
so a change to a program helper cannot silently change a workload.
"""

from __future__ import annotations

import random

def signature(q, a, b, c):
    """(weight, type, depth) of E^a g^b h^c."""
    return 2 * a + (q - 1) * b + (q + 1) * c, (a + c) % (q - 1), a


def monomials(q, w_max):
    """Every non-constant monomial of weight <= w_max, in lexicographic order."""
    out = []
    for a in range(w_max // 2 + 1):
        for b in range(w_max // (q - 1) + 1):
            for c in range(w_max // (q + 1) + 1):
                if 0 < signature(q, a, b, c)[0] <= w_max:
                    out.append((a, b, c))
    return out


def slice_of(q, anchor, monos):
    """Monomials sharing the anchor's weight and type with depth <= its depth."""
    w, m, l = signature(q, *anchor)
    return [t for t in monos if signature(q, *t)[:2] == (w, m) and t[0] <= l]


def random_coeff(dqmf, cfg, rng):
    """A nonzero element of F_q(T) with numerator and denominator of degree <= 1."""
    while True:
        num = dqmf.PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 2))])
        den = dqmf.PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 2))])
        if not num.is_zero() and not den.is_zero():
            return dqmf.RatT(cfg, num, den)


def element(dqmf, cfg, support, rng):
    """The isobaric element with the given support and fresh random coefficients."""
    f = dqmf.QmPoly.zero(cfg)
    for t in support:
        f = f + dqmf.QmPoly.monomial(cfg, *t, random_coeff(dqmf, cfg, rng))
    return f


def random_support(q, monos, rng):
    """A random isobaric support: a uniform anchor plus each slice mate with odds 1/2."""
    anchor = rng.choice(monos)
    mates = [t for t in slice_of(q, anchor, monos) if t != anchor and rng.random() < 0.5]
    return tuple(sorted([anchor] + mates))


def seeded(seed, tag):
    """An independent generator per (seed, stream tag)."""
    return random.Random(f"{tag}:{seed}")


def check_orders(q, p):
    """Orders of the series cross-check: 1..q, each p-power p^k <= q^2, and
    p^k - 1, p^k - q where positive."""
    ns = set(range(1, q + 1))
    pk = 1
    while pk <= q * q:
        ns.update(n for n in (pk, pk - 1, pk - q) if n >= 1)
        pk *= p
    return sorted(ns)
