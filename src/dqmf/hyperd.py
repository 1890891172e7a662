"""The divided-derivative engine on K[E,g,h].

One recursion derives every monomial, by the class of the order n.  By
iterativity, D_i o D_j = C(i+j, i) D_{i+j}, the derivation D_1
(``qmring.d1``: E -> E^2, g -> -(Eg+h), h -> Eh) commutes with every D_n,
and the p-power rows decide every order (``p_powers_upto``): ideal
stability, the modular kernels and weight divisibility derive those only.

- p not dividing n, n = 1 too: every monomial takes the D_1 step
  D_n(m) = c^{-1} D_1(D_{n-1} m), c = n mod p, with c^{-1} folded into d1's
  two integer multipliers, so each term is scaled once, with no product.
- p | n, a generator: a p-power n reads the paper's tables
  (``generator_table``), any other n the digit step D_n = c^{-1} D_{p^k} o
  D_{n-p^k}, c = C(n, p^k) mod p its lowest nonzero base-p digit, at p^k.
- p | n, every other monomial E^a u, u = g^b h^c, of weight w takes the
  depth transport read at E = 0:

    D_n(E^a u) = sum_{i <= a} sum_{r <= n} C(a, i) C(n+w-i-1, r) E^{r+i} N_{n-r}(E^{a-i} u),

  the binomials mod p, N_k(x) the E-free part of D_k x (D_k x at E = 0).

This is the depth transport, D_n acting on the depth polynomial of f
(E -> E + Y), read at E = 0: E^a u has the depth polynomial
sum_i C(a, i) E^{a-i} u Y^i, and a depth polynomial's Y^j coefficient at
E = 0 is the E^j coefficient of the element itself.  ``_transport`` is its
one coding.  The identity holds at every order: the engine reads it at
p | n, and the battery's ``depth_poly_dual_route`` compares it with
``derive`` at every order, a second route wherever derive takes the D_1
step or a generator's tables or digit step.  The paper's depth-drop criterion,
C(w-l+n-1, n) = 0 mod p, and the transport of whole depth polynomials are
test references (``tests/conftest.py``), read by no command.

Setting E = 0 is a ring map, so by the Leibniz rule the series
N(x) = sum_k N_k(x) X^k in K[g,h][[X]] is multiplicative: N(xy) = N(x) N(y).
The engine keeps one coefficient list per monomial, extended in place one
order at a time.  A generator reads its own memo entries D_k x with E
killed.  A p-th power y^p is the Frobenius image of N(y): X -> X^p, and
each nonzero coefficient raised to the p-th power once.  Any other monomial
is the Cauchy product of its digits below p and the rest; a mixed part below
p is the product of its generator blocks, g^b first, then E^a against h^c,
and a pure power is halved, as ``tseries._monomial`` splits it: one
``qmring.sum_of_products`` call per X-order.  N(g) is lacunary (D_k g = 0
unless k = 0, 1 mod q), so a pure g block multiplies few term pairs.
D_k E = E^{k+1} for k < q, so N(E) starts at X^q and only the terms with
q (a - i) <= n - r contribute.

The recursion ends.  The D_1 step reads the same monomial one order lower.
The transport at order n reads generator entries of order <= n only, and a
generator at order n reads other monomials only at the lower order p^k of
its digit step (the tables read nothing).  A list's length is re-read
before each new order, since computing a generator at order k can extend
other lists below k.

``derive`` returns a one-term f = v*m as the memo entry D_n(m) scaled by
v (a copy when v = 1).  Otherwise it groups the memo terms v*c of f's
monomials, c = num(c)/D, by (output monomial, memo denominator D): one
term gives v*c, several give (sum_j v_j num(c_j)) * (1/D), whose inner sum
runs over the request coefficients' small denominators, so no sum takes a
gcd against D; a unit v, c, num(c) or D multiplies nothing.  The groups
of one monomial are then added, all by RatT constructors and operators,
so the result is canonical.

A single engine instance keeps one memo keyed by (monomial, order), and
the E-free lists keyed by monomial.  Both store through the engine's table,
(a, b, c) -> monomial key and (num, den) -> RatT, and its one empty QmPoly,
so each monomial key, coefficient value and zero exists once: safe, since
tuples, RatT and PolyT are never mutated and results leave the engine as
copies.  ``stats()`` counts the memo's entries and the hits and misses of
its lookups, a list's reads of generator entries among them, and
``check_memo_isobaric()`` lists every entry D_n(m) whose weight, type or
depth is not the one n shifts m's to, or which has a coefficient code
outside F_p.  Every D_n(m) lies over F_p(T) (checked at q = 2..9): the memo
keys are monomials, and every table entry, binomial and Frobenius row lies
over F_p.  ``dqmf verify`` reports both after its checks.  One engine per
thread is safe, since engines share only the per-field functools caches of
``algebra`` (the d_i powers, gcds and the ``_den_pair``, ``_den_product``
and ``_coprime_parts`` LRUs), which are thread-safe and hold immutable values.
"""

from __future__ import annotations

from .algebra import FieldConfig, RatT, binom_mod_p, d_rat, linear_solve
from .qmring import (
    GENERATORS, NotIsobaric, QmPoly, d1, grading, modular_basis, monomial_signature,
    sum_of_products,
)

__all__ = ["DerivationEngine", "OrderOutOfRange", "generator_table", "p_powers_upto"]


class OrderOutOfRange(ValueError):
    """The requested derivative order exceeds the computable range."""


def _lowest_digit(n: int, p: int):
    """(c, k) for the lowest nonzero base-p digit c of n >= 1, at place p^k."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n % p, k


def p_powers_upto(cfg: FieldConfig, bound: int) -> list:
    """1, p, p^2, ... <= bound.  D_n = prod_j D_{p^j}^{n_j}/n_j! over the base-p
    digits n_j of n, so stability under, or the kernel of, these rows covers
    every n <= bound.  And a generator first leaves an ideal I at a p-power:
    if every generator G stays in I below n, no p-power, then by Leibniz
    D_n G = c^{-1} D_{p^k}(D_{n-p^k} G) is in I, (c, k) as ``_lowest_digit``."""
    return [cfg.p**j for j in range(bound.bit_length()) if cfg.p**j <= bound]


def generator_table(cfg: FieldConfig, gen: str, n: int) -> QmPoly:
    """The paper's explicit D_n of a generator, for n < q and p-powers n <= q^2."""
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    q = cfg.q
    mono = QmPoly.monomial
    if 0 <= n < q:
        if gen == "E":
            return mono(cfg, n + 1, 0, 0)
        if gen == "g":
            if n == 0:
                return mono(cfg, 0, 1, 0)
            if n == 1:
                return -(mono(cfg, 1, 1, 0) + mono(cfg, 0, 0, 1))
            return QmPoly.zero(cfg)
        return mono(cfg, n, 0, 1)
    if n not in p_powers_upto(cfg, q * q):
        raise ValueError("table covers n < q and p-powers up to q^2 only")
    if n < q * q:
        s = n // q
        if gen == "E":
            return mono(cfg, n + 1, 0, 0) + mono(cfg, 0, s - 1, s + 1, d_rat(1, -s, cfg))
        if gen == "g":
            return mono(cfg, n, 1, 0)
        return (
            mono(cfg, n, 0, 1)
            + mono(cfg, q, s - 1, s, d_rat(1, 1 - s, cfg))
            - mono(cfg, 0, s, s + 1, d_rat(1, -s, cfg))
        )
    # n == q^2
    d_1 = d_rat(1, 1, cfg)
    inv_d2 = d_rat(2, -1, cfg)
    if gen == "E":
        return (
            mono(cfg, n + 1, 0, 0)
            + mono(cfg, 0, q - 1, q + 1, d_rat(1, -q, cfg))
            + mono(cfg, 0, 2 * q, 2, inv_d2)
        )
    if gen == "g":
        return (
            mono(cfg, n, 1, 0)
            - mono(cfg, 0, q + 1, q, d_1 * inv_d2)
            + mono(cfg, 0, 0, 2 * q - 1, d_rat(1, 1 - q, cfg) - d_1 * d_1 * inv_d2)
        )
    return (
        mono(cfg, n, 0, 1)
        + mono(cfg, q, q - 1, q, d_rat(1, 1 - q, cfg))
        - mono(cfg, 0, 2 * q + 1, 2, inv_d2)
        - mono(cfg, 0, q, q + 1, d_1 * inv_d2 + d_rat(1, -q, cfg))
    )


class DerivationEngine:
    """Divided derivatives D_n on K[E,g,h] for 0 <= n <= p*q^2 - 1."""

    def __init__(self, cfg: FieldConfig):
        self.cfg = cfg
        self.limit = cfg.p * cfg.q**2 - 1
        self._memo: dict = {}  # (monomial, order) -> D_order of that monomial
        self._hits = self._misses = 0  # lookups of _memo in _derive_monomial
        self._lists: dict = {}  # monomial -> [N_0, N_1, ...] of the module docstring
        # (a, b, c) -> this engine's one monomial key, (num.c, den.c) -> its one RatT
        self._values: dict = {}
        self._empty = QmPoly(cfg)  # this engine's one zero memo entry and zero list row

    def _check_order(self, n: int):
        if n < 0 or n > self.limit:
            raise OrderOutOfRange(f"order {n} outside [0, {self.limit}]")

    def _check_field(self, f):
        if f.cfg is not self.cfg:
            raise ValueError("element and engine over different fields")

    def d_generator(self, gen: str, n: int) -> QmPoly:
        """D_n of a single generator, any 0 <= n <= limit, as a copy of the memo entry."""
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        self._check_order(n)
        return self._derive_monomial(GENERATORS[gen], n).scale(self.cfg.rat_one)

    def _intern(self, x: QmPoly) -> QmPoly:
        """x, a fresh element, with each monomial key and each coefficient this
        engine's one object of its value."""
        if not x.terms:
            return self._empty
        values = self._values
        x.terms = {values.setdefault(k, k): values.setdefault((v.num.c, v.den.c), v)
                   for k, v in x.terms.items()}
        return x

    def _derive_monomial(self, mono: tuple, n: int) -> QmPoly:
        """D_n(E^a g^b h^c) by the rule of the module docstring for n and mono."""
        if n == 0:
            return QmPoly.monomial(self.cfg, *mono)
        if mono == (0, 0, 0):
            return QmPoly.zero(self.cfg)
        key = (mono, n)
        out = self._memo.get(key)
        if out is not None:
            self._hits += 1
            return out
        self._misses += 1
        p = self.cfg.p
        digit, k = _lowest_digit(n, p)
        if k == 0:
            # D_1 o D_{n-1} = n D_n, n = digit mod p
            out = d1(self._derive_monomial(mono, n - 1), pow(digit, p - 2, p))
        elif sum(mono) > 1:
            out = self._transport(mono, n)
        elif p**k == n:
            out = generator_table(self.cfg, "Egh"[mono.index(1)], n)
        else:
            # C(n, p^k) = digit, so D_n = digit^{-1} D_{p^k} o D_{n - p^k}
            prev = self._derive_monomial(mono, n - p**k)
            out = self.derive(prev, p**k).scale_int(pow(digit, p - 2, p))
        self._memo[self._values.setdefault(mono, mono), n] = out = self._intern(out)
        return out

    def _transport(self, mono: tuple, n: int) -> QmPoly:
        """D_n(E^a u) as the module docstring's sum over (i, r), one RatT add
        wherever two (i, r) reach one output monomial.  Row i stops at
        r = n - q(a - i), where N(E^{a-i} u) starts, and a binomial is
        computed only where its series entry is nonzero."""
        cfg, p, q = self.cfg, self.cfg.p, self.cfg.q
        a, b, c = mono
        w = monomial_signature(cfg, a, b, c).w
        out = {}
        for i in range(max(0, a - n // q), a + 1):
            ci = binom_mod_p(a, i, p)
            if not ci:
                continue
            series = self._series((a - i, b, c), n)
            for r in range(n - q * (a - i) + 1):
                x = series[n - r]
                s = ci * binom_mod_p(n + w - i - 1, r, p) % p if x.terms else 0
                if s:
                    for (_, b2, c2), v in x.terms.items():
                        t = v if s == 1 else v.scale_int(s)
                        k = (r + i, b2, c2)
                        out[k] = out[k] + t if k in out else t
        return QmPoly(cfg, out)

    def _series(self, mono: tuple, n: int) -> list:
        """The coefficients N_0, N_1, ... of N(E^a g^b h^c) through X^n at
        least, extended in place by the rules of the module docstring."""
        cfg, p = self.cfg, self.cfg.p
        out = self._lists.setdefault(mono, [])
        if sum(mono) <= 1:
            while len(out) <= n:
                out.append(self._intern(self._derive_monomial(mono, len(out)).kill("E")))
        elif not any(e % p for e in mono):  # y^p: X -> X^p, coefficients Frobenius
            y = self._series(tuple(e // p for e in mono), n // p)
            while len(out) <= n:
                m = len(out)
                x = y[m // p] if m % p == 0 else self._empty
                out.append(self._intern(x.frobenius_pow(1)) if x.terms else self._empty)
        elif len(out) <= n:
            low = tuple(e % p for e in mono)
            if low == mono:  # generator blocks, g^b first, then E^a against h^c; pure powers halve
                a, b, c = mono
                halves = tuple(e // 2 for e in mono)
                low = (0, b, 0) if b and a + c else (a, 0, 0) if a and c else halves
            left = self._series(low, n)
            right = self._series(tuple(e - k for e, k in zip(mono, low)), n)
            while len(out) <= n:
                m = len(out)
                pairs = [(left[j], right[m - j]) for j in range(m + 1)
                         if left[j].terms and right[m - j].terms]
                out.append(self._intern(sum_of_products(cfg, pairs)) if pairs else self._empty)
        return out

    def derive(self, f: QmPoly, n: int) -> QmPoly:
        """D_n f for any f in K[E,g,h], 0 <= n <= limit, as a fresh element."""
        self._check_field(f)
        self._check_order(n)
        cfg = self.cfg
        if len(f.terms) == 1:  # nothing to group: the memo entry, scaled (scale checks v's field)
            (mono, v), = f.terms.items()
            return self._derive_monomial(mono, n).scale(v)
        groups = {}  # (output monomial, memo denominator) -> [(v, memo coefficient)]
        for mono, v in f.terms.items():
            if v.cfg is not cfg:
                raise ValueError("coefficient from a different field")
            v = None if v.is_one() else v  # a unit v multiplies nothing
            for k, c in self._derive_monomial(mono, n).terms.items():
                groups.setdefault((k, c.den.c), []).append((v, c))
        out = {}
        for (k, _), pairs in groups.items():
            if len(pairs) == 1:
                v, c = pairs[0]
                s = c if v is None else v if c.is_one() else c * v
            else:
                s = cfg.rat_zero
                for v, c in pairs:
                    u = RatT(cfg, c.num)
                    s = s + (u if v is None else v if c.num.is_one() else v * u)
                if not c.den.is_one():
                    s = RatT(cfg, c.den).inverse() * s
            out[k] = out[k] + s if k in out else s
        return QmPoly(cfg, out)

    # -- kernels on modular forms ----------------------------------------------

    def kernel_on_modular(self, w: int, m: int, k: int):
        """Basis of the modular forms of grading (w, m) killed by every D_n,
        1 <= n < p^{k+1}: the joint kernel of the rows D_{p^j}, j <= k
        (``p_powers_upto``), on the span of modular_basis(w, m)."""
        cfg = self.cfg
        self._check_order(cfg.p**k)
        basis = modular_basis(w, m, cfg)
        if not basis:
            return []
        images = [[self._derive_monomial((0, b, c), pj) for b, c in basis]
                  for pj in p_powers_upto(cfg, cfg.p**k)]
        keys = sorted({(j, mono) for j, imgs in enumerate(images) for img in imgs
                       for mono in img.terms})
        # no image term at all: one zero row, so every basis element is free
        rows = [[img.terms.get(mono, cfg.rat_zero) for img in images[j]] for j, mono in keys]
        _, sols = linear_solve(rows or [[cfg.rat_zero] * len(basis)])
        return [QmPoly(cfg, {(0, b, c): x for x, (b, c) in zip(vec, basis)}) for vec in sols]

    # -- bookkeeping -------------------------------------------------------------

    def stats(self) -> dict:
        """Memo entries, and the hits and misses of the memo lookups so far."""
        return {"entries": len(self._memo), "hits": self._hits, "misses": self._misses}

    def check_memo_isobaric(self):
        """The (monomial, order, what) of every memo entry D_n(mono) that is not
        isobaric with the grading n shifts mono's to, or has a coefficient code
        outside F_p; empty when all pass.  The codes of each distinct
        coefficient object are read once (by id, so a value planted without
        interning is read too): the memo shares them between entries."""
        p, q = self.cfg.p, self.cfg.q
        bad = []
        in_f_p = {}  # id of a coefficient -> whether every code of it lies in F_p

        def off_f_p(v):
            ok = in_f_p.get(id(v))
            if ok is None:
                ok = in_f_p[id(v)] = all(code < p for code in v.num.c + v.den.c)
            return not ok

        for (mono, n), val in self._memo.items():
            if val.is_zero():
                continue
            try:
                s = grading(val)
            except NotIsobaric:
                bad.append((mono, n, "mixed gradings"))
                continue
            base = monomial_signature(self.cfg, *mono)
            if s.w != base.w + 2 * n:
                bad.append((mono, n, f"weight {s.w}"))
            elif s.m != (base.m + n) % (q - 1):
                bad.append((mono, n, f"type {s.m}"))
            elif s.l > base.l + n:
                bad.append((mono, n, f"depth {s.l}"))
            elif any(map(off_f_p, val.terms.values())):
                bad.append((mono, n, "code outside F_p"))
        return bad
