"""The divided-derivative engine on K[E,g,h].

One recursion derives every monomial.  A generator at a p-power order reads
the paper's tables (``generator_table``).  Any other order n takes one digit
step: with c the lowest nonzero base-p digit of n, at place p^k, iterativity
D_i o D_j = C(i+j, i) D_{i+j} and Lucas' C(n, p^k) = c give
D_n = c^{-1} D_{p^k} o D_{n-p^k}.  At k = 0 (p not dividing n, n >= 2) every
monomial takes it as D_n(m) = n^{-1} D_1(D_{n-1} m), D_1 being the derivation
``qmring.d1``: two integer multiples of each term, no product.  At k >= 1
only a generator takes it, through ``derive`` at order p^k; other monomials
there, and at n = 1, go by the rules below.  A g-free E^a h^c with p not
dividing a is lifted before any step: D_j E = E^{j+1} and D_j h = E^j h for
j < q give
D_j(E^{a-j} h^c) = C(a+c-1, j) E^a h^c for 1 <= j <= min(a, q-1), so by
iterativity C(a+c-1, j) D_n(E^a h^c) = C(n+j, j) D_{n+j}(E^{a-j} h^c).
Over the j with C(a+c-1, j) != 0 mod p, the result is zero if some
C(n+j, j) = 0 mod p; else the largest j with n + j <= limit whose target is
not 1, E or h gives it from one memo entry (with no such j the rules below
apply).  p | a is left to the other rules, since a lift would lose the
peel's Frobenius sparsity; ``_lifted`` says why a target is never a
generator.  For odd p, a pure even power x^{2k} of one generator is squared:

    D_n(x^{2k}) = 2 sum_{0 <= r < n/2} D_r(x^k) D_{n-r}(x^k)
                  + [n even] D_{n/2}(x^k)^2.

This is the Leibniz rule on y*y, y = x^k, with the equal products of the
pairs (r, n-r) and (n-r, r) merged, so it holds in every characteristic; it
halves the products behind E^2, h^2 and h^3.  At p = 2 the sum vanishes
and only the Frobenius term is left.  Any other monomial, and every power at
p = 2, is a Leibniz convolution that peels off one p-power atom x^{p^k} of
one generator at a time, so that Frobenius sparsity (D_m of a p^k-th power
vanishes unless p^k | m) keeps the convolutions short.  The atom is E's
lowest one, or h's when E and g are absent.  When E and g are both present,
g's lowest atom is peeled instead if fewer of its left factors can be
nonzero: D_j g vanishes unless j = 0 or 1 mod q, while D_j E never does, so
g's atom counts the j <= n/p^k with j = 0 or 1 mod q against n/p^k + 1 for
E's (ties go to E).  The count is only a cost estimate: every left factor
D_{r/p^k}(x) is read first, and an order r whose left factor is zero is
skipped without deriving the rest, so a wrong estimate costs time, never
correctness.

Each convolution collects its (left, right) pairs and makes one
``qmring.sum_of_products`` call per (monomial, order), which canonicalises
each output coefficient once rather than once per product; the squaring
rule folds its middle square in as the pair (D_{n/2}(x^k)/2, D_{n/2}(x^k))
before the factor 2, 2 being invertible for odd p.

``derive`` groups the memo terms v*c of f's monomials, c = num(c)/D, by
(output monomial, memo denominator D).  A group of one term is v*c; a
group of several is (sum_j v_j num(c_j)) * (1/D), whose inner sum runs over
the request coefficients' small denominators, so no sum takes a gcd
against D.  The groups of one monomial are then added.  Every step is a
RatT constructor or operator, so the result is canonical.

A single engine instance keeps one memo keyed by (monomial, order), and
``stats()`` counts its entries and the hits and misses of its lookups; one
engine per thread is safe, since engines share only the per-field functools
caches of ``algebra`` (the d_i powers, gcds and the ``_den_pair``,
``_den_product`` and ``_coprime_parts`` LRUs), which are thread-safe and
hold immutable values.
"""

from __future__ import annotations

from .algebra import FieldConfig, RatT, binom_mod_p, d_rat, linear_solve
from .qmring import (
    DepthPoly, QmPoly, d1, grading, modular_basis, monomial_signature, sum_of_products,
)

__all__ = ["DerivationEngine", "OrderOutOfRange", "depth_drop", "generator_table"]


class OrderOutOfRange(ValueError):
    """The requested derivative order exceeds the computable range."""


def depth_drop(w: int, l: int, n: int, p: int) -> bool:
    """True iff order-n differentiation drops the depth below l + n.

    The criterion is the vanishing of C(w - l + n - 1, n) mod p; it governs
    generic elements of weight w and depth l.
    """
    if n < 1:
        raise ValueError("depth_drop needs n >= 1")
    return binom_mod_p(w - l + n - 1, n, p) == 0


_GENERATORS = {"E": (1, 0, 0), "g": (0, 1, 0), "h": (0, 0, 1)}


def _lowest_digit(n: int, p: int):
    """(c, k) for the lowest nonzero base-p digit c of n >= 1, at place p^k."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n % p, k


def generator_table(cfg: FieldConfig, gen: str, n: int) -> QmPoly:
    """The paper's explicit D_n of a generator, for n < q and p-powers n <= q^2."""
    p, q = cfg.p, cfg.q
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
    if p ** _lowest_digit(n, p)[1] != n or n > q * q:
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

    def _check_order(self, n: int):
        if n < 0 or n > self.limit:
            raise OrderOutOfRange(f"order {n} outside [0, {self.limit}]")

    def _check_field(self, f):
        if f.cfg is not self.cfg:
            raise ValueError("element and engine over different fields")

    def d_generator(self, gen: str, n: int) -> QmPoly:
        """D_n of a single generator, any 0 <= n <= limit, as a copy of the memo entry."""
        if gen not in _GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        self._check_order(n)
        return QmPoly(self.cfg, self._derive_monomial(_GENERATORS[gen], n).terms)

    def _lifted(self, mono: tuple, n: int):
        """D_n(E^a h^c), p not dividing a, by the module docstring's lift, or None."""
        (a, b, c), p = mono, self.cfg.p
        if b or a % p == 0:
            return None
        js = [j for j in range(1, min(a, self.cfg.q - 1) + 1) if binom_mod_p(a + c - 1, j, p)]
        if any(binom_mod_p(n + j, j, p) == 0 for j in js):
            return QmPoly.zero(self.cfg)
        for j in reversed(js):
            # target not 1, E or h: a lift keeps the output weight w + 2n and
            # lowers a, so lift chains end in a peel or squaring (lower output
            # weights); a lift onto E or h re-enters its digit step at w + 2n
            if n + j <= self.limit and a - j + c > 1:
                ratio = binom_mod_p(n + j, j, p) * pow(binom_mod_p(a + c - 1, j, p), p - 2, p)
                return self._derive_monomial((a - j, 0, c), n + j).scale_int(ratio)
        return None

    def _derive_monomial(self, mono: tuple, n: int) -> QmPoly:
        """D_n(E^a g^b h^c): lift, D_1 step, table or digit step, squaring, else Leibniz peel."""
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
        out = self._lifted(mono, n)
        if out is not None:
            self._memo[key] = out
            return out
        p = self.cfg.p
        i = 0 if mono[0] else 1 if mono[1] else 2  # the first generator present
        gen = _GENERATORS["Egh"[i]]
        digit, k = _lowest_digit(n, p)
        if k == 0 and n > 1:
            # D_1 o D_{n-1} = n D_n, n = digit mod p.  d1 reads no memo entry,
            # so no lift at order 1 cycles back here: D_1(E^2 h) lifts to
            # D_2(E h), which applies D_1 to D_1(E h), a sum with E^2 h in it;
            # through derive(., 1) that would read D_1(E^2 h) again
            out = d1(self._derive_monomial(mono, n - 1)).scale_int(pow(digit, p - 2, p))
        elif mono == gen:
            if p**k == n:
                out = generator_table(self.cfg, "Egh"[i], n)
            else:
                # C(n, p^k) = digit, so D_n = digit^{-1} D_{p^k} o D_{n - p^k}
                prev = self._derive_monomial(mono, n - p**k)
                out = self.derive(prev, p**k).scale_int(pow(digit, p - 2, p))
        elif p != 2 and mono[i] % 2 == 0 and mono.count(0) == 2:
            # the squaring rule of the module docstring on x^{2k} = y*y, y = x^k;
            # D_r y vanishes unless pk | r, pk the p-part of k (Frobenius)
            half = tuple(e // 2 for e in mono)
            pk = p ** _lowest_digit(half[i], p)[1]
            pairs = []
            for r in range(0, (n + 1) // 2, pk):
                left = self._derive_monomial(half, r)
                if not left.is_zero():
                    pairs.append((left, self._derive_monomial(half, n - r)))
            if n % 2 == 0:
                # 2 * (sum + mid^2 / 2): one kernel call, (p + 1) / 2 = 1/2 mod p
                mid = self._derive_monomial(half, n // 2)
                pairs.append((mid.scale_int((p + 1) // 2), mid))
            out = sum_of_products(self.cfg, pairs).scale_int(2)
        else:
            _, pos = _lowest_digit(mono[i], p)
            if i == 0 and mono[1]:
                # D_j g vanishes unless j = 0 or 1 mod q: of its j <= m = n/p^k,
                # m//q + 1 + ceil(m/q) remain, against n/p^k + 1 for E's atom
                _, pos_g = _lowest_digit(mono[1], p)
                m, q = n // p**pos_g, self.cfg.q
                if m // q + 1 + (m + q - 1) // q < n // p**pos + 1:
                    i, pos, gen = 1, pos_g, _GENERATORS["g"]
            pk = p**pos
            rest = mono[:i] + (mono[i] - pk,) + mono[i + 1:]
            # D_r(gen^{p^pos}) = (D_{r/p^pos} gen)^{p^pos}, zero unless p^pos | r
            pairs = []
            for r in range(0, n + 1, pk):
                left = self._derive_monomial(gen, r // pk)
                if left.is_zero():
                    continue
                right = self._derive_monomial(rest, n - r)
                if not right.is_zero():
                    pairs.append((left.frobenius_pow(pos) if pos else left, right))
            out = sum_of_products(self.cfg, pairs)
        self._memo[key] = out
        return out

    def derive(self, f: QmPoly, n: int) -> QmPoly:
        """D_n f for any f in K[E,g,h], 0 <= n <= limit, as a fresh element."""
        self._check_field(f)
        self._check_order(n)
        cfg = self.cfg
        groups = {}  # (output monomial, memo denominator) -> [(v, memo coefficient)]
        for mono, v in f.terms.items():
            for k, c in self._derive_monomial(mono, n).terms.items():
                groups.setdefault((k, c.den.c), []).append((v, c))
        out = {}
        for (k, _), pairs in groups.items():
            if len(pairs) == 1:
                v, c = pairs[0]
                s = c * v
            else:
                s = cfg.rat_zero
                for v, c in pairs:
                    s = s + v * RatT(cfg, c.num)
                s = RatT(cfg, c.den).inverse() * s
            out[k] = out[k] + s if k in out else s
        return QmPoly(cfg, out)

    # -- depth polynomial transport -------------------------------------------

    def transform_depth_poly(self, P: DepthPoly, w: int, n: int) -> DepthPoly:
        """Depth polynomial of D_n f from the depth polynomial P of f.

        Coefficient of Y^j is sum_r C(n + w + r - j - 1, r) D_{n-r} P_{j-r};
        equals associated_polynomial(derive(f, n)).
        """
        self._check_field(P)
        self._check_order(n)
        cfg = self.cfg
        l = P.degree if not P.is_zero() else 0
        out = []
        for j in range(n + l + 1):
            acc = QmPoly.zero(cfg)
            for r in range(n + 1):
                src = j - r
                if src < 0 or src > P.degree:
                    continue
                bm = binom_mod_p(n + w + r - j - 1, r, cfg.p)
                if bm == 0:
                    continue
                term = self.derive(P.coeff(src), n - r)
                if not term.is_zero():
                    acc = acc + term.scale_int(bm)
            out.append(acc)
        return DepthPoly(cfg, out)

    # -- kernels on modular forms ----------------------------------------------

    def kernel_on_modular(self, w: int, m: int, k: int):
        """Basis of the modular forms of grading (w, m) killed by D_1 .. D_{p^k}.

        Solves for the joint kernel of D_{p^j}, j = 0..k, on the span of
        modular_basis(w, m); by digit composition this kills every D_n with
        1 <= n < p^{k+1}.
        """
        cfg = self.cfg
        self._check_order(cfg.p**k)
        basis = modular_basis(w, m, cfg)
        if not basis:
            return []
        images = [[self._derive_monomial((0, b, c), cfg.p**j) for b, c in basis]
                  for j in range(k + 1)]
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
        """Every memo entry D_n(mono) is isobaric with the grading n shifts mono's to."""
        q = self.cfg.q
        for (mono, n), val in self._memo.items():
            if val.is_zero():
                continue
            s = grading(val)
            base = monomial_signature(self.cfg, *mono)
            if s.w != base.w + 2 * n:
                raise AssertionError(f"D_{n} of {mono} has weight {s.w}")
            if s.m != (base.m + n) % (q - 1):
                raise AssertionError(f"D_{n} of {mono} has type {s.m}")
            if s.l > base.l + n:
                raise AssertionError(f"D_{n} of {mono} has depth {s.l}")
        return True
