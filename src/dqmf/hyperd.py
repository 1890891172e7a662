"""The divided-derivative engine on K[E,g,h].

One recursion derives every monomial, by the class of the order n.  It
ends: no rule reads an order above n, and every read at order n is of a
monomial of lower total degree.  By iterativity, D_i o D_j = C(i+j, i)
D_{i+j}, the derivation D_1 (``qmring.d1``: E -> E^2, g -> -(Eg+h),
h -> Eh) commutes with every D_n.

- Any n, an atom x^{p^j}, j >= 1, of one generator x is a Frobenius image,
  D_n(x^{p^j}) = (D_{n/p^j} x)^{p^j}, and zero unless p^j | n.
- Any n, a g-free E^a h^c with p not dividing a is zero if some
  1 <= j <= min(a, q-1) has C(a+c-1, j) != 0 and C(n+j, j) = 0 mod p: as
  D_j(E^{a-j} h^c) = C(a+c-1, j) E^a h^c (D_j E = E^{j+1}, D_j h = E^j h for
  j < q), C(a+c-1, j) D_n(E^a h^c) = C(n+j, j) D_{n+j}(E^{a-j} h^c).  The
  test reads the base-p digits of a+c-1 and n (``_binomial_zero_test``).
- p not dividing n, n = 1 too: every other monomial takes the D_1 step
  D_n(m) = c^{-1} D_1(D_{n-1} m), c = n mod p, with c^{-1} folded into d1's
  two integer multipliers, so each term is scaled once, with no product.
- p | n, a generator: a p-power n reads the paper's tables
  (``generator_table``), any other n the digit step D_n = c^{-1} D_{p^k} o
  D_{n-p^k}, c = C(n, p^k) mod p its lowest nonzero base-p digit, at p^k.
- p | n, E^a g^b h^c with p dividing neither a nor s = a - 1 - b + c is
  lifted at the same order.  With m = E^{a-1} g^b h^c and
  m' = E^{a-1} g^{b-1} h^{c+1}, D_1 m = s E^a g^b h^c - b m', so

    D_n(E^a g^b h^c) = s^{-1} (D_1 D_n m + b D_n m').

  p | a is left to the rules below: a lift would lose Frobenius sparsity.
- Otherwise, for odd p, a pure even power x^{2k} of one generator is squared:

    D_n(x^{2k}) = 2 sum_{0 <= r < n/2} D_r(x^k) D_{n-r}(x^k)
                  + [n even] D_{n/2}(x^k)^2.

This is the Leibniz rule on y*y, y = x^k, with the equal products of the
pairs (r, n-r) and (n-r, r) merged, so it holds in every characteristic; it
halves the products behind E^2, h^2 and h^3.  At p = 2 the sum vanishes
and only the Frobenius term is left.  Any other monomial, and every other
power at p = 2, is a Leibniz convolution that peels off one atom x^{p^k} at
a time and reads its left factors D_r(x^{p^k}) from the memo, one Frobenius
image per (atom, r); they vanish unless p^k | r, which keeps the
convolutions short.  The atom is E's lowest one, or h's when E and g are
absent.  When E and g are both present, g's lowest atom is peeled instead
if fewer of its left factors can be nonzero: D_j g vanishes unless j = 0 or
1 mod q, while D_j E never does, so g's atom counts the j <= n/p^k with
j = 0 or 1 mod q against n/p^k + 1 for E's (ties go to E).  The count is
only a cost estimate: every left factor is read first, and an order r whose
left factor is zero is skipped without deriving the rest, so a wrong
estimate costs time, never correctness.

Each convolution collects its (left, right) pairs and makes one
``qmring.sum_of_products`` call per (monomial, order), which canonicalises
each output coefficient once rather than once per product; the squaring
rule folds its middle square in as the pair (D_{n/2}(x^k)/2, D_{n/2}(x^k))
before the factor 2, 2 being invertible for odd p.

``derive`` returns a one-term f = v*m as the memo entry D_n(m) scaled by
v (a copy when v = 1).  Otherwise it groups the memo terms v*c of f's
monomials, c = num(c)/D, by (output monomial, memo denominator D): one
term gives v*c, several give (sum_j v_j num(c_j)) * (1/D), whose inner sum
runs over the request coefficients' small denominators, so no sum takes a
gcd against D; a unit v, c, num(c) or D multiplies nothing.  The groups
of one monomial are then added, all by RatT constructors and operators,
so the result is canonical.

A single engine instance keeps one memo keyed by (monomial, order).
``stats()`` counts its entries and the hits and misses of its lookups, and
``check_memo_isobaric()`` lists every entry D_n(m) whose weight, type or
depth is not the one n shifts m's to; ``dqmf verify`` reports both after
its checks.  One engine per thread is safe, since engines share only the
per-field functools caches of ``algebra`` (the d_i powers, gcds and the
``_den_pair``, ``_den_product`` and ``_coprime_parts`` LRUs), which are
thread-safe and hold immutable values.
"""

from __future__ import annotations

from .algebra import FieldConfig, RatT, binom_mod_p, d_rat, linear_solve
from .qmring import (
    NotIsobaric, QmPoly, associated_polynomial, d1, grading, modular_basis,
    monomial_signature, sum_of_products,
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


def _binomial_zero_test(A: int, n: int, bound: int, p: int) -> bool:
    """True iff some 1 <= j <= bound has C(A, j) != 0 and C(n+j, j) = 0 mod p.

    By Lucas the first holds iff every base-p digit of j is at most A's, and
    by Kummer the second iff adding j to n carries.  So the least such j is
    (p - n_t) p^t, over the places t with A_t + n_t >= p.
    """
    pt = 1
    while pt <= bound:
        if A % p + n % p >= p and (p - n % p) * pt <= bound:
            return True
        A, n, pt = A // p, n // p, pt * p
    return False


def generator_table(cfg: FieldConfig, gen: str, n: int) -> QmPoly:
    """The paper's explicit D_n of a generator, for n < q and p-powers n <= q^2."""
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
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
        return self._derive_monomial(_GENERATORS[gen], n).scale(self.cfg.rat_one)

    def _derive_monomial(self, mono: tuple, n: int) -> QmPoly:
        """D_n(E^a g^b h^c) by the first rule of the module docstring that applies."""
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
        p, (a, b, c) = self.cfg.p, mono
        i = 0 if a else 1 if b else 2  # the first generator present
        gen = _GENERATORS["Egh"[i]]
        digit, k = _lowest_digit(n, p)
        _, j = _lowest_digit(mono[i], p)
        if j and mono[i] == p**j and mono.count(0) == 2:  # an atom x^{p^j}
            out = QmPoly.zero(self.cfg)
            if n % p**j == 0:
                out = self._derive_monomial(gen, n // p**j).frobenius_pow(j)
        elif a % p and not b and _binomial_zero_test(a + c - 1, n, min(a, self.cfg.q - 1), p):
            out = QmPoly.zero(self.cfg)
        elif k == 0:
            # D_1 o D_{n-1} = n D_n, n = digit mod p
            out = d1(self._derive_monomial(mono, n - 1), pow(digit, p - 2, p))
        elif mono == gen:
            if p**k == n:
                out = generator_table(self.cfg, "Egh"[i], n)
            else:
                # C(n, p^k) = digit, so D_n = digit^{-1} D_{p^k} o D_{n - p^k}
                prev = self._derive_monomial(mono, n - p**k)
                out = self.derive(prev, p**k).scale_int(pow(digit, p - 2, p))
        elif a % p and (a - 1 - b + c) % p:
            # the same-order lift; both reads are at order n, of degree one less
            inv = pow(a - 1 - b + c, p - 2, p)
            out = d1(self._derive_monomial((a - 1, b, c), n), inv)
            if b % p:
                out = out + self._derive_monomial((a - 1, b - 1, c + 1), n).scale_int(b * inv)
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
            pk, memo = p**pos, self._memo
            atom, rest = tuple(e * pk for e in gen), mono[:i] + (mono[i] - pk,) + mono[i + 1:]
            # D_r of the atom is zero unless p^pos | r (the atom rule)
            pairs = []
            for r in range(0, n + 1, pk):
                left = memo.get((atom, r))
                self._hits += left is not None
                if left is None:
                    left = self._derive_monomial(atom, r)
                if left.is_zero():
                    continue
                right = memo.get((rest, n - r))
                self._hits += right is not None
                if right is None:
                    right = self._derive_monomial(rest, n - r)
                if not right.is_zero():
                    pairs.append((left, right))
            out = sum_of_products(self.cfg, pairs)
        self._memo[key] = out
        return out

    def derive(self, f: QmPoly, n: int) -> QmPoly:
        """D_n f for any f in K[E,g,h], 0 <= n <= limit, as a fresh element."""
        self._check_field(f)
        self._check_order(n)
        cfg = self.cfg
        if len(f.terms) == 1:  # nothing to group: the memo entry, scaled
            (mono, v), = f.terms.items()
            return self._derive_monomial(mono, n).scale(v)
        groups = {}  # (output monomial, memo denominator) -> [(v, memo coefficient)]
        for mono, v in f.terms.items():
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

    # -- depth polynomial transport -------------------------------------------

    def transform_depth_poly(self, f: QmPoly, n: int) -> tuple:
        """The tuple associated_polynomial(derive(f, n)), transported from
        P = associated_polynomial(f): the coefficient of Y^j is
        sum_r C(n + w + r - j - 1, r) D_{n-r} P_{j-r}, w the weight of f.
        Raises NotIsobaric when f mixes gradings.
        """
        self._check_field(f)
        self._check_order(n)
        if f.is_zero():
            return ()
        w, P, p = grading(f).w, associated_polynomial(f), self.cfg.p
        out = []
        for j in range(n + len(P)):
            acc = QmPoly.zero(self.cfg)
            for r in range(max(0, j - len(P) + 1), min(n, j) + 1):
                bm = binom_mod_p(n + w + r - j - 1, r, p)
                if bm:
                    acc = acc + self.derive(P[j - r], n - r).scale_int(bm)
            out.append(acc)
        while out and out[-1].is_zero():
            out.pop()
        return tuple(out)

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
        """The (monomial, order, what) of every memo entry D_n(mono) that is not
        isobaric with the grading n shifts mono's to; empty when all pass."""
        q = self.cfg.q
        bad = []
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
        return bad
