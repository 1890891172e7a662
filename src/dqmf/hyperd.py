"""The divided-derivative engine on K[E,g,h].

One recursion derives every monomial.  A generator at a p-power order reads
the paper's tables (``generator_table``).  A generator at any other order n
takes one digit step: with c the lowest nonzero base-p digit of n, at place
p^k, iterativity D_i o D_j = C(i+j, i) D_{i+j} and Lucas' C(n, p^k) = c give
D_n = c^{-1} D_{p^k}(D_{n-p^k} gen).  For odd p, a pure even power
x^{2k} of one generator is squared:

    D_n(x^{2k}) = 2 sum_{0 <= r < n/2} D_r(x^k) D_{n-r}(x^k)
                  + [n even] D_{n/2}(x^k)^2.

This is the Leibniz rule on y*y, y = x^k, with the equal products of the
pairs (r, n-r) and (n-r, r) merged, so it holds in every characteristic; it
halves the products behind E^{q-1}, h^2 and h^3.  At p = 2 the sum vanishes
and only the Frobenius term is left.  Any other monomial, and every power at
p = 2, is a Leibniz convolution that peels off one p-power atom of its first
generator at a time, so that Frobenius sparsity (D_m of a p^k-th power
vanishes unless p^k | m) keeps the convolutions short.  A single engine
instance keeps one memo keyed by (monomial, order); one engine per thread is
safe, since engines share only the per-field functools caches of ``algebra``
(brackets, d_i powers, gcds), which are thread-safe.
"""

from __future__ import annotations

from .algebra import FieldConfig, RatT, binom_mod_p, d_power, linear_solve
from .qmring import DepthPoly, QmPoly, grading, modular_basis, monomial_signature

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


def _inv_d(cfg: FieldConfig, i: int, k: int) -> RatT:
    """1/d_i^k as a canonical rational function (d_i is monic)."""
    return RatT._raw(cfg, cfg.poly_one, d_power(i, k, cfg))


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
            return mono(cfg, n + 1, 0, 0) + mono(cfg, 0, s - 1, s + 1, _inv_d(cfg, 1, s))
        if gen == "g":
            return mono(cfg, n, 1, 0)
        return (
            mono(cfg, n, 0, 1)
            + mono(cfg, q, s - 1, s, _inv_d(cfg, 1, s - 1))
            - mono(cfg, 0, s, s + 1, _inv_d(cfg, 1, s))
        )
    # n == q^2
    d1 = RatT._raw(cfg, d_power(1, 1, cfg), cfg.poly_one)
    inv_d2 = _inv_d(cfg, 2, 1)
    if gen == "E":
        return (
            mono(cfg, n + 1, 0, 0)
            + mono(cfg, 0, q - 1, q + 1, _inv_d(cfg, 1, q))
            + mono(cfg, 0, 2 * q, 2, inv_d2)
        )
    if gen == "g":
        return (
            mono(cfg, n, 1, 0)
            - mono(cfg, 0, q + 1, q, d1 * inv_d2)
            + mono(cfg, 0, 0, 2 * q - 1, _inv_d(cfg, 1, q - 1) - d1 * d1 * inv_d2)
        )
    return (
        mono(cfg, n, 0, 1)
        + mono(cfg, q, q - 1, q, _inv_d(cfg, 1, q - 1))
        - mono(cfg, 0, 2 * q + 1, 2, inv_d2)
        - mono(cfg, 0, q, q + 1, d1 * inv_d2 + _inv_d(cfg, 1, q))
    )


class DerivationEngine:
    """Divided derivatives D_n on K[E,g,h] for 0 <= n <= p*q^2 - 1."""

    def __init__(self, cfg: FieldConfig):
        self.cfg = cfg
        self.limit = cfg.p * cfg.q**2 - 1
        self._memo: dict = {}  # (monomial, order) -> D_order of that monomial

    def _check_order(self, n: int):
        if n < 0 or n > self.limit:
            raise OrderOutOfRange(f"order {n} outside [0, {self.limit}]")

    def d_generator(self, gen: str, n: int) -> QmPoly:
        """D_n of a single generator, any 0 <= n <= limit."""
        if gen not in _GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        self._check_order(n)
        return self._derive_monomial(_GENERATORS[gen], n)

    def _derive_monomial(self, mono: tuple, n: int) -> QmPoly:
        """D_n(E^a g^b h^c): table or digit step, squaring, else Leibniz peel."""
        if n == 0:
            return QmPoly.monomial(self.cfg, *mono)
        if mono == (0, 0, 0):
            return QmPoly.zero(self.cfg)
        key = (mono, n)
        out = self._memo.get(key)
        if out is not None:
            return out
        p = self.cfg.p
        i = 0 if mono[0] else 1 if mono[1] else 2  # the first generator present
        gen = _GENERATORS["Egh"[i]]
        if mono == gen:
            digit, k = _lowest_digit(n, p)
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
            out = QmPoly.zero(self.cfg)
            for r in range(0, (n + 1) // 2, pk):
                left = self._derive_monomial(half, r)
                if left.is_zero():
                    continue
                right = self._derive_monomial(half, n - r)
                if not right.is_zero():
                    out = out + left * right
            out = out.scale_int(2)
            if n % 2 == 0:
                mid = self._derive_monomial(half, n // 2)
                if not mid.is_zero():
                    out = out + mid * mid
        else:
            _, pos = _lowest_digit(mono[i], p)
            pk = p**pos
            rest = mono[:i] + (mono[i] - pk,) + mono[i + 1:]
            # D_r(gen^{p^pos}) = (D_{r/p^pos} gen)^{p^pos}, zero unless p^pos | r
            out = QmPoly.zero(self.cfg)
            for r in range(0, n + 1, pk):
                right = self._derive_monomial(rest, n - r)
                if right.is_zero():
                    continue
                left = self._derive_monomial(gen, r // pk)
                if left.is_zero():
                    continue
                if pos:
                    left = left.frobenius_pow(pos)
                out = out + left * right
        self._memo[key] = out
        return out

    def derive(self, f: QmPoly, n: int) -> QmPoly:
        """D_n f for any f in K[E,g,h], 0 <= n <= limit."""
        self._check_order(n)
        if n == 0:
            return f
        out = QmPoly.zero(self.cfg)
        for mono, v in f.terms.items():
            part = self._derive_monomial(mono, n)
            if not part.is_zero():
                out = out + part.scale(v)
        return out

    def depth_drop(self, w: int, l: int, n: int) -> bool:
        return depth_drop(w, l, n, self.cfg.p)

    # -- depth polynomial transport -------------------------------------------

    def transform_depth_poly(self, P: DepthPoly, w: int, n: int) -> DepthPoly:
        """Depth polynomial of D_n f from the depth polynomial P of f.

        Coefficient of Y^j is sum_r C(n + w + r - j - 1, r) D_{n-r} P_{j-r};
        equals associated_polynomial(derive(f, n)).
        """
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

    # -- generator derivatives up to modular forms -----------------------------

    def derivative_mod_h_residue(self, i: int):
        """The modular residues of D_{p^i} on E, g, h.

        Returns (D_{p^i}E - E^{p^i+1},
                 D_{p^i}g - C(q-2+p^i, p^i) E^{p^i} g,
                 D_{p^i}h - E^{p^i}h - E^q D_{p^i-q}h), asserting that each
        is modular (depth 0) and lies in the ideal (h).
        """
        cfg = self.cfg
        n = cfg.p**i
        self._check_order(n)
        mono = QmPoly.monomial
        rE = self.d_generator("E", n) - mono(cfg, n + 1, 0, 0)
        cg = binom_mod_p(cfg.q - 2 + n, n, cfg.p)
        rg = self.d_generator("g", n) - mono(cfg, n, 1, 0).scale_int(cg)
        rh = self.d_generator("h", n) - mono(cfg, n, 0, 1)
        if n >= cfg.q:
            rh = rh - mono(cfg, cfg.q, 0, 0) * self.d_generator("h", n - cfg.q)
        for r in (rE, rg, rh):
            if r.deg_E() > 0:
                raise AssertionError("residue is not modular")
            if any(k[2] < 1 for k in r.terms):
                raise AssertionError("residue is not divisible by h")
        return rE, rg, rh

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
        images = {}
        row_keys = set()
        for j in range(k + 1):
            n = cfg.p**j
            for bc in basis:
                img = self._derive_monomial((0, bc[0], bc[1]), n)
                images[(n, bc)] = img
                row_keys.update((n, mono) for mono in img.terms)
        if not row_keys:
            sols = [
                [cfg.rat_one if i == jdx else cfg.rat_zero for i in range(len(basis))]
                for jdx in range(len(basis))
            ]
        else:
            rows = []
            for key in sorted(row_keys):
                n, mono = key
                rows.append(
                    [images[(n, bc)].terms.get(mono, cfg.rat_zero) for bc in basis]
                )
            _, sols = linear_solve(rows)
        out = []
        for vec in sols:
            f = QmPoly.zero(cfg)
            for coeff, (b, c) in zip(vec, basis):
                if not coeff.is_zero():
                    f.terms[(0, b, c)] = coeff
            out.append(f)
        return out

    # -- bookkeeping -------------------------------------------------------------

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
            if q != 2 and s.m != (base.m + n) % (q - 1):
                raise AssertionError(f"D_{n} of {mono} has type {s.m}")
            if s.l > base.l + n:
                raise AssertionError(f"D_{n} of {mono} has depth {s.l}")
        return True
