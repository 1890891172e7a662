"""Truncated t-expansions over F_q(T): the analytic oracle.

Expansions of E, g, h are built from Carlitz-module lattice sums; the only
identity imported from the polynomial side is the definitional equation
h = -(D_1 g + E g).  The series-level divided derivative follows the
convolution formula with the alpha coefficients (sums of 1/(d_{i_1}...d_{i_r})
over ways of writing the order as r q-powers), so derivative identities
checked against the engine are genuinely two-route.  The series product
accumulates each t-coefficient once, over the common denominator of the
operands, walking only the nonzero terms of their numerators.
"""

from __future__ import annotations

import functools
from itertools import product

from .algebra import FieldConfig, PolyT, RatT, binom_mod_p, d_power
from .qmring import QmPoly

__all__ = [
    "TSeries",
    "CarlitzPoly",
    "carlitz",
    "t_sub",
    "expand_E",
    "expand_g",
    "expand_h",
    "alpha",
    "hyper_derive",
    "evaluate",
    "nu_infinity",
]


class TSeries:
    """Truncated power series in t: sparse exponent -> K map, exact below order."""

    __slots__ = ("cfg", "order", "terms")

    def __init__(self, cfg: FieldConfig, order: int, terms=None):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.cfg = cfg
        self.order = order
        self.terms = {}
        if terms:
            for n, v in terms.items():
                if n < order and not v.is_zero():
                    self.terms[n] = v

    @classmethod
    def zero(cls, cfg, order):
        return cls(cfg, order)

    @classmethod
    def one(cls, cfg, order):
        return cls(cfg, order, {0: cfg.rat_one})

    def coeff(self, n: int) -> RatT:
        if n >= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.terms.get(n, self.cfg.rat_zero)

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and self.terms == other.terms
        )

    def truncate(self, order: int):
        if order >= self.order:
            return self
        return TSeries(self.cfg, order, self.terms)

    def __add__(self, other):
        order = min(self.order, other.order)
        out = TSeries(self.cfg, order)
        t = {n: v for n, v in self.terms.items() if n < order}
        for n, v in other.terms.items():
            if n >= order:
                continue
            cur = t.get(n)
            s = v if cur is None else cur + v
            if s.is_zero():
                t.pop(n, None)
            else:
                t[n] = s
        out.terms = t
        return out

    def __neg__(self):
        out = TSeries(self.cfg, self.order)
        out.terms = {n: -v for n, v in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatT):
            return self.scale(other)
        cfg = self.cfg
        order = min(self.order, other.order)
        dx, xs = _cleared(self, order)
        dy, ys = _cleared(other, order)
        add, mul = cfg.add, cfg.mul
        # one raw F_q[T] coefficient list per t-exponent, over dx * dy
        acc = {}
        for n1, deg1, t1 in xs:
            for n2, deg2, t2 in ys:
                n = n1 + n2
                if n >= order:
                    break
                out = acc.get(n)
                if out is None:
                    out = acc[n] = [0] * (deg1 + deg2 + 1)
                elif len(out) <= deg1 + deg2:
                    out.extend([0] * (deg1 + deg2 + 1 - len(out)))
                for i, x in t1:
                    row = mul[x]
                    for j, y in t2:
                        k = i + j
                        out[k] = add[out[k]][row[y]]
        den = dx * dy
        terms = {}
        for n, c in acc.items():
            num = PolyT(cfg, c)
            if num.c:
                terms[n] = RatT._raw(cfg, num, den) if den.is_one() else RatT(cfg, num, den)
        res = TSeries(cfg, order)
        res.terms = terms
        return res

    def scale(self, coeff: RatT):
        out = TSeries(self.cfg, self.order)
        if not coeff.is_zero():
            out.terms = {n: v * coeff for n, v in self.terms.items()}
        return out

    def scale_int(self, k: int):
        out = TSeries(self.cfg, self.order)
        if k % self.cfg.p:
            out.terms = {n: v.scale_int(k) for n, v in self.terms.items()}
        return out

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative series power")
        acc = TSeries.one(self.cfg, self.order)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __str__(self):
        parts = []
        for n, v in self.items():
            vs = str(v)
            coeff = f"({vs})" if ("+" in vs or "/" in vs or "*" in vs) else vs
            if n == 0:
                parts.append(coeff)
            else:
                tp = "t" if n == 1 else f"t^{n}"
                parts.append(tp if v.is_one() else f"{coeff} * {tp}")
        parts.append(f"O(t^{self.order})")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {
            "order": self.order,
            "terms": [
                {"n": n, "num": str(v.num), "den": str(v.den)} for n, v in self.items()
            ],
        }


def _cleared(s: TSeries, order: int):
    """(D, terms) for the coefficients of s below order, over their lcm D.

    ``terms`` holds (n, deg N_n, [(exponent, code), ...]) sorted by n, where
    N_n = a_n * D and only the nonzero coefficients of N_n are listed.
    """
    cfg = s.cfg
    live = sorted((n, v) for n, v in s.terms.items() if n < order)
    common = cfg.poly_one
    for _, v in live:
        if not v.den.is_one():
            g = common.gcd(v.den)
            common = common * v.den.exact_div(g)
    out = []
    for n, v in live:
        num = v.num if v.den.c == common.c else v.num * common.exact_div(v.den)
        out.append((n, num.degree, [(i, x) for i, x in enumerate(num.c) if x]))
    return common, out


def nu_infinity(s: TSeries):
    """Least exponent with a nonzero coefficient; None if zero to the order."""
    if not s.terms:
        return None
    return min(s.terms)


# ---------------------------------------------------------------------------
# Carlitz module.


class CarlitzPoly:
    """The F_q-linear polynomial rho_a(X) = sum_j c_j X^(q^j) for a in F_q[T]."""

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg, coeffs):
        self.cfg = cfg
        self.coeffs = list(coeffs)
        while self.coeffs and self.coeffs[-1].is_zero():
            self.coeffs.pop()

    @property
    def degree(self):
        return len(self.coeffs) - 1


def carlitz(a: PolyT) -> CarlitzPoly:
    """rho_a, built additively from rho_{T^i} with rho_T(X) = T X + X^q."""
    cfg = a.cfg
    rat = lambda poly: RatT(cfg, poly)
    # rho_{T^i}: start from rho_1 = X and compose with rho_T
    powers = [[cfg.rat_one]]
    for _ in range(a.degree):
        prev = powers[-1]
        nxt = [cfg.rat_zero] * (len(prev) + 1)
        T = rat(cfg.poly_T)
        for j, c in enumerate(prev):
            nxt[j] = nxt[j] + T * c
            nxt[j + 1] = nxt[j + 1] + c.frobenius_pow(cfg.e)
        powers.append(nxt)
    out = [cfg.rat_zero] * (a.degree + 1)
    for i, code in enumerate(a.c):
        if code == 0:
            continue
        scal = RatT(cfg, PolyT(cfg, (code,)))
        for j, c in enumerate(powers[i]):
            out[j] = out[j] + scal * c
    return CarlitzPoly(cfg, out)


def t_sub(a: PolyT, N: int) -> TSeries:
    """t_a = t(az) = 1/rho_a(1/t) as a series, exact below order N.

    For monic a of degree d this is t^(q^d) times the inverse of the unit
    1 + sum_{j<d} c_j t^(q^d - q^j), so nu_infinity(t_a) = q^d.
    """
    if a.is_zero() or a.lead() != 1:
        raise ValueError("t_sub needs a monic polynomial")
    return _t_sub_pow(a, N, 1)


def _invert_unit(cfg, unit: dict, M: int) -> dict:
    """Inverse of 1 + sum unit[s] t^s up to (exclusive) order M, as a dict."""
    out = {0: cfg.rat_one}
    if not unit:
        return out
    exps = sorted(unit)
    for n in range(1, M):
        acc = None
        for s in exps:
            if s > n:
                break
            prev = out.get(n - s)
            if prev is None:
                continue
            term = unit[s] * prev
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            out[n] = -acc
    return out


def _unit_pow_neg(cfg, coeff: RatT, s: int, k: int, M: int) -> dict:
    """(1 + coeff t^s)^(-k) up to order M: sum_j (-1)^j C(k-1+j, j) coeff^j t^(sj)."""
    out = {}
    cur = cfg.rat_one
    j = 0
    while j * s < M:
        bm = binom_mod_p(k - 1 + j, j, cfg.p)
        if bm:
            v = cur.scale_int(bm if j % 2 == 0 else -bm)
            if not v.is_zero():
                out[j * s] = v
        j += 1
        cur = cur * coeff
    return out


def _t_sub_pow(a: PolyT, N: int, k: int) -> TSeries:
    """t_a^k exact below N, with a closed form for single-term units."""
    cfg = a.cfg
    rho = carlitz(a)
    d = rho.degree
    base = k * cfg.q**d
    if base >= N:
        return TSeries.zero(cfg, N)
    unit = {cfg.q**d - cfg.q**j: rho.coeffs[j] for j in range(d) if not rho.coeffs[j].is_zero()}
    M = N - base
    if not unit:
        inv_k = {0: cfg.rat_one}
    elif len(unit) == 1:
        ((s, c),) = unit.items()
        inv_k = _unit_pow_neg(cfg, c, s, k, M)
    else:
        inv = TSeries(cfg, M, _invert_unit(cfg, unit, M))
        inv_k = (inv**k).terms
    return TSeries(cfg, N, {base + n: v for n, v in inv_k.items() if n < M})


@functools.cache
def _monic_polys(cfg, d: int):
    """All monic elements of F_q[T] of degree exactly d."""
    return tuple(PolyT(cfg, tail + (1,)) for tail in product(range(cfg.q), repeat=d))


@functools.cache
def expand_E(cfg: FieldConfig, N: int) -> TSeries:
    """E as the lattice sum over monic a of a * t_a, truncated below N."""
    total = TSeries.zero(cfg, N)
    d = 0
    while cfg.q**d < N:
        for a in _monic_polys(cfg, d):
            total = total + t_sub(a, N).scale(RatT(cfg, a))
        d += 1
    return total


@functools.cache
def expand_g(cfg: FieldConfig, N: int) -> TSeries:
    """g = 1 - [1] * sum over monic a of t_a^(q-1), truncated below N.

    The degree-zero lattice layer is normalized to the constant 1, which
    pins the leading coefficient; the monic layers are summed honestly.
    """
    q = cfg.q
    total = TSeries.zero(cfg, N)
    d = 0
    while cfg.q**d * (q - 1) < N:
        for a in _monic_polys(cfg, d):
            total = total + _t_sub_pow(a, N, q - 1)
        d += 1
    bracket1 = RatT(cfg, d_power(1, 1, cfg))
    return TSeries.one(cfg, N) - total.scale(bracket1)


@functools.cache
def expand_h(cfg: FieldConfig, N: int) -> TSeries:
    """h = -(D_1 g + E g): the one definitional equation on the series side."""
    g = expand_g(cfg, N)
    E = expand_E(cfg, N)
    return -(hyper_derive(g, 1) + E * g)


# ---------------------------------------------------------------------------
# The series-level divided derivative.


@functools.cache
def alpha(r: int, i: int, cfg: FieldConfig) -> RatT:
    """Sum of 1/(d_{i_1} ... d_{i_r}) over q^{i_1} + ... + q^{i_r} = i.

    Grouping the ordered tuples into multisets (a_j copies of the part q^j)
    gives sum over solutions of multinomial(r; a_0, a_1, ...) / prod d_j^{a_j},
    the multinomials reduced mod p by Lucas.  alpha(0, 0) = 1.
    """
    if r == 0:
        return cfg.rat_one if i == 0 else cfg.rat_zero
    if i < r or (i - r) % (cfg.q - 1) != 0:
        return cfg.rat_zero
    q, p = cfg.q, cfg.p
    J = 0
    while q ** (J + 1) <= i:
        J += 1
    total = cfg.rat_zero
    # choose multiplicities a_J, ..., a_1; a_0 is forced
    stack = [(J, r, i, [])]
    while stack:
        j, r_rem, i_rem, mults = stack.pop()
        if j == 0:
            if r_rem != i_rem:
                continue
            counts = [r_rem] + mults  # a_0, a_1, ..., a_J
            coef = 1
            run = 0
            for c in counts:
                run += c
                coef = coef * binom_mod_p(run, c, p) % p
            if coef == 0:
                continue
            den = cfg.poly_one
            for jj, c in enumerate(counts):
                if jj and c:
                    den = den * d_power(jj, c, cfg)
            total = total + RatT._raw(cfg, cfg.poly_one, den).scale_int(coef)
            continue
        step = q**j
        for a_j in range(min(r_rem, i_rem // step) + 1):
            stack.append((j - 1, r_rem - a_j, i_rem - a_j * step, [a_j] + mults))
    return total


def hyper_derive(s: TSeries, i: int) -> TSeries:
    """D_i on series: coefficient of t^n in D_i f is
    sum_{r=1}^{n-1} (-1)^(i+r) C(n-1, r) alpha(r, i) a_{n-r}.

    The output keeps the input truncation order (the formula only consumes
    coefficients below n).  D_1 specializes to t^m -> m t^(m+1).
    """
    if i < 0:
        raise ValueError("derivative order must be >= 0")
    if i == 0:
        return s
    cfg = s.cfg
    out = {}
    p = cfg.p
    r = 1
    while r < s.order - 1:
        al = alpha(r, i, cfg)
        if not al.is_zero():
            sign_al = al if (i + r) % 2 == 0 else -al
            for m, a in s.terms.items():
                if m == 0:
                    continue
                n = m + r
                if n >= s.order:
                    continue
                bm = binom_mod_p(n - 1, r, p)
                if bm == 0:
                    continue
                term = (sign_al * a).scale_int(bm)
                cur = out.get(n)
                v = term if cur is None else cur + term
                if v.is_zero():
                    out.pop(n, None)
                else:
                    out[n] = v
        r += 1
    res = TSeries(cfg, s.order)
    res.terms = out
    return res


def evaluate(f: QmPoly, N: int) -> TSeries:
    """The substitution homomorphism sending E, g, h to their expansions."""
    cfg = f.cfg
    E, g, h = expand_E(cfg, N), expand_g(cfg, N), expand_h(cfg, N)
    pows = {}

    def power(base_name, base, n):
        if n == 0:
            return None
        key = (base_name, n)
        v = pows.get(key)
        if v is None:
            v = base**n
            pows[key] = v
        return v

    total = TSeries.zero(cfg, N)
    for (a, b, c), v in f.terms.items():
        term = None
        for part in (power("E", E, a), power("g", g, b), power("h", h, c)):
            if part is not None:
                term = part if term is None else term * part
        if term is None:
            term = TSeries.one(cfg, N)
        total = total + term.scale(v)
    return total
