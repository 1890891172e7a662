"""Truncated t-expansions over F_q(T): the analytic oracle.

Expansions of E, g, h are built from Carlitz-module lattice sums; the only
identity imported from the polynomial side is the definitional equation
h = -(D_1 g + E g).  ``carlitz(a)`` gives the coefficients of rho_a as
sum a_i rho_{T^i}, since a -> rho_a is F_q-linear, over a basis built by one
Horner step per degree, and ``_t_power`` gives t_a^k from one inversion
of a unit over F_q[T], lifted by Frobenius.  The lattice sums of
a^j t_a^k (j = k = 1 for E; j = 0, k = q - 1 for g) run over the orbits of
the coefficient Frobenius, which fixes rho_T: one inversion per orbit, its
term traced over the orbit.  The series-level divided derivative follows
the convolution formula with the alpha coefficients (sums of
1/(d_{i_1}...d_{i_r}) over ways of writing the order as r q-powers), so
derivative identities checked against the engine are genuinely two-route.
A series is one monic den over F_q[T] numerators prime to it as a whole,
and a canonical RatT coefficient is built (the RatT constructor) only when
read.  Every sum and product over F_q(T) is one ``_sum_of_products`` call
(``+``, ``*``, ``hyper_derive``, ``evaluate``): products are
convolved on raw F_q[T] code lists by ``_accumulate``, its right operand
listed once per call (``_listed``, once per inversion in ``_invert_unit``),
and ``_canonical`` takes one running gcd with the monic den that keeps its
quotients, so a content divides again only the numerators read before the
gcd last shrank.  The caches are
``alpha`` and ``_monomial``, which holds each E^a g^b h^c over F_q[T]: a
generator from its one builder ``_generator_series``, a product digit by
digit in base p since the p-th power of such a series is its Frobenius, and
the part below p by generator blocks, g's lacunary block first; it never
leaves this module, and ``expand_E/g/h`` return copies of its entries.
"""

from __future__ import annotations

import functools
from itertools import product

from .algebra import FieldConfig, PolyT, RatT, binom_mod_p, common_denominator, d_power, d_rat
from .qmring import QmPoly

__all__ = [
    "TSeries",
    "carlitz",
    "expand_E",
    "expand_g",
    "expand_h",
    "alpha",
    "hyper_derive",
    "evaluate",
    "nu_infinity",
]


class TSeries:
    """Truncated power series in t, exact below order: a monic ``den`` over nonzero
    PolyT ``nums`` (t-exponent -> numerator) with gcd(den, all nums) = 1."""

    __slots__ = ("cfg", "order", "den", "nums")

    def __init__(self, cfg: FieldConfig, order: int, terms=None):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        terms = terms or {}
        if terms and min(terms) < 0:
            raise ValueError(f"negative t-exponent {min(terms)}")
        if any(v.cfg is not cfg for v in terms.values()):
            raise ValueError("coefficient from a different field")
        terms = {n: v for n, v in terms.items() if n < order and v}
        # the lcm of canonical denominators is prime to the cleared numerators
        self.cfg, self.order, self.den = cfg, order, common_denominator(cfg, terms.values())
        self.nums = {n: v.num if v.den.c == self.den.c else v.num * self.den.exact_div(v.den)
                     for n, v in terms.items()}

    @classmethod
    def one(cls, cfg, order):
        return _series(cfg, order, cfg.poly_one, {0: cfg.poly_one})

    def coeff(self, n: int) -> RatT:
        if n >= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return RatT(self.cfg, self.nums.get(n, self.cfg.poly_zero), self.den)

    @property
    def terms(self) -> dict:
        """Exponent -> canonical RatT, built anew on every read."""
        return {n: RatT(self.cfg, num, self.den) for n, num in self.nums.items()}

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, TSeries) and self.cfg is other.cfg and self.order == other.order
                and self.den.c == other.den.c and self.nums == other.nums)

    def __add__(self, other):
        order = min(self.order, other.order)
        one = TSeries.one(self.cfg, order)
        return _sum_of_products(self.cfg, order, [(self, one), (other, one)])

    def __neg__(self):
        return _series(self.cfg, self.order, self.den, {n: -v for n, v in self.nums.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatT):  # the kernel rejects a factor from another field
            other = TSeries(other.cfg, self.order, {0: other})
        return _sum_of_products(self.cfg, min(self.order, other.order), [(self, other)])

    def __str__(self):
        parts = []
        for n, v in self.items():
            vs = str(v)
            coeff = f"({vs})" if ("+" in vs or "/" in vs or "*" in vs) else vs
            tp = "t" if n == 1 else f"t^{n}"
            parts.append(coeff if n == 0 else tp if v.is_one() else f"{coeff} * {tp}")
        return " + ".join(parts + [f"O(t^{self.order})"])

    __repr__ = __str__

    def to_json(self):
        terms = [{"n": n, "num": str(v.num), "den": str(v.den)} for n, v in self.items()]
        return {"order": self.order, "terms": terms}


def _series(cfg, order: int, den: PolyT, nums: dict) -> TSeries:
    """The series nums/den; the caller guarantees the normal form, or only that
    the series is exact when it is a kernel operand."""
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    s = object.__new__(TSeries)
    s.cfg, s.order, s.den, s.nums = cfg, order, den, nums
    return s


def _listed(y: dict) -> list:
    """y (t-exponent -> nonzero PolyT) as ``_accumulate`` reads its right operand:
    (t-exponent, length, nonzero (index, code) terms), by rising t-exponent."""
    return [(n, len(v.c), [(j, w) for j, w in enumerate(v.c) if w]) for n, v in sorted(y.items())]


def _accumulate(cfg, acc: dict, x: dict, ys: list, M: int):
    """Add x * y below M into acc (t-exponent -> raw F_q[T] code list), x
    mapping t-exponents to nonzero PolyT coefficients and ys = ``_listed(y)``."""
    add, mul = cfg.add, cfg.mul
    for n1, v in x.items():
        deg1 = len(v.c) - 1
        t1 = [(i, u) for i, u in enumerate(v.c) if u]
        for n2, len2, t2 in ys:  # deg1 + len2 is the length of the product
            n = n1 + n2
            if n >= M:
                break
            out = acc.get(n)
            if out is None:
                out = acc[n] = [0] * (deg1 + len2)
            elif len(out) < deg1 + len2:
                out.extend([0] * (deg1 + len2 - len(out)))
            for i, u in t1:
                row = mul[u]
                for j, w in t2:
                    out[i + j] = add[out[i + j]][row[w]]


def _product(cfg, x: dict, y: dict, M: int) -> dict:
    """x * y below M for x, y over F_q[T], t-exponent -> nonzero PolyT."""
    acc = {}
    _accumulate(cfg, acc, x, _listed(y), M)
    return {n: v for n, v in ((n, PolyT(cfg, raw)) for n, raw in acc.items()) if v}


def _frobenius(cfg, s: dict, M: int, k: int) -> dict:
    """s^(p^k) below M for s over F_q[T]: t- and T-exponents times p^k, every
    code sent through ``cfg.frob`` k times."""
    step = cfg.p**k
    return {step * n: v.frobenius_pow(k) for n, v in s.items() if step * n < M}


def _canonical(cfg, order: int, acc: dict, den: PolyT) -> TSeries:
    """acc's raw F_q[T] code lists over a monic den in normal form: a running
    gcd g of den with the numerators, which stops at 1, keeping the quotients
    by g until a remainder shrinks it.  A content g != 1 then divides den and
    each numerator without a kept quotient."""
    nums = {n: v for n, v in ((n, PolyT(cfg, raw)) for n, raw in acc.items()) if v}
    g, quots = den, {}
    for n, v in nums.items():
        if len(g.c) == 1:
            break
        quot, rem = v.divmod(g)
        if rem:  # gcd(g, v) = gcd(g, rem), keyed on short tuples
            g, quots = g.gcd(rem), {}
        else:
            quots[n] = quot
    if len(g.c) > 1:
        den, nums = den.exact_div(g), {n: quots.get(n) or v.exact_div(g) for n, v in nums.items()}
    return _series(cfg, order, den, nums)


def _over(s: TSeries, common: PolyT) -> dict:
    """s's numerators over ``common``, a multiple of s.den: one cofactor per series."""
    if s.den.c == common.c:
        return s.nums
    cofactor = common.exact_div(s.den)
    return {n: v * cofactor for n, v in s.nums.items()}


def _sum_of_products(cfg: FieldConfig, order: int, pairs) -> TSeries:
    """The sum of x * y over TSeries pairs (x, y) of exact operands, below order:
    the left operands over the lcm Dx of their dens, the right ones over Dy, every
    numerator product convolved into one code list per t-exponent over Dx * Dy."""
    pairs = list(pairs)
    if any(x.cfg is not cfg or y.cfg is not cfg for x, y in pairs):
        raise ValueError("series over different fields")
    dx = common_denominator(cfg, (x for x, _ in pairs))
    dy = common_denominator(cfg, (y for _, y in pairs))
    acc = {}
    for x, y in pairs:
        _accumulate(cfg, acc, _over(x, dx), _listed(_over(y, dy)), order)
    return _canonical(cfg, order, acc, dx * dy)


def nu_infinity(s: TSeries):
    """Least exponent with a nonzero coefficient; None if zero to the order."""
    return min(s.nums) if s.nums else None


# ---------------------------------------------------------------------------
# Carlitz module.


def _rho(a: PolyT, basis: list) -> tuple:
    """rho_a = sum_i a_i rho_{T^i}, as a -> rho_a is F_q-linear; basis[i] = rho_{T^i}."""
    rho = [a.cfg.poly_zero] * len(a.c)
    for code, rho_Ti in zip(a.c, basis):
        for j, c in enumerate(rho_Ti):
            rho[j] = rho[j] + c.scale(code)
    return tuple(rho)


def carlitz(a: PolyT) -> tuple:
    """The coefficients (c_0, ..., c_d) in F_q[T] of rho_a(X) = sum_j c_j X^(q^j),
    over the basis rho_{T^i}, i <= d, of one Horner step per degree: rho_T(X) =
    T X + X^q gives rho_{Tb} = T rho_b + rho_b^q, that is c_j <- T c_j + c_{j-1}^q."""
    cfg, basis = a.cfg, [(a.cfg.poly_one,)]
    while len(basis) < len(a.c):
        low = (cfg.poly_zero,) + tuple(c.frobenius_pow(cfg.e) for c in basis[-1])
        shifted = (PolyT(cfg, (0,) + y.c) for y in basis[-1] + (cfg.poly_zero,))
        basis.append(tuple(x + y for x, y in zip(low, shifted)))
    return _rho(a, basis)


def _invert_unit(cfg, unit: dict, M: int, k: int) -> dict:
    """(1 + sum unit[s] t^s)^(-k) below M, t-exponent -> nonzero PolyT, k >= 1.

    k = 1 pushes each v_n of v_n = -sum_s unit[s] v_{n-s}, once complete, into
    the accumulators of the orders n + s.  k >= 2 takes Frob(unit^(-m)) * unit^r,
    m = ceil(k/q), r = qm - k and the inner power below ceil(M/q): over F_q[T]
    the q-th power of a series is its Frobenius (exponents times q).
    """
    if k == 1:
        out, acc, units = {0: cfg.poly_one}, {}, _listed(unit)
        _accumulate(cfg, acc, out, units, M)
        for n in range(1, M):
            if n in acc and (v := PolyT(cfg, [cfg.neg[x] for x in acc.pop(n)])):
                out[n] = v
                _accumulate(cfg, acc, {n: v}, units, M)
        return out
    q, m = cfg.q, -(-k // cfg.q)
    out = _frobenius(cfg, _invert_unit(cfg, unit, -(-M // q), m), M, cfg.e)
    for _ in range(q * m - k):
        out = _product(cfg, out, {0: cfg.poly_one, **unit}, M)
    return out


def _t_power(cfg, rho: tuple, N: int, k: int) -> dict:
    """t_a^k below N, t-exponent -> nonzero PolyT, for rho = carlitz(a), a monic
    of degree d = len(rho) - 1, k >= 1 and k q^d < N: t^(k q^d) times the (-k)-th
    power of the unit 1 + sum_{j<d} c_j t^(q^d - q^j)."""
    d = len(rho) - 1
    base = k * cfg.q**d
    unit = {cfg.q**d - cfg.q**j: c for j, c in enumerate(rho[:-1]) if c}
    return {base + n: v for n, v in _invert_unit(cfg, unit, N - base, k).items()}


def _orbit_representatives(cfg, d: int):
    """(s, a) per orbit of the monic a of degree d under sigma, the coefficient
    Frobenius: a has the orbit's least coefficient tuple, s is the orbit's size."""
    for tail in product(range(cfg.q), repeat=d):
        s, x = 1, tuple(cfg.frob[c] for c in tail)
        while x > tail:
            s, x = s + 1, tuple(cfg.frob[c] for c in x)
        if x == tail:
            yield s, PolyT(cfg, tail + (1,))


def _lattice_sum(cfg: FieldConfig, N: int, j: int, k: int) -> TSeries:
    """Sum over monic a of a^j t_a^k below N, k >= 1 (t_a^k is O(t^N) once
    k q^deg(a) >= N).  sigma fixes rho_T = T X + X^q, so the term of sigma(a) is
    sigma of a's term: an orbit of size s adds the trace sum_{i<s} sigma^i of its
    representative's term, taken once on the sum over the orbits of that size."""
    by_size, basis = {}, []  # basis[d] = rho_{T^d}
    while k * cfg.q**len(basis) < N:
        basis.append(carlitz(PolyT(cfg, (0,) * len(basis) + (1,))))
        for s, a in _orbit_representatives(cfg, len(basis) - 1):
            _accumulate(cfg, by_size.setdefault(s, {}), _t_power(cfg, _rho(a, basis), N, k),
                        _listed({0: a**j}), N)
    total, add = by_size.pop(1, {}), cfg.add
    for s, acc in by_size.items():
        trace = list(range(cfg.q))  # Tr_s = 1 + sigma Tr_{s-1} on F_q codes
        for _ in range(s - 1):
            trace = [add[c][cfg.frob[t]] for c, t in enumerate(trace)]
        for n, raw in acc.items():
            out = total.setdefault(n, [])
            out.extend([0] * (len(raw) - len(out)))
            for i, c in enumerate(raw):
                out[i] = add[out[i]][trace[c]]
    return _canonical(cfg, N, total, cfg.poly_one)


def _generator_series(cfg: FieldConfig, N: int, mono: tuple) -> dict:
    """The expansion of the generator mono in (1, 0, 0), (0, 1, 0), (0, 0, 1)
    below N over F_q[T], uncached: only a miss of ``_monomial``, its one cache,
    builds it.  h reads g and E from ``_monomial``.  The lattice sums are fixed
    by the coefficient Frobenius, so every coefficient lies in F_p[T]."""
    if mono == (1, 0, 0):
        s = _lattice_sum(cfg, N, 1, 1)
    elif mono == (0, 1, 0):
        s = TSeries.one(cfg, N) - _lattice_sum(cfg, N, 0, cfg.q - 1) * d_rat(1, 1, cfg)
    else:
        g, E = (_series(cfg, N, cfg.poly_one, _monomial(cfg, N, m)) for m in ((0, 1, 0), (1, 0, 0)))
        s = -(hyper_derive(g, 1) + E * g)
    if not s.den.is_one():  # once per generator
        raise AssertionError(f"the expansion {mono} has a coefficient outside F_q[T]")
    if any(c >= cfg.p for x in s.nums.values() for c in x.c):
        raise AssertionError(f"the expansion {mono} has a coefficient outside F_p[T]")
    return s.nums


def expand_E(cfg: FieldConfig, N: int) -> TSeries:
    """E as the lattice sum over monic a of a * t_a, truncated below N."""
    return _series(cfg, N, cfg.poly_one, dict(_monomial(cfg, N, (1, 0, 0))))


def expand_g(cfg: FieldConfig, N: int) -> TSeries:
    """g = 1 - [1] * sum over monic a of t_a^(q-1), truncated below N.

    The degree-zero lattice layer is normalized to the constant 1, which
    pins the leading coefficient; the monic layers are summed honestly.
    """
    return _series(cfg, N, cfg.poly_one, dict(_monomial(cfg, N, (0, 1, 0))))


def expand_h(cfg: FieldConfig, N: int) -> TSeries:
    """h = -(D_1 g + E g): the one definitional equation on the series side."""
    return _series(cfg, N, cfg.poly_one, dict(_monomial(cfg, N, (0, 0, 1))))


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
            coef, run = 1, 0
            for c in counts:
                run += c
                coef = coef * binom_mod_p(run, c, p) % p
            if coef == 0:
                continue
            den = cfg.poly_one
            for jj, c in enumerate(counts):
                if jj and c:
                    den = den * d_power(jj, c, cfg)
            total = total + RatT(cfg, cfg.poly_one, den).scale_int(coef)
            continue
        step = q**j
        for a_j in range(min(r_rem, i_rem // step) + 1):
            stack.append((j - 1, r_rem - a_j, i_rem - a_j * step, [a_j] + mults))
    return total


def hyper_derive(s: TSeries, i: int) -> TSeries:
    """D_i on series: coefficient of t^n in D_i f is
    sum_{r=1}^{n-1} (-1)^(i+r) C(n-1, r) alpha(r, i) a_{n-r}.

    The output keeps the input truncation order (the formula only consumes
    coefficients below n).  D_1 specializes to t^m -> m t^(m+1).  One kernel
    call over a pair per nonzero alpha(r, i) (zero for r > i): the signed alpha
    as a one-term series, and sum_m C(m+r-1, r) a_m t^(m+r) over s.den, the
    binomials that vanish mod p left out.
    """
    if i < 0:
        raise ValueError("derivative order must be >= 0")
    if i == 0:
        return _series(s.cfg, s.order, s.den, dict(s.nums))
    cfg, order, p = s.cfg, s.order, s.cfg.p
    pairs = []
    for r in range(1, min(i, order - 2) + 1):
        if (al := alpha(r, i, cfg)).is_zero():
            continue
        shifted = {}
        for m, a in s.nums.items():
            if m + r < order and (b := binom_mod_p(m + r - 1, r, p)):
                shifted[m + r] = a if b == 1 else a.scale(b)
        signed = _series(cfg, order, al.den, {0: al.num if (i + r) % 2 == 0 else -al.num})
        pairs.append((signed, _series(cfg, order, s.den, shifted)))
    return _sum_of_products(cfg, order, pairs)


@functools.cache
def _monomial(cfg: FieldConfig, N: int, mono: tuple) -> dict:
    """E^a g^b h^c below N for mono = (a, b, c), t-exponent -> nonzero PolyT, as
    S(m mod p) * Frob(S(m div p)) with the base at the full N.  A mixed part
    below p is g^b times E^a h^c, and E^a h^c is E^a times h^c: g's series is
    lacunary, so a pure g block multiplies few coefficient pairs.  Only a pure
    power is halved, so a miss recurses O(log p) deep per base-p digit."""
    if sum(mono) <= 1:
        return _generator_series(cfg, N, mono) if any(mono) else {0: cfg.poly_one}
    if max(mono) >= cfg.p:
        low = tuple(n % cfg.p for n in mono)
        lifted = _frobenius(cfg, _monomial(cfg, N, tuple(n // cfg.p for n in mono)), N, 1)
        return _product(cfg, _monomial(cfg, N, low), lifted, N) if any(low) else lifted
    a, b, c = mono
    part = (0, b, 0) if b and a + c else (a, 0, 0) if a and c else tuple(n // 2 for n in mono)
    rest = tuple(n - k for n, k in zip(mono, part))
    return _product(cfg, _monomial(cfg, N, part), _monomial(cfg, N, rest), N)


def evaluate(f: QmPoly, N: int) -> TSeries:
    """The substitution homomorphism sending E, g, h to their expansions: one
    kernel call over the pairs (coefficient, cached monomial series).  E^a g^b h^c
    has valuation a + c, since nu(E) = nu(h) = 1 and nu(g) = 0, so a monomial with
    a + c >= N is left out before its coefficient's den can enter the lcm."""
    cfg, pairs = f.cfg, []
    for mono, v in f.terms.items():
        if v.cfg is not cfg:
            raise ValueError("coefficient from a different field")
        if mono[0] + mono[2] < N:
            pairs.append((_series(cfg, N, v.den, {0: v.num}),
                          _series(cfg, N, cfg.poly_one, _monomial(cfg, N, mono))))
    return _sum_of_products(cfg, N, pairs)
