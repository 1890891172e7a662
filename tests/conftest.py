import math
from itertools import product

import pytest

from dqmf import tseries
from dqmf.algebra import FieldConfig, PolyT, RatT, binom_mod_p, d_power
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import GENERATORS, QmPoly, grading, monomial_signature
from dqmf.tseries import TSeries, evaluate, expand_E, expand_g, expand_h, hyper_derive
from dqmf.verify import StabilityReport, member

MAIN_FIELDS = [4, 5, 7, 8, 9]

_engines = {}


def engine_for(q: int) -> DerivationEngine:
    """One engine per field for the whole session so memo tables stay warm."""
    eng = _engines.get(q)
    if eng is None:
        eng = DerivationEngine(FieldConfig.from_q(q))
        _engines[q] = eng
    return eng


_series_matched = set()


def generator_transport_mismatches(engine, gen: str) -> list:
    """The orders 1 <= n <= limit at which D_n of the generator gen is not the
    depth transport of its own E-free parts N_k, k <= n (``_transport`` on
    gen's monomial): an algebraic check with no series.  The engine reads no
    transport for a generator, so a wrong E-free part at one order shows at
    the orders whose E-terms the transport builds from it."""
    mono = GENERATORS[gen]
    return [n for n in range(1, engine.limit + 1)
            if engine._transport(mono, n) != engine.d_generator(gen, n)]


def valence_order(cfg, gen: str, n: int) -> int:
    """N_n = max(q^2 + q + 2, floor((w + 2n)/(q + 1)) + 1), w the weight of
    the generator gen.  A wrong E-free part of D_n gen differs from the true
    one by a nonzero modular form of weight w + 2n, and by the valence bound
    (Gekeler, Invent. Math. 93 (1988)) such a form has nu_t <= (w + 2n)/(q + 1)
    < N_n: its t-expansion is nonzero below N_n."""
    w = monomial_signature(cfg, *GENERATORS[gen]).w
    return max(cfg.q * cfg.q + cfg.q + 2, (w + 2 * n) // (cfg.q + 1) + 1)


def series_mismatches(engine, gen: str, orders) -> list:
    """The orders n of `orders` at which D_n of the generator gen, t-expanded,
    differs from the series D_n of gen's lattice-sum expansion at N_n =
    valence_order.  One expansion at the largest N_n, truncated per order:
    the coefficients below N of D_n read only the coefficients below N."""
    cfg = engine.cfg
    at = {n: valence_order(cfg, gen, n) for n in orders}
    expand = {"E": expand_E, "g": expand_g, "h": expand_h}[gen]
    full = expand(cfg, max(at.values()))
    series = {N: TSeries(cfg, N, full.terms) for N in set(at.values())}
    return [n for n, N in at.items()
            if evaluate(engine.d_generator(gen, n), N) != hyper_derive(series[N], n)]


def check_every_generator_order_against_the_series(q: int) -> None:
    """D_n x for x in {E, g, h} at every order 1 <= n <= limit, t-expanded,
    equals the series D_n of x's lattice-sum expansion at N_n (valence_order),
    and the transport of its own E-free parts, on a fresh engine; then the
    filled memo is isobaric.  Together the two prove every order: at the
    first wrong order the transport makes the error a wrong E-free part, a
    modular form that the series sees below N_n.  Acceptance criterion 2 and
    the engine suite both report this comparison, which runs once per field
    per session: a field is recorded only once it passes, so a failure fails
    every test that asks again."""
    if q in _series_matched:
        return
    engine = DerivationEngine(FieldConfig.from_q(q))
    for gen in "Egh":
        assert series_mismatches(engine, gen, range(1, engine.limit + 1)) == [], gen
        assert generator_transport_mismatches(engine, gen) == [], gen
    assert len(engine._memo) > 3 * engine.limit
    assert engine.check_memo_isobaric() == []
    _series_matched.add(q)


def sigma(x):
    """The coefficient Frobenius sigma on a QmPoly or a TSeries: every code of
    every num and den through cfg.frob, T fixed."""
    cfg, frob = x.cfg, x.cfg.frob

    def rat(v):
        return RatT(cfg, PolyT(cfg, [frob[c] for c in v.num.c]),
                    PolyT(cfg, [frob[c] for c in v.den.c]))

    if isinstance(x, QmPoly):
        return QmPoly(cfg, {k: rat(v) for k, v in x.terms.items()})
    return TSeries(cfg, x.order, {n: rat(v) for n, v in x.terms.items()})


def sigma_mismatches(engine, elements):
    """(element index, order) wherever derive(sigma f, n) != sigma(derive(f, n)),
    every order 1 <= n <= min(limit, 48), and (index, "evaluate") wherever
    evaluate(sigma f, N) != sigma(evaluate(f, N)), N = q^2 + q + 2.  Since D_n
    is F_q(T)-linear, both commute with sigma when every memo entry and every
    generator expansion lies over F_p(T), which sigma fixes."""
    q = engine.cfg.q
    bad = []
    for i, f in enumerate(elements):
        sf = sigma(f)
        if evaluate(sf, q * q + q + 2) != sigma(evaluate(f, q * q + q + 2)):
            bad.append((i, "evaluate"))
        bad += [(i, n) for n in range(1, min(engine.limit, 48) + 1)
                if engine.derive(sf, n) != sigma(engine.derive(f, n))]
    return bad


def fill_generators(engine, n_max=None):
    """The engine, once it has derived E, g and h at every order n <=
    min(limit, n_max), n_max None for the limit."""
    for gen in "Egh":
        for n in range(min(engine.limit, n_max or engine.limit) + 1):
            engine.d_generator(gen, n)
    return engine


def generator_codes(cfg):
    """The codes of every memo entry of a new engine after D_n of E, g and h
    at every order to the limit: (monomial, order) -> {monomial: (num codes,
    den codes)}."""
    return {key: {k: (v.num.c, v.den.c) for k, v in val.terms.items()}
            for key, val in fill_generators(DerivationEngine(cfg))._memo.items()}


@pytest.fixture(params=MAIN_FIELDS, ids=lambda q: f"q{q}")
def q(request):
    return request.param


@pytest.fixture
def cfg(q):
    return FieldConfig.from_q(q)


@pytest.fixture
def engine(q):
    return engine_for(q)


def random_fraction(cfg, rng):
    """A random element of F_q(T), numerator and denominator of degree <= 2,
    drawn as ``verify.random_ratt`` draws its degree <= 1 ones; the golden
    digests were pinned on these draws."""
    num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 3))])
    den = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 3))])
    if den.is_zero():
        den = cfg.poly_one
    return RatT(cfg, num, den)


def monic_polys(cfg, d: int):
    """All monic elements of F_q[T] of degree exactly d."""
    return tuple(PolyT(cfg, tail + (1,)) for tail in product(range(cfg.q), repeat=d))


def t_sub(a: PolyT, N: int, k: int = 1) -> TSeries:
    """t_a^k, with t_a = t(az) = 1/rho_a(1/t), as a series exact below order N.

    For monic a of degree d, t_a is t^(q^d) over the unit
    1 + sum_{j<d} c_j t^(q^d - q^j), so nu_infinity(t_a) = q^d.  The unit's
    (-k)-th power below N - k q^d is one inversion over F_q[T], Frobenius-
    lifted for k >= 2.  E sums t_a (k = 1), g sums t_a^(q-1); k = 0 gives 1.
    No command reads it: it is the per-a reference that the orbit-folded
    lattice sums, which share its ``_t_power``, are tested against.
    """
    if k < 0:
        raise ValueError(f"t_sub needs k >= 0, got k = {k}")
    if a.is_zero() or a.lead() != 1:
        raise ValueError("t_sub needs a monic polynomial")
    cfg = a.cfg
    if k * cfg.q**a.degree >= N:
        return TSeries(cfg, N)
    if k == 0:
        return TSeries.one(cfg, N)
    return tseries._series(cfg, N, cfg.poly_one, tseries._t_power(cfg, tseries.carlitz(a), N, k))


def pth_root(f):
    """The p-th root of f in K[E,g,h]: exponents and T-exponents divided by p,
    codes mapped through the inverse of cfg.frob; raises ArithmeticError when
    f is not a p-th power.  The package applies Frobenius in one direction
    only, so the kernel tests extract roots here."""
    cfg, p = f.cfg, f.cfg.p

    def root(poly):
        if any(c and i % p for i, c in enumerate(poly.c)):
            raise ArithmeticError("not a p-th power")
        return PolyT(cfg, [cfg.frob.index(c) for c in poly.c[::p]])

    if any(e % p for mono in f.terms for e in mono):
        raise ArithmeticError("not a p-th power")
    return QmPoly(cfg, {tuple(e // p for e in mono): RatT(cfg, root(x.num), root(x.den))
                        for mono, x in f.terms.items()})


def _inv_d(cfg, i, k):
    return RatT(cfg, cfg.poly_one, d_power(i, k, cfg))


def _d(cfg, i):
    return RatT(cfg, d_power(i, 1, cfg))


def expected_generator_value(cfg, gen, n):
    """The explicit generator tables (n < q and p-powers <= q^2), transcribed
    here independently of the package, which reads its own copy."""
    q, p, e = cfg.q, cfg.p, cfg.e
    mono = QmPoly.monomial
    if n < q:
        if gen == "E":
            return mono(cfg, n + 1, 0, 0)
        if gen == "h":
            return mono(cfg, n, 0, 1)
        if n == 0:
            return mono(cfg, 0, 1, 0)
        if n == 1:
            return -(mono(cfg, 1, 1, 0) + mono(cfg, 0, 0, 1))
        return QmPoly.zero(cfg)
    i = round(math.log(n, p))
    assert p**i == n, "expected table order must be a p-power"
    s = p ** (i - e)
    if n < q * q:
        if gen == "E":
            return mono(cfg, n + 1, 0, 0) + mono(cfg, 0, s - 1, s + 1, _inv_d(cfg, 1, s))
        if gen == "g":
            return mono(cfg, n, 1, 0)
        return (
            mono(cfg, n, 0, 1)
            + mono(cfg, q, s - 1, s, _inv_d(cfg, 1, s - 1))
            - mono(cfg, 0, s, s + 1, _inv_d(cfg, 1, s))
        )
    d1, inv_d2 = _d(cfg, 1), _inv_d(cfg, 2, 1)
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


def depth_drop(w: int, l: int, n: int, p: int) -> bool:
    """True iff order-n differentiation drops the depth of a generic element
    of weight w and depth l below l + n: the paper's criterion, the vanishing
    of C(w - l + n - 1, n) mod p.  No command reads it; acceptance criterion
    4 checks it against the engine."""
    if n < 1:
        raise ValueError("depth_drop needs n >= 1")
    return binom_mod_p(w - l + n - 1, n, p) == 0


def associated_polynomial(f):
    """The depth polynomial of f: f under E -> E + Y, g -> g, h -> h, as the
    tuple of its Y^0, Y^1, ... coefficients in K[E,g,h], () for f = 0.  Y
    carries weight 2, type 1 and depth 1; the Y^0 coefficient is f itself,
    and the last one, Y^l for l the depth of f, is nonzero.  No command reads
    it; the engine reads the transport of depth polynomials at E = 0 only."""
    cfg, p = f.cfg, f.cfg.p
    l = max((k[0] for k in f.terms), default=-1)
    coeffs = [QmPoly.zero(cfg) for _ in range(l + 1)]
    # distinct terms of f land on distinct monomials (a - j, b, c) of each Y^j
    for (a, b, c), v in f.terms.items():
        for j in range(a + 1):
            bm = binom_mod_p(a, j, p)
            if bm:
                coeffs[j].terms[(a - j, b, c)] = v.scale_int(bm)
    return tuple(coeffs)


def transform_depth_poly(engine, f, n):
    """associated_polynomial(engine.derive(f, n)) by the depth transport, from
    P = associated_polynomial(f): the coefficient of Y^j is
    sum_r C(n + w + r - j - 1, r) D_{n-r} P_{j-r}, w the weight of f, each
    binomial taken first and one derive made per nonzero binomial.  It reads
    no ``_transport``, the engine's coding of the same identity at E = 0, so
    criterion 4's dual route compares two codings.  Raises NotIsobaric when f
    mixes gradings."""
    if f.is_zero():
        return ()
    w, P, p = grading(f).w, associated_polynomial(f), engine.cfg.p
    out = []
    for j in range(n + len(P)):
        acc = QmPoly.zero(engine.cfg)
        for r in range(max(0, j - len(P) + 1), min(n, j) + 1):
            bm = binom_mod_p(n + w + r - j - 1, r, p)
            if bm:
                acc = acc + engine.derive(P[j - r], n - r).scale_int(bm)
        out.append(acc)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def check_hyperstable_every_order(engine, ideal, n_max):
    """The every-order reference of ``verify.check_hyperstable``: D_n G tested
    for every generator G at every order 1 <= n <= n_max, each generator to
    its own first failure.  No command reads it; the p-power check is tested
    against it."""
    report = StabilityReport(ideal, n_max)
    for gen in ideal.generators(engine.cfg):
        fail_n, witness = None, None
        for n in range(1, n_max + 1):
            ok, res = member(ideal, engine.derive(gen, n))
            if not ok:
                fail_n, witness = n, res
                break
        report.entries.append((gen, fail_n, witness))
    return report


# RatT products and sums take denominators from the _den_product and
# _den_pair caches and cross-cancel through _coprime_parts; these references
# canonicalise through the constructor (gcd and exact division)


def _reference_mul(a, b):
    return RatT(a.cfg, a.num * b.num, a.den * b.den)


def _reference_add(a, b):
    return RatT(a.cfg, a.num * b.den + b.num * a.den, a.den * b.den)


def _ratio_of_linears(cfg, rng):
    """A nonzero (a + bT)/(c + dT), the coefficient shape of warm requests."""
    while True:
        num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 2))])
        den = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 2))])
        if num and den:
            return RatT(cfg, num, den)
