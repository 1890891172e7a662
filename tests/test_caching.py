"""Per-field memoisation: process-wide functools caches keyed by the
interned FieldConfig."""

import importlib
import itertools
import pkgutil
import random
import sys
import threading

import dqmf
from dqmf import algebra
from dqmf.algebra import (
    DEFAULT_MODULI,
    FieldConfig,
    PolyT,
    RatT,
    _coprime_parts,
    _den_pair,
    _den_product,
    _monic_gcd,
    bracket,
    d_power,
)
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import QmPoly
from dqmf.suite import run_suite
from dqmf.tseries import _monomial, alpha, expand_E, expand_g, expand_h

from conftest import _ratio_of_linears


def test_repeated_calls_return_the_cached_object(cfg):
    q = cfg.q
    # the monomial cache sits behind expand_E, which hands out copies
    assert _monomial(cfg, q + 3, (1, 0, 0)) is _monomial(cfg, q + 3, (1, 0, 0))
    assert expand_E(cfg, q + 3).nums == _monomial(cfg, q + 3, (1, 0, 0))
    assert expand_E(cfg, q + 3).nums is not _monomial(cfg, q + 3, (1, 0, 0))
    assert d_power(2, 3, cfg) is d_power(2, 3, cfg)
    assert not alpha(1, q, cfg).is_zero()
    assert alpha(1, q, cfg) is alpha(1, q, cfg)


def test_the_process_wide_caches_are_exactly_these_seven():
    """Each per-field value has one builder and at most one cache; the
    brackets, d_coeff and the monic lattices rebuild in well under a
    millisecond and are not cached."""
    found = set()
    for info in pkgutil.iter_modules(dqmf.__path__):
        module = importlib.import_module(f"dqmf.{info.name}")
        found |= {f"{v.__module__}.{v.__qualname__}"
                  for v in vars(module).values() if hasattr(v, "cache_info")}
    assert found == {
        "dqmf.algebra._monic_gcd", "dqmf.algebra._den_pair", "dqmf.algebra._den_product",
        "dqmf.algebra._coprime_parts", "dqmf.algebra.d_power",
        "dqmf.tseries.alpha", "dqmf.tseries._monomial",
    }


def test_the_first_generator_power_is_the_cached_expansion(cfg):
    # one cached copy of each generator series, x^1's entry of _monomial;
    # expand_X hands out its numerators in a dict of their own
    for mono, expand in (((1, 0, 0), expand_E), ((0, 1, 0), expand_g), ((0, 0, 1), expand_h)):
        first, s = _monomial(cfg, cfg.q + 3, mono), expand(cfg, cfg.q + 3)
        assert s.den.is_one() and s.nums == first and s.nums is not first


def test_field_config_carries_no_cache():
    cfg = FieldConfig.from_q(5)
    assert not [name for name in vars(cfg) if "cache" in name]
    assert "__eq__" not in vars(FieldConfig) and "__hash__" not in vars(FieldConfig)


def test_same_q_other_modulus_gets_its_own_entries():
    default = FieldConfig.from_q(9)
    other = FieldConfig(3, 2, (2, 1, 1))
    assert other is not default and other.q == default.q
    for cfg in (default, other):
        assert bracket(1, cfg).cfg is cfg
        assert d_power(1, 2, cfg).cfg is cfg
        assert alpha(2, 10, cfg).cfg is cfg
        assert expand_E(cfg, 12).cfg is cfg
    # same coefficient codes, different fields
    assert bracket(1, default).c == bracket(1, other).c
    assert bracket(1, default) != bracket(1, other)


def test_gcd_cache_is_a_bounded_lru():
    assert _monic_gcd.cache_info().maxsize == 1 << 18
    cfg = FieldConfig.from_q(5)
    a = PolyT(cfg, [2, 0, 1]) * PolyT(cfg, [2, 1])
    b = PolyT(cfg, [1, 3])
    assert a.gcd(b) is b.gcd(a)
    assert a.gcd(b) == PolyT(cfg, [2, 1])


def test_den_pair_cache_is_a_bounded_lru():
    assert _den_pair.cache_info().maxsize == 1 << 12
    cfg = FieldConfig.from_q(5)
    d1, d2 = d_power(1, 1, cfg), d_power(2, 1, cfg)
    g, d1r, d2r, lcm = _den_pair(cfg, d1.c, d2.c)
    assert _den_pair(cfg, d1.c, d2.c)[3] is lcm
    assert g == d1 and d1r == cfg.poly_one and lcm == d2
    assert g * d2r == d2
    quad = PolyT(cfg, [2, 0, 1])  # irreducible over F_5, prime to [1]
    assert _den_pair(cfg, d1.c, quad.c) == (cfg.poly_one, d1, quad, d1 * quad)


def test_den_product_cache_is_a_bounded_lru():
    assert _den_product.cache_info().maxsize == 1 << 12
    cfg = FieldConfig.from_q(5)
    d1, d2 = d_power(1, 1, cfg), d_power(2, 1, cfg)
    prod = _den_product(cfg, d1.c, d2.c)
    assert _den_product(cfg, d1.c, d2.c) is prod
    assert prod == d1 * d2 and prod.cfg is cfg


def _calls(functions, fn, *args):
    """The calls of each of these functions, by name, that fn(*args) makes in
    this thread."""
    codes = {f.__code__: f.__name__ for f in functions}
    calls = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_a_miss_of_each_denominator_cache_multiplies_once():
    """A product's miss builds d1*d2 with one product.  A sum's miss builds
    the lcm with one product, or with none when one denominator divides the
    other: then that one division leaves no remainder, the two denominators
    are the gcd and the lcm, its quotient is the cofactor, and the other
    cofactor is the field's own 1.  Otherwise Euclid goes on from that
    division's remainder, so a miss divides as often as Euclid alone."""
    cfg = FieldConfig.from_q(5)
    d1, d2 = d_power(1, 1, cfg), d_power(2, 1, cfg)
    quad = PolyT(cfg, [2, 0, 1])
    shared = PolyT(cfg, [1, 1]) * PolyT(cfg, [2, 1]), PolyT(cfg, [2, 1]) * PolyT(cfg, [3, 1])
    counted = (PolyT.__mul__, algebra._divmod_lists)
    # d1 | d2 both ways round, coprime, and a common factor that divides neither
    for (x, y), sum_products, sum_divisions in (
        ((d1, d2), 0, 1), ((d2, d1), 0, 1), ((d1, quad), 1, 3), (shared, 1, 4),
    ):
        for cache, calls in ((_den_pair, (sum_products, sum_divisions)), (_den_product, (1, 0))):
            cache.cache_clear()
            assert tuple(_calls(counted, cache, cfg, x.c, y.c).values()) == calls
            assert tuple(_calls(counted, cache, cfg, x.c, y.c).values()) == (0, 0)
            assert cache.cache_info()[:2] == (1, 1)
    for x, y in ((d1, d2), (d2, d1)):
        g, xr, yr, lcm = _den_pair(cfg, x.c, y.c)
        one, cofactor = (xr, yr) if x is d1 else (yr, xr)
        assert g == d1 and lcm == d2 and one is cfg.poly_one and cofactor * d1 == d2


def test_a_warm_product_hashes_no_polyt():
    """The pair LRUs key on the field and two coefficient tuples, and the
    product tests for 0 and 1 on those tuples: a repeated derive of a
    scaled monomial reaches no PolyT hash, comparison or unit test."""
    assert PolyT.__hash__ is None  # so no cache key can hold a PolyT
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    v = RatT(cfg, PolyT(cfg, [1, 1]), PolyT(cfg, [2, 1]))
    f = QmPoly.monomial(cfg, 1, 0, 0, v)
    entry = engine.derive(f, 5)
    assert max(len(c.den.c) for c in entry.terms.values()) == 6  # a denominator of degree 5
    counted = (PolyT.__eq__, PolyT.is_zero, PolyT.is_one)
    assert _calls(counted, engine.derive, f, 5) == dict.fromkeys(["__eq__", "is_zero", "is_one"], 0)


def _cofactor_divisions(n, d):
    """The _divmod_lists calls of a _coprime_parts miss outside its Euclid."""
    _coprime_parts.cache_clear()
    division, euclid = algebra._divmod_lists.__code__, algebra._euclid.__code__
    calls = depth = 0

    def profile(frame, event, arg):
        nonlocal calls, depth
        if frame.f_code is euclid and event in ("call", "return"):
            depth += 1 if event == "call" else -1
        elif event == "call" and frame.f_code is division and not depth:
            calls += 1

    sys.setprofile(profile)
    try:
        parts = _coprime_parts(n.cfg, n.c, d.c)
    finally:
        sys.setprofile(None)
    assert _coprime_parts.cache_info().misses == 1
    return calls, parts


def test_a_coprime_parts_miss_divides_only_a_side_above_the_gcd():
    """A side of the gcd's degree is the gcd up to a unit: n's cofactor is
    the constant lead(n) and the monic d's is the field's 1, with no
    division.  Only a side of higher degree is divided by the gcd."""
    cfg = FieldConfig.from_q(5)
    n = PolyT(cfg, [1, 0, 3])  # 3 (T^2 + 2), not monic
    lin, quad = PolyT(cfg, [1, 1]), PolyT(cfg, [3, 0, 1])  # T + 1; T^2 + 2 and T^2 + 3 are irreducible
    calls, (nr, dr) = _cofactor_divisions(n, n.monic() * lin)  # n | d
    assert calls == 1 and nr == PolyT(cfg, (n.lead(),)) and dr == lin
    calls, (nr, dr) = _cofactor_divisions(n * lin, n.monic())  # d | n
    assert calls == 1 and nr == lin.scale(n.lead()) and dr is cfg.poly_one
    calls, (nr, dr) = _cofactor_divisions(n, n.monic())  # n = 3 d
    assert calls == 0 and nr == PolyT(cfg, (n.lead(),)) and dr is cfg.poly_one
    calls, (nr, dr) = _cofactor_divisions(n * lin, n.monic() * quad)  # neither divides
    assert calls == 2 and nr == lin.scale(n.lead()) and dr == quad


def test_the_pair_caches_keep_their_gcds_out_of_the_gcd_lru():
    """A miss of _den_pair or _coprime_parts takes its gcd by an uncached
    Euclid, so the gcd is held by that entry alone."""
    cfg = FieldConfig.from_q(5)
    d1, d2 = d_power(1, 1, cfg), d_power(2, 1, cfg)
    quad = PolyT(cfg, [2, 0, 1])
    n = PolyT(cfg, [1, 1]) * PolyT(cfg, [2, 1])
    d = PolyT(cfg, [1, 1]) * PolyT(cfg, [3, 0, 1])
    _den_pair.cache_clear()
    _coprime_parts.cache_clear()
    before = _monic_gcd.cache_info()
    for x, y in ((d1, d2), (d2, d1), (d1, quad), (d1 * quad, d2 * quad)):
        _den_pair(cfg, x.c, y.c)
    for x, y in ((n, d), (d, n), (d1, quad), (n * quad, d2)):
        _coprime_parts(cfg, x.c, y.c)
    assert _den_pair.cache_info().misses == _coprime_parts.cache_info().misses == 4
    assert _monic_gcd.cache_info() == before


def test_den_pair_traffic_is_mostly_hits():
    """A battery forms few distinct denominator pairs: the ring kernel's
    products reuse theirs more than seven times each, and the traffic of
    both caches is pinned exactly (q = 5, n_max 16).  The dual route's every-
    order derives of depth-polynomial coefficients made (166, 15) products."""
    _den_pair.cache_clear()
    _den_product.cache_clear()
    results = run_suite(FieldConfig.from_q(5), n_max=16)
    assert all(r["pass"] for r in results)
    assert _den_product.cache_info()[:2] == (104, 14)
    assert _den_pair.cache_info()[:2] == (32, 20)


def test_derive_forms_few_denominator_pairs():
    """A warm derive of multi-term q = 5 elements sums the memo terms of one
    output monomial and one memo denominator D over the request's own
    denominators, then multiplies by 1/D once, so the sums form few distinct
    denominator pairs.  Adding the scaled terms pairwise, over b*D, forms
    56 on this stream."""
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    slices = {}
    for t in [(a, b, c) for a in range(7) for b in range(4) for c in range(3)
              if 0 < 2 * a + 4 * b + 6 * c <= 12]:
        slices.setdefault((2 * t[0] + 4 * t[1] + 6 * t[2], (t[0] + t[2]) % 4), []).append(t)
    slices = [s for s in slices.values() if len(s) > 1]
    rng = random.Random(22)
    stream = []
    for _ in range(100):
        mates = rng.choice(slices)
        support = rng.sample(mates, rng.randint(2, len(mates)))
        stream.append((QmPoly(cfg, {t: _ratio_of_linears(cfg, rng) for t in support}),
                       rng.randint(1, 16)))
    for f, n in stream:
        for t in f.terms:
            engine.derive(QmPoly.monomial(cfg, *t), n)
    _den_pair.cache_clear()
    for f, n in stream:
        engine.derive(f, n)
    assert _den_pair.cache_info().misses <= 13


def test_coprime_parts_cache_is_a_bounded_lru():
    assert _coprime_parts.cache_info().maxsize == 1 << 12
    cfg = FieldConfig.from_q(5)
    n = PolyT(cfg, [1, 1]) * PolyT(cfg, [2, 1])
    d = PolyT(cfg, [1, 1]) * PolyT(cfg, [3, 0, 1])
    nr, dr = _coprime_parts(cfg, n.c, d.c)
    assert _coprime_parts(cfg, n.c, d.c)[0] is nr
    assert nr == PolyT(cfg, [2, 1]) and dr == PolyT(cfg, [3, 0, 1])


def test_coprime_parts_traffic_is_mostly_hits():
    """Scaling memo entries by request coefficients cancels few distinct pairs."""
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    monos = [(a, b, c) for a in range(7) for b in range(4) for c in range(3)
             if 0 < 2 * a + 4 * b + 6 * c <= 12]
    for n in range(1, 17):
        for t in monos:
            engine.derive(QmPoly.monomial(cfg, *t), n)
    entries = list(engine._memo.values())
    assert len(entries) == 362
    rng = random.Random(5)
    _coprime_parts.cache_clear()
    for value in entries:
        for _ in range(4):
            value.scale(_ratio_of_linears(cfg, rng))
    info = _coprime_parts.cache_info()
    assert info.misses and info.hits >= 10 * info.misses


def _unbuilt_field_key():
    """The first irreducible monic quadratic modulus, over a prime whose
    F_{p^2} has no shipped default, whose field is not interned yet."""
    for p in (7, 11, 13):
        assert (p, 2) not in DEFAULT_MODULI
        for c0, c1 in itertools.product(range(p), repeat=2):
            key = (p, 2, (c0, c1, 1))
            if key not in FieldConfig._instances and all(
                (x * x + c1 * x + c0) % p for x in range(p)
            ):
                return key
    raise AssertionError("every candidate field is already interned")


def test_field_interning_is_thread_safe():
    """Threads racing on a key nobody has built yet all get one object."""
    key = _unbuilt_field_key()
    assert key not in FieldConfig._instances
    barrier = threading.Barrier(8)
    got = []

    def build():
        barrier.wait(timeout=30)
        got.append(FieldConfig(*key))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(f is got[0] for f in got)
    assert got[0].q == key[0] ** 2
