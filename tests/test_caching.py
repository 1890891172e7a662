"""Per-field memoisation: process-wide functools caches keyed by the
interned FieldConfig."""

import itertools
import sys
import threading

from dqmf.algebra import DEFAULT_MODULI, FieldConfig, PolyT, _monic_gcd, bracket, d_power
from dqmf.tseries import alpha, expand_E


def test_repeated_calls_return_the_cached_object(cfg):
    q = cfg.q
    assert expand_E(cfg, q + 3) is expand_E(cfg, q + 3)
    assert d_power(2, 3, cfg) is d_power(2, 3, cfg)
    assert not alpha(1, q, cfg).is_zero()
    assert alpha(1, q, cfg) is alpha(1, q, cfg)


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
    a = PolyT.from_ints(cfg, [2, 0, 1]) * PolyT.from_ints(cfg, [2, 1])
    b = PolyT.from_ints(cfg, [1, 3])
    assert a.gcd(b) is b.gcd(a)
    assert a.gcd(b) == PolyT.from_ints(cfg, [2, 1])


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
