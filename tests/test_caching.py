"""Per-field memoisation: process-wide functools caches keyed by the
interned FieldConfig."""

from dqmf.algebra import FieldConfig, PolyT, _monic_gcd, bracket, d_power
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
