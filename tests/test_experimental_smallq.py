"""q in {2, 3}: outside the desk-scale acceptance fields.

The explicit p-power tables carry no q restriction, but their basis
analysis degenerates for these fields, so the checks here are exploratory
rather than gating.  Empirically everything passes: the independent series
route confirms the tables verbatim.
"""

import pytest

from dqmf.algebra import FieldConfig
from dqmf.qmring import QmPoly
from dqmf.tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive
from dqmf.verify import IdealId, check_hyperstable

from conftest import SMALL_FIELDS, _p_powers, engine_for

pytestmark = pytest.mark.experimental


@pytest.fixture(params=SMALL_FIELDS, ids=lambda q: f"q{q}")
def qs(request):
    return request.param


def test_series_confirms_tables_small_q(qs):
    engine = engine_for(qs)
    cfg = engine.cfg
    q = cfg.q
    N = q * q + q + 2
    gens = {"E": QmPoly.gen_E(cfg), "g": QmPoly.gen_g(cfg), "h": QmPoly.gen_h(cfg)}
    series = {"E": expand_E(cfg, N), "g": expand_g(cfg, N), "h": expand_h(cfg, N)}
    ns = set(range(1, q + 1))
    for pk in _p_powers(cfg, q * q):
        ns.update({pk, pk - 1, pk - q})
    for name in ("E", "g", "h"):
        for n in sorted(x for x in ns if 1 <= x <= engine.limit):
            assert evaluate(engine.derive(gens[name], n), N) == hyper_derive(
                series[name], n
            ), (name, n)


def test_leading_expansion_terms_small_q(qs):
    cfg = FieldConfig.from_q(qs)
    q = cfg.q
    N = q * q + q + 2
    E, h = expand_E(cfg, N), expand_h(cfg, N)
    assert E.coeff(1) == cfg.rat_one
    assert E.coeff(q * q - 2 * q + 2) == cfg.rat_one
    assert h.coeff(1) == -cfg.rat_one


def test_stability_runs_small_q(qs):
    """Stability holds computationally; no classification claim for q < 4."""
    engine = engine_for(qs)
    n_max = min(16, engine.limit)
    for ideal in (IdealId("h"), IdealId("P0"), IdealId("Pinf")):
        assert check_hyperstable(engine, ideal, n_max).passed
