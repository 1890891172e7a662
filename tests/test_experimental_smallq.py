"""q in {2, 3}: outside the desk-scale acceptance fields.

The explicit p-power tables carry no q restriction, but their basis
analysis degenerates for these fields.  The check here is acceptance
criterion 2 at q = 2 and 3: the independent series route confirms the
tables verbatim.  Criteria 3 and 5 run at these fields in the gate itself.
"""

import pytest

from dqmf.qmring import QmPoly
from dqmf.suite import p_powers_upto
from dqmf.tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive

from conftest import engine_for


@pytest.mark.parametrize("qs", [2, 3], ids=lambda q: f"q{q}")
def test_series_confirms_tables_small_q(qs):
    engine = engine_for(qs)
    cfg = engine.cfg
    q = cfg.q
    N = q * q + q + 2
    gens = {"E": QmPoly.gen_E(cfg), "g": QmPoly.gen_g(cfg), "h": QmPoly.gen_h(cfg)}
    series = {"E": expand_E(cfg, N), "g": expand_g(cfg, N), "h": expand_h(cfg, N)}
    ns = set(range(1, q + 1))
    for pk in p_powers_upto(cfg, q * q):
        ns.update({pk, pk - 1, pk - q})
    for name in ("E", "g", "h"):
        for n in sorted(x for x in ns if 1 <= x <= engine.limit):
            assert evaluate(engine.derive(gens[name], n), N) == hyper_derive(
                series[name], n
            ), (name, n)
