#!/usr/bin/env python3
"""Two-route confirmation of the generator derivative tables.

For each generator and a sweep of orders, compares the polynomial-engine
derivative evaluated into t-series against the series-level divided
derivative of the lattice-sum expansions.  The two routes share only the
definitional equation h = -(D_1 g + E g).

Usage: python scripts/series_cross_check.py [q] [N]
"""

import sys
import time

from dqmf import DerivationEngine, FieldConfig, QmPoly
from dqmf.suite import series_check_orders
from dqmf.tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive


def main():
    q = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cfg = FieldConfig.from_q(q)
    N = int(sys.argv[2]) if len(sys.argv) > 2 else q * q + q + 2
    engine = DerivationEngine(cfg)
    gens = {"E": QmPoly.gen_E(cfg), "g": QmPoly.gen_g(cfg), "h": QmPoly.gen_h(cfg)}
    series = {"E": expand_E(cfg, N), "g": expand_g(cfg, N), "h": expand_h(cfg, N)}
    orders = series_check_orders(cfg)
    t0 = time.time()
    bad = 0
    for name in ("E", "g", "h"):
        for n in orders:
            lhs = evaluate(engine.derive(gens[name], n), N)
            rhs = hyper_derive(series[name], n)
            mark = "ok" if lhs == rhs else "MISMATCH"
            bad += mark != "ok"
            print(f"D_{n:>3} {name}: {mark}")
    print(f"\n{3 * len(orders)} checks, {bad} mismatches, {time.time() - t0:.2f}s at N={N}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
