#!/usr/bin/env python3
"""Print the divided-derivative generator tables D_n E, D_n g, D_n h for a
chosen field: all n < q and every p-power up to q^2.

Usage: python scripts/generator_tables.py [q]
"""

import sys

from dqmf import DerivationEngine, FieldConfig
from dqmf.suite import generator_table_orders


def main():
    q = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cfg = FieldConfig.from_q(q)
    engine = DerivationEngine(cfg)
    print(f"# field F_{q} (p={cfg.p}, e={cfg.e}), computable orders 0..{engine.limit}")
    for gen in ("E", "g", "h"):
        print(f"\n## D_n {gen}")
        for n in generator_table_orders(cfg):
            print(f"D_{n} {gen} = {engine.d_generator(gen, n)}")


if __name__ == "__main__":
    main()
