"""Canonical engine outputs pinned by sha256, one digest per field.

Each digest covers ``str(engine.derive(m, n))`` for every monomial m of
weight <= W and every order n <= min(N, limit), then every entry of
``h_power_quotients(engine, n, min(N, limit))`` for n = -3..3 on a fresh
engine.  The digests were computed with pairwise RatT products and sums,
before the sum-of-products kernel of ``qmring`` took over the Leibniz
convolutions.  Canonical forms are unique, so any arithmetic route that
is exact reproduces them byte for byte.
"""

import hashlib

import pytest

from dqmf.algebra import FieldConfig
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import QmPoly
from dqmf.verify import h_power_quotients

# q -> (weight bound W, order bound N, sha256)
GOLDEN = {
    3: (12, 26, "df4d33c0fd4317042885458b4af6b10eba542b8eab0ef215bbef3c4061fe80a2"),
    4: (20, 31, "bd2486d7d5fac14bc8f29ba8bdc3694367e153e084b156b35d751a576bc99166"),
    5: (24, 32, "63fc39a18ceeacb2263a3b00a3b74f2dde0ae2fbb00e8d0db8dd1be0e027dc0e"),
    7: (24, 32, "735e49a8624fc4b61736f52985900d076bec985e6142c8d89bff27d306041bfb"),
    9: (30, 48, "05fb650e08003705b4a7032ec13b0a8c11c28cd6b95196fcc6c6eef56cef8ff1"),
}


def _digest(q, W, N):
    cfg = FieldConfig.from_q(q)
    engine = DerivationEngine(cfg)
    top = min(N, engine.limit)
    h = hashlib.sha256()
    for a in range(W // 2 + 1):
        for b in range(W // (q - 1) + 1):
            for c in range(W // (q + 1) + 1):
                if 2 * a + (q - 1) * b + (q + 1) * c > W:
                    continue
                f = QmPoly.monomial(cfg, a, b, c)
                for n in range(top + 1):
                    h.update(f"{a} {b} {c} {n} {engine.derive(f, n)}\n".encode())
    for n in range(-3, 4):
        for r, x in enumerate(h_power_quotients(DerivationEngine(cfg), n, top)):
            h.update(f"h^{n} {r} {x}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("q", sorted(GOLDEN), ids=lambda q: f"q{q}")
def test_engine_outputs_match_the_pinned_digests(q):
    W, N, expected = GOLDEN[q]
    assert _digest(q, W, N) == expected
