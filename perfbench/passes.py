"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/passes.py --workload serve --seed 1 [--trace-out PATH]

A pass imports dqmf from ``src/`` of the checkout, sets up, runs the
workload's fixed work (its timed phase), checks every output and prints one
JSON object.  Every pass starts cold: FieldConfig instances are interned per
process with their gcd, d-power, alpha and monic caches, and the lattice-sum
expansions are cached module-wide, so a second pass in the same process
would skip that work.  With --trace-out the public entry points are wrapped
(see tracing.py) and the spans are written to that path.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

# serve: the warm-up derives every monomial of the request space at every
# order, so each timed request hits the engine memo.
SERVE_FIELDS = (4, 5, 7, 8, 9)
SERVE_W_MAX = 20  # weight bound of a request element
SERVE_N_MAX = 32  # order bound of a request (capped at the engine limit)
SERVE_REQUESTS = 20000
SERVE_BLOCK = 500  # requests between calibration marks
SERVE_SAMPLE = 8  # timed requests re-checked against the t-expansion route

CERTIFY_FIELDS = (4, 5, 7, 8, 9)
CERTIFY_N_MAX = 48

# oracle: (q, truncation N, number of random elements besides E, g, h)
ORACLE_CASES = ((4, 200, 2), (5, 250, 2))


# The calibration kernel: a fixed pure-Python convolution through lookup
# tables, shaped like PolyT multiplication over F_7, plus a strided walk
# over a few MB of small tuples.  Shared cloud vCPUs drift in speed by tens
# of percent over minutes as co-tenants come and go, so every time a pass
# reports is scaled by REF_KERNEL_S over the kernel's time measured just
# before and just after it: times are reported at reference speed.
_P = 7
_ADD = [[(a + b) % _P for b in range(_P)] for a in range(_P)]
_MUL = [[(a * b) % _P for b in range(_P)] for a in range(_P)]
_LEFT = tuple((3 * i + 1) % _P for i in range(48))
_RIGHT = tuple((5 * i + 2) % _P for i in range(48))
_POOL = [tuple((i * k) % _P for k in range(6)) for i in range(1 << 15)]  # a few MB
REF_KERNEL_S = 0.0015  # the kernel's time on an idle core of a 2-vCPU x86 (Xeon) machine


def _kernel_once():
    seen = {}
    for rep in range(8):
        out = [0] * (len(_LEFT) + len(_RIGHT) - 1)
        for i, x in enumerate(_LEFT):
            if x:
                row = _MUL[x]
                for j, y in enumerate(_RIGHT):
                    if y:
                        out[i + j] = _ADD[out[i + j]][row[y]]
        seen[(rep,) + tuple(out[:4])] = tuple(out)
    for i in range(0, 1 << 15, 29):  # strided walk over the pool, small allocations
        t = _POOL[(i * 40503) & 0x7FFF]
        seen[t[:3]] = (t[3], i)
    return seen


def kernel_s():
    """Seconds the calibration kernel takes now (median of three runs)."""
    times = []
    for _ in range(3):
        t0 = clock()
        _kernel_once()
        times.append(clock() - t0)
    return statistics.median(times)


class Pass:
    """Outcome of one pass: set-up time, op latencies and failures, with the
    calibration marks that scale them to reference speed."""

    def __init__(self):
        self.marks = []  # (start, end, kernel seconds), in time order
        self.setup = (0.0, 0.0)
        self.ops = []  # (start, end) of each op
        self.attempted = 0
        self.failures = []
        self.rss_mb = 0.0
        self.repeat_share = 0.0

    def calibrate(self):
        t0 = clock()
        k = kernel_s()
        self.marks.append((t0, clock(), k))

    def check(self, ok, what):
        """Count one checked output; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def op(self, t0, t1, ok, what):
        """A timed op from t0 to t1 whose output check gave ok."""
        self.ops.append((t0, t1))
        self.check(ok, what)

    def scaled(self, t0, t1):
        """Seconds from t0 to t1 at reference speed, calibration marks left out.

        Each stretch between consecutive marks is scaled by the mean of the
        kernel times at its two ends.
        """
        i = bisect.bisect_left(self.marks, (t0,))
        k_prev = self.marks[max(i - 1, 0)][2]
        total, cur = 0.0, t0
        for start, end, k in self.marks[i:]:
            if start >= t1:
                total += (t1 - cur) * 2 * REF_KERNEL_S / (k_prev + k)
                return total
            total += (start - cur) * 2 * REF_KERNEL_S / (k_prev + k)
            k_prev, cur = k, end
        return total + (t1 - cur) * REF_KERNEL_S / k_prev

    def unscaled(self, t0, t1):
        """Seconds from t0 to t1 as measured, calibration marks left out."""
        return t1 - t0 - sum(end - start for start, end, _ in self.marks
                             if t0 <= start and end <= t1)

    def to_reference(self):
        """Factor taking this pass's seconds to reference speed, by its median mark."""
        return REF_KERNEL_S / statistics.median(k for _, _, k in self.marks)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _grading_ok(q, out, w, m, l, n):
    """D_n of an element of weight w, type m, depth l has weight w + 2n,
    type m + n and depth <= l + n (the zero element has every grading)."""
    for a, b, c in out.terms:
        ww, mm, ll = inputs.signature(q, a, b, c)
        if ww != w + 2 * n or mm != (m + n) % (q - 1) or ll > l + n:
            return False
    return True


def serve(dqmf, seed, tracer, res, t_start):
    cfgs = {q: dqmf.FieldConfig.from_q(q) for q in SERVE_FIELDS}
    engines = {q: dqmf.DerivationEngine(cfgs[q]) for q in SERVE_FIELDS}
    monos = {q: inputs.monomials(q, SERVE_W_MAX) for q in SERVE_FIELDS}

    tops = {q: min(SERVE_N_MAX, engines[q].limit) for q in SERVE_FIELDS}
    seen = set()
    for q in SERVE_FIELDS:
        for n in range(1, tops[q] + 1):
            res.calibrate()
            for t in monos[q]:
                out = engines[q].derive(dqmf.QmPoly.monomial(cfgs[q], *t), n)
                seen.add((q, t, n))
                res.check(_grading_ok(q, out, *inputs.signature(q, *t), n),
                          f"warm-up q={q} {t} n={n}: grading")
    res.setup = (t_start, clock())
    res.calibrate()

    if tracer:
        tracer.set_phase("timed")
    rng = inputs.seeded(seed, "serve-stream")
    sample = set(inputs.seeded(seed, "serve-sample").sample(range(SERVE_REQUESTS), SERVE_SAMPLE))
    kept = []
    repeats = 0
    for i in range(SERVE_REQUESTS):
        if tracer:  # input generation is the client's work, not the service's
            tracer.set_phase("inputs")
        q = rng.choice(SERVE_FIELDS)
        support = inputs.random_support(q, monos[q], rng)
        n = rng.randint(1, tops[q])
        repeats += all((q, t, n) in seen for t in support)
        seen.update((q, t, n) for t in support)
        f = inputs.element(dqmf, cfgs[q], support, rng)
        if tracer:
            tracer.set_phase("timed")
            tracer.request = f"serve-{i}"
        t0 = clock()
        out = engines[q].derive(f, n)
        t1 = clock()
        w, m, _ = inputs.signature(q, *support[0])
        ok = _grading_ok(q, out, w, m, max(t[0] for t in support), n)
        res.op(t0, t1, ok, f"request {i} q={q} {support} n={n}: grading")
        if i in sample:
            kept.append((i, q, f, n, out))
        if i % SERVE_BLOCK == SERVE_BLOCK - 1:
            res.calibrate()
    res.repeat_share = repeats / SERVE_REQUESTS
    res.rss_mb = _peak_rss_mb()

    if tracer:
        tracer.set_phase("check")
    for i, q, f, n, out in kept:
        N = q * q + q + 2
        res.check(dqmf.evaluate(out, N) == dqmf.hyper_derive(dqmf.evaluate(f, N), n),
                  f"request {i} q={q} n={n}: series route disagrees")


def certify(dqmf, seed, tracer, res, t_start):
    suite = importlib.import_module("dqmf.suite")
    cfgs = {q: dqmf.FieldConfig.from_q(q) for q in CERTIFY_FIELDS}
    engines = {q: dqmf.DerivationEngine(cfgs[q]) for q in CERTIFY_FIELDS}
    res.setup = (t_start, clock())
    res.calibrate()

    if tracer:
        tracer.set_phase("timed")
    for q in CERTIFY_FIELDS:  # one op is the battery of one field, as `dqmf verify --q`
        rng = inputs.seeded(seed, f"certify-{q}")
        bad = []
        t0 = clock()
        for name in list(suite.CHECKS):
            if tracer:
                tracer.request = f"certify-q{q}-{name}"
            try:
                out = suite.CHECKS[name](cfgs[q], engines[q], rng, CERTIFY_N_MAX, None)
                if out.get("pass") is not True:
                    bad.append(f"{name}: {out.get('witness', 'reported fail')}")
            except Exception:  # a raising check fails the op, not the pass
                bad.append(f"{name}: {traceback.format_exc(limit=3)}")
            res.calibrate()
        res.op(t0, clock(), not bad, f"q={q}: " + "; ".join(bad))
    res.rss_mb = _peak_rss_mb()


def oracle(dqmf, seed, tracer, res, t_start):
    cases = []
    for q, N, n_random in ORACLE_CASES:
        cfg = dqmf.FieldConfig.from_q(q)
        engine = dqmf.DerivationEngine(cfg)
        for expand in (dqmf.expand_E, dqmf.expand_g, dqmf.expand_h):
            expand(cfg, N)
        cases.append((q, N, n_random, cfg, engine))
    res.setup = (t_start, clock())
    res.calibrate()

    rng = inputs.seeded(seed, "oracle")
    work = []
    for q, N, n_random, cfg, engine in cases:
        elems = [("E", dqmf.QmPoly.gen_E(cfg)), ("g", dqmf.QmPoly.gen_g(cfg)),
                 ("h", dqmf.QmPoly.gen_h(cfg))]
        # random elements of the slice of E g h (weight 2q + 2, depth <= 1):
        # the support is fixed, so the seed moves coefficients, not the work
        support = inputs.slice_of(q, (1, 1, 1), inputs.monomials(q, 2 * q + 2))
        for k in range(n_random):
            elems.append((f"random{k}", inputs.element(dqmf, cfg, support, rng)))
        work.append((q, N, cfg, engine, elems))

    if tracer:
        tracer.set_phase("timed")
    for q, N, cfg, engine, elems in work:  # one op cross-checks one element at every order
        orders = inputs.check_orders(q, cfg.p)
        for label, f in elems:
            if tracer:
                tracer.request = f"oracle-q{q}-{label}"
            t0 = clock()
            base = dqmf.evaluate(f, N)
            bad = []
            for n in orders:
                res.calibrate()
                if dqmf.evaluate(engine.derive(f, n), N) != dqmf.hyper_derive(base, n):
                    bad.append(n)
            res.calibrate()
            res.op(t0, clock(), not bad, f"q={q} N={N} {label}: routes disagree at n={bad}")
    res.rss_mb = _peak_rss_mb()


WORKLOADS = {"serve": serve, "certify": certify, "oracle": oracle}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, help="any string; inputs are drawn from it")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    res = Pass()
    res.calibrate()
    t_start = clock()
    sys.path.insert(0, str(ROOT / "src"))
    dqmf = importlib.import_module("dqmf")
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    WORKLOADS[args.workload](dqmf, args.seed, tracer, res, t_start)
    latencies = [res.scaled(t0, t1) for t0, t1 in res.ops]
    out = {
        "setup_s": res.scaled(*res.setup),
        "wall_s": sum(latencies),
        "latencies": latencies,
        "raw_setup_s": res.unscaled(*res.setup),
        "raw_wall_s": sum(res.unscaled(t0, t1) for t0, t1 in res.ops),
        "to_reference": res.to_reference(),
        "attempted": res.attempted,
        "failed": len(res.failures),
        "failures": res.failures[:5],
        "rss_mb": res.rss_mb,
        "repeat_share": res.repeat_share,
    }
    if tracer:  # layer times at reference speed, by the pass's median calibration
        out["layers"] = {k: v * res.to_reference() if k.endswith("_s") else v
                         for k, v in tracer.layer_metrics().items()}
        out["absent"] = tracer.absent
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
