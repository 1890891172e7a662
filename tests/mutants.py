"""The register of recorded mutants: each planted once, here, with the checks
that must kill it.

An entry names a mutant and gives its fields, one planting and its kills.
The planting patches the package with `monkeypatch` (no source edit) in
engines or series over the entry's fields only, and leaves no per-field
cache behind.  It adds no frame to the engine's recursion, which runs near
the default recursion limit at q = 499: a wrong derivative is a memo entry
replaced when an engine is built, not a wrapper of ``_derive_monomial``.
A kill is a check (a function of no arguments that returns a falsy value
when it passes) with the value it gives under the mutant.  An entry's
misses are checks that the mutant passes too: the blind spots another
check covers.  ``tests/test_mutants.py`` asserts, per entry, that
each check passes without the mutant, that each kill gives its pinned value
with it and that each miss still passes; ``tests/test_optimized.py`` repeats
that under ``python -O`` for the entries a battery record or the memo
self-check kills.  Tests that need a mutant for other ends plant it with
``planted(name)``.

The rule: a change that deletes, folds or narrows a test keeps this
register green, and a new "mutation-checked" claim in CHANGES.md adds an
entry here.
"""

import contextlib
from functools import cache, partial
from typing import Callable, NamedTuple

import pytest

from dqmf import hyperd, tseries
from dqmf.algebra import FieldConfig, PolyT, RatT
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import QmPoly
from dqmf.suite import run_suite
from dqmf.verify import IdealId, check_hyperstable

from conftest import (
    check_hyperstable_every_order, fill_generators, generator_codes,
    generator_transport_mismatches, series_mismatches, sigma_mismatches,
)

F4, F5, F7, F8, F9 = (FieldConfig.from_q(q) for q in (4, 5, 7, 8, 9))
F9_OTHER = FieldConfig(3, 2, (2, 1, 1))  # F_9 over x^2 + x + 2; F9's modulus is x^2 + 1


class Mutant(NamedTuple):
    fields: tuple  # the FieldConfigs whose engines or series the planting changes
    plant: Callable  # plant(monkeypatch, fields)
    kills: tuple  # (check, its value under the mutant)
    misses: tuple = ()  # checks the mutant passes


# ---------------------------------------------------------------------------
# checks: each returns a falsy value when it passes


def battery(cfg):
    """The records of ``dqmf verify``'s battery (``run_suite`` at n_max 48) that
    fail, in battery order: the memo self-check's record comes last."""
    return [r["check"] for r in run_suite(cfg, 48) if not r["pass"]]


def memo_self_check(cfg):
    """``check_memo_isobaric`` of a new engine after D_n of E, g and h at
    every order n <= min(limit, 48)."""
    return fill_generators(DerivationEngine(cfg), 48).check_memo_isobaric()


def stability_of_h(check, cfg):
    """The orders n <= 48 at which ``check`` (the p-power check or the
    every-order reference) finds D_n h outside (h)."""
    return [n for _, n, _ in check(DerivationEngine(cfg), IdealId("h"), 48).entries if n]


def series_at_valence_order(cfg, gen):
    """The orders at which D_n gen misses its series at N_n, every n <= limit."""
    engine = DerivationEngine(cfg)
    return series_mismatches(engine, gen, range(1, engine.limit + 1))


def transport_of_e_free_parts(cfg, gen):
    return generator_transport_mismatches(DerivationEngine(cfg), gen)


def expansion_error(cfg):
    """The error that building E's expansion below 40 raises, "" if none."""
    try:
        tseries.expand_E(cfg, 40)
    except AssertionError as exc:
        return str(exc)
    return ""


def frobenius_commutation_on_g3(cfg):
    return sigma_mismatches(DerivationEngine(cfg), [QmPoly.monomial(cfg, 0, 3, 0)])


def codes_over_two_moduli_of_f9():
    """The memo entries whose codes differ between F9 and F9_OTHER after a
    full fill: none over F_p(T), where the codes 0..p-1 do not depend on the
    modulus."""
    a, b = generator_codes(F9), generator_codes(F9_OTHER)
    return [key for key in a if a[key] != b[key]]


# ---------------------------------------------------------------------------
# plantings


def _memo_entries(mono, orders, wrong):
    """Every engine over the fields, once built, holds wrong(engine, n) as
    its memo entry D_n(mono), not interned, set for each n of `orders` in
    turn, so a later n reads the earlier ones."""
    def plant(m, fields):
        init = DerivationEngine.__init__

        def planted_init(self, cfg):
            init(self, cfg)
            if cfg in fields:
                for n in orders:
                    self._memo[mono, n] = wrong(self, n)

        m.setattr(DerivationEngine, "__init__", planted_init)
    return plant


def _edited_memo_entries(mono, orders, edit):
    """D_n(mono), derived when an engine over the fields is built, becomes
    edit(cfg, D_n(mono)) at each order of `orders`, in turn."""
    return _memo_entries(mono, orders,
                         lambda engine, n: edit(engine.cfg, engine._derive_monomial(mono, n)))


def _e_free_double(mono, at):
    """D_n(mono) adds its E-free part once more at each order of `at`."""
    return _edited_memo_entries(mono, at, lambda cfg, out: out + out.kill("E"))


def _scaled_memo_entry(key, code, after_a_full_fill=False):
    """Every engine over the fields holds its memo entry `key` times the F_q
    element code(cfg), not interned, once built.  The engine derives `key`
    first, and with after_a_full_fill E, g and h at every order before it, so
    no entry it filled reads the product."""
    def wrong(engine, n):
        cfg = engine.cfg
        if after_a_full_fill:
            fill_generators(engine)
        return engine._derive_monomial(key[0], n).scale(RatT(cfg, PolyT(cfg, (code(cfg),))))
    return _memo_entries(key[0], (key[1],), wrong)


def _frobenius_skipped(m, fields):
    # the identity on elements over the fields: the engine's E-free series of
    # a p-th power y^p keeps N(y)'s coefficients and exponents at X^(p m)
    frobenius_pow = QmPoly.frobenius_pow
    m.setattr(QmPoly, "frobenius_pow", lambda self, k: (
        QmPoly(self.cfg, self.terms) if self.cfg in fields else frobenius_pow(self, k)))


def _shifted_transport_binomial(m, fields):
    signature = hyperd.monomial_signature

    def shifted(cfg, a, b, c):
        s = signature(cfg, a, b, c)
        return s._replace(w=s.w + 1) if cfg in fields else s

    m.setattr(hyperd, "monomial_signature", shifted)


def _orbit_counted_once(m, fields):
    # a fresh _monomial cache while planted: no cached expansion hides the
    # mutant, and none it built outlives it
    orbits = tseries._orbit_representatives
    m.setattr(tseries, "_orbit_representatives",
              lambda cfg, d: ((1, a) for _, a in orbits(cfg, d)) if cfg in fields else orbits(cfg, d))
    m.setattr(tseries, "_monomial", cache(tseries._monomial.__wrapped__))


def _kernel_of_d1_only(m, fields):
    kernel = DerivationEngine.kernel_on_modular
    m.setattr(DerivationEngine, "kernel_on_modular", lambda self, w, typ, k: (
        kernel(self, w, typ, 0 if self.cfg in fields else k)))


def _g_without_its_factor(m, fields):
    # g = 1 - sum over monic a of t_a^(q-1), the factor [1] = T^q - T dropped;
    # a fresh _monomial cache while planted, as in _orbit_counted_once
    series = tseries._generator_series

    def planted_series(cfg, N, mono):
        if cfg in fields and mono == (0, 1, 0):
            return (tseries.TSeries.one(cfg, N) - tseries._lattice_sum(cfg, N, 0, cfg.q - 1)).nums
        return series(cfg, N, mono)

    m.setattr(tseries, "_generator_series", planted_series)
    m.setattr(tseries, "_monomial", cache(tseries._monomial.__wrapped__))


REGISTER = {
    # D_3 h + g^3: 3 is no p-power, so the p-power stability check passes
    # it; the transport of a product with h reads it through N(h)
    "d3_h_plus_g3": Mutant(
        (F5,), _edited_memo_entries((0, 0, 1), (3,),
                                    lambda cfg, out: out + QmPoly.monomial(cfg, 0, 3, 0)),
        kills=((partial(stability_of_h, check_hyperstable_every_order, F5), [3]),
               (partial(battery, F5), ["generator_tables", "series_commutation",
                                       "h_power_quotients", "depth_poly_dual_route"])),
        misses=(partial(stability_of_h, check_hyperstable, F5),),
    ),
    # _transport reads C(n + w - i, r) for C(n + w - i - 1, r): its one read
    # of the weight w is shifted (the memo self-check reads it too); derive
    # reads the transport at p | n, so the battery sees it at the orders
    # prime to p and on the generator terms
    "shifted_transport_binomial": Mutant(
        (F4, F5, F7, F8, F9), _shifted_transport_binomial,
        kills=tuple((partial(battery, cfg), ["series_commutation", "munu_congruence",
                                             "depth_poly_dual_route", "weight_divisibility",
                                             "memo_isobaric"])
                    for cfg in (F4, F5, F7, F8, F9)),
    ),
    # each Frobenius orbit of the monic a counted once, not over its size:
    # codes outside F_2 in E at q = 4
    "orbit_counted_once": Mutant(
        (F4,), _orbit_counted_once,
        kills=((partial(expansion_error, F4),
                "the expansion (1, 0, 0) has a coefficient outside F_p[T]"),),
    ),
    # the E-free part of D_n g once more at the digit-step orders above 100:
    # D_n g changes at 105, 106, 110, 111, 115, 116, 120 and 121.  The
    # transport check fails where the E-terms are transported from a wrong
    # E-free part; the series at the fixed N = 32 failed only 105, 106, 110
    "g_e_free_double": Mutant(
        (F5,), _e_free_double((0, 1, 0), (105, 110, 115, 120)),
        kills=((partial(series_at_valence_order, F5, "g"), [105, 106, 110, 111, 115, 120]),
               (partial(transport_of_e_free_parts, F5, "g"), [110, 111, 115, 116, 120, 121])),
    ),
    # the E-free part of D_105 h doubled changes every order from 105 to the
    # limit 124; the series at the fixed N = 32 failed 14 of them
    "h_e_free_double": Mutant(
        (F5,), _e_free_double((0, 0, 1), (105,)),
        kills=((partial(series_at_valence_order, F5, "h"), list(range(105, 124))),
               (partial(transport_of_e_free_parts, F5, "h"), list(range(110, 125)))),
    ),
    # D_3(g^3) times x, a generator of F_4 over F_2 (code 2): its grading
    # kept, its prime field not; sigma(x) = x^2, so D_3 no longer commutes
    # with the coefficient Frobenius
    "x_scaled_d3_g3": Mutant(
        (F4,), _scaled_memo_entry(((0, 3, 0), 3), lambda cfg: 2),
        kills=((partial(memo_self_check, F4), [((0, 3, 0), 3, "code outside F_p")]),
               (partial(frobenius_commutation_on_g3, F4), [(0, 3)])),
    ),
    # D_9 g times x^2, x the class of the modulus' variable (code p), once
    # every generator order is filled, so no other entry reads it.  x^2 has
    # code 2 over x^2 + 1, in F_3, and code 7 = 1 + 2*3 over x^2 + x + 2
    "x2_scaled_d9_g": Mutant(
        (F9, F9_OTHER), _scaled_memo_entry(((0, 1, 0), 9), lambda cfg: cfg.mul[cfg.p][cfg.p],
                                           after_a_full_fill=True),
        kills=((codes_over_two_moduli_of_f9, [((0, 1, 0), 9)]),
               (partial(memo_self_check, F9_OTHER), [((0, 1, 0), 9, "code outside F_p")])),
        misses=(partial(memo_self_check, F9),),
    ),
    # D_3(g^5) := E, of weight 2
    "wrong_weight_memo_entry": Mutant(
        (F5,), _memo_entries((0, 5, 0), (3,), lambda engine, n: QmPoly.gen_E(engine.cfg)),
        kills=((partial(memo_self_check, F5), [((0, 5, 0), 3, "weight 2")]),
               (partial(battery, F5), ["memo_isobaric"])),
    ),
    # a p-th power's E-free series taken without its Frobenius: the p^k-th
    # power of an element over F_7 is the element itself.  weight_divisibility
    # takes p-th powers itself; the engine's p-th-power series are first read
    # by h_power_quotients, in the rows of h^48, h^47 and h^46 (P = 49) that
    # give its rows n < 0, whose wrong weights the memo self-check sees too.
    # Inverting h's quotient row in the ring for those rows, the battery
    # failed weight_divisibility only
    "frobenius_skipped": Mutant(
        (F7,), _frobenius_skipped,
        kills=((partial(battery, F7), ["h_power_quotients", "weight_divisibility",
                                       "memo_isobaric"]),),
    ),
    # D_5 h + E^2 g^3: an h-free term of D_5 h's grading (weight 16, type 2),
    # so the memo self-check passes it; 5 is a p-power, so D_5 h leaves (h)
    # and every P_d at the order the stability check reads
    "d5_h_plus_e2g3": Mutant(
        (F5,), _edited_memo_entries((0, 0, 1), (5,),
                                    lambda cfg, out: out + QmPoly.monomial(cfg, 2, 3, 0)),
        kills=((partial(battery, F5), ["series_commutation", "ideal_stability",
                                       "h_power_quotients"]),),
    ),
    # the joint kernel of D_1 alone for every k: at k = 1 it keeps the p-th
    # powers that are no p^2-th powers, g^5 at weight 20.  No other check
    # reads the kernel
    "kernel_of_d1_only": Mutant(
        (F5,), _kernel_of_d1_only,
        kills=((partial(battery, F5), ["kernel_suite"]),),
    ),
    # g's series without its factor [1]: its t^(q-1) coefficient is -1, not
    # -[1], and h = -(D_1 g + E g) reads it; the engine is unchanged
    "g_without_its_factor": Mutant(
        (F5,), _g_without_its_factor,
        kills=((partial(battery, F5), ["series_commutation", "series_leading_terms"]),),
    ),
}


@contextlib.contextmanager
def planted(name):
    """The block runs with the register's mutant `name` planted."""
    with pytest.MonkeyPatch.context() as m:
        REGISTER[name].plant(m, REGISTER[name].fields)
        yield


def unkilled(name):
    """What does not hold of the entry `name`: (check, value) for each check
    that fails without the mutant, each kill that gives another value than
    its pinned one with it, and each miss that fails with it.  Empty when the
    entry holds.  It raises nothing of its own, so it reports under -O too."""
    mutant = REGISTER[name]
    checks = [check for check, _ in mutant.kills] + list(mutant.misses)
    bad = [(check, value) for check in checks if (value := check())]
    with planted(name):
        bad += [(check, value) for check, pinned in mutant.kills if (value := check()) != pinned]
        bad += [(check, value) for check in mutant.misses if (value := check())]
    return bad
