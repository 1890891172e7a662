"""Command-line surface: field setup, derivation, expansion, bases, ideals,
and the built-in verification battery.

Expression grammar (see ``_Parser``): generators E, g, h and constants T,
integers and coordinate tuples [c0,...], with integer exponents via ^,
products by juxtaposition or *, division by a nonzero constant with /, and
sums with + and -, e.g. "E^6 + (1/(T^5 - T)) h^2".  Every element that
``dqmf derive`` prints parses back to itself.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import FieldConfig, PolyT, RatT
from .hyperd import DerivationEngine
from .qmring import NotIsobaric, QmPoly, grading, qm_basis
from .tseries import expand_E, expand_g, expand_h, hyper_derive, evaluate
from .verify import IDEAL_TAGS, IdealId, check_hyperstable

__all__ = ["main", "parse_qmpoly", "parse_ratt", "ParseError", "qmpoly_from_json", "tseries_from_json"]


class ParseError(ValueError):
    """Malformed expression."""


# ---------------------------------------------------------------------------
# Tokenizer + recursive descent for the expression grammar.


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        elif ch == "[":
            # bracketed coordinate tuple of an F_q element, e.g. [1,0]
            j = text.find("]", i)
            if j < 0:
                raise ParseError("unterminated coordinate tuple")
            coords = tuple(int(t) for t in text[i + 1 : j].split(","))
            toks.append(("coords", coords))
            i = j + 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif ch in "EghT":
            toks.append(ch)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}")
    return toks


class _Parser:
    """One recursive descent over QmPoly for the whole expression grammar:

        sum     := product (("+" | "-") product)*
        product := signed (("*" | "/" | juxtaposition) signed)*
        signed  := ("+" | "-")* power
        power   := atom ("^" int)?
        atom    := E | g | h | T | int | [c0,...] | "(" sum ")"

    T, integers and coordinate tuples are constants and may stand wherever a
    generator can; "/" divides by a nonzero constant.  While ``constant`` is
    set (a divisor, or a whole coefficient for ``parse_ratt``) a generator is
    a ParseError.
    """

    def __init__(self, cfg, toks, constant):
        self.cfg = cfg
        self.toks = toks
        self.pos = 0
        self.constant = constant

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        try:
            out = self.sum()
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return out

    def sum(self):
        out = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            out = out + rhs if op == "+" else out - rhs
        return out

    def product(self):
        out = self.signed()
        # any token but these is "*", "/" or the start of a juxtaposed factor
        while self.peek() not in ("+", "-", "^", ")", None):
            op = self.take() if self.peek() in ("*", "/") else "*"
            if op == "*":
                out = out * self.signed()
            else:
                outer, self.constant = self.constant, True
                div = _scalar(self.cfg, self.signed())
                self.constant = outer
                out = out.scale(div.inverse())
        return out

    def signed(self):
        neg = False
        while self.peek() in ("+", "-"):
            neg ^= self.take() == "-"
        out = self.power()
        return -out if neg else out

    def power(self):
        t = self.peek()
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        expo = self.take()
        if not isinstance(expo, int):
            raise ParseError("exponent must be an integer")
        if isinstance(t, int):
            # reduce mod p first: the bare integer power can be astronomically large
            return QmPoly.from_scalar(self.cfg, pow(t, expo, self.cfg.p))
        return base**expo

    def atom(self):
        cfg = self.cfg
        t = self.take()
        if t in _GENERATORS:
            if self.constant:
                raise ParseError(f"generator {t} where a constant is expected")
            return QmPoly.monomial(cfg, *_GENERATORS[t])
        if t == "T":
            return QmPoly.from_scalar(cfg, RatT(cfg, cfg.poly_T))
        if isinstance(t, int):
            return QmPoly.from_scalar(cfg, t)
        if isinstance(t, tuple):
            code = cfg.element(list(t[1])).code
            return QmPoly.from_scalar(cfg, RatT(cfg, PolyT(cfg, (code,))))
        if t == "(":
            out = self.sum()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return out
        raise ParseError("unexpected end of input" if t is None else f"unexpected token {t!r}")


_GENERATORS = {"E": (1, 0, 0), "g": (0, 1, 0), "h": (0, 0, 1)}


def _scalar(cfg, f: QmPoly) -> RatT:
    """The coefficient of a constant element (one parsed with ``constant`` set)."""
    return f.terms.get((0, 0, 0), cfg.rat_zero)


def parse_qmpoly(cfg, text: str) -> QmPoly:
    return _Parser(cfg, _tokenize(text), False).parse()


def parse_ratt(cfg, text: str) -> RatT:
    return _scalar(cfg, _Parser(cfg, _tokenize(text), True).parse())


def parse_polyt(cfg, text: str) -> PolyT:
    r = parse_ratt(cfg, text)
    if not r.den.is_one():
        raise ParseError("expected a polynomial, found a denominator")
    return r.num


def qmpoly_from_json(cfg, data) -> QmPoly:
    out = QmPoly.zero(cfg)
    for t in data:
        num = parse_polyt(cfg, t["num"])
        den = parse_polyt(cfg, t["den"])
        out = out + QmPoly.monomial(cfg, t["alpha"], t["beta"], t["gamma"], RatT(cfg, num, den))
    return out


def tseries_from_json(cfg, data):
    from .tseries import TSeries

    terms = {}
    for t in data["terms"]:
        num = parse_polyt(cfg, t["num"])
        den = parse_polyt(cfg, t["den"])
        terms[t["n"]] = RatT(cfg, num, den)
    return TSeries(cfg, data["order"], terms)


# ---------------------------------------------------------------------------
# Field configuration from flags.


def _add_field_args(ap):
    ap.add_argument("--p", type=int, help="field characteristic")
    ap.add_argument("--e", type=int, default=None, help="extension degree (default 1)")
    ap.add_argument("--modulus", type=str, default=None,
                    help="comma/space separated modulus coefficients, low to high")
    ap.add_argument("--q", type=int, help="shorthand for a default field of size q")
    ap.add_argument("--field-file", type=str, default=None, help="key-value field config file")
    ap.add_argument("--json", action="store_true", help="machine-readable output")


def _field_from_args(args) -> FieldConfig:
    if args.field_file:
        return FieldConfig.from_file(args.field_file)
    if args.q is not None:
        return FieldConfig.from_q(args.q)
    if args.p is not None:
        modulus = None
        if args.modulus:
            modulus = tuple(int(x) for x in args.modulus.replace(",", " ").split())
        return FieldConfig(args.p, args.e or 1, modulus)
    raise ValueError("specify a field with --q, --p/--e/--modulus, or --field-file")


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_derive(args):
    cfg = _field_from_args(args)
    out = DerivationEngine(cfg).derive(parse_qmpoly(cfg, args.expr), args.n)
    if args.json:
        print(json.dumps({"field": _field_json(cfg), "n": args.n, "result": out.to_json()}))
    else:
        print(out)
        try:
            s = grading(out)
        except NotIsobaric:
            print("grading: mixed (not isobaric)")
        else:
            if s is None:
                print("grading: zero (every grading)")
            else:
                print(f"grading: weight {s.w}, type {s.m} mod {cfg.q - 1}, depth {s.l}")
    return 0


def _cmd_expand(args):
    cfg = _field_from_args(args)
    builders = {"E": expand_E, "g": expand_g, "h": expand_h}
    if args.gen in builders:
        s = builders[args.gen](cfg, args.order)
    else:
        s = evaluate(parse_qmpoly(cfg, args.gen), args.order)
    if args.n:
        s = hyper_derive(s, args.n)
    if args.json:
        print(json.dumps({"field": _field_json(cfg), "series": s.to_json()}))
    else:
        print(s)
    return 0


def _cmd_basis(args):
    cfg = _field_from_args(args)
    basis = qm_basis(args.w, args.m, args.l, cfg)
    if args.json:
        print(json.dumps({"field": _field_json(cfg),
                          "basis": [{"alpha": a, "beta": b, "gamma": c} for a, b, c in basis]}))
    else:
        if not basis:
            print("(empty)")
        for a, b, c in basis:
            print(QmPoly.monomial(cfg, a, b, c))
    return 0


def _parse_ideal(args, cfg):
    tag = args.ideal
    param = None
    if tag == "Pd":
        if not args.d:
            raise ValueError("Pd requires --d")
        param = parse_ratt(cfg, args.d)
    elif tag == "max":
        param = parse_ratt(cfg, args.c) if args.c else cfg.rat_zero
    return IdealId(tag, param)


def _cmd_ideal(args):
    cfg = _field_from_args(args)
    engine = DerivationEngine(cfg)
    n_max = min(args.n_max, engine.limit)
    ideal = _parse_ideal(args, cfg)
    report = check_hyperstable(engine, ideal, n_max)
    if args.json:
        print(json.dumps({"field": _field_json(cfg), "report": report.to_json()}))
    else:
        status = "hyperdifferential to n_max" if report.passed else "NOT stable"
        print(f"ideal {ideal.describe()}: {status} = {n_max}")
        for gen, fail_n, witness in report.entries:
            if fail_n is not None:
                print(f"  generator {gen}: fails at n = {fail_n}, residue {witness}")
    return 0 if report.passed else 1


def _cmd_verify(args):
    cfg = _field_from_args(args)
    from .suite import run_suite

    results = run_suite(cfg, n_max=args.n_max, order=args.order, seed=args.seed,
                        names=args.suite)
    ok = all(r["pass"] for r in results)
    if args.json:
        print(json.dumps({"field": _field_json(cfg), "checks": results}))
    else:
        for r in results:
            mark = "PASS" if r["pass"] else "FAIL"
            print(f"[{mark}] {r['check']} {r.get('params', '')}")
            if not r["pass"] and "witness" in r:
                print(f"       witness: {r['witness']}")
    return 0 if ok else 1


def _cmd_field(args):
    cfg = _field_from_args(args)
    if args.json:
        print(json.dumps(_field_json(cfg)))
    else:
        print(f"p = {cfg.p}")
        print(f"e = {cfg.e}")
        print("modulus = " + " ".join(str(c) for c in cfg.modulus))
    return 0


def _field_json(cfg):
    return {"p": cfg.p, "e": cfg.e, "q": cfg.q, "modulus": list(cfg.modulus)}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dqmf",
        description="Exact divided-derivative computer algebra on K[E,g,h] over F_q(T)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="apply D_n to an expression")
    _add_field_args(p_derive)
    p_derive.add_argument("expr")
    p_derive.add_argument("n", type=int)
    p_derive.set_defaults(func=_cmd_derive)

    p_expand = sub.add_parser("expand", help="t-expansion of a generator or expression")
    _add_field_args(p_expand)
    p_expand.add_argument("gen", help="E, g, h, or an expression to evaluate")
    p_expand.add_argument("order", type=int, help="truncation order N")
    p_expand.add_argument("--n", type=int, default=0, help="apply the series D_n afterwards")
    p_expand.set_defaults(func=_cmd_expand)

    p_basis = sub.add_parser("basis", help="monomial basis of weight w, type m, depth <= l")
    _add_field_args(p_basis)
    p_basis.add_argument("w", type=int)
    p_basis.add_argument("m", type=int)
    p_basis.add_argument("l", type=int)
    p_basis.set_defaults(func=_cmd_basis)

    p_ideal = sub.add_parser("ideal", help="hyperdifferential stability of a classified ideal")
    _add_field_args(p_ideal)
    p_ideal.add_argument("ideal", choices=IDEAL_TAGS)
    p_ideal.add_argument("--d", type=str, default=None, help="parameter for Pd")
    p_ideal.add_argument("--c", type=str, default=None, help="parameter for the maximal ideal")
    p_ideal.add_argument("--n-max", type=int, default=64)
    p_ideal.set_defaults(func=_cmd_ideal)

    p_verify = sub.add_parser("verify", help="run the verification battery")
    _add_field_args(p_verify)
    p_verify.add_argument("--n-max", type=int, default=32)
    p_verify.add_argument("--order", type=int, default=None, help="series truncation order")
    p_verify.add_argument("--seed", type=int, default=20260808)
    p_verify.add_argument("--suite", nargs="*", default=None,
                          help="restrict to named checks")
    p_verify.set_defaults(func=_cmd_verify)

    p_field = sub.add_parser("field", help="print the resolved field configuration")
    _add_field_args(p_field)
    p_field.set_defaults(func=_cmd_field)

    args = ap.parse_args(argv)
    # the one error boundary: malformed input (ParseError, NotIsobaric,
    # OrderOutOfRange, ... are ValueErrors), impossible arithmetic such as a
    # zero denominator and an unreadable field file become an error line,
    # never a traceback
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
