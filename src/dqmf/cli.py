"""Command-line surface: field setup, derivation, expansion, bases, ideals,
and the built-in verification battery.

Expression grammar: generators E, g, h with integer exponents via ^,
products by juxtaposition or *, sums with + and -, and coefficients given
as rational functions of T in parentheses, e.g. "(1/(T^5 - T)) h^2 + E g".
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import FieldConfig, PolyT, RatT
from .hyperd import DerivationEngine
from .qmring import NotIsobaric, QmPoly, grading, qm_basis
from .tseries import expand_E, expand_g, expand_h, hyper_derive, evaluate
from .verify import IdealId, check_hyperstable

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
    def __init__(self, cfg, toks):
        self.cfg = cfg
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, tok):
        t = self.take()
        if t != tok:
            raise ParseError(f"expected {tok!r}, found {t!r}")

    # outer grammar: polynomials in E, g, h

    def parse_poly(self):
        out = self.parse_poly_sum()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return out

    def parse_poly_sum(self):
        out = self.parse_poly_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_poly_term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def _group_holds_generators(self):
        """Look ahead from an opening paren for E/g/h before the matching close."""
        depth = 0
        for t in self.toks[self.pos :]:
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif t in ("E", "g", "h"):
                return True
        raise ParseError("unbalanced parentheses")

    def parse_poly_term(self):
        neg = False
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                neg = not neg
        out = QmPoly.one(self.cfg)
        saw = False
        while True:
            t = self.peek()
            if t == "*":
                self.take()
                continue
            if t in ("E", "g", "h"):
                self.take()
                expo = self._maybe_exponent()
                idx = {"E": 0, "g": 1, "h": 2}[t]
                key = [0, 0, 0]
                key[idx] = expo
                out = out * QmPoly.monomial(self.cfg, *key)
                saw = True
            elif t == "(":
                if self._group_holds_generators():
                    self.take()
                    sub = self.parse_poly_sum()
                    self.expect(")")
                    expo = self._maybe_exponent()
                    out = out * sub**expo
                else:
                    self.take()
                    coeff = self.parse_rat_expr()
                    self.expect(")")
                    expo = self._maybe_exponent()
                    out = out * QmPoly.from_scalar(self.cfg, coeff**expo)
                saw = True
            elif isinstance(t, int):
                self.take()
                expo = self._maybe_exponent()
                out = out * QmPoly.from_scalar(self.cfg, RatT.from_int(self.cfg, t**expo))
                saw = True
            else:
                break
        if not saw:
            raise ParseError("empty term")
        return -out if neg else out

    def _maybe_exponent(self):
        if self.peek() == "^":
            self.take()
            t = self.take()
            if not isinstance(t, int):
                raise ParseError("exponent must be an integer")
            return t
        return 1

    # inner grammar: rational functions of T

    def parse_rat_expr(self):
        out = self.parse_rat_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_rat_term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def parse_rat_term(self):
        out = self.parse_rat_factor()
        while (
            self.peek() in ("*", "/", "T", "(")
            or isinstance(self.peek(), int)
            or (isinstance(self.peek(), tuple))
        ):
            t = self.peek()
            if t == "*":
                self.take()
                out = out * self.parse_rat_factor()
            elif t == "/":
                self.take()
                out = out / self.parse_rat_factor()
            else:
                out = out * self.parse_rat_factor()
        return out

    def parse_rat_factor(self):
        t = self.take()
        neg = False
        while t in ("+", "-"):
            if t == "-":
                neg = not neg
            t = self.take()
        if t == "T":
            base = RatT(self.cfg, self.cfg.poly_T)
        elif isinstance(t, int):
            base = RatT.from_int(self.cfg, t)
        elif isinstance(t, tuple) and t[0] == "coords":
            elem = self.cfg.element(list(t[1]))
            base = RatT(self.cfg, PolyT(self.cfg, (elem.code,)))
        elif t == "(":
            base = self.parse_rat_expr()
            self.expect(")")
        else:
            raise ParseError(f"unexpected token {t!r} in coefficient")
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not isinstance(e, int):
                raise ParseError("exponent must be an integer")
            base = base**e
        return -base if neg else base


def parse_qmpoly(cfg, text: str) -> QmPoly:
    return _Parser(cfg, _tokenize(text)).parse_poly()


def parse_ratt(cfg, text: str) -> RatT:
    p = _Parser(cfg, _tokenize(text))
    out = p.parse_rat_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input at {p.peek()!r}")
    return out


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
    raise SystemExit("specify a field with --q, --p/--e/--modulus, or --field-file")


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
            raise SystemExit("Pd requires --d")
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
    p_ideal.add_argument("ideal", choices=["h", "P0", "Pinf", "Pd", "max", "E", "g"])
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
    # OrderOutOfRange, ... are ValueErrors) and impossible arithmetic such as
    # a zero denominator become an error line, never a traceback
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
