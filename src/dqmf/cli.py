"""Command-line surface: field setup, derivation, expansion, bases, ideals,
and the built-in verification battery.

Expression grammar (see ``_Parser``): generators E, g, h and constants T,
integers and coordinate tuples [c0,...], with integer exponents via ^,
products by juxtaposition or *, division by a nonzero constant with /, and
sums with + and -, e.g. "E^6 + (1/(T^5 - T)) h^2".  Every element that
``dqmf derive`` prints parses back to itself.

``main`` alone resolves the field, builds the JSON envelope (for ``dqmf field``,
the bare field record) and prints: each ``_cmd_*`` handler takes (cfg, args)
and returns its exit code and its text or JSON payload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import FieldConfig, PolyT, RatT
from .hyperd import DerivationEngine
from .qmring import GENERATORS, NotIsobaric, QmPoly, grading, qm_basis
from .suite import run_suite
from .tseries import evaluate, hyper_derive
from .verify import IDEAL_TAGS, IdealId, check_hyperstable

__all__ = ["main", "parse_qmpoly", "parse_ratt", "ParseError"]


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
            try:
                coords = tuple(int(t) for t in text[i + 1 : j].split(","))
            except ValueError:
                raise ParseError(
                    f"coordinate tuple {text[i : j + 1]} needs integer entries") from None
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
            raise ParseError("exponent must be a non-negative integer")
        if isinstance(t, int):
            # reduce mod p first: the bare integer power can be astronomically large
            return QmPoly.from_scalar(self.cfg, pow(t, expo, self.cfg.p))
        return base**expo

    def atom(self):
        cfg = self.cfg
        t = self.take()
        if t in GENERATORS:
            if self.constant:
                raise ParseError(f"generator {t} where a constant is expected")
            return QmPoly.monomial(cfg, *GENERATORS[t])
        if t == "T":
            return QmPoly.from_scalar(cfg, RatT(cfg, cfg.poly_T))
        if isinstance(t, int):
            return QmPoly.from_scalar(cfg, t)
        if isinstance(t, tuple):
            return QmPoly.from_scalar(cfg, RatT(cfg, PolyT(cfg, (cfg.code(t[1]),))))
        if t == "(":
            out = self.sum()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return out
        raise ParseError("unexpected end of input" if t is None else f"unexpected token {t!r}")


def _scalar(cfg, f: QmPoly) -> RatT:
    """The coefficient of a constant element (one parsed with ``constant`` set)."""
    return f.terms.get((0, 0, 0), cfg.rat_zero)


def parse_qmpoly(cfg, text: str) -> QmPoly:
    return _Parser(cfg, _tokenize(text), False).parse()


def parse_ratt(cfg, text: str) -> RatT:
    return _scalar(cfg, _Parser(cfg, _tokenize(text), True).parse())


# ---------------------------------------------------------------------------
# Field configuration from flags.


def _add_field_args(ap):
    ap.add_argument("--p", type=int, help="field characteristic")
    ap.add_argument("--e", type=int, default=None, help="extension degree, with --p (default 1)")
    ap.add_argument("--modulus", type=str, default=None,
                    help="comma/space separated modulus coefficients, low to high")
    ap.add_argument("--q", type=int, help="shorthand for a default field of size q")
    ap.add_argument("--field-file", type=str, default=None, help="key-value field config file")
    ap.add_argument("--json", action="store_true", help="machine-readable output")


def _field_from_args(args) -> FieldConfig:
    given = [flag for flag, v in (("--q", args.q), ("--p", args.p), ("--field-file", args.field_file))
             if v is not None]
    if len(given) > 1:
        raise ValueError(f"conflicting field flags {', '.join(given)}: give one")
    if args.p is None and (args.e is not None or args.modulus is not None):
        raise ValueError("--e and --modulus need --p")
    if args.field_file is not None:
        return FieldConfig.from_file(args.field_file)
    if args.q is not None:
        return FieldConfig.from_q(args.q)
    if args.p is not None:
        modulus = FieldConfig.parse_coefficients(args.modulus) if args.modulus is not None else None
        return FieldConfig(args.p, 1 if args.e is None else args.e, modulus)
    raise ValueError("specify a field with --q, --p/--e/--modulus, or --field-file")


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_derive(cfg, args):
    out = DerivationEngine(cfg).derive(parse_qmpoly(cfg, args.expr), args.n)
    if args.json:
        return 0, {"n": args.n, "result": out.to_json()}
    try:
        s = grading(out)
    except NotIsobaric:
        return 0, f"{out}\ngrading: mixed (not isobaric)"
    if s is None:
        return 0, f"{out}\ngrading: zero (every grading)"
    return 0, f"{out}\ngrading: weight {s.w}, type {s.m} mod {cfg.q - 1}, depth {s.l}"


def _cmd_expand(cfg, args):
    s = evaluate(parse_qmpoly(cfg, args.gen), args.order)
    if args.n:
        s = hyper_derive(s, args.n)
    return 0, {"series": s.to_json()} if args.json else str(s)


def _cmd_basis(cfg, args):
    if args.w < 0 or args.l < 0:
        raise ValueError("weight and depth must be >= 0")
    basis = qm_basis(args.w, args.m, args.l, cfg)
    if args.json:
        return 0, {"basis": [{"alpha": a, "beta": b, "gamma": c} for a, b, c in basis]}
    return 0, "\n".join(str(QmPoly.monomial(cfg, *mono)) for mono in basis) or "(empty)"


def _parse_ideal(args, cfg):
    tag = args.ideal
    for flag, owner in (("d", "Pd"), ("c", "max")):
        if getattr(args, flag) is not None and tag != owner:
            raise ValueError(f"--{flag} is a parameter of {owner} only, not of {tag}")
    param = None
    if tag == "Pd":
        if not args.d:
            raise ValueError("Pd requires --d")
        param = parse_ratt(cfg, args.d)
    elif tag == "max":
        param = cfg.rat_zero if args.c is None else parse_ratt(cfg, args.c)
    return IdealId(tag, param)


def _cmd_ideal(cfg, args):
    engine = DerivationEngine(cfg)
    report = check_hyperstable(engine, _parse_ideal(args, cfg), min(args.n_max, engine.limit))
    code = 0 if report.passed else 1
    if args.json:
        return code, {"report": report.to_json()}
    status = "hyperdifferential" if report.passed else "NOT stable"
    lines = [f"ideal {report.ideal.describe()}: {status} (checked to n_max = {report.n_max})"]
    lines += [f"  generator {gen}: fails at n = {fail_n}, residue {witness}"
              for gen, fail_n, witness in report.entries if fail_n is not None]
    return code, "\n".join(lines)


def _cmd_verify(cfg, args):
    # --n-max and --seed are set only when given, so run_suite's defaults apply
    given = {key: getattr(args, key) for key in ("n_max", "seed") if key in args}
    results = run_suite(cfg, order=args.order, names=args.suite, **given)
    code = 0 if all(r["pass"] for r in results) else 1
    if args.json:
        return code, {"checks": results}
    return code, "\n".join(
        f"[{'PASS' if r['pass'] else 'FAIL'}] {r['check']} {r.get('params', '')}"
        + (f"\n       witness: {r['witness']}" if not r["pass"] and "witness" in r else "")
        for r in results)


def _cmd_field(cfg, args):
    return 0, {} if args.json else cfg.to_text()


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
    p_verify.add_argument("--n-max", type=int, default=argparse.SUPPRESS)
    p_verify.add_argument("--order", type=int, default=None, help="series truncation order")
    p_verify.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_verify.add_argument("--suite", nargs="*", default=None, help="restrict to named checks")
    p_verify.set_defaults(func=_cmd_verify)

    p_field = sub.add_parser("field", help="print the resolved field configuration")
    _add_field_args(p_field)
    p_field.set_defaults(func=_cmd_field)

    args = ap.parse_args(argv)
    # the one error boundary: malformed input (ParseError, NotIsobaric,
    # OrderOutOfRange, ... are ValueErrors), impossible arithmetic such as a
    # zero denominator, an unreadable field file and a derivation deeper than
    # the interpreter's recursion limit become an error line, never a traceback
    try:
        cfg = _field_from_args(args)
        code, payload = args.func(cfg, args)
        if args.json:
            field = {"p": cfg.p, "e": cfg.e, "q": cfg.q, "modulus": list(cfg.modulus)}
            payload = json.dumps(field if args.command == "field" else {"field": field, **payload})
        print(payload, flush=True)
        return code
    except BrokenPipeError:
        # the reader left early (`dqmf ... | head`): no error line, and stdout
        # goes to devnull so that the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
