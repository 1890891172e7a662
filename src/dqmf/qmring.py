"""The graded polynomial ring K[E,g,h].

Monomials E^a g^b h^c carry weight 2a + (q-1)b + (q+1)c, type a+c mod q-1
and depth a.  The module provides the grading bookkeeping, monomial bases
of the modular and depth-filtered slices, depth polynomials (the ring
substitution E -> E + Y), the first-order derivation, Rankin brackets and
the Serre-style derivative on modular elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FieldConfig, RatT, binom_mod_p, power

__all__ = [
    "QmPoly",
    "GradingSignature",
    "DepthPoly",
    "NotIsobaric",
    "NotModular",
    "grading",
    "isobaric_decompose",
    "modular_basis",
    "qm_basis",
    "associated_polynomial",
    "depth_coefficient_transform",
    "d1",
    "rankin_bracket",
    "serre_derivative",
]


class NotIsobaric(ValueError):
    """The element mixes weights or types."""


class NotModular(ValueError):
    """The element has positive depth where a modular form is required."""


@dataclass(frozen=True)
class GradingSignature:
    """Weight, type (a residue in {0..q-2}) and depth of an isobaric element."""

    w: int
    m: int
    l: int


class QmPoly:
    """Finitely supported map (a, b, c) -> K, the element sum c_t E^a g^b h^c.

    Stored coefficients are never zero; iteration is lexicographic in the
    exponent triple, which fixes printing and JSON output.
    """

    __slots__ = ("cfg", "terms")

    def __init__(self, cfg: FieldConfig, terms=None):
        self.cfg = cfg
        if terms:
            self.terms = {k: v for k, v in terms.items() if not v.is_zero()}
        else:
            self.terms = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cfg):
        return cls(cfg)

    @classmethod
    def one(cls, cfg):
        return cls.monomial(cfg, 0, 0, 0)

    @classmethod
    def monomial(cls, cfg, a, b, c, coeff=None):
        if coeff is None:
            coeff = cfg.rat_one
        elif isinstance(coeff, int):
            coeff = RatT.from_int(cfg, coeff)
        out = cls(cfg)
        if not coeff.is_zero():
            out.terms[(a, b, c)] = coeff
        return out

    @classmethod
    def gen_E(cls, cfg):
        return cls.monomial(cfg, 1, 0, 0)

    @classmethod
    def gen_g(cls, cfg):
        return cls.monomial(cfg, 0, 1, 0)

    @classmethod
    def gen_h(cls, cfg):
        return cls.monomial(cfg, 0, 0, 1)

    @classmethod
    def from_scalar(cls, cfg, coeff):
        return cls.monomial(cfg, 0, 0, 0, coeff)

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, QmPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def deg_E(self):
        """Depth as a polynomial: max exponent of E (-1 for the zero element)."""
        if not self.terms:
            return -1
        return max(k[0] for k in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        out = QmPoly(self.cfg)
        t = dict(self.terms)
        for k, v in other.terms.items():
            cur = t.get(k)
            if cur is None:
                t[k] = v
            else:
                s = cur + v
                if s.is_zero():
                    del t[k]
                else:
                    t[k] = s
        out.terms = t
        return out

    def __neg__(self):
        out = QmPoly(self.cfg)
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatT):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale_int(other)
        out = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                p = v1 * v2
                cur = out.get(k)
                if cur is None:
                    out[k] = p
                else:
                    s = cur + p
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
        res = QmPoly(self.cfg)
        res.terms = out
        return res

    __rmul__ = __mul__

    def scale(self, coeff: RatT):
        if coeff.is_zero():
            return QmPoly(self.cfg)
        out = QmPoly(self.cfg)
        out.terms = {k: v * coeff for k, v in self.terms.items()}
        return out

    def scale_int(self, n: int):
        if n % self.cfg.p == 0:
            return QmPoly(self.cfg)
        out = QmPoly(self.cfg)
        out.terms = {k: v.scale_int(n) for k, v in self.terms.items()}
        return out

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power in K[E,g,h]")
        return power(self, n, QmPoly.one(self.cfg))

    def frobenius_pow(self, k: int):
        """The p^k-th power, computed termwise (char p)."""
        pk = self.cfg.p**k
        out = QmPoly(self.cfg)
        out.terms = {
            (a * pk, b * pk, c * pk): v.frobenius_pow(k)
            for (a, b, c), v in self.terms.items()
        }
        return out

    def pth_root(self):
        out = QmPoly(self.cfg)
        p = self.cfg.p
        res = {}
        for (a, b, c), v in self.terms.items():
            if a % p or b % p or c % p:
                raise ArithmeticError("not a p-th power: exponent not divisible by p")
            res[(a // p, b // p, c // p)] = v.pth_root()
        out.terms = res
        return out

    # -- substitutions used by the ideal machinery ---------------------------

    def kill(self, gens: str):
        """Substitute 0 for the generators named in gens, e.g. "Eh"."""
        kill_E, kill_g, kill_h = "E" in gens, "g" in gens, "h" in gens
        out = QmPoly(self.cfg)
        out.terms = {
            (a, b, c): v
            for (a, b, c), v in self.terms.items()
            if not ((kill_E and a) or (kill_g and b) or (kill_h and c))
        }
        return out

    def eval_point(self, ev, gv, hv):
        """Evaluate at scalars (ev, gv, hv) in K."""
        total = self.cfg.rat_zero
        for (a, b, c), v in self.terms.items():
            total = total + v * ev**a * gv**b * hv**c
        return total

    def subs_g(self, repl: "QmPoly"):
        """Substitute g -> repl, leaving E and h alone."""
        out = QmPoly(self.cfg)
        for (a, b, c), v in self.terms.items():
            out = out + QmPoly.monomial(self.cfg, a, 0, c, v) * repl**b
        return out

    def partial(self, gen: str):
        """Formal partial derivative with respect to one generator."""
        idx = {"E": 0, "g": 1, "h": 2}[gen]
        out = QmPoly(self.cfg)
        res = {}
        for k, v in self.terms.items():
            n = k[idx]
            if n % self.cfg.p == 0:
                continue
            nk = list(k)
            nk[idx] = n - 1
            res[tuple(nk)] = v.scale_int(n)
        out.terms = res
        return out

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c), v in self.items():
            mono = []
            for sym, n in (("E", a), ("g", b), ("h", c)):
                if n == 1:
                    mono.append(sym)
                elif n > 1:
                    mono.append(f"{sym}^{n}")
            ms = " ".join(mono)
            vs = str(v)
            if not ms:
                parts.append(f"({vs})" if ("+" in vs or "/" in vs or "*" in vs) else vs)
            elif v.is_one():
                parts.append(ms)
            else:
                coeff = f"({vs})" if ("+" in vs or "/" in vs or "*" in vs or " " in vs) else vs
                parts.append(f"{coeff} {ms}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return [
            {"alpha": a, "beta": b, "gamma": c, "num": str(v.num), "den": str(v.den)}
            for (a, b, c), v in self.items()
        ]


def monomial_signature(cfg, a, b, c) -> GradingSignature:
    q = cfg.q
    return GradingSignature(
        w=2 * a + (q - 1) * b + (q + 1) * c,
        m=(a + c) % (q - 1) if q > 2 else 0,
        l=a,
    )


def grading(f: QmPoly):
    """Grading signature of f, None for the zero element (which has them all).

    Raises NotIsobaric when monomials of different weight or type appear.
    """
    if f.is_zero():
        return None
    sig = None
    depth = 0
    for (a, b, c) in f.terms:
        s = monomial_signature(f.cfg, a, b, c)
        if sig is None:
            sig = s
        elif (s.w, s.m) != (sig.w, sig.m):
            raise NotIsobaric(f"mixed gradings ({sig.w},{sig.m}) vs ({s.w},{s.m})")
        depth = max(depth, a)
    return GradingSignature(sig.w, sig.m, depth)


def isobaric_decompose(f: QmPoly):
    """Split f into its isobaric components, keyed by (weight, type)."""
    buckets = {}
    for (a, b, c), v in f.terms.items():
        s = monomial_signature(f.cfg, a, b, c)
        buckets.setdefault((s.w, s.m), QmPoly(f.cfg)).terms[(a, b, c)] = v
    out = []
    for (w, m) in sorted(buckets):
        comp = buckets[(w, m)]
        out.append((grading(comp), comp))
    return out


def modular_basis(w: int, m: int, cfg: FieldConfig):
    """Monomials g^b h^c with (q-1)b + (q+1)c = w and c = m mod q-1, sorted by b."""
    q = cfg.q
    mm = m % (q - 1) if q > 2 else 0
    sols = []
    for c in range(0, w // (q + 1) + 1):
        if q > 2 and c % (q - 1) != mm:
            continue
        rest = w - c * (q + 1)
        if rest % (q - 1) == 0:
            sols.append((rest // (q - 1), c))
    sols.sort()
    return sols


def qm_basis(w: int, m: int, l: int, cfg: FieldConfig):
    """Monomials E^a g^b h^c of weight w, type m and depth a <= l."""
    if w < 0 or l < 0:
        return []
    out = []
    for a in range(0, min(l, w // 2) + 1):
        for (b, c) in modular_basis(w - 2 * a, m - a, cfg):
            out.append((a, b, c))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Depth polynomials.


class DepthPoly:
    """Polynomial in the depth variable Y with coefficients in K[E,g,h].

    Y carries weight 2, type 1 and depth 1.  For f in the ring this is the
    image of f under E -> E + Y; the Y^0 coefficient is f itself.
    """

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.cfg = cfg
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, j):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return QmPoly.zero(self.cfg)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, DepthPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DepthPoly(self.cfg, [self.coeff(j) + other.coeff(j) for j in range(n)])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return DepthPoly(self.cfg, [])
        out = [QmPoly.zero(self.cfg) for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return DepthPoly(self.cfg, out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            ys = "" if j == 0 else (" Y" if j == 1 else f" Y^{j}")
            parts.append(f"({c}){ys}")
        return " + ".join(parts)

    __repr__ = __str__


def associated_polynomial(f: QmPoly) -> DepthPoly:
    """Ring substitution E -> E + Y, g -> g, h -> h applied to f."""
    cfg = f.cfg
    p = cfg.p
    l = max((k[0] for k in f.terms), default=0)
    coeffs = [QmPoly.zero(cfg) for _ in range(l + 1)]
    for (a, b, c), v in f.terms.items():
        for j in range(a + 1):
            bm = binom_mod_p(a, j, p)
            if bm == 0:
                continue
            cur = coeffs[j]
            k = (a - j, b, c)
            add = v.scale_int(bm)
            old = cur.terms.get(k)
            if old is None:
                cur.terms[k] = add
            else:
                s = old + add
                if s.is_zero():
                    del cur.terms[k]
                else:
                    cur.terms[k] = s
    return DepthPoly(cfg, coeffs)


def depth_coefficient_transform(P: DepthPoly, i: int) -> DepthPoly:
    """Depth polynomial of the i-th coefficient of P: sum_j C(j,i) P_j Y^(j-i)."""
    if i < 0 or i > P.degree:
        raise IndexError(f"coefficient index {i} outside 0..{P.degree}")
    cfg = P.cfg
    out = []
    for j in range(i, P.degree + 1):
        out.append(P.coeff(j).scale_int(binom_mod_p(j, i, cfg.p)))
    return DepthPoly(cfg, out)


# ---------------------------------------------------------------------------
# The first-order derivation and its derived operators.


def d1(f: QmPoly) -> QmPoly:
    """The derivation with E -> E^2, g -> -(Eg+h), h -> Eh, extended by Leibniz."""
    cfg = f.cfg
    out = QmPoly.zero(cfg)
    dE = QmPoly.monomial(cfg, 2, 0, 0)
    dg = -(QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg))
    dh = QmPoly.monomial(cfg, 1, 0, 1)
    for (a, b, c), v in f.terms.items():
        if a % cfg.p:
            out = out + QmPoly.monomial(cfg, a - 1, b, c, v.scale_int(a)) * dE
        if b % cfg.p:
            out = out + QmPoly.monomial(cfg, a, b - 1, c, v.scale_int(b)) * dg
        if c % cfg.p:
            out = out + QmPoly.monomial(cfg, a, b, c - 1, v.scale_int(c)) * dh
    return out


def rankin_bracket(U: QmPoly, V: QmPoly) -> QmPoly:
    """[U, V] = w(U) U (D_1 V) - w(V) V (D_1 U) for isobaric U, V."""
    su = grading(U)
    sv = grading(V)
    wu = su.w if su is not None else 0
    wv = sv.w if sv is not None else 0
    return (U * d1(V)).scale_int(wu) - (V * d1(U)).scale_int(wv)


def serre_derivative(f: QmPoly) -> QmPoly:
    """-h d/dg on a modular element; asserted equal to D_1 f - w E f."""
    s = grading(f)
    if s is not None and s.l != 0:
        raise NotModular(f"depth {s.l} element where a modular form is required")
    via_partial = -(QmPoly.gen_h(f.cfg) * f.partial("g"))
    w = s.w if s is not None else 0
    via_d1 = d1(f) - (QmPoly.gen_E(f.cfg) * f).scale_int(w)
    if via_partial != via_d1:
        raise AssertionError("the two defining expressions disagree")
    return via_partial
