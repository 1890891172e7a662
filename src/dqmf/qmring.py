"""The graded polynomial ring K[E,g,h].

Monomials E^a g^b h^c carry weight 2a + (q-1)b + (q+1)c, type a+c mod q-1
and depth a.  The module provides the grading bookkeeping, monomial bases
of the modular and depth-filtered slices, depth polynomials (the ring
substitution E -> E + Y) and the first-order derivation.

Every sum of products in the ring goes through one kernel,
``sum_of_products``: ``QmPoly * QmPoly`` is the kernel on one pair, and
the engine's Leibniz convolutions, the quotient sequences of ``verify``
and depth-polynomial products pass it all their pairs at once; ``d1``
multiplies no pair, it scales each term by integers.  The kernel convolves
the F_q[T] numerators of every term pair into one raw code list per
(output monomial, denominator d1*d2, from ``algebra._den_product``) and
canonicalises each list once, through the RatT constructor, instead of
canonicalising every product and every partial sum.  The output is
canonical all the same: a sum of numerators over one unreduced denominator
is exact, the constructor reduces it to the unique coprime form with a
monic denominator, and the groups of one monomial are then merged by
canonical RatT addition; the QmPoly constructor drops the zeros.  ``+``
and the kernel (so ``*``) raise ValueError on elements of two fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FieldConfig, PolyT, RatT, _den_product, binom_mod_p, power

__all__ = [
    "QmPoly",
    "GradingSignature",
    "DepthPoly",
    "NotIsobaric",
    "grading",
    "modular_basis",
    "qm_basis",
    "associated_polynomial",
    "d1",
    "sum_of_products",
]


class NotIsobaric(ValueError):
    """The element mixes weights or types."""


@dataclass(frozen=True)
class GradingSignature:
    """Weight, type (a residue in {0..q-2}) and depth of an isobaric element."""

    w: int
    m: int
    l: int


class QmPoly:
    """Finitely supported map (a, b, c) -> K, the element sum c_t E^a g^b h^c.

    Stored coefficients are never zero.  ``terms`` keeps insertion order,
    which depends on the route that built the element; ``items()`` sorts by
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
        elif coeff.cfg is not cfg:
            raise ValueError("coefficient from a different field")
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
        return isinstance(other, QmPoly) and self.cfg is other.cfg and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def deg_E(self):
        """Depth as a polynomial: max exponent of E (-1 for the zero element)."""
        if not self.terms:
            return -1
        return max(k[0] for k in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if other.cfg is not self.cfg:
            raise ValueError("elements of K[E,g,h] over different fields")
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
        return sum_of_products(self.cfg, ((self, other),))

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

    def subs_g(self, repl: "QmPoly"):
        """Substitute g -> repl, leaving E and h alone."""
        return sum_of_products(self.cfg, (
            (QmPoly.monomial(self.cfg, a, 0, c, v), repl**b) for (a, b, c), v in self.terms.items()
        ))

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


def sum_of_products(cfg: FieldConfig, pairs) -> QmPoly:
    """The sum of x * y over an iterable of QmPoly pairs (x, y).

    Every term pair's numerator product is convolved straight into one raw
    F_q code list per (output monomial, denominator d1*d2), so no product
    is canonicalised on its own.  Each list then becomes one RatT through
    the constructor, the groups of a monomial are merged by RatT +, and the
    QmPoly constructor drops the zeros.  The result is canonical: a sum of
    numerators over one unreduced denominator is exact, and the constructor
    reduces it to the unique coprime form with a monic denominator.
    """
    add, mul = cfg.add, cfg.mul
    groups = {}  # denominator coefficients -> (denominator, {monomial: raw numerator})
    for x, y in pairs:
        if x.cfg is not cfg or y.cfg is not cfg:
            raise ValueError("elements of K[E,g,h] over different fields")
        right = {}  # y's terms by denominator: one _den_product lookup per group
        for k, v in y.terms.items():
            right.setdefault(v.den.c, (v.den, []))[1].append((k, v.num.c, len(v.num.c)))
        for (a1, b1, c1), v1 in x.terms.items():
            n1, d1 = v1.num.c, v1.den
            l1, unit = len(n1) - 1, d1.is_one()
            for d2, terms in right.values():
                if unit:
                    den = d2
                elif d2.is_one():
                    den = d1
                else:
                    den = _den_product(d1, d2)
                group = groups.get(den.c)
                if group is None:
                    group = groups[den.c] = (den, {})
                accs = group[1]
                for (a2, b2, c2), n2, l2 in terms:
                    k = (a1 + a2, b1 + b2, c1 + c2)
                    acc = accs.get(k)
                    if acc is None:
                        acc = accs[k] = [0] * (l1 + l2)
                    elif len(acc) < l1 + l2:
                        acc.extend([0] * (l1 + l2 - len(acc)))
                    for i, u in enumerate(n1):
                        if u:
                            row = mul[u]
                            for j, w in enumerate(n2):
                                if w:
                                    acc[i + j] = add[acc[i + j]][row[w]]
    out = {}
    for den, accs in groups.values():
        for k, acc in accs.items():
            v = RatT(cfg, PolyT(cfg, acc), den)
            out[k] = out[k] + v if k in out else v
    return QmPoly(cfg, out)


def monomial_signature(cfg, a, b, c) -> GradingSignature:
    q = cfg.q
    return GradingSignature(
        w=2 * a + (q - 1) * b + (q + 1) * c,
        m=(a + c) % (q - 1),
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


def modular_basis(w: int, m: int, cfg: FieldConfig):
    """Monomials g^b h^c with (q-1)b + (q+1)c = w and c = m mod q-1, sorted by b."""
    q = cfg.q
    mm = m % (q - 1)
    sols = []
    for c in range(0, w // (q + 1) + 1):
        if c % (q - 1) != mm:
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
        return isinstance(other, DepthPoly) and self.cfg is other.cfg and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DepthPoly(self.cfg, [self.coeff(j) + other.coeff(j) for j in range(n)])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return DepthPoly(self.cfg, [])
        pairs = [[] for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                pairs[i + j].append((a, b))
        return DepthPoly(self.cfg, [sum_of_products(self.cfg, ps) for ps in pairs])

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
    # distinct terms of f land on distinct monomials (a - j, b, c) of each Y^j
    for (a, b, c), v in f.terms.items():
        for j in range(a + 1):
            bm = binom_mod_p(a, j, p)
            if bm:
                coeffs[j].terms[(a - j, b, c)] = v.scale_int(bm)
    return DepthPoly(cfg, coeffs)


# ---------------------------------------------------------------------------
# The first-order derivation.


def d1(f: QmPoly) -> QmPoly:
    """The derivation with E -> E^2, g -> -(Eg+h), h -> Eh, term by term:

        D_1(E^a g^b h^c) = (a - b + c) E^{a+1} g^b h^c - b E^a g^{b-1} h^{c+1}.

    Each term of f scales its coefficient by two integers; a RatT sum is
    taken only where two source terms land on one monomial.
    """
    out = {}
    for (a, b, c), v in f.terms.items():
        for k, s in (((a + 1, b, c), a - b + c), ((a, b - 1, c + 1), -b)):
            t = v.scale_int(s)
            if not t.is_zero():
                out[k] = out[k] + t if k in out else t
    return QmPoly(f.cfg, out)
