"""Exact arithmetic foundation: F_p, F_q = F_{p^e}, F_q[T], F_q(T).

Everything downstream computes with these types.  Field elements are packed
into small ints (base-p digit vectors) and multiplied through precomputed
tables, so the polynomial kernels never allocate element objects in hot
loops.  Rational functions are kept in canonical form (coprime, monic
denominator) at all times, which makes equality syntactic.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

__all__ = [
    "FieldConfig",
    "FqElem",
    "PolyT",
    "RatT",
    "InconsistentSystem",
    "binom_mod_p",
    "bracket",
    "d_coeff",
    "linear_solve",
    "DEFAULT_MODULI",
]


class InconsistentSystem(ValueError):
    """Raised by linear_solve when the right-hand side is not in the column span."""


# Default irreducible moduli over F_p, coefficients low-to-high, monic.
DEFAULT_MODULI = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (5, 1): (0, 1),
    (7, 1): (0, 1),
    (2, 2): (1, 1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),   # x^3 + x + 1
    (3, 2): (1, 0, 1),      # x^2 + 1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# F_p[x] helpers used only at FieldConfig construction time.


def _fp_trim(c, p):
    while c and c[-1] % p == 0:
        c.pop()
    return [x % p for x in c]


def _fp_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _fp_rem(out, mod, p)


def _fp_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] % p == 0:
            a.pop()
            continue
        q = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for k in range(len(mod)):
            a[shift + k] = (a[shift + k] - q * mod[k]) % p
        a.pop()
    return _fp_trim(a, p)


def _fp_irreducible(mod, p):
    """Trial division by every monic polynomial of degree <= deg(mod)/2."""
    e = len(mod) - 1
    for d in range(1, e // 2 + 1):
        for idx in range(p**d):
            div = []
            t = idx
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)
            if not _fp_rem(mod, div, p):
                return False
    return True


_INTERN_LOCK = threading.Lock()


class FieldConfig:
    """The field F_q = F_{p^e} together with its arithmetic tables.

    Elements are encoded as ints in [0, q): the base-p digits of the code are
    the coordinates in the power basis of ``modulus``.  Instances are
    interned by (p, e, modulus), so table construction happens once and
    identity is equality: the per-field caches key on the instance itself.
    """

    _instances: dict = {}

    def __new__(cls, p: int, e: int = 1, modulus=None):
        if modulus is None:
            try:
                modulus = DEFAULT_MODULI[(p, e)]
            except KeyError:
                raise ValueError(f"no default modulus shipped for q = {p}^{e}; pass one")
        modulus = tuple(int(c) % p for c in modulus)
        key = (p, e, modulus)
        # check, build and insert as one step, so racing threads share one field
        with _INTERN_LOCK:
            inst = cls._instances.get(key)
            if inst is None:
                inst = super().__new__(cls)
                inst._init(p, e, modulus)
                cls._instances[key] = inst
        return inst

    def _init(self, p, e, modulus):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("e must be positive")
        if len(modulus) != e + 1 or modulus[-1] == 0:
            raise ValueError("modulus must have degree exactly e")
        if not _fp_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible over F_p")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._build_tables()
        # canonical constants, filled after PolyT exists
        self.poly_zero = PolyT(self, ())
        self.poly_one = PolyT(self, (1,))
        self.poly_T = PolyT(self, (0, 1))
        self.rat_zero = RatT._raw(self, self.poly_zero, self.poly_one)
        self.rat_one = RatT._raw(self, self.poly_one, self.poly_one)

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        mod = list(self.modulus)

        def decode(i):
            c = []
            for _ in range(e):
                c.append(i % p)
                i //= p
            return c

        def encode(c):
            i = 0
            for d in reversed(c[:e]):
                i = i * p + (d % p)
            return i

        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        self.neg = [0] * q
        for a in range(q):
            ca = decode(a)
            self.neg[a] = encode([(-x) % p for x in ca])
            for b in range(q):
                cb = decode(b)
                self.add[a][b] = encode([(x + y) % p for x, y in zip(ca, cb)])
                prod = _fp_mulmod(ca, cb, mod, p)
                prod += [0] * (e - len(prod))
                self.mul[a][b] = encode(prod)
        # a^(q-2) = a^{-1}
        self.inv = [0] + [self._pow_int(a, q - 2) for a in range(1, q)]
        self.frob = [self._pow_int(a, p) for a in range(q)]
        # Frobenius is a bijection; its inverse extracts p-th roots.
        self.pth_root = [0] * q
        for a in range(q):
            self.pth_root[self.frob[a]] = a

    def _pow_int(self, a, n):
        acc, x = 1, a
        while n:
            if n & 1:
                acc = self.mul[acc][x]
            x = self.mul[x][x]
            n >>= 1
        return acc

    @classmethod
    def from_q(cls, q: int) -> "FieldConfig":
        """Shorthand: factor q = p^e and use the shipped default modulus."""
        for p in range(2, q + 1):
            if q % p == 0:
                e = 0
                m = q
                while m % p == 0:
                    m //= p
                    e += 1
                if m != 1:
                    raise ValueError(f"q = {q} is not a prime power")
                return cls(p, e)
        raise ValueError(f"q = {q} is not a prime power")

    @classmethod
    def from_file(cls, path) -> "FieldConfig":
        """Read a key-value field config: p, e, modulus (coefficients low-to-high)."""
        vals = {}
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, rhs = line.partition("=")
                vals[key.strip()] = rhs.strip()
        p = int(vals["p"])
        e = int(vals.get("e", "1"))
        modulus = None
        if "modulus" in vals:
            modulus = tuple(int(t) for t in vals["modulus"].replace(",", " ").split())
        return cls(p, e, modulus)

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(f"p = {self.p}\ne = {self.e}\n")
            fh.write("modulus = " + " ".join(str(c) for c in self.modulus) + "\n")

    def scalar(self, n: int) -> int:
        """Image of the integer n in F_q (packed code of the prime-field element)."""
        return n % self.p

    def element(self, coords) -> "FqElem":
        if isinstance(coords, int):
            return FqElem(self, coords % self.q)
        c = list(coords)
        if len(c) != self.e:
            raise ValueError(f"need exactly {self.e} coordinates")
        code = 0
        for d in reversed(c):
            code = code * self.p + (d % self.p)
        return FqElem(self, code)

    def elements(self):
        return [FqElem(self, i) for i in range(self.q)]

    def __repr__(self):
        return f"FieldConfig(p={self.p}, e={self.e}, modulus={list(self.modulus)})"


@dataclass(frozen=True)
class FqElem:
    """An element of F_q: a length-e coordinate vector packed into ``code``."""

    cfg: FieldConfig
    code: int

    @property
    def coords(self):
        c, i = [], self.code
        for _ in range(self.cfg.e):
            c.append(i % self.cfg.p)
            i //= self.cfg.p
        return tuple(c)

    def __add__(self, other):
        return FqElem(self.cfg, self.cfg.add[self.code][other.code])

    def __sub__(self, other):
        return FqElem(self.cfg, self.cfg.add[self.code][self.cfg.neg[other.code]])

    def __neg__(self):
        return FqElem(self.cfg, self.cfg.neg[self.code])

    def __mul__(self, other):
        return FqElem(self.cfg, self.cfg.mul[self.code][other.code])

    def __truediv__(self, other):
        if other.code == 0:
            raise ZeroDivisionError("division by zero in F_q")
        return FqElem(self.cfg, self.cfg.mul[self.code][self.cfg.inv[other.code]])

    def __pow__(self, n):
        if n < 0:
            if self.code == 0:
                raise ZeroDivisionError("inverting zero in F_q")
            return FqElem(self.cfg, self.cfg._pow_int(self.cfg.inv[self.code], -n))
        return FqElem(self.cfg, self.cfg._pow_int(self.code, n))

    def __bool__(self):
        return self.code != 0

    def __str__(self):
        # prime-subfield elements print bare; proper extension elements as tuples
        if self.code < self.cfg.p:
            return str(self.code)
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Polynomials over F_q in T.


class PolyT:
    """Element of A = F_q[T], coefficients low-to-high, no trailing zeros."""

    __slots__ = ("cfg", "c")

    def __init__(self, cfg: FieldConfig, coeffs):
        c = tuple(coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        self.cfg = cfg
        self.c = c

    @classmethod
    def from_ints(cls, cfg, ints):
        """Coefficients given as integers, reduced into the prime field."""
        return cls(cfg, tuple(n % cfg.p for n in ints))

    @classmethod
    def monomial(cls, cfg, deg, coeff=1):
        return cls(cfg, (0,) * deg + (coeff,))

    @property
    def degree(self):
        return len(self.c) - 1

    def is_zero(self):
        return not self.c

    def is_one(self):
        return self.c == (1,)

    def __bool__(self):
        return bool(self.c)

    def lead(self):
        return self.c[-1]

    def __eq__(self, other):
        return isinstance(other, PolyT) and self.c == other.c and self.cfg is other.cfg

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        add = self.cfg.add
        out = list(a)
        for i, x in enumerate(b):
            out[i] = add[out[i]][x]
        return PolyT(self.cfg, out)

    def __neg__(self):
        neg = self.cfg.neg
        return PolyT(self.cfg, tuple(neg[x] for x in self.c))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.c, other.c
        if not a or not b:
            return self.cfg.poly_zero
        add, mul = self.cfg.add, self.cfg.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b):
                    if y:
                        k = i + j
                        out[k] = add[out[k]][row[y]]
        return PolyT(self.cfg, out)

    def scale(self, code: int):
        if code == 0:
            return self.cfg.poly_zero
        row = self.cfg.mul[code]
        return PolyT(self.cfg, tuple(row[x] for x in self.c))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = self.cfg.poly_one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        cfg = self.cfg
        quot, rem = _divmod_lists(list(self.c), other.c, cfg)
        return PolyT(cfg, quot), PolyT(cfg, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if r:
            raise ArithmeticError("division was not exact")
        return q

    def gcd(self, other):
        cfg = self.cfg
        a, b = self.c, other.c
        if not a:
            return other.monic()
        if not b:
            return self.monic()
        # constants are units; equal inputs shortcut the Euclid loop
        if len(a) == 1 or len(b) == 1:
            return cfg.poly_one
        if a == b:
            return self.monic()
        return _monic_gcd(cfg, a, b) if len(a) >= len(b) else _monic_gcd(cfg, b, a)

    def monic(self):
        if self.is_zero() or self.lead() == 1:
            return self
        return self.scale(self.cfg.inv[self.lead()])

    def frobenius_pow(self, k: int):
        """Raise to the p^k-th power: coefficient Frobenius, exponents times p^k."""
        if not self.c:
            return self
        cfg = self.cfg
        pk = cfg.p**k
        frob = cfg.frob
        out = [0] * (self.degree * pk + 1)
        for i, x in enumerate(self.c):
            y = x
            for _ in range(k):
                y = frob[y]
            out[i * pk] = y
        return PolyT(cfg, out)

    def pth_root(self):
        """Inverse of frobenius_pow(1); raises if the polynomial is not a p-th power."""
        cfg = self.cfg
        p = cfg.p
        out = [0] * (self.degree // p + 1) if self.c else []
        for i, x in enumerate(self.c):
            if x and i % p:
                raise ArithmeticError("not a p-th power")
            if x:
                out[i // p] = cfg.pth_root[x]
        return PolyT(cfg, out)

    def __str__(self):
        if not self.c:
            return "0"
        cfg = self.cfg
        parts = []
        for i, x in enumerate(self.c):
            if not x:
                continue
            cs = str(FqElem(cfg, x))
            if i == 0:
                parts.append(cs)
            else:
                tpow = "T" if i == 1 else f"T^{i}"
                parts.append(tpow if x == 1 else f"{cs}*{tpow}")
        return " + ".join(parts)

    __repr__ = __str__


def _divmod_lists(rem, bc, cfg):
    """Long division on raw coefficient lists; returns (quot, rem) trimmed."""
    add, mul, neg = cfg.add, cfg.mul, cfg.neg
    db = len(bc) - 1
    inv_lead = cfg.inv[bc[-1]]
    quot = [0] * max(len(rem) - db, 0)
    while len(rem) > db:
        top = rem[-1]
        if top == 0:
            rem.pop()
            continue
        qc = mul[top][inv_lead]
        shift = len(rem) - 1 - db
        quot[shift] = qc
        row = mul[qc]
        for k in range(db):
            bk = bc[k]
            if bk:
                j = shift + k
                rem[j] = add[rem[j]][neg[row[bk]]]
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return quot, rem


@functools.lru_cache(maxsize=1 << 18)
def _monic_gcd(cfg, a, b):
    """Monic gcd of two nonconstant coefficient tuples, the longer one first.

    Euclid on raw lists; the LRU bound keeps a long-running process from
    holding every denominator pair it has ever reduced.
    """
    a, b = list(a), list(b)
    while b:
        _, r = _divmod_lists(a, b, cfg)
        a, b = b, r
    return PolyT(cfg, a).monic()


# ---------------------------------------------------------------------------
# Rational functions over F_q in T, always canonical.


class RatT:
    """Element of K = F_q(T): coprime num/den with monic den; zero is 0/1."""

    __slots__ = ("cfg", "num", "den")

    def __init__(self, cfg: FieldConfig, num: PolyT, den: PolyT | None = None):
        if den is None:
            den = cfg.poly_one
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = cfg.poly_zero, cfg.poly_one
        else:
            if not den.is_one():
                g = num.gcd(den)
                if not g.is_one():
                    num, den = num.exact_div(g), den.exact_div(g)
            if den.lead() != 1:
                s = cfg.inv[den.lead()]
                num, den = num.scale(s), den.scale(s)
        self.cfg = cfg
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, cfg, num, den):
        # Caller guarantees canonical form.
        self = object.__new__(cls)
        self.cfg = cfg
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_int(cls, cfg, n: int):
        return cls._raw(cfg, PolyT(cfg, (n % cfg.p,)), cfg.poly_one)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other):
        return (
            isinstance(other, RatT)
            and self.num.c == other.num.c
            and self.den.c == other.den.c
        )

    def __hash__(self):
        return hash((self.num.c, self.den.c))

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        cfg = self.cfg
        d1, d2 = self.den, other.den
        if d1.c == d2.c:
            num = self.num + other.num
            if num.is_zero():
                return cfg.rat_zero
            if d1.is_one():
                return RatT._raw(cfg, num, d1)
            g = num.gcd(d1)
            if g.is_one():
                return RatT._raw(cfg, num, d1)
            return RatT._raw(cfg, num.exact_div(g), d1.exact_div(g))
        if d1.is_one():
            return RatT._raw(cfg, self.num * d2 + other.num, d2)
        if d2.is_one():
            return RatT._raw(cfg, self.num + other.num * d1, d1)
        g = d1.gcd(d2)
        if g.is_one():
            return RatT._raw(cfg, self.num * d2 + other.num * d1, d1 * d2)
        d1r = d1.exact_div(g)
        t = self.num * d2.exact_div(g) + other.num * d1r
        if t.is_zero():
            return cfg.rat_zero
        g2 = t.gcd(g)
        if g2.is_one():
            return RatT._raw(cfg, t, d1r * d2)
        return RatT._raw(cfg, t.exact_div(g2), d1r * d2.exact_div(g2))

    def __neg__(self):
        if self.num.is_zero():
            return self
        return RatT._raw(self.cfg, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        cfg = self.cfg
        if self.num.is_zero() or other.num.is_zero():
            return cfg.rat_zero
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # cross-cancel so the product is canonical without a final gcd;
        # skip when either side is a unit (constants cancel into nothing)
        if len(n1.c) > 1 and len(d2.c) > 1:
            g = n1.gcd(d2)
            if not g.is_one():
                n1, d2 = n1.exact_div(g), d2.exact_div(g)
        if len(n2.c) > 1 and len(d1.c) > 1:
            g = n2.gcd(d1)
            if not g.is_one():
                n2, d1 = n2.exact_div(g), d1.exact_div(g)
        return RatT._raw(cfg, n1 * n2, d1 * d2)

    def scale_int(self, n: int):
        code = n % self.cfg.p
        if code == 0:
            return self.cfg.rat_zero
        if code == 1:
            return self
        return RatT._raw(self.cfg, self.num.scale(code), self.den)

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero rational function")
        num, den = self.den, self.num
        if den.lead() != 1:
            s = self.cfg.inv[den.lead()]
            num, den = num.scale(s), den.scale(s)
        return RatT._raw(self.cfg, num, den)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        # num and den stay coprime under powers
        return RatT._raw(self.cfg, self.num**n, self.den**n)

    def frobenius_pow(self, k: int):
        return RatT._raw(self.cfg, self.num.frobenius_pow(k), self.den.frobenius_pow(k))

    def pth_root(self):
        return RatT._raw(self.cfg, self.num.pth_root(), self.den.pth_root())

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Binomials mod p (Lucas) and the bracket quantities.


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p, digitwise for n >= 0, via the sign rule for n < 0.

    For negative n the convention is C(n, k) = (-1)^k C(k-n-1, k).
    """
    if k < 0:
        return 0
    if n < 0:
        v = binom_mod_p(k - n - 1, k, p)
        return (p - v) % p if k & 1 else v
    r = 1
    while k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        r = r * math.comb(ni, ki) % p
        n //= p
        k //= p
    return r


@functools.cache
def bracket(i: int, cfg: FieldConfig) -> PolyT:
    """[i] = T^(q^i) - T."""
    if i < 1:
        raise ValueError("bracket index must be >= 1")
    coeffs = [0] * (cfg.q**i + 1)
    coeffs[1] = cfg.neg[1]
    coeffs[-1] = 1
    return PolyT(cfg, coeffs)


@functools.cache
def d_coeff(i: int, cfg: FieldConfig) -> PolyT:
    """d_0 = 1 and d_i = [i] * d_{i-1}^q."""
    if i < 0:
        raise ValueError("d index must be >= 0")
    if i == 0:
        return cfg.poly_one
    return bracket(i, cfg) * d_coeff(i - 1, cfg).frobenius_pow(cfg.e)


@functools.cache
def d_power(i: int, k: int, cfg: FieldConfig) -> PolyT:
    """d_i^k, cached (denominators of this shape appear everywhere)."""
    return d_coeff(i, cfg) ** k


# ---------------------------------------------------------------------------
# Exact linear algebra.


def linear_solve(matrix, rhs=None):
    """Fraction-free Gaussian elimination over F_q(T).

    Rows are cleared of denominators, then reduced by Bareiss' one-step
    scheme (all divisions exact in F_q[T]).  Returns (particular, kernel):
    ``particular`` solves matrix @ x = rhs with free variables set to zero
    (the zero vector when rhs is None), ``kernel`` is a basis of the null
    space.  Raises InconsistentSystem when rhs is not attainable.
    """
    nrows = len(matrix)
    if nrows == 0:
        return [], []
    ncols = len(matrix[0])
    cfg = None
    for row in matrix:
        for x in row:
            cfg = x.cfg
            break
        if cfg:
            break
    if cfg is None:
        raise ValueError("empty matrix")

    aug = ncols + 1
    rows = []
    for i in range(nrows):
        entries = list(matrix[i]) + [rhs[i] if rhs is not None else cfg.rat_zero]
        common = cfg.poly_one
        for x in entries:
            if not x.den.is_one():
                g = common.gcd(x.den)
                common = common * x.den.exact_div(g)
        rows.append([x.num * common.exact_div(x.den) for x in entries])

    piv_cols = []
    free_cols = []
    prev_piv = cfg.poly_one
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not rows[i][col].is_zero():
                sel = i
                break
        if sel is None:
            free_cols.append(col)
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][col]
        for i in range(r + 1, nrows):
            head = rows[i][col]
            if head.is_zero():
                if not prev_piv.is_one():
                    rows[i] = [
                        (x * piv).exact_div(prev_piv) if not x.is_zero() else x
                        for x in rows[i]
                    ]
                else:
                    rows[i] = [x * piv for x in rows[i]]
                continue
            new = []
            for j in range(aug):
                t = rows[i][j] * piv - head * rows[r][j]
                if not t.is_zero() and not prev_piv.is_one():
                    t = t.exact_div(prev_piv)
                new.append(t)
            rows[i] = new
        piv_cols.append(col)
        prev_piv = piv
        r += 1
        if r == nrows:
            free_cols.extend(range(col + 1, ncols))
            break

    rank = len(piv_cols)
    for i in range(rank, nrows):
        if all(rows[i][j].is_zero() for j in range(ncols)) and not rows[i][ncols].is_zero():
            raise InconsistentSystem("right-hand side is not in the column span")

    def back_substitute(vec_tail, target_col=None):
        # vec_tail holds the chosen values of the free variables
        x = list(vec_tail)
        for rr in range(rank - 1, -1, -1):
            pc = piv_cols[rr]
            acc = RatT._raw(cfg, rows[rr][ncols], cfg.poly_one) if target_col is None else cfg.rat_zero
            for j in range(pc + 1, ncols):
                if not rows[rr][j].is_zero() and not x[j].is_zero():
                    acc = acc - RatT(cfg, rows[rr][j]) * x[j]
            if target_col is not None and not rows[rr][target_col].is_zero():
                acc = acc - RatT(cfg, rows[rr][target_col])
            x[pc] = acc / RatT(cfg, rows[rr][pc])
        return x

    zero_vec = [cfg.rat_zero] * ncols
    particular = back_substitute(zero_vec)

    kernel = []
    for fc in free_cols:
        vec = back_substitute(list(zero_vec), target_col=fc)
        vec[fc] = cfg.rat_one
        kernel.append(vec)
    return particular, kernel
