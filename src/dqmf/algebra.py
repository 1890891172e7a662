"""Exact arithmetic foundation: F_p, F_q = F_{p^e}, F_q[T], F_q(T).

Everything downstream computes with these types.  An element of F_q is an
int code (its base-p digits are its coordinates) into the precomputed
``add``/``mul``/``neg``/``inv``/``frob`` tables; there is no element type.
``FieldConfig.code`` packs coordinates and ``code_str`` prints a code.  The
tables are filled from the monic modulus m alone: multiplying by x shifts
the digits up and subtracts the top digit times m, and a*b = sum_i b_i
(x^i a); Frobenius is p lookups in the product table.
Rational functions are kept in canonical form (coprime, monic denominator)
at all times, which makes equality syntactic; ``RatT._raw``, which trusts
its caller to pass that form, is called only in this module.

Two denominators d1, d2 meet in LRUs of 2^12 entries keyed by the two PolyT
values (and so by their field), each building only what its callers read:
RatT sums and ``common_denominator`` take the gcd, cofactors and lcm from
``_den_pair``, RatT products and the ring kernel take d1*d2 from
``_den_product``.  Engine denominators are products of a few brackets, so
the pairs recur; ``cache_info()`` reports the traffic.  A product first
cross-cancels each numerator against the other factor's denominator through
``_coprime_parts``, a third such LRU.  The gcds come from ``_monic_gcd``,
the LRU of 2^18 entries behind ``PolyT.gcd``.  The d_i have one cache,
``d_power``; ``d_rat`` gives d_i^k for any integer k as a RatT.  ``+`` and
``*`` raise ValueError on values of two fields.
"""

from __future__ import annotations

import functools
import math
import threading

__all__ = [
    "FieldConfig",
    "PolyT",
    "RatT",
    "InconsistentSystem",
    "binom_mod_p",
    "bracket",
    "common_denominator",
    "d_coeff",
    "d_rat",
    "linear_solve",
    "power",
    "DEFAULT_MODULI",
    "MAX_Q",
]


class InconsistentSystem(ValueError):
    """Raised by linear_solve when the right-hand side is not in the column span."""


# Default irreducible moduli of the shipped extension fields, coefficients
# low-to-high, monic; every prime field F_p takes the modulus x, (0, 1).
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),   # x^3 + x + 1
    (3, 2): (1, 0, 1),      # x^2 + 1
}

# The largest q built; its tables grow as q^2 (about a second at q = 2^8).
MAX_Q = 500


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


def power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply; ``one`` is the unit of base's ring."""
    acc = one
    while n:
        if n & 1:
            acc = acc * base
        n >>= 1
        if n:
            base = base * base
    return acc


_INTERN_LOCK = threading.Lock()


class FieldConfig:
    """The field F_q = F_{p^e} together with its arithmetic tables.

    Elements are encoded as ints in [0, q): the base-p digits of the code are
    the coordinates in the power basis of ``modulus``.  Instances are
    interned by (p, e, monic modulus), so table construction happens once
    and identity is equality: the per-field caches key on the instance
    itself.
    """

    _instances: dict = {}

    def __new__(cls, p: int, e: int = 1, modulus=None):
        if e < 1:
            raise ValueError("e must be positive")
        # p^e >= 2^e, so the exponent is capped before the power is formed
        if p ** min(e, MAX_Q.bit_length()) > MAX_Q:
            raise ValueError(f"q = {p}^{e} exceeds MAX_Q = {MAX_Q}, the largest field built")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            elif (p, e) in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[(p, e)]
            else:
                raise ValueError(f"no default modulus shipped for q = {p}^{e}; pass one")
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != e + 1 or modulus[-1] == 0:
            raise ValueError("modulus must have degree exactly e")
        # a scalar multiple of the modulus is the same field: key on the monic one
        inv_lead = pow(modulus[-1], p - 2, p)
        key = (p, e, tuple(c * inv_lead % p for c in modulus))
        # check, build and insert as one step, so racing threads share one field
        with _INTERN_LOCK:
            inst = cls._instances.get(key)
            if inst is None:
                inst = super().__new__(cls)
                inst._init(*key)
                cls._instances[key] = inst
        return inst

    def _init(self, p, e, modulus):
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
        p, e, q, m = self.p, self.e, self.q, self.modulus
        encode = self._encode
        digits = [self._decode(a) for a in range(q)]
        self.add = [[encode([x + y for x, y in zip(ca, cb)]) for cb in digits] for ca in digits]
        self.neg = [encode([-x for x in ca]) for ca in digits]
        # a*b = sum_i b_i (x^i a), with x (c_0..c_{e-1}) = (0, c_0..c_{e-2}) - c_{e-1} m
        self.mul = []
        for ca in digits:
            shifts = [ca]
            for _ in range(e - 1):
                c = shifts[-1]
                shifts.append([(lo - c[-1] * mi) % p for lo, mi in zip([0] + c[:-1], m)])
            self.mul.append([encode([sum(b * s[k] for b, s in zip(cb, shifts)) for k in range(e)])
                             for cb in digits])
        # F_p[x]/(m) is a field iff it has no zero divisors
        if any(0 in row[1:] for row in self.mul[1:]):
            raise ValueError("modulus is reducible over F_p")
        self.inv = [0] + [self.mul[a].index(1) for a in range(1, q)]
        self.frob = []
        for a in range(q):
            y = 1
            for _ in range(p):
                y = self.mul[y][a]
            self.frob.append(y)
        # Frobenius is a bijection; its inverse extracts p-th roots.
        self.pth_root = [0] * q
        for a in range(q):
            self.pth_root[self.frob[a]] = a

    def _decode(self, code: int) -> list:
        """The e base-p digits of a packed code, low to high."""
        c = []
        for _ in range(self.e):
            c.append(code % self.p)
            code //= self.p
        return c

    def _encode(self, coords) -> int:
        """Pack integer coordinates (reduced mod p, missing ones zero) into a code."""
        code = 0
        for d in reversed(coords):
            code = code * self.p + d % self.p
        return code

    @classmethod
    def from_q(cls, q: int) -> "FieldConfig":
        """Shorthand: factor q = p^e and use the shipped default modulus."""
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds MAX_Q = {MAX_Q}, the largest field built")
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
        if "p" not in vals:
            raise ValueError(f"field file {path} has no 'p =' line")
        p = int(vals["p"])
        e = int(vals.get("e", "1"))
        modulus = cls.parse_coefficients(vals["modulus"]) if "modulus" in vals else None
        return cls(p, e, modulus)

    @staticmethod
    def parse_coefficients(text: str) -> tuple:
        """Integer coefficients separated by commas and/or spaces, e.g. "1, 0 1"."""
        return tuple(int(t) for t in text.replace(",", " ").split())

    def to_text(self) -> str:
        """The three lines of a field file: p, e and the modulus low to high."""
        return f"p = {self.p}\ne = {self.e}\nmodulus = " + " ".join(str(c) for c in self.modulus)

    def code(self, coords) -> int:
        """The code of the element with these e coordinates in the power basis."""
        if len(coords) != self.e:
            raise ValueError(f"need exactly {self.e} coordinates")
        return self._encode(coords)

    def code_str(self, code: int) -> str:
        """Prime-subfield codes print bare, the others as their coordinates [c0,...]."""
        if code < self.p:
            return str(code)
        return "[" + ",".join(str(c) for c in self._decode(code)) + "]"

    def __repr__(self):
        return f"FieldConfig(p={self.p}, e={self.e}, modulus={list(self.modulus)})"


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
        return power(self, n, self.cfg.poly_one)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        cfg = self.cfg
        quot, rem = _divmod_lists(list(self.c), other.c, cfg)
        return PolyT(cfg, quot), PolyT(cfg, rem)

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
            cs = cfg.code_str(x)
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


@functools.lru_cache(maxsize=1 << 12)
def _den_pair(d1, d2):
    """(gcd, d1/gcd, d2/gcd, lcm) of two monic nonconstant denominators.

    The arguments are the PolyT values themselves, so the key carries the
    field: PolyT equality compares ``cfg`` as well as the coefficients.
    """
    g = d1.gcd(d2)
    if g.is_one():
        return g, d1, d2, d1 * d2
    d1r, d2r = d1.exact_div(g), d2.exact_div(g)
    return g, d1r, d2r, d1r * d2


@functools.lru_cache(maxsize=1 << 12)
def _den_product(d1, d2):
    """d1*d2 of two denominators, for RatT products and the ring kernel."""
    return d1 * d2


@functools.lru_cache(maxsize=1 << 12)
def _coprime_parts(n, d):
    """(n/g, d/g) for g = gcd(n, d) of two nonconstant PolyT: the
    cross-cancellation of a RatT product, keyed like ``_den_pair``."""
    g = n.gcd(d)
    if g.is_one():
        return n, d
    return n.exact_div(g), d.exact_div(g)


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
            and self.cfg is other.cfg
            and self.num.c == other.num.c
            and self.den.c == other.den.c
        )

    def __hash__(self):
        return hash((self.num.c, self.den.c))

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        cfg = self.cfg
        if other.cfg is not cfg:
            raise ValueError("rational functions over different fields")
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        d1, d2 = self.den, other.den
        if d1.c == d2.c:
            return RatT(cfg, self.num + other.num, d1)
        if d1.is_one():
            return RatT._raw(cfg, self.num * d2 + other.num, d2)
        if d2.is_one():
            return RatT._raw(cfg, self.num + other.num * d1, d1)
        g, d1r, d2r, lcm = _den_pair(d1, d2)
        t = self.num * d2r + other.num * d1r
        if g.is_one():
            return RatT._raw(cfg, t, lcm)
        if t.is_zero():
            return cfg.rat_zero
        # t is prime to d1r and d2r, so a gcd with g alone, not the whole lcm, reduces it
        g2 = t.gcd(g)
        if g2.is_one():
            return RatT._raw(cfg, t, lcm)
        return RatT._raw(cfg, t.exact_div(g2), lcm.exact_div(g2))

    def __neg__(self):
        if self.num.is_zero():
            return self
        return RatT._raw(self.cfg, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        cfg = self.cfg
        if other.cfg is not cfg:
            raise ValueError("rational functions over different fields")
        if self.num.is_zero() or other.num.is_zero():
            return cfg.rat_zero
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # cross-cancel: two gcds of small factors beat the constructor's gcd of the
        # product; skip when either side is a unit (constants cancel into nothing)
        if len(n1.c) > 1 and len(d2.c) > 1:
            n1, d2 = _coprime_parts(n1, d2)
        if len(n2.c) > 1 and len(d1.c) > 1:
            n2, d1 = _coprime_parts(n2, d1)
        if d1.is_one():
            den = d2
        elif d2.is_one():
            den = d1
        else:
            den = _den_product(d1, d2)
        return RatT._raw(cfg, n1 * n2, den)

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


def bracket(i: int, cfg: FieldConfig) -> PolyT:
    """[i] = T^(q^i) - T."""
    if i < 1:
        raise ValueError("bracket index must be >= 1")
    coeffs = [0] * (cfg.q**i + 1)
    coeffs[1] = cfg.neg[1]
    coeffs[-1] = 1
    return PolyT(cfg, coeffs)


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


def d_rat(i: int, k: int, cfg: FieldConfig) -> RatT:
    """d_i^k for any integer k as a canonical RatT (d_i is monic)."""
    d = d_power(i, abs(k), cfg)
    return RatT._raw(cfg, d, cfg.poly_one) if k >= 0 else RatT._raw(cfg, cfg.poly_one, d)


# ---------------------------------------------------------------------------
# Exact linear algebra.


def common_denominator(cfg: FieldConfig, values) -> PolyT:
    """The monic lcm of the denominators of some RatT values (1 for none)."""
    common = cfg.poly_one
    for x in values:
        if x.den.is_one():
            continue
        common = x.den if common.is_one() else _den_pair(common, x.den)[3]
    return common


def linear_solve(matrix, rhs=None):
    """Gauss-Jordan elimination over canonical F_q(T).

    Column by column, the first nonzero entry at or below the current row is
    the pivot: its row is scaled to make it 1, and the column is cleared in
    every other row.  The result is the reduced row echelon form, whose pivot
    columns are unique.  Returns (particular, kernel): ``particular`` solves
    matrix @ x = rhs with every free variable zero (the zero vector when rhs
    is None); ``kernel`` has one vector per free column, 1 there and 0 at the
    other free columns.  Raises InconsistentSystem when rhs is not attainable.
    """
    if not matrix:
        return [], []
    cfg = next((x.cfg for row in matrix for x in row), None)
    if cfg is None:
        raise ValueError("empty matrix")
    ncols = len(matrix[0])
    zero = cfg.rat_zero
    rows = [list(row) + [rhs[i] if rhs is not None else zero] for i, row in enumerate(matrix)]
    piv_cols = []
    for col in range(ncols):
        r = len(piv_cols)
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][col].inverse()
        pivot = rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            head = row[col]
            if i != r and head:
                rows[i] = [x - head * y if y else x for x, y in zip(row, pivot)]
        piv_cols.append(col)
    # rows past the rank are zero on the matrix part
    if any(row[ncols] for row in rows[len(piv_cols):]):
        raise InconsistentSystem("right-hand side is not in the column span")
    particular = [zero] * ncols
    for row, pc in zip(rows, piv_cols):
        particular[pc] = row[ncols]
    kernel = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        vec = [zero] * ncols
        vec[fc] = cfg.rat_one
        for row, pc in zip(rows, piv_cols):
            vec[pc] = -row[fc]
        kernel.append(vec)
    return particular, kernel
