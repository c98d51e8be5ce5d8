"""Exact arithmetic over Z_N and Z[X]/(X^N - 1).

A multiset A over Z_N is stored as a length-N vector of nonnegative integer
multiplicities; read as a polynomial, coeffs[a] is the coefficient of X^a, so
the vector doubles as the mask polynomial of A taken mod X^N - 1.  Everything
downstream (vanishing tests, tiling products, spectra) reduces to integer
polynomial arithmetic on these vectors.  There is no floating point anywhere
in this module: a value A(zeta_d) is declared zero exactly when the d-th
cyclotomic polynomial Phi_d divides the mask polynomial.

Conventions:
  * polynomials are dense lists of Python ints, ascending degree;
  * the zero set Z(A) = {x : A(zeta_N^-x) = 0} is stored as the set of
    divisors d > 1 of N with Phi_d | A, since vanishing only depends on the
    order N/gcd(x, N) of the root.

Two independent algorithms decide Phi_d | A:
  * zero_set() never forms Phi_d: with F the fold of A mod X^d - 1 and B_d the
    product of X^{d/p} - 1 over primes p | d, Phi_d | F iff F * B_d = 0 mod
    X^d - 1, since X^d - 1 is the squarefree product of the Phi_e, e | d, and
    every proper e | d divides some d/p.  B_d expands to 2^omega(d) unit terms
    P - Q, packed with F into lanes of big integers, so each divisor costs
    two integer products, one mask and one shift per product.  These blocks
    are linear in A, so a lane table, built on first use per
    (N, mass width), holds the blocks of each {x} side by side in one row;
    proper_zero_set() sums its elements' rows, and d vanishes iff d's
    block of FP ^ FQ is zero;
  * vanishes_at() folds A mod X^d - 1 and tests F * N- for exact division
    by N+, where N+ and N- are the binomial products with Phi_d * N- = N+
    (Moebius inversion), one pass per binomial; the same kernel builds Phi_d.
    It never reads the stored zero set, so the self-checks that call it
    confirm zero_set() by another route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from operator import add, sub

from .errors import DomainError, InvariantViolation, ParseError

# ---------------------------------------------------------------------------
# dense integer polynomials


def poly_trim(c):
    """Drop trailing zero coefficients (canonical form; [] is the zero poly)."""
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def poly_mod_xn_minus_1(c, n):
    """Fold a coefficient sequence into Z[X]/(X^n - 1), as a length-n tuple."""
    if len(c) == n:
        return tuple(c)
    out = [0] * n
    for i in compress(range(len(c)), c):
        out[i % n] += c[i]
    return tuple(out)


@dataclass(frozen=True)
class CycloPoly:
    """The d-th cyclotomic polynomial Phi_d, with exact integer coefficients."""

    d: int
    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def at_one(self):
        """Phi_d(1): p if d is a power of the prime p, else 1 (and 0 for d=1)."""
        return sum(self.coeffs)


def _mobius_exponents(d: int) -> tuple:
    """(plus, minus): d/m over squarefree m | d with mu(m) = +1 and -1, from factorize(d).

    With N+ and N- the products of X^k - 1 over plus and over minus, Phi_d * N- = N+.
    """
    plus, minus = (d,), ()
    for p, _ in factorize(d):
        plus, minus = plus + tuple(k // p for k in minus), minus + tuple(k // p for k in plus)
    return plus, minus


def _binomial_quotient(c, mul, div):
    """c * prod(X^k - 1 for k in mul) / prod(X^k - 1 for k in div), or None if inexact.

    One pass per binomial: a product shifts and subtracts; a division adds each
    length-k block, from the top, into the one below, leaving the remainder
    under the quotient.  Exact division by each monic factor in turn is exact
    division by their product in Z[X].  Short products and long divisors go
    first, which keeps the list short.
    """
    c = list(c)
    for k in sorted(mul):
        c = list(map(sub, [0] * k + c, c + [0] * k))
    for k in sorted(div, reverse=True):
        for hi in range(len(c), k, -k):
            lo = max(hi - k, k)
            c[lo - k : hi - k] = map(add, c[lo - k : hi - k], c[lo:hi])
        if any(c[:k]):
            return None
        del c[:k]
    return c


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> CycloPoly:
    """Phi_d = N+ / N-, the Moebius product of the binomials X^{d/m} - 1."""
    return CycloPoly(d, tuple(_binomial_quotient([1], *_mobius_exponents(d))))


def divisors(n: int) -> tuple:
    """All divisors of n, ascending."""
    return group(n).divisors


# The largest group order a set literal may name.  A literal becomes a dense
# coefficient vector of that length, so the order is checked before anything
# is allocated; the bound sits far above every order the searches can reach.
# It also bounds trial division, so factorize() settles any n whose cofactor
# after the primes below it is at most about MAX_ORDER^2.
MAX_ORDER = 1 << 20


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Trial-division factorization as ((p1, e1), (p2, e2), ...), p ascending.

    Trial divisors stop at MAX_ORDER; a cofactor that still may be composite
    past it raises DomainError rather than dividing on for minutes.
    """
    if n < 1:
        raise DomainError(f"cannot factorize {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if p > MAX_ORDER:
            raise DomainError(
                f"cannot factor {n}: trial division stops at {MAX_ORDER} and {m} "
                "has no prime factor below it; give the order as p^a*q^b*... "
                "with every prime below 2^40"
            )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# group context


@dataclass(frozen=True)
class GroupContext:
    """The ambient group Z_n together with its divisor lattice.

    Instances are immutable and interned per n (see group()); all cyclotomic
    and divisor data derived from a context is memoized process-wide.
    """

    n: int
    factorization: tuple

    @staticmethod
    def from_factorization(fact) -> "GroupContext":
        fact = tuple(sorted((int(p), int(e)) for p, e in fact))
        if len({p for p, _ in fact}) != len(fact):
            raise DomainError("repeated prime in factorization")
        for p, e in fact:
            if e < 1 or p < 2 or factorize(p) != ((p, 1),):
                raise DomainError(f"bad prime power {p}^{e}")
        # bound the order by its bit count before any power is taken
        if (bits := sum(e * p.bit_length() for p, e in fact)) > MAX_ORDER:
            raise DomainError(f"group order may have {bits} bits, above {MAX_ORDER}")
        return GroupContext(math.prod(p**e for p, e in fact), fact)

    @cached_property
    def divisors(self):
        """All divisors of n, ascending; built on first use."""
        ds = [1]
        for p, e in self.factorization:
            ds = [d * p**k for d in ds for k in range(e + 1)]
        return tuple(sorted(ds))

    @property
    def primes(self):
        return tuple(p for p, _ in self.factorization)

    @property
    def prime_powers(self):
        """All prime powers dividing n (the index set for the CM conditions)."""
        return tuple(
            sorted(p**k for p, e in self.factorization for k in range(1, e + 1))
        )

    def valuation(self, p):
        for q, e in self.factorization:
            if q == p:
                return e
        return 0

    def prime_pair(self):
        """(p, m, q, n) for two-prime orders p^m q^n; DomainError otherwise."""
        if len(self.factorization) != 2:
            raise DomainError(
                f"order {self.n} has {len(self.factorization)} distinct primes, need 2"
            )
        (p, m), (q, n) = self.factorization
        return p, m, q, n

    @lru_cache(maxsize=None)
    def units(self):
        """The units of Z_n, ascending; memoised since contexts are interned per n."""
        if self.n == 1:
            return (0,)
        return tuple(x for x in range(1, self.n) if math.gcd(x, self.n) == 1)


@lru_cache(maxsize=None)
def group(n: int) -> GroupContext:
    if n < 1:
        raise DomainError(f"group order must be positive, got {n}")
    return GroupContext.from_factorization(factorize(n))


@lru_cache(maxsize=None)
def _order_table(n):
    # order_of[x] = N / gcd(x, N), the order of x in Z_N; order_of[0] = 1
    return tuple(n // math.gcd(x, n) for x in range(n))


# ---------------------------------------------------------------------------
# multisets / mask polynomials


def _dense_context(ctx_or_n) -> GroupContext:
    # a multiset is a dense vector of ctx.n slots; refuse huge orders up front
    ctx = ctx_or_n if isinstance(ctx_or_n, GroupContext) else group(ctx_or_n)
    if ctx.n > MAX_ORDER:
        raise DomainError(
            f"group order {ctx.n} exceeds {MAX_ORDER}: a multiset takes one slot per element"
        )
    return ctx


@dataclass(frozen=True)
class MaskMultiset:
    """A multiset over Z_N, i.e. the coefficient vector of its mask polynomial."""

    ctx: GroupContext
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.n:
            raise DomainError(
                f"coefficient vector has length {len(self.coeffs)}, group order is {self.ctx.n}"
            )
        if min(self.coeffs, default=0) < 0:
            raise DomainError("multiset multiplicities must be nonnegative")

    @staticmethod
    def from_elements(ctx_or_n, elements) -> "MaskMultiset":
        ctx = _dense_context(ctx_or_n)
        coeffs = [0] * ctx.n
        for a in elements:
            coeffs[a % ctx.n] += 1
        return MaskMultiset(ctx, tuple(coeffs))

    @staticmethod
    def from_coeffs(ctx_or_n, coeffs) -> "MaskMultiset":
        ctx = _dense_context(ctx_or_n)
        return MaskMultiset(ctx, tuple(map(int, coeffs)))

    @property
    def n(self):
        return self.ctx.n

    def mass(self):
        """Total multiplicity |A| = A(1)."""
        return sum(self.coeffs)

    def support(self):
        # stored on the frozen instance, as zero_set stores Z(A)
        supp = self.__dict__.get("_support")
        if supp is None:
            supp = tuple(compress(range(self.n), self.coeffs))
            object.__setattr__(self, "_support", supp)
        return supp

    # the multiplicities are nonnegative ints, so the builtins decide these
    def is_proper(self):
        return max(self.coeffs, default=0) <= 1

    def is_empty(self):
        return not any(self.coeffs)

    def mask(self):
        """Support as a bitmask integer (bit a set iff a in supp A)."""
        return sum(map((1).__lshift__, self.support()))

    def translate(self, t):
        n = self.n
        t %= n
        return MaskMultiset(self.ctx, self.coeffs[-t:] + self.coeffs[:-t] if t else self.coeffs)

    def __repr__(self):
        return f"MaskMultiset({self.to_text()!r})"

    def to_text(self):
        c = self.coeffs
        parts = [str(a) if c[a] == 1 else f"{a}*{c[a]}" for a in self.support()]
        return f"{self.n}:{{{','.join(parts)}}}"

    def to_json(self):
        return {"n": self.n, "coeffs": list(self.coeffs)}


def parse_multiset(text) -> MaskMultiset:
    """Parse a set literal, either `N:{a1*m1,a2,...}` or JSON {"n":..,"coeffs":[..]}.

    ParseError carries the character position of the first offending token so
    the CLI can point at it.
    """
    s = text.strip()
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except (ValueError, RecursionError) as exc:  # over-long numbers, deep nesting
            pos = getattr(exc, "pos", None)
            raise ParseError(f"bad JSON set literal: {exc}", position=pos) from exc
        if not isinstance(obj, dict) or "n" not in obj or "coeffs" not in obj:
            raise ParseError('JSON set literal needs keys "n" and "coeffs"')
        n = obj["n"]
        coeffs = obj["coeffs"]
        # JSON true/false load as bool, a subclass of int
        if type(n) is not int or not 1 <= n <= MAX_ORDER:
            raise ParseError(f'"n" must be an integer in 1..{MAX_ORDER}')
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise ParseError(f'"coeffs" must be a list of length {n}')
        if any(type(c) is not int or c < 0 for c in coeffs):
            raise ParseError('"coeffs" entries must be nonnegative integers')
        return MaskMultiset.from_coeffs(n, coeffs)

    colon = s.find(":")
    if colon < 0:
        raise ParseError("expected `N:{...}`", position=0)
    try:
        n = int(s[:colon])
    except ValueError:
        raise ParseError(f"bad group order {s[:colon]!r}", position=0) from None
    if not 1 <= n <= MAX_ORDER:
        raise ParseError(f"group order must be in 1..{MAX_ORDER}, got {n}", position=0)
    body = s[colon + 1 :].strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError("expected braces around the element list", position=colon + 1)
    inner = body[1:-1].strip()
    coeffs = [0] * n
    if inner:
        pos = colon + 2
        for item in inner.split(","):
            tok = item.strip()
            if not tok:
                raise ParseError("empty element", position=pos)
            mult = 1
            if "*" in tok:
                elem_s, mult_s = tok.split("*", 1)
                try:
                    mult = int(mult_s)
                except ValueError:
                    raise ParseError(f"bad multiplicity {mult_s!r}", position=pos) from None
                if mult < 0:
                    raise ParseError("multiplicity must be nonnegative", position=pos)
            else:
                elem_s = tok
            try:
                a = int(elem_s)
            except ValueError:
                raise ParseError(f"bad element {elem_s!r}", position=pos) from None
            coeffs[a % n] += mult
            pos += len(item) + 1
    return MaskMultiset.from_coeffs(n, coeffs)


# ---------------------------------------------------------------------------
# the vanishing kernels: does Phi_d divide A?


@lru_cache(maxsize=1 << 17)
def _cyclo_divides(d, folded):
    """Exact test Phi_d | F for a length-d fold F: F * N- is divisible by N+."""
    plus, minus = _mobius_exponents(d)
    return _binomial_quotient(folded, minus, plus) is not None


def vanishes_at(a: MaskMultiset, d: int) -> bool:
    """Whether A(zeta_d) = 0, for d | N, decided by exact binomial division.

    The fold of A mod X^d - 1 (legitimate since d | N) goes to _cyclo_divides,
    whose verdicts are memoised per (d, fold) in a bounded cache.  This is the
    independent route: it never reads the zero set stored on A.
    """
    n = a.n
    if d < 1 or n % d != 0:
        raise DomainError(f"{d} does not divide the group order {n}")
    return _cyclo_divides(d, poly_mod_xn_minus_1(a.coeffs, d))


@dataclass(frozen=True)
class ZeroSet:
    """Z(A) represented through its vanishing divisors.

    Membership of a residue x depends only on gcd(x, N): x lies in Z(A) iff
    the order N/gcd(x, N) is a vanishing divisor, which is exactly the
    divisor-class structure of zero sets of mask polynomials.
    """

    ctx: GroupContext
    vanishing_divisors: frozenset

    def contains(self, x) -> bool:
        return _order_table(self.ctx.n)[x % self.ctx.n] in self.vanishing_divisors

    def residues(self) -> frozenset:
        n = self.ctx.n
        return frozenset(compress(range(n), map(self.vanishing_divisors.__contains__, _order_table(n))))


@lru_cache(maxsize=1 << 10)
def _packed_binomials(d: int, mass_bits: int) -> tuple:
    """(P, Q, w) with prod over primes p | d of (X^{d/p} - 1) = P - Q mod X^d - 1.

    P and Q are sums of unit terms X^x, packed in w-bit lanes.  A lane of
    F * P or F * Q, for F a fold of mass below 2^mass_bits, is at most
    mass * (|P| + |Q|) < 2^w, so no lane carries into the next.
    """
    pos, neg = [0], []
    for p, _ in factorize(d):
        k = d // p
        pos, neg = [(x + k) % d for x in pos] + neg, pos + [(x + k) % d for x in neg]
    w = mass_bits + (len(pos) + len(neg)).bit_length()
    return sum(1 << (w * x) for x in pos), sum(1 << (w * x) for x in neg), w


@lru_cache(maxsize=1 << 10)
def _lane_layout(n: int, mass_bits: int) -> tuple:
    """(d, P, Q, w, span, low) per divisor d > 1 of n, (P, Q, w) from
    _packed_binomials: d's block is d lanes of w bits, span bits under low."""
    out = []
    for d in group(n).divisors[1:]:
        pos, neg, w = _packed_binomials(d, mass_bits)
        out.append((d, pos, neg, w, w * d, (1 << w * d) - 1))
    return tuple(out)


def _lane_blocks(n, terms, mass_bits):
    """(d, FP, FQ) per divisor d > 1 of n: the fold F of the terms (x, c) mod
    X^d - 1 times P and times Q, folded once mod X^d - 1.  Phi_d | A iff FP
    and FQ agree; both are linear in the terms and no lane carries."""
    for d, pos, neg, w, span, low in _lane_layout(n, mass_bits):
        f = sum(c << (w * (x % d)) for x, c in terms)  # one shifted term held at a time
        p, q = f * pos, f * neg
        yield d, (p & low) + (p >> span), (q & low) + (q >> span)


@lru_cache(maxsize=1 << 4)
def _lane_table(n: int, mass_bits: int):
    """(rows, width, masks).  Row x holds the FP blocks of {x} side by side
    in its low `width` bits and its FQ blocks above them; masks pairs each d
    with the mask of d's low block."""
    layout = _lane_layout(n, mass_bits)
    spans = [span for _, _, _, _, span, _ in layout]
    width = sum(spans)
    shifts = list(accumulate(spans, initial=0))
    masks = tuple((d, low << at) for (d, *_, low), at in zip(layout, shifts))
    rows = tuple(sum((p | q << width) << at for (_, p, q), at in
                     zip(_lane_blocks(n, ((x, 1),), mass_bits), shifts)) for x in range(n))
    return rows, width, masks


def proper_zero_set(ctx: GroupContext, elements) -> ZeroSet:
    """Z(A) of the proper set of the distinct residues `elements` (each in
    0..N-1), with no MaskMultiset: the sum of their _lane_table rows holds
    A's blocks, so Z(A) is one sum and one XOR, then one AND per divisor."""
    rows, width, masks = _lane_table(ctx.n, len(elements).bit_length())
    s = sum(map(rows.__getitem__, elements))
    diff = s ^ s >> width  # FP ^ FQ in the low width bits
    return ZeroSet(ctx, frozenset([d for d, mask in masks if not diff & mask]))


def zero_set(a: MaskMultiset) -> ZeroSet:
    """All divisors d > 1 of N with Phi_d | A (equivalently A(zeta_d) = 0).

    This is the one place Z(A) of a multiset is computed, by _lane_blocks
    with no table: d vanishes iff its two blocks agree.  The result is
    stored on the multiset itself, which is frozen, so it can never go
    stale; every later call on the same instance returns the same ZeroSet
    object.
    """
    za = a.__dict__.get("_zero_set")
    if za is None:
        if a.is_empty():
            raise DomainError("zero set of the empty multiset is undefined")
        terms = [(x, a.coeffs[x]) for x in a.support()]
        blocks = _lane_blocks(a.n, terms, a.mass().bit_length())
        za = ZeroSet(a.ctx, frozenset([d for d, p, q in blocks if p == q]))
        object.__setattr__(a, "_zero_set", za)
    return za


def vanishes_at_power(a: MaskMultiset, m: int) -> bool:
    """Whether A(zeta_N^m) = 0, read from Z(A) (order 1 is the mass); the
    empty multiset, on which zero_set() raises, vanishes everywhere."""
    return a.is_empty() or zero_set(a).contains(m)


# ---------------------------------------------------------------------------
# multiset transforms


def dilate(a: MaskMultiset, m: int) -> MaskMultiset:
    """The multiset m.A with 1_{m.A}(x) = sum of multiplicities over {a : ma = x}.

    Mass is preserved; for m coprime to N this is a permutation of Z_N and the
    mask polynomial satisfies A(X^m) = (m.A)(X) mod X^N - 1.
    """
    n = a.n
    m %= n
    out = [0] * n
    for i in a.support():
        out[i * m % n] += a.coeffs[i]
    return MaskMultiset(a.ctx, tuple(out))


def restrict_class(a: MaskMultiset, j: int, m: int) -> MaskMultiset:
    """The sub-multiset of entries congruent to j mod m, for m | N."""
    n = a.n
    if m < 1 or n % m != 0:
        raise DomainError(f"{m} does not divide the group order {n}")
    j %= m
    out = tuple(c if i % m == j else 0 for i, c in enumerate(a.coeffs))
    return MaskMultiset(a.ctx, out)


def difference_set(a: MaskMultiset) -> frozenset:
    """A - A over the support of a proper set; contains 0, closed under negation."""
    if not a.is_proper():
        raise DomainError("difference set is defined for proper sets only")
    n = a.n
    supp = a.support()
    return frozenset({(x - y) % n for x in supp for y in supp})


def difference_orders(a: MaskMultiset) -> set:
    """The orders N/gcd(x - y, N) of the differences of supp A, y < x (so
    x - y needs no mod; y - x has the same order)."""
    order = _order_table(a.n)
    supp = a.support()
    return {order[x - y] for i, x in enumerate(supp) for y in supp[:i]}


# ---------------------------------------------------------------------------
# products in Z[X]/(X^N - 1)


def _nonnegative(ctx: GroupContext, coeffs: tuple) -> MaskMultiset:
    """A multiset from a length-N tuple that is nonnegative by construction (a
    product of multisets), without __post_init__'s O(N) scan."""
    a = object.__new__(MaskMultiset)
    a.__dict__.update(ctx=ctx, coeffs=coeffs)
    return a


def phi_of_power(s: int, t: int, ctx: GroupContext) -> MaskMultiset:
    """Mask multiset of Phi_s(X^t) mod X^N - 1; raises if a coefficient is negative."""
    n = ctx.n
    out = [0] * n
    coeffs = cyclotomic(s).coeffs
    for i, c in enumerate(coeffs):
        if c:
            out[(i * t) % n] += c
    # the fold can leave a negative coefficient only if Phi_s has one
    if min(coeffs) < 0 and min(out) < 0:
        raise InvariantViolation(f"Phi_{s}(X^{t}) not nonnegative mod X^{n}-1")
    return _nonnegative(ctx, tuple(out))


def cyclic_product(a: MaskMultiset, b: MaskMultiset) -> MaskMultiset:
    """A(X)B(X) mod X^N - 1 as a multiset (convolution over Z_N).

    Loops over the nonzero terms of both operands, so it costs
    O(N + |supp A| * |supp B|) and is exact for any multiplicities.
    """
    if a.ctx.n != b.ctx.n:
        raise DomainError("operands live in different groups")
    n = a.n
    out = [0] * n
    b_terms = [(j, b.coeffs[j]) for j in compress(range(n), b.coeffs)]
    for i in compress(range(n), a.coeffs):
        ci = a.coeffs[i]
        for j, cj in b_terms:
            out[(i + j) % n] += ci * cj
    return _nonnegative(a.ctx, tuple(out))


def phi_product(base: MaskMultiset, factors) -> MaskMultiset:
    """base(X) * prod of Phi_s(X^t) over the (s, t) pairs in factors, mod X^N - 1."""
    for s, t in factors:
        base = cyclic_product(base, phi_of_power(s, t, base.ctx))
    return base


def is_full_group_product(a: MaskMultiset, b: MaskMultiset) -> bool:
    """Exact test A(X)B(X) = 1 + X + ... + X^{N-1} mod X^N - 1.

    The product's coefficients sum to |A| * |B|, so that mass must be N;
    then |supp A| * |supp B| <= N and the product costs O(N).
    """
    if a.ctx.n != b.ctx.n:
        raise DomainError("operands live in different groups")
    n = a.n
    return a.mass() * b.mass() == n and cyclic_product(a, b).coeffs == (1,) * n
