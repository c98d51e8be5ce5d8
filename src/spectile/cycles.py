"""Vanishing sums of roots of unity over two-prime orders.

For N = p^m q^n, a nonnegative integer combination of N-th roots of unity
vanishes exactly when the underlying multiset is a disjoint union of p-cycles
and q-cycles (cosets of the subgroups of order p and q).  The decomposition
witness is a pair of base-point multisets (P, Q) with

    A(X) = P(X) Phi_p(X^{N/p}) + Q(X) Phi_q(X^{N/q})   mod X^N - 1,

both with nonnegative coefficients.  The decomposition is not unique; the
contract everywhere is "any witness satisfying the identity".

Hypotheses and preconditions read the stored Z(A) (vanishes_at_power) and
build no dilate: (m.A)(zeta_N) = A(zeta_N^m).  Only the self-check on an
empty cycle part calls vanishes_at, which must not trust the stored value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub

from .errors import DomainError, InvariantViolation, PreconditionError
from .zn import MaskMultiset, phi_product, restrict_class, vanishes_at, vanishes_at_power


@dataclass(frozen=True)
class CycleDecomposition:
    p_part: MaskMultiset
    q_part: MaskMultiset
    prime_p: int
    prime_q: int

    def to_json(self):
        return {"p_part": list(self.p_part.coeffs), "q_part": list(self.q_part.coeffs)}

    def recompose(self) -> MaskMultiset:
        """Expand the cycle parts: P(X) Phi_p(X^{N/p}) + Q(X) Phi_q(X^{N/q})."""
        n = self.p_part.n
        p = phi_product(self.p_part, [(self.prime_p, n // self.prime_p)])
        q = phi_product(self.q_part, [(self.prime_q, n // self.prime_q)])
        return MaskMultiset(p.ctx, tuple(map(add, p.coeffs, q.coeffs)))


def lam_leung_decompose(a: MaskMultiset) -> CycleDecomposition:
    """Split a vanishing multiset into p- and q-cycles in closed form, O(N).

    With M = N/pq, the powers 1, zeta_N, ..., zeta_N^(M-1) are a basis of
    Q(zeta_N) over Q(zeta_pq) (rad N = pq), so A(zeta_N) = 0 forces the sum
    over every coset j + M Z_N to vanish on its own.  On a coset, with
    h in Z_pq read as (u, v) = (h mod p, h mod q), the coefficients form an
    array c(u, v) = r_v + s_u (de Bruijn): r_v counts the p-cycle of residue
    v mod q and s_u the q-cycle of residue u mod p.  Shifting r by its
    minimum makes both parts nonnegative, with no search.  The split is not
    unique; this one puts as little as possible on p-cycles.
    """
    ctx = a.ctx
    p, _m, q, _n = ctx.prime_pair()
    n = ctx.n
    if not vanishes_at_power(a, 1):
        raise PreconditionError("multiset does not vanish at a primitive root")
    pq = p * q
    m = n // pq
    # entry j + m h of A, for h in Z_pq, is entry j of row[h]
    row = [a.coeffs[m * h : m * h + m] for h in range(pq)]
    r = [row[v * p * pow(p, -1, q) % pq] for v in range(q)]  # (0, v) -> h
    shift = list(map(min, *r))
    p_bases, q_bases = [], []
    for r_v in r:
        p_bases += map(sub, r_v, shift)
    for u in range(p):  # (u, 0) -> h
        q_bases += map(add, map(sub, row[u * q * pow(q, -1, p) % pq], r[0]), shift)
    dec = CycleDecomposition(
        MaskMultiset(ctx, tuple(p_bases) + (0,) * (n - q * m)),
        MaskMultiset(ctx, tuple(q_bases) + (0,) * (n - p * m)),
        p,
        q,
    )
    if dec.recompose().coeffs != a.coeffs:
        raise InvariantViolation("cycle decomposition does not recompose")
    # The nonzero-part clause is automatic: a decomposition with P = 0 forces
    # A(zeta_N^{p^k}) = 0 for every k, so a surviving dilation root certifies
    # P != 0 in any witness.  Checked defensively all the same.
    for prime, part, mexp in ((p, dec.p_part, _m), (q, dec.q_part, _n)):
        if part.is_empty():
            for k in range(1, mexp + 1):
                if not vanishes_at(a, n // math.gcd(prime**k, n)):
                    raise InvariantViolation(
                        "empty cycle part contradicts a surviving dilation root"
                    )
    return dec


def is_cycle_union(a: MaskMultiset, r: int) -> bool:
    """Whether the multiset is a union of r-cycles: invariance under +N/r."""
    ctx = a.ctx
    if r not in ctx.primes:
        raise DomainError(f"{r} is not a prime divisor of {ctx.n}")
    step = ctx.n // r
    return all(a.coeffs[i] == a.coeffs[(i + step) % ctx.n] for i in range(ctx.n))


def ma_lemma_check(a: MaskMultiset, p: int) -> bool:
    """Hypothesis test for the full-power vanishing criterion.

    Returns whether A(zeta_d) = 0 for every divisor d of N that is a multiple
    of the maximal power p^m || N.  When the hypothesis holds, the multiset is
    asserted to be a union of p-cycles (guaranteed for nonnegative
    coefficients); an assertion failure is a bug.
    """
    ctx = a.ctx
    m = ctx.valuation(p)
    if m == 0:
        raise DomainError(f"{p} does not divide {ctx.n}")
    pm = p**m
    hypothesis = all(vanishes_at_power(a, ctx.n // d) for d in ctx.divisors if d % pm == 0)
    if hypothesis and not a.is_empty() and not is_cycle_union(a, p):
        raise InvariantViolation("full-power vanishing did not force a p-cycle union")
    return hypothesis


def preroothunt_check(a: MaskMultiset):
    """Look for a class mod N/pq not supported on a single p- or q-cycle.

    Returns a witness pair (x, y) of elements of A with x - y of order pq
    (gcd exactly N/pq) when some class j + (N/pq)Z_N is spread over several
    cycles, and None when every class sits inside one cycle.
    """
    ctx = a.ctx
    p, _m, q, _n = ctx.prime_pair()
    n = ctx.n
    d = n // (p * q)
    for j in range(d):
        cls = restrict_class(a, j, d) if d > 1 else a
        supp = cls.support()
        # a class inside one p- or q-cycle: all its elements agree mod N/p or N/q
        if any(all((x - supp[0]) % step == 0 for x in supp) for step in (n // p, n // q)):
            continue
        for x in supp:
            for y in supp:
                if math.gcd((x - y) % n, n) == d:
                    return (x, y)
        raise InvariantViolation(
            "spread class without a difference of order pq; this is a bug"
        )
    return None


def roothunt_check(a: MaskMultiset, d: int):
    """Divisor-hunting step: a dilation collapse plus a surviving root yields
    a difference of order pqd.

    Hypothesis: d | N/q, the multiset (qd).A is a union of p-cycles, and
    A(zeta_N^d) != 0.  B is a union of p-cycles iff Phi_p(X^{N/p}) | B, i.e.
    iff B vanishes at every order e | N with p^m | e; for B = (qd).A these are
    the A(zeta_N^{d q^j}), 1 <= j <= n + 1.  When it holds, returns pqd after
    verifying that A - A meets the divisor class (N/pqd) Z_N^*; returns None
    when it fails.
    """
    ctx = a.ctx
    p, _m, q, _n = ctx.prime_pair()
    n = ctx.n
    if d < 1 or (n // q) % d != 0:
        raise DomainError(f"{d} does not divide N/q = {n // q}")
    if not all(vanishes_at_power(a, d * q**j) for j in range(1, _n + 2)):
        return None
    if vanishes_at_power(a, d):
        return None
    pqd = p * q * d
    if n % pqd != 0:
        raise InvariantViolation(
            "hypothesis held although pqd does not divide N; this is a bug"
        )
    target = n // pqd
    supp = a.support()
    if not any(math.gcd(x - y, n) == target for x in supp for y in supp):
        raise InvariantViolation(
            "no difference of the predicted order despite a true hypothesis"
        )
    return pqd

