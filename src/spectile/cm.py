"""Structure conditions on prime-power roots and the constructions they power.

For a set A in Z_N, S_A collects the prime powers s | N with A(zeta_s) = 0.
Two arithmetic conditions on S_A control everything here:

  (T1)  |A| equals the product of Phi_s(1) over s in S_A
        (each factor is the prime under s);
  (T2)  for prime powers s_1, ..., s_k in S_A of pairwise distinct primes,
        Phi_{s_1 ... s_k} divides A.

Sets satisfying both admit an explicit tiling complement and an explicit
spectrum, built below; every construction verifies its own output before
returning and raises InvariantViolation if the check fails, because a failure
would mean a bug rather than bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import DomainError, InvariantViolation, PreconditionError
from .zn import (
    MaskMultiset,
    dilate,
    group,
    is_full_group_product,
    phi_product,
    restrict_class,
    vanishes_at,
    zero_set,
)


@dataclass(frozen=True)
class PrimePowerRecord:
    """S_A restricted to prime powers, plus the per-prime exponent views."""

    ctx: object
    s_a: frozenset
    by_prime: dict  # prime p -> frozenset of exponents x with p^x in s_a

    def exponents(self, p):
        return self.by_prime.get(p, frozenset())


@dataclass(frozen=True)
class CmReport:
    t1_holds: bool
    t2_holds: bool
    t1_lhs: int
    t1_rhs: int
    t2_witness: int | None
    s_a: frozenset

    @property
    def ok(self):
        return self.t1_holds and self.t2_holds

    def to_json(self):
        return {
            "t1": self.t1_holds,
            "t2": self.t2_holds,
            "t1_lhs": self.t1_lhs,
            "t1_rhs": self.t1_rhs,
            "t2_witness": self.t2_witness,
            "s_a": sorted(self.s_a),
        }


def _require_proper_nonempty(a: MaskMultiset):
    if a.is_empty():
        raise PreconditionError("set must be nonempty")
    if not a.is_proper():
        raise PreconditionError("operation requires a proper set")


def sa_record(a: MaskMultiset) -> PrimePowerRecord:
    """Prime powers s | N with A(zeta_s) = 0, derived from the zero set."""
    _require_proper_nonempty(a)
    vd = zero_set(a).vanishing_divisors
    s_a = frozenset(s for s in a.ctx.prime_powers if s in vd)
    by_prime = {}
    for p, e in a.ctx.factorization:
        by_prime[p] = frozenset(x for x in range(1, e + 1) if p**x in s_a)
    return PrimePowerRecord(a.ctx, s_a, by_prime)


def check_t1t2(a: MaskMultiset) -> CmReport:
    """Evaluate (T1) and (T2) for a proper set.

    T2 is checked over all products of pairwise-coprime prime powers drawn
    from S_A (one per prime, at least two primes), enumerated by increasing
    value; the first failing product is recorded as the witness.  Both
    conditions read only the signature (N, |A|, Z(A)), so the report is
    memoised on it; what runs per set is the properness check and Z(A).
    """
    _require_proper_nonempty(a)
    return _structure_report(a.n, a.mass(), zero_set(a).vanishing_divisors)


@lru_cache(maxsize=1 << 12)
def _structure_report(n, size, vanishing_divisors) -> CmReport:
    ctx = group(n)
    s_a = frozenset(s for s in ctx.prime_powers if s in vanishing_divisors)
    # Phi_{p^x}(1) = p, so each p-power in S_A puts one p into the T1 product
    t1_rhs = 1
    groups = []
    for p, e in ctx.factorization:
        g = [p**x for x in range(1, e + 1) if p**x in s_a]
        t1_rhs *= p ** len(g)
        if g:
            groups.append(g)
    t2_witness = None
    candidates = []
    for r in range(2, len(groups) + 1):
        for chosen in combinations(groups, r):
            for picks in product(*chosen):
                candidates.append(math.prod(picks))
    for s in sorted(candidates):
        if s not in vanishing_divisors:
            t2_witness = s
            break
    return CmReport(
        t1_holds=(size == t1_rhs),
        t2_holds=(t2_witness is None),
        t1_lhs=size,
        t1_rhs=t1_rhs,
        t2_witness=t2_witness,
        s_a=s_a,
    )


def build_tiling_complement_cm(a: MaskMultiset) -> MaskMultiset:
    """Explicit tiling complement T(X) = prod over missing prime powers s of Phi_s(X^{N_s}).

    N_s is the maximal divisor of N coprime to s.  Requires (T1) and (T2);
    the product identity A(X)T(X) = 1 + X + ... + X^{N-1} is checked before
    the complement is returned.
    """
    report = check_t1t2(a)
    if not report.ok:
        raise PreconditionError(f"set fails T1/T2: {report.to_json()}")
    ctx = a.ctx
    n = ctx.n
    missing = [(p**x, n // p**e) for p, e in ctx.factorization
               for x in range(1, e + 1) if p**x not in report.s_a]
    t = phi_product(MaskMultiset.from_elements(ctx, [0]), missing)
    if not t.is_proper():
        raise InvariantViolation("constructed complement is not a proper set")
    if not is_full_group_product(a, t):
        raise InvariantViolation("constructed complement fails the product identity")
    return t


def build_laba_spectrum(a: MaskMultiset) -> MaskMultiset:
    """The explicit spectrum: all sums over s = p^x in S_A of k_s * N/s, 0 <= k_s < p.

    Distinct digit choices give distinct residues, so |B| equals the T1
    product; the spectrum property (all nonzero differences of B lie in the
    zero set of A) is verified before returning.
    """
    report = check_t1t2(a)
    if not report.ok:
        raise PreconditionError(f"set fails T1/T2: {report.to_json()}")
    ctx = a.ctx
    n = ctx.n
    digits = [(p, n // p**x) for p, e in ctx.factorization
              for x in range(1, e + 1) if p**x in report.s_a]
    elems = set()
    for picks in product(*(range(p) for p, _ in digits)):
        elems.add(sum(k * step for k, (_, step) in zip(picks, digits)) % n)
    if len(elems) != report.t1_rhs or len(elems) != a.mass():
        raise InvariantViolation("spectrum construction lost elements")
    b = MaskMultiset.from_elements(ctx, sorted(elems))
    _assert_spectrum_of(a, b)
    return b


def _assert_spectrum_of(a: MaskMultiset, b: MaskMultiset):
    za = zero_set(a)
    supp = b.support()
    for i, x in enumerate(supp):
        for y in supp[:i]:
            if not za.contains(x - y):
                raise InvariantViolation(
                    f"constructed spectrum has bad difference {x}-{y} mod {a.n}"
                )
    if a.mass() != b.mass():
        raise InvariantViolation("constructed spectrum has wrong cardinality")


def tiling_implies_spectral(a: MaskMultiset, t: MaskMultiset):
    """Certify that a tile satisfies (T1)/(T2) and hand back its spectrum.

    Follows the reduction for orders with at most one repeated prime: with M
    the largest divisor of |A| coprime to that prime, M.T is again a proper
    complement of A (checked), which forces the structure conditions; the
    explicit spectrum is then built.  Returns (CmReport, spectrum).
    """
    ctx = a.ctx
    if ctx.n != t.ctx.n:
        raise DomainError("tile and complement live in different groups")
    repeated = [p for p, e in ctx.factorization if e > 1]
    if len(repeated) > 1:
        raise DomainError(
            f"order {ctx.n} has two repeated primes; this reduction needs at most one"
        )
    _require_proper_nonempty(a)
    _require_proper_nonempty(t)
    if not is_full_group_product(a, t):
        raise PreconditionError("input is not a tiling pair")
    p1 = repeated[0] if repeated else None
    m_div = a.mass()
    if p1 is not None:
        while m_div % p1 == 0:
            m_div //= p1
    t_dilated = dilate(t, m_div)
    if not t_dilated.is_proper():
        raise InvariantViolation("dilated complement is not a proper set")
    if not is_full_group_product(a, t_dilated):
        raise InvariantViolation("dilated complement fails the product identity")
    report = check_t1t2(a)
    if not report.ok:
        raise InvariantViolation(
            f"tile fails T1/T2 against the tiling-implies-spectral guarantee: {report.to_json()}"
        )
    return report, build_laba_spectrum(a)


def _verified_spectral_input(a: MaskMultiset, b: MaskMultiset):
    # local import keeps the dependency one-way at module load
    from .pairs import verify_spectral_pair

    res = verify_spectral_pair(a, b)
    if not res.ok:
        raise PreconditionError(f"(A,B) is not a spectral pair: {res.reason}")
    return res.pair


def nopq_complement(a: MaskMultiset, b: MaskMultiset) -> MaskMultiset:
    """Tiling complement for a spectral set whose size misses one of the primes.

    For N = p^m q^n and a verified spectral pair (A, B) with pq not dividing
    |A| (roles of p and q swapped so that q does not divide |A|), the set
    R = {r in [1, m] : Phi_{p^r q^k} | A for some 0 <= k <= n} determines the
    complement (sum of X^{p^m s}) * prod_{r not in R} Phi_{p^r}(X), which is
    verified as a tiling complement before being returned.
    """
    ctx = a.ctx
    p, m, q, n_exp = ctx.prime_pair()
    _verified_spectral_input(a, b)
    size = a.mass()
    if size % q != 0:
        pass
    elif size % p != 0:
        p, m, q, n_exp = q, n_exp, p, m
    else:
        raise PreconditionError(f"pq = {p * q} divides |A| = {size}")
    n = ctx.n
    vd = zero_set(a).vanishing_divisors
    unreached = [(p**r, 1) for r in range(1, m + 1)
                 if not any(p**r * q**k in vd for k in range(n_exp + 1))]
    comp = MaskMultiset.from_elements(ctx, [(p**m) * s % n for s in range(q**n_exp)])
    comp = phi_product(comp, unreached)
    if not comp.is_proper():
        raise InvariantViolation("complement construction produced a non-proper set")
    if not is_full_group_product(a, comp):
        raise InvariantViolation("complement construction fails the product identity")
    return comp


def maxpower_check(a: MaskMultiset, b: MaskMultiset) -> CmReport:
    """Certify T1/T2 for a spectral set whose size carries a full prime power.

    For N = p^m q^n with p^m | |A| (or q^n | |A|, roles swapped), walks the
    class-size counting argument: every class of A and of B mod p^m has size
    exactly q^k with k = |S_B(q)|, A vanishes on every p-power, and S_A pairs
    the q-exponents of S_B through s_i + n_i = n + 1.  Each step is recomputed
    here and cross-checked against check_t1t2; a mismatch raises.
    """
    ctx = a.ctx
    p, m, q, n_exp = ctx.prime_pair()
    _verified_spectral_input(a, b)
    size = a.mass()
    if size % (p**m) == 0:
        pass
    elif size % (q**n_exp) == 0:
        p, m, q, n_exp = q, n_exp, p, m
    else:
        raise PreconditionError(
            f"neither {p}^{m} nor {q}^{n_exp} divides |A| = {size}"
        )
    sb = sa_record(b)
    n_is = sorted(sb.exponents(q))
    k = len(n_is)
    if size % (p**m * q**k) != 0:
        raise InvariantViolation("size fails forced divisibility by p^m q^k")
    for j in range(p**m):
        if restrict_class(a, j, p**m).mass() != q**k:
            raise InvariantViolation(f"class {j} mod {p}^{m} of A has wrong size")
    for x in range(1, m + 1):
        if not vanishes_at(a, p**x):
            raise InvariantViolation(f"A(zeta_{p**x}) expected to vanish")
        if not vanishes_at(b, p**x):
            raise InvariantViolation(f"B(zeta_{p**x}) expected to vanish")
    for j in range(p**m):
        if restrict_class(b, j, p**m).mass() != q**k:
            raise InvariantViolation(f"class {j} mod {p}^{m} of B has wrong size")
    sa = sa_record(a)
    expected_q = frozenset(n_exp - ni + 1 for ni in n_is)
    if sa.exponents(q) != expected_q:
        raise InvariantViolation("q-exponents of S_A do not mirror those of S_B")
    if sa.exponents(p) != frozenset(range(1, m + 1)):
        raise InvariantViolation("p-exponents of S_A are not the full range")
    vd = zero_set(a).vanishing_divisors
    for ell in range(1, m + 1):
        for s in expected_q:
            if p**ell * q**s not in vd:
                raise InvariantViolation(
                    f"A(zeta) expected to vanish at order {p**ell * q**s}"
                )
    report = check_t1t2(a)
    if not report.ok:
        raise InvariantViolation(
            f"direct T1/T2 check disagrees with the counting argument: {report.to_json()}"
        )
    return report
