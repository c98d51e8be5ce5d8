"""Verification and diagnostics for spectral and tiling pairs.

Verification is data, not control flow: candidate pairs stream out of the
survey, and a failed check is an ordinary classification outcome.  The
verifiers therefore return result objects carrying the violating witness.
Each verifier also runs its two equivalent formulations side by side (zero-set
membership against root-order vanishing for spectra; every divisor d > 1 of N
in Z(A) or Z(T) against the polynomial product for tilings) and raises
InvariantViolation if they ever disagree, since that would mean the arithmetic
core is broken.  A failed tiling check still names the least nonzero
difference the two members share.

The diagnostic operations (root profiles, absorption classification, deficit
bounds, the pattern-symmetry panel) are reporters: several of the relations
they compute are theorems only under hypotheses that no desk-scale group can
satisfy, so violations on ordinary pairs are expected and reported, never
asserted.  A genuine counterexample candidate is precisely a pair that passes
all of them.

The reporters, the weak structure checks and the absorption hypothesis ask
only whether a member vanishes at roots of unity, so they read its stored
zero set: A(zeta_N^m) = 0 iff the order N/gcd(m, N) is a vanishing divisor
(vanishes_at_power, which also answers for the empty multiset).  vanishes_at
stays only where independence is the point: route two of spectral_routes and
the final self-check of extend_pair, which must not trust the stored value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvariantViolation, PreconditionError
from .zn import (
    GroupContext,
    MaskMultiset,
    difference_orders,
    difference_set,
    dilate,
    is_full_group_product,
    phi_product,
    restrict_class,
    vanishes_at,
    vanishes_at_power,
    zero_set,
)


@dataclass(frozen=True)
class SpectralPair:
    a: MaskMultiset
    b: MaskMultiset

    @property
    def ctx(self):
        return self.a.ctx


@dataclass(frozen=True)
class TilingPair:
    a: MaskMultiset
    t: MaskMultiset

    @property
    def ctx(self):
        return self.a.ctx


@dataclass(frozen=True)
class PairCheck:
    """The verdict of verify_spectral_pair or verify_tiling_pair."""

    ok: bool
    pair: SpectralPair | TilingPair | None
    reason: str | None = None
    witness: tuple | None = None

    def to_json(self):
        return {"ok": self.ok, "reason": self.reason, "witness": self.witness}


def _require_pair_input(x: MaskMultiset, y: MaskMultiset):
    if x.ctx.n != y.ctx.n:
        raise DomainError("pair members live in different groups")
    for s in (x, y):
        if s.is_empty():
            raise PreconditionError("pair members must be nonempty")
        if not s.is_proper():
            raise PreconditionError("pair members must be proper sets")


def spectral_routes(a: MaskMultiset, b: MaskMultiset):
    """Both spectral criteria: (zero-set route, root-order route, witness).

    Z(A) is a union of divisor classes, so both read only the orders of B's
    differences: route one tests them against the stored vanishing divisors,
    route two by exact division (vanishes_at).  The witness, the first pair
    of B with its difference outside Z(A), is searched only if route one fails.
    """
    _require_pair_input(a, b)
    za = zero_set(a)
    orders = difference_orders(b)
    route1 = orders <= za.vanishing_divisors
    route2 = all(vanishes_at(a, d) for d in orders)
    witness = None
    if not route1:
        supp = b.support()
        witness = next((x, y) for i, x in enumerate(supp) for y in supp[:i] if not za.contains(x - y))
    return route1, route2, witness


def verify_spectral_pair(a: MaskMultiset, b: MaskMultiset) -> PairCheck:
    """Decide whether (A, B) is a spectral pair; failures carry a witness.

    Orthogonality is decided entirely through exact vanishing tests, never
    through numeric exponential sums.
    """
    _require_pair_input(a, b)
    if a.mass() != b.mass():
        return PairCheck(
            False, None, reason="cardinality", witness=(a.mass(), b.mass())
        )
    route1, route2, witness = spectral_routes(a, b)
    if route1 != route2:
        raise InvariantViolation(
            "zero-set and root-order spectral criteria disagree; arithmetic bug"
        )
    if not route1:
        return PairCheck(False, None, reason="difference", witness=witness)
    return PairCheck(True, SpectralPair(a, b))


def tiling_routes(a: MaskMultiset, t: MaskMultiset):
    """Both tiling criteria given |A||T| = N: (zero-set route, product identity, witness).

    Route one asks that every divisor d > 1 of N lie in Z(A) or Z(T), read
    from the stored zero sets; route two multiplies A(X)T(X) mod X^N - 1.
    The witness, the least nonzero difference shared by A and T, is searched
    only if route one fails, so a tiling pair builds no difference set.
    """
    _require_pair_input(a, t)
    covered = zero_set(a).vanishing_divisors | zero_set(t).vanishing_divisors
    route1 = covered.issuperset(a.ctx.divisors[1:])
    route2 = is_full_group_product(a, t)
    witness = None
    if not route1:
        shared = (difference_set(a) & difference_set(t)) - {0}
        witness = min(shared) if shared else None
    return route1, route2, witness


def verify_tiling_pair(a: MaskMultiset, t: MaskMultiset) -> PairCheck:
    """Decide whether (A, T) tiles Z_N, cross-checking both formulations."""
    card_ok = a.mass() * t.mass() == a.n
    route1, route2, witness = tiling_routes(a, t)  # validates the inputs
    if (card_ok and route1) != route2:
        raise InvariantViolation(
            "zero-set and product tiling criteria disagree; arithmetic bug"
        )
    if not card_ok:
        return PairCheck(
            False, None, reason="cardinality", witness=(a.mass(), t.mass())
        )
    if not route1:
        return PairCheck(False, None, reason="shared_difference", witness=witness)
    return PairCheck(True, TilingPair(a, t))


def scale_spectrum(pair: SpectralPair, m: int) -> SpectralPair:
    """(A, mB) for a unit m; the scaled pair is re-verified before returning."""
    n = pair.ctx.n
    if math.gcd(m, n) != 1:
        raise DomainError(f"{m} is not a unit mod {n}")
    res = verify_spectral_pair(pair.a, dilate(pair.b, m))
    if not res.ok:
        raise InvariantViolation("unit scaling broke a verified spectral pair")
    return res.pair


def is_primitive(s: MaskMultiset) -> bool:
    """Not contained in a coset of a proper subgroup.

    Every proper subgroup of Z_N lies in a maximal one, pZ_N for a prime p | N,
    so it suffices to test whether the support sits in one coset of some pZ_N.
    This holds for every N; Z_1 has no proper subgroup.
    """
    if s.is_empty():
        raise PreconditionError("primitivity of the empty set is undefined")
    if not s.is_proper():
        raise PreconditionError("primitivity is defined for proper sets")
    supp = s.support()
    return not any(all((x - supp[0]) % p == 0 for x in supp) for p in s.ctx.primes)


# ---------------------------------------------------------------------------
# absorption / equidistribution


@dataclass(frozen=True)
class AbsorptionReport:
    d: int
    p: int
    verdicts: tuple  # one ("absorbed", k) / ("equidistributed", None) / ("neither", None) per class i mod d
    k_sets: dict     # prime -> K_prime of the classified set
    hypothesis_held: bool

    def to_json(self):
        return {
            "d": self.d,
            "p": self.p,
            "verdicts": [
                {"class": i, "verdict": v, "k": k}
                for i, (v, k) in enumerate(self.verdicts)
            ],
            "k_sets": {str(p): sorted(ks) for p, ks in self.k_sets.items()},
            "hypothesis_held": self.hypothesis_held,
        }


def _class_verdict(b: MaskMultiset, i: int, d: int, p: int):
    sizes = [restrict_class(b, i + k * d, p * d).mass() for k in range(p)]
    total = sum(sizes)
    if total == 0:
        return ("equidistributed", None)
    nonzero = [k for k, sz in enumerate(sizes) if sz]
    if len(nonzero) == 1 and sizes[nonzero[0]] == total:
        return ("absorbed", nonzero[0])
    if total % p == 0 and all(sz == total // p for sz in sizes):
        return ("equidistributed", None)
    return ("neither", None)


def k_set(b: MaskMultiset, p: int) -> frozenset:
    """K_p(B): levels k where every class mod p^k is absorbed mod p^{k+1}."""
    ctx = b.ctx
    m = ctx.valuation(p)
    if m == 0:
        raise DomainError(f"{p} does not divide {ctx.n}")
    supp = b.support()
    out = set()
    for k in range(m):
        pk, pk1 = p**k, p ** (k + 1)
        seen = {}
        good = True
        for x in supp:
            r = x % pk
            r1 = x % pk1
            if seen.setdefault(r, r1) != r1:
                good = False
                break
        if good:
            out.add(k)
    return frozenset(out)


def classify_absorption(
    b: MaskMultiset, d: int, p: int, a: MaskMultiset | None = None
) -> AbsorptionReport:
    """Per-class absorbed / equidistributed / neither verdicts mod pd.

    When a partner set of a verified spectral pair is supplied and the
    conditional hypothesis A(zeta_N^d) B(zeta_{pd}) != 0 = B(zeta_{pqd})
    holds (d | N/pq), the dichotomy is asserted: no class may be "neither"
    and at least one nonempty class must be absorbed.
    """
    ctx = b.ctx
    n = ctx.n
    if p not in ctx.primes:
        raise DomainError(f"{p} is not a prime divisor of {n}")
    if d < 1 or n % (p * d) != 0:
        raise DomainError(f"pd = {p * d} does not divide {n}")
    if a is not None and a.n != n:
        raise DomainError("pair members live in different groups")
    verdicts = tuple(_class_verdict(b, i, d, p) for i in range(d))
    k_sets = {pr: k_set(b, pr) for pr in ctx.primes}
    hypothesis = False
    if a is not None and len(ctx.factorization) == 2:
        pp, _m, qq, _n = ctx.prime_pair()
        q = qq if p == pp else pp
        if n % (p * q * d) == 0 and (n // (p * q)) % d == 0:
            hypothesis = (
                not vanishes_at_power(a, d)
                and not vanishes_at_power(b, n // (p * d))
                and vanishes_at_power(b, n // (p * q * d))
            )
    if hypothesis:
        if any(v == "neither" for v, _ in verdicts):
            raise InvariantViolation("absorption dichotomy failed under a true hypothesis")
        absorbed_nonempty = any(
            v == "absorbed" and restrict_class(b, i, d).mass() > 0
            for i, (v, _) in enumerate(verdicts)
        )
        if not absorbed_nonempty:
            raise InvariantViolation("no absorbed class under a true hypothesis")
    return AbsorptionReport(d, p, verdicts, k_sets, hypothesis)


def extend_pair(pair: SpectralPair, p: int, k: int) -> SpectralPair:
    """Push a fully absorbed level into a strictly larger verified pair.

    Requires k in K_p(B).  The set gains the factor Phi_{p^{m-k}}(X^{q^n})
    and the spectrum the factor Phi_{p^{k+1}}(X^{q^n}); both products must
    come out as genuine direct sums (0/1 coefficients) and the result must
    re-verify, with the new spectrum vanishing at zeta_{p^{k+1}}.
    """
    ctx = pair.ctx
    ctx.prime_pair()
    m = ctx.valuation(p)
    if m == 0:
        raise DomainError(f"{p} does not divide {ctx.n}")
    if k not in k_set(pair.b, p):
        raise PreconditionError(f"level {k} is not fully absorbed in the spectrum")
    other = ctx.n // p**m
    new_a = phi_product(pair.a, [(p ** (m - k), other)])
    new_b = phi_product(pair.b, [(p ** (k + 1), other)])
    if not new_a.is_proper() or not new_b.is_proper():
        raise InvariantViolation("extension is not a direct sum")
    if new_a.mass() != pair.a.mass() * p or new_b.mass() != pair.b.mass() * p:
        raise InvariantViolation("extension changed the mass incorrectly")
    res = verify_spectral_pair(new_a, new_b)
    if not res.ok:
        raise InvariantViolation("extended pair failed re-verification")
    if not vanishes_at(new_b, p ** (k + 1)):
        raise InvariantViolation("extended spectrum kept a root it must lose")
    return res.pair


def absorption_free_closure(pair: SpectralPair) -> SpectralPair:
    """Extend until no absorption level remains in either member.

    Applies the whole-level extension for the first nonempty absorption set,
    spectrum side before set side and the first prime before the second,
    recomputing after every step.  The number of rounds is capped by the sum
    of the two exponents; overrunning the cap means a bug.
    """
    ctx = pair.ctx
    p, m, q, n_exp = ctx.prime_pair()
    cur = pair
    for _ in range(m + n_exp + 1):
        pending = None
        for member, prime in (("b", p), ("b", q), ("a", p), ("a", q)):
            ks = k_set(getattr(cur, member), prime)
            if ks:
                pending = (member, prime, ks)
                break
        if pending is None:
            return cur
        member, prime, ks = pending
        mv = ctx.valuation(prime)
        other = ctx.n // prime**mv
        grow_set = [(prime ** (mv - k), other) for k in sorted(ks)]
        grow_spec = [(prime ** (k + 1), other) for k in sorted(ks)]
        if member == "a":
            grow_set, grow_spec = grow_spec, grow_set
        new_a = phi_product(cur.a, grow_set)
        new_b = phi_product(cur.b, grow_spec)
        if not new_a.is_proper() or not new_b.is_proper():
            raise InvariantViolation("closure step is not a direct sum")
        res = verify_spectral_pair(new_a, new_b)
        if not res.ok:
            raise InvariantViolation("closure step failed re-verification")
        cur = res.pair
    raise InvariantViolation("absorption closure exceeded its round cap")


# ---------------------------------------------------------------------------
# root profiles, deficits, pattern symmetry


@dataclass(frozen=True)
class MemberProfile:
    s_p: frozenset
    s_q: frozenset
    r_p: frozenset
    r_q: frozenset
    m0: int
    n0: int
    u_p: frozenset
    u_q: frozenset
    k_p: frozenset
    k_q: frozenset
    def_p: int
    def_q: int

    def to_json(self):
        return {
            "s_p": sorted(self.s_p),
            "s_q": sorted(self.s_q),
            "r_p": sorted(self.r_p),
            "r_q": sorted(self.r_q),
            "m0": self.m0,
            "n0": self.n0,
            "u_p": sorted(self.u_p),
            "u_q": sorted(self.u_q),
            "k_p": sorted(self.k_p),
            "k_q": sorted(self.k_q),
            "def_p": self.def_p,
            "def_q": self.def_q,
        }


@dataclass(frozen=True)
class RootProfile:
    a: MemberProfile
    b: MemberProfile

    def to_json(self):
        return {"a": self.a.to_json(), "b": self.b.to_json()}


def _prime_profile(vd: frozenset, partner_vd: frozenset, n: int, p: int, e: int, q: int):
    """(S, R, last surviving R-exponent or -1, U, deficit) of a member at p^e || N.

    Each is a lookup in vanishing divisors: A(zeta_{p^j}) = 0 iff p^j is one,
    and A(zeta_N^(p^j)) = 0 iff that root's order N / p^j is one.
    """
    s = frozenset(j for j in range(1, e + 1) if p**j in vd)
    r = frozenset(j for j in range(e + 1) if n // p**j in vd)
    last = max((j for j in range(e + 1) if j not in r), default=-1)
    # level 0 is excluded from U: there is no class structure below level 1 to
    # feed the digit-drop count this set exists for
    u = frozenset(j for j in range(1, e + 1) if j not in s and p**j * q in vd)
    deficit = sum(1 for j in range(e) if j + 1 not in s and n // p**j in partner_vd)
    return s, r, last, u, deficit


def root_profile(pair: SpectralPair) -> RootProfile:
    """Every per-prime root diagnostic for both members of a verified pair."""
    ctx = pair.ctx
    n = ctx.n
    p, m, q, n_exp = ctx.prime_pair()
    va = zero_set(pair.a).vanishing_divisors
    vb = zero_set(pair.b).vanishing_divisors

    def member(x, vd, partner_vd):
        s_p, r_p, m0, u_p, def_p = _prime_profile(vd, partner_vd, n, p, m, q)
        s_q, r_q, n0, u_q, def_q = _prime_profile(vd, partner_vd, n, q, n_exp, p)
        return MemberProfile(
            s_p=s_p, s_q=s_q, r_p=r_p, r_q=r_q, m0=m0, n0=n0, u_p=u_p, u_q=u_q,
            k_p=k_set(x, p), k_q=k_set(x, q), def_p=def_p, def_q=def_q,
        )

    return RootProfile(a=member(pair.a, va, vb), b=member(pair.b, vb, va))


def check_wt1(s: MaskMultiset, p: int) -> bool:
    """Whether p^{|S_A(p)|} exactly divides |A|."""
    ctx = s.ctx
    e = ctx.valuation(p)
    if e == 0:
        raise DomainError(f"{p} does not divide {ctx.n}")
    size = s.mass()
    vd = zero_set(s).vanishing_divisors
    k = sum(p**j in vd for j in range(1, e + 1))
    return size % p**k == 0 and (size // p**k) % p != 0


def check_wt2(s: MaskMultiset, p: int, q: int) -> str:
    """Tri-state check of the mixed-root ladder below the first surviving p-power.

    Applicable when A(zeta_q) = 0 and the initial run A(zeta_p) = ... =
    A(zeta_{p^k}) = 0 is nonempty (the run may extend to the full exponent);
    then holds iff A also vanishes at zeta_{p^j q} for every j in the run.
    """
    ctx = s.ctx
    pp, m, qq, n_exp = ctx.prime_pair()
    if {p, q} != {pp, qq}:
        raise DomainError(f"{p}, {q} are not the prime divisors of {ctx.n}")
    m = ctx.valuation(p)
    vd = zero_set(s).vanishing_divisors
    if q not in vd:
        return "not_applicable"
    k = 0
    while k < m and p ** (k + 1) in vd:
        k += 1
    if k == 0:
        return "not_applicable"
    ok = all(p**j * q in vd for j in range(1, k + 1))
    return "holds" if ok else "fails"


def symmetry_check(pair: SpectralPair) -> dict:
    """Both sides of the root-pattern symmetry relations, reported, not asserted.

    The relations (S_B(p) - 1) and R_A(p) agree below the last surviving
    dilation exponent only under hypotheses empty at desk scale; a candidate
    counterexample would have to pass this panel.
    """
    ctx = pair.ctx
    p, m, q, n_exp = ctx.prime_pair()
    prof = root_profile(pair)

    def side(s_b, r_a, cut):
        lhs = sorted(x - 1 for x in s_b if 0 <= x - 1 <= cut)
        rhs = sorted(x for x in r_a if x <= cut)
        return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}

    return {
        "p": side(prof.b.s_p, prof.a.r_p, prof.a.m0),
        "q": side(prof.b.s_q, prof.a.r_q, prof.a.n0),
    }


def required_roots_panel(pair: SpectralPair) -> dict:
    """The ten vanishing facts every spectral non-tile must satisfy, one flag each."""
    ctx = pair.ctx
    p, m, q, n_exp = ctx.prime_pair()
    n = ctx.n

    def member(x):
        vd = zero_set(x).vanishing_divisors
        return {
            "zeta_N": n in vd,
            "zeta_p": p in vd,
            "zeta_q": q in vd,
            "zeta_p_max": p**m in vd,
            "zeta_q_max": q**n_exp in vd,
        }

    return {"a": member(pair.a), "b": member(pair.b)}


def diagnostics_panel(pair: SpectralPair) -> dict:
    """Primitivity of both members and, at two-prime orders, every root report."""
    out = {"primitive_a": is_primitive(pair.a), "primitive_b": is_primitive(pair.b)}
    if len(pair.ctx.factorization) == 2:
        out["profile"] = root_profile(pair).to_json()
        out["symmetry"] = symmetry_check(pair)
        out["deficits"] = deficit_bounds_check(pair)
        out["roots_panel"] = required_roots_panel(pair)
    return out


def _ceil_log(p: int, q: int) -> int:
    """Smallest L >= 0 with p^L >= q, computed exactly."""
    L = 0
    val = 1
    while val < q:
        val *= p
        L += 1
    return L


@dataclass(frozen=True)
class ExclusionVerdict:
    verdict: str  # "EXCLUDED" or "OPEN"
    reasons: tuple
    bounds: dict

    def to_json(self):
        return {
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "bounds": self.bounds,
        }


def exclusion_predicate(ctx: GroupContext) -> ExclusionVerdict:
    """Decide whether the exponent shape already rules out spectral non-tiles.

    With p the smaller prime of N = p^m q^n, a spectral non-tile can survive
    only if m >= 10, n >= 7 and p^{m-2} >= q^4: the deficit window for q needs
    3 <= def_q <= n - 4, the window for p needs 2L <= def_p <= m - 2 - 2L with
    L the ceiling of log_p q, and the p-window alone forces m >= 4L + 2, hence
    q^4 < p^{m-2}.  EXCLUDED means every spectral set of this order tiles.

    Each reason is tagged with its provenance: "[paper]" for the clauses the
    paper's abstract states (an exponent <= 6, or p^{m-2} < q^4) and
    "[derived]" for 7 <= m <= 9, which this code derives from m >= 4L + 2.
    """
    p, m, q, n_exp = ctx.prime_pair()
    if p > q:
        p, m, q, n_exp = q, n_exp, p, m
    L = _ceil_log(p, q)
    Lq = _ceil_log(q, p)
    bounds = {
        "p": p,
        "q": q,
        "m": m,
        "n": n_exp,
        "ceil_log_p_q": L,
        "ceil_log_q_p": Lq,
        "deficit_window_p": {"lower": 2 * L, "upper": m - 2 - 2 * L},
        "deficit_window_q": {"lower": 3, "upper": n_exp - 4},
        "u_lower_bound_p": L,
        "u_lower_bound_q": Lq,
        "size_divisibility_floor": {"p_exponent": 2 * L + 2, "q_exponent": 4},
        "m_required": 4 * L + 2,
        "n_required": 7,
    }
    reasons = []
    if m <= 6:
        reasons.append(f"[paper] smaller-prime exponent m={m} <= 6")
    elif m <= 9:
        reasons.append(
            f"[derived] smaller-prime exponent m={m} <= 9; the deficit window "
            f"needs m >= {4 * L + 2}"
        )
    if n_exp <= 6:
        reasons.append(f"[paper] larger-prime exponent n={n_exp} <= 6")
    if p ** (m - 2) < q**4:
        reasons.append(f"[paper] {p}^{m - 2} < {q}^4")
    if reasons:
        return ExclusionVerdict("EXCLUDED", tuple(reasons), bounds)
    return ExclusionVerdict("OPEN", ("no clause applies; shape not excluded",), bounds)


def deficit_bounds_check(pair: SpectralPair) -> dict:
    """Numeric report of the size bounds and divisibility floors for a pair.

    Evaluates the four min-term bounds on |A| and the divisibility of |A|,
    |B| by the prime powers built from the S and U sets.  Nothing here is
    asserted; the hypotheses behind these bounds quantify over sets no
    desk-scale group contains.
    """
    ctx = pair.ctx
    p, m, q, n_exp = ctx.prime_pair()
    prof = root_profile(pair)
    size = pair.a.mass()
    L = _ceil_log(p, q)
    Lq = _ceil_log(q, p)
    a, b = prof.a, prof.b
    terms = {
        "p_sb_defpb_q_sa": p ** (len(b.s_p) + b.def_p) * q ** len(a.s_q),
        "p_sa_defpa_q_sb": p ** (len(a.s_p) + a.def_p) * q ** len(b.s_q),
        "p_sb_q_sa_defqa": p ** len(b.s_p) * q ** (len(a.s_q) + a.def_q),
        "p_sa_q_sb_defqb": p ** len(a.s_p) * q ** (len(b.s_q) + b.def_q),
    }
    size_bounds = {
        name: {"bound": val, "holds": size <= val} for name, val in terms.items()
    }
    divisibility = {}
    for label, mp in (("a", a), ("b", b)):
        mod_su_p = p ** (len(mp.s_p) + len(mp.u_p))
        mod_su_q = q ** (len(mp.s_q) + len(mp.u_q))
        mod_log = p ** (len(mp.s_p) + L) * q ** (len(mp.s_q) + Lq)
        divisibility[label] = {
            "s_plus_u_p": {"modulus": mod_su_p, "divides": size % mod_su_p == 0},
            "s_plus_u_q": {"modulus": mod_su_q, "divides": size % mod_su_q == 0},
            "s_plus_log_both": {"modulus": mod_log, "divides": size % mod_log == 0},
        }
    return {
        "size": size,
        "size_bounds": size_bounds,
        "divisibility": divisibility,
        "profile": prof.to_json(),
    }
