"""Independent oracles for the test suite.

Everything here recomputes results through a different route than the package
under test: sympy supplies cyclotomic polynomials and exact remainders, and
plain itertools enumeration supplies spectra, tilings, orbit counts and the
generate-and-filter orbit enumeration that the necklace walk replaced, and the
recursive clique and exact-cover searches are the references for the flat
loops that replaced them.  Deliberately slow and simple.
"""

import math
from functools import lru_cache
from itertools import combinations

import sympy
from sympy.abc import x

from spectile.zn import ZeroSet, group


@lru_cache(maxsize=None)
def cyclo_poly(d):
    return sympy.cyclotomic_poly(d, x, polys=True)


def poly_from_asc(coeffs):
    return sympy.Poly(list(reversed([int(c) for c in coeffs])), x)


def vanishes(coeffs, d):
    """Whether the polynomial with ascending coeffs vanishes at a primitive
    d-th root of unity, decided by sympy remainder mod Phi_d."""
    p = poly_from_asc(coeffs)
    if p.is_zero:
        return True
    return p.rem(cyclo_poly(d), auto=False).is_zero


def value_at_root_power(coeffs, n, e):
    """Whether sum_a coeffs[a] * zeta_n^(a e) == 0."""
    acc = [0] * n
    for a, c in enumerate(coeffs):
        acc[(a * e) % n] += c
    return vanishes(acc, n)


def zero_divisors(coeffs, n):
    """All divisors d > 1 of n at whose primitive roots the mask vanishes."""
    return {d for d in range(2, n + 1) if n % d == 0 and vanishes(coeffs, d)}


def spectral_diff_table(n, aset):
    """delta -> whether A(zeta_n^delta) == 0, for delta in [1, n)."""
    table = {}
    for delta in range(1, n):
        acc = [0] * n
        for a in aset:
            acc[(a * delta) % n] += 1
        table[delta] = vanishes(acc, n)
    return table


def is_spectral(n, aset, bset, table=None):
    if len(aset) != len(bset):
        return False
    table = table or spectral_diff_table(n, aset)
    bs = list(bset)
    for i, b1 in enumerate(bs):
        for b2 in bs[:i]:
            if not table[(b1 - b2) % n]:
                return False
    return True


def brute_spectra(n, aset):
    """All spectra of A containing 0, as sorted tuples."""
    k = len(aset)
    table = spectral_diff_table(n, aset)
    out = []
    for rest in combinations(range(1, n), k - 1):
        b = (0,) + rest
        if is_spectral(n, aset, b, table):
            out.append(b)
    return out


def is_tiling(n, aset, tset):
    if len(aset) * len(tset) != n:
        return False
    seen = set()
    for a in aset:
        for t in tset:
            z = (a + t) % n
            if z in seen:
                return False
            seen.add(z)
    return len(seen) == n


def brute_tilings(n, aset):
    """All complements of A containing 0, as sorted tuples."""
    if len(aset) == 0 or n % len(aset):
        return []
    kt = n // len(aset)
    if kt == 1:
        return [(0,)] if is_tiling(n, aset, (0,)) else []
    out = []
    for rest in combinations(range(1, n), kt - 1):
        t = (0,) + rest
        if is_tiling(n, aset, t):
            out.append(t)
    return out


def orbit_count_translation(n, k=None):
    """Burnside count of translation orbits (nonempty subsets, or size k)."""
    total = 0
    for t in range(n):
        g = math.gcd(t, n)
        if k is None:
            total += 2**g
        elif (k * g) % n == 0:
            total += math.comb(g, k * g // n)
    count = total // n
    if k is None:
        count -= 1
    return count


def orbit_transversal(n, k):
    """One lex-least-containing-0 representative per translation orbit."""
    reps = set()
    for rest in combinations(range(1, n), k - 1) if k > 1 else [()]:
        s = (0,) + rest
        translates = []
        for a in s:
            translates.append(tuple(sorted((y - a) % n for y in s)))
        reps.add(min(translates))
    return sorted(reps)


def canonical_of_size_by_filter(n, k, affine, first=None):
    """The canonical k-sets of Z_n with first gap `first` (all when None), in
    lex order, by generate-and-filter: every (0, a1) + combination with later
    elements in [2*a1, n - a1] is kept when no translate by one of its
    elements (of any unit dilate, when affine) has a larger bitmask key."""
    if k == 1:
        if first is None:
            yield (0,)
        return
    full = (1 << n) - 1
    bit = [1 << (n - 1 - x) for x in range(n)]
    units = [u for u in range(2, n) if math.gcd(u, n) == 1] if affine else []
    dilations = [([bit[u * x % n] for x in range(n)], [n - u * x % n for x in range(n)])
                 for u in units]
    firsts = range(1, n - k + 2) if first is None else [first]
    for a1 in firsts:
        head = bit[0] | bit[a1]
        for combo in combinations(range(2 * a1, n - a1 + 1), k - 2):
            rep = (0, a1) + combo
            key = head + sum(map(bit.__getitem__, combo))
            wide = key << n | key
            for x in rep:
                if wide >> (n - x) & full > key:
                    break
            else:
                for ubit, shift in dilations:
                    ukey = sum(map(ubit.__getitem__, rep))
                    wide = ukey << n | ukey
                    for x in rep:
                        if wide >> shift[x] & full > key:
                            break
                    else:
                        continue
                    break  # some translate of this dilate has a larger key
                else:
                    yield rep


def naive_divmod(num, den):
    """Schoolbook division of ascending-coefficient integer polys by a monic
    den: (quotient, remainder), the remainder of length len(den) - 1."""
    num = list(num)
    dd = len(den) - 1
    assert den[-1] == 1
    quo = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quo[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return quo, num[:dd]


def naive_divide(num, den):
    """Schoolbook exact division of ascending-coefficient integer polys."""
    quo, rem = naive_divmod(num, den)
    assert all(v == 0 for v in rem), "division not exact"
    return quo


def affine_transversal_count(n, k):
    """Number of orbits of k-subsets under x -> ux + v, by direct orbiting."""
    from itertools import combinations

    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    seen = set()
    orbits = 0
    for s in combinations(range(n), k):
        if s in seen:
            continue
        orbits += 1
        for u in units:
            for v in range(n):
                seen.add(tuple(sorted((u * x + v) % n for x in s)))
    return orbits


def orbit_least(n, s, affine=False):
    """The lex-least sorted image of s under x -> u*x + v (u = 1 unless affine)."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1] if affine else [1]
    return min(
        tuple(sorted({(u * x + v) % n for x in s})) for u in units or [1] for v in range(n)
    )


def affine_orbit_transversal(n, k):
    """The lex-least member of each affine orbit of k-subsets, ascending."""
    return sorted({orbit_least(n, s, affine=True) for s in combinations(range(n), k)})


@lru_cache(maxsize=None)
def subgroup(n, d):
    """The subgroup dZ_n, as the set of multiples of d mod n."""
    return frozenset((d * k) % n for k in range(n))


def in_proper_coset(n, s):
    """Whether the nonempty set s lies in a coset of some dZ_n with d | n, d > 1.

    Checked against every such subgroup, not only the maximal ones; the coset
    is s[0] + dZ_n, since it must contain s[0].
    """
    return any(
        all((y - s[0]) % n in subgroup(n, d) for y in s)
        for d in range(2, n + 1)
        if n % d == 0
    )


def recompose_cycles(n, p_part, q_part, p, q):
    """The multiset P(X) Phi_p(X^{n/p}) + Q(X) Phi_q(X^{n/q}) by hand: each base
    x of a part spreads its multiplicity over the cycle x + k n/r, k < r."""
    out = [0] * n
    for prime, part in ((p, p_part), (q, q_part)):
        step = n // prime
        for base, mult in enumerate(part):
            if mult:
                for i in range(prime):
                    out[(base + i * step) % n] += mult
    return tuple(out)


def phi_power_product(base, n, factors):
    """base(X) * prod Phi_s(X^t) mod X^n - 1 over the (s, t) pairs, with sympy's
    Phi_s and a plain convolution per factor."""
    out = list(base)
    for s, t in factors:
        phi = [int(c) for c in reversed(cyclo_poly(s).all_coeffs())]
        nxt = [0] * n
        for i, a in enumerate(out):
            for j, c in enumerate(phi):
                nxt[(i + j * t) % n] += a * c
        out = nxt
    return tuple(out)


class _OutOfBudget(Exception):
    pass


def _rot(mask, t, n, full):
    t %= n
    return ((mask << t) | (mask >> (n - t))) & full if t else mask


def clique_search_recursive(n, k, vanishing_divisors, budget):
    """search._clique_search as a recursive closure that raises on a spent budget."""
    verts = sorted(ZeroSet(group(n), vanishing_divisors).residues())
    if 1 + len(verts) < k:
        return "none", (), 0
    full = (1 << n) - 1
    zmask = 0
    for v in verts:
        zmask |= 1 << v
    adj = {v: _rot(zmask, v, n, full) & zmask for v in verts}
    order = sorted(verts, key=lambda v: (bin(adj[v]).count("1"), v))
    pos_of = {v: i for i, v in enumerate(order)}
    adj_pos = [0] * len(order)
    for v in verts:
        adj_pos[pos_of[v]] = sum(1 << pos_of[w] for w in verts if adj[v] >> w & 1)
    nodes = 0
    chosen = []

    def expand(pmask, size):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        while pmask:
            if size + bin(pmask).count("1") < k:
                return False
            low = pmask & -pmask
            i = low.bit_length() - 1
            pmask ^= low
            chosen.append(order[i])
            if size + 1 == k:
                return True
            if expand(pmask & adj_pos[i], size + 1):
                return True
            chosen.pop()
        return False

    try:
        found = expand((1 << len(order)) - 1, 1)
    except _OutOfBudget:
        return "unknown", (), nodes
    return ("found", tuple(chosen), nodes) if found else ("none", (), nodes)


def tiling_backtrack_recursive(a, budget, want_all):
    """search._cover_search on A as a recursive closure that raises on a spent budget."""
    n = a.n
    full = (1 << n) - 1
    amask = a.mask()
    elems = a.support()
    sols = []
    nodes = 0

    def rec(covered, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        if covered == full:
            sols.append(tuple(chosen))
            return not want_all
        c = ~covered & full
        c = (c & -c).bit_length() - 1  # first uncovered cell
        for aa in elems:
            t = (c - aa) % n
            pm = _rot(amask, t, n, full)
            if pm & covered == 0:
                chosen.append(t)
                if rec(covered | pm, chosen):
                    return True
                chosen.pop()
        return False

    try:
        rec(amask, [0])
    except _OutOfBudget:
        return sols, False, nodes
    return sols, True, nodes


# ---------------------------------------------------------------------------
# per-coefficient scans of a dense multiset: the references for the
# builtin-driven scans in zn, cycles and pairs


def support_by_scan(coeffs):
    return tuple(a for a, c in enumerate(coeffs) if c)


def mask_by_scan(coeffs):
    m = 0
    for a, c in enumerate(coeffs):
        if c:
            m |= 1 << a
    return m


def text_by_scan(n, coeffs):
    parts = []
    for a, c in enumerate(coeffs):
        if c == 1:
            parts.append(str(a))
        elif c > 1:
            parts.append(f"{a}*{c}")
    return f"{n}:{{{','.join(parts)}}}"


def residues_by_scan(n, vanishing_divisors):
    """Z(A) as residues: x is in it iff its order N/gcd(x, N) vanishes."""
    return frozenset(x for x in range(n) if n // math.gcd(x, n) in vanishing_divisors)


def difference_set_by_scan(n, coeffs):
    supp = support_by_scan(coeffs)
    return frozenset((x - y) % n for x in supp for y in supp)


def is_cycle_union_by_scan(coeffs, n, r):
    step = n // r
    return all(coeffs[i] == coeffs[(i + step) % n] for i in range(n))


def fold_by_slices(c, n):
    """c mod X^n - 1 as n slice sums."""
    return tuple(sum(c[i::n]) for i in range(n))


def spectral_routes_per_pair(a, b):
    """pairs.spectral_routes as one loop over B's pairs, with a gcd and a
    Z(A) membership test per pair: (route one, route two, first bad pair)."""
    from spectile.zn import vanishes_at, zero_set

    n = a.n
    za = zero_set(a)
    supp = support_by_scan(b.coeffs)
    orders = set()
    route1 = True
    witness = None
    for i, x in enumerate(supp):
        for y in supp[:i]:
            delta = (x - y) % n
            orders.add(n // math.gcd(delta, n))
            if not za.contains(delta):
                route1 = False
                if witness is None:
                    witness = (x, y)
    route2 = all(vanishes_at(a, d) for d in orders)
    return route1, route2, witness
