"""Inputs of the four workloads, made from the seed alone.

Nothing here imports spectile: the query stream is plain text (set literals
and argv lists, exactly what a shell user would type), and the orbit counts
the survey checks rely on are the benchmark's own Burnside sums.
"""

from __future__ import annotations

import math
import random

# The acceptance suite samples these orders at 400 sets per size with this
# node budget; the sampled workload uses the same settings.
SAMPLE_LIMIT = 400
SAMPLE_BUDGET = 300_000

# (n, SurveyOptions keywords) per survey call of one pass
SURVEYS = {
    "exhaustive-z20": [(20, {})],
    "affine-z20": [(20, {"affine": True})],
    "sampled-27-32-36": [
        (n, {"per_size_limit": SAMPLE_LIMIT, "node_budget": SAMPLE_BUDGET})
        for n in (27, 32, 36)
    ],
}
WORKLOADS = tuple(SURVEYS) + ("queries",)

# records per survey call whose witnesses are re-verified by the oracles
RECHECK_PER_SURVEY = 40

# Query orders: two-prime orders p^a q^b from 72 to 1000, and three-prime
# orders for the two commands that accept them (analyze, verify).
TWO_PRIME_ORDERS = (
    72, 96, 100, 108, 144, 162, 192, 200, 216, 288, 324,
    392, 400, 432, 500, 576, 648, 675, 800, 864, 972, 1000,
)
THREE_PRIME_ORDERS = (180, 360, 420)
# the whole order list is walked this many times per pass, with fresh sets
QUERY_ROUNDS = 6


def prime_factors(n):
    """Prime factors of n with multiplicity, ascending."""
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def translation_orbits(n, k):
    """Burnside: orbits of k-subsets of Z_n under translation.

    The shift by t has gcd(t, n) cycles of length n / gcd(t, n), so it fixes
    C(g, k g / n) k-subsets when n divides k g, and none otherwise.
    """
    acc = 0
    for t in range(n):
        g = math.gcd(t, n)
        if (k * g) % n == 0:
            acc += math.comb(g, k * g // n)
    return acc // n


def affine_orbits(n, k):
    """Burnside: orbits of k-subsets of Z_n under x -> u x + v, u a unit.

    A map with cycle lengths l_1, l_2, ... fixes as many k-subsets as the
    coefficient of z^k in prod (1 + z^l_i).
    """
    units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [0]
    acc = 0
    for u in units:
        for v in range(n):
            seen = [False] * n
            poly = [1] + [0] * k
            for start in range(n):
                if seen[start]:
                    continue
                length, x = 0, start
                while not seen[x]:
                    seen[x] = True
                    x = (u * x + v) % n
                    length += 1
                for i in range(k, length - 1, -1):
                    poly[i] += poly[i - length]
            acc += poly[k]
    return acc // (len(units) * n)


def expected_sizes(n, affine=False, per_size_limit=None):
    """size -> (orbit total, sets the survey must classify)."""
    count = affine_orbits if affine else translation_orbits
    out = {}
    for k in range(1, n + 1):
        total = count(n, k)
        limit = per_size_limit if per_size_limit is not None else total
        out[k] = (total, min(total, limit))
    return out


def recheck_indices(seed, n, surveyed):
    """Positions in the record stream whose records are re-verified."""
    rng = random.Random(f"recheck:{seed}:{n}")
    return frozenset(rng.sample(range(surveyed), min(RECHECK_PER_SURVEY, surveyed)))


# ---------------------------------------------------------------------------
# the query stream


def literal(n, coeffs_by_residue):
    """Set literal `N:{a*m,...}` from a residue -> multiplicity dict."""
    items = []
    for a in sorted(coeffs_by_residue):
        m = coeffs_by_residue[a]
        items.append(str(a) if m == 1 else f"{a}*{m}")
    return f"{n}:{{{','.join(items)}}}"


def set_literal(n, elems):
    return literal(n, {x % n: 1 for x in elems})


def _unit(rng, n):
    while True:
        u = rng.randrange(1, n)
        if math.gcd(u, n) == 1:
            return u


def digit_tile(rng, n):
    """A tile A of Z_n with a complement T and a spectrum B.

    The prime factors of n, shuffled, give digit levels m_1 ... m_r with
    prefix products M_i.  A takes the digits d_i M_(i-1) of a level subset S,
    T the digits of the other levels, and B = sum over S of d_i n / M_i
    (the Cooley-Tukey factorisation of the Fourier matrix makes B a
    spectrum).  A random unit u and shift t then give u A + t, u T and
    u^-1 B.  |A| has at most two prime factors, so A satisfies T1/T2.
    """
    levels = prime_factors(n)
    rng.shuffle(levels)
    r = len(levels)
    while True:
        chosen = [i for i in range(r) if rng.random() < 0.5]
        size = math.prod(levels[i] for i in chosen)
        if 0 < len(chosen) < r and 4 <= size <= 72 and len({levels[i] for i in chosen}) <= 2:
            break
    prefix = [1]
    for m in levels:
        prefix.append(prefix[-1] * m)
    a, t, b = [0], [0], [0]
    for i, m in enumerate(levels):
        if i in chosen:
            a = [x + d * prefix[i] for x in a for d in range(m)]
            b = [x + d * (n // prefix[i + 1]) for x in b for d in range(m)]
        else:
            t = [x + d * prefix[i] for x in t for d in range(m)]
    u = _unit(rng, n)
    u_inv = pow(u, -1, n)
    shift = rng.randrange(n)
    return (
        sorted((u * x + shift) % n for x in a),
        sorted((u * x) % n for x in t),
        sorted((u_inv * x) % n for x in b),
    )


def generic_set(rng, n):
    """A random set whose size is coprime to n: no prime-power root, no tile."""
    k = rng.choice([k for k in range(5, 14) if math.gcd(k, n) == 1])
    return sorted(rng.sample(range(n), k))


def broken_spectrum(rng, n, b):
    """b with one element moved to a residue outside b."""
    out = list(b)
    i = rng.randrange(1, len(out))
    while True:
        x = rng.randrange(n)
        if x not in out:
            out[i] = x
            return sorted(out)


def cycle_union(rng, n):
    """A multiset of Z_n (n = p^a q^b) that is a union of p- and q-cycles."""
    p, q = sorted(set(prime_factors(n)))
    coeffs = {}
    for prime, count in ((p, rng.randint(1, 6)), (q, rng.randint(1, 6))):
        step = n // prime
        for _ in range(count):
            base = rng.randrange(n)
            for j in range(prime):
                x = (base + j * step) % n
                coeffs[x] = coeffs.get(x, 0) + 1
    return coeffs


def query_stream(seed):
    """The fixed per-seed list of (kind, argv) calls of one `queries` pass.

    Each round visits every order once: two-prime orders get two `analyze`
    calls (a generic set and a tile), three `verify` calls (spectral pair,
    tiling pair, broken spectral pair), one `decompose` and one `profile`;
    three-prime orders get the `analyze` and `verify` calls only, since the
    other two commands need two primes.
    """
    rng = random.Random(f"queries:{seed}")
    calls = []
    for _ in range(QUERY_ROUNDS):
        for n in TWO_PRIME_ORDERS + THREE_PRIME_ORDERS:
            a, t, b = digit_tile(rng, n)
            la, lt, lb = set_literal(n, a), set_literal(n, t), set_literal(n, b)
            calls.append(("analyze", ["analyze", "--json", set_literal(n, generic_set(rng, n))]))
            calls.append(("analyze", ["analyze", "--json", la]))
            calls.append(("verify", ["verify", "--json", "--spectral", la, lb]))
            calls.append(("verify", ["verify", "--json", "--tiling", la, lt]))
            bad = set_literal(n, broken_spectrum(rng, n, b))
            calls.append(("verify", ["verify", "--json", "--spectral", la, bad]))
            if n in TWO_PRIME_ORDERS:
                calls.append(("decompose", ["decompose", "--json", literal(n, cycle_union(rng, n))]))
                calls.append(("profile", ["profile", "--json", la, lb]))
    return calls
