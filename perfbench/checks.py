"""Correctness checks made apart from the program, after the timed region.

Vanishing is decided by sympy: A(zeta_d) = 0 exactly when the sympy
remainder of A(X) mod (X^d - 1) by sympy's Phi_d is zero.  Tilings are
checked by a direct sumset, orbit totals by the Burnside sums in
`workloads`, and cycle decompositions by expanding them again.  Every check
returns a list of failure strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations, product

from workloads import expected_sizes, prime_factors


@lru_cache(maxsize=None)
def _phi(d):
    import sympy  # imported on first use: a pass process never needs it

    x = sympy.Symbol("x")
    return sympy.Poly(sympy.cyclotomic_poly(d, x), x)


@lru_cache(maxsize=None)
def vanishes(coeffs, d):
    """Whether sum_a coeffs[a] zeta_d^a == 0 (coeffs ascending, d | len)."""
    folded = [0] * d
    for a, c in enumerate(coeffs):
        folded[a % d] += c
    phi = _phi(d)
    poly = phi.from_list(list(reversed(folded)), *phi.gens)
    return poly.is_zero or poly.rem(phi).is_zero


def coeffs_of(n, elems):
    out = [0] * n
    for a in elems:
        out[a % n] += 1
    return tuple(out)


def zero_divisors(coeffs):
    n = len(coeffs)
    return {d for d in range(2, n + 1) if n % d == 0 and vanishes(coeffs, d)}


def is_spectrum(coeffs, b):
    """B is a spectrum of A: |A| = |B| and A vanishes at every difference order."""
    n = len(coeffs)
    if sum(coeffs) != len(b) or len(set(b)) != len(b):
        return False
    orders = {n // math.gcd(y - z, n) for i, y in enumerate(b) for z in b[:i]}
    return all(vanishes(coeffs, d) for d in sorted(orders))


def has_clique(n, residues, k):
    """Whether some k-set containing 0 has all its differences in `residues`."""

    def grow(size, cand):
        if size == k:
            return True
        for i, y in enumerate(cand):
            if size + len(cand) - i < k:
                return False
            if grow(size + 1, [z for z in cand[i + 1:] if (z - y) % n in residues]):
                return True
        return False

    return grow(1, sorted(residues))


def is_tiling(n, a, t):
    sums = {(x + y) % n for x in a for y in t}
    return len(a) * len(t) == n and len(sums) == n


def structure(n, vd, size):
    """(S_A, T1, T2) recomputed from a zero set, as Coven and Meyerowitz state them."""
    fact = {}
    for p in prime_factors(n):
        fact[p] = fact.get(p, 0) + 1
    s_a = {p**e for p, m in fact.items() for e in range(1, m + 1) if p**e in vd}
    t1 = size == math.prod(prime_factors(s)[0] for s in s_a)
    groups = [[s for s in s_a if s % p == 0] for p in fact]
    groups = [g for g in groups if g]
    t2 = all(
        math.prod(picks) in vd
        for r in range(2, len(groups) + 1)
        for chosen in combinations(groups, r)
        for picks in product(*chosen)
    )
    return s_a, t1, t2


def canonical(n, rep, affine):
    """Lex-least sorted translate (over unit dilations too when affine) containing 0."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1] if affine else [1]
    best = None
    for u in units or [1]:
        s = [(u * y) % n for y in rep]
        for a in s:
            cand = tuple(sorted((y - a) % n for y in s))
            if best is None or cand < best:
                best = cand
    return best


# ---------------------------------------------------------------------------
# surveys


def check_survey(n, kw, summary, count, kept):
    """One survey call: its summary, its record count and its sampled records."""
    bad = []
    affine = kw.get("affine", False)
    limit = kw.get("per_size_limit")
    if summary["f_count"] != 0:
        bad.append(f"Z_{n}: spectral non-tiles {summary['f_members']}")
    if summary["unresolved"]:
        bad.append(f"Z_{n}: {len(summary['unresolved'])} unresolved sets")
    sampled = False
    want = expected_sizes(n, affine, limit)
    for k, (total, surveyed) in want.items():
        slot = summary["per_size"].get(str(k))
        if slot is None:
            bad.append(f"Z_{n}: size {k} missing")
            continue
        sampled = sampled or surveyed < total
        if slot["total"] != total or slot["surveyed"] != surveyed:
            bad.append(f"Z_{n} size {k}: {slot['surveyed']}/{slot['total']}, want {surveyed}/{total}")
        if slot["spectral"] != slot["tiles"]:
            bad.append(f"Z_{n} size {k}: {slot['spectral']} spectral vs {slot['tiles']} tiles")
    # a sampled survey is incomplete by definition: it leaves orbits out
    if summary["complete"] is sampled:
        bad.append(f"Z_{n}: complete is {summary['complete']}")
    want_records = sum(s for _, s in want.values())
    if summary["orbits_surveyed"] != want_records or count != want_records:
        bad.append(f"Z_{n}: {summary['orbits_surveyed']} surveyed, {count} records, want {want_records}")
    for rec in kept:
        bad.extend(check_record(n, affine, rec))
    return bad


def check_record(n, affine, rec):
    rep = tuple(rec["set"])
    where = f"Z_{n} {list(rep)}"
    if rec["n"] != n or rec["size"] != len(rep) or canonical(n, rep, affine) != rep:
        return [f"{where}: not a canonical representative"]
    coeffs = coeffs_of(n, rep)
    vd = zero_divisors(coeffs)
    bad = []
    if set(rec["vanishing_divisors"]) != vd:
        bad.append(f"{where}: zero set {rec['vanishing_divisors']}, oracle {sorted(vd)}")
    s_a, t1, t2 = structure(n, vd, len(rep))
    cm = rec["cm"]
    if set(cm["s_a"]) != s_a or cm["t1"] != t1 or cm["t2"] != t2:
        bad.append(f"{where}: structure report {cm}")
    spectral, tile = rec["spectral"], rec["tile"]
    if spectral["verdict"] != tile["verdict"] or tile["verdict"] not in ("found", "none"):
        bad.append(f"{where}: spectral {spectral['verdict']}, tile {tile['verdict']}")
    if spectral["verdict"] == "found" and not is_spectrum(coeffs, spectral["witness"]):
        bad.append(f"{where}: recorded spectrum fails")
    if tile["verdict"] == "found" and not is_tiling(n, rep, tile["witness"]):
        bad.append(f"{where}: recorded complement fails")
    dual = rec["dual_spectrum"]
    if dual is not None and not is_spectrum(coeffs, dual["spectrum"]):
        bad.append(f"{where}: dual spectrum fails")
    return bad


# ---------------------------------------------------------------------------
# queries


def parse_literal(text):
    n_s, body = text.split(":", 1)
    n = int(n_s)
    coeffs = [0] * n
    for item in body.strip("{}").split(","):
        a, _, m = item.partition("*")
        coeffs[int(a) % n] += int(m or 1)
    return n, tuple(coeffs)


def support(coeffs):
    return [a for a, c in enumerate(coeffs) if c]


def is_primitive(n, elems):
    """Not inside a coset of a maximal subgroup p Z_n."""
    return all(len({y % p for y in elems}) > 1 for p in set(prime_factors(n)))


def check_query(kind, argv, rc, out, oracle):
    """Checks of one CLI call; `oracle` adds the sympy checks."""
    where = f"{' '.join(argv)[:80]}"
    try:
        res = json.loads(out)
    except ValueError:
        return [f"{where}: output is not JSON (exit {rc})"]
    lits = [parse_literal(a) for a in argv if ":" in a]
    n, a = lits[0]
    elems = support(a)
    bad = []
    if kind == "analyze":
        if rc != 0:
            return [f"{where}: exit {rc}"]
        vd = set(res["zero_divisors"])
        residues = {y for y in range(n) if n // math.gcd(y, n) in vd}
        if set(res["zero_residues"]) != residues or res["set"] != elems:
            bad.append(f"{where}: zero residues or set disagree")
        s_a, t1, t2 = structure(n, vd, len(elems))
        if set(res["cm"]["s_a"]) != s_a or res["cm"]["t1"] != t1 or res["cm"]["t2"] != t2:
            bad.append(f"{where}: structure report {res['cm']}")
        spectral, tile = res["spectral"], res["tile"]
        if spectral["verdict"] == "found":
            b = spectral["witness"]
            orders = {n // math.gcd(y - z, n) for i, y in enumerate(b) for z in b[:i]}
            if len(b) != len(elems) or not orders <= vd:
                bad.append(f"{where}: spectrum witness fails the zero set")
        elif spectral["verdict"] != "none" or has_clique(n, residues, len(elems)):
            bad.append(f"{where}: spectral verdict {spectral['verdict']}, yet a spectrum exists")
        if tile["verdict"] == "found":
            if not is_tiling(n, elems, tile["witness"]):
                bad.append(f"{where}: complement fails")
        elif tile["verdict"] != "none" or n % len(elems) == 0:
            bad.append(f"{where}: tile verdict {tile['verdict']} not provable")
        if oracle and vd != zero_divisors(a):
            bad.append(f"{where}: zero set {sorted(vd)}, oracle {sorted(zero_divisors(a))}")
    elif kind == "verify":
        _, b = lits[1]
        if "--tiling" in argv:
            truth = is_tiling(n, elems, support(b))
        elif oracle:
            truth = is_spectrum(a, support(b))
        else:
            truth = res["ok"]
        if res["ok"] is not truth or rc != (0 if truth else 1):
            bad.append(f"{where}: verdict {res['ok']} exit {rc}, truth {truth}")
    elif kind == "decompose":
        if rc != 0 or not res["ok"]:
            return [f"{where}: exit {rc}"]
        p, q = sorted(set(prime_factors(n)))
        back = [0] * n
        for prime, part in ((p, res["p_part"]), (q, res["q_part"])):
            if min(part) < 0:
                bad.append(f"{where}: negative cycle multiplicity")
            for base, mult in enumerate(part):
                for j in range(prime):
                    back[(base + j * n // prime) % n] += mult
        if tuple(back) != a:
            bad.append(f"{where}: parts do not recompose to the input")
        if oracle and not vanishes(a, n):
            bad.append(f"{where}: input does not vanish, yet was decomposed")
    elif kind == "profile":
        _, b = lits[1]
        if rc != 0 or not res["ok"]:
            return [f"{where}: exit {rc}"]
        if res["primitive_a"] != is_primitive(n, elems) or res["primitive_b"] != is_primitive(n, support(b)):
            bad.append(f"{where}: primitivity disagrees")
        if oracle and not is_spectrum(a, support(b)):
            bad.append(f"{where}: profiled pair is not spectral")
    return bad
