"""Exhaustive and budgeted combinatorial search over subsets of Z_N.

Four layers:

  * canonical enumeration: one representative per translation orbit (or per
    affine orbit when requested), namely the lexicographically least translate
    containing 0.  Its gap sequence is a necklace, so translation orbits come
    from a necklace walk with no candidate rejected; affine orbits keep the
    necklaces that no unit dilate beats, by scanning each dilate's bitmask-key
    rotations.

  * witness searches: spectra are cliques of size |A| (containing 0) in the
    graph on {0} union Z(A) with edges x ~ y iff x - y lies in Z(A); tiling
    complements are exact covers built by always covering the first uncovered
    cell, with one mask of covered cells and O(N + depth) memory.  Both are
    loops over an explicit stack, so no recursion limit bounds their depth;
    both are exhaustive within a node budget and distinguish "none" (full
    exhaustion) from "unknown" (budget ran out).

  * the survey: classify every canonical set of a group as spectral / tile /
    both / neither, with witnesses re-verified and exhaustion certificates
    recorded, and collect any spectral non-tile with its full diagnostics.
    A set that fails T1/T2 and has no witness is classified from its tuple
    alone, with no multiset.  The summary is the fold of the records as
    they stream, fresh or replayed.

  * record lines: a record's canonical JSON line (record_line, byte for byte
    dumps(rec)) is built only for a spool or a line stream, never inside
    classify_set.  A record with no witness is fixed by its signature
    (N, |A|, Z(A)) and the budget except for its set and its tile search's
    verdict and nodes, so its line fills those into a template cached per
    signature.  A worker folds its task into a _Fold and writes the task's
    lines to a spool file; the parent merges the folds in task order and
    passes the lines on unparsed, so no record dict crosses a pipe.

Sets are bitmasks in the hot paths; all arithmetic stays exact.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from multiprocessing import get_context
from pathlib import Path

from . import __version__, cm, pairs, zn
from .errors import DomainError, InvariantViolation
from .zn import MaskMultiset, ZeroSet, group, zero_set

DEFAULT_NODE_BUDGET = 500_000
SURVEY_SCHEMA = "spectile.survey/1"


# ---------------------------------------------------------------------------
# canonical representatives
#
# A set's key is the n-bit integer with bit n-1-x set for each element x.  Of
# two sets of one size, the one with the larger key has the lexicographically
# smaller sorted tuple, and the key of S - t is the key of S rotated left by t.
# The canonical representative is therefore the translate (of any unit dilate,
# for affine orbits) with the largest key; it contains 0, so only rotations by
# an element of the set need checking.  That rotation scan survives in
# _canonical_form, in its translation case _translation_form (which the
# sampler calls) and in the affine leaf test of _canonical_of_size; the
# translation orbits themselves come from _necklace_prefixes, since the
# translates containing 0 are the rotations of the set's gap sequence and the
# lex-least one is the least rotation, a necklace.


def _canonical_form(rep, n, units):
    """The lex-least set containing 0 in the orbit of rep under x -> u*x + t, u in units."""
    full = (1 << n) - 1
    best = 0
    for u in units:
        image = {u * x % n for x in rep}
        key = sum(1 << (n - 1 - y) for y in image)
        wide = key << n | key
        for y in image:
            best = max(best, wide >> (n - y) & full)
    return tuple(x for x in range(n) if best >> (n - 1 - x) & 1)


@lru_cache(maxsize=1 << 6)
def _rotation_tables(n):
    """Per x in Z_n: the key bit of x, and the right shift that rotates x's bit to the top."""
    return [1 << (n - 1 - x) for x in range(n)], [n - x for x in range(n)]


_BIT_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _translation_form(rep, n):
    """_canonical_form(rep, n, (1,)) for distinct elements of range(n), by C builtins."""
    bit, shift = _rotation_tables(n)
    key = sum(map(bit.__getitem__, rep))
    wide = key << n | key
    best = max(map(((1 << n) - 1).__and__, map(wide.__rshift__, map(shift.__getitem__, rep))),
               default=0)
    # the best key's bits, most significant first, are the indicator of its tuple
    return tuple(compress(range(n), format(best, f"0{n}b").encode().translate(_BIT_DIGITS)))


def translation_canonical_form(rep, n):
    return _translation_form({x % n for x in rep}, n)


def affine_canonical_form(rep, n):
    """Lex-least translate containing 0 over all unit dilations of the set."""
    return _canonical_form(rep, n, group(n).units())


def canonical_sets(n, size=None, affine=False):
    """Yield canonical subsets of Z_n (sorted tuples containing 0).

    Exactly one representative per translation orbit (per affine orbit when
    affine=True), in lexicographic order within each size.
    """
    sizes = [size] if size is not None else range(1, n + 1)
    for k in sizes:
        if k < 1 or k > n:
            continue
        yield from _canonical_of_size(n, k, affine)


def _canonical_of_size(n, k, affine, first=None):
    if k == 1:
        if first is None:
            yield (0,)
        return
    full = (1 << n) - 1
    bit = _rotation_tables(n)[0]
    # per unit u != 1: the key bit and the rotation shift of u*x, indexed by x
    dilations = [([bit[u * x % n] for x in range(n)], [n - u * x % n for x in range(n)])
                 for u in (group(n).units()[1:] if affine else ())]
    firsts = range(1, n // k + 1) if first is None else [first]
    for a1 in firsts:
        for prefix, lo, stop in _necklace_prefixes(n, k, a1):
            if not dilations:
                for x in range(lo, stop):
                    yield prefix + (x,)
                continue
            head = sum(map(bit.__getitem__, prefix))
            for x in range(lo, stop):
                rep = prefix + (x,)
                key = head + bit[x]
                for ubit, shift in dilations:
                    ukey = sum(map(ubit.__getitem__, rep))
                    wide = ukey << n | ukey
                    for y in rep:
                        if wide >> shift[y] & full > key:
                            break
                    else:
                        continue
                    break  # some translate of this dilate has a larger key
                else:
                    yield rep


def _necklace_prefixes(n, k, a1):
    """The translation-canonical k-subsets of Z_n with first gap a1, in lex order.

    Yields (prefix, lo, stop): the sets are prefix + (x,) for lo <= x < stop.
    A set's gaps g_1..g_k (g_k closing the sum to n) form a necklace, the
    least of its rotations.  The walk is Fredricksen-Kessler-Maiorana's with
    the sum fixed: with p the period of g_1..g_{t-1}, g_t >= g_{t-p}, and p
    becomes t when g_t > g_{t-p}; a full sequence is a necklace iff g_k >
    g_{k-p}, or g_k = g_{k-p} and p divides k.  Every gap is at least a1, so
    a prefix is dropped once the gaps left cannot all be.
    """
    if k * a1 > n:
        return
    if k == 2:
        yield (0,), a1, a1 + 1
        return
    last = k - 1  # the index of the leaf element x, so g_k = n - x
    xs = [0] * k  # xs[t] = g_1 + ... + g_t
    gap = [0] * k
    per = [0] * k  # per[t]: the period of g_1..g_t
    xs[1] = gap[1] = a1
    per[1] = 1
    t = 1
    while True:
        if t < last - 1:
            t += 1
            g = gap[t - per[t - 1]]
        else:
            # the leaves under this prefix: the least g_{k-1} keeps the period
            # p, and every larger one makes it k - 1, which needs g_k > g_1 = a1
            p = per[t]
            g = gap[last] = gap[last - p]
            x = xs[t] + g
            ref = gap[k - p]
            if n - x > ref or n - x == ref and k % p == 0:
                yield tuple(xs[:last]), x, max(n - a1, x + 1)
            else:
                yield tuple(xs[:last]), x + 1, n - a1
            if t == 1:
                return
            g = gap[t] + 1
        while xs[t - 1] + g + (k - t) * a1 > n:  # the k - t gaps left are each >= a1
            t -= 1
            if t == 1:
                return
            g = gap[t] + 1
        gap[t] = g
        xs[t] = xs[t - 1] + g
        p = per[t - 1]
        per[t] = p if g == gap[t - p] else t


def orbit_count(n, size=None, affine=False):
    """Number of orbits of nonempty subsets (or of size-k subsets) by Burnside."""
    poly = _orbit_polynomial(n, affine)
    if size is None:
        return sum(poly) - 1  # drop the empty set's orbit
    return poly[size] if 0 <= size <= n else 0


@lru_cache(maxsize=1 << 6)
def _orbit_polynomial(n, affine):
    """Coefficient k is the number of orbits of k-subsets of Z_n.

    The maps are x -> u*x + v with u = 1 (translations) or u a unit (affine).
    A map fixes exactly the unions of its cycles, counted by the product over
    its cycles of (1 + X^len); Burnside averages that product over the maps.
    """
    units = group(n).units() if affine else (1,)
    acc = [0] * (n + 1)
    for u in units:
        for v in range(n):
            poly = [1] + [0] * n
            for length in _cycle_lengths(n, u, v):
                for i in range(n - length, -1, -1):  # times (1 + X^length)
                    poly[i + length] += poly[i]
            for k, c in enumerate(poly):
                acc[k] += c
    return tuple(c // (len(units) * n) for c in acc)


def _cycle_lengths(n, u, v):
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = (u * x + v) % n
            length += 1
        out.append(length)
    return out


# ---------------------------------------------------------------------------
# witness searches


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str  # "found" | "none" | "unknown"
    witness: MaskMultiset | None
    nodes: int
    budget: int

    def to_json(self):
        witness = sorted(self.witness.support()) if self.witness else None
        return _outcome_json(self.verdict, self.nodes, self.budget, witness)


def _outcome_json(verdict, nodes, budget, witness=None):
    """The JSON of a SearchOutcome; classify_set builds it directly when there is no witness."""
    return {"verdict": verdict, "witness": witness, "nodes": nodes, "budget": budget}


def _rot(mask, t, n, full):
    t %= n
    return ((mask << t) | (mask >> (n - t))) & full if t else mask


def find_spectrum(a: MaskMultiset, budget=DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Search for a spectrum of A as a |A|-clique containing 0.

    Vertices are the residues of Z(A) plus 0; translation invariance makes
    the restriction to cliques through 0 lossless.  The search reads only
    the signature (N, |A|, Z(A)) and the budget, so _clique_search memoises
    it on those; the witness is still built and re-verified against A
    itself on every call.
    """
    if a.is_empty() or not a.is_proper():
        raise DomainError("spectrum search needs a nonempty proper set")
    k = a.mass()
    if k == 1:
        return SearchOutcome("found", MaskMultiset.from_elements(a.ctx, [0]), 0, budget)
    return _spectrum_outcome(a, _clique_search(a.n, k, zero_set(a).vanishing_divisors, budget),
                             budget)


def _spectrum_outcome(a, search, budget):
    """The SearchOutcome of a _clique_search result on A; a found clique is
    re-verified as a spectrum of A itself."""
    verdict, chosen, nodes = search
    if verdict != "found":
        return SearchOutcome(verdict, None, nodes, budget)
    witness = MaskMultiset.from_elements(a.ctx, (0,) + chosen)
    check = pairs.verify_spectral_pair(a, witness)
    if not check.ok:
        raise InvariantViolation("clique search produced a non-spectrum")
    return SearchOutcome("found", witness, nodes, budget)


@lru_cache(maxsize=1 << 12)
def _clique_search(n, k, vanishing_divisors, budget):
    """(verdict, chosen, nodes) of the k-clique search through 0 in {0} union Z(A).

    Edges join x and y when x - y lies in Z(A).  Vertices are visited in
    order of increasing degree; a branch dies as soon as the remaining
    candidates cannot complete the clique.  `chosen` holds the clique's
    nonzero vertices, empty unless the verdict is "found".
    """
    verts = sorted(ZeroSet(group(n), vanishing_divisors).residues())
    if 1 + len(verts) < k:
        return "none", (), 0
    full = (1 << n) - 1
    zmask = 0
    for x in verts:
        zmask |= 1 << x
    adj = {v: _rot(zmask, v, n, full) & zmask for v in verts}
    order = sorted(verts, key=lambda v: (bin(adj[v]).count("1"), v))
    pos_of = {v: i for i, v in enumerate(order)}
    nverts = len(order)
    adj_pos = [0] * nverts
    for v in verts:
        m = 0
        w = adj[v]
        while w:
            low = w & -w
            m |= 1 << pos_of[low.bit_length() - 1]
            w ^= low
        adj_pos[pos_of[v]] = m
    # a level per clique vertex, from 0: the vertex and the candidates left after it
    stack = [(0, (1 << nverts) - 1)]
    nodes = 1
    while stack and nodes <= budget:
        v, pmask = stack[-1]
        size = len(stack)
        if not pmask or size + bin(pmask).count("1") < k:
            stack.pop()
            continue
        low = pmask & -pmask
        i = low.bit_length() - 1
        stack[-1] = v, pmask ^ low
        if size + 1 == k:
            return "found", tuple(w for w, _ in stack[1:]) + (order[i],), nodes
        nodes += 1
        stack.append((order[i], pmask & adj_pos[i]))
    return "unknown" if stack else "none", (), nodes


def _tiling_backtrack(a: MaskMultiset, budget, want_all):
    """(sols, exhausted, nodes) of the exact-cover search for complements of a proper A."""
    return _cover_search(a.n, a.mask(), a.support(), budget, want_all)


def _cover_search(n, amask, elems, budget, want_all):
    """_tiling_backtrack on the set with bitmask amask and ascending elements elems.

    A level covers its first uncovered cell c with a translate c - x, for x
    in A in order; it keeps the translate it stands on, c and the index of
    the next x.
    """
    full = (1 << n) - 1
    if amask == full:  # A is the whole group, tiled by {0} alone
        return ([(0,)], True, 1) if budget >= 1 else ([], False, 1)
    sols = []
    covered = amask  # ORs a translate in on the way down, XORs it out on the way up
    free = ~covered & full
    levels = [(0, (free & -free).bit_length() - 1, 0)]
    nodes = 1
    while levels and nodes <= budget:
        t, c, j = levels[-1]
        while j < len(elems):
            u = (c - elems[j]) % n
            j += 1
            pm = _rot(amask, u, n, full)
            if pm & covered == 0:
                break
        else:
            covered ^= _rot(amask, levels.pop()[0], n, full)
            continue
        levels[-1] = t, c, j
        nodes += 1
        if nodes > budget:
            break
        covered |= pm
        if covered != full:
            free = ~covered & full
            levels.append((u, (free & -free).bit_length() - 1, 0))
            continue
        sols.append(tuple(level[0] for level in levels) + (u,))
        if not want_all:
            break
        covered ^= pm
    return sols, nodes <= budget, nodes


def find_tiling_complement(a: MaskMultiset, budget=DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Backtracking exact-cover search for a complement T containing 0."""
    if a.is_empty() or not a.is_proper():
        raise DomainError("tiling search needs a nonempty proper set")
    return _tile_outcome(a, _first_cover(a.n, a.support(), budget), budget)


def _tile_outcome(a, search, budget):
    """The SearchOutcome of a _first_cover result on A; a found complement is
    re-verified against A itself."""
    verdict, sols, nodes = search
    if verdict != "found":
        return SearchOutcome(verdict, None, nodes, budget)
    witness = MaskMultiset.from_elements(a.ctx, sorted(sols[0]))
    check = pairs.verify_tiling_pair(a, witness)
    if not check.ok:
        raise InvariantViolation("cover search produced a non-complement")
    return SearchOutcome("found", witness, nodes, budget)


def _first_cover(n, elems, budget):
    """(verdict, sols, nodes) of the search for one complement of the proper
    set with ascending elements elems; none when |A| does not divide n."""
    if n % len(elems):
        return "none", [], 0
    sols, exhausted, nodes = _cover_search(n, sum(1 << x for x in elems), elems, budget,
                                           want_all=False)
    return "found" if sols else "none" if exhausted else "unknown", sols, nodes


def enumerate_tiling_complements(a: MaskMultiset, budget=DEFAULT_NODE_BUDGET):
    """All complements of A containing 0.  Returns (witness list, exhausted, nodes)."""
    if a.is_empty() or not a.is_proper():
        raise DomainError("tiling search needs a nonempty proper set")
    n = a.n
    if n % a.mass() != 0:
        return [], True, 0
    sols, exhausted, nodes = _tiling_backtrack(a, budget, want_all=True)
    out = [MaskMultiset.from_elements(a.ctx, sorted(s)) for s in sols]
    for t in out:
        if not pairs.verify_tiling_pair(a, t).ok:
            raise InvariantViolation("cover search produced a non-complement")
    return out, exhausted, nodes


# ---------------------------------------------------------------------------
# the survey


@dataclass
class SurveyOptions:
    sizes: tuple | None = None
    affine: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET
    per_size_limit: int | None = None
    seed: int = 0
    threads: int = 1
    collect_records: bool = True
    max_n: int = 40
    cursor_dir: str | None = None
    progress: bool = False

    def fingerprint(self):
        # a cursor from other code or another record schema is recomputed, not merged
        return json.dumps(
            {
                "schema": SURVEY_SCHEMA,
                "version": __version__,
                "code": _code_digest(),
                "sizes": sorted(set(self.sizes)) if self.sizes else None,
                "affine": self.affine,
                "node_budget": self.node_budget,
                "per_size_limit": self.per_size_limit,
                "seed": self.seed,
            },
            sort_keys=True,
        )


@lru_cache(maxsize=None)
def _code_digest():
    """sha256 of the package's sources, read on first use rather than at import."""
    import hashlib  # loads OpenSSL: a few MB and ms that only cursor runs need
    sources = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes() + b"\0"
                                   for p in sources)).hexdigest()


def dumps(obj):
    """The canonical JSON line of a record or report: sorted keys, tight separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# templates of record lines, per (N, |A|, Z(A), budget, tile verdict): (head, mid, tail)
_line_templates = {}
_LINE_TEMPLATES_MAX = 1 << 12


def record_line(rec):
    """dumps(rec) + "\\n", byte for byte, for a record of classify_set.

    A record with no witness (neither verdict "found") comes from
    classify_set's no-multiset path: all of it but the set and the tile
    search's verdict and node count is fixed by the signature (N, |A|, Z(A))
    and the budget, so its line fills those into a cached template.
    """
    tile = rec["tile"]
    if tile["verdict"] == "found" or rec["spectral"]["verdict"] == "found":
        return dumps(rec) + "\n"
    key = (rec["n"], rec["size"], tuple(rec["vanishing_divisors"]), tile["budget"],
           tile["verdict"])
    parts = _line_templates.get(key)
    if parts is None:
        if len(_line_templates) >= _LINE_TEMPLATES_MAX:
            _line_templates.clear()
        holes = dumps({**rec, "set": "\0", "tile": {**tile, "nodes": "\0"}}) + "\n"
        parts = _line_templates[key] = holes.split('"\\u0000"')
    head, mid, tail = parts
    return f"{head}{str(rec['set']).replace(' ', '')}{mid}{tile['nodes']}{tail}"


@dataclass
class SurveyResult:
    records: list | None
    summary: dict


def _shape_forces_structure(ctx):
    # orders with at most two distinct primes, or with at most one repeated
    # prime, provably admit no tile that fails the structure conditions
    if len(ctx.factorization) <= 2:
        return True
    return sum(1 for _, e in ctx.factorization if e > 1) <= 1


def classify_set(rep, n, node_budget=DEFAULT_NODE_BUDGET):
    """Full classification of one canonical set; returns a JSON-able record.

    Z(A), T1/T2 and both searches run once, on the tuple rep.  Only when
    T1/T2 hold or a search finds a witness is a MaskMultiset built, seeded
    with that Z(A), for the constructions, the witnesses and their checks,
    and the diagnostics.
    """
    ctx = group(n)
    za = zn.proper_zero_set(ctx, rep)
    vd = za.vanishing_divisors
    k = len(rep)
    cm_report = cm._structure_report(n, k, vd)
    record = {
        "type": "record",
        "n": n,
        "set": list(rep),
        "size": k,
        "vanishing_divisors": sorted(vd),
        "cm": cm_report.to_json(),
        "dual_spectrum": None,
        "f_member": False,
        "diagnostics": None,
    }
    if not cm_report.ok:
        # k > 1 here, since {0} satisfies T1/T2
        spectral = _clique_search(n, k, vd, node_budget)
        tile = _first_cover(n, rep, node_budget)
        if "found" not in (spectral[0], tile[0]):
            record["spectral"] = _outcome_json(spectral[0], spectral[2], node_budget)
            record["tile"] = _outcome_json(tile[0], tile[2], node_budget)
            return record
    a = MaskMultiset.from_elements(ctx, rep)
    object.__setattr__(a, "_zero_set", za)  # zero_set(a) returns it from here on
    if cm_report.ok:
        t = cm.build_tiling_complement_cm(a)
        # either route of the dual certificate returns build_laba_spectrum(a),
        # which is also the spectral witness
        record["dual_spectrum"] = dual = _dual_certified_spectrum(a, t)
        record["spectral"] = {"verdict": "found", "witness": list(dual["spectrum"]), "nodes": 0}
        record["tile"] = {"verdict": "found", "witness": sorted(t.support()), "nodes": 0}
        return record
    spectral = _spectrum_outcome(a, spectral, node_budget)
    tile = _tile_outcome(a, tile, node_budget)
    if tile.verdict == "found" and _shape_forces_structure(ctx):
        raise InvariantViolation(
            f"tile {rep} of Z_{n} fails the structure conditions; impossible"
        )
    record["spectral"] = spectral.to_json()
    record["tile"] = tile.to_json()
    if tile.verdict == "found":
        record["dual_spectrum"] = _dual_certified_spectrum(a, tile.witness)
    if spectral.verdict == "found" and tile.verdict == "none":
        record["f_member"] = True
        record["diagnostics"] = _f_diagnostics(a, spectral.witness)
    return record


def _dual_certified_spectrum(a, t):
    try:
        _, b = cm.tiling_implies_spectral(a, t)
        return {"route": "dilation_reduction", "spectrum": sorted(b.support())}
    except DomainError:
        # two repeated primes: certify through the structure conditions instead
        report = cm.check_t1t2(a)
        if not report.ok:
            raise InvariantViolation(
                "tile fails structure conditions during dual certification"
            ) from None
        b = cm.build_laba_spectrum(a)
        return {"route": "structure_conditions", "spectrum": sorted(b.support())}


def _f_diagnostics(a, b):
    check = pairs.verify_spectral_pair(a, b)
    if not check.ok:
        raise InvariantViolation("recorded spectrum failed re-verification")
    return pairs.diagnostics_panel(check.pair)


def _sample_reps(n, k, limit, seed, affine):
    rng = random.Random(f"{seed}:{n}:{k}")
    units = group(n).units() if affine else (1,)
    reps = set()
    attempts = 0
    cap = 200 * limit + 1000
    while len(reps) < limit and attempts < cap:
        attempts += 1
        if k == 1:
            reps.add((0,))
            break
        picks = rng.sample(range(1, n), k - 1)
        rep = [0] + picks
        reps.add(_canonical_form(rep, n, units) if affine else _translation_form(rep, n))
    return sorted(reps)


def _plan_tasks(n, opts: SurveyOptions):
    """The survey's tasks in record order, and each planned size's orbit total (by Burnside)."""
    sizes = sorted(set(opts.sizes)) if opts.sizes else range(1, n + 1)
    tasks = []
    totals = {}
    for k in sizes:
        if k < 1 or k > n:
            continue
        total = totals[k] = orbit_count(n, k, opts.affine)
        if opts.per_size_limit is not None and total > opts.per_size_limit:
            tasks.append(("sample", k, None))
        elif k == 1:
            tasks.append(("enum", k, None))
        else:
            tasks.extend(("enum", k, a1) for a1 in range(1, n // k + 1))
    return tasks, totals


def _run_task(args):
    """Yield one task's records in order; touches no file."""
    n, opts, (kind, k, first) = args
    if kind == "sample":
        reps = _sample_reps(n, k, opts.per_size_limit, opts.seed, opts.affine)
    else:
        reps = _canonical_of_size(n, k, opts.affine, first=first)
    for rep in reps:
        yield classify_set(rep, n, opts.node_budget)


class _Fold:
    """The summary's counts over a run of records.

    Adding records one at a time, or merging in order the folds of
    consecutive runs, gives the same fold: a worker folds its task and the
    parent merges the folds in task order.
    """

    def __init__(self):
        self.orbits = 0
        self.per_size = {}  # k -> [surveyed, spectral, tiles, cm_pass]
        self.f_members = []
        self.unresolved = []
        self.nonprimitive_structured = True  # every non-primitive spectral set passes T1/T2

    def add(self, rec):
        self.orbits += 1
        structured = rec["cm"]["t1"] and rec["cm"]["t2"]
        spectral, tile = rec["spectral"]["verdict"], rec["tile"]["verdict"]
        slot = self.per_size.get(rec["size"])
        if slot is None:
            slot = self.per_size[rec["size"]] = [0, 0, 0, 0]
        slot[0] += 1
        slot[1] += spectral == "found"
        slot[2] += tile == "found"
        slot[3] += structured
        if spectral == "found" and not structured and not pairs.is_primitive(
                MaskMultiset.from_elements(rec["n"], rec["set"])):
            self.nonprimitive_structured = False
        if rec["f_member"]:
            self.f_members.append(rec["set"])
        if "unknown" in (spectral, tile):
            self.unresolved.append(rec["set"])

    def merge(self, other):
        self.orbits += other.orbits
        for k, counts in other.per_size.items():
            slot = self.per_size.setdefault(k, [0, 0, 0, 0])
            slot[:] = map(int.__add__, slot, counts)
        self.f_members += other.f_members
        self.unresolved += other.unresolved
        self.nonprimitive_structured &= other.nonprimitive_structured


def _fold_task(args, fold, outs=(), sink=None):
    """Run one task: fold each record, write its line to every stream in outs
    and hand it to sink."""
    for rec in _run_task(args):
        fold.add(rec)
        if outs:
            line = record_line(rec)
            for out in outs:
                out.write(line)
        if sink is not None:
            sink(rec)


def _worker_task(job):
    """A worker's task: its fold, with its record lines written to path if one is given."""
    args, path = job
    fold = _Fold()
    with open(path, "w", encoding="utf-8") if path else nullcontext() as fh:
        _fold_task(args, fold, () if fh is None else (fh,))
    return fold


def _spool_path(cursor, tid):
    return os.path.join(cursor, f"task-{tid:06d}.jsonl")


def _pass_on(path, fold, sink, line_out):
    """Hand a spool file's lines on: unparsed to line_out, parsed to fold and sink."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line_out is not None:
                line_out.write(line)
            if fold is not None or sink is not None:
                rec = json.loads(line)
                if fold is not None:
                    fold.add(rec)
                if sink is not None:
                    sink(rec)


def fuglede_survey(ctx, options: SurveyOptions | None = None, record_sink=None,
                   line_out=None) -> SurveyResult:
    """Classify every canonical subset of Z_N and certify the spectral/tile split.

    Tasks are sharded by (size, first element) and their records come up in
    task order, the same for any worker count.  Each record, fresh or
    replayed, is folded into the summary, its line (record_line) goes to the
    spool and to line_out, a text stream, and the record goes to record_sink
    (or into the returned list): the summary is the fold of the records.
    With cursor_dir set, a task's lines go to <cursor_dir>/task-NNNNNN.jsonl,
    and once that file is closed <cursor_dir>/manifest.json lists the task as
    finished; a rerun with the same options and code replays the listed
    tasks' files.  The directory may be moved.  With one worker, records
    stream one at a time, so memory does not grow with a task, and no line
    is built unless a spool or line_out takes it.  With more, each worker
    folds its task and writes the task's lines to its spool file (a
    temporary one without a cursor), so only a fold crosses the pipe; the
    parent merges the folds in task order and passes the lines on, parsing
    them only for record_sink.  Budget exhaustion on any set downgrades the
    summary to incomplete and lists the unresolved sets.
    """
    opts = options or SurveyOptions()
    n = ctx.n
    if n > opts.max_n:
        raise DomainError(f"order {n} beyond the configured feasibility bound {opts.max_n}")
    t0 = time.time()
    tasks, totals = _plan_tasks(n, opts)
    cursor = opts.cursor_dir
    finished = set()
    if cursor is not None:
        fingerprint = opts.fingerprint()
        os.makedirs(cursor, exist_ok=True)
        manifest = os.path.join(cursor, "manifest.json")
        if os.path.exists(manifest):
            old = json.loads(Path(manifest).read_text(encoding="utf-8"))
            if old.get("n") == n and old.get("fingerprint") == fingerprint:
                # a task whose spool file is gone is pending again
                finished = {tid for tid in old["tasks"]
                            if os.path.exists(_spool_path(cursor, tid))}
    pending = [tid for tid in range(len(tasks)) if tid not in finished]
    records = [] if (opts.collect_records and record_sink is None) else None
    sink = record_sink if records is None else records.append

    fold = _Fold()
    done = replayed = 0
    # a sampled size yields at most per_size_limit orbits
    limit = opts.per_size_limit
    planned = sum(total if limit is None else min(total, limit) for total in totals.values())
    with ExitStack() as stack:
        parts = spool_dir = None
        if opts.threads > 1 and len(pending) > 1:
            # each worker writes its task's lines to the task's spool file:
            # the cursor's, or a temporary one when something reads the lines
            spool_dir = cursor
            if spool_dir is None and (line_out is not None or sink is not None):
                spool_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="spectile-"))
            jobs = [((n, opts, tasks[tid]), spool_dir and _spool_path(spool_dir, tid))
                    for tid in pending]
            pool = stack.enter_context(get_context("fork").Pool(min(opts.threads, len(pending))))
            parts = pool.imap(_worker_task, jobs, chunksize=1)
        for tid, task in enumerate(tasks):
            path = None if cursor is None else _spool_path(cursor, tid)
            if tid in finished:
                before = fold.orbits
                _pass_on(path, fold, sink, line_out)
                replayed += fold.orbits - before
                continue
            if parts is not None:
                fold.merge(next(parts))
                if spool_dir is not None:
                    path = _spool_path(spool_dir, tid)
                    _pass_on(path, None, sink, line_out)
                    if cursor is None:
                        os.remove(path)
            else:
                with open(path, "w", encoding="utf-8") if path else nullcontext() as spool:
                    outs = tuple(out for out in (spool, line_out) if out is not None)
                    _fold_task((n, opts, task), fold, outs, sink)
            if cursor is not None:
                # the spool file is closed before the manifest names its task
                finished.add(tid)
                state = {"n": n, "fingerprint": fingerprint, "tasks": sorted(finished)}
                Path(manifest + ".tmp").write_text(json.dumps(state), encoding="utf-8")
                os.replace(manifest + ".tmp", manifest)
            done += 1
            if opts.progress:
                orbits = fold.orbits
                rate = (orbits - replayed) / max(time.time() - t0, 1e-9)
                eta = f"{max(planned - orbits, 0) / rate:.0f} s" if rate else "?"
                print(f"[survey n={n}] {done}/{len(pending)} tasks, "
                      f"{orbits}/{planned} orbits, {rate:.0f} orbits/s, ETA {eta}",
                      flush=True, file=sys.stderr)

    total = sum(totals.values())
    per_size = {}
    for k, slot_total in sorted(totals.items()):
        surveyed, spectral, tiles, cm_pass = fold.per_size.get(k, (0, 0, 0, 0))
        per_size[str(k)] = {"surveyed": surveyed, "total": slot_total, "spectral": spectral,
                            "tiles": tiles, "cm_pass": cm_pass}
    summary = {
        "type": "summary",
        "schema": SURVEY_SCHEMA,
        "n": n,
        "affine": opts.affine,
        "seed": opts.seed,
        "node_budget": opts.node_budget,
        "per_size_limit": opts.per_size_limit,
        "orbits_surveyed": fold.orbits,
        "orbits_total": total,
        "per_size": per_size,
        "f_count": len(fold.f_members),
        "f_members": sorted(fold.f_members),
        "unresolved": sorted(fold.unresolved),
        "nonprimitive_spectral_all_structured": fold.nonprimitive_structured,
        "complete": fold.orbits == total and not fold.unresolved,
        "elapsed_s": round(time.time() - t0, 3),
    }
    return SurveyResult(records, summary)
