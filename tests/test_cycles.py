"""Cycle decompositions of vanishing sums and the root-hunting checks."""

import math
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectile import (
    CycleDecomposition,
    DomainError,
    InvariantViolation,
    MaskMultiset,
    PreconditionError,
    classify_absorption,
    dilate,
    group,
    is_cycle_union,
    lam_leung_decompose,
    ma_lemma_check,
    preroothunt_check,
    roothunt_check,
    vanishes_at,
)
from spectile import cycles, pairs

import oracles


def mm(n, elems):
    return MaskMultiset.from_elements(n, elems)


def coeffs(n, vec):
    return MaskMultiset.from_coeffs(n, vec)


# ---------------------------------------------------------------------------
# decomposition


def test_single_cycle_decomposes_to_one_base():
    dec = lam_leung_decompose(mm(6, [0, 3]))
    assert dec.recompose().coeffs == mm(6, [0, 3]).coeffs
    assert dec.p_part.mass() == 1 and dec.q_part.mass() == 0


def test_full_group_decomposes():
    a = mm(6, range(6))
    dec = lam_leung_decompose(a)
    assert dec.recompose().coeffs == a.coeffs
    assert 2 * dec.p_part.mass() + 3 * dec.q_part.mass() == 6


def test_mixed_multiset_decomposes():
    a = coeffs(6, [1, 1, 0, 2, 0, 1])
    dec = lam_leung_decompose(a)
    assert dec.recompose().coeffs == a.coeffs
    assert all(c >= 0 for c in dec.p_part.coeffs)
    assert all(c >= 0 for c in dec.q_part.coeffs)


def test_rejects_non_vanishing():
    with pytest.raises(PreconditionError):
        lam_leung_decompose(mm(6, [0, 1]))


def test_rejects_three_prime_order():
    # the classic vanishing combination over three primes that admits no
    # nonnegative cycle split must bounce off the two-prime domain gate
    n = 30
    f = [0] * n
    for e in (5, 25):  # X^15 * (X^10 + X^20) folded
        f[e] += 1
    for e in (6, 12, 18, 24):
        f[e] += 1
    a = coeffs(n, f)
    assert oracles.vanishes(a.coeffs, n)  # it does vanish at a primitive root
    with pytest.raises(DomainError):
        lam_leung_decompose(a)


def test_rejects_prime_power_order():
    with pytest.raises(DomainError):
        lam_leung_decompose(mm(8, [0, 4]))


def test_exhaustive_completeness_z6():
    # every multiset of mass <= 6 over Z_6: vanishing (by the oracle) iff
    # the decomposer succeeds, and every witness recomposes exactly
    n = 6
    for mass in range(1, 7):
        for elems in combinations_with_replacement(range(n), mass):
            a = mm(n, elems)
            if oracles.vanishes(a.coeffs, n):
                dec = lam_leung_decompose(a)
                assert dec.recompose().coeffs == a.coeffs
            else:
                with pytest.raises(PreconditionError):
                    lam_leung_decompose(a)


@pytest.mark.parametrize("n", [12, 18, 24, 36])
def test_random_vanishing_multisets_round_trip(n):
    ctx = group(n)
    p, m, q, ne = ctx.prime_pair()
    rng = random.Random(n * 17)
    for _ in range(300):
        vec = [0] * n
        mass = 0
        while mass + min(p, q) <= 8:
            prime = p if rng.random() < 0.5 else q
            if mass + prime > 8:
                prime = p if p < q else q
                if mass + prime > 8:
                    break
            base = rng.randrange(n)
            step = n // prime
            for i in range(prime):
                vec[(base + i * step) % n] += 1
            mass += prime
        if mass == 0:
            continue
        a = coeffs(n, vec)
        assert vanishes_at(a, n)
        dec = lam_leung_decompose(a)
        assert dec.recompose().coeffs == a.coeffs


@pytest.mark.parametrize("n", [12, 18, 36])
def test_random_non_vanishing_rejected(n):
    rng = random.Random(n * 31)
    rejected = 0
    for _ in range(300):
        mass = rng.randint(1, 8)
        a = mm(n, [rng.randrange(n) for _ in range(mass)])
        if vanishes_at(a, n):
            continue
        with pytest.raises(PreconditionError):
            lam_leung_decompose(a)
        rejected += 1
    assert rejected > 250


def test_nonzero_part_clause():
    # a surviving dilation root forces the matching part to be nonzero
    n = 12
    rng = random.Random(7)
    seen = 0
    for _ in range(500):
        vec = [0] * n
        for _ in range(rng.randint(1, 3)):
            prime = rng.choice([2, 3])
            base = rng.randrange(n)
            for i in range(prime):
                vec[(base + i * n // prime) % n] += 1
        a = coeffs(n, vec)
        dec = lam_leung_decompose(a)
        for prime, part, e in ((2, dec.p_part, 2), (3, dec.q_part, 1)):
            if any(
                not vanishes_at(dilate(a, prime**k), n) for k in range(1, e + 1)
            ):
                seen += 1
                assert not part.is_empty()
    assert seen > 50


# ---------------------------------------------------------------------------
# recomposition against the hand-written cycle expansion

TWO_PRIME_ORDERS = (6, 10, 12, 15, 18, 20, 24, 36, 45, 72, 100)


@st.composite
def decompositions(draw):
    n = draw(st.sampled_from(TWO_PRIME_ORDERS))
    p, _m, q, _n = group(n).prime_pair()
    weights = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2000))
    p_part, q_part = (draw(st.lists(weights, min_size=n, max_size=n)) for _ in range(2))
    return CycleDecomposition(coeffs(n, p_part), coeffs(n, q_part), p, q)


def _expanded(dec):
    return oracles.recompose_cycles(
        dec.p_part.n, dec.p_part.coeffs, dec.q_part.coeffs, dec.prime_p, dec.prime_q
    )


@settings(max_examples=150, deadline=None)
@given(decompositions())
@example(CycleDecomposition(coeffs(6, [0] * 6), coeffs(6, [2000, 0, 0, 0, 0, 0]), 2, 3))
@example(CycleDecomposition(coeffs(6, [0] * 6), coeffs(6, [0] * 6), 2, 3))
def test_recompose_matches_hand_written_expansion(dec):
    assert dec.recompose().coeffs == _expanded(dec)


# the orders of the query benchmark's cycle unions
QUERY_TWO_PRIME_ORDERS = (72, 96, 100, 108, 144, 162, 192, 200, 216, 288, 324,
                          392, 400, 432, 500, 576, 648, 675, 800, 864, 972, 1000)


def test_recompose_matches_hand_written_expansion_on_query_cycle_unions():
    # one to six p-cycles and one to six q-cycles at random bases, as the
    # query benchmark's decompose calls draw them
    rng = random.Random(1000)
    for n in QUERY_TWO_PRIME_ORDERS:
        p, _m, q, _n = group(n).prime_pair()
        for _ in range(3):
            vec = [0] * n
            for prime in (p, q):
                for _ in range(rng.randint(1, 6)):
                    base = rng.randrange(n)
                    for j in range(prime):
                        vec[(base + j * n // prime) % n] += 1
            a = coeffs(n, vec)
            dec = lam_leung_decompose(a)
            assert dec.recompose().coeffs == _expanded(dec) == a.coeffs


# ---------------------------------------------------------------------------
# cycle unions and the full-power criterion


def test_cycle_union_test_matches_the_per_coefficient_scan():
    rng = random.Random("cycle unions")
    for n in (6, 12, 72, 100, 432, 1000):
        primes = group(n).primes
        for trial in range(30):
            c = [0] * n
            # a union of r-cycles for one prime r, then maybe one stray point
            r = rng.choice(primes)
            for _ in range(rng.randint(0, 6)):
                base, mult = rng.randrange(n), rng.randint(1, 4)
                for j in range(r):
                    c[(base + j * n // r) % n] += mult
            if trial % 3 == 0:
                c[rng.randrange(n)] += rng.randint(1, 3)
            a = coeffs(n, c)
            for p in primes:
                assert is_cycle_union(a, p) == oracles.is_cycle_union_by_scan(a.coeffs, n, p)


def test_cycle_union_examples():
    assert is_cycle_union(mm(6, [0, 3]), 2)
    assert not is_cycle_union(mm(6, [0, 3]), 3)
    assert is_cycle_union(mm(12, range(12)), 2)
    assert is_cycle_union(mm(12, range(12)), 3)
    with pytest.raises(DomainError):
        is_cycle_union(mm(6, [0, 3]), 5)


def test_ma_lemma_examples():
    assert ma_lemma_check(mm(6, [0, 3]), 2)
    assert not ma_lemma_check(mm(6, [0]), 2)
    assert ma_lemma_check(mm(12, range(12)), 3)


def test_ma_lemma_multiset_hypothesis():
    # hypothesis met by construction: two 2-cycles at different bases
    a = coeffs(12, [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0])
    assert ma_lemma_check(a, 2)


# ---------------------------------------------------------------------------
# root hunting


def test_preroothunt_spread_class():
    witness = preroothunt_check(mm(6, [0, 2, 3]))
    assert witness is not None
    x, y = witness
    assert math.gcd((x - y) % 6, 6) == 1


def test_preroothunt_single_cycles_give_nothing():
    assert preroothunt_check(mm(6, [0, 3])) is None
    assert preroothunt_check(mm(6, [0, 2, 4])) is None


def test_preroothunt_bigger_group():
    # class 0 mod 2 in Z_12 spread across distinct 2- and 3-cycles
    out = preroothunt_check(mm(12, [0, 4, 6]))
    assert out is not None
    x, y = out
    assert math.gcd((x - y) % 12, 12) == 2


def test_roothunt_basic_instance():
    # (3*1).{0,2} is one 2-cycle while the set survives at a primitive root
    out = roothunt_check(mm(12, [0, 2]), 1)
    assert out == 6
    a_diffs = {(x - y) % 12 for x in (0, 2) for y in (0, 2)}
    assert any(math.gcd(d, 12) == 12 // 6 for d in a_diffs)


def test_roothunt_full_cycle_fails_hypothesis():
    assert roothunt_check(mm(12, [0, 4, 8]), 1) is None


def test_roothunt_rejects_bad_divisor():
    with pytest.raises(DomainError):
        roothunt_check(mm(12, [0, 2]), 8)  # 8 does not divide 12/3


def test_roothunt_random_instances_verify():
    rng = random.Random(99)
    hits = 0
    for n in (12, 18):
        ctx = group(n)
        p, m, q, ne = ctx.prime_pair()
        for _ in range(400):
            size = rng.randint(2, 6)
            a = mm(n, rng.sample(range(n), size))
            for d in ctx.divisors:
                if (n // q) % d:
                    continue
                out = roothunt_check(a, d)
                if out is not None:
                    hits += 1
                    assert out == p * q * d and n % out == 0
                    diffs = {
                        (x - y) % n for x in a.support() for y in a.support()
                    }
                    assert any(math.gcd(z, n) == n // out for z in diffs)
    assert hits > 20


def test_roothunt_deeper_divisor_instance():
    # d = 2 in Z_24: (6.{0,2}) is one 2-cycle and the set survives at the
    # order-12 root, so a difference of order 12 must exist
    assert roothunt_check(mm(24, [0, 2]), 2) == 12


def test_recompose_matches_hand_written_expansion_on_seeded_decompositions():
    # arbitrary parts, not only those lam_leung_decompose returns: sparse or
    # dense, with multiplicities from 1 to 10^6
    rng = random.Random(721000)
    for n in QUERY_TWO_PRIME_ORDERS:
        p, _m, q, _n = group(n).prime_pair()
        for _ in range(2):
            parts = []
            for _ in range(2):
                vec = [0] * n
                for x in rng.sample(range(n), rng.choice([0, 1, 8, n // 3])):
                    vec[x] = rng.choice([1, 3, rng.randint(1, 10**6)])
                parts.append(coeffs(n, vec))
            dec = CycleDecomposition(*parts, p, q)
            assert dec.recompose().coeffs == _expanded(dec)


# ---------------------------------------------------------------------------
# hypothesis tests read the stored zero set


class _IndependentRoute(Exception):
    pass


@pytest.fixture
def no_independent_route(monkeypatch):
    """vanishes_at and dilate raise in pairs and cycles: a hypothesis that
    still returns read Z(A)."""

    def forbidden(*args):
        raise _IndependentRoute

    for mod in (pairs, cycles):
        monkeypatch.setattr(mod, "vanishes_at", forbidden)
        monkeypatch.setattr(mod, "dilate", forbidden, raising=False)


def _old_hypotheses(a, partner):
    """Each hypothesis by the former route: fresh dilates, folds and divisions
    (the package-level vanishes_at and dilate, which the fixture leaves alone).
    Returns {(test, args): verdict}."""
    ctx = a.ctx
    n = ctx.n
    p, m, q, n_exp = ctx.prime_pair()
    out = {("decompose", ()): vanishes_at(a, n)}
    for prime, e in ((p, m), (q, n_exp)):
        pm = prime**e
        out[("ma", (prime,))] = all(vanishes_at(a, d) for d in ctx.divisors if d % pm == 0)
    for d in group(n // q).divisors:
        collapsed = is_cycle_union(dilate(a, q * d), p)
        out[("roothunt", (d,))] = collapsed and not vanishes_at(dilate(a, d), n)
    for prime in (p, q):
        for d in group(n // (p * q)).divisors:
            out[("absorption", (d, prime))] = (
                not vanishes_at(dilate(partner, d), n)
                and not vanishes_at(a, prime * d)
                and vanishes_at(a, p * q * d)
            )
    return out


def _new_hypotheses(a, partner, keys):
    out = {}
    for kind, args in keys:
        if kind == "decompose":
            try:
                lam_leung_decompose(a)
                out[kind, args] = True
            except PreconditionError:
                out[kind, args] = False
            except _IndependentRoute:  # past the precondition, in the empty-part self-check
                out[kind, args] = True
        elif kind == "ma":
            out[kind, args] = ma_lemma_check(a, *args)
        elif kind == "roothunt":
            out[kind, args] = roothunt_check(a, *args) is not None
        else:
            try:
                out[kind, args] = classify_absorption(a, *args, a=partner).hypothesis_held
            except InvariantViolation:  # the dichotomy is asserted only under the hypothesis
                out[kind, args] = True
    return out


def _assert_same_hypotheses(sets, partners):
    held = {}
    for a, partner in zip(sets, partners):
        old = _old_hypotheses(a, partner)
        assert _new_hypotheses(a, partner, old) == old, a
        for key, verdict in old.items():
            held[key[0]] = held.get(key[0], 0) + verdict
    return held


def test_hypotheses_read_the_zero_set_on_every_subset_of_z12(no_independent_route):
    sets = [coeffs(12, [(mask >> x) & 1 for x in range(12)]) for mask in range(1 << 12)]
    held = _assert_same_hypotheses(sets, sets[1:] + sets[:1])
    assert all(held[k] > 0 for k in ("decompose", "ma", "roothunt", "absorption"))


@pytest.mark.parametrize("n", [72, 200])
def test_hypotheses_read_the_zero_set_on_seeded_sets(n, no_independent_route):
    rng = random.Random(n)
    p, _m, q, _n = group(n).prime_pair()
    sets = []
    for _ in range(60):
        # one to three p-cycles, q-cycles or single points
        vec = [0] * n
        for prime in rng.choices((p, q, 1), k=rng.randint(1, 3)):
            base = rng.randrange(n)
            for j in range(prime):
                vec[(base + j * (n // prime)) % n] = 1
        sets.append(coeffs(n, vec))
    held = _assert_same_hypotheses(sets, sets[::-1])
    assert all(held[k] > 0 for k in ("decompose", "ma", "roothunt", "absorption"))


def test_hypotheses_on_the_empty_multiset(no_independent_route):
    # zero_set raises on the empty multiset, which vanishes everywhere; the
    # CLI tests pin `decompose '6:{}'`, which reaches the independent route
    empty = mm(6, [])
    assert ma_lemma_check(empty, 2) is True
    assert roothunt_check(empty, 1) is None
    assert classify_absorption(empty, 1, 2, a=mm(6, [0, 1])).hypothesis_held is False
    assert classify_absorption(mm(6, [0, 1]), 1, 2, a=empty).hypothesis_held is False
