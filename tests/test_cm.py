"""Structure conditions, explicit complements and spectra, special-case routes."""

from itertools import product

import pytest

from spectile import (
    DomainError,
    MaskMultiset,
    PreconditionError,
    build_laba_spectrum,
    build_tiling_complement_cm,
    check_t1t2,
    group,
    maxpower_check,
    nopq_complement,
    sa_record,
    tiling_implies_spectral,
    verify_spectral_pair,
    verify_tiling_pair,
    zero_set,
)
from spectile.search import canonical_sets, find_spectrum

import oracles


def mm(n, elems):
    return MaskMultiset.from_elements(n, elems)


# ---------------------------------------------------------------------------
# prime-power vanishing records


def test_sa_record_full_group():
    assert sa_record(mm(6, range(6))).s_a == frozenset({2, 3})


def test_sa_record_pair():
    rec = sa_record(mm(6, [0, 3]))
    assert rec.s_a == frozenset({2})
    assert rec.exponents(2) == frozenset({1})
    assert rec.exponents(3) == frozenset()


def test_sa_record_singleton():
    assert sa_record(mm(8, [0])).s_a == frozenset()


# ---------------------------------------------------------------------------
# T1 / T2


@pytest.mark.parametrize("n,m", [(12, 4), (18, 6), (16, 8), (30, 6)])
def test_initial_segments_satisfy_both(n, m):
    assert n % m == 0
    rep = check_t1t2(mm(n, range(m)))
    assert rep.t1_holds and rep.t2_holds


def test_pair_in_z6():
    rep = check_t1t2(mm(6, [0, 3]))
    assert rep.t1_holds and rep.t2_holds
    assert rep.t1_lhs == 2 and rep.t1_rhs == 2


def test_t1_failure_example():
    # S_A is empty for {0,1,2,4} in Z_8 (oracle-checked), so the product is 1
    coeffs = mm(8, [0, 1, 2, 4]).coeffs
    assert oracles.zero_divisors(coeffs, 8) == set()
    rep = check_t1t2(mm(8, [0, 1, 2, 4]))
    assert not rep.t1_holds
    assert (rep.t1_lhs, rep.t1_rhs) == (4, 1)


def test_t2_can_fail_while_t1_holds():
    # balanced mod 2 and mod 3 but not mod 6: both prime-power roots vanish,
    # the product root survives
    a = mm(36, [0, 4, 6, 7, 11, 23])
    vd = oracles.zero_divisors(a.coeffs, 36)
    assert {2, 3} <= vd and 6 not in vd and not ({4, 9} & vd)
    rep = check_t1t2(a)
    assert rep.t1_holds and not rep.t2_holds
    assert rep.t2_witness == 6


# ---------------------------------------------------------------------------
# explicit complement and spectrum


def test_complement_of_pair_in_z6():
    t = build_tiling_complement_cm(mm(6, [0, 3]))
    assert t.support() == (0, 2, 4)


def test_complement_of_full_group_is_origin():
    assert build_tiling_complement_cm(mm(10, range(10))).support() == (0,)


def test_complement_in_z12_verifies_and_matches_brute_force():
    a = mm(12, [0, 1, 6, 7])
    t = build_tiling_complement_cm(a)
    assert t.mass() == 3
    assert verify_tiling_pair(a, t).ok
    assert tuple(sorted(t.support())) in oracles.brute_tilings(12, (0, 1, 6, 7))


def test_complement_requires_structure_conditions():
    with pytest.raises(PreconditionError):
        build_tiling_complement_cm(mm(8, [0, 1, 2, 4]))


def test_spectrum_of_pair_in_z6():
    assert build_laba_spectrum(mm(6, [0, 3])).support() == (0, 3)


def test_spectrum_of_z4():
    assert build_laba_spectrum(mm(4, range(4))).support() == (0, 1, 2, 3)


def test_spectrum_of_singleton():
    assert build_laba_spectrum(mm(9, [0])).support() == (0,)


def test_spectrum_verifies_against_oracle():
    a = mm(12, [0, 1, 6, 7])
    b = build_laba_spectrum(a)
    assert oracles.is_spectral(12, a.support(), b.support())


@pytest.mark.parametrize("n", [6, 8, 9, 12, 16, 18])
def test_construction_theorems_small_groups(n):
    # every structured canonical set admits both constructions, verified
    for rep in canonical_sets(n):
        a = mm(n, rep)
        if not check_t1t2(a).ok:
            continue
        t = build_tiling_complement_cm(a)
        b = build_laba_spectrum(a)
        assert verify_tiling_pair(a, t).ok
        assert verify_spectral_pair(a, b).ok


# ---------------------------------------------------------------------------
# tiling -> spectral reduction


def test_reduction_basic_example():
    report, b = tiling_implies_spectral(mm(6, [0, 2, 4]), mm(6, [0, 1]))
    assert report.ok
    assert oracles.is_spectral(6, (0, 2, 4), b.support())


def test_reduction_trivial_pair():
    report, b = tiling_implies_spectral(mm(10, range(10)), mm(10, [0]))
    assert report.ok
    assert b.mass() == 10


def test_reduction_z4_pair():
    report, b = tiling_implies_spectral(mm(4, [0, 1]), mm(4, [0, 2]))
    assert report.ok
    assert b.support() == (0, 2)


def test_reduction_rejects_double_repeated_primes():
    a = mm(36, [0, 1, 2, 3, 4, 5])
    t = mm(36, [0, 6, 12, 18, 24, 30])
    assert verify_tiling_pair(a, t).ok
    with pytest.raises(DomainError):
        tiling_implies_spectral(a, t)


def test_reduction_rejects_non_tiling_input():
    with pytest.raises(PreconditionError):
        tiling_implies_spectral(mm(6, [0, 3]), mm(6, [0, 3]))


def test_reduction_certifies_every_search_tile():
    from spectile.search import enumerate_tiling_complements

    for n in (12, 16, 18, 20):
        for rep in canonical_sets(n):
            a = mm(n, rep)
            if n % a.mass():
                continue
            tilings, exhausted, _ = enumerate_tiling_complements(a)
            assert exhausted
            for t in tilings:
                report, b = tiling_implies_spectral(a, t)
                assert report.ok
                assert verify_spectral_pair(a, b).ok


# ---------------------------------------------------------------------------
# complements for sizes missing a prime


def test_nopq_pair_in_z12():
    a = mm(12, [0, 3])
    b = mm(12, [0, 6])
    assert verify_spectral_pair(a, b).ok
    comp = nopq_complement(a, b)
    assert verify_tiling_pair(a, comp).ok
    assert tuple(sorted(comp.support())) in oracles.brute_tilings(12, (0, 3))


def test_nopq_singleton():
    comp = nopq_complement(mm(12, [0]), mm(12, [0]))
    assert comp.support() == tuple(range(12))


def test_nopq_triple_in_z12():
    a = mm(12, [0, 1, 2])
    b = mm(12, [0, 4, 8])
    assert verify_spectral_pair(a, b).ok
    comp = nopq_complement(a, b)
    assert comp.mass() == 4
    assert verify_tiling_pair(a, comp).ok


def test_nopq_rejects_size_with_both_primes():
    a = mm(12, range(12))
    with pytest.raises(PreconditionError):
        nopq_complement(a, a)


def test_nopq_rejects_non_spectral_input():
    with pytest.raises(PreconditionError):
        nopq_complement(mm(12, [0, 1]), mm(12, [0, 1]))


def test_nopq_works_across_small_two_prime_groups():
    # harvest spectral pairs with pq not dividing |A| via the fast search,
    # confirm each spectrum with the independent oracle, then build and
    # verify the complement
    from spectile.search import find_spectrum

    checked = 0
    for n in (6, 12, 18):
        p, m, q, ne = group(n).prime_pair()
        for rep in canonical_sets(n):
            a = mm(n, rep)
            if a.mass() % (p * q) == 0:
                continue
            out = find_spectrum(a)
            if out.verdict != "found":
                continue
            b = out.witness
            checked += 1
            if checked % 17 == 0:  # oracle confirmation is slow; thin it
                assert oracles.is_spectral(n, rep, b.support())
            comp = nopq_complement(a, b)
            assert verify_tiling_pair(a, comp).ok
    assert checked == 75  # every qualifying spectral set at these orders


# ---------------------------------------------------------------------------
# full-power sizes


def test_maxpower_full_group():
    a = mm(12, range(12))
    assert maxpower_check(a, a).ok


def test_maxpower_quarter_lattice():
    a = mm(12, [0, 3, 6, 9])
    assert verify_spectral_pair(a, a).ok
    assert maxpower_check(a, a).ok


def test_maxpower_half_interval():
    a = mm(12, range(6))
    b = mm(12, [0, 2, 4, 6, 8, 10])
    assert verify_spectral_pair(a, b).ok
    assert maxpower_check(a, b).ok


def test_maxpower_rejects_wrong_size():
    a = mm(12, [0, 3])
    b = mm(12, [0, 6])
    with pytest.raises(PreconditionError):
        maxpower_check(a, b)


def test_every_search_tile_satisfies_t1():
    from spectile.search import enumerate_tiling_complements

    for n in range(2, 17):
        for rep in canonical_sets(n):
            a = mm(n, rep)
            if n % a.mass():
                continue
            tilings, exhausted, _ = enumerate_tiling_complements(a)
            assert exhausted
            if tilings:
                assert check_t1t2(a).t1_holds


def test_reduction_prime_power_order():
    report, b = tiling_implies_spectral(mm(8, [0, 4]), mm(8, [0, 1, 2, 3]))
    assert report.ok
    assert oracles.is_spectral(8, (0, 4), b.support())


# ---------------------------------------------------------------------------
# the Phi-product constructions against their hand-written references


def _prime_of(s, ctx):
    return next(p for p in ctx.primes if s % p == 0)


def _cm_complement_reference(a, s_a):
    # Phi_s(X^{N_s}) for each missing prime power s, N_s found by stripping
    # the prime of s from N
    ctx, n = a.ctx, a.n
    factors = []
    for s in ctx.prime_powers:
        if s in s_a:
            continue
        n_s = n
        while n_s % _prime_of(s, ctx) == 0:
            n_s //= _prime_of(s, ctx)
        factors.append((s, n_s))
    return oracles.phi_power_product((1,) + (0,) * (n - 1), n, factors)


def _laba_spectrum_reference(a, s_a):
    # every digit sum over s in S_A of k_s * N/s, 0 <= k_s < p_s
    n = a.n
    s_list = sorted(s_a)
    digits = product(*(range(_prime_of(s, a.ctx)) for s in s_list))
    return sorted({sum(k * (n // s) for k, s in zip(ks, s_list)) % n for ks in digits})


def _nopq_reference(a):
    # the levels r with no Phi_{p^r q^k} | A, over the sum of X^{p^m s}
    ctx, n = a.ctx, a.n
    p, m, q, n_exp = ctx.prime_pair()
    if a.mass() % q == 0:
        p, m, q, n_exp = q, n_exp, p, m
    vd = zero_set(a).vanishing_divisors
    r_set = set()
    for r in range(1, m + 1):
        for k in range(0, n_exp + 1):
            if p**r * q**k in vd:
                r_set.add(r)
                break
    base = [0] * n
    for s in range(q**n_exp):
        base[(p**m) * s % n] += 1
    factors = [(p**r, 1) for r in range(1, m + 1) if r not in r_set]
    return oracles.phi_power_product(base, n, factors)


@pytest.mark.parametrize("n, structured, nopq", [(12, 29, 20), (18, 95, 50)])
def test_constructions_match_hand_written_references(n, structured, nopq):
    # every canonical set of Z_N where a construction applies: the CM
    # complement and the Laba spectrum for T1/T2 sets, and the nopq complement
    # for spectral sets whose size misses one of the two primes
    p, _m, q, _n = group(n).prime_pair()
    seen = {"structured": 0, "nopq": 0}
    for rep in canonical_sets(n):
        a = mm(n, rep)
        report = check_t1t2(a)
        if report.ok:
            seen["structured"] += 1
            t = build_tiling_complement_cm(a)
            assert t.coeffs == _cm_complement_reference(a, report.s_a)
            b = build_laba_spectrum(a)
            assert list(b.support()) == _laba_spectrum_reference(a, report.s_a)
        else:
            found = find_spectrum(a)
            if found.verdict != "found":
                continue
            b = found.witness
        if a.mass() % (p * q):
            seen["nopq"] += 1
            assert nopq_complement(a, b).coeffs == _nopq_reference(a)
    assert seen == {"structured": structured, "nopq": nopq}
