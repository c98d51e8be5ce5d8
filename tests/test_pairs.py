"""Pair verification, absorption, extensions, profiles, deficits, exclusion."""

import random
from functools import lru_cache
from itertools import combinations

import pytest

from spectile import (
    DomainError,
    GroupContext,
    MaskMultiset,
    PreconditionError,
    absorption_free_closure,
    check_wt1,
    check_wt2,
    classify_absorption,
    deficit_bounds_check,
    exclusion_predicate,
    extend_pair,
    group,
    is_primitive,
    k_set,
    required_roots_panel,
    root_profile,
    scale_spectrum,
    symmetry_check,
    verify_spectral_pair,
    verify_tiling_pair,
)
from spectile import pairs as pairs_mod
from spectile.pairs import MemberProfile, spectral_routes, tiling_routes

import oracles


def mm(n, elems):
    return MaskMultiset.from_elements(n, elems)


def pair(n, a, b):
    res = verify_spectral_pair(mm(n, a), mm(n, b))
    assert res.ok
    return res.pair


# ---------------------------------------------------------------------------
# verification


def test_verify_spectral_examples():
    assert verify_spectral_pair(mm(12, [0, 1, 6, 7]), mm(12, [0, 1, 6, 7])).ok
    assert verify_spectral_pair(mm(9, range(9)), mm(9, range(9))).ok
    res = verify_spectral_pair(mm(4, [0, 1]), mm(4, [0, 1]))
    assert not res.ok and res.reason == "difference" and res.witness == (1, 0)


def test_verify_spectral_cardinality_mismatch():
    res = verify_spectral_pair(mm(6, [0, 3]), mm(6, [0, 2, 4]))
    assert not res.ok and res.reason == "cardinality"


def test_verify_tiling_examples():
    assert verify_tiling_pair(mm(12, [0, 1, 6, 7]), mm(12, [0, 2, 4])).ok
    assert verify_tiling_pair(mm(7, range(7)), mm(7, [0])).ok
    assert not verify_tiling_pair(mm(6, [0, 3]), mm(6, [0, 3])).ok


def test_verify_tiling_shared_difference_witness():
    res = verify_tiling_pair(mm(6, [0, 3]), mm(6, [0, 2, 3]))
    assert not res.ok
    assert res.reason == "shared_difference" and res.witness == 3


def test_routes_agree_on_random_candidates():
    rng = random.Random(4)
    for _ in range(250):
        n = rng.choice([6, 8, 12, 16, 18])
        k = rng.randint(1, 6)
        a = mm(n, rng.sample(range(n), k))
        b = mm(n, rng.sample(range(n), k))
        r1, r2, _ = spectral_routes(a, b)
        assert r1 == r2
        t1, t2b, _ = tiling_routes(a, b)
        if a.mass() * b.mass() == n:
            assert t1 == t2b


def test_spectral_verdict_matches_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([6, 8, 12])
        k = rng.randint(2, 4)
        a = rng.sample(range(n), k)
        b = rng.sample(range(n), k)
        ours = verify_spectral_pair(mm(n, a), mm(n, b)).ok
        assert ours == oracles.is_spectral(n, a, b)


def test_tiling_verdict_matches_oracle():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([6, 8, 12])
        k = rng.choice([d for d in (2, 3, 4) if n % d == 0])
        a = rng.sample(range(n), k)
        t = rng.sample(range(n), n // k)
        ours = verify_tiling_pair(mm(n, a), mm(n, t)).ok
        assert ours == oracles.is_tiling(n, a, t)


def test_scale_spectrum():
    p = pair(12, [0, 1, 6, 7], [0, 1, 6, 7])
    assert scale_spectrum(p, 1).b.coeffs == p.b.coeffs
    assert scale_spectrum(p, 5).verified
    assert scale_spectrum(p, 11).verified
    with pytest.raises(DomainError):
        scale_spectrum(p, 3)


def test_scale_spectrum_all_units_reverify():
    p = pair(18, [0, 1, 2, 9, 10, 11], [0, 3, 6, 9, 12, 15])
    for m in group(18).units():
        assert scale_spectrum(p, m).verified


# ---------------------------------------------------------------------------
# primitivity


def test_primitivity_examples():
    assert is_primitive(mm(6, [0, 1]))
    assert not is_primitive(mm(6, [0, 2, 4]))
    assert not is_primitive(mm(6, [0, 3]))


def test_primitivity_three_prime_order_uses_coset_route():
    assert not is_primitive(mm(30, [0, 10, 20]))
    assert is_primitive(mm(30, [0, 1]))
    assert not is_primitive(mm(30, [1, 11]))  # coset of 10Z_30


def test_primitivity_translation_of_subgroup_detected():
    assert not is_primitive(mm(12, [1, 5, 9]))


def test_primitivity_matches_coset_oracle():
    cases = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]
    cases += [(n, k) for n in (30, 36) for k in range(1, 5)]  # three primes; a square
    for n, k in cases:
        for s in combinations(range(n), k):
            assert is_primitive(mm(n, s)) == (not oracles.in_proper_coset(n, s)), (n, s)


# ---------------------------------------------------------------------------
# absorption


def test_classify_absorption_whole_set_in_one_class():
    # {0,3} lies inside a single class mod 3, so the level-0 class absorbs
    rep = classify_absorption(mm(6, [0, 3]), 1, 3)
    assert rep.verdicts == (("absorbed", 0),)


def test_classify_absorption_full_group_equidistributed():
    rep = classify_absorption(mm(6, range(6)), 1, 2)
    assert rep.verdicts == (("equidistributed", None),)


def test_classify_absorption_even_split():
    rep = classify_absorption(mm(6, [0, 1]), 1, 2)
    assert rep.verdicts == (("equidistributed", None),)


def test_classify_absorption_neither():
    rep = classify_absorption(mm(12, [0, 1, 2]), 1, 2)
    assert rep.verdicts == (("neither", None),)


def test_classify_absorption_per_class_verdicts():
    rep = classify_absorption(mm(12, [0, 2, 4, 6]), 2, 2)
    assert rep.verdicts[0] == ("equidistributed", None)
    assert rep.verdicts[1] == ("equidistributed", None)


def test_classify_absorption_hypothesis_assertion_path():
    # (A, B) with A(zeta_N^d) != 0, B(zeta_pd) != 0 = B(zeta_pqd) at d = 1:
    # {0,2,4} survives at zeta_12, keeps B(zeta_2) = 3, kills B(zeta_6)
    a = mm(12, [0, 2, 4])
    b = mm(12, [0, 2, 4])
    assert verify_spectral_pair(a, b).ok
    rep = classify_absorption(b, 1, 2, a=a)
    assert rep.hypothesis_held
    assert all(v != "neither" for v, _ in rep.verdicts)
    assert any(v == "absorbed" for v, _ in rep.verdicts)


def test_classify_absorption_rejects_a_partner_from_another_group():
    with pytest.raises(DomainError):
        classify_absorption(mm(12, [0, 2, 4]), 1, 2, a=mm(24, [0, 2, 4]))


def test_k_set_examples():
    assert k_set(mm(12, [0, 6]), 2) == frozenset({0})
    assert k_set(mm(12, [0, 6]), 3) == frozenset({0})
    assert k_set(mm(12, [0, 1, 6, 7]), 2) == frozenset()
    assert k_set(mm(12, range(12)), 2) == frozenset()


# ---------------------------------------------------------------------------
# extensions


def test_extend_pair_example():
    p = pair(12, [0, 1], [0, 6])
    out = extend_pair(p, 2, 0)
    assert sorted(out.a.support()) == [0, 1, 6, 7]
    assert sorted(out.b.support()) == [0, 3, 6, 9]
    assert out.verified


def test_extend_pair_rejects_unabsorbed_level():
    p = pair(12, [0, 1], [0, 6])
    with pytest.raises(PreconditionError):
        extend_pair(p, 2, 1)


def test_extend_pair_search_instances_reverify():
    # scan small groups for levels with full absorption and push each one
    from spectile.search import canonical_sets, find_spectrum

    hits = 0
    for n in (12, 18):
        ctx = group(n)
        p, m, q, ne = ctx.prime_pair()
        for rep in canonical_sets(n):
            a = mm(n, rep)
            out = find_spectrum(a)
            if out.verdict != "found":
                continue
            sp = verify_spectral_pair(a, out.witness)
            assert sp.ok
            for prime in (p, q):
                for k in sorted(k_set(out.witness, prime)):
                    ext = extend_pair(sp.pair, prime, k)
                    assert ext.verified
                    hits += 1
    assert hits > 100


def test_closure_is_absorption_free_and_idempotent():
    p = pair(12, [0, 1], [0, 6])
    closed = absorption_free_closure(p)
    ctx = closed.ctx
    for prime in ctx.primes:
        assert k_set(closed.a, prime) == frozenset()
        assert k_set(closed.b, prime) == frozenset()
    again = absorption_free_closure(closed)
    assert again.a.coeffs == closed.a.coeffs
    assert again.b.coeffs == closed.b.coeffs


def test_closure_identity_on_absorption_free_pair():
    p = pair(12, [0, 1, 6, 7], [0, 1, 6, 7])
    if all(
        not k_set(getattr(p, side), prime)
        for side in ("a", "b")
        for prime in (2, 3)
    ):
        closed = absorption_free_closure(p)
        assert closed.a.coeffs == p.a.coeffs and closed.b.coeffs == p.b.coeffs


def _extension_reference(pair, p, k):
    # A times Phi_{p^{m-k}}(X^{N/p^m}) and B times Phi_{p^{k+1}}(X^{N/p^m})
    ctx, n = pair.ctx, pair.ctx.n
    m = ctx.valuation(p)
    other = n // p**m
    return (
        oracles.phi_power_product(pair.a.coeffs, n, [(p ** (m - k), other)]),
        oracles.phi_power_product(pair.b.coeffs, n, [(p ** (k + 1), other)]),
    )


def _closure_reference(pair):
    # two running products per round, then the member that carried the
    # absorption decides which side takes which
    ctx, n = pair.ctx, pair.ctx.n
    p, m, q, n_exp = ctx.prime_pair()
    a, b = pair.a.coeffs, pair.b.coeffs
    for _ in range(m + n_exp + 1):
        for member, prime in (("b", p), ("b", q), ("a", p), ("a", q)):
            ks = k_set(MaskMultiset(ctx, b if member == "b" else a), prime)
            if ks:
                break
        else:
            return a, b
        mv = ctx.valuation(prime)
        other = n // prime**mv
        unit = (1,) + (0,) * (n - 1)
        grow_set = grow_spec = unit
        for k in sorted(ks):
            grow_set = oracles.phi_power_product(grow_set, n, [(prime ** (mv - k), other)])
            grow_spec = oracles.phi_power_product(grow_spec, n, [(prime ** (k + 1), other)])
        if member == "b":
            a, b = _cyclic_times(a, grow_set), _cyclic_times(b, grow_spec)
        else:
            a, b = _cyclic_times(a, grow_spec), _cyclic_times(b, grow_set)
    raise AssertionError("reference closure exceeded its round cap")


def _cyclic_times(x, y):
    n = len(x)
    out = [0] * n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[(i + j) % n] += xi * yj
    return tuple(out)


@pytest.mark.parametrize("n, spectral, extensions, grown", [(12, 29, 32, 27), (18, 95, 103, 93)])
def test_extension_and_closure_match_hand_written_references(n, spectral, extensions, grown):
    # every spectral canonical set of Z_N, paired with its found spectrum
    from spectile.search import canonical_sets, find_spectrum

    seen = {"spectral": 0, "extensions": 0, "grown": 0}
    for rep in canonical_sets(n):
        a = mm(n, rep)
        found = find_spectrum(a)
        if found.verdict != "found":
            continue
        sp = verify_spectral_pair(a, found.witness).pair
        seen["spectral"] += 1
        for prime in sp.ctx.primes:
            for k in sorted(k_set(sp.b, prime)):
                ext = extend_pair(sp, prime, k)
                assert (ext.a.coeffs, ext.b.coeffs) == _extension_reference(sp, prime, k)
                seen["extensions"] += 1
        closed = absorption_free_closure(sp)
        assert (closed.a.coeffs, closed.b.coeffs) == _closure_reference(sp)
        seen["grown"] += closed.a.mass() > a.mass()
    assert seen == {"spectral": spectral, "extensions": extensions, "grown": grown}


# ---------------------------------------------------------------------------
# root profiles


def test_profile_pair_in_z6():
    prof = root_profile(pair(6, [0, 3], [0, 3]))
    assert prof.a.s_p == frozenset({1})
    assert prof.a.s_q == frozenset()
    assert prof.a.r_p == frozenset({0})
    assert prof.a.m0 == 1
    assert prof.a.n0 == -1


def test_profile_full_group():
    n = 12
    prof = root_profile(pair(n, range(n), range(n)))
    assert prof.a.s_p == frozenset({1, 2}) and prof.a.s_q == frozenset({1})
    assert prof.a.r_p == frozenset({0, 1, 2}) and prof.a.r_q == frozenset({0, 1})
    assert prof.a.m0 == -1 and prof.a.n0 == -1


def test_profile_singleton():
    prof = root_profile(pair(6, [0], [0]))
    assert prof.a.s_p == frozenset() and prof.a.r_p == frozenset()
    assert prof.a.m0 == 1 and prof.a.n0 == 1
    assert prof.a.u_p == frozenset() and prof.a.def_p == 0 and prof.a.def_q == 0


@lru_cache(maxsize=None)
def _van(coeffs, d):
    return oracles.vanishes(coeffs, d)


@lru_cache(maxsize=None)
def _van_root_power(coeffs, n, e):
    return oracles.value_at_root_power(coeffs, n, e)


def _k_set_oracle(supp, p, e):
    # level j is absorbed when each class mod p^j meets one class mod p^(j+1)
    return frozenset(
        j
        for j in range(e)
        if all(
            len({y % p ** (j + 1) for y in supp if y % p**j == c}) <= 1
            for c in range(p**j)
        )
    )


def _member_oracle(x, partner):
    """x's MemberProfile from sympy remainders of the unfolded masks."""
    n = x.n
    (p, m), (q, ne) = x.ctx.factorization
    xc, pc = x.coeffs, partner.coeffs

    def at(p, e, q):
        s = frozenset(j for j in range(1, e + 1) if _van(xc, p**j))
        r = frozenset(j for j in range(e + 1) if _van_root_power(xc, n, p**j))
        alive = [j for j in range(e + 1) if j not in r]
        u = frozenset(
            j for j in range(1, e + 1) if not _van(xc, p**j) and _van(xc, p**j * q)
        )
        deficit = sum(
            1
            for j in range(e)
            if not _van(xc, p ** (j + 1)) and _van_root_power(pc, n, p**j)
        )
        k = _k_set_oracle(x.support(), p, e)
        return s, r, (max(alive) if alive else -1), u, k, deficit

    s_p, r_p, m0, u_p, k_p, def_p = at(p, m, q)
    s_q, r_q, n0, u_q, k_q, def_q = at(q, ne, p)
    return MemberProfile(
        s_p=s_p, s_q=s_q, r_p=r_p, r_q=r_q, m0=m0, n0=n0,
        u_p=u_p, u_q=u_q, k_p=k_p, k_q=k_q, def_p=def_p, def_q=def_q,
    )


def _wt2_oracle(x, p, e, q):
    xc = x.coeffs
    k = 0
    while k < e and _van(xc, p ** (k + 1)):
        k += 1
    if not _van(xc, q) or k == 0:
        return "not_applicable"
    return "holds" if all(_van(xc, p**j * q) for j in range(1, k + 1)) else "fails"


def _assert_reporters_match_oracles(sp):
    (p, m), (q, ne) = sp.ctx.factorization
    prof = root_profile(sp)
    assert prof.a == _member_oracle(sp.a, sp.b)
    assert prof.b == _member_oracle(sp.b, sp.a)
    panel = required_roots_panel(sp)
    for label, x in (("a", sp.a), ("b", sp.b)):
        xc = x.coeffs
        assert panel[label] == {
            "zeta_N": _van(xc, x.n),
            "zeta_p": _van(xc, p),
            "zeta_q": _van(xc, q),
            "zeta_p_max": _van(xc, p**m),
            "zeta_q_max": _van(xc, q**ne),
        }
        for pr, e in ((p, m), (q, ne)):
            k = sum(_van(xc, pr**j) for j in range(1, e + 1))
            size = x.mass()
            assert check_wt1(x, pr) == (size % pr**k == 0 and (size // pr**k) % pr != 0)
        assert check_wt2(x, p, q) == _wt2_oracle(x, p, m, q)
        assert check_wt2(x, q, p) == _wt2_oracle(x, q, ne, p)


def test_profile_matches_definitional_recomputation():
    from spectile.search import canonical_sets, find_spectrum

    checked = 0
    for rep in canonical_sets(12):
        a = mm(12, rep)
        out = find_spectrum(a)
        if out.verdict != "found":
            continue
        sp = verify_spectral_pair(a, out.witness)
        prof = root_profile(sp.pair)
        n, p, m, q, ne = 12, 2, 2, 3, 1
        bc = out.witness.coeffs

        def van(cs, d):
            return oracles.vanishes(cs, d)

        ac = a.coeffs
        s_p = {x for x in range(1, m + 1) if van(ac, 2**x)}
        r_p = {
            x
            for x in range(0, m + 1)
            if oracles.value_at_root_power(ac, n, 2**x)
        }
        u_p = {
            x
            for x in range(1, m + 1)
            if not van(bc, 2**x) and van(bc, 2**x * 3)
        }
        assert prof.a.s_p == frozenset(s_p)
        assert prof.a.r_p == frozenset(r_p)
        assert prof.b.u_p == frozenset(u_p)
        alive = [x for x in range(0, m + 1) if x not in r_p]
        assert prof.a.m0 == (max(alive) if alive else -1)
        def_p_a = sum(
            1
            for x in range(0, m)
            if not van(ac, 2 ** (x + 1))
            and oracles.value_at_root_power(bc, n, 2**x)
        )
        assert prof.a.def_p == def_p_a
        _assert_reporters_match_oracles(sp.pair)
        checked += 1
    assert checked >= 25  # every spectral canonical set of Z_12
    for n in (18, 20):
        reps = list(canonical_sets(n))
        random.Random(f"profile:{n}").shuffle(reps)
        sampled = 0
        for rep in reps:
            a = mm(n, rep)
            out = find_spectrum(a)
            if out.verdict == "found":
                _assert_reporters_match_oracles(verify_spectral_pair(a, out.witness).pair)
                sampled += 1
                if sampled == 60:
                    break
        assert sampled == 60


# ---------------------------------------------------------------------------
# weak structure conditions


def test_wt1_examples():
    assert check_wt1(mm(6, [0, 3]), 2)
    assert check_wt1(mm(6, range(6)), 2)
    assert check_wt1(mm(8, [0, 1, 2, 3]), 2)
    # no 2-power root at all: 2^0 does not exactly divide |A| = 2
    assert not check_wt1(mm(24, [0, 8]), 2)


def test_wt2_examples():
    assert check_wt2(mm(12, range(12)), 2, 3) == "holds"
    assert check_wt2(mm(6, [0, 3]), 2, 3) == "not_applicable"


def test_wt2_matches_oracle_recomputation():
    a = mm(12, [0, 1, 4, 5, 8, 9])
    ac = a.coeffs
    applicable = oracles.vanishes(ac, 3) and oracles.vanishes(ac, 2)
    k = 0
    while k < 2 and oracles.vanishes(ac, 2 ** (k + 1)):
        k += 1
    expected = "not_applicable"
    if applicable and k:
        expected = (
            "holds"
            if all(oracles.vanishes(ac, 2**j * 3) for j in range(1, k + 1))
            else "fails"
        )
    assert check_wt2(a, 2, 3) == expected


def test_wt2_failure_instance():
    a = mm(36, [0, 4, 6, 7, 11, 23])
    assert check_wt2(a, 2, 3) == "fails"


def test_weak_structure_checks_reject_the_empty_multiset():
    empty = mm(12, [])
    with pytest.raises(DomainError):
        check_wt1(empty, 2)
    with pytest.raises(DomainError):
        check_wt2(empty, 2, 3)


def test_reporters_read_the_stored_zero_set(monkeypatch):
    sp = pair(12, [0, 3, 6, 9], [0, 1, 2, 3])

    def recompute(*args):
        raise AssertionError("a reporter folded and divided afresh")

    monkeypatch.setattr(pairs_mod, "vanishes_at", recompute)
    monkeypatch.setattr(pairs_mod, "dilate", recompute)
    assert root_profile(sp).a.s_p == frozenset({1, 2})
    symmetry_check(sp)
    deficit_bounds_check(sp)
    assert required_roots_panel(sp)["a"]["zeta_N"]
    for x in (sp.a, sp.b):
        check_wt1(x, 2)
        check_wt1(x, 3)
        check_wt2(x, 2, 3)
        check_wt2(x, 3, 2)


# ---------------------------------------------------------------------------
# symmetry and deficit reports


def test_symmetry_trivial_pairs():
    rep = symmetry_check(pair(12, range(12), range(12)))
    assert rep["p"]["equal"] and rep["q"]["equal"]
    rep = symmetry_check(pair(12, [0], [0]))
    assert rep["p"]["equal"] and rep["q"]["equal"]


def test_symmetry_reports_both_sides():
    rep = symmetry_check(pair(6, [0, 3], [0, 3]))
    assert set(rep) == {"p", "q"}
    assert "lhs" in rep["p"] and "rhs" in rep["p"]


def test_required_roots_panel_shape():
    panel = required_roots_panel(pair(12, [0, 1, 6, 7], [0, 1, 6, 7]))
    assert set(panel) == {"a", "b"}
    assert set(panel["a"]) == {"zeta_N", "zeta_p", "zeta_q", "zeta_p_max", "zeta_q_max"}


def test_deficit_report_structure_and_values():
    rep = deficit_bounds_check(pair(6, [0, 3], [0, 3]))
    assert rep["size"] == 2
    assert set(rep["size_bounds"]) == {
        "p_sb_defpb_q_sa",
        "p_sa_defpa_q_sb",
        "p_sb_q_sa_defqa",
        "p_sa_q_sb_defqb",
    }
    # S(2) = {1} both sides, S(3) empty; the q-deficits are 1 because the
    # sets survive at zeta_3 while the partner dies at zeta_6
    assert rep["size_bounds"]["p_sb_defpb_q_sa"]["bound"] == 2
    assert rep["size_bounds"]["p_sa_defpa_q_sb"]["bound"] == 2
    assert rep["size_bounds"]["p_sb_q_sa_defqa"]["bound"] == 6
    assert rep["size_bounds"]["p_sa_q_sb_defqb"]["bound"] == 6
    assert all(slot["holds"] for slot in rep["size_bounds"].values())
    assert rep["divisibility"]["a"]["s_plus_u_p"]["modulus"] == 2
    assert rep["divisibility"]["a"]["s_plus_u_p"]["divides"]


def test_deficit_report_on_survey_pair():
    rep = deficit_bounds_check(pair(12, [0, 1, 6, 7], [0, 1, 6, 7]))
    assert rep["size"] == 4
    prof = rep["profile"]
    assert prof["a"]["s_p"] == [1, 2] and prof["a"]["s_q"] == []


# ---------------------------------------------------------------------------
# exponent-shape exclusion


def test_exclusion_table():
    cases = [
        ((2, 9), (3, 100), "EXCLUDED"),
        ((2, 100), (3, 6), "EXCLUDED"),
        ((2, 5), (3, 7), "EXCLUDED"),
        ((2, 100), (3, 100), "OPEN"),
    ]
    for (p, m), (q, n), want in cases:
        ctx = GroupContext.from_factorization([(p, m), (q, n)])
        assert exclusion_predicate(ctx).verdict == want


def test_exclusion_normalizes_prime_order():
    ctx = GroupContext.from_factorization([(3, 100), (2, 9)])
    out = exclusion_predicate(ctx)
    assert out.verdict == "EXCLUDED"
    assert out.bounds["p"] == 2 and out.bounds["m"] == 9


def test_exclusion_second_clause_boundary():
    # 2^(m-2) against 3^4 = 81: m = 8 gives 64 < 81, m = 9 gives 128 > 81,
    # but both are excluded by m <= 9; m = 10 with n = 7 must be OPEN
    ctx = GroupContext.from_factorization([(2, 10), (3, 7)])
    out = exclusion_predicate(ctx)
    assert out.verdict == "OPEN"
    ctx = GroupContext.from_factorization([(2, 10), (11, 7)])
    # 2^8 = 256 < 11^4, so the deficit window closes despite m = 10
    assert exclusion_predicate(ctx).verdict == "EXCLUDED"


def test_exclusion_reports_bound_data():
    ctx = GroupContext.from_factorization([(2, 100), (3, 100)])
    out = exclusion_predicate(ctx)
    assert out.bounds["ceil_log_p_q"] == 2
    assert out.bounds["m_required"] == 10 and out.bounds["n_required"] == 7
    assert out.bounds["deficit_window_q"] == {"lower": 3, "upper": 96}


def test_exclusion_rejects_wrong_prime_count():
    with pytest.raises(DomainError):
        exclusion_predicate(group(30))
    with pytest.raises(DomainError):
        exclusion_predicate(group(8))


def test_scale_requires_verified_pair():
    from spectile import SpectralPair

    fake = SpectralPair(mm(6, [0, 3]), mm(6, [0, 3]), verified=False)
    with pytest.raises(PreconditionError):
        scale_spectrum(fake, 1)


def test_exclusion_reasons_name_their_provenance():
    def reasons(fact):
        return exclusion_predicate(GroupContext.from_factorization(fact)).reasons

    # 7 <= m <= 9 is derived from the deficit window, not stated in the paper
    only = reasons([(2, 9), (3, 100)])
    assert len(only) == 1 and only[0].startswith("[derived] ")
    for fact in ([(2, 100), (3, 6)], [(2, 5), (3, 7)]):
        got = reasons(fact)
        assert got and all(r.startswith("[paper] ") for r in got)
    assert len(reasons([(2, 5), (3, 7)])) == 2  # m <= 6 and 2^3 < 3^4
