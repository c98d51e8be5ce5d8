"""Core arithmetic: cyclotomics, vanishing tests, multiset transforms, parsing."""

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectile import (
    DomainError,
    InvariantViolation,
    MaskMultiset,
    ParseError,
    canonical_sets,
    cyclic_product,
    cyclotomic,
    difference_set,
    dilate,
    divisors,
    group,
    is_full_group_product,
    parse_multiset,
    restrict_class,
    vanishes_at,
    verify_spectral_pair,
    zero_set,
    ZeroSet,
)
from spectile import cm, zn
from spectile.zn import phi_product, poly_mul, poly_trim

import oracles


def mm(n, elems):
    return MaskMultiset.from_elements(n, elems)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_base_case():
    assert cyclotomic(1).coeffs == (-1, 1)


def test_cyclotomic_4():
    assert cyclotomic(4).coeffs == (1, 0, 1)


def test_cyclotomic_12_against_naive_division():
    num = [0] * 13
    num[0], num[12] = -1, 1
    for e in (1, 2, 3, 4, 6):
        num = oracles.naive_divide(num, list(cyclotomic(e).coeffs))
    assert tuple(num) == (1, 0, -1, 0, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("d", [*range(1, 401), 1155, 2310])
def test_cyclotomic_matches_sympy(d):
    ours = list(cyclotomic(d).coeffs)
    theirs = list(reversed(oracles.cyclo_poly(d).all_coeffs()))
    assert ours == theirs


@pytest.mark.parametrize("d", range(2, 61))
def test_cyclotomic_value_at_one(d):
    fact = [p for p, _ in group(d).factorization]
    expected = fact[0] if len(fact) == 1 else 1
    assert cyclotomic(d).at_one() == expected


def test_cyclotomic_degree_is_totient():
    for d in range(1, 40):
        phi = sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
        assert cyclotomic(d).degree == phi


def test_product_of_cyclotomics_is_xn_minus_1():
    for n in (1, 2, 6, 12, 30, 36, 48, 60):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul(prod, list(cyclotomic(d).coeffs))
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert poly_trim(prod) == poly_trim(expected)


# ---------------------------------------------------------------------------
# vanishing tests


def test_vanishes_pair_cycle():
    assert vanishes_at(mm(6, [0, 3]), 2)
    assert not vanishes_at(mm(6, [0, 3]), 3)
    assert vanishes_at(mm(6, [0, 3]), 6)


def test_vanishes_singleton_never():
    for n in (4, 9, 12):
        a = mm(n, [0])
        for d in divisors(n):
            if d > 1:
                assert not vanishes_at(a, d)


def test_vanishes_full_group_everywhere():
    a = mm(12, range(12))
    for d in divisors(12):
        if d > 1:
            assert vanishes_at(a, d)


def test_vanishes_rejects_non_divisor():
    with pytest.raises(DomainError):
        vanishes_at(mm(6, [0, 3]), 4)


def test_zero_set_examples():
    assert zero_set(mm(12, [0, 1, 6, 7])).vanishing_divisors == frozenset({2, 4, 12})
    assert zero_set(mm(8, [0])).vanishing_divisors == frozenset()
    assert zero_set(mm(6, range(6))).vanishing_divisors == frozenset({2, 3, 6})


def test_zero_set_membership_through_gcd():
    za = zero_set(mm(12, [0, 1, 6, 7]))
    assert za.residues() == frozenset({1, 3, 5, 6, 7, 9, 11})
    assert za.contains(6) and za.contains(-1) and not za.contains(4)


def test_zero_set_empty_multiset_rejected():
    with pytest.raises(DomainError):
        zero_set(MaskMultiset.from_coeffs(6, [0] * 6))


@pytest.mark.parametrize("n", [6, 8, 12, 18, 20])
def test_zero_set_matches_independent_oracle(n):
    import random

    rng = random.Random(n)
    for _ in range(25):
        elems = rng.sample(range(n), rng.randint(1, n))
        a = mm(n, elems)
        assert zero_set(a).vanishing_divisors == frozenset(
            oracles.zero_divisors(a.coeffs, n)
        )


# ---------------------------------------------------------------------------
# transforms


def test_dilate_collapses_pair():
    out = dilate(mm(6, [0, 3]), 2)
    assert out.coeffs == (2, 0, 0, 0, 0, 0)


def test_dilate_identity():
    a = mm(10, [0, 1, 7])
    assert dilate(a, 1).coeffs == a.coeffs


def test_dilate_doubling_in_z4():
    assert dilate(mm(4, [0, 1, 2, 3]), 2).coeffs == (2, 0, 2, 0)


def test_restrict_class_examples():
    a = mm(6, [0, 3])
    assert restrict_class(a, 0, 3).coeffs == a.coeffs
    assert restrict_class(a, 1, 3).is_empty()
    assert restrict_class(a, 2, 3).is_empty()
    assert restrict_class(mm(4, range(4)), 1, 2).support() == (1, 3)
    with pytest.raises(DomainError):
        restrict_class(a, 0, 4)


def test_restrict_class_partitions_mass():
    a = mm(12, [0, 1, 5, 6, 7, 11])
    for m in (2, 3, 4, 6, 12):
        assert sum(restrict_class(a, j, m).mass() for j in range(m)) == a.mass()


def test_difference_set_examples():
    assert difference_set(mm(6, [0, 3])) == frozenset({0, 3})
    assert difference_set(mm(9, [0])) == frozenset({0})
    assert difference_set(mm(12, [0, 1, 6, 7])) == frozenset({0, 1, 5, 6, 7, 11})
    with pytest.raises(DomainError):
        difference_set(MaskMultiset.from_coeffs(6, [2, 0, 0, 0, 0, 0]))


def test_difference_set_symmetry_and_zero():
    d = difference_set(mm(15, [0, 2, 3, 7]))
    assert 0 in d
    assert all((-x) % 15 in d for x in d)


def _dense_multisets(seed):
    """Multisets with multiplicities up to 5, the empty one included, at
    orders from 1 to 1000."""
    rng = random.Random(seed)
    for n in (1, 2, 6, 12, 72, 360, 1000):
        for _ in range(25):
            c = [0] * n
            for _ in range(rng.randint(0, min(n, 40))):
                c[rng.randrange(n)] += rng.randint(1, 5)
            yield MaskMultiset(group(n), tuple(c))


def test_dense_scans_match_per_coefficient_references():
    rng = random.Random("scans")
    for a in _dense_multisets("scans"):
        n, c = a.n, a.coeffs
        assert a.support() == oracles.support_by_scan(c)
        assert a.mask() == oracles.mask_by_scan(c)
        assert a.to_text() == oracles.text_by_scan(n, c)
        assert MaskMultiset.from_coeffs(n, list(c)) == a
        proper = mm(n, a.support())
        assert difference_set(proper) == oracles.difference_set_by_scan(n, proper.coeffs)
        ds = divisors(n)
        picked = frozenset(d for d in ds if rng.random() < 0.5)
        assert ZeroSet(group(n), picked).residues() == oracles.residues_by_scan(n, picked)
        if not a.is_empty():
            vd = zero_set(a).vanishing_divisors
            assert zero_set(a).residues() == oracles.residues_by_scan(n, vd)
        # a signed product longer than n, and a prefix shorter than n
        longer = poly_mul(list(c), [1, -2, 0, 3])
        for d in ds:
            for seq in (c, longer, c[: n // 2]):
                assert zn.poly_mod_xn_minus_1(seq, d) == oracles.fold_by_slices(seq, d)


# ---------------------------------------------------------------------------
# algebraic properties


group_orders = st.sampled_from([2, 3, 4, 6, 8, 9, 12, 16, 18, 20, 24])


@st.composite
def multisets(draw, proper=False, max_mass=10):
    n = draw(group_orders)
    k = draw(st.integers(1, min(n, max_mass)))
    if proper:
        elems = draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
    else:
        elems = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max_mass))
    return MaskMultiset.from_elements(n, elems)


@settings(max_examples=60, deadline=None)
@given(multisets(), st.integers(0, 40))
def test_vanishing_invariant_under_translation(a, t):
    for d in divisors(a.n):
        assert vanishes_at(a, d) == vanishes_at(a.translate(t), d)


@settings(max_examples=60, deadline=None)
@given(multisets(), st.integers(1, 200))
def test_zero_set_invariant_under_unit_dilation(a, m):
    if math.gcd(m, a.n) != 1:
        m = 1
    assert (
        zero_set(dilate(a, m)).vanishing_divisors == zero_set(a).vanishing_divisors
    )


@settings(max_examples=80, deadline=None)
@given(multisets(), st.integers(-5, 40))
def test_dilation_preserves_mass(a, m):
    assert dilate(a, m).mass() == a.mass()


@settings(max_examples=60, deadline=None)
@given(multisets())
def test_fold_agrees_with_big_ring_division(a):
    # the production path folds mod X^d - 1 first; dividing the raw length-N
    # vector by Phi_d must give the same verdict, as must the sympy oracle
    for d in divisors(a.n):
        folded_route = vanishes_at(a, d)
        _, rem = oracles.naive_divmod(a.coeffs, cyclotomic(d).coeffs)
        assert folded_route == (not any(rem))
        assert folded_route == oracles.vanishes(a.coeffs, d)


@settings(max_examples=40, deadline=None)
@given(multisets(max_mass=6), multisets(max_mass=6))
def test_full_group_product_is_an_all_ones_cyclic_product(a, b):
    if a.n != b.n:
        return
    prod = cyclic_product(a, b)
    assert is_full_group_product(a, b) == all(c == 1 for c in prod.coeffs)


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_text_form():
    a = parse_multiset("6:{0,3}")
    assert a.n == 6 and a.support() == (0, 3)


def test_parse_multiplicities_and_spaces():
    a = parse_multiset("6:{0*2, 3, 5*3}")
    assert a.coeffs == (2, 0, 0, 1, 0, 3)


def test_parse_json_form():
    a = parse_multiset('{"n":6,"coeffs":[1,0,0,1,0,0]}')
    assert a.support() == (0, 3)


def test_text_round_trip():
    for text in ("6:{0,3}", "12:{0,1,6,7}", "5:{0*2,1,4*3}"):
        a = parse_multiset(text)
        assert parse_multiset(a.to_text()).coeffs == a.coeffs


def test_json_round_trip_is_byte_identical():
    a = parse_multiset("12:{0,1,6,7}")
    blob = json.dumps(a.to_json(), sort_keys=True, separators=(",", ":"))
    again = json.dumps(
        parse_multiset(blob).to_json(), sort_keys=True, separators=(",", ":")
    )
    assert blob == again


@pytest.mark.parametrize(
    "bad",
    ["", "6", "x:{0}", "6:{0,}", "6:{a}", "6:{0*b}", "0:{0}", '{"n":6}', '{"n":6,"coeffs":[1]}'],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_multiset(bad)


@pytest.mark.parametrize(
    "bad",
    [
        '{"n":3,"coeffs":[true,false,true]}',
        '{"n":3,"coeffs":[1,0,true]}',
        '{"n":true,"coeffs":[1]}',
    ],
)
def test_parse_rejects_json_booleans(bad):
    # JSON true/false load as Python bools, which are ints
    with pytest.raises(ParseError):
        parse_multiset(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_multiset("nope")
    assert err.value.position == 0


def test_parse_bounds_the_order_before_allocating():
    top = zn.MAX_ORDER
    assert top >= 1000  # the largest order the query benchmark names
    assert parse_multiset(f"{top}:{{0,{top + 3}}}").support() == (0, 3)
    zeros = ",".join(["0"] * (top + 1))
    for bad in (f"{top + 1}:{{0}}", f'{{"n":{top + 1},"coeffs":[{zeros}]}}'):
        with pytest.raises(ParseError, match="group order|\"n\""):
            parse_multiset(bad)


# literal-shaped noise reaches the parser's deeper branches more often than
# arbitrary text does
literal_noise = st.one_of(
    st.text(),
    st.text(alphabet='0123456789:{},*-_ "[]ntrucefalsoix.e+', max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(literal_noise)
@example('{"n":' + "1" * 5000 + "}")  # past the int conversion digit limit
@example("{" + "[" * 100_000)  # past the recursion limit
def test_parse_returns_a_multiset_or_raises_parse_error(text):
    try:
        a = parse_multiset(text)
    except ParseError:
        return
    assert isinstance(a, MaskMultiset) and 1 <= a.n <= zn.MAX_ORDER


def test_fold_route_matches_big_ring_up_to_60():
    import random

    rng = random.Random(60)
    for n in range(2, 61):
        for _ in range(3):
            mass = rng.randint(1, 8)
            a = MaskMultiset.from_elements(n, [rng.randrange(n) for _ in range(mass)])
            for d in divisors(n):
                _, rem = oracles.naive_divmod(a.coeffs, cyclotomic(d).coeffs)
                assert vanishes_at(a, d) == (not any(rem))


def test_factored_context_rejects_repeated_prime():
    import pytest as _pytest

    from spectile import GroupContext

    with _pytest.raises(DomainError):
        GroupContext.from_factorization([(2, 3), (2, 4)])
    with _pytest.raises(DomainError):
        GroupContext.from_factorization([(4, 1)])


def test_factorize_bounds_trial_division():
    assert zn.factorize(2**100) == ((2, 100),)
    assert zn.factorize(10**18) == ((2, 18), (5, 18))
    big = 1099511627689  # a prime between 2^20 and 2^40
    assert zn.factorize(big) == ((big, 1),)
    assert zn.factorize(3 * big) == ((3, 1), (big, 1))
    for n in (10000000000000061, 1000000000000000003, 2**9 * 10000000000000061):
        with pytest.raises(DomainError):
            zn.factorize(n)
    with pytest.raises(DomainError):
        zn.GroupContext.from_factorization([(2, 9), (10000000000000061, 7)])


def test_trivial_group_units():
    assert group(1).units() == (0,)


def test_full_group_product_rejects_heavy_masses_and_accepts_the_unit():
    # a product of mass 90,000 over Z_6 fails at once; the all-ones set
    # times the unit {0} is the whole group
    a = MaskMultiset.from_coeffs(6, [300, 0, 0, 0, 0, 0])
    b = MaskMultiset.from_coeffs(6, [300, 0, 0, 0, 0, 0])
    assert not is_full_group_product(a, b)
    ones = MaskMultiset.from_coeffs(4, [1, 1, 1, 1])
    unit = MaskMultiset.from_coeffs(4, [1, 0, 0, 0])
    assert is_full_group_product(ones, unit)


# ---------------------------------------------------------------------------
# the stored zero set


def _check_stored_zero_set(a):
    n = a.n
    za = zero_set(a)
    direct = {d for d in divisors(n) if d > 1 and vanishes_at(a, d)}
    assert za.vanishing_divisors == direct == oracles.zero_divisors(a.coeffs, n)
    assert zero_set(a) is za


def test_stored_zero_set_matches_direct_tests_and_oracle_on_all_small_sets():
    for n in range(1, 13):
        for bits in range(1, 1 << n):
            _check_stored_zero_set(
                MaskMultiset.from_elements(n, [i for i in range(n) if bits >> i & 1])
            )


def test_stored_zero_set_matches_direct_tests_and_oracle_on_seeded_multisets():
    rng = random.Random(20_000_558)
    checked = 0
    while checked < 300:
        n = rng.choice([12, 18, 20, 24, 30, 36])
        coeffs = [rng.choice([0, 0, 0, 1, 2, 5]) for _ in range(n)]
        if any(coeffs):
            _check_stored_zero_set(MaskMultiset.from_coeffs(n, coeffs))
            checked += 1


def test_vanishes_at_ignores_the_stored_zero_set():
    # the spectral route cross-check relies on the two routes staying apart
    a = MaskMultiset.from_elements(12, [0, 1, 6, 7])
    object.__setattr__(a, "_zero_set", ZeroSet(a.ctx, frozenset()))
    assert vanishes_at(a, 2) and vanishes_at(a, 12)
    with pytest.raises(InvariantViolation):
        verify_spectral_pair(a, MaskMultiset.from_elements(12, [0, 1, 6, 7]))


# ---------------------------------------------------------------------------
# the packed binomial kernel behind zero_set

# every order the query benchmark names
QUERY_ORDERS = (72, 96, 100, 108, 144, 162, 192, 200, 216, 288, 324, 392, 400,
                432, 500, 576, 648, 675, 800, 864, 972, 1000, 180, 360, 420)


def test_zero_set_matches_division_on_every_subset_up_to_14():
    for n in range(1, 15):
        ds = [d for d in divisors(n) if d > 1]
        for bits in range(1, 1 << n):
            a = MaskMultiset.from_elements(n, [i for i in range(n) if bits >> i & 1])
            assert zero_set(a).vanishing_divisors == {d for d in ds if vanishes_at(a, d)}


def _weighted_cosets(rng, n):
    # a weighted union of subgroup cosets vanishes at many divisors but rarely
    # at all of them; weights up to 10^6 push the lane width across several
    # byte boundaries
    coeffs = [0] * n
    for _ in range(rng.randint(1, 4)):
        m = rng.choice(divisors(n)[1:])
        base = rng.randrange(n)
        weight = rng.choice([1, 2, rng.randint(1, 10**6)])
        for j in range(m):
            coeffs[(base + j * (n // m)) % n] += weight
    if rng.random() < 0.3:
        coeffs[rng.randrange(n)] += rng.randint(1, 10**6)
    return coeffs


def test_zero_set_matches_sympy_on_heavy_multisets_at_large_orders():
    rng = random.Random(72_1000)
    seen = set()
    for n in (72, 96, 100, 108, 144, 162, 180, 200, 216, 500):
        for _ in range(2):
            coeffs = _weighted_cosets(rng, n)
            vd = zero_set(MaskMultiset.from_coeffs(n, coeffs)).vanishing_divisors
            assert vd == oracles.zero_divisors(coeffs, n)
            seen.add((bool(vd), sum(coeffs).bit_length() // 8))
    # at N = 1000 sympy reduces the fold mod X^d - 1, which Phi_d divides
    # (the full-length remainders take seconds per divisor)
    for _ in range(3):
        coeffs = _weighted_cosets(rng, 1000)
        vd = zero_set(MaskMultiset.from_coeffs(1000, coeffs)).vanishing_divisors
        assert vd == {d for d in divisors(1000)[1:]
                      if oracles.vanishes(zn.poly_mod_xn_minus_1(coeffs, d), d)}
    assert {v for v, _ in seen} == {False, True}
    assert len({b for _, b in seen}) >= 3


def _lanes(packed, w, d):
    return [packed >> (w * i) & ((1 << w) - 1) for i in range(d)]


def test_packed_binomials_expand_the_prime_binomial_product():
    ds = {d for n in QUERY_ORDERS + (210, 2310) for d in divisors(n)[1:]}
    for d in sorted(ds):
        # prod over primes p | d of (X^{d/p} - 1), expanded densely, then folded
        prod = [1]
        for p, _ in group(d).factorization:
            prod = poly_mul(prod, [-1] + [0] * (d // p - 1) + [1])
        folded = list(zn.poly_mod_xn_minus_1(prod, d))
        for mass_bits in (1, 8, 21):
            pos, neg, w = zn._packed_binomials(d, mass_bits)
            p_lanes, q_lanes = _lanes(pos, w, d), _lanes(neg, w, d)
            assert [a - b for a, b in zip(p_lanes, q_lanes)] == folded
            assert pos >> (w * d) == neg >> (w * d) == 0
            # a lane of F * P or F * Q stays below 2^w for any mass < 2^mass_bits
            assert (1 << w) > ((1 << mass_bits) - 1) * (sum(p_lanes) + sum(q_lanes))
        if d <= 60:
            assert not oracles.vanishes(folded, d)
            assert all(oracles.vanishes(folded, e) for e in divisors(d)[:-1])


def test_zero_set_neither_folds_nor_divides(monkeypatch):
    # zero_set and vanishes_at are two algorithms, so each can check the other;
    # zero_set never forms Phi_d, so a wrong cyclotomic() cannot fool both
    def forbidden(*args):
        raise AssertionError("division route reached")

    zn._packed_binomials.cache_clear()
    monkeypatch.setattr(zn, "_cyclo_divides", forbidden)
    monkeypatch.setattr(zn, "poly_mod_xn_minus_1", forbidden)
    monkeypatch.setattr(zn, "cyclotomic", forbidden)
    monkeypatch.setattr(zn, "_binomial_quotient", forbidden)
    monkeypatch.setattr(zn, "_mobius_exponents", forbidden)
    a = mm(12, [0, 1, 6, 7])
    assert zero_set(a).vanishing_divisors == {2, 4, 12}
    with pytest.raises(AssertionError, match="division route"):
        vanishes_at(a, 2)
    assert zn._packed_binomials.cache_info().maxsize is not None


def test_zero_set_matches_division_on_coset_unions_at_210_and_2310():
    rng = random.Random(2310)
    for n in (210, 2310):
        sizes = set()
        for _ in range(12):
            a = MaskMultiset.from_coeffs(n, _weighted_cosets(rng, n))
            expected = {d for d in divisors(n)[1:] if vanishes_at(a, d)}
            assert zero_set(a).vanishing_divisors == expected
            sizes.add(len(expected))
        assert 0 in sizes and len(sizes) >= 4


# ---------------------------------------------------------------------------
# the lane table behind proper_zero_set: zero_set's blocks, one row per residue


def test_lane_table_matches_zero_set_and_division_on_every_subset_up_to_16():
    for n in range(1, 17):
        ctx = group(n)
        ds = [d for d in divisors(n) if d > 1]
        for bits in range(1, 1 << n):
            rep = tuple(i for i in range(n) if bits >> i & 1)
            a = mm(n, rep)
            za = zn.proper_zero_set(ctx, rep)
            assert za == zero_set(a)
            assert za.vanishing_divisors == {d for d in ds if vanishes_at(a, d)}


def test_lane_table_matches_zero_set_on_every_canonical_set_of_z20():
    ctx = group(20)
    count = 0
    for rep in canonical_sets(20):
        assert zn.proper_zero_set(ctx, rep) == zero_set(mm(20, rep))
        count += 1
    assert count == 52_487


def test_lane_table_rows_are_linear_on_seeded_multisets():
    # a multiset's blocks are its rows weighted by multiplicity, which is the
    # linearity proper_zero_set relies on; it reads off zero_set's divisors
    rng = random.Random(24_000_558)
    checked = 0
    while checked < 300:
        n = rng.choice([12, 18, 20, 24, 30, 36])
        coeffs = [rng.choice([0, 0, 0, 1, 2, 5]) for _ in range(n)]
        if max(coeffs) < 2:
            continue
        a = MaskMultiset.from_coeffs(n, coeffs)
        mass_bits = a.mass().bit_length()
        rows, width, masks = zn._lane_table(n, mass_bits)
        total = sum(c * rows[x] for x, c in enumerate(coeffs))
        agree = {d for d, mask in masks if not (total ^ total >> width) & mask}
        assert agree == zero_set(a).vanishing_divisors == {
            d for d in divisors(n)[1:] if vanishes_at(a, d)}
        checked += 1


def test_multiset_predicates():
    assert mm(6, [0, 3]).is_proper() and not mm(6, [0, 3]).is_empty()
    assert not MaskMultiset.from_coeffs(3, [0, 2, 0]).is_proper()
    assert MaskMultiset.from_coeffs(3, [0, 0, 0]).is_empty()
    assert MaskMultiset.from_coeffs(3, [0, 0, 0]).is_proper()
    with pytest.raises(DomainError):
        MaskMultiset.from_coeffs(3, [0, -1, 2])


def test_multiset_constructors_refuse_orders_past_max_order():
    # group() stays unbounded for the exclusion predicate; a dense multiset
    # of that order would allocate one slot per element
    huge = group(1 << 40)
    assert huge.n == 1 << 40
    for make in (lambda: MaskMultiset.from_elements(huge, [0]),
                 lambda: MaskMultiset.from_elements(1 << 40, [0]),
                 lambda: MaskMultiset.from_coeffs(huge, [])):
        with pytest.raises(DomainError, match="exceeds"):
            make()


# ---------------------------------------------------------------------------
# the one cyclic product


def _folded_convolution(a, b):
    # the reference: full-length product, then one fold mod X^N - 1
    return zn.poly_mod_xn_minus_1(poly_mul(list(a.coeffs), list(b.coeffs)), a.n)


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, 60))
    weights = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**6))
    a, b = (draw(st.lists(weights, min_size=n, max_size=n)) for _ in range(2))
    return MaskMultiset.from_coeffs(n, a), MaskMultiset.from_coeffs(n, b)


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
@example((MaskMultiset.from_coeffs(5, [0] * 5), MaskMultiset.from_coeffs(5, [1, 2, 0, 0, 7])))
@example((MaskMultiset.from_coeffs(6, [300, 0, 0, 0, 0, 0]),) * 2)
def test_cyclic_product_matches_folded_convolution(pair):
    a, b = pair
    assert cyclic_product(a, b).coeffs == _folded_convolution(a, b)


def test_cyclic_product_matches_folded_convolution_up_to_1000():
    rng = random.Random(1000)
    heavy = empty = 0
    for n in (1, 2, 7, 72, 144, 360, 500, 1000):
        for _ in range(4):
            operands = []
            for _ in range(2):
                coeffs = [0] * n
                for _ in range(rng.choice([0, 1, 5, 40])):
                    coeffs[rng.randrange(n)] += rng.choice([1, rng.randint(1, 10**6)])
                operands.append(MaskMultiset.from_coeffs(n, coeffs))
            a, b = operands
            heavy += a.mass() * b.mass() >= 1 << 16
            empty += a.is_empty() or b.is_empty()
            assert cyclic_product(a, b).coeffs == _folded_convolution(a, b)
    assert heavy and empty


# ---------------------------------------------------------------------------
# the one Phi-product builder

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


@st.composite
def phi_products(draw):
    n = draw(st.integers(1, 60))
    weights = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**6))
    base = draw(st.lists(weights, min_size=n, max_size=n))
    factors = draw(st.lists(
        st.tuples(st.sampled_from(PRIME_POWERS), st.integers(1, 2 * n)), max_size=4
    ))
    return MaskMultiset.from_coeffs(n, base), factors


def _folded_phi_product(base, factors):
    # the reference: multiply by each full-length Phi_s(X^t), taken from
    # sympy, with poly_mul, and fold mod X^N - 1 after every factor
    out = list(base.coeffs)
    for s, t in factors:
        phi = oracles.cyclo_poly(s).all_coeffs()[::-1]
        spread = [0] * ((len(phi) - 1) * t + 1)
        for i, c in enumerate(phi):
            spread[i * t] = int(c)
        out = list(zn.poly_mod_xn_minus_1(poly_mul(out, spread), base.n))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(phi_products())
@example((MaskMultiset.from_coeffs(12, [1] + [0] * 11), [(4, 3), (3, 4)]))
@example((MaskMultiset.from_coeffs(6, [300] * 6), []))
# Phi_6 and Phi_10 have negative coefficients, which the fold cancels here
@example((MaskMultiset.from_coeffs(12, [0, 2] + [0] * 10), [(6, 12), (10, 12), (3, 4)]))
def test_phi_product_matches_folded_poly_mul(case):
    base, factors = case
    got = phi_product(base, factors)
    assert got.coeffs == _folded_phi_product(base, factors)
    assert got.coeffs == oracles.phi_power_product(base.coeffs, base.n, factors)


@pytest.mark.parametrize("n, s, t", [(12, 6, 1), (6, 6, 1), (12, 1, 1), (12, 10, 1)])
def test_phi_product_refuses_a_factor_with_a_negative_coefficient(n, s, t):
    # Phi_s(X^t) mod X^N - 1 keeps a negative coefficient here, so it is no multiset
    unit = MaskMultiset.from_elements(n, [0])
    with pytest.raises(InvariantViolation, match="not nonnegative"):
        phi_product(unit, [(s, t)])


def _digit_tile(rng, n):
    # A takes the digits of a random set of prime levels of n, at most two
    # distinct primes among them, so A satisfies T1/T2; then a unit and a shift
    fact = [p for p, e in group(n).factorization for _ in range(e)]
    rng.shuffle(fact)
    while True:
        chosen = [i for i in range(len(fact)) if rng.random() < 0.5]
        if 0 < len(chosen) < len(fact) and len({fact[i] for i in chosen}) <= 2:
            break
    a, step = [0], 1
    for i, p in enumerate(fact):
        if i in chosen:
            a = [x + d * step for x in a for d in range(p)]
        step *= p
    u = rng.choice(group(n).units())
    shift = rng.randrange(n)
    return MaskMultiset.from_elements(n, [u * x + shift for x in a])


def _moved(rng, s):
    # s with one element moved to a residue outside it
    supp = list(s.support())
    free = [x for x in range(s.n) if x not in supp]
    supp[rng.randrange(len(supp))] = rng.choice(free)
    return MaskMultiset.from_elements(s.n, supp)


def test_full_group_product_matches_tiling_oracle_on_cm_pairs():
    rng = random.Random(72)
    misses = 0
    for n in QUERY_ORDERS:
        for _ in range(2):
            a = _digit_tile(rng, n)
            t = cm.build_tiling_complement_cm(a)
            assert is_full_group_product(a, t)
            assert oracles.is_tiling(n, a.support(), t.support())
            for x, y in ((a, _moved(rng, t)), (_moved(rng, a), t)):
                got = is_full_group_product(x, y)
                assert got == oracles.is_tiling(n, x.support(), y.support())
                misses += not got
    assert misses


def test_divisor_list_is_the_group_context_list():
    for n in (1, 12, 1000, 1 << 40):
        assert divisors(n) is group(n).divisors
    with pytest.raises(DomainError):
        divisors(0)


def _seeded_multisets(rng, d):
    """Three multisets whose folds mod X^d - 1 are tested: a few random points
    of Z_d, a union of weighted cosets of Z_d, one per prime of d (so it
    vanishes at every order but 1), with one stray point half of the time,
    and a few random points of Z_2d."""
    sparse = [0] * d
    for _ in range(rng.randint(1, 6)):
        sparse[rng.randrange(d)] += 1
    cosets = [0] * d
    for p, _ in group(d).factorization:
        base, weight = rng.randrange(d), rng.randint(1, 3)
        for j in range(p):
            cosets[(base + j * (d // p)) % d] += weight
    if rng.random() < 0.5:
        cosets[rng.randrange(d)] += 1
    wide = MaskMultiset.from_elements(2 * d, rng.sample(range(2 * d), min(2 * d, rng.randint(1, 4))))
    return MaskMultiset.from_coeffs(d, sparse), MaskMultiset.from_coeffs(d, cosets), wide


def test_route2_matches_sympy_up_to_400_and_at_1155_and_2310():
    rng = random.Random(400)
    verdicts = []
    for d in [*range(1, 401), 1155, 2310]:
        for a in _seeded_multisets(rng, d):
            v = vanishes_at(a, d)
            assert v == oracles.vanishes(a.coeffs, d), (d, a)
            verdicts.append(v)
    assert 150 < verdicts.count(True) < 1000


def test_route2_at_30030_matches_closed_forms_and_zero_set():
    # sympy needs minutes here (Phi_30030 has degree 5,760), so the oracle is
    # closed form: d is squarefree, so a coset of the subgroup of prime order
    # p vanishes exactly at the orders p divides, and 1 + X^k exactly at the
    # orders e with e / gcd(e, k) = 2
    d = 30030
    cases = [(mm(d, [0, 1]), lambda e: e == 2), (mm(d, [0, d // 2]), lambda e: e % 2 == 0)]
    for p in (3, 13):
        coset = mm(d, [17 + j * (d // p) for j in range(p)])
        cases.append((coset, lambda e, p=p: e % p == 0))
    for a, closed_form in cases:
        za = zero_set(a).vanishing_divisors
        for e in (2, 3, 26, 39, 1155, 2310, 15015, d):
            assert vanishes_at(a, e) == closed_form(e) == (e in za), (a, e)
