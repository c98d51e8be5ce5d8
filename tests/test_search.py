"""Canonical enumeration, witness searches, and the survey machinery."""

import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import combinations

import pytest

from spectile import (
    DomainError,
    InvariantViolation,
    MaskMultiset,
    SurveyOptions,
    ZeroSet,
    canonical_sets,
    check_t1t2,
    dilate,
    enumerate_tiling_complements,
    find_spectrum,
    find_tiling_complement,
    fuglede_survey,
    group,
    orbit_count,
    verify_spectral_pair,
    verify_tiling_pair,
)
from spectile import cm, pairs, search, zn
from spectile.search import affine_canonical_form, translation_canonical_form

import oracles


def mm(n, elems):
    return MaskMultiset.from_elements(n, elems)


# ---------------------------------------------------------------------------
# enumeration


def test_canonical_sets_z4_size2():
    assert list(canonical_sets(4, 2)) == [(0, 1), (0, 2)]


def test_canonical_sets_size1():
    assert list(canonical_sets(9, 1)) == [(0,)]


@pytest.mark.parametrize("n", range(1, 23))
def test_orbit_counts_match_burnside(n):
    for k in range(1, n + 1):
        got = sum(1 for _ in canonical_sets(n, k))
        assert got == orbit_count(n, k) == oracles.orbit_count_translation(n, k)
    assert sum(1 for _ in canonical_sets(n)) == oracles.orbit_count_translation(n)


@pytest.mark.parametrize("n", [5, 6, 8, 9, 12])
def test_canonical_sets_match_brute_transversal(n):
    for k in range(1, n + 1):
        got = sorted(canonical_sets(n, k))
        assert got == oracles.orbit_transversal(n, k)


def test_canonical_form_helpers():
    assert translation_canonical_form((3, 4, 9), 12) == (0, 1, 6)
    rep = (0, 1, 6)
    assert translation_canonical_form(rep, 12) == rep


@pytest.mark.parametrize("n", range(1, 23))
def test_affine_enumeration_counts(n):
    for k in range(1, n + 1):
        got = sum(1 for _ in canonical_sets(n, k, affine=True))
        assert got == orbit_count(n, k, affine=True)


@pytest.mark.parametrize("affine", [False, True])
def test_necklace_walk_matches_generate_and_filter(affine):
    # every (n, k, a1) task up to Z_20, in order: 125,139 sets over both modes
    for n in range(1, 21):
        for k in range(1, n + 1):
            whole = []
            for a1 in range(1, n - k + 2):
                want = list(oracles.canonical_of_size_by_filter(n, k, affine, first=a1))
                assert list(search._canonical_of_size(n, k, affine, first=a1)) == want
                whole += want
            if k == 1:
                whole = [(0,)]
            assert list(search._canonical_of_size(n, k, affine)) == whole


@pytest.mark.parametrize("affine", [False, True])
def test_necklace_walk_edge_cases(affine):
    walk = search._canonical_of_size
    # a first gap a1 with k * a1 > n leaves no room for k gaps of at least a1
    for n, k, a1 in ((20, 4, 6), (20, 2, 11), (7, 7, 2), (12, 5, 3)):
        assert list(walk(n, k, affine, first=a1)) == []
    for n in range(1, 13):
        assert list(walk(n, n, affine)) == [tuple(range(n))]
    assert list(canonical_sets(1, affine=affine)) == [(0,)]
    assert list(canonical_sets(2, affine=affine)) == [(0,), (0, 1)]
    # the periodic set's four rotations of its gaps (5, 5, 5, 5) are one necklace
    reps = list(canonical_sets(20, 4, affine=affine))
    assert reps.count((0, 5, 10, 15)) == 1
    assert len(reps) == len(set(reps)) == orbit_count(20, 4, affine)


@pytest.mark.parametrize("cap", [0, 1, 5])
def test_affine_walk_matches_generate_and_filter_at_any_pending_cap(monkeypatch, cap):
    # a full pending set turns exactness off, so more leaves take the dilation test
    monkeypatch.setattr(search, "_PENDING_MAX", cap)
    for n in range(1, 19):
        for k in range(2, n + 1):
            for a1 in range(1, n // k + 1):
                want = list(oracles.canonical_of_size_by_filter(n, k, True, first=a1))
                assert list(search._canonical_of_size(n, k, True, first=a1)) == want


def test_affine_walk_memory_is_bounded_by_the_pending_cap(monkeypatch):
    # size 10 of Z_20 peaks at 0.8 MB with the default cap and 56 KB with 2^8
    monkeypatch.setattr(search, "_PENDING_MAX", 1 << 8)
    tracemalloc.start()
    try:
        count = sum(1 for _ in search._canonical_of_size(20, 10, True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == orbit_count(20, 10, affine=True)
    assert peak < 128 * 2**10


def test_affine_reps_are_translation_canonical():
    for rep in canonical_sets(12, affine=True):
        assert translation_canonical_form(rep, 12) == rep
        assert affine_canonical_form(rep, 12) == rep


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_forms_match_brute_force_on_every_subset(n):
    # sets without 0 included: the affine form once assumed a set contains 0
    for k in range(1, n + 1):
        for s in combinations(range(n), k):
            assert translation_canonical_form(s, n) == oracles.orbit_least(n, s)
            assert affine_canonical_form(s, n) == oracles.orbit_least(n, s, affine=True)
    assert affine_canonical_form((2, 4, 13), 15) == (0, 1, 3)


@pytest.mark.parametrize("n", [6, 8, 9, 10, 12])
def test_affine_enumeration_matches_brute_transversal(n):
    want = [rep for k in range(1, n + 1) for rep in oracles.affine_orbit_transversal(n, k)]
    assert list(canonical_sets(n, affine=True)) == want


# ---------------------------------------------------------------------------
# witness searches


def test_find_spectrum_examples():
    out = find_spectrum(mm(12, [0, 1, 6, 7]))
    assert out.verdict == "found"
    assert verify_spectral_pair(mm(12, [0, 1, 6, 7]), out.witness).ok
    assert find_spectrum(mm(9, [0])).witness.support() == (0,)
    assert find_spectrum(mm(4, [0, 1, 2])).verdict == "none"


def test_find_spectrum_agrees_with_brute_force():
    for n in (6, 8, 12):
        for rep in canonical_sets(n):
            if len(rep) > 4:
                continue
            ours = find_spectrum(mm(n, rep))
            brute = oracles.brute_spectra(n, rep)
            assert (ours.verdict == "found") == bool(brute)


def test_find_tiling_examples():
    out = find_tiling_complement(mm(12, [0, 1, 6, 7]))
    assert out.verdict == "found"
    assert verify_tiling_pair(mm(12, [0, 1, 6, 7]), out.witness).ok
    assert find_tiling_complement(mm(5, range(5))).witness.support() == (0,)
    assert find_tiling_complement(mm(9, [0, 1, 3])).verdict == "none"
    assert find_tiling_complement(mm(9, [0, 1])).verdict == "none"  # 2 does not divide 9


def test_enumerate_complements_matches_brute_force():
    for n in (6, 8, 12):
        for rep in canonical_sets(n):
            if n % len(rep):
                continue
            ours, exhausted, _ = enumerate_tiling_complements(mm(n, rep))
            assert exhausted
            got = sorted(t.support() for t in ours)
            assert got == sorted(oracles.brute_tilings(n, rep))


def test_tiling_search_builds_only_the_translates_it_reaches():
    # the search ends after one node; building all N translates up front
    # took N^2 bits, a 58 MB peak here
    a = mm(30030, [0, 1, 3])
    tracemalloc.start()
    try:
        out = find_tiling_complement(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.nodes) == ("none", 1)
    assert peak < 4 * 2**20


def test_deep_cover_search_keeps_one_mask():
    # {0, 2} cannot tile Z_20002 (10001 is odd), which the search learns
    # 10,000 levels deep: past the interpreter's recursion limit, and 25 MB
    # if every level kept its own N-bit mask
    a = mm(20002, [0, 2])
    tracemalloc.start()
    try:
        out = find_tiling_complement(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.nodes) == ("none", 19999)
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n", range(1, 17))
def test_flat_searches_match_the_recursive_references(n):
    # verdict, witness and node count agree at every budget, spent or not
    for rep in canonical_sets(n):
        a = mm(n, rep)
        vd = zn.zero_set(a).vanishing_divisors
        for budget in (0, 1, 2, 3, 5, 50, search.DEFAULT_NODE_BUDGET):
            assert (search._clique_search.__wrapped__(n, len(rep), vd, budget)
                    == oracles.clique_search_recursive(n, len(rep), vd, budget))
            for want_all in (False, True):
                assert (search._cover_search(n, a.mask(), a.support(), budget, want_all)
                        == oracles.tiling_backtrack_recursive(a, budget, want_all))


def test_budget_exhaustion_is_reported():
    out = find_tiling_complement(mm(24, [0, 1]), budget=3)
    assert out.verdict == "unknown" and out.nodes > 3


@pytest.mark.parametrize("search_fn", [find_spectrum, find_tiling_complement,
                                       enumerate_tiling_complements])
@pytest.mark.parametrize("a", [MaskMultiset.from_coeffs(6, [0] * 6),
                               MaskMultiset.from_coeffs(6, [1, 2, 0, 0, 0, 0])])
def test_searches_refuse_an_empty_set_or_a_multiplicity(search_fn, a):
    with pytest.raises(DomainError, match="nonempty proper set"):
        search_fn(a)


# ---------------------------------------------------------------------------
# survey


def test_survey_z6_exhaustive():
    res = fuglede_survey(group(6), SurveyOptions(collect_records=True))
    s = res.summary
    assert s["complete"] and s["f_count"] == 0
    assert s["orbits_surveyed"] == s["orbits_total"] == 13
    # spectral count equals tile count at every size
    for slot in s["per_size"].values():
        assert slot["spectral"] == slot["tiles"]


def test_survey_prime_power_group():
    res = fuglede_survey(group(8), SurveyOptions(collect_records=True))
    assert res.summary["f_count"] == 0 and res.summary["complete"]


def test_survey_records_reverify():
    res = fuglede_survey(group(12), SurveyOptions(collect_records=True))
    for rec in res.records:
        a = mm(12, rec["set"])
        if rec["spectral"]["verdict"] == "found":
            b = mm(12, rec["spectral"]["witness"])
            assert verify_spectral_pair(a, b).ok
        if rec["tile"]["verdict"] == "found":
            t = mm(12, rec["tile"]["witness"])
            assert verify_tiling_pair(a, t).ok
            assert rec["dual_spectrum"] is not None
            bb = mm(12, rec["dual_spectrum"]["spectrum"])
            assert verify_spectral_pair(a, bb).ok
        # tiles and the structure conditions coincide at two-prime orders
        assert (rec["tile"]["verdict"] == "found") == (
            rec["cm"]["t1"] and rec["cm"]["t2"]
        )


def test_survey_deterministic_across_thread_counts():
    one = fuglede_survey(group(10), SurveyOptions(collect_records=True, threads=1))
    two = fuglede_survey(group(10), SurveyOptions(collect_records=True, threads=2))
    assert one.records == two.records
    s1 = {k: v for k, v in one.summary.items() if k != "elapsed_s"}
    s2 = {k: v for k, v in two.summary.items() if k != "elapsed_s"}
    assert s1 == s2


def test_survey_sink_streaming_order():
    seen = []
    res = fuglede_survey(
        group(8),
        SurveyOptions(collect_records=False),
        record_sink=seen.append,
    )
    assert res.records is None
    assert len(seen) == res.summary["orbits_surveyed"]
    keys = [(r["size"], tuple(r["set"])) for r in seen]
    assert keys == sorted(keys)


def test_survey_budget_downgrades_to_incomplete():
    res = fuglede_survey(
        group(16), SurveyOptions(collect_records=False, node_budget=2)
    )
    s = res.summary
    assert not s["complete"]
    assert s["unresolved"]


def test_survey_size_filter():
    res = fuglede_survey(group(12), SurveyOptions(sizes=(4,), collect_records=True))
    s = res.summary
    assert set(s["per_size"]) == {"4"}
    assert s["orbits_surveyed"] == orbit_count(12, 4)


def test_survey_plans_a_repeated_size_once():
    once = fuglede_survey(group(8), SurveyOptions(sizes=(3,), collect_records=True))
    twice = fuglede_survey(group(8), SurveyOptions(sizes=(3, 3), collect_records=True))
    assert twice.records == once.records
    assert _without_elapsed(twice.summary) == _without_elapsed(once.summary)
    assert twice.summary["orbits_surveyed"] == twice.summary["orbits_total"] == 7
    assert twice.summary["complete"] is True
    # a size list without repeats keeps its fingerprint, so old cursors resume
    assert SurveyOptions(sizes=(3, 3)).fingerprint() == SurveyOptions(sizes=(3,)).fingerprint()
    assert json.loads(SurveyOptions(sizes=(5, 3)).fingerprint())["sizes"] == [3, 5]


def test_survey_sampled_mode_is_seed_deterministic():
    opts = dict(collect_records=True, per_size_limit=5, seed=42)
    a = fuglede_survey(group(20), SurveyOptions(**opts))
    b = fuglede_survey(group(20), SurveyOptions(**opts))
    assert a.records == b.records
    c = fuglede_survey(group(20), SurveyOptions(collect_records=True, per_size_limit=5, seed=43))
    assert [r["set"] for r in c.records] != [r["set"] for r in a.records]


def test_survey_affine_mode_consistent_with_translation_mode():
    t_res = fuglede_survey(group(12), SurveyOptions(collect_records=True))
    a_res = fuglede_survey(group(12), SurveyOptions(collect_records=True, affine=True))
    assert a_res.summary["f_count"] == 0
    t_status = {
        tuple(r["set"]): (r["spectral"]["verdict"], r["tile"]["verdict"])
        for r in t_res.records
    }
    # every affine representative carries the same verdict pair it had in the
    # translation survey
    for rec in a_res.records:
        assert t_status[tuple(rec["set"])] == (
            rec["spectral"]["verdict"],
            rec["tile"]["verdict"],
        )
    # and affine classes partition the translation classes
    a_total = a_res.summary["orbits_surveyed"]
    assert a_total == orbit_count(12, affine=True)
    assert a_total < t_res.summary["orbits_surveyed"]


def test_survey_cursor_resume(tmp_path):
    cursor = tmp_path / "cursor"
    opts = SurveyOptions(collect_records=True, cursor_dir=str(cursor))
    first = fuglede_survey(group(10), opts)
    manifest = json.loads((cursor / "manifest.json").read_text())
    # the manifest holds the order and the fingerprint; the task files are the finished work
    assert set(manifest) == {"n", "fingerprint"} and manifest["n"] == 10
    planned = len(search._plan_tasks(10, opts)[0])
    assert sorted(p.name for p in cursor.glob("task-*")) == [
        f"task-{tid:06d}.jsonl" for tid in range(planned)]
    second = fuglede_survey(group(10), opts)
    assert first.records == second.records
    assert first.summary["f_count"] == second.summary["f_count"] == 0


def test_survey_rejects_oversize_group():
    with pytest.raises(Exception):
        fuglede_survey(group(41), SurveyOptions(max_n=40))


def test_survey_nonprimitive_spectral_sets_are_structured():
    for n in (12, 16, 18):
        res = fuglede_survey(group(n), SurveyOptions(collect_records=False))
        assert res.summary["nonprimitive_spectral_all_structured"]


def test_f_member_diagnostics_payload(monkeypatch):
    # the counterexample dump never fires in real surveys: drive it by
    # reporting failed structure conditions and no cover for spectral sets
    real = cm._structure_report
    monkeypatch.setattr(cm, "_structure_report",
                        lambda *args: dataclasses.replace(real(*args), t1_holds=False))
    monkeypatch.setattr(search, "_covers", lambda *args, **kwargs: ("none", [], 1))
    checked = []
    real_verify = pairs.verify_spectral_pair

    def counting(a, b):
        checked.append(b.support())
        return real_verify(a, b)

    monkeypatch.setattr(pairs, "verify_spectral_pair", counting)
    search._signatures.clear()
    rec = search.classify_set((0, 1, 6, 7), 12)
    assert rec["f_member"] and rec["tile"] == {"verdict": "none", "witness": None, "nodes": 0,
                                               "budget": search.DEFAULT_NODE_BUDGET}
    out = rec["diagnostics"]
    assert set(out) >= {"primitive_a", "primitive_b", "profile", "symmetry",
                        "deficits", "roots_panel"}
    assert out["profile"]["a"]["s_p"] == [1, 2]
    # the panel comes from the check that proved the spectrum, not from a second one
    assert checked == [tuple(rec["spectral"]["witness"])]
    prime_power = search.classify_set((0, 1), 8)["diagnostics"]
    assert prime_power is not None and "profile" not in prime_power  # no two-prime diagnostics
    assert len(checked) == 2


@pytest.mark.parametrize("n", [6, 8, 9])
def test_affine_orbit_count_matches_direct_orbiting(n):
    for k in range(1, n + 1):
        assert orbit_count(n, k, affine=True) == oracles.affine_transversal_count(n, k)


def test_canonical_sets_out_of_range_sizes():
    assert list(canonical_sets(6, 0)) == []
    assert list(canonical_sets(6, 7)) == []


def test_survey_three_prime_order():
    # squarefree three-prime order: exercises the coset primitivity route and
    # the no-two-prime diagnostics branch
    res = fuglede_survey(
        group(30),
        SurveyOptions(collect_records=True, per_size_limit=60, node_budget=200_000),
    )
    s = res.summary
    assert s["f_count"] == 0
    for rec in res.records:
        a = mm(30, rec["set"])
        assert (rec["tile"]["verdict"] == "found") == (
            rec["cm"]["t1"] and rec["cm"]["t2"]
        )
        if rec["tile"]["verdict"] == "found":
            assert rec["dual_spectrum"] is not None


def test_trivial_group_survey_and_counts():
    assert orbit_count(1, affine=True) == 1
    res = fuglede_survey(group(1), SurveyOptions(collect_records=True, affine=True))
    assert res.summary["complete"] and res.summary["f_count"] == 0
    assert res.records[0]["set"] == [0]


# ---------------------------------------------------------------------------
# work done once


@pytest.mark.parametrize("rep, passes", [((0, 1, 6, 7), True), ((0, 1, 3), False)])
def test_classify_set_computes_the_zero_set_once(monkeypatch, rep, passes):
    made = []
    real = zn.ZeroSet

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(zn, "ZeroSet", counting)
    rec = search.classify_set(rep, 12)
    assert (rec["cm"]["t1"] and rec["cm"]["t2"]) == passes
    assert len(made) == 1
    assert rec["vanishing_divisors"] == sorted(made[0][1])


def test_classify_set_builds_no_multiset_without_structure_or_witness(monkeypatch):
    made = []
    real = MaskMultiset.__post_init__

    def counting(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(MaskMultiset, "__post_init__", counting)
    rec = search.classify_set((0, 1, 3), 12)
    assert not rec["cm"]["t1"] and rec["spectral"]["verdict"] == rec["tile"]["verdict"] == "none"
    assert made == []
    # a set that passes T1/T2 needs the constructions, and so a multiset
    search.classify_set((0, 1, 6, 7), 12)
    assert made and made[0].support() == (0, 1, 6, 7)


def test_lane_table_is_not_built_at_import():
    code = ("import spectile; from spectile import zn; "
            "assert zn._lane_table.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.parametrize("n, rep", [(12, (0, 1, 6, 7)), (36, (0, 1, 18, 19))])
def test_classify_set_builds_the_laba_spectrum_once(monkeypatch, n, rep):
    # Z_12 certifies by the dilation reduction, Z_36 (two repeated primes)
    # through the structure conditions; both return the Laba spectrum
    built = []
    real = cm.build_laba_spectrum

    def counting(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(cm, "build_laba_spectrum", counting)
    rec = search.classify_set(rep, n)
    assert rec["cm"]["t1"] and rec["cm"]["t2"]
    assert len(built) == 1
    want = sorted(real(built[0]).support())
    assert rec["spectral"]["witness"] == rec["dual_spectrum"]["spectrum"] == want
    route = "dilation_reduction" if n == 12 else "structure_conditions"
    assert rec["dual_spectrum"]["route"] == route


@pytest.mark.parametrize("affine", [False, True])
def test_survey_classifies_every_orbit_through_the_module_attribute(monkeypatch, affine):
    # external timers hook the survey's unit of work at search.classify_set
    seen = []
    real = search.classify_set

    def counting(rep, *args, **kwargs):
        seen.append(rep)
        return real(rep, *args, **kwargs)

    monkeypatch.setattr(search, "classify_set", counting)
    opts = SurveyOptions(threads=1, affine=affine, collect_records=False)
    summary = fuglede_survey(group(12), opts).summary
    assert len(seen) == len(set(seen)) == orbit_count(12, affine=affine)
    assert summary["orbits_surveyed"] == len(seen)


def test_survey_counts_orbits_once_per_size(monkeypatch):
    calls = []
    real = search.orbit_count

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "orbit_count", counting)
    summary = fuglede_survey(group(12), SurveyOptions(threads=1, affine=True)).summary
    assert sorted(k for _, k, _ in calls) == list(range(1, 13))
    assert summary["complete"]


# ---------------------------------------------------------------------------
# one record path: ordered streaming, pure workers, relocatable cursors


def _without_elapsed(summary):
    return {k: v for k, v in summary.items() if k != "elapsed_s"}


def _counting_classify(monkeypatch):
    seen = []
    real = search.classify_set

    def counting(rep, *args, **kwargs):
        seen.append(rep)
        return real(rep, *args, **kwargs)

    monkeypatch.setattr(search, "classify_set", counting)
    return seen


def test_survey_streams_records_before_the_last_orbit(monkeypatch):
    seen = _counting_classify(monkeypatch)
    classified_at_first_record = []

    def sink(rec):
        if not classified_at_first_record:
            classified_at_first_record.append(len(seen))

    summary = fuglede_survey(
        group(12), SurveyOptions(threads=1, collect_records=False), record_sink=sink
    ).summary
    assert len(seen) == summary["orbits_surveyed"]
    assert classified_at_first_record[0] < len(seen)


def test_survey_cursor_may_move(tmp_path, monkeypatch):
    opts = dict(collect_records=True, threads=1, per_size_limit=6, seed=3)
    first = fuglede_survey(group(14), SurveyOptions(cursor_dir=str(tmp_path / "a"), **opts))
    (tmp_path / "a").rename(tmp_path / "b")
    seen = _counting_classify(monkeypatch)
    again = fuglede_survey(group(14), SurveyOptions(cursor_dir=str(tmp_path / "b"), **opts))
    assert seen == []
    assert again.records == first.records
    assert _without_elapsed(again.summary) == _without_elapsed(first.summary)


def test_two_worker_cursor_survey_matches_one_worker(tmp_path):
    cursor = tmp_path / "cursor"
    one = fuglede_survey(group(10), SurveyOptions(collect_records=True, threads=1))
    two = fuglede_survey(
        group(10), SurveyOptions(collect_records=True, threads=2, cursor_dir=str(cursor))
    )
    assert two.records == one.records
    assert _without_elapsed(two.summary) == _without_elapsed(one.summary)
    text = (cursor / "manifest.json").read_text()
    assert str(tmp_path) not in text and ".jsonl" not in text
    assert set(json.loads(text)) == {"n", "fingerprint"}
    # one file per planned task, and no .part file left
    spools = sorted(p.name for p in cursor.iterdir() if p.name != "manifest.json")
    planned = len(search._plan_tasks(10, SurveyOptions())[0])
    assert spools == [f"task-{tid:06d}.jsonl" for tid in range(planned)]
    spooled = [json.loads(ln) for name in spools for ln in (cursor / name).read_text().splitlines()]
    assert spooled == one.records


def test_survey_fingerprint_names_schema_and_version(tmp_path, monkeypatch):
    import spectile

    fp = json.loads(SurveyOptions().fingerprint())
    assert fp["schema"] == "spectile.survey/2"
    assert fp["version"] == spectile.__version__
    # the version string stays put across code changes; the sources' digest does not
    assert re.fullmatch(r"[0-9a-f]{64}", fp["code"])
    # a cursor written by another version or other code is recomputed, not merged
    for key, value in (("version", "0.0.0"), ("code", "0" * 64)):
        cursor = tmp_path / key
        opts = SurveyOptions(collect_records=True, threads=1, cursor_dir=str(cursor))
        first = fuglede_survey(group(8), opts)
        path = cursor / "manifest.json"
        manifest = json.loads(path.read_text())
        stale = json.loads(manifest["fingerprint"])
        stale[key] = value
        manifest["fingerprint"] = json.dumps(stale, sort_keys=True)
        path.write_text(json.dumps(manifest))
        seen = _counting_classify(monkeypatch)
        again = fuglede_survey(group(8), opts)
        assert len(seen) == again.summary["orbits_surveyed"] == orbit_count(8)
        assert again.records == first.records



def _manifest_writes(monkeypatch):
    """Names of the files opened for writing or replaced whose name starts with manifest."""
    import builtins
    import io

    writes = []
    real_open, real_replace = io.open, os.replace

    def note(path):
        if isinstance(path, (str, os.PathLike)) and os.path.basename(path).startswith("manifest"):
            writes.append(os.path.basename(path))

    def opening(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            note(file)
        return real_open(file, mode, *args, **kwargs)

    def replacing(src, dst, *args, **kwargs):
        note(dst)
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(io, "open", opening)
    monkeypatch.setattr(builtins, "open", opening)
    monkeypatch.setattr(os, "replace", replacing)
    return writes


def test_cursor_manifest_is_written_once_per_run(tmp_path, monkeypatch):
    cursor = tmp_path / "cursor"
    opts = SurveyOptions(collect_records=True, threads=1, cursor_dir=str(cursor))
    writes = _manifest_writes(monkeypatch)
    first = fuglede_survey(group(10), opts)
    assert writes == ["manifest.json"]
    # a matching resume with one task to redo leaves the manifest alone
    (cursor / "task-000002.jsonl").unlink()
    writes.clear()
    again = fuglede_survey(group(10), opts)
    assert writes == [] and again.records == first.records


def test_interrupted_task_leaves_no_task_file(tmp_path, monkeypatch):
    cursor = tmp_path / "cursor"
    opts = SurveyOptions(collect_records=True, threads=1, cursor_dir=str(cursor))
    clean = fuglede_survey(group(10), SurveyOptions(collect_records=True, threads=1))
    sizes = [sum(1 for _ in search._canonical_of_size(10, k, False, first=first))
             for _, k, first in search._plan_tasks(10, opts)[0]]
    # raise halfway through the largest task, which is neither first nor last
    tid = sizes.index(max(sizes))
    assert 0 < tid < len(sizes) - 1 and sizes[tid] > 2
    kept = sum(sizes[:tid])
    real = search.classify_set
    calls = []

    def failing(rep, *args, **kwargs):
        calls.append(rep)
        if len(calls) > kept + sizes[tid] // 2:
            raise RuntimeError("interrupted")
        return real(rep, *args, **kwargs)

    monkeypatch.setattr(search, "classify_set", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        fuglede_survey(group(10), opts)
    assert sorted(p.name for p in cursor.glob("task-*.jsonl")) == [
        f"task-{t:06d}.jsonl" for t in range(tid)]
    monkeypatch.setattr(search, "classify_set", real)
    seen = _counting_classify(monkeypatch)
    again = fuglede_survey(group(10), opts)
    assert len(seen) == len(clean.records) - kept
    assert again.records == clean.records
    assert _without_elapsed(again.summary) == _without_elapsed(clean.summary)
    assert not list(cursor.glob("*.part"))


def test_stale_cursor_whose_deletion_fails_is_recomputed_in_full(tmp_path, monkeypatch):
    cursor = tmp_path / "cursor"
    opts = SurveyOptions(collect_records=True, threads=1, cursor_dir=str(cursor))
    first = fuglede_survey(group(10), opts)
    path = cursor / "manifest.json"
    manifest = json.loads(path.read_text())
    stale = json.loads(manifest["fingerprint"])
    stale["code"] = "0" * 64
    path.write_text(json.dumps({"n": 10, "fingerprint": json.dumps(stale, sort_keys=True)}))
    real = os.unlink
    calls = []

    def unlink(target, *args, **kwargs):
        calls.append(target)
        if len(calls) == 2:
            raise PermissionError("cannot delete")
        return real(target, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", unlink)
    with pytest.raises(PermissionError):
        fuglede_survey(group(10), opts)
    monkeypatch.setattr(os, "unlink", real)
    # the stale manifest still stands, so every surviving task file is distrusted
    seen = _counting_classify(monkeypatch)
    again = fuglede_survey(group(10), opts)
    assert len(seen) == again.summary["orbits_surveyed"] == orbit_count(10)
    assert again.records == first.records


def _fold(n, affine, records):
    """The summary fields that are counts over the records, recomputed here."""
    per_size = {
        str(k): {"surveyed": 0, "total": orbit_count(n, k, affine), "spectral": 0,
                 "tiles": 0, "cm_pass": 0}
        for k in range(1, n + 1)
    }
    f_members, unresolved = [], []
    for rec in records:
        slot = per_size[str(len(rec["set"]))]
        verdicts = (rec["spectral"]["verdict"], rec["tile"]["verdict"])
        slot["surveyed"] += 1
        slot["spectral"] += verdicts[0] == "found"
        slot["tiles"] += verdicts[1] == "found"
        slot["cm_pass"] += rec["cm"]["t1"] and rec["cm"]["t2"]
        if verdicts == ("found", "none"):
            f_members.append(rec["set"])
        if "unknown" in verdicts:
            unresolved.append(rec["set"])
    complete = not unresolved and all(s["surveyed"] == s["total"] for s in per_size.values())
    return {"per_size": per_size, "f_members": sorted(f_members),
            "unresolved": sorted(unresolved), "complete": complete}


def _folded_fields(summary):
    return {key: summary[key] for key in ("per_size", "f_members", "unresolved", "complete")}


@pytest.mark.parametrize("affine", [False, True])
def test_survey_summary_is_the_fold_of_its_records(tmp_path, affine):
    for n in range(1, 15):
        cursor = str(tmp_path / f"{affine}-{n}")
        opts = dict(affine=affine, collect_records=True, cursor_dir=cursor)
        fresh = fuglede_survey(group(n), SurveyOptions(threads=1, **opts))
        resumed = fuglede_survey(group(n), SurveyOptions(threads=1, **opts))
        assert resumed.records == fresh.records
        for res in (fresh, resumed):
            assert _folded_fields(res.summary) == _fold(n, affine, res.records)
    two = fuglede_survey(group(14), SurveyOptions(affine=affine, threads=2, collect_records=True))
    assert _folded_fields(two.summary) == _fold(14, affine, two.records)


def test_resumed_summary_reads_the_spooled_records(tmp_path, monkeypatch):
    # the summary of a resumed survey comes from the spool files, not a tally
    cursor = tmp_path / "cursor"
    opts = SurveyOptions(threads=1, collect_records=True, cursor_dir=str(cursor))
    first = fuglede_survey(group(10), opts)
    assert first.summary["complete"] and not first.summary["unresolved"]
    spool = cursor / "task-000003.jsonl"
    lines = spool.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["tile"]["verdict"] = "unknown"
    lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    spool.write_text("\n".join(lines) + "\n")
    seen = _counting_classify(monkeypatch)
    again = fuglede_survey(group(10), opts)
    assert seen == []
    assert again.summary["unresolved"] == [rec["set"]]
    assert again.summary["complete"] is False
    assert _folded_fields(again.summary) == _fold(10, False, again.records)


def test_one_worker_survey_memory_does_not_grow_with_the_task():
    # size 9 of Z_18 is 2,704 orbits in 10 tasks; records go to a sink that
    # keeps none, so none may be held until its task ends
    opts = SurveyOptions(sizes=(9,), threads=1, collect_records=False)
    tracemalloc.start()
    try:
        summary = fuglede_survey(group(18), opts, record_sink=lambda rec: None).summary
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary["orbits_surveyed"] == orbit_count(18, 9)
    assert peak < 1.5 * 2**20


def test_surveys_leave_no_garbage_for_the_cyclic_collector():
    # a reference cycle per search (a self-recursive closure is one) waits
    # for the cyclic collector, and RSS grows between collections
    search._clique_search.cache_clear()
    gc.collect()
    gc.disable()
    try:
        fuglede_survey(group(14), SurveyOptions(threads=1, collect_records=False))
        sampled = SurveyOptions(threads=1, collect_records=False, per_size_limit=50,
                                node_budget=300_000, seed=1)
        fuglede_survey(group(27), sampled)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_planned_enum_task_yields_a_record():
    # a k-set whose least gap is a1 needs k * a1 <= N, so no task is empty
    for n in range(1, 17):
        opts = SurveyOptions()
        tasks, _ = search._plan_tasks(n, opts)
        assert {kind for kind, _, _ in tasks} == {"enum"}
        for task in tasks:
            assert next(search._run_task((n, opts, task)), None) is not None, task


def test_planning_draws_no_samples(monkeypatch):
    # samples are drawn inside the tasks, so workers share the drawing
    def forbidden(*args):
        raise AssertionError("sampled while planning")

    monkeypatch.setattr(search, "_sample_reps", forbidden)
    tasks, totals = search._plan_tasks(32, SurveyOptions(per_size_limit=400))
    assert totals == {k: orbit_count(32, k) for k in range(1, 33)}
    assert [t for t in tasks if t[0] == "sample"]


# ---------------------------------------------------------------------------
# searches memoised on the signature (N, |A|, Z(A))


def _clear_signature_memos():
    search._clique_search.cache_clear()
    cm._structure_report.cache_clear()


@pytest.mark.parametrize("n", [12, 18])
def test_signature_memos_match_cold_searches(n):
    reps = list(canonical_sets(n))
    cold = []
    for rep in reps:
        _clear_signature_memos()
        spectral = find_spectrum(mm(n, rep))
        _clear_signature_memos()
        cold.append((spectral, check_t1t2(mm(n, rep))))
    _clear_signature_memos()
    warm = [(find_spectrum(mm(n, rep)), check_t1t2(mm(n, rep))) for rep in reps]
    assert warm == cold
    assert search._clique_search.cache_info().hits > 0
    assert cm._structure_report.cache_info().hits > 0
    assert search._clique_search.cache_info().maxsize is not None
    assert cm._structure_report.cache_info().maxsize is not None


def _realised_zero_sets(n, m):
    """R(m): the sets Z(B) of the m-subsets B of Z_n, by enumeration (Z(B) is
    translation invariant, so the subsets containing 0 realise them all)."""
    return {zn.zero_set(mm(n, (0,) + rest)).vanishing_divisors
            for rest in combinations(range(1, n), m - 1)}


@pytest.mark.parametrize("n", range(1, 17))
def test_tile_verdict_is_the_signatures_under_both_criteria(n):
    # every order here forces the structure, so a set tiles iff it satisfies
    # T1 and T2, and (Fourier) iff |A| divides N and some realised Z(B) with
    # |B| = N/|A| covers with Z(A) every divisor d > 1 of N
    divisors = frozenset(d for d in range(2, n + 1) if n % d == 0)
    realised = {m: _realised_zero_sets(n, m) for m in divisors | {1}}
    search._signatures.clear()
    for rep in canonical_sets(n):
        k = len(rep)
        vd = zn.zero_set(mm(n, rep)).vanishing_divisors
        cover = search._covers(n, rep, search.DEFAULT_NODE_BUDGET, False)[0]
        assert cover != "unknown"
        tiles = cover == "found"
        assert cm._structure_report(n, k, vd).ok == tiles, rep
        fourier = n % k == 0 and any(vd | zb >= divisors for zb in realised[n // k])
        assert fourier == tiles, rep
        assert (search.classify_set(rep, n)["tile"]["verdict"] == "found") == tiles


def test_the_cover_search_runs_once_per_signature(monkeypatch):
    calls = []
    real = search._covers

    def counting(n, elems, *args, **kwargs):
        calls.append((n, len(elems), zn.proper_zero_set(group(n), elems).vanishing_divisors))
        return real(n, elems, *args, **kwargs)

    monkeypatch.setattr(search, "_covers", counting)
    search._signatures.clear()
    fuglede_survey(group(16), SurveyOptions(threads=1, collect_records=False))
    assert calls and len(calls) == len(set(calls)) == len(search._signatures)


def test_a_cover_of_a_set_that_fails_t1t2_raises(monkeypatch):
    monkeypatch.setattr(search, "_covers", lambda n, elems, budget, want_all: ("found", [(0,)], 1))
    search._signatures.clear()
    with pytest.raises(InvariantViolation, match="fails the structure conditions"):
        search.classify_set((0, 1, 3), 12)


def test_memoised_spectrum_is_reverified_for_each_set(monkeypatch):
    verified = []
    real = pairs.verify_spectral_pair

    def counting(a, b):
        verified.append((a, b))
        return real(a, b)

    monkeypatch.setattr(pairs, "verify_spectral_pair", counting)
    _clear_signature_memos()
    a = mm(12, [0, 1, 6, 7])
    same_signature = [a, a.translate(5), dilate(a, 5)]
    outcomes = [find_spectrum(x) for x in same_signature]
    assert {o.verdict for o in outcomes} == {"found"}
    assert [x for x, _ in verified] == same_signature
    info = search._clique_search.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a memoised clique that is no spectrum of the set at hand is caught
    liar = mm(12, [0, 1, 2, 3])
    object.__setattr__(liar, "_zero_set", ZeroSet(liar.ctx, zn.zero_set(a).vanishing_divisors))
    with pytest.raises(InvariantViolation):
        find_spectrum(liar)


def test_a_rejected_witness_raises(monkeypatch):
    a = mm(12, [0, 1, 6, 7])
    assert find_spectrum(a).verdict == "found"
    assert find_tiling_complement(a).verdict == "found"
    assert len(enumerate_tiling_complements(a)[0]) > 1

    def rejecting(reason):
        return lambda a, b: pairs.PairCheck(False, None, reason=reason)

    monkeypatch.setattr(pairs, "verify_spectral_pair", rejecting("difference"))
    monkeypatch.setattr(pairs, "verify_tiling_pair", rejecting("shared_difference"))
    with pytest.raises(InvariantViolation, match="difference"):
        find_spectrum(a)
    with pytest.raises(InvariantViolation, match="shared_difference"):
        find_tiling_complement(a)
    with pytest.raises(InvariantViolation, match="shared_difference"):
        enumerate_tiling_complements(a)


PROGRESS = re.compile(
    r"\[survey n=(\d+)\] (\d+)/(\d+) tasks, (\d+)/(\d+) orbits, "
    r"(\d+) orbits/s, ETA (\d+ s|\?)"
)


@pytest.mark.parametrize("limit", [None, 3])
def test_survey_progress_reports_orbits_rate_and_eta(capsys, limit):
    opts = SurveyOptions(threads=1, progress=True, per_size_limit=limit, collect_records=False)
    summary = fuglede_survey(group(10), opts).summary
    out, err = capsys.readouterr()
    assert out == ""
    lines = [PROGRESS.fullmatch(line) for line in err.splitlines()]
    assert lines and all(lines)
    done = [int(m.group(4)) for m in lines]
    assert done == sorted(done)
    planned = sum(min(slot["total"], limit or slot["total"])
                  for slot in summary["per_size"].values())
    last = lines[-1]
    assert last.group(2) == last.group(3)
    assert int(last.group(4)) == summary["orbits_surveyed"]
    assert {int(m.group(5)) for m in lines} == {planned}
    assert last.group(7) == "0 s"


def _as_survey_1(obj):
    """A record or summary as spectile.survey/1 wrote it: a record with no
    witness took its tile nodes from its own cover search, and the summary
    named that schema."""
    if obj["type"] == "summary":
        return {**obj, "schema": "spectile.survey/1"}
    tile = obj["tile"]
    if "found" in (obj["spectral"]["verdict"], tile["verdict"]):
        return obj
    verdict, _, nodes = search._covers(obj["n"], tuple(obj["set"]), tile["budget"], False)
    assert (verdict, tile["nodes"]) == (tile["verdict"], 0)
    return {**obj, "tile": {**tile, "nodes": nodes}}


# sha256 of every record and the summary without elapsed_s, one canonical JSON
# line each, for N = 1..14
SURVEY_DIGESTS = {
    False: "7e5e95e19a2124736b5b18f09db4f01eee9478ee6f0be0224afd03b41b58f0e9",
    True: "623fd9505a552d8ff89f66b97f4383929ba08dcd2a81d99a0588aaf2dd06232a",
}
# the same stream rebuilt as spectile.survey/1 (_as_survey_1); computed under
# that schema, before the signature memos and the packed vanishing kernel
# existed
SURVEY_1_DIGESTS = {
    False: "975d741211990d203ee60d1f2898f95a07e9c2e52b6d71c31b678904fed3b64d",
    True: "0b437a2008e77bc4ad6ec10809109b39d699e5dcf95d1f865eb30fbcccc26bd4",
}


@pytest.mark.parametrize("affine", [False, True])
def test_survey_outputs_match_golden_digest(affine):
    h, h1 = hashlib.sha256(), hashlib.sha256()
    for n in range(1, 15):
        result = fuglede_survey(group(n), SurveyOptions(affine=affine))
        for obj in result.records + [_without_elapsed(result.summary)]:
            h.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n")
            h1.update(search.dumps(_as_survey_1(obj)).encode() + b"\n")
    assert h.hexdigest() == SURVEY_DIGESTS[affine]
    assert h1.hexdigest() == SURVEY_1_DIGESTS[affine]


# sha256 of the record lines (search.dumps) as a one-worker survey streams
# them to its sink, then its summary without elapsed_s, for translation and
# then affine surveys of N = 1..14
STREAMED_DIGEST = "f0a1ed569cafba5294d404d20fe062d33cb07aea205923e01a634fc2eead41b0"
# the same stream rebuilt as spectile.survey/1; computed under that schema,
# before classify_set read Z(A) from the lane table
STREAMED_1_DIGEST = "3cffb4bb6593c12a5c3495b8326dffb7c3483bc6f9dccdf9301ca4fac00db5bb"


def test_streamed_survey_records_match_golden_digest():
    h, h1 = hashlib.sha256(), hashlib.sha256()

    def take(obj):
        h.update(search.dumps(obj).encode() + b"\n")
        h1.update(search.dumps(_as_survey_1(obj)).encode() + b"\n")

    for affine in (False, True):
        for n in range(1, 15):
            opts = SurveyOptions(threads=1, affine=affine, collect_records=False)
            summary = fuglede_survey(group(n), opts, record_sink=take).summary
            take(_without_elapsed(summary))
    assert h.hexdigest() == STREAMED_DIGEST
    assert h1.hexdigest() == STREAMED_1_DIGEST


# ---------------------------------------------------------------------------
# one Burnside count


def test_orbit_count_matches_translation_oracle_up_to_40():
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert orbit_count(n, k) == oracles.orbit_count_translation(n, k)
        assert orbit_count(n) == oracles.orbit_count_translation(n)


def test_orbit_totals_match_published_figures():
    affine = {24: 94_483, 27: 277_533, 28: 815_557, 30: 4_500_266, 32: 8_466_188}
    for n, total in affine.items():
        assert orbit_count(n, affine=True) == total
    assert orbit_count(28) == 9_587_579


@pytest.mark.parametrize("affine", [False, True])
def test_orbit_counts_per_size_sum_to_the_total(affine):
    for n in range(1, 25):
        per_size = [orbit_count(n, k, affine) for k in range(1, n + 1)]
        assert sum(per_size) == orbit_count(n, affine=affine)
        assert orbit_count(n, n + 1, affine) == 0


# ---------------------------------------------------------------------------
# the worker pool


class _InProcessPools:
    """A stand-in for a multiprocessing context that records pool sizes."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("threads, workers", [(500, 9), (2, 2)])
def test_worker_pool_is_capped_at_the_pending_tasks(monkeypatch, threads, workers):
    pools = _InProcessPools()
    monkeypatch.setattr(search, "get_context", lambda method: pools)
    tasks, _ = search._plan_tasks(6, SurveyOptions())
    assert len(tasks) == 9
    opts = SurveyOptions(threads=threads, collect_records=True)
    got = fuglede_survey(group(6), opts)
    assert pools.sizes == [workers]
    want = fuglede_survey(group(6), SurveyOptions(threads=1, collect_records=True))
    assert got.records == want.records
    assert _without_elapsed(got.summary) == _without_elapsed(want.summary)


def test_every_tile_is_dual_certified():
    # dual certification always runs; it is no longer an option
    assert not hasattr(SurveyOptions(), "dual_certify")
    assert "dual_certify" not in json.loads(SurveyOptions().fingerprint())
    for rep in ((0, 1, 6, 7), (0, 2, 4)):
        rec = search.classify_set(rep, 12)
        assert rec["tile"]["verdict"] == "found" and rec["dual_spectrum"] is not None


# ---------------------------------------------------------------------------
# record lines and worker folds


def test_translation_form_matches_the_general_rotation_scan():
    # the rotation scan against the least sorted image under every map
    rng = __import__("random").Random("translation form")
    for n in range(1, 41):
        for i in range(60):
            rep = rng.sample(range(n), rng.randint(1, n))
            want = oracles.orbit_least(n, rep)
            assert search._canonical_form(rep, n, False) == want
            # the public form reduces mod n and drops repeats first
            assert translation_canonical_form(rep + [x + n for x in rep], n) == want
            if i < 10:
                want = oracles.orbit_least(n, rep, affine=True)
                assert search._canonical_form(rep, n, True) == want
                assert affine_canonical_form(rep + [x - n for x in rep], n) == want


def _small_survey_records():
    for affine in (False, True):
        for n in range(1, 17):
            yield from fuglede_survey(group(n), SurveyOptions(affine=affine, threads=1)).records
    # small budgets give "unknown" tile verdicts next to "none" ones of one signature
    for budget in (2, 9):
        yield from fuglede_survey(group(16), SurveyOptions(node_budget=budget)).records


def test_record_line_is_the_canonical_line_of_every_small_survey_record():
    search._signatures.clear()
    templated = set()
    for rec in _small_survey_records():
        line = search.record_line(rec)
        assert line == search.dumps(rec) + "\n"
        assert json.loads(line) == rec
        if "found" not in (rec["spectral"]["verdict"], rec["tile"]["verdict"]):
            # every order here forces the structure: the tile verdict is T1/T2's
            assert (rec["tile"]["verdict"], rec["tile"]["nodes"]) == ("none", 0)
            key = (rec["n"], rec["size"], frozenset(rec["vanishing_divisors"]), rec["tile"]["budget"])
            assert key in search._signatures
            templated.add(rec["spectral"]["verdict"])
    assert templated == {"none", "unknown"}


def test_signature_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(search, "_SIGNATURES_MAX", 3)
    search._signatures.clear()
    sizes = []

    def check(rec):
        assert search.record_line(rec) == search.dumps(rec) + "\n"
        sizes.append(len(search._signatures))

    fuglede_survey(group(16), SurveyOptions(threads=1, collect_records=False), record_sink=check)
    assert max(sizes) == 3 and min(sizes[sizes.index(3):]) < 3  # filled, then cleared


def test_records_of_one_signature_share_no_object():
    n = 12
    by_signature = {}
    for rep in canonical_sets(n):
        rec = search.classify_set(rep, n)
        if "found" not in (rec["spectral"]["verdict"], rec["tile"]["verdict"]):
            by_signature.setdefault((rec["size"], tuple(rec["vanishing_divisors"])), []).append(rep)
    reps = max(by_signature.values(), key=len)
    assert len(reps) >= 3
    want = [search.dumps(search.classify_set(rep, n)) for rep in reps]
    search._signatures.clear()
    for rep, line in zip(reps, want):
        # the first record fills the cache and the later ones copy it; each
        # is then mutated all through, and the next must not see it
        rec = search.classify_set(rep, n)
        assert search.dumps(rec) == line and search.record_line(rec) == line + "\n"
        for part in (rec["set"], rec["vanishing_divisors"], rec["cm"]["s_a"]):
            part.append(-1)
        for part in (rec["cm"], rec["spectral"], rec["tile"]):
            part.update(mutated=True, nodes=-1, verdict="found")
        rec.update(n=-1, size=-1, f_member=True)


def test_non_forced_orders_keep_the_per_set_cover_search():
    # 180 = 2^2 3^2 5 is the least order that does not force the structure
    n = 180
    assert not search._shape_forces_structure(group(n))
    rec = search.classify_set((0, 1, 3), n)
    assert not rec["cm"]["t1"]
    verdict, _, nodes = search._covers(n, (0, 1, 3), search.DEFAULT_NODE_BUDGET, False)
    assert rec["tile"] == {"verdict": verdict, "witness": None, "nodes": nodes,
                           "budget": search.DEFAULT_NODE_BUDGET}
    assert search.record_line(rec) == search.dumps(rec) + "\n"


def _counting_lines(monkeypatch):
    built = []
    real = search.record_line

    def counting(rec):
        built.append(rec)
        return real(rec)

    monkeypatch.setattr(search, "record_line", counting)
    return built


def test_one_worker_survey_with_a_dict_sink_and_no_cursor_builds_no_line(monkeypatch, tmp_path):
    built = _counting_lines(monkeypatch)
    seen = []
    opts = SurveyOptions(threads=1, collect_records=False)
    fuglede_survey(group(12), opts, record_sink=seen.append)
    fuglede_survey(group(12), SurveyOptions(threads=1, affine=True))
    assert seen and built == []
    # a spool or a line stream takes one line per record
    opts = SurveyOptions(threads=1, collect_records=False, cursor_dir=str(tmp_path / "c"))
    summary = fuglede_survey(group(12), opts, record_sink=seen.append).summary
    assert len(built) == summary["orbits_surveyed"]


def test_folds_of_consecutive_runs_merge_into_the_fold_of_all():
    records = fuglede_survey(group(30), SurveyOptions(threads=1, per_size_limit=40)).records
    records += fuglede_survey(group(16), SurveyOptions(threads=1, node_budget=2)).records
    whole = search._Fold()
    for rec in records:
        whole.add(rec)
    merged = search._Fold()
    for start in range(0, len(records), 97):
        part = search._Fold()
        for rec in records[start:start + 97]:
            part.add(rec)
        merged.merge(part)
    assert vars(merged) == vars(whole)
    assert whole.orbits == len(records) and whole.unresolved


def test_two_worker_line_stream_matches_one_worker(tmp_path, monkeypatch):
    # without a cursor the workers' lines pass through a temporary directory,
    # which is gone afterwards
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    streams = {}
    for threads in (1, 2):
        out = __import__("io").StringIO()
        seen = []
        res = fuglede_survey(group(12), SurveyOptions(threads=threads, collect_records=False),
                             record_sink=seen.append, line_out=out)
        streams[threads] = (out.getvalue(), seen, _without_elapsed(res.summary))
    assert streams[1] == streams[2]
    text, seen, _ = streams[2]
    assert text == "".join(search.dumps(rec) + "\n" for rec in seen)
    assert list(tmp_path.iterdir()) == []


def test_two_worker_json_survey_of_a_large_task_stays_small():
    # size 11 of Z_22 is one task of 32,066 records and one of a single
    # record; its lines go through a file, so no process holds the task.  A
    # small wrapper process runs the CLI, so the peak RSS over the CLI and
    # its workers does not include this test process's.
    code = (
        "import resource, subprocess, sys\n"
        "argv = ['survey', '--n', '22', '--size', '11', '--json', '--threads', '2']\n"
        "subprocess.run([sys.executable, '-m', 'spectile.cli', *argv], check=True,\n"
        "               stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert float(done.stdout) < 40
