"""CLI behavior: subcommands, exit codes, stable JSON."""

import io
import json
import re
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import CycleDecomposition, InvariantViolation, MaskMultiset, ParseError, search, zn
from spectile.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_human(capsys):
    code, out, _ = run(capsys, "analyze", "12:{0,1,6,7}")
    assert code == 0
    assert "T1 holds" in out and "T2 holds" in out
    assert "found" in out


def test_analyze_json_round_trips(capsys):
    code, out, _ = run(capsys, "analyze", "--json", "12:{0,1,6,7}")
    assert code == 0
    blob = out.strip()
    obj = json.loads(blob)
    assert obj["schema"] == "spectile.analyze/1"
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == blob
    assert obj["zero_divisors"] == [2, 4, 12]


def test_analyze_rejects_bad_literal(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "analyze", "12:{0,1,")
    assert err.value.code == 2


def test_analyze_of_a_multiset_is_a_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "--json", "6:{0,1*2}")
    assert (code, out, err) == (2, "", "error: operation requires a proper set\n")


def test_verify_exit_codes(capsys):
    assert run(capsys, "verify", "--spectral", "12:{0,1,6,7}", "12:{0,1,6,7}")[0] == 0
    assert run(capsys, "verify", "--spectral", "4:{0,1}", "4:{0,1}")[0] == 1
    assert run(capsys, "verify", "--tiling", "12:{0,1,6,7}", "12:{0,2,4}")[0] == 0
    assert run(capsys, "verify", "--tiling", "6:{0,3}", "6:{0,3}")[0] == 1


def test_verify_json_and_human_verdicts_agree(capsys):
    _, human, _ = run(capsys, "verify", "--spectral", "12:{0,1,6,7}", "12:{0,1,6,7}")
    _, blob, _ = run(
        capsys, "verify", "--json", "--spectral", "12:{0,1,6,7}", "12:{0,1,6,7}"
    )
    assert "VERIFIED" in human
    assert json.loads(blob)["ok"] is True


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--json", "6:{0,1,3*2,5}")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert sum(obj["p_part"]) * 2 + sum(obj["q_part"]) * 3 == 5


def test_decompose_rejects_non_vanishing(capsys):
    code, out, _ = run(capsys, "decompose", "6:{0,1}")
    assert code == 1


def test_decompose_three_primes_is_usage_error(capsys):
    code, _, err = run(capsys, "decompose", "30:{0,15}")
    assert code == 2


def test_profile(capsys):
    code, out, _ = run(capsys, "profile", "--json", "12:{0,1,6,7}", "12:{0,1,6,7}")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["profile"]["a"]["s_p"] == [1, 2]
    assert "symmetry" in obj and "deficits" in obj


def test_profile_failure_exit(capsys):
    code, _, _ = run(capsys, "profile", "4:{0,1}", "4:{0,1}")
    assert code == 1


def test_exclude_verdicts(capsys):
    code, out, _ = run(capsys, "exclude", "--n", "2^9*3^100")
    assert code == 0 and out.startswith("EXCLUDED")
    code, out, _ = run(capsys, "exclude", "--n", "2^100*3^6")
    assert code == 0 and out.startswith("EXCLUDED")
    code, out, _ = run(capsys, "exclude", "--n", "2^5*3^7")
    assert code == 0 and out.startswith("EXCLUDED")
    code, out, _ = run(capsys, "exclude", "--n", "2^100*3^100")
    assert code == 1 and out.startswith("OPEN")


def test_exclude_json(capsys):
    code, out, _ = run(capsys, "exclude", "--json", "--n", "2^100*3^100")
    obj = json.loads(out)
    assert obj["verdict"] == "OPEN"
    assert obj["bounds"]["m_required"] == 10


def test_exclude_bad_format(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "exclude", "--n", "2^^3")
    assert err.value.code == 2


@pytest.mark.parametrize(
    "order", ["10000000000000061", "1000000000000000003", "2^9*10000000000000061^7"]
)
def test_exclude_of_an_unfactorable_order_exits_2_quickly(capsys, order):
    # each has a prime above 2^40, past where trial division stops
    start = time.perf_counter()
    try:
        code = main(["exclude", "--n", order])
    except SystemExit as exc:  # a factored order is rejected while parsing
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and not out.out and out.err.startswith("error: cannot factor")
    assert time.perf_counter() - start < 2


def test_survey_json_stream(capsys):
    code, out, _ = run(capsys, "survey", "--json", "--n", "8", "--threads", "1")
    assert code == 0
    lines = out.strip().splitlines()
    objs = [json.loads(line) for line in lines]
    assert objs[-1]["type"] == "summary"
    assert objs[-1]["f_count"] == 0
    records = [o for o in objs if o["type"] == "record"]
    assert len(records) == objs[-1]["orbits_surveyed"] == 35
    for line, obj in zip(lines, objs):
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line


def test_survey_human_summary(capsys):
    code, out, err = run(capsys, "survey", "--n", "6", "--threads", "1")
    assert code == 0
    assert "survey of Z_6" in out
    assert "spectral-non-tiles found: 0" in out


def test_survey_out_file(tmp_path, capsys):
    target = tmp_path / "records.jsonl"
    code, out, _ = run(
        capsys, "survey", "--json", "--n", "6", "--threads", "1", "--out", str(target)
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 13
    assert json.loads(out.strip().splitlines()[-1])["type"] == "summary"


def test_survey_size_and_budget_flags(capsys):
    code, out, _ = run(
        capsys,
        "survey", "--json", "--n", "12", "--size", "4", "--budget", "1000",
        "--threads", "1",
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["per_size"] == {
        "4": {"surveyed": 43, "total": 43, "spectral": 8, "tiles": 8, "cm_pass": 8}
    }


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["survey"])  # missing --n
    assert err.value.code == 2


@pytest.mark.parametrize("flag, path", [("--resume", "file"), ("--out", "missing/x"), ("--out", "")])
def test_survey_unwritable_path_is_a_usage_error(tmp_path, capsys, flag, path):
    (tmp_path / "file").write_text("")
    target = str(tmp_path / path) if path else path
    code, out, err = run(capsys, "survey", "--n", "8", "--threads", "1", flag, target)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [("--size", "0"), ("--size", "9"), ("--limit-per-size", "0")])
def test_survey_of_an_empty_plan_is_a_usage_error(capsys, argv):
    # no orbit planned would read as a complete survey of nothing
    code, out, err = run(capsys, "survey", "--json", "--n", "8", "--threads", "1", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "--budget", "-1", "12:{0,1,3}"),
    ("survey", "--n", "8", "--threads", "1", "--budget", "-1"),
    ("survey", "--n", "8", "--threads", "0"),
    ("survey", "--n", "8", "--threads", "-2"),
])
def test_negative_budget_or_no_worker_is_a_usage_error(capsys, argv):
    # a negative budget used to survey everything and exit 3; zero workers ran serially
    code, out, err = run(capsys, argv[0], "--json", *argv[1:])
    assert code == 2 and not out
    assert err.startswith("error: --") and len(err.strip().splitlines()) == 1


def test_analyze_of_a_deep_cover_search(capsys):
    # the complement search for {0, 2} goes 2,000 levels deep before it
    # fails, past the interpreter's recursion limit
    code, out, _ = run(capsys, "analyze", "--json", "4002:{0,2}")
    tile = json.loads(out)["tile"]
    assert code == 0 and (tile["verdict"], tile["nodes"]) == ("none", 3999)


def test_analyze_budget_exhaustion_exit(capsys):
    # {0,8} in Z_24 fails the structure conditions, so the complement search
    # really runs, and a one-node budget cannot finish it
    code, out, _ = run(capsys, "analyze", "--json", "--budget", "1", "24:{0,8}")
    obj = json.loads(out)
    assert obj["tile"]["verdict"] == "unknown" and code == 3


def test_survey_resume_flag(tmp_path, capsys):
    cursor = tmp_path / "cur"
    args = ["survey", "--json", "--n", "6", "--threads", "1", "--resume", str(cursor)]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    strip = lambda s: [l for l in s.splitlines() if '"type":"record"' in l]
    assert strip(out1) == strip(out2)


def test_exclude_of_a_high_power_does_not_build_the_divisor_lattice(capsys):
    # the verdict reads the factorization only; the 64,008 divisors of
    # 2^8000 * 3^7 would take tens of MB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "exclude", "--n", "2^8000*3^7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out.startswith("OPEN")
    assert peak < 4 << 20


def test_exclude_of_an_order_past_the_bit_bound_exits_2(capsys):
    # 2^99999999999 would need about 12.5 GB; the bound is checked before any power
    with pytest.raises(SystemExit) as err:
        run(capsys, "exclude", "--n", "2^99999999999*3^7")
    assert err.value.code == 2
    assert "bits" in capsys.readouterr().err


def test_analyze_at_a_six_prime_order(capsys):
    # zero_set forms no Phi_d, so no long division by Phi_30030 happens
    start = time.perf_counter()
    code, out, _ = run(capsys, "analyze", "--json", "30030:{0,1}")
    obj = json.loads(out)
    assert code == 0 and obj["zero_divisors"] == [2]
    assert obj["spectral"]["verdict"] == obj["tile"]["verdict"] == "found"
    assert time.perf_counter() - start < 5


def test_profile_three_prime_order_is_usage_error(capsys):
    # a genuine spectral pair, but root profiles need a two-prime order
    code, _, err = run(capsys, "profile", "30:{0,15}", "30:{0,15}")
    assert code == 2 and "prime" in err


def test_exclude_rejects_repeated_prime(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "exclude", "--n", "2^3*2^4")
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "12:{0,1,6,7}"],
        ["decompose", "6:{0,3}"],
        ["verify", "--spectral", "12:{0,1,6,7}", "12:{0,1,6,7}"],
        ["profile", "12:{0,1,6,7}", "12:{0,1,6,7}"],
        ["exclude", "--n", "2^9*3^100"],
    ],
)
def test_threads_is_a_survey_only_option(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run(capsys, argv[0], "--threads", "2", *argv[1:])
    assert err.value.code == 2


def test_decompose_large_multiplicities(capsys):
    # one cycle per 2000 copies used to mean one recursion level per copy
    code, out, _ = run(capsys, "decompose", "--json", "6:{0*2000,2*2000,4*2000}")
    assert code == 0
    obj = json.loads(out)
    dec = CycleDecomposition(
        MaskMultiset.from_coeffs(6, obj["p_part"]),
        MaskMultiset.from_coeffs(6, obj["q_part"]),
        2,
        3,
    )
    assert list(dec.recompose().coeffs) == [2000, 0, 2000, 0, 2000, 0]


def test_decompose_of_the_empty_multiset(capsys):
    code, out, _ = run(capsys, "decompose", "--json", "6:{}")
    obj = json.loads(out)
    assert code == 0 and obj["ok"] is True
    assert obj["p_part"] == obj["q_part"] == [0] * 6


def test_verify_at_a_six_prime_order(capsys):
    # route two divides by binomials, so Phi_30030 is never divided by densely
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--json", "--spectral", "30030:{0,15015}", "30030:{0,1}")
    assert code == 0 and json.loads(out)["ok"] is True
    assert time.perf_counter() - start < 3


def test_json_boolean_coefficients_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "analyze", '{"n":3,"coeffs":[true,false,true]}')
    assert err.value.code == 2


def test_escaping_library_error_exits_2(capsys):
    # Z_41 is past the survey's default feasibility bound (a DomainError)
    code, out, err = run(capsys, "survey", "--n", "41", "--threads", "1")
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("exc", [InvariantViolation("forged"), RuntimeError("forged"),
                                 OSError("forged")])
def test_crash_exits_4_not_1(capsys, monkeypatch, exc):
    # exit 1 means "spectral non-tile found"; a crash must not read as that
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(search, "classify_set", broken)
    code, _, err = run(capsys, "survey", "--json", "--n", "6", "--threads", "1")
    assert code == 4
    assert err.startswith("error: ") and "forged" in err
    assert len(err.strip().splitlines()) == 1


def test_resume_recomputes_a_task_whose_spool_file_is_gone(tmp_path, capsys, monkeypatch):
    cursor = tmp_path / "cur"
    args = ["survey", "--json", "--n", "6", "--threads", "1", "--resume", str(cursor)]
    records = lambda s: [l for l in s.splitlines() if '"type":"record"' in l]
    _, fresh, _ = run(capsys, *args)
    lost = cursor / "task-000002.jsonl"
    lost_sets = [tuple(json.loads(l)["set"]) for l in lost.read_text().splitlines()]
    lost.unlink()
    seen = []
    real = search.classify_set

    def counting(rep, *rest):
        seen.append(rep)
        return real(rep, *rest)

    monkeypatch.setattr(search, "classify_set", counting)
    code, again, _ = run(capsys, *args)
    assert code == 0
    assert records(again) == records(fresh)
    assert seen == lost_sets and lost.exists()


@pytest.mark.parametrize("affine", [(), ("--affine",)])
def test_one_and_two_workers_print_the_same_record_lines(tmp_path, capsys, affine):
    argv = ("survey", "--json", "--n", "14", *affine)
    _, one, _ = run(capsys, *argv, "--threads", "1")
    _, two, _ = run(capsys, *argv, "--threads", "2")
    records = one.splitlines()[:-1]
    assert len(records) > 200 and '"type":"record"' in records[0]
    assert two.splitlines()[:-1] == records
    # two workers write the cursor's spool files; a rerun replays them
    resume = ("--threads", "2", "--resume", str(tmp_path / "cur"))
    for _ in range(2):
        _, again, _ = run(capsys, *argv, *resume)
        assert again.splitlines()[:-1] == records
    elapsed = lambda out: {**json.loads(out.splitlines()[-1]), "elapsed_s": None}
    assert elapsed(again) == elapsed(one)


def test_human_survey_serialises_no_record(capsys, monkeypatch):
    # without --json or --out the records are not printed, so no sink is passed
    argv = ("survey", "--n", "10", "--threads", "1")
    elapsed = re.compile(r"\([0-9.]+ s\)")
    _, want, _ = run(capsys, *argv)

    def forbidden(obj):
        raise AssertionError("serialised a record nobody prints")

    monkeypatch.setattr(search, "dumps", forbidden)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert elapsed.sub("", out) == elapsed.sub("", want)


def test_oversized_order_is_a_usage_error(capsys):
    top = zn.MAX_ORDER
    zeros = ",".join(["0"] * (top + 1))
    for literal in (f"{top + 1}:{{0}}", f'{{"n":{top + 1},"coeffs":[{zeros}]}}'):
        with pytest.raises(SystemExit) as err:
            run(capsys, "analyze", literal)
        assert err.value.code == 2


@st.composite
def small_literals(draw):
    # valid literals stay at N <= 64, where the default budget keeps analyze quick
    n = draw(st.integers(1, 64))
    elems = draw(st.lists(st.integers(-2 * n, 2 * n), max_size=8, unique_by=lambda a: a % n))
    if draw(st.booleans()):
        coeffs = [0] * n
        for a in elems:
            coeffs[a % n] += 1
        return json.dumps({"n": n, "coeffs": coeffs})
    mults = [draw(st.sampled_from([1, 1, 1, 0, 2])) for _ in elems]
    return f"{n}:{{{','.join(f'{a}*{m}' if m != 1 else str(a) for a, m in zip(elems, mults))}}}"


def _small_or_unparsable(text):
    try:
        return zn.parse_multiset(text).n <= 64
    except ParseError:
        return True


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_literals(), st.text().filter(_small_or_unparsable)))
def test_analyze_exit_code_contract(text):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(["analyze", text])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
