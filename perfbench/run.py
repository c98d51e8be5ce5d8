#!/usr/bin/env python3
"""Survey-and-query benchmark for spectile.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/`.  A run:

  1. imports spectile here, builds the inputs and then repeats one pass of
     the workload, each in a fresh fork of this process, until --seconds
     are used (at least MIN_PASSES passes).  A fork has imported spectile
     but computed nothing, so every pass pays for every cache fill, as a
     command-line call does;
  2. before each pass (and after the last, up to SETUP_PROBES in all) times
     a fresh interpreter that imports spectile and builds the workload's
     inputs; `setup_s` is the median of these probes;
  3. checks every pass's outputs with independent oracles (`checks.py`),
     outside the timed region;
  4. prints a line with the reference-loop times taken between passes, and
     last one JSON line: correct, attempted, failed and the metrics (the
     median pass), end to end with --trace 0 and per layer with --trace 1.

Workloads and their inputs are described in `workloads.py` and README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 3
MAX_PASSES = 40
REFERENCE_LOOP = 100_000
QUERY_KINDS = ("analyze", "verify", "decompose", "profile")
# query calls per kind that the sympy oracle also checks, drawn from the seed
ORACLE_CALLS = {"analyze": 8, "verify": 8, "decompose": 4, "profile": 4}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spectile():
    """Import spectile from src/ of this checkout; None when it is not there."""
    if not (SRC / "spectile" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import spectile
    from spectile import cli, cm, cycles, pairs, search, zn

    if Path(spectile.__file__).resolve().parent != SRC / "spectile":
        return None
    return {"cli": cli, "cm": cm, "cycles": cycles, "pairs": pairs, "search": search, "zn": zn}


def build_inputs(workload, seed):
    """Surveys: (n, options, sets surveyed, record positions re-verified) per call.
    Queries: (kind, argv, oracle-checked) per call."""
    if workload == "queries":
        calls = workloads.query_stream(seed)
        rng = random.Random(f"oracle:{seed}")
        oracle = set()
        for kind, count in ORACLE_CALLS.items():
            idx = [i for i, (k, _) in enumerate(calls) if k == kind]
            oracle.update(rng.sample(idx, min(count, len(idx))))
        return [(kind, argv, i in oracle) for i, (kind, argv) in enumerate(calls)]
    out = []
    for n, kw in workloads.SURVEYS[workload]:
        sizes = workloads.expected_sizes(n, kw.get("affine", False), kw.get("per_size_limit"))
        surveyed = sum(s for _, s in sizes.values())
        out.append((n, kw, surveyed, workloads.recheck_indices(seed, n, surveyed)))
    return out


def setup_probe(args):
    """Seconds from spawning a probe interpreter to its `ready` line, or None."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait()
    return t1 - t0 if line.strip() == b"ready" and code == 0 else None


def reference_loop_ms():
    """A fixed pure-Python loop; its time shows host drift, it is no metric."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return (perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# one pass, run in a fresh fork


class Tally:
    """Record sink: counts records and keeps those at pre-drawn positions."""

    def __init__(self, chosen):
        self.chosen = chosen
        self.count = 0
        self.kept = []

    def __call__(self, rec):
        if self.count in self.chosen:
            self.kept.append(rec)
        self.count += 1


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def survey_pass(mods, inputs, seed):
    search, zn = mods["search"], mods["zn"]
    cursor_root = OUT / f"cursor-{os.getpid()}"
    calls, wall = [], 0.0
    try:
        for n, kw, surveyed, chosen in inputs:
            tally = Tally(chosen)
            cursor = cursor_root / f"z{n}" if "per_size_limit" in kw else None
            opts = search.SurveyOptions(
                threads=1, collect_records=False, seed=seed,
                cursor_dir=None if cursor is None else str(cursor), **kw,
            )
            t0 = perf_counter()
            try:
                summary = search.fuglede_survey(zn.group(n), opts, record_sink=tally).summary
                error = None
            except Exception:
                summary, error = None, traceback.format_exc()
            wall += perf_counter() - t0
            calls.append({
                "n": n, "kw": kw, "surveyed": surveyed, "summary": summary, "error": error,
                "count": tally.count, "kept": tally.kept,
                "spool": None if cursor is None or not cursor.exists() else dir_bytes(cursor),
            })
    finally:
        shutil.rmtree(cursor_root, ignore_errors=True)
    orbits = sum(c["count"] for c in calls)
    return {"calls": calls, "wall": wall, "orbits": orbits}


def query_pass(mods, inputs, tracer, outputs_path):
    parser = mods["cli"].build_parser()

    def call(argv):
        args = parser.parse_args(argv)
        return args.func(args)

    by_kind = {k: call if tracer is None else tracer.wrap(call, f"query.{k}") for k in QUERY_KINDS}
    lat = array("d")
    outputs = []
    t_pass = perf_counter()
    for kind, argv, _ in inputs:
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(buf):
                rc = by_kind[kind](argv)
        except Exception:
            rc, buf = None, io.StringIO(traceback.format_exc(limit=3))
        lat.append(perf_counter() - t0)
        outputs.append((rc, buf.getvalue()))
    wall = perf_counter() - t_pass
    # The parent keeps a digest only, so later forks do not inherit the
    # outputs in their resident set; one pass leaves them on disk to check.
    if outputs_path is not None:
        with open(outputs_path, "wb") as fh:
            pickle.dump(outputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "digest": hashlib.sha256(pickle.dumps(outputs)).hexdigest(),
        "failed": sum(rc is None or rc == 3 for rc, _ in outputs),
        "wall": wall, "orbits": len(inputs), "lat": lat,
    }


def run_pass(mods, workload, inputs, seed, trace, outputs_path):
    tracer = None
    lat = array("d")
    if trace:
        tracer = layers.Tracer()
        tracer.install(mods)
    elif workload != "queries" and hasattr(mods["search"], "classify_set"):
        # the survey's unit of work: one orbit's classification
        search = mods["search"]
        classify = search.classify_set

        def timed(*a, **k):
            t0 = perf_counter()
            out = classify(*a, **k)
            lat.append(perf_counter() - t0)
            return out

        search.classify_set = timed
    if workload == "queries":
        res = query_pass(mods, inputs, tracer, outputs_path)
        lat = res.pop("lat")
    else:
        res = survey_pass(mods, inputs, seed)
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(lat) >= 2:
        ms = sorted(v * 1e3 for v in lat)
        res["p50"] = statistics.median(ms)
        res["p90"] = statistics.quantiles(ms, n=10)[8]
    if tracer is not None:
        memo = getattr(mods["zn"], "_cyclo_divides", None)
        memo = memo.cache_info() if hasattr(memo, "cache_info") else None
        spool = sum(c["spool"] or 0 for c in res.get("calls", ()))
        res["layers"] = layers.layer_metrics(tracer, res["orbits"], memo, spool, QUERY_KINDS)
        res["spans"] = tracer.dump()
    return res


def forked(fn):
    """Run fn() in a fork of this process and return its pickled result."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.collect()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            try:
                payload = ("ok", fn())
            except Exception:
                payload = ("error", traceback.format_exc())
            with os.fdopen(w, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return ("error", f"pass process ended with status {status}")
    return pickle.loads(data)


# ---------------------------------------------------------------------------
# checks and the result line


def check_passes(workload, inputs, passes, outputs_path):
    """(failed operations, failure messages) over all passes."""
    import checks

    failed, bad = 0, []
    if workload == "queries":
        with open(outputs_path, "rb") as fh:
            outputs = pickle.load(fh)
        digest = hashlib.sha256(pickle.dumps(outputs)).hexdigest()
        for res in passes:
            failed += res["failed"]
            if res["digest"] != digest:
                bad.append("query outputs differ between passes")
        for (kind, argv, oracle), (rc, out) in zip(inputs, outputs):
            if rc is None or rc == 3:
                bad.append(f"{kind} {' '.join(argv)[:60]}: failed: {out.strip()[-200:]}")
            else:
                bad.extend(checks.check_query(kind, argv, rc, out, oracle))
        return failed, bad
    memo = {}
    for res in passes:
        for call in res["calls"]:
            n = call["n"]
            if call["error"] is not None:
                failed += call["surveyed"]
                bad.append(f"Z_{n}: survey raised: {call['error'].strip()[-300:]}")
                continue
            failed += len(call["summary"]["unresolved"])
            key = json.dumps([n, call["kw"], call["count"], call["kept"],
                              {k: v for k, v in call["summary"].items() if k != "elapsed_s"}],
                             sort_keys=True)
            if key not in memo:
                memo[key] = checks.check_survey(n, call["kw"], call["summary"], call["count"], call["kept"])
            bad.extend(memo[key])
    if len(memo) > len(passes[0]["calls"]):
        bad.append("survey outputs differ between passes")
    return failed, bad


def end_to_end(passes, setup_s):
    def metric(value, unit):
        return {"value": value, "unit": unit}

    out = {
        "setup_s": metric(setup_s, "s"),
        "orbits_per_s": metric(statistics.median(p["orbits"] / p["wall"] for p in passes), "1/s"),
    }
    if all("p50" in p for p in passes):
        out["query_p50_ms"] = metric(statistics.median(p["p50"] for p in passes), "ms")
        out["query_p90_ms"] = metric(statistics.median(p["p90"] for p in passes), "ms")
    out["peak_rss_mb"] = metric(statistics.median(p["rss_mb"] for p in passes), "MB")
    return out


def per_layer(passes):
    names = {}
    for p in passes:
        for name, m in p["layers"].items():
            names.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {name: {"value": statistics.median(vals), "unit": unit}
            for name, (unit, vals) in names.items()}


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        if load_spectile() is None:
            return 2
        build_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if not (SRC / "spectile" / "__init__.py").is_file():
        print(f"error: no spectile package under {SRC}", file=sys.stderr)
        return 2
    probes = [setup_probe(args)]
    if probes[0] is None:
        print("error: the set-up probe did not start", file=sys.stderr)
        return 2
    mods = load_spectile()
    if mods is None:
        print(f"error: spectile did not import from {SRC}", file=sys.stderr)
        return 2
    inputs = build_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)

    outputs_path = OUT / f"outputs-{os.getpid()}.pickle"
    passes, errors, walls, ref_ms, spans = [], [], [], [], None
    t_start = perf_counter()
    while len(passes) + len(errors) < MAX_PASSES:
        # set-up probes and the reference loop sit between passes, so they
        # sample the host over the whole run
        if walls:
            probes.append(setup_probe(args))
        ref_ms.append(reference_loop_ms())
        keep = outputs_path if args.workload == "queries" and not outputs_path.exists() else None
        t0 = perf_counter()
        status, res = forked(lambda: run_pass(mods, args.workload, inputs, args.seed, args.trace, keep))
        walls.append(perf_counter() - t0)
        if status == "ok":
            spans = res.pop("spans", spans)
            passes.append(res)
        else:
            errors.append(res)
        elapsed = perf_counter() - t_start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break
    ref_ms.append(reference_loop_ms())
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    if None in probes:
        print("error: a set-up probe failed", file=sys.stderr)
        return 2
    setup_s = statistics.median(probes)

    if args.workload == "queries":
        per_pass = len(inputs)
    else:
        per_pass = sum(surveyed for _, _, surveyed, _ in inputs)
    attempted = per_pass * (len(passes) + len(errors))
    failed = per_pass * len(errors)
    bad = [f"pass failed: {e.strip()[-300:]}" for e in errors]
    try:
        if passes:
            f, b = check_passes(args.workload, inputs, passes, outputs_path)
            failed += f
            bad.extend(b)
    finally:
        outputs_path.unlink(missing_ok=True)
    for line in bad[:20]:
        print(f"check: {line}", file=sys.stderr)

    if not passes:
        metrics = {}
    elif args.trace:
        metrics = per_layer(passes)
        layers.write_spans(OUT / f"spans-{args.workload}.tsv", spans)
    else:
        metrics = end_to_end(passes, setup_s)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_s": [round(w, 3) for w in walls],
        "setup_probes_s": [round(p, 3) for p in probes],
        "sets_per_s": [round(p["orbits"] / p["wall"], 1) for p in passes],
        "reference_loop_ms": [round(v, 2) for v in ref_ms],
    }
    print("info " + json.dumps(info))
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
