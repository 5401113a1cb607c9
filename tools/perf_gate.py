#!/usr/bin/env python3
"""Performance gate for the committed BENCH_*.json baselines.

Three subcommands:

  perf_gate.py lint FILE...
      Validate benchmark JSON files against the documented schemas
      (bench/README.md). Exit 3 on any schema violation.

  perf_gate.py self-test
      Prove the lint and check rules fire on seeded documents: a valid
      record passes, a broken schema is rejected, a regressed stage and a
      losing SIMD kernel fail the check. Exit 0 when every rule fires.

  perf_gate.py check --baseline FILE --current FILE [options]
      Compare a fresh benchmark run against a committed baseline. The
      "bench" field selects the comparison (stagebench or micro_parallel).
      Comparisons that would be meaningless are *skipped loudly* rather
      than failed, so the gate can run unconditionally in CI:

      * micro_parallel: skipped when either side was recorded with
        hardware_threads == 1 (thread-scaling of a single-core host says
        nothing; see docs/PERFORMANCE.md "Baseline debt").
      * any bench: refused when the current host has MORE hardware
        threads than the baseline host, or when arch / SIMD / workload
        parameters differ — a baseline from a weaker or different host
        must not gate a stronger one. Re-record the baseline instead.

      Skips and refusals exit 0 (4 with --strict). Regressions exit 2.

Exit codes: 0 pass or skip, 1 usage/IO error, 2 regression (or a dead
rule under self-test), 3 schema violation, 4 refused comparison under
--strict.
"""

import argparse
import json
import sys

DEFAULT_MAX_REGRESS = 0.25  # fraction: fail when current > baseline * 1.25
DEFAULT_MIN_SIMD_SPEEDUP = 1.0


class SchemaError(Exception):
    pass


def _require(obj, key, types, where):
    if key not in obj:
        raise SchemaError(f"{where}: missing key '{key}'")
    if not isinstance(obj[key], types):
        names = (
            types.__name__
            if isinstance(types, type)
            else "/".join(t.__name__ for t in types)
        )
        raise SchemaError(
            f"{where}: key '{key}' should be {names}, "
            f"got {type(obj[key]).__name__}"
        )
    return obj[key]


NUMBER = (int, float)


# The one stage stagebench times per SIMD kernel, and the within-run
# scalar/best ratio it records for it.
STAGEBENCH_SCHEMA_VERSION = 3
SIMD_SPEEDUP_FIELD = "stage1_simd_speedup"
SIMD_SPEEDUP_STAGE = "stage1_match_counts"


def lint_stagebench(doc, where):
    """BENCH_stages.json schema; documented in bench/README.md."""
    version = _require(doc, "schema_version", int, where)
    if version != STAGEBENCH_SCHEMA_VERSION:
        raise SchemaError(
            f"{where}: schema_version {version}, expected "
            f"{STAGEBENCH_SCHEMA_VERSION}; re-record the file"
        )
    _require(doc, "quick", bool, where)
    for key in ("n", "sigma", "period", "max_period", "repeats",
                "hardware_threads"):
        _require(doc, key, int, where)
    _require(doc, "threshold", NUMBER, where)
    for key in ("arch", "cpu_model", "simd_detected", "cycle_counter"):
        _require(doc, key, str, where)
    _require(doc, SIMD_SPEEDUP_FIELD, NUMBER, where)
    stages = _require(doc, "stages", list, where)
    if not stages:
        raise SchemaError(f"{where}: 'stages' is empty")
    for i, stage in enumerate(stages):
        swhere = f"{where}: stages[{i}]"
        if not isinstance(stage, dict):
            raise SchemaError(f"{swhere}: not an object")
        _require(stage, "stage", str, swhere)
        _require(stage, "kernel", str, swhere)
        _require(stage, "cycles_min", int, swhere)
        wall = _require(stage, "wall_ms", dict, swhere)
        for key in ("min", "mean", "max"):
            _require(wall, key, NUMBER, f"{swhere}: wall_ms")
        samples = _require(stage, "samples_ms", list, swhere)
        if len(samples) != doc["repeats"]:
            raise SchemaError(
                f"{swhere}: {len(samples)} samples_ms but repeats = "
                f"{doc['repeats']}"
            )
        for sample in samples:
            if not isinstance(sample, NUMBER):
                raise SchemaError(f"{swhere}: non-numeric sample")
        if stage["stage"] == SIMD_SPEEDUP_STAGE:
            lint_stage1_paths(stage, doc["sigma"], swhere)


def lint_stage1_paths(stage, sigma, where):
    """Stage-1 rows name the path each symbol took under their kernel."""
    _require(stage, "crossover_lags", int, where)
    paths = _require(stage, "paths", list, where)
    if len(paths) != sigma:
        raise SchemaError(
            f"{where}: {len(paths)} paths but sigma = {sigma}"
        )
    for path in paths:
        if path not in ("lag_words", "fft"):
            raise SchemaError(f"{where}: unknown stage-1 path {path!r}")


def lint_micro_parallel(doc, where):
    """BENCH_parallel.json schema; documented in bench/README.md."""
    for key in ("n", "sigma", "period", "max_period", "repeats",
                "hardware_threads"):
        _require(doc, key, int, where)
    results = _require(doc, "results", list, where)
    if not results:
        raise SchemaError(f"{where}: 'results' is empty")
    for i, row in enumerate(results):
        rwhere = f"{where}: results[{i}]"
        if not isinstance(row, dict):
            raise SchemaError(f"{rwhere}: not an object")
        _require(row, "threads", int, rwhere)
        _require(row, "wall_ms", NUMBER, rwhere)
        _require(row, "speedup", NUMBER, rwhere)


LINTERS = {
    "stagebench": lint_stagebench,
    "micro_parallel": lint_micro_parallel,
}


def load_and_lint(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        print(f"perf_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(1)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not an object")
    bench = _require(doc, "bench", str, path)
    linter = LINTERS.get(bench)
    if linter is None:
        raise SchemaError(
            f"{path}: unknown bench '{bench}' "
            f"(known: {', '.join(sorted(LINTERS))})"
        )
    linter(doc, path)
    return doc


class Refused(Exception):
    """Comparison would be meaningless; skip (exit 0) or fail (--strict)."""


def check_host_compatible(baseline, current, params):
    """Common refusal rules for both benches."""
    for key in params:
        if baseline.get(key) != current.get(key):
            raise Refused(
                f"workload parameter '{key}' differs "
                f"(baseline {baseline.get(key)!r}, current "
                f"{current.get(key)!r}); re-record the baseline"
            )
    base_threads = baseline["hardware_threads"]
    cur_threads = current["hardware_threads"]
    if cur_threads > base_threads:
        raise Refused(
            f"baseline was recorded on a weaker host "
            f"({base_threads} hardware threads vs {cur_threads} now); "
            f"numbers are not comparable — re-record the baseline on "
            f"this class of host"
        )


def check_stagebench_within_run(current, args):
    """Baseline-free check: on any host with a vector kernel, stage 1's
    lag words (the stage that dispatches on SIMD) must not lose to
    scalar. Runs even when the cross-host comparison is refused, so CI
    keeps this gate on runners the baseline does not match. Skipped on
    scalar-only hosts, where the reported speedup is trivially 1.0
    against itself."""
    failures = []
    kernels = {s["kernel"] for s in current["stages"]
               if s["stage"] == SIMD_SPEEDUP_STAGE}
    if len(kernels) > 1:
        speedup = current[SIMD_SPEEDUP_FIELD]
        verdict = "ok" if speedup >= args.min_simd_speedup else "REGRESSED"
        print(
            f"  {SIMD_SPEEDUP_FIELD} {speedup:.3f} "
            f"(minimum {args.min_simd_speedup:.3f}): {verdict}"
        )
        if speedup < args.min_simd_speedup:
            failures.append(
                f"{SIMD_SPEEDUP_FIELD} {speedup:.3f} below required "
                f"{args.min_simd_speedup:.3f}"
            )
    else:
        print(f"  note: single {SIMD_SPEEDUP_STAGE} kernel on this host; "
              "SIMD speedup check skipped")
    return failures


def check_stagebench(baseline, current, args):
    failures = check_stagebench_within_run(current, args)
    try:
        check_host_compatible(
            baseline, current,
            params=("quick", "n", "sigma", "period", "max_period",
                    "threshold", "arch", "simd_detected"),
        )
    except Refused:
        # The within-run verdict stands on its own; surface it instead of
        # the skip when it failed.
        if failures:
            return failures
        raise

    base_stages = {
        (s["stage"], s["kernel"]): s["wall_ms"]["min"]
        for s in baseline["stages"]
    }
    cur_stages = {
        (s["stage"], s["kernel"]): s["wall_ms"]["min"]
        for s in current["stages"]
    }
    for key, base_min in sorted(base_stages.items()):
        stage, kernel = key
        if key not in cur_stages:
            failures.append(
                f"stage {stage} [{kernel}]: present in baseline but "
                f"missing from the current run"
            )
            continue
        cur_min = cur_stages[key]
        limit = base_min * (1.0 + args.max_regress)
        verdict = "ok" if cur_min <= limit else "REGRESSED"
        print(
            f"  {stage:<22} [{kernel:<7}] baseline {base_min:9.3f} ms, "
            f"current {cur_min:9.3f} ms (limit {limit:9.3f}): {verdict}"
        )
        if cur_min > limit:
            failures.append(
                f"stage {stage} [{kernel}]: {cur_min:.3f} ms vs baseline "
                f"{base_min:.3f} ms exceeds +{args.max_regress:.0%}"
            )
    for key in sorted(set(cur_stages) - set(base_stages)):
        print(f"  note: stage {key[0]} [{key[1]}] is new (no baseline)")
    return failures


def check_micro_parallel(baseline, current, args):
    # A 1-thread host cannot produce a meaningful thread-scaling curve:
    # skip the comparison entirely, not just the JSON emission
    # (micro_parallel itself exits 3 without writing JSON in that case,
    # but committed baselines may predate that behavior).
    for name, doc in (("baseline", baseline), ("current", current)):
        if doc["hardware_threads"] == 1:
            raise Refused(
                f"{name} was recorded with hardware_threads == 1; "
                f"thread-scaling comparison is meaningless — re-record "
                f"BENCH_parallel.json on a multi-core host"
            )
    check_host_compatible(
        baseline, current, params=("n", "sigma", "period", "max_period")
    )

    failures = []
    base_rows = {r["threads"]: r["wall_ms"] for r in baseline["results"]}
    cur_rows = {r["threads"]: r["wall_ms"] for r in current["results"]}
    for threads, base_ms in sorted(base_rows.items()):
        if threads not in cur_rows:
            failures.append(f"threads={threads}: missing from current run")
            continue
        cur_ms = cur_rows[threads]
        limit = base_ms * (1.0 + args.max_regress)
        verdict = "ok" if cur_ms <= limit else "REGRESSED"
        print(
            f"  threads {threads:>2}: baseline {base_ms:9.3f} ms, "
            f"current {cur_ms:9.3f} ms (limit {limit:9.3f}): {verdict}"
        )
        if cur_ms > limit:
            failures.append(
                f"threads={threads}: {cur_ms:.3f} ms vs baseline "
                f"{base_ms:.3f} ms exceeds +{args.max_regress:.0%}"
            )
    return failures


def cmd_lint(args):
    status = 0
    for path in args.files:
        try:
            doc = load_and_lint(path)
        except SchemaError as err:
            print(f"perf_gate lint: {err}", file=sys.stderr)
            status = 3
            continue
        print(f"perf_gate lint: {path}: ok ({doc['bench']})")
    return status


def cmd_check(args):
    try:
        baseline = load_and_lint(args.baseline)
        current = load_and_lint(args.current)
    except SchemaError as err:
        print(f"perf_gate: {err}", file=sys.stderr)
        return 3
    if baseline["bench"] != current["bench"]:
        print(
            f"perf_gate: baseline is {baseline['bench']} but current is "
            f"{current['bench']}",
            file=sys.stderr,
        )
        return 1

    checker = {
        "stagebench": check_stagebench,
        "micro_parallel": check_micro_parallel,
    }[baseline["bench"]]
    print(f"perf_gate: {baseline['bench']}: "
          f"{args.current} vs baseline {args.baseline}")
    try:
        failures = checker(baseline, current, args)
    except Refused as err:
        print(f"perf_gate: comparison SKIPPED: {err}")
        return 4 if args.strict else 0
    if failures:
        for failure in failures:
            print(f"perf_gate: FAIL: {failure}", file=sys.stderr)
        return 2
    print("perf_gate: pass")
    return 0


def _seed_stagebench(stage2_ms=10.0, scalar_ms=100.0, simd_ms=20.0):
    """A minimal valid stagebench record for the self-test."""
    def row(stage, kernel, ms, **extra):
        return dict(stage=stage, kernel=kernel, cycles_min=1,
                    wall_ms=dict(min=ms, mean=ms, max=ms),
                    samples_ms=[ms], **extra)

    paths = dict(crossover_lags=1, paths=["lag_words"])
    doc = dict(bench="stagebench", schema_version=STAGEBENCH_SCHEMA_VERSION,
               quick=True, n=64, sigma=1, period=2, max_period=8,
               threshold=0.3, repeats=1,
               hardware_threads=4, arch="x86_64", cpu_model="seed",
               simd_detected="avx2", cycle_counter="rdtsc")
    doc[SIMD_SPEEDUP_FIELD] = scalar_ms / simd_ms
    doc["stages"] = [
        row(SIMD_SPEEDUP_STAGE, "scalar", scalar_ms, **paths),
        row(SIMD_SPEEDUP_STAGE, "avx2", simd_ms, **paths),
        row("stage2_phase_refine", "default", stage2_ms),
    ]
    return doc


def cmd_self_test(_args):
    """Every lint and check rule must fire on a seeded violation."""
    gate = argparse.Namespace(max_regress=DEFAULT_MAX_REGRESS,
                              min_simd_speedup=DEFAULT_MIN_SIMD_SPEEDUP)
    dead = []

    def expect(name, fired):
        print(f"perf_gate self-test: {name}: "
              f"{'ok' if fired else 'DEAD RULE'}")
        if not fired:
            dead.append(name)

    def lint_fails(doc):
        try:
            lint_stagebench(doc, "seed")
        except SchemaError:
            return True
        return False

    def check_fails(baseline, current):
        try:
            return bool(check_stagebench(baseline, current, gate))
        except Refused:
            return False

    expect("a valid record lints clean", not lint_fails(_seed_stagebench()))
    broken = _seed_stagebench()
    del broken[SIMD_SPEEDUP_FIELD]
    expect(f"a record without {SIMD_SPEEDUP_FIELD} is rejected",
           lint_fails(broken))
    expect("an older schema_version is rejected",
           lint_fails(_seed_stagebench() | dict(schema_version=2)))
    wrong_paths = _seed_stagebench()
    wrong_paths["stages"][0]["paths"] = []
    expect("stage-1 row without a path per symbol is rejected",
           lint_fails(wrong_paths))
    expect("unchanged record passes the check",
           not check_fails(_seed_stagebench(), _seed_stagebench()))
    expect("a stage 30% slower fails the check",
           check_fails(_seed_stagebench(), _seed_stagebench(stage2_ms=13.0)))
    expect("a vector kernel losing to scalar fails the within-run check",
           bool(check_stagebench_within_run(
               _seed_stagebench(scalar_ms=100.0, simd_ms=110.0), gate)))
    if dead:
        print(f"perf_gate self-test: {len(dead)} dead rule(s)",
              file=sys.stderr)
        return 2
    print("perf_gate self-test: pass")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="perf_gate.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="validate BENCH_*.json schemas")
    lint.add_argument("files", nargs="+")
    lint.set_defaults(func=cmd_lint)

    self_test = sub.add_parser(
        "self-test", help="prove every lint and check rule fires")
    self_test.set_defaults(func=cmd_self_test)

    check = sub.add_parser("check", help="compare a run against a baseline")
    check.add_argument("--baseline", required=True)
    check.add_argument("--current", required=True)
    check.add_argument(
        "--max-regress", type=float, default=DEFAULT_MAX_REGRESS,
        help="allowed per-stage slowdown fraction "
             f"(default {DEFAULT_MAX_REGRESS})",
    )
    check.add_argument(
        "--min-simd-speedup", type=float, default=DEFAULT_MIN_SIMD_SPEEDUP,
        help="required stage-1 scalar/SIMD ratio within the current run "
             f"(default {DEFAULT_MIN_SIMD_SPEEDUP})",
    )
    check.add_argument(
        "--strict", action="store_true",
        help="exit 4 instead of 0 when the comparison is skipped/refused",
    )
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
