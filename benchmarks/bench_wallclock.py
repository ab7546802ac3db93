"""Wall-clock perf-regression harness (CLI, not a pytest benchmark).

A thin loop over :data:`repro.perf.SUITES`, the one table of suites
and gates.  Each row runs fixed-seed workloads and yields ``results``
(wall seconds, CPU seconds, peak RSS and a headline rate per
benchmark) plus a ``fingerprint`` (``determinism`` for the kernel
suite) of simulated figures that must stay byte-identical across perf
work; the row's typed checks gate both against the committed
``BENCH_<suite>.json``.

Usage::

    python benchmarks/bench_wallclock.py                   # kernel suite, print
    python benchmarks/bench_wallclock.py --quick           # CI smoke sizes
    python benchmarks/bench_wallclock.py -o BENCH_kernel.json
    python benchmarks/bench_wallclock.py --quick --check-baseline BENCH_faults.json
    python benchmarks/bench_wallclock.py --quick --check-all --jobs 4 -o merged.json

``--check-baseline PATH`` runs the suite whose committed file is named
like PATH (``BENCH_<suite>.json``) and gates it against PATH; with
``-o`` the fresh run is written first, in the same format, which is
how a baseline is re-recorded.  ``--check-all`` runs every row, gates
each against its committed file, and ends with a markdown table of
per-benchmark wall/CPU/RSS (CI appends it to the job summary).
``--jobs N`` fans the rows of ``--check-all`` across N worker
processes, one row per worker and serial inside it, so wall rates stay
comparable to serially recorded baselines; for the kernel suite alone
it fans that suite's (benchmark, repeat) batches instead, and the
worker count is recorded so the kernel gate refuses to compare rates
recorded under a different setting.  Exit status 1 on any failure.

Wall-clock rates vary across machines; the committed baselines are a
tripwire for large same-machine-family regressions, which is why rate
tolerances are generous.  Fingerprints must match exactly.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import textwrap
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import perf  # noqa: E402  (path bootstrap above)
from repro.runner import run_units  # noqa: E402

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,d}"
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 100 else f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    text = str(value)
    return text[:16] + "…" if len(text) > 20 else text


def _scalars(section):
    """(key, value) pairs of a fingerprint, one dict level deep."""
    for key, value in section.items():
        if isinstance(value, dict):
            for inner, leaf in value.items():
                if not isinstance(leaf, (dict, list)):
                    yield f"{key}.{inner}", leaf
        elif not isinstance(value, list):
            yield key, value


def _wrap(pairs) -> str:
    return textwrap.fill("  ".join(f"{k}={_fmt(v)}" for k, v in pairs),
                         width=100, initial_indent="      ",
                         subsequent_indent="      ", break_long_words=False,
                         break_on_hyphens=False)


def print_suite(suite) -> None:
    """Every headline, detail and fingerprint figure of one suite."""
    header = [(k, v) for k, v in suite.items()
              if k != "suite" and not isinstance(v, dict)]
    print(f"{suite['suite']}  " + "  ".join(f"{k}={_fmt(v)}" for k, v in header))
    for name, result in suite["results"].items():
        print(f"  {name:16s} {_fmt(result['value']):>14s} {result['metric']}"
              f"  ({result['wall_seconds']:.3f}s wall, "
              f"{result['cpu_seconds']:.3f}s cpu, "
              f"{result['peak_rss_kb']:,d} kB peak)")
        print(_wrap(result["details"].items()))
    for section in ("fingerprint", "determinism"):
        if section in suite:
            print(f"  {section}")
            print(_wrap(_scalars(suite[section])))


def timing_table(suites, total: float, jobs: int) -> str:
    """Per-benchmark wall/CPU/RSS of every suite as a markdown table."""
    lines = ["### Benchmark timing", "",
             "| suite | benchmark | wall s | cpu s | peak RSS kB |",
             "|---|---|---:|---:|---:|"]
    for name, suite in suites.items():
        for bench, r in suite["results"].items():
            lines.append(f"| {name} | {bench} | {r['wall_seconds']:.2f} "
                         f"| {r['cpu_seconds']:.2f} | {r['peak_rss_kb']} |")
    lines += ["", f"harness total {total:.1f}s "
                  f"({jobs} worker{'s' if jobs != 1 else ''})"]
    return "\n".join(lines)


def _run(rows, args, fan_out: bool):
    """Run ``rows``; with ``fan_out`` the rows share ``--jobs`` workers,
    otherwise a row whose ``run`` takes ``jobs`` gets them to itself."""
    knobs = {"quick": args.quick, "repeats": args.repeats,
             "jobs": 1 if fan_out else args.jobs}
    units = [row.work_unit(**{k: v for k, v in knobs.items()
                              if k in inspect.signature(row.run).parameters})
             for row in rows]
    outputs = run_units(units, jobs=args.jobs if fan_out else 1)
    return {row.name: suite for row, suite in zip(rows, outputs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke job)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="keep the best of N runs per kernel-suite "
                             "benchmark (default 3)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write the suite result as JSON (with "
                             "--check-all: every suite, keyed by name)")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="run the suite of this BENCH_<suite>.json and "
                             "gate it against the file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--check-all", action="store_true",
                        help="run and gate every suite against its "
                             "committed BENCH_*.json")
    args = parser.parse_args(argv)

    if args.check_all:
        rows = list(perf.SUITES.values())
        baselines = {row.name: os.path.join(ROOT, row.baseline) for row in rows}
    elif args.check_baseline:
        by_file = {row.baseline: row for row in perf.SUITES.values()}
        row = by_file.get(os.path.basename(args.check_baseline))
        if row is None:
            parser.error(f"--check-baseline expects one of {sorted(by_file)}")
        rows, baselines = [row], {row.name: args.check_baseline}
    else:
        rows, baselines = [perf.SUITES["kernel"]], {}

    started = time.perf_counter()
    suites = _run(rows, args, fan_out=args.check_all)
    total = time.perf_counter() - started

    if args.output:
        perf.dump_suite(suites if args.check_all else suites[rows[0].name],
                        args.output)
        print(f"wrote {args.output}")

    failures = []
    for name, suite in suites.items():
        print_suite(suite)
        if name in baselines:
            with open(baselines[name]) as handle:
                found = perf.compare_to_baseline(name, suite, json.load(handle))
            failures += found
            print(f"  -> {name} gate {'FAILED' if found else 'passed'}\n")

    if args.check_all:
        print(timing_table(suites, total, args.jobs))
    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if baselines:
        print(f"all {len(baselines)} baseline gate"
              f"{'s' if len(baselines) != 1 else ''} passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
