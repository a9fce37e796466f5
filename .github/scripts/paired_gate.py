#!/usr/bin/env python3
"""Host-time gate: a base checkout against this one, in pairs on one machine.

    python3 .github/scripts/paired_gate.py <base-checkout>

The head side is the checkout this script lives in. Both sides run this
checkout's benchmark: the gate first replaces the base checkout's
`perfbench/` and `BENCHMARK.json` with copies of this one's, so only the
library differs between the sides.

For every `BENCHMARK.json` workload the gate runs `perfbench/run.py` in
PAIRS pairs, alternating which side runs first, and divides each pair's
head value by its base value. Every end-to-end metric whose name does not
start with `sim_` fails when the median ratio over the pairs is worse than
the metric's bound. The simulated metrics are not gated here: a model
change moves them on purpose.

Every perfbench run prints one `simulated fingerprint <hex>` line. Both
sides run on this machine with one libm, so every run of a side must print
the same fingerprint: a side that prints two is nondeterministic, and the
gate stops with exit status 2. The gate then reports whether the head's
fingerprint is the base's (`same`) or not (`moved`); that line is a
report, not a verdict, since a declared model change moves it on purpose.

Three probes time paths no benchmark workload runs, with HAMS_THREADS=1:
`figures fig6` (the mmap path), `figures fig18` (the loose HAMS modes,
which serve through the SSD's internal DRAM; every workload is tight and
DRAM-less) and `figures fig26` (the fault path). A side's value in a pair
is runs per second of its fastest of PROBE_RUNS runs, held to the bound of
`host_accesses_per_s`.

Ratios of paired runs follow Kalibera & Jones, "Rigorous Benchmarking in
Reasonable Time" (ISMM 2013); perfbench's host rate already keeps the
fastest session (Chen & Revels, HPEC 2016), as the probes do.

Exit status: 0 when every verdict passes, 1 when one fails, 2 when a build
or a run fails.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HEAD = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# On a shared 2-vCPU Xeon host, single A/A pairs ranged from 0.52 to 1.99
# and one of three seven-pair A/A runs failed; nine pairs passed every A/A
# run there.
PAIRS = 9
SECONDS = 2
SEED = 42
PROBES = ("fig6", "fig18", "fig26")
PROBE_RUNS = 3
RATE_METRIC = "host_accesses_per_s"
FINGERPRINT = "simulated fingerprint "


class RunError(Exception):
    """A build or run that did not produce a measurement."""


def verdict(pairs, better, bound):
    """Median of the paired ratios head / base over `pairs` of (base, head)
    values, and whether it is within `bound`. A metric that is better
    `higher` passes at a median ratio of at least 1 - bound, one that is
    better `lower` at most 1 + bound; a ratio exactly at the bound passes."""
    if not pairs:
        raise ValueError("no pairs to judge")
    if any(base <= 0 or head <= 0 for base, head in pairs):
        raise ValueError(f"non-positive measurement in {pairs}")
    ratio = statistics.median(head / base for base, head in pairs)
    if better == "higher":
        return ratio, ratio >= 1 - bound
    if better == "lower":
        return ratio, ratio <= 1 + bound
    raise ValueError(f"unknown direction {better!r}")


def fingerprint_of(stdout):
    """The value of the one `simulated fingerprint <hex>` line in a
    perfbench run's output."""
    found = [line[len(FINGERPRINT):].strip() for line in stdout.splitlines()
             if line.startswith(FINGERPRINT)]
    if len(found) != 1:
        raise RunError(f"expected one '{FINGERPRINT.strip()}' line, found {len(found)}")
    try:
        int(found[0], 16)
    except ValueError:
        raise RunError(f"malformed simulated fingerprint {found[0]!r}") from None
    return found[0]


def side_fingerprint(side, fingerprints):
    """The one fingerprint every run of `side` printed. Simulated results
    are deterministic, so two distinct values are an error."""
    distinct = sorted(set(fingerprints))
    if len(distinct) != 1:
        raise RunError(f"{side} printed {len(distinct)} distinct simulated fingerprints "
                       f"({', '.join(distinct)}): its simulated results are nondeterministic")
    return distinct[0]


def fingerprint_report(workload, base, head):
    """The report-only line saying whether the simulated results moved."""
    return (f"{workload:<16} simulated fingerprint base {base} head {head}: "
            f"{'same' if base == head else 'moved'}")


def use_head_benchmark(base):
    """Makes the base checkout run this checkout's benchmark."""
    if os.path.realpath(base) == os.path.realpath(HEAD):
        raise RunError("the base checkout must not be this checkout")
    shutil.rmtree(os.path.join(base, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(HEAD, "perfbench"), os.path.join(base, "perfbench"),
                    ignore=shutil.ignore_patterns("target", ".bench_build"))
    shutil.copy2(os.path.join(HEAD, "BENCHMARK.json"), os.path.join(base, "BENCHMARK.json"))


def side_env(side, **extra):
    # One build directory per side, shared by perfbench and `figures`.
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(side, ".bench_build"), **extra)


def run_perfbench(side, workload):
    """The simulated fingerprint and the metric values of one
    `perfbench/run.py` run of `workload` on `side`."""
    argv = [sys.executable, os.path.join(side, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    run = subprocess.run(argv, cwd=side, env=side_env(side), capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RunError(f"{side}: {workload} exited {run.returncode}\n{run.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise RunError(f"{side}: {workload} reported correct={result['correct']}\n{run.stdout}")
    try:
        fingerprint = fingerprint_of(run.stdout)
    except RunError as e:
        raise RunError(f"{side}: {workload}: {e}") from None
    return fingerprint, {name: metric["value"] for name, metric in result["metrics"].items()}


def build_figures(side):
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "-p", "hams-bench", "--bin", "figures"]
    if subprocess.run(build, cwd=side, env=side_env(side)).returncode != 0:
        raise RunError(f"{side}: building figures failed")


def probe_rate(side, figure):
    """Runs per second of the fastest of PROBE_RUNS runs of `figures <figure>`."""
    binary = os.path.join(side, ".bench_build", "release", "figures")
    env = side_env(side, HAMS_THREADS="1")
    fastest = float("inf")
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        run = subprocess.run([binary, figure], cwd=side, env=env, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        if run.returncode != 0:
            raise RunError(f"{side}: figures {figure} exited {run.returncode}")
        fastest = min(fastest, elapsed)
    return 1.0 / fastest


def paired(base, measure):
    """PAIRS pairs of `measure(side)` as (base, head) tuples, alternating
    which side runs first."""
    pairs = []
    for i in range(PAIRS):
        order = (base, HEAD) if i % 2 == 0 else (HEAD, base)
        values = {side: measure(side) for side in order}
        pairs.append((values[base], values[HEAD]))
    return pairs


def judge(label, name, pairs, better, bound):
    """Prints one verdict line and returns whether it passed."""
    ratio, ok = verdict(pairs, better, bound)
    base, head = (statistics.median(side) for side in zip(*pairs))
    each = " ".join(f"{h / b:.2f}" for b, h in pairs)
    print(f"{label:<16} {name:<20} median base {base:.4g} head {head:.4g}, "
          f"ratio {ratio:.3f} (pairs: {each}); {better} is better, bound {bound} -> "
          f"{'ok' if ok else 'FAIL'}", flush=True)
    return ok


def main():
    if len(sys.argv) != 2:
        print("usage: paired_gate.py <base-checkout>", file=sys.stderr)
        return 2
    base = os.path.abspath(sys.argv[1])
    with open(os.path.join(HEAD, "BENCHMARK.json")) as f:
        bench = json.load(f)
    gated = [m for m in bench["end_to_end"] if not m["name"].startswith("sim_")]
    rate = next(m for m in gated if m["name"] == RATE_METRIC)
    print(f"base {base}\nhead {HEAD}\n{PAIRS} pairs per verdict, base first in even pairs",
          flush=True)
    failed = []
    try:
        use_head_benchmark(base)
        for workload in (w["name"] for w in bench["workloads"]):
            runs = paired(base, lambda side: run_perfbench(side, workload))
            print(fingerprint_report(workload,
                                     side_fingerprint("base", [b for (b, _), _ in runs]),
                                     side_fingerprint("head", [h for _, (h, _) in runs])),
                  flush=True)
            for m in gated:
                values = [(b[m["name"]], h[m["name"]]) for (_, b), (_, h) in runs]
                if not judge(workload, m["name"], values, m["better"], m["bound"]):
                    failed.append(f"{workload} {m['name']}")
        for side in (base, HEAD):
            build_figures(side)
        for figure in PROBES:
            pairs = paired(base, lambda side: probe_rate(side, figure))
            if not judge(f"figures {figure}", "runs_per_s", pairs, rate["better"], rate["bound"]):
                failed.append(f"figures {figure}")
    except (RunError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if failed:
        print("host-time gate failed: " + ", ".join(failed))
        return 1
    print("host-time gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
