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

Every perfbench run also reports how many operations it attempted and how
many of them failed. Per workload, the gate fails when the head's median
share of failed operations is higher than the base's.

Every perfbench run prints one `simulated fingerprint <hex>` line. Both
sides run on this machine with one libm, so every run of a side must print
the same fingerprint: a side that prints two is nondeterministic, and the
gate stops with exit status 2. The gate then reports whether the head's
fingerprint is the base's (`same`) or not (`moved`); that line is a
report, not a verdict, since a declared model change moves it on purpose.

Three probes time paths no benchmark workload runs, with HAMS_THREADS=1:
`figures fig6` (the mmap path), `figures fig18` (the loose HAMS modes,
which serve through the SSD's internal DRAM; every workload is tight and
DRAM-less) and `figures fig26` (the fault path, served open-loop). A side's
value in a pair is runs per second of its fastest of PROBE_RUNS runs, held
to the bound of `host_accesses_per_s`.

Each probe's printed output is treated like the fingerprint: every run of
a side must print the same output (the gate stops with exit status 2 when
one does not), and the gate reports whether the head's output is the
base's, byte for byte (`same`) or not (`moved`), again as a report rather
than a verdict.

Ratios of paired runs follow Kalibera & Jones, "Rigorous Benchmarking in
Reasonable Time" (ISMM 2013); perfbench's host rate already keeps the
fastest session (Chen & Revels, HPEC 2016), as the probes do.

Exit status: 0 when every verdict passes, 1 when one fails, 2 when a build
or a run fails.
"""

import hashlib
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


def failed_share(result):
    """The share of attempted operations that failed, from the `attempted`
    and `failed` counts of one perfbench result."""
    attempted, failed = result["attempted"], result["failed"]
    if (not isinstance(attempted, int) or not isinstance(failed, int)
            or isinstance(attempted, bool) or isinstance(failed, bool)
            or attempted <= 0 or not 0 <= failed <= attempted):
        raise RunError(f"malformed operation counts: attempted={attempted!r} failed={failed!r}")
    return failed / attempted


def failure_verdict(pairs):
    """Medians of the base's and the head's failed-operation shares over
    `pairs` of (base, head) shares, and whether the head's median is no
    higher than the base's."""
    if not pairs:
        raise ValueError("no pairs to judge")
    base = statistics.median(b for b, _ in pairs)
    head = statistics.median(h for _, h in pairs)
    return base, head, head <= base


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


def output_hash(stdout):
    """A 16-hex-digit digest of one probe run's printed output."""
    return hashlib.sha256(stdout).hexdigest()[:16]


def side_value(side, what, values):
    """The one value every run of `side` printed, a simulated fingerprint
    or a probe's output hash. Simulated results are deterministic, so two
    distinct values are an error."""
    distinct = sorted(set(values))
    if len(distinct) != 1:
        raise RunError(f"{side} printed {len(distinct)} distinct {what} "
                       f"({', '.join(distinct)}): its runs are nondeterministic")
    return distinct[0]


def report(label, what, base, head):
    """The report-only line saying whether a simulated result moved."""
    return (f"{label:<16} {what} base {base} head {head}: "
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
    """The simulated fingerprint, the metric values and the share of failed
    operations of one `perfbench/run.py` run of `workload` on `side`."""
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
        share = failed_share(result)
    except RunError as e:
        raise RunError(f"{side}: {workload}: {e}") from None
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return fingerprint, metrics, share


def build_figures(side):
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "-p", "hams-bench", "--bin", "figures"]
    if subprocess.run(build, cwd=side, env=side_env(side)).returncode != 0:
        raise RunError(f"{side}: building figures failed")


def run_probe(side, figure):
    """Runs per second of the fastest of PROBE_RUNS runs of `figures <figure>`,
    and the hash of each run's output."""
    binary = os.path.join(side, ".bench_build", "release", "figures")
    env = side_env(side, HAMS_THREADS="1")
    fastest = float("inf")
    outputs = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        run = subprocess.run([binary, figure], cwd=side, env=env, stdout=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        if run.returncode != 0:
            raise RunError(f"{side}: figures {figure} exited {run.returncode}")
        fastest = min(fastest, elapsed)
        outputs.append(output_hash(run.stdout))
    return 1.0 / fastest, outputs


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


def judge_failures(workload, pairs):
    """Prints the failed-operations verdict line of one workload and returns
    whether it passed."""
    base, head, ok = failure_verdict(pairs)
    print(f"{workload:<16} {'failed_share':<20} median base {base:.4g} head {head:.4g}; "
          f"the head's may not be higher -> {'ok' if ok else 'FAIL'}", flush=True)
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
            fingerprints = "simulated fingerprints"
            print(report(workload, "simulated fingerprint",
                         side_value("base", fingerprints, [b for (b, _, _), _ in runs]),
                         side_value("head", fingerprints, [h for _, (h, _, _) in runs])),
                  flush=True)
            if not judge_failures(workload, [(b, h) for (_, _, b), (_, _, h) in runs]):
                failed.append(f"{workload} failed_share")
            for m in gated:
                values = [(b[m["name"]], h[m["name"]]) for (_, b, _), (_, h, _) in runs]
                if not judge(workload, m["name"], values, m["better"], m["bound"]):
                    failed.append(f"{workload} {m['name']}")
        for side in (base, HEAD):
            build_figures(side)
        for figure in PROBES:
            label = f"figures {figure}"
            runs = paired(base, lambda side: run_probe(side, figure))
            outputs = f"outputs of {label}"
            print(report(label, "output",
                         side_value("base", outputs, [o for (_, bo), _ in runs for o in bo]),
                         side_value("head", outputs, [o for _, (_, ho) in runs for o in ho])),
                  flush=True)
            pairs = [(b, h) for (b, _), (h, _) in runs]
            if not judge(label, "runs_per_s", pairs, rate["better"], rate["bound"]):
                failed.append(label)
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
