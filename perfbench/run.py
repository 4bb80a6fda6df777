"""Closed-loop benchmark of the naivea command line.

One process, one thread, one caller. The benchmark generates the workload's
instance from ``--seed`` with ``naivea generate`` (set-up), then runs
``naivea run INST --out OUT`` and ``naivea verify INST OUT`` back to back
through ``naivea.cli.main`` for ``--seconds`` seconds, checking every output.
The package is imported from ``src/`` of the checkout this file sits in; no
build step is needed.

    python3 perfbench/run.py --workload crit2-paths --seed 0 --seconds 8 --trace 0

``--trace 0`` reports the end-to-end metrics, untraced. ``--trace 1`` reports
the per-layer metrics of ``perfbench/layers.py`` from a separate traced run:
two traced cycles, each after an untraced one, and one traced ``generate``.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and the layer map.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from layers import EXACT, PER_LAYER, Tracer, cycle_metrics, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    "crit2-paths": {
        "generate": ["disjoint_union_paths", "--paths", "20", "--min-len", "160",
                     "--max-len", "170", "--radii", "12,6", "--R", "2", "--epsilon", "1/2"],
        "cases": {"2"},
        "L": 39,
        "N": 1523,
    },
    "crit5-ray": {
        "generate": ["line", "--count", "2000", "--radii", "12,6", "--R", "2",
                     "--epsilon", "1/2", "--unbounded"],
        "cases": {"1"},
    },
    "cayley-720": {
        "generate": ["cayley_cyclic", "--n", "720", "--k", "30", "--R", "2", "--epsilon", "1/10"],
        "cases": {"1"},
        "worst_ratio": "4/59",
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)

SETUP_MIN_CALLS = 3
SETUP_MAX_CALLS = 9
SETUP_SECONDS = 3.0
CALIBRATION_REPEATS = 3
TRACED_CYCLES = 2


def import_naivea():
    """naivea.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import naivea.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import naivea from {SRC}: {exc}")
    if not Path(naivea.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: naivea was imported from {naivea.cli.__file__}, not {SRC}")
    return naivea.cli


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def calibrate() -> float:
    """Time a fixed exact-arithmetic loop: host speed, not naivea's."""
    xs = [Fraction(i, 7) for i in range(200)]
    bound = Fraction(50, 3)
    start = time.perf_counter()
    near = 0
    for a in xs:
        for b in xs:
            if abs(a - b) <= bound:
                near += 1
    elapsed = time.perf_counter() - start
    if near != 33028:
        raise RuntimeError(f"calibration loop miscounted: {near}")
    return elapsed


class Bench:
    def __init__(self, cli, workload, seed, seconds):
        self.main = cli.main
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.instance = str(self.dir / "instance.json")
        self.output = str(self.dir / "output.json")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.points = None
        self.instance_sha = None
        self.output_sha = None
        self.outputs_seen = []  # sha256 of every run's output, in order
        self.calibration = []
        self.peak_rss_kb = None

    # -- operations ---------------------------------------------------------

    def call(self, argv, tracer=None):
        """One CLI operation; returns (exit code or error text, seconds, stdout)."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        root = contextlib.nullcontext() if tracer is None else tracer.op(f"cli.{argv[0]}")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with root:
                    rc = self.main(argv)
            except Exception as exc:  # noqa: BLE001  (a crash is a failed operation)
                rc = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if rc != 0 and err.getvalue():
            rc = f"{rc}: {err.getvalue().strip()[:200]}"
        return rc, elapsed, out.getvalue()

    def check(self, ok, problem):
        """Count one attempted operation; a failed check makes it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    def generate(self, tracer=None):
        argv = ["generate", *self.spec["generate"], "--seed", str(self.seed), "--out", self.instance]
        rc, elapsed, stdout = self.call(argv, tracer)
        prefix = f"wrote {self.instance}: "
        ok = rc == 0 and stdout.startswith(prefix) and " points, S=" in stdout
        if ok:
            points = int(stdout[len(prefix):].split(" points", 1)[0])
            digest = sha256(self.instance)
            if self.instance_sha is None:
                self.points, self.instance_sha = points, digest
            ok = (points, digest) == (self.points, self.instance_sha)
        self.check(ok, f"generate: exit {rc!r}, or output differs between calls: {stdout.strip()!r}")
        return elapsed

    def run(self, tracer=None):
        rc, elapsed, stdout = self.call(["run", self.instance, "--out", self.output], tracer)
        ok = rc == 0 and stdout.startswith(f"wrote {self.output}: worst ratio ")
        digest = sha256(self.output) if ok else None
        self.outputs_seen.append(digest)
        if ok and self.output_sha is None:
            self.output_sha = digest
            self.run_stdout = stdout
        self.check(ok and digest == self.output_sha,
                   f"run: exit {rc!r}, or output sha256 {digest} differs from {self.output_sha}")
        return elapsed

    def verify(self, tracer=None):
        rc, elapsed, stdout = self.call(["verify", self.instance, self.output], tracer)
        lines = stdout.splitlines()
        ok = (
            rc == 0
            and len(lines) == 2
            and lines[0].startswith("naive check: PASS ")
            and lines[1] == "certificate check: PASS"
        )
        self.check(ok, f"verify: exit {rc!r}, stdout {stdout.strip()[:200]!r}")
        return elapsed

    def cycle(self, tracer=None):
        """One `run`, then one `verify` of its output. Returns both times and,
        with a tracer, the cycle's per-layer metrics."""
        run_s = self.run(tracer)
        run_layers = tracer.take() if tracer else None
        verify_s = self.verify(tracer)
        layers = cycle_metrics(run_layers, tracer.take()) if tracer else None
        return run_s, verify_s, layers

    def closed_loop(self):
        """Cycles back to back; another one starts while less than --seconds
        have passed. Returns the run and verify times.

        The rule does not look at how long a cycle took, so the number of
        samples does not depend on whether the first cycle happened to be
        slow. A rule that predicts whether the next cycle still fits reports
        a slow first cycle alone and a fast one averaged with a second, which
        splits the medians of the same workload into two groups.
        """
        runs, verifies = [], []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < self.seconds:
            run_s, verify_s, _ = self.cycle()
            runs.append(run_s)
            verifies.append(verify_s)
            if len(runs) == 1:
                # read after the first cycle: later ones raise the high-water
                # mark by a few percent through heap fragmentation, so a
                # reading at the end would depend on how many cycles fit
                self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return runs, verifies

    # -- phases -------------------------------------------------------------

    def setup(self):
        """Generate the instance several times; every call must agree."""
        times = []
        start = time.perf_counter()
        while len(times) < SETUP_MIN_CALLS or (
            len(times) < SETUP_MAX_CALLS and time.perf_counter() - start < SETUP_SECONDS
        ):
            times.append(self.generate())
            if self.instance_sha is None:
                break
        return times

    def calibrate(self):
        self.calibration.extend(calibrate() for _ in range(CALIBRATION_REPEATS))

    def check_facts(self):
        """Known facts about the workload's canonical output. A miss fails
        every run whose output has these bytes."""
        with open(self.output, encoding="utf-8") as fh:
            doc = json.load(fh)
        cert = doc["certificate"]
        cases = cert["cases"]
        spec = self.spec
        misses = []
        if len(cases) != self.points or set(doc["subsets"]) != set(cases):
            misses.append(f"{len(cases)} cases for {self.points} points")
        if not set(cases.values()) <= spec["cases"]:
            misses.append(f"cases {sorted(set(cases.values()))}, expected {sorted(spec['cases'])}")
        if "L" in spec and (cert["params"]["L"], cert["params"]["N"]) != (spec["L"], spec["N"]):
            misses.append(f"(L, N) = ({cert['params']['L']}, {cert['params']['N']})")
        if "worst_ratio" in spec and cert["worst_ratio"] != spec["worst_ratio"]:
            misses.append(f"worst ratio {cert['worst_ratio']}, expected {spec['worst_ratio']}")
        if f"worst ratio {cert['worst_ratio']}, " not in self.run_stdout:
            misses.append(f"run printed {self.run_stdout.strip()!r}")
        if misses:
            bad = sum(1 for d in self.outputs_seen if d == self.output_sha)
            self.failed += bad
            self.problems.append(f"output facts: {'; '.join(misses)} ({bad} runs)")
        return {f"tailor.cases_{c}": sum(1 for v in cases.values() if v == c)
                for c in ("1", "2", "3a", "3b")}

    def result(self, metrics):
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(bench: Bench) -> dict:
    """End-to-end metrics, untraced."""
    setup = bench.setup()
    if bench.instance_sha is None:
        return bench.result({})
    bench.calibrate()
    runs, verifies = bench.closed_loop()
    bench.calibrate()
    output_bytes = os.path.getsize(bench.output) if bench.output_sha else 0
    if bench.output_sha:
        bench.check_facts()
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(runs),
        "verify_s": statistics.median(verifies),
        "peak_rss_mb": bench.peak_rss_kb * 1024 / 1e6,
        "output_mb": output_bytes / 1e6,
    }
    samples = {"setup_s": f"median of {len(setup)} generate calls",
               "run_s": f"median of {len(runs)} run calls",
               "verify_s": f"median of {len(verifies)} verify calls",
               "peak_rss_mb": "ru_maxrss of this process after set-up and one cycle",
               "output_mb": "canonical output file, 1 MB = 10^6 bytes"}
    for name, unit in END_TO_END:
        print(f"{name:<20} {values[name]:>12.6g} {unit:<5} ({samples[name]})")
    failed_frac = bench.failed / bench.attempted
    print(f"{'failed_frac':<20} {failed_frac:>12.6g} {'1':<5} "
          f"({bench.failed} of {bench.attempted} generate/run/verify operations)")
    print(f"{'host.calibration_s':<20} {statistics.median(bench.calibration):>12.6g} {'s':<5} "
          f"(median of {len(bench.calibration)} fixed Fraction loops)")
    return bench.result({name: {"value": values[name], "unit": unit} for name, unit in END_TO_END})


def measure_layers(bench: Bench) -> dict:
    """Per-layer metrics from traced cycles, alternating with untraced ones."""
    bench.setup()
    if bench.instance_sha is None:
        return bench.result({})
    bench.calibrate()
    tracer = Tracer()
    plain_runs, traced_runs, cycles = [], [], []
    for i in range(TRACED_CYCLES):
        plain_runs.append(bench.cycle()[0])
        with installed(tracer):
            if i == 0:
                bench.generate(tracer)
                generate = tracer.take()
            run_s, _, layers = bench.cycle(tracer)
        traced_runs.append(run_s)
        cycles.append(layers)
    bench.calibrate()
    if not bench.output_sha:
        return bench.result({})
    cases = bench.check_facts()
    first, second = cycles[0], cycles[1]
    drift = [name for name in EXACT if name in first and first[name] != second[name]]
    if drift:
        bench.failed += 1
        bench.problems.append(f"counts differ between two traced cycles: {drift}")
    metrics = {}
    for name, unit in PER_LAYER:
        if name in cases:
            value = cases[name]
        elif name == "generators.gen_instance_s":
            value = generate["time"]["generators.gen_instance"]
        elif name == "host.calibration_s":
            value = statistics.median(bench.calibration)
        elif name == "trace.overhead_s":
            value = statistics.median(traced_runs) - statistics.median(plain_runs)
        elif unit == "count":
            value = first[name]
        else:
            value = statistics.median(c[name] for c in cycles)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<30} {value:>14.6g} {unit}")
    print(f"traced cycles: {len(cycles)}; untraced run_s {statistics.median(plain_runs):.6g} s, "
          f"traced run_s {statistics.median(traced_runs):.6g} s")
    return bench.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_naivea()
    bench = Bench(cli, args.workload, args.seed, args.seconds)
    bench.dir.mkdir(parents=True)
    try:
        result = (measure_layers if args.trace else measure)(bench)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"workload {args.workload} seed {args.seed}: {bench.points} points, "
          f"instance sha256 {bench.instance_sha}, output sha256 {bench.output_sha}")
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
