"""Seeded end-to-end benchmark of the expandercodes CLI.

    python3 bench/run.py --workload distance-lowrate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One run generates the workload's corpus from ``--seed`` (see workloads.py),
writes each graph to an edge-list file, then runs the workload's job list
of CLI commands with ``--json`` through ``expandercodes.cli.main(argv)``:
one process, one job at a time, no threads. It repeats the job list until
``--seconds`` have passed and checks every output after each pass, outside
the timed region.

With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json: the job list's wall and CPU seconds (the sum of each job's
median over passes) and the median set-up time over several set-ups, all
rescaled to a reference machine speed (see ``Timed``), and the process's
peak resident set. With ``--trace 1`` it alternates untraced passes with
passes run under ``tracing.Tracer`` and reports the per-layer metrics
instead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the instance seeds, the derived gamma, epsilon and
alpha, the SHA-256 of all job output, the measured (unscaled) seconds and
every traced value. The exit status is 0 only when every job passed its
checks. ``--workload all`` runs each workload in its own process in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS, Instance, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
PACKAGE = tracing.PACKAGE
SETUPS = 5
MAX_CANDIDATES = 100_000
# The kernel oracle enumerates codewords only up to this dimension.
ORACLE_DIMENSION = 12
# Times are rescaled to one reference speed of the machine. On the shared
# 2-vCPU virtual machine this was tuned on, the speed of CPU-bound Python
# drifted by up to 1.7x over tens of seconds with other tenants' load, and
# job times followed reference_loop()'s speed (correlation 0.98 per pass).
# REFERENCE_LOOP_S is about what reference_loop() takes there unloaded.
REFERENCE_LOOP_S = 0.0051
REFERENCE_COLS = [(j * 2654435761) & 0x3FFFF for j in range(1, 27)]


class BenchmarkError(Exception):
    """The benchmark cannot run here at all (not a failed job)."""


def load_package():
    """Import the package from this checkout's src/, afresh each time, and
    return its cli and instances modules."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchmarkError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"{PACKAGE} was imported from {cli.__file__}, not {SRC}")
    return cli, sys.modules[PACKAGE + ".instances"]


def make_instance(seed: int, text: str, path: Path) -> Instance:
    m, n, cols = oracle.parse_edge_list(text)
    basis = oracle.kernel_basis(cols)
    weights: tuple[int, ...] = ()
    witness = None
    if 0 < len(basis) <= ORACLE_DIMENSION:
        words = oracle.codewords(basis)
        weights = tuple(w.bit_count() for w in words)
        witness = oracle.min_codeword(words)
    d = cols[0].bit_count()
    return Instance(seed, m, n, d, tuple(cols), str(path), len(basis), weights, witness)


def generate(workload, seed: int, instances, count: int):
    """The first ``count`` candidates' instance seeds and edge-list texts;
    instance seeds are drawn from SplitMix64(seed)."""
    m, n, d = workload.shape
    rng = instances.SplitMix64(seed)
    for _ in range(count):
        instance_seed = rng.next_u64()
        graph = instances.random_right_regular(instances.GenSpec(m, n, d, instance_seed))
        yield instance_seed, instances.serialize_graph(graph)


def select_corpus(workload, seed: int, instances, workdir: Path, graphs: int):
    """The first ``graphs`` candidates the workload accepts, and how many
    candidates set-up generates. Untimed: the acceptance test is the
    benchmark's own oracle, not the package's work."""
    corpus: dict[int, tuple[Instance, str]] = {}
    for index, (instance_seed, text) in enumerate(generate(workload, seed, instances, MAX_CANDIDATES)):
        if len(corpus) < graphs:
            inst = make_instance(instance_seed, text, workdir / f"g{len(corpus)}.txt")
            if workload.accept(inst):
                corpus[index] = (inst, text)
        if len(corpus) == graphs and index + 1 >= workload.candidates:
            return corpus, index + 1
    raise BenchmarkError(f"{workload.name}: fewer than {graphs} graphs in {MAX_CANDIDATES} candidates")


def write_corpus(workload, seed: int, instances, corpus: dict, count: int) -> bool:
    """The package's share of set-up: generate and serialize ``count``
    candidates and write the selected ones to their files. True when every
    text matches the selection's."""
    same = True
    for index, (_, text) in enumerate(generate(workload, seed, instances, count)):
        if index in corpus:
            inst, expected = corpus[index]
            Path(inst.path).write_text(text)
            same &= text == expected
    return same


def run_job(cli, argv: list) -> Job:
    """Run one CLI command in-process, timing it and capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with Timed() as timed:
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = 1
            err.write(traceback.format_exc())
    record = None
    if code == 0:
        try:
            record = json.loads(out.getvalue())
        except ValueError:
            pass
    if not isinstance(record, dict):
        record = None
    return Job(argv, code, out.getvalue(), record, timed.wall, timed.cpu, timed.scale)


def reference_loop() -> float:
    """Seconds the oracle's GF(2) code takes now on a fixed 18x26 matrix:
    the machine's current speed for interpreter-bound work like the jobs'.
    Of the loops tried, its time tracked every workload's most closely."""
    start = time.perf_counter()
    for _ in range(60):
        basis = oracle.kernel_basis(REFERENCE_COLS)
        oracle.min_codeword(oracle.codewords(basis[:8]))
    return time.perf_counter() - start


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Timed:
    """Times one span in wall and CPU seconds, and samples the machine's
    speed with reference_loop() just before and just after the span, never
    during it, so the program's own use of the machine cannot feed the
    sample. ``scale`` is REFERENCE_LOOP_S over the mean of the two."""

    def __enter__(self):
        self._before = reference_loop()
        self._cpu0 = cpu_seconds()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        self.cpu = cpu_seconds() - self._cpu0
        after = reference_loop()
        self.scale = REFERENCE_LOOP_S / statistics.mean((self._before, after))
        return False


def run_pass(workload, corpus: list[Instance], cli):
    """Run the job list once; returns [(jobs, derived)] per graph."""
    results = []
    for inst in corpus:
        jobs: list[Job] = []
        derived: dict = {}

        def call(argv, jobs=jobs):
            job = run_job(cli, argv + ["--json"])
            jobs.append(job)
            return job.record

        workload.jobs(inst, call, derived)
        results.append((jobs, derived))
    return results


class Timings:
    """Per-job seconds across passes. The job list's time is the sum over
    its jobs of each job's median, so a stall during one job of one pass
    does not move it. ``total`` gives scaled (``raw=False``) or measured
    wall (``cpu=False``) or CPU seconds."""

    def __init__(self):
        self.samples: list[list[tuple[float, float, float]]] = []

    def add(self, results) -> None:
        jobs = [job for jobs, _ in results for job in jobs]
        if not self.samples:
            self.samples = [[] for _ in jobs]
        for sample, job in zip(self.samples, jobs):
            sample.append((job.wall, job.cpu, job.scale))

    def median_scale(self) -> float:
        return statistics.median(t[2] for sample in self.samples for t in sample)

    def total(self, cpu: bool = False, raw: bool = False) -> float:
        return sum(
            statistics.median(t[cpu] * (1 if raw else t[2]) for t in sample)
            for sample in self.samples
        )


class Checker:
    """Cross-checks each pass and holds every pass to the first pass's
    output, byte for byte."""

    def __init__(self, workload, corpus):
        self.workload = workload
        self.corpus = corpus
        self.reference: list[str] | None = None
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.derived: list[dict] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, results) -> None:
        stdout = [job.stdout for jobs, _ in results for job in jobs]
        if self.reference is None:
            self.reference = stdout
            self.digest = hashlib.sha256("".join(stdout).encode()).hexdigest()
            self.derived = [derived for _, derived in results]
        position = 0
        for inst, (jobs, derived) in zip(self.corpus, results):
            self.attempted += len(jobs)
            try:
                # The first reason given for a job is the one reported.
                bad = dict(reversed(self.workload.check(inst, jobs, derived)))
            except Exception:  # malformed output the checks did not foresee
                bad = {i: traceback.format_exc(limit=1) for i in range(len(jobs))}
            for i, job in enumerate(jobs):
                if i not in bad and (position >= len(self.reference)
                                     or job.stdout != self.reference[position]):
                    bad[i] = "output differs from the first pass"
                position += 1
                if i in bad:
                    self.fail(f"graph seed {inst.seed} job {' '.join(job.argv)}: {bad[i]}")
        if position != len(self.reference):
            self.fail(f"{position} jobs ran, the first pass ran {len(self.reference)}")


def merge_traces(samples: list[dict], checker: Checker) -> dict:
    """Exact counts must agree between traced passes; times take the median."""
    merged = {}
    for key in sorted(set().union(*samples)):
        if not all(key in s for s in samples):
            checker.fail(f"{key} was recorded in some traced passes only")
            continue
        values = [s[key] for s in samples]
        if key.rsplit(".", 1)[1] in tracing.EXACT:
            if len(set(values)) != 1:
                checker.fail(f"count {key} differs between traced passes: {values}")
            merged[key] = values[0]
        else:
            merged[key] = statistics.median(values)
    return merged


def per_layer_values(spec: dict, workload, traced: dict, checker: Checker) -> dict:
    """Every per-layer metric of the spec. A metric of a function the
    workload calls (``workload.layers``) must have been recorded; one that
    was not counts as a failed check, never as 0. Functions the workload
    does not call report 0 calls, 0 seconds and 0 work."""
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in traced and name.rsplit(".", 1)[0] in workload.layers:
            checker.fail(f"per-layer metric {name} was never recorded")
        values[name] = (traced.get(name, 0), metric["unit"])
    return values


def read_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except OSError as exc:
        raise BenchmarkError(f"cannot read {SPEC}: {exc}") from None


def run_workload(name: str, seed: int, seconds: float, trace: bool, graphs: int | None = None):
    """One benchmark run; returns (result line, report). ``graphs``
    overrides the corpus size, for smoke tests."""
    spec = read_spec()
    workload = WORKLOADS[name]
    graphs = workload.graphs if graphs is None else graphs
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, instances = load_package()
        selected, candidates = select_corpus(workload, seed, instances, workdir, graphs)
        corpus = [inst for inst, _ in selected.values()]
        checker = Checker(workload, corpus)
        setups, raw_setups = [], []
        for _ in range(SETUPS):
            with Timed() as timed:
                cli, instances = load_package()
                same = write_corpus(workload, seed, instances, selected, candidates)
            if not same:
                checker.fail("the corpus changed between set-ups")
            raw_setups.append(timed.wall)
            setups.append(timed.wall * timed.scale)
        untraced, traced_times, samples, passes = Timings(), Timings(), [], 0
        start = time.perf_counter()
        while True:
            # One round is an untraced pass, plus a traced one when tracing.
            # Start a round only if it should end within the time given.
            round_start = time.perf_counter()
            results = run_pass(workload, corpus, cli)
            checker.check(results)
            untraced.add(results)
            passes += 1
            if trace:
                with tracing.Tracer() as tracer:
                    if not write_corpus(workload, seed, instances, selected, candidates):
                        checker.fail("the corpus changed between set-ups")
                    results = run_pass(workload, corpus, cli)
                checker.check(results)
                traced_times.add(results)
                samples.append(tracer.metrics())
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    traced = merge_traces(samples, checker) if trace else {}
    if trace:
        traced["trace.overhead_frac"] = traced_times.total() / untraced.total() - 1
        values = per_layer_values(spec, workload, traced, checker)
    else:
        measured = {
            "wall_s": untraced.total(),
            "cpu_s": untraced.total(cpu=True),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        values = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    report = {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "measured": {
            "wall_s": untraced.total(raw=True),
            "cpu_s": untraced.total(cpu=True, raw=True),
            "setup_s": statistics.median(raw_setups),
        },
        "speed_scale": untraced.median_scale(),
        "failed_frac": checker.failed / max(checker.attempted, 1),
        "stdout_sha256": checker.digest,
        "instances": [
            {"seed": inst.seed, **derived} for inst, derived in zip(corpus, checker.derived)
        ],
        "failures": checker.failures,
        "traced": traced,
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return result, report


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac {report['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']} jobs)")
    print(f"{args.workload} stdout_sha256 {report['stdout_sha256']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
