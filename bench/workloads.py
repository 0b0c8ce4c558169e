"""The four benchmark workloads: corpus shape and selection, the job list
run per graph, and the cross-checks applied to the jobs' outputs.

Every graph comes from ``random_right_regular(GenSpec(m, n, d, seed))``
with instance seeds drawn from ``SplitMix64(workload_seed)``. A workload
keeps the first candidates whose shape, computed by ``oracle``, matches
its definition. The selection holds the amount of search work per graph
nearly constant, so that changing the workload seed changes the instances
but not the size of the batch being timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import oracle

# Jobs receive ``call(argv) -> record | None``: it runs one CLI command
# with ``--json`` appended and returns the parsed output, or None when the
# command failed.
Call = Callable[[list], "dict | None"]


@dataclass(frozen=True)
class Instance:
    """One corpus graph, with the facts the oracle derived for it."""

    seed: int
    m: int
    n: int
    d: int
    cols: tuple[int, ...]
    path: str
    dimension: int
    weights: tuple[int, ...]
    witness: tuple[int, ...] | None


@dataclass
class Job:
    argv: list
    code: int
    stdout: str
    record: dict | None
    wall: float
    cpu: float
    # Reference speed over the machine's speed while the job ran.
    scale: float


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int, int]
    graphs: int
    # Candidates each set-up generates, whether or not the corpus is full
    # sooner, so set-up does the same work for every seed (more only if a
    # seed's corpus needs more).
    candidates: int
    accept: Callable[[Instance], bool]
    jobs: Callable[[Instance, Call, dict], None]
    check: Callable[[Instance, list, dict], list]
    # Traced functions the job list calls; every per-layer metric of these
    # must be recorded by a traced run.
    layers: frozenset[str]


def _ok(job: Job, failures: list, index: int) -> bool:
    if job.record is None:
        failures.append((index, f"exit {job.code} or unparseable output"))
        return False
    return True


def _expect(failures: list, index: int, what: str, got, want) -> None:
    if got != want:
        failures.append((index, f"{what}: got {got!r}, want {want!r}"))


def _check_distance(job: Job, index: int, failures: list, method: str,
                    witness, examined) -> None:
    if not _ok(job, failures, index):
        return
    rec = job.record
    _expect(failures, index, "method", rec["method"], method)
    _expect(failures, index, "distance", rec["distance"], len(witness))
    got = None if rec["witness"] is None else tuple(rec["witness"]["indices"])
    _expect(failures, index, "witness", got, tuple(witness))
    _expect(failures, index, "examined", rec["examined"], examined)


# distance-lowrate ---------------------------------------------------------

LOWRATE_GAMMA = Fraction(1, 13)
# The subset search's ``examined`` counter must fall in this window: every
# kept graph has distance 6 and costs about the same to search.
LOWRATE_EXAMINED = (108_000, 118_000)


def _lowrate_accept(inst: Instance) -> bool:
    return (
        inst.dimension == 8
        and inst.witness is not None
        and len(inst.witness) == 6
        and LOWRATE_EXAMINED[0] <= oracle.examined(inst.n, inst.witness) <= LOWRATE_EXAMINED[1]
        and oracle.best_alpha_two(inst.d, inst.cols) > Fraction(1, 2)
    )


def _lowrate_jobs(inst: Instance, call: Call, derived: dict) -> None:
    path = inst.path
    call(["mindist", path])
    call(["mindist", path, "--method", "kernel"])
    profile = call(["profile", path, "--gamma", str(LOWRATE_GAMMA)])
    if profile is None:
        return
    alpha = Fraction(profile["best_alpha"])
    derived.update(gamma=str(LOWRATE_GAMMA), alpha=str(alpha), epsilon=str(1 - alpha))
    call(["mindist", path, "--method", "pruned", "--gamma", str(LOWRATE_GAMMA),
          "--epsilon", str(1 - alpha)])


def _lowrate_check(inst: Instance, jobs: list, derived: dict) -> list:
    failures: list = []
    n, w = inst.n, inst.witness
    _check_distance(jobs[0], 0, failures, "subset", w, oracle.examined(n, w))
    _check_distance(jobs[1], 1, failures, "kernel", w, (1 << inst.dimension) - 1)
    if _ok(jobs[2], failures, 2):
        rec = jobs[2].record
        _expect(failures, 2, "min_neighbors", rec["min_neighbors"],
                [inst.d, oracle.min_pair_union(inst.cols)])
        _expect(failures, 2, "best_alpha", rec["best_alpha"],
                str(oracle.best_alpha_two(inst.d, inst.cols)))
    if len(jobs) > 3:
        epsilon = Fraction(derived["epsilon"])
        start = oracle.pruned_start(LOWRATE_GAMMA, epsilon, n)
        _check_distance(jobs[3], 3, failures, "pruned", w, oracle.examined(n, w, start))
        if jobs[3].record is not None:
            threshold = 2 * (1 - epsilon) * LOWRATE_GAMMA * n
            _expect(failures, 3, "threshold", jobs[3].record["threshold"], str(threshold))
            if threshold > len(w):
                failures.append((3, f"threshold {threshold} above distance {len(w)}"))
    return failures


# distance-highrate --------------------------------------------------------


def _highrate_accept(inst: Instance) -> bool:
    return inst.dimension == 20


def _highrate_jobs(inst: Instance, call: Call, derived: dict) -> None:
    call(["mindist", inst.path])
    call(["mindist", inst.path, "--method", "kernel"])


def _highrate_check(inst: Instance, jobs: list, derived: dict) -> list:
    # 2^20 codewords are too many for the oracle to walk on every check,
    # so the subset and kernel methods check each other, and the shared
    # witness is checked to be a codeword.
    failures: list = []
    if not (_ok(jobs[0], failures, 0) and _ok(jobs[1], failures, 1)):
        return failures
    rec = jobs[0].record
    if rec["witness"] is None:
        failures.append((0, "no witness"))
        return failures
    witness = tuple(rec["witness"]["indices"])
    acc = 0
    for j in witness:
        acc ^= inst.cols[j]
    if acc != 0:
        failures.append((0, f"witness {witness} is not a codeword"))
    _check_distance(jobs[0], 0, failures, "subset", witness,
                    oracle.examined(inst.n, witness))
    _check_distance(jobs[1], 1, failures, "kernel", witness, (1 << inst.dimension) - 1)
    return failures


# expansion ----------------------------------------------------------------

# Sizes up to 7 of 24, 536k subsets per full scan. At gamma 1/3 (1.27M
# subsets) each job ran so long that a run held too few passes for a
# steady median on a noisy machine.
EXPANSION_GAMMA = Fraction(7, 24)


def _expansion_accept(inst: Instance) -> bool:
    # Some pair shares a neighbour, so best_alpha < 1 and verification at
    # alpha = 1 fails at size 2, after the same small amount of work for
    # every seed.
    return oracle.min_pair_union(inst.cols) < 2 * inst.d


def _expansion_jobs(inst: Instance, call: Call, derived: dict) -> None:
    gamma = str(EXPANSION_GAMMA)
    profile = call(["profile", inst.path, "--gamma", gamma])
    if profile is None:
        return
    alpha = Fraction(profile["best_alpha"])
    derived.update(gamma=gamma, alpha=str(alpha), alpha_fail="1")
    call(["verify", inst.path, "--gamma", gamma, "--alpha", str(alpha)])
    call(["verify", inst.path, "--gamma", gamma, "--alpha", "1"])


def _expansion_check(inst: Instance, jobs: list, derived: dict) -> list:
    failures: list = []
    if not _ok(jobs[0], failures, 0):
        return failures
    mins = jobs[0].record["min_neighbors"]
    cap = int(EXPANSION_GAMMA * inst.n)
    _expect(failures, 0, "profiled sizes", len(mins), cap)
    if mins[:2] != [inst.d, oracle.min_pair_union(inst.cols)]:
        failures.append((0, f"min_neighbors {mins[:2]} at sizes 1-2"))
    if mins != sorted(mins):
        failures.append((0, f"min_neighbors {mins} decreases"))
    best = min(Fraction(v, inst.d * s) for s, v in enumerate(mins, 1))
    _expect(failures, 0, "best_alpha", jobs[0].record["best_alpha"], str(best))
    if len(jobs) < 3:
        return failures
    if _ok(jobs[1], failures, 1):
        rec = jobs[1].record
        _expect(failures, 1, "verified", (rec["verified"], rec["violation"]), (True, None))
        _expect(failures, 1, "alpha", rec["alpha"], derived["alpha"])
    if _ok(jobs[2], failures, 2):
        rec = jobs[2].record
        violation = rec["violation"]
        if rec["verified"] or violation is None:
            failures.append((2, "verified at an alpha above best_alpha"))
            return failures
        union = 0
        for j in violation["indices"]:
            union |= inst.cols[j]
        required = inst.d * Fraction(derived["alpha_fail"]) * len(violation["indices"])
        _expect(failures, 2, "neighbors", violation["neighbors"], union.bit_count())
        _expect(failures, 2, "required", violation["required"], str(required))
        if not union.bit_count() < required or len(violation["indices"]) > cap:
            failures.append((2, f"violation {violation} is not one"))
        # At alpha 1 the first violation is the lex-first pair sharing a neighbour.
        first = next(pair for pair in combinations(range(inst.n), 2)
                     if (inst.cols[pair[0]] | inst.cols[pair[1]]).bit_count() < 2 * inst.d)
        _expect(failures, 2, "first violation", violation["indices"], list(first))
    return failures


# lemmas -------------------------------------------------------------------

LEMMAS_GAMMA = Fraction(2, 19)


# The partition sweep's bipartition count must fall in this window, so
# every kept graph costs about the same to sweep.
LEMMAS_PARTITIONS = (130_000, 140_000)


def _partitions(inst: Instance) -> int:
    return sum((1 << (w - 1)) - 1 for w in inst.weights)


def _lemmas_accept(inst: Instance) -> bool:
    # best_alpha > 1/2 keeps epsilon < 1/2, so the bounds sweep's lower
    # bound d*(1-2*eps)*|S| is not trivially 0.
    return (
        inst.dimension == 7
        and LEMMAS_PARTITIONS[0] <= _partitions(inst) <= LEMMAS_PARTITIONS[1]
        and oracle.best_alpha_two(inst.d, inst.cols) > Fraction(1, 2)
    )


def _lemmas_jobs(inst: Instance, call: Call, derived: dict) -> None:
    gamma = str(LEMMAS_GAMMA)
    profile = call(["profile", inst.path, "--gamma", gamma])
    if profile is None:
        return
    alpha = Fraction(profile["best_alpha"])
    derived.update(gamma=gamma, alpha=str(alpha), epsilon=str(1 - alpha))
    call(["lemmas", inst.path, "--gamma", gamma, "--epsilon", str(1 - alpha)])


def _lemmas_check(inst: Instance, jobs: list, derived: dict) -> list:
    failures: list = []
    if _ok(jobs[0], failures, 0):
        _expect(failures, 0, "best_alpha", jobs[0].record["best_alpha"],
                str(oracle.best_alpha_two(inst.d, inst.cols)))
    if len(jobs) < 2 or not _ok(jobs[1], failures, 1):
        return failures
    rec = jobs[1].record
    n = inst.n
    _expect(failures, 1, "certificate", rec["certificate"]["verified"], True)
    _expect(failures, 1, "bounds violation", rec["bounds"]["violation"], None)
    _expect(failures, 1, "bounds subsets", rec["bounds"]["subsets_checked"],
            oracle.subsets_below(n, 1, int(LEMMAS_GAMMA * n) + 1))
    part = rec["partition"]
    _expect(failures, 1, "partition violation", part["violation"], None)
    _expect(failures, 1, "partition subsets", part["subsets_checked"], (1 << n) - 1)
    _expect(failures, 1, "empty_odd_found", part["empty_odd_found"], (1 << inst.dimension) - 1)
    _expect(failures, 1, "partitions_checked", part["partitions_checked"], _partitions(inst))
    return failures


# Traced functions every job list calls, through set-up, the CLI and graph
# loading; "trace" stands for trace.overhead_frac.
COMMON_LAYERS = frozenset({
    "trace", "cli.main", "cli.build_parser", "cli.load_graph",
    "instances.random_right_regular", "instances.serialize_graph",
    "instances.serialize_edge_list", "instances.parse_graph", "instances.parse_edge_list",
    "graph.BipartiteGraph.from_edges", "subsets.count_sizes", "subsets.find_first_at_level",
})
PROFILE_LAYERS = frozenset({
    "cli.profile", "cli.rational", "graph.expansion_profile", "graph.check_expansion",
    "graph.exact_rational", "subsets.level_min_union", "subsets.scan_union_below",
})
DISTANCE_LAYERS = frozenset({
    "cli.mindist_subset", "cli.mindist_kernel", "mindist.min_distance_subset",
    "mindist.min_distance_kernel", "gf2.nullspace_basis", "subsets.scan_xor_zero",
    "subsets.RightSubset.of", "subsets.bit_indices", "subsets.combination_rank",
})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "distance-lowrate", (18, 26, 5), 10, 600,
            _lowrate_accept, _lowrate_jobs, _lowrate_check,
            COMMON_LAYERS | PROFILE_LAYERS | DISTANCE_LAYERS
            | {"cli.mindist_pruned", "mindist.min_distance_pruned", "mindist.PruningParams.certify"},
        ),
        Workload(
            "distance-highrate", (8, 28, 3), 10, 10,
            _highrate_accept, _highrate_jobs, _highrate_check,
            COMMON_LAYERS | DISTANCE_LAYERS,
        ),
        Workload(
            "expansion", (60, 24, 4), 1, 1,
            _expansion_accept, _expansion_jobs, _expansion_check,
            COMMON_LAYERS | PROFILE_LAYERS
            | {"cli.verify", "subsets.RightSubset.of", "subsets.bit_indices"},
        ),
        Workload(
            "lemmas", (12, 19, 3), 4, 300,
            _lemmas_accept, _lemmas_jobs, _lemmas_check,
            COMMON_LAYERS | PROFILE_LAYERS
            | {"cli.lemmas", "graph.find_bounds_violation", "graph.find_partition_violation"},
        ),
    )
}
