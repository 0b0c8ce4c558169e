"""CLI surface: subcommands, exit statuses, exact rational I/O, JSON; and
the package's star-import exports."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import expandercodes
from expandercodes import cli

from expandercodes import (
    GenSpec,
    check_expansion,
    figure1,
    min_distance_subset,
    parse_graph,
    random_right_regular,
    serialize_graph,
)
from expandercodes.cli import main


def test_star_import_and_exports():
    namespace = {}
    exec("from expandercodes import *", namespace)
    for name in expandercodes.__all__:
        assert namespace[name] is getattr(expandercodes, name)
    # The public API, pinned: adding or dropping a name is a visible change.
    assert expandercodes.__all__ == [
        "BipartiteGraph",
        "BoundsSweep",
        "CapabilityError",
        "ExpanderCertificate",
        "ExpansionProfile",
        "GenSpec",
        "Gf2Matrix",
        "INFINITE",
        "MinDistanceResult",
        "ParseError",
        "PartitionSweep",
        "PruningParams",
        "RightSubset",
        "SplitMix64",
        "check_expansion",
        "distance_lower_bound",
        "expansion_profile",
        "figure1",
        "find_bounds_violation",
        "find_partition_violation",
        "is_minimal_dependent",
        "min_distance_kernel",
        "min_distance_pruned",
        "min_distance_subset",
        "nullspace_basis",
        "odd_neighborhood_bounds",
        "parse_graph",
        "random_right_regular",
        "rank",
        "serialize_graph",
        "verify_distance_result",
        "xor_columns",
    ]


def test_import_loads_no_dataclasses_inspect_or_typing():
    # Each command starts a fresh interpreter, which pays for every module
    # the package imports. -S keeps site's path hooks, which may import
    # typing themselves, out of the count.
    env = dict(os.environ, PYTHONPATH=str(Path(expandercodes.__file__).parents[1]))
    code = (
        "import sys, expandercodes, expandercodes.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, encoding="utf-8", env=env, timeout=60, check=True,
    )
    assert proc.stdout == "\n"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_bound_prints_exact_rational(capsys):
    status, out, _ = run(capsys, "bound", "--gamma", "1/2", "--epsilon", "1/3", "--n", "4")
    assert status == 0
    assert out == "8/3\n"


PRUNED = ("--method", "pruned", "--gamma", "1/2", "--epsilon", "1/3")
WITNESS_LINES = "distance: 3\nwitness (indices): 0 2 3\nwitness (labels): 6 8 9\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["mindist", "figure1", "--method", "subset"],
         "method: subset\n" + WITNESS_LINES + "examined: 13\n"),
        (["mindist", "figure1", "--method", "kernel"],
         "method: kernel\n" + WITNESS_LINES + "examined: 1\n"),
        (["mindist", "figure1", *PRUNED],
         "method: pruned\nthreshold: 8/3\n" + WITNESS_LINES + "examined: 3\n"),
        (["verify", "figure1", "--gamma", "1/2", "--alpha", "2/3"],
         "verified\ngraph: m=5 n=4 d=2\ngamma: 1/2  alpha: 2/3\n"),
        (["verify", "figure1", "--gamma", "1/2", "--alpha", "9/10"],
         "not verified\ngraph: m=5 n=4 d=2\ngamma: 1/2  alpha: 9/10\n"
         "violation: subset 0 2 (labels 6 8) has 3 neighbors, needs at least 18/5\n"),
        (["profile", "figure1", "--gamma", "1/2"],
         "min_neighbors[1] = 2\nmin_neighbors[2] = 3\nbest_alpha(1/2) = 3/4\n"),
        (["profile", "figure1", "--gamma", "1/8"], "best_alpha(1/8) = None\n"),
        (["profile", "figure1"],
         "min_neighbors[1] = 2\nmin_neighbors[2] = 3\nmin_neighbors[3] = 3\n"
         "min_neighbors[4] = 5\n"),
        (["bound", "--gamma", "1/2", "--epsilon", "1/3", "--n", "4"], "8/3\n"),
        (["lemmas", "figure1", "--gamma", "1/2", "--epsilon", "1/3"],
         "certificate: verified (gamma=1/2, alpha=2/3)\n"
         "odd-neighborhood bounds: all hold (10 subsets up to size 2)\n"
         "partition property: all hold (1 empty-odd subsets, 3 bipartitions)\n"),
    ],
    ids=["mindist-subset", "mindist-kernel", "mindist-pruned", "verify-verified",
         "verify-violation", "profile-gamma", "profile-empty-cap", "profile-all-sizes",
         "bound", "lemmas"],
)
def test_text_output_is_pinned(capsys, argv, out):
    # Every command's text output on figure 1, byte for byte.
    assert run(capsys, *argv) == (0, out, "")


def test_bound_rejects_bad_epsilon(capsys):
    status, _, err = run(capsys, "bound", "--gamma", "1/2", "--epsilon", "1/2", "--n", "4")
    assert status == 1
    assert "epsilon" in err


def test_float_option_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--gamma", "0.5", "--epsilon", "1/3", "--n", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, status, message",
    [
        (["verify", "figure1", "--gamma", "-1/2", "--alpha", "1"], 2, "expected one argument"),
        (["verify", "figure1", "--gamma=-1/2", "--alpha", "1"], 2, "expected an exact rational"),
        (["verify", "figure1", "--gamma", "-1", "--alpha", "1"], 2, "expected an exact rational"),
        (["verify", "figure1", "--gamma", "+1/2", "--alpha", "1"], 0, ""),
        (["profile", "figure1", "--gamma", "0"], 1, "gamma must be > 0"),
        (["lemmas", "figure1", "--gamma", "1/2", "--epsilon", "1/2"], 1, "0 < epsilon < 1/2"),
        (["lemmas", "figure1", "--gamma", "1/2", "--epsilon", "1"], 1, "0 < epsilon < 1/2"),
        (["bound", "--gamma", "1/2\n", "--epsilon", "1/4", "--n", "8"], 2,
         "expected an exact rational"),
        (["bound", "--gamma", "3\n", "--epsilon", "1/4", "--n", "8"], 2,
         "expected an exact rational"),
        (["bound", "--gamma", "\u0661/\u0662", "--epsilon", "1/4", "--n", "8"], 2,
         "expected an exact rational"),
        (["bound", "--gamma", "1/0", "--epsilon", "1/4", "--n", "8"], 2,
         "argument --gamma: zero denominator in '1/0'"),
    ],
    ids=["minus-separate", "minus-joined", "minus-integer", "plus", "profile-gamma-zero",
         "lemmas-epsilon-half", "lemmas-epsilon-one", "trailing-newline",
         "integer-trailing-newline", "arabic-indic-digits", "zero-denominator"],
)
def test_rational_option_rules(argv, status, message, capsys):
    # Rational options are unsigned, so every negative spelling is a usage
    # error; zero and out-of-range epsilons are domain errors. The whole
    # string must be ASCII digits: no trailing newline, no other scripts.
    result, _, err = _run_in_process(capsys, argv)
    assert result == status
    assert message in err


@pytest.fixture
def int_digit_limit():
    # CPython before 3.10.7 has no int() digit limit, and -X int_max_str_digits=0
    # turns it off; pin the default limit so the test does not depend on either.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int() digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize(
    "value", ["1" * 5000, "1/" + "3" * 5000], ids=["numerator", "denominator"]
)
def test_overlong_rational_is_usage_error(value, capsys, int_digit_limit):
    # past the interpreter's int() digit limit: rational's own message, not
    # argparse's generic "invalid <converter name> value"
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--gamma", value, "--epsilon", "1/3", "--n", "4"])
    assert exc.value.code == 2
    assert "argument --gamma: too many digits for an exact rational" in capsys.readouterr().err


def test_mindist_pruned_demo(capsys):
    status, out, _ = run(
        capsys, "mindist", "figure1", "--method", "pruned",
        "--gamma", "1/2", "--epsilon", "1/3",
    )
    assert status == 0
    assert "threshold: 8/3" in out
    assert "distance: 3" in out
    assert "witness (labels): 6 8 9" in out


def test_mindist_pruned_half_integer_gamma_n(tmp_path, capsys):
    # gamma*n = 5/2: the graph certifies at (1/2, 2/3), the bound reads
    # size_cap = 2 and is 8/3, and the distance is 3.
    path = tmp_path / "half.edges"
    path.write_text("7 5\n0 0\n2 0\n0 1\n1 1\n1 2\n2 2\n3 3\n4 3\n5 4\n6 4\n", encoding="utf-8")
    status, out, _ = run(
        capsys, "mindist", str(path), "--method", "pruned",
        "--gamma", "1/2", "--epsilon", "1/3", "--json",
    )
    assert status == 0
    assert out == (
        '{"distance": 3, "examined": 1, "method": "pruned", "threshold": "8/3", '
        '"witness": {"indices": [0, 1, 2], "labels": [8, 9, 10]}}\n'
    )
    status, out, _ = run(capsys, "bound", "--gamma", "1/2", "--epsilon", "1/3", "--n", "5")
    assert (status, out) == (0, "8/3\n")


def test_mindist_pruned_requires_rationals():
    with pytest.raises(SystemExit) as exc:
        main(["mindist", "figure1", "--method", "pruned"])
    assert exc.value.code == 2


@pytest.mark.parametrize("method", [[], ["--method", "subset"], ["--method", "kernel"]])
@pytest.mark.parametrize("option", [["--gamma", "1/2"], ["--epsilon", "3/4"]])
def test_mindist_pruning_options_require_pruned(capsys, method, option):
    with pytest.raises(SystemExit) as exc:
        main(["mindist", "figure1", *method, *option])
    assert exc.value.code == 2
    assert "--gamma and --epsilon require --method pruned" in capsys.readouterr().err


def test_mindist_json_round_trips(capsys):
    status, out, _ = run(capsys, "mindist", "figure1", "--json")
    assert status == 0
    record = json.loads(out)
    g = figure1()
    assert record == min_distance_subset(g).to_record(g.m)


def test_mindist_methods_agree(capsys):
    distances = {}
    for method in ("subset", "kernel"):
        _, out, _ = run(capsys, "mindist", "figure1", "--method", method, "--json")
        distances[method] = json.loads(out)["distance"]
    assert distances["subset"] == distances["kernel"] == 3


def test_mindist_kernel_json_high_dimension(tmp_path, capsys):
    # a dimension-20 code of distance 2: the full record, byte for byte;
    # examined counts all 2^20 - 1 nonzero codewords
    path = tmp_path / "highrate.edges"
    text = serialize_graph(random_right_regular(GenSpec(8, 28, 3, seed=1)))
    path.write_text(text, encoding="utf-8")
    status, out, _ = run(capsys, "mindist", str(path), "--method", "kernel", "--json")
    assert status == 0
    assert out == (
        '{"distance": 2, "examined": 1048575, "method": "kernel", "threshold": null, '
        '"witness": {"indices": [6, 26], "labels": [15, 35]}}\n'
    )


def test_verify_from_file(tmp_path, capsys):
    path = tmp_path / "demo.edges"
    path.write_text(serialize_graph(figure1()), encoding="utf-8")
    status, out, _ = run(capsys, "verify", str(path), "--gamma", "1/2", "--alpha", "2/3")
    assert status == 0
    assert out.splitlines()[0] == "verified"


def test_verify_reports_counterexample(capsys):
    status, out, _ = run(capsys, "verify", "figure1", "--gamma", "1/2", "--alpha", "9/10")
    assert status == 0
    assert out.splitlines()[0] == "not verified"
    assert "violation" in out


def test_verify_json_matches_library(capsys):
    status, out, _ = run(
        capsys, "verify", "figure1", "--gamma", "1/2", "--alpha", "2/3", "--json"
    )
    assert status == 0
    expected = check_expansion(figure1(), Fraction(1, 2), Fraction(2, 3)).to_record()
    assert json.loads(out) == expected


def test_profile_with_gamma(capsys):
    status, out, _ = run(capsys, "profile", "figure1", "--gamma", "1/2")
    assert status == 0
    assert "min_neighbors[1] = 2" in out
    assert "min_neighbors[2] = 3" in out
    assert "best_alpha(1/2) = 3/4" in out


def test_profile_json(capsys):
    status, out, _ = run(capsys, "profile", "figure1", "--gamma", "1/2", "--json")
    assert status == 0
    record = json.loads(out)
    assert record["min_neighbors"] == [2, 3]
    assert record["best_alpha"] == "3/4"
    assert Fraction(record["best_alpha"]) == Fraction(3, 4)


@pytest.mark.parametrize(
    "argv, status, out, err",
    [
        (["--max-size", "2", "--json"], 0,
         '{"best_alpha": null, "d": 2, "gamma": null, "min_neighbors": [2, 3], "n": 4}\n', ""),
        (["--max-size", "1", "--gamma", "1/2"], 1,
         "", "error: profile covers sizes up to 1, need 2 for this gamma\n"),
        (["--max-size", "5"], 1, "", "error: s_max must be in [0, 4], got 5\n"),
    ],
    ids=["within-n", "below-gamma-cap", "above-n"],
)
def test_profile_max_size(capsys, argv, status, out, err):
    assert run(capsys, "profile", "figure1", *argv) == (status, out, err)


def test_expansion_workload_bytes_are_pinned(tmp_path, capsys):
    # The benchmark's expansion jobs on one of its graphs: a profile up to
    # size 7 of 24, then verify at the best alpha (verified) and at alpha 1
    # (refuted at a pair), each one --json line.
    path = tmp_path / "expansion.edges"
    graph = random_right_regular(GenSpec(60, 24, 4, seed=10451216379200822465))
    path.write_text(serialize_graph(graph), encoding="utf-8")
    for argv, status, out in (
        (["profile", "--gamma", "7/24"], 0,
         '{"best_alpha": "15/28", "d": 4, "gamma": "7/24", '
         '"min_neighbors": [4, 6, 8, 10, 11, 13, 15], "n": 24}\n'),
        (["verify", "--gamma", "7/24", "--alpha", "15/28"], 0,
         '{"alpha": "15/28", "d": 4, "gamma": "7/24", "m": 60, "n": 24, '
         '"verified": true, "violation": null}\n'),
        (["verify", "--gamma", "7/24", "--alpha", "1"], 0,
         '{"alpha": "1", "d": 4, "gamma": "7/24", "m": 60, "n": 24, '
         '"verified": false, "violation": {"indices": [0, 3], "labels": [61, 64], '
         '"neighbors": 7, "required": "8"}}\n'),
    ):
        assert run(capsys, argv[0], str(path), *argv[1:], "--json") == (status, out, "")


def test_distance_lowrate_workload_bytes_are_pinned(tmp_path, capsys):
    # The benchmark's distance-lowrate jobs on the first graph of its seed-1
    # corpus (dimension 8, distance 6): the subset, kernel and pruned
    # searches agree on the lex-first witness, each one --json line.
    path = tmp_path / "lowrate.edges"
    graph = random_right_regular(GenSpec(18, 26, 5, seed=807013244984872231))
    path.write_text(serialize_graph(graph), encoding="utf-8")
    witness = '"witness": {"indices": [0, 4, 7, 8, 10, 17], "labels": [19, 23, 26, 27, 29, 36]}}\n'
    for argv, out in (
        (["mindist"],
         '{"distance": 6, "examined": 112609, "method": "subset", "threshold": null, ' + witness),
        (["mindist", "--method", "kernel"],
         '{"distance": 6, "examined": 255, "method": "kernel", "threshold": null, ' + witness),
        (["profile", "--gamma", "1/13"],
         '{"best_alpha": "3/5", "d": 5, "gamma": "1/13", "min_neighbors": [5, 6], "n": 26}\n'),
        (["mindist", "--method", "pruned", "--gamma", "1/13", "--epsilon", "2/5"],
         '{"distance": 6, "examined": 112258, "method": "pruned", "threshold": "12/5", ' + witness),
    ):
        assert run(capsys, argv[0], str(path), *argv[1:], "--json") == (0, out, "")


def test_distance_highrate_workload_bytes_are_pinned(tmp_path, capsys):
    # The benchmark's distance-highrate jobs on the first graph of its
    # seed-1 corpus (dimension 20, distance 2): the subset search stops at
    # a repeated column, the kernel walk visits all 2^20 - 1 codewords.
    path = tmp_path / "highrate.edges"
    graph = random_right_regular(GenSpec(8, 28, 3, seed=10451216379200822465))
    path.write_text(serialize_graph(graph), encoding="utf-8")
    witness = '"witness": {"indices": [0, 11], "labels": [9, 20]}}\n'
    for argv, out in (
        (["mindist"],
         '{"distance": 2, "examined": 39, "method": "subset", "threshold": null, ' + witness),
        (["mindist", "--method", "kernel"],
         '{"distance": 2, "examined": 1048575, "method": "kernel", "threshold": null, '
         + witness),
    ):
        assert run(capsys, argv[0], str(path), *argv[1:], "--json") == (0, out, "")


def test_lemmas_workload_bytes_are_pinned(tmp_path, capsys):
    # The benchmark's lemmas jobs on the first graph of its seed-1 corpus
    # (dimension 7): a profile to the size cap, then the bounds and
    # partition sweeps at epsilon = 1 - best_alpha.
    path = tmp_path / "lemmas.edges"
    graph = random_right_regular(GenSpec(12, 19, 3, seed=16836161867980068218))
    path.write_text(serialize_graph(graph), encoding="utf-8")
    for argv, out in (
        (["profile", "--gamma", "2/19"],
         '{"best_alpha": "2/3", "d": 3, "gamma": "2/19", "min_neighbors": [3, 4], "n": 19}\n'),
        (["lemmas", "--gamma", "2/19", "--epsilon", "1/3"],
         '{"bounds": {"epsilon": "1/3", "gamma": "2/19", "size_cap": 2, '
         '"subsets_checked": 190, "violation": null}, "certificate": {"alpha": "2/3", '
         '"d": 3, "gamma": "2/19", "m": 12, "n": 19, "verified": true, "violation": null}, '
         '"partition": {"empty_odd_found": 127, "partitions_checked": 136105, '
         '"subsets_checked": 524287, "violation": null}}\n'),
    ):
        assert run(capsys, argv[0], str(path), *argv[1:], "--json") == (0, out, "")


def test_bound_json_round_trips(capsys):
    status, out, _ = run(
        capsys, "bound", "--gamma", "1/2", "--epsilon", "1/3", "--n", "4", "--json"
    )
    assert status == 0
    record = json.loads(out)
    assert Fraction(record["bound"]) == Fraction(8, 3)
    assert record["gamma"] == "1/2" and record["epsilon"] == "1/3"


def test_lemmas_json(tmp_path, capsys):
    # full records, byte for byte; the partition counters are the ones an
    # exhaustive sweep over every bipartition counts
    status, out, _ = run(
        capsys, "lemmas", "figure1", "--gamma", "1/2", "--epsilon", "1/3", "--json"
    )
    assert status == 0
    assert out == (
        '{"bounds": {"epsilon": "1/3", "gamma": "1/2", "size_cap": 2, '
        '"subsets_checked": 10, "violation": null}, "certificate": {"alpha": "2/3", '
        '"d": 2, "gamma": "1/2", "m": 5, "n": 4, "verified": true, "violation": null}, '
        '"partition": {"empty_odd_found": 1, "partitions_checked": 3, '
        '"subsets_checked": 15, "violation": null}}\n'
    )
    path = tmp_path / "seeded.edges"
    text = serialize_graph(random_right_regular(GenSpec(8, 12, 3, seed=8)))
    path.write_text(text, encoding="utf-8")
    status, out, _ = run(
        capsys, "lemmas", str(path), "--gamma", "1/6", "--epsilon", "1/3", "--json"
    )
    assert status == 0
    assert out == (
        '{"bounds": {"epsilon": "1/3", "gamma": "1/6", "size_cap": 2, '
        '"subsets_checked": 78, "violation": null}, "certificate": {"alpha": "2/3", '
        '"d": 3, "gamma": "1/6", "m": 8, "n": 12, "verified": true, "violation": null}, '
        '"partition": {"empty_odd_found": 15, "partitions_checked": 945, '
        '"subsets_checked": 4095, "violation": null}}\n'
    )


def test_lemmas_settles_bounds_without_sweep(monkeypatch, tmp_path, capsys):
    # The verified certificate settles the sandwich bound: the bounds
    # sweep's subset walk, the only user of _unions_below in graph.py, never
    # runs, and the record still counts every subset up to the size cap.
    def no_walk(*args, **kwargs):
        raise AssertionError("the bounds sweep walked subsets")

    monkeypatch.setattr("expandercodes.graph._unions_below", no_walk)
    path = tmp_path / "seeded.edges"
    text = serialize_graph(random_right_regular(GenSpec(8, 12, 3, seed=8)))
    path.write_text(text, encoding="utf-8")
    for graph, gamma, size_cap, checked in (("figure1", "1/2", 2, 10),
                                            (str(path), "1/6", 2, 78)):
        status, out, _ = run(
            capsys, "lemmas", graph, "--gamma", gamma, "--epsilon", "1/3", "--json"
        )
        assert status == 0
        assert json.loads(out)["bounds"] == {
            "epsilon": "1/3", "gamma": gamma, "size_cap": size_cap,
            "subsets_checked": checked, "violation": None,
        }


def test_gen_round_trips_and_is_deterministic(capsys):
    args = ("gen", "--m", "6", "--n", "5", "--d", "2", "--seed", "7")
    status, out1, _ = run(capsys, *args)
    assert status == 0
    status, out2, _ = run(capsys, *args)
    assert out1 == out2
    g = parse_graph(out1)
    assert (g.m, g.n, g.d) == (6, 5, 2)


def test_gen_matrix_format(capsys):
    status, out, _ = run(
        capsys, "gen", "--m", "4", "--n", "3", "--d", "2", "--seed", "5",
        "--format", "matrix",
    )
    assert status == 0
    assert out.splitlines()[0] == "4 3"
    assert parse_graph(out, "matrix").d == 2


def test_mindist_reads_matrix_files(tmp_path, capsys):
    # A matrix file and an edge-list file of one graph print the same bytes.
    gen = ("gen", "--m", "8", "--n", "12", "--d", "3", "--seed", "8")
    paths = {}
    for fmt in ("edge-list", "matrix"):
        status, out, _ = run(capsys, *gen, "--format", fmt)
        assert status == 0
        paths[fmt] = tmp_path / f"seeded.{fmt}"
        paths[fmt].write_text(out, encoding="utf-8")
    for method in ([], ["--method", "kernel"]):
        edge_route = run(capsys, "mindist", str(paths["edge-list"]), *method, "--json")
        matrix_route = run(
            capsys, "mindist", str(paths["matrix"]), "--format", "matrix", *method, "--json"
        )
        assert edge_route[0] == 0 and json.loads(edge_route[1])["distance"] != "infinite"
        assert matrix_route == edge_route


def test_gen_invalid_degree(capsys):
    status, _, err = run(capsys, "gen", "--m", "2", "--n", "3", "--d", "5", "--seed", "1")
    assert status == 1
    assert "d must satisfy" in err


def test_gen_refuses_bound_past_64_bits(capsys):
    # one draw below 2**64 + 1 would have a rejection limit of 0 and never end
    status, out, err = run(
        capsys, "gen", "--m", str(2**64 + 1), "--n", "1", "--d", "1", "--seed", "0"
    )
    assert (status, out) == (1, "")
    assert err.startswith("error: bound must be in [1, 2**64]")


def test_lemmas_demo_all_hold(capsys):
    status, out, _ = run(capsys, "lemmas", "figure1", "--gamma", "1/2", "--epsilon", "1/3")
    assert status == 0
    assert "all hold" in out


def test_lemmas_refuses_non_expander(capsys):
    # lemmas and the pruned search refuse with the same certificate sentence
    for command in (["lemmas"], ["mindist", "--method", "pruned"]):
        status, _, err = run(
            capsys, *command, "figure1", "--gamma", "1/2", "--epsilon", "1/10"
        )
        assert status == 1
        assert (
            "not a (gamma=1/2, alpha=9/10) expander: "
            "subset 0 2 (labels 6 8) has 3 neighbors, needs at least 18/5"
        ) in err


@pytest.mark.parametrize("fmt", ["edge-list", "matrix"])
@pytest.mark.parametrize(
    "name, content, message",
    [
        ("graph.txt", None, "[Errno 2] No such file or directory: '{path}'"),
        ("graph.txt", b"\xff\xfe\n",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("", None, "[Errno 21] Is a directory: '{path}'"),
    ],
    ids=["missing", "undecodable", "directory"],
)
def test_missing_file_is_exit_two(capsys, tmp_path, name, content, message, fmt):
    # A file that is absent, one that is not UTF-8 and a directory cannot be
    # read; the message is the one the failed read or decode gives.
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    expected = f"error: cannot read input: {message.format(path=path)}\n"
    assert run(capsys, "mindist", str(path), "--format", fmt) == (2, "", expected)


# Text I/O that falls back on the locale's encoding is an error under these
# interpreter flags.
STRICT_ENCODING = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")


def test_graph_files_are_read_as_utf8(tmp_path):
    # Whatever the locale, a graph file is decoded as UTF-8: a valid one is
    # read, and one that is not UTF-8 still cannot be.
    path = tmp_path / "demo.edges"
    path.write_text("# d\u00e9mo\n" + serialize_graph(figure1()), encoding="utf-8")
    status, out, err = _run_fresh(["mindist", str(path)], STRICT_ENCODING)
    assert (status, err) == (0, "")
    assert "distance: 3" in out.splitlines()
    path.write_bytes(b"\xff\xfe\n")
    status, out, err = _run_fresh(["mindist", str(path)], STRICT_ENCODING)
    assert (status, out) == (2, "")
    assert err.startswith("error: cannot read input: ")


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "fmt, mark, newline",
    [
        ("edge-list", BOM, b"\n"),
        ("matrix", BOM, b"\n"),
        ("edge-list", b"", b"\r\n"),
        ("edge-list", b"", b"\r"),
        ("edge-list", BOM, b"\r\n"),
        ("matrix", b"", b"\r\n"),
    ],
    ids=["edge-list", "matrix", "edge-list-crlf", "edge-list-cr", "edge-list-bom-crlf",
         "matrix-crlf"],
)
def test_leading_byte_order_mark_is_ignored(tmp_path, capsys, fmt, mark, newline):
    # Some editors start a UTF-8 file with the mark EF BB BF; it is not part
    # of the header. Nor do CRLF or lone CR line ends change what is read.
    text = serialize_graph(random_right_regular(GenSpec(5, 8, 2, seed=7)), fmt)
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(mark + text.encode().replace(b"\n", newline))
    expected = run(capsys, "mindist", str(plain), "--format", fmt, "--json")
    assert expected[0] == 0
    assert run(capsys, "mindist", str(marked), "--format", fmt, "--json") == expected


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_line_numbers_count_every_line_end(tmp_path, capsys, newline):
    # A blank line and a comment-only line between the edges still count.
    path = tmp_path / "repeat.edges"
    path.write_bytes(newline.join([b"2 2", b"0 0", b"", b"  # note", b"0 0", b""]))
    assert run(capsys, "mindist", str(path)) == (2, "", "error: line 5: duplicate edge (0, 0)\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_unwritable_output_is_exit_one():
    # Every write to /dev/full fails with ENOSPC: that is an output error,
    # exit 1, not an input one, and nothing escapes to a traceback at exit,
    # nor from the null device that takes the buffered output.
    # Buffered, as stdout is by default, the output is first written at the
    # flush in main.
    env = dict(os.environ, PYTHONPATH=str(Path(expandercodes.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run(
            [sys.executable, *STRICT_ENCODING, "-m", "expandercodes.cli",
             "mindist", "figure1", "--json"],
            stdout=full, stderr=subprocess.PIPE, encoding="utf-8", env=env, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


def test_profile_refuses_degree_zero(tmp_path):
    # No edges, so d = 0 and best_alpha has no ratio to take: a refusal
    # with check_expansion's message, not a ZeroDivisionError.
    path = tmp_path / "edgeless.edges"
    path.write_text("0 3\n", encoding="utf-8")
    status, _, err = _run_fresh(["profile", str(path), "--gamma", "1/3"])
    assert status == 1
    assert err == "error: expansion checking requires a right-regular graph with d >= 1\n"


def test_malformed_file_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("2 2\n0 0\n0 0\n", encoding="utf-8")
    status, _, err = run(capsys, "mindist", str(path))
    assert status == 2
    assert "duplicate edge" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0 1\n0 0\n", "line 1: expected header 'm n'"),
        ("\u0663 1\n0 0\n", "line 1: expected header 'm n'"),
        ("3 1\n+1 0\n", "line 2: expected edge 'left right'"),
    ],
    ids=["underscore", "arabic-indic-digit", "plus-sign"],
)
def test_non_ascii_integer_file_is_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "graph.edges"
    path.write_text(text, encoding="utf-8")
    status, out, err = run(capsys, "mindist", str(path))
    assert (status, out, err) == (2, "", f"error: {message}\n")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_built_once_and_names_bound_per_call(monkeypatch, capsys):
    # The parser is shared, but rational and the cmd_* functions are looked
    # up when a command runs, so rebinding them after the first build works.
    assert cli.build_parser() is cli.build_parser()
    calls = []

    def fake_rational(text):
        calls.append(text)
        return Fraction(7, 9)

    def fake_verify(args):
        calls.append((args.gamma, args.alpha))
        return {"fake": str(args.gamma)}

    monkeypatch.setattr(cli, "rational", fake_rational)
    monkeypatch.setattr(cli, "cmd_verify", fake_verify)
    status, out, _ = run(capsys, "verify", "figure1", "--gamma", "1/2", "--alpha", "2/3", "--json")
    assert (status, out) == (0, '{"fake": "7/9"}\n')
    assert calls == ["1/2", "2/3", (Fraction(7, 9), Fraction(7, 9))]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["frobnicate", "figure1"],
        ["-x", "mindist", "figure1"],
        ["mindist"],
        ["mindist", "figure1", "extra"],
        ["mindist", "figure1", "--bogus"],
        ["mindist", "figure1", "-h", "extra"],
        ["mindist", "figure1", "--meth", "kernel"],
        ["mindist", "--", "figure1"],
        ["mindist", "figure1", "--format=matrix"],
        ["mindist", "figure1", "--json", "--json"],
        ["mindist", "figure1", "--method", "bogus"],
        ["verify", "figure1", "--gamma", "0.5", "--alpha", "1"],
        ["verify", "figure1", "--alpha", "1"],
        ["mindist", "figure1", "--gamma", "1/2"],
    ],
    ids=["no-arguments", "short-help", "long-help", "unknown-command", "top-level-option",
         "missing-graph", "leftover", "unknown-option", "help-then-leftover",
         "abbreviated-option", "double-dash", "joined-value", "repeated-flag",
         "bad-choice", "float-rational", "missing-required", "gamma-without-pruned"],
)
def test_parse_matches_top_level_parser(monkeypatch, capsys, argv):
    # main hands a command's arguments to that command's parser; whatever
    # the input, the status and every byte written equal those of a main
    # that hands every argv to the top-level parser, which it does with no
    # command names to look up.
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    result = _run_in_process(capsys, argv)
    monkeypatch.setattr(cli, "_commands", {}, raising=False)
    assert result == _run_in_process(capsys, argv)


def test_well_formed_command_skips_top_level_parse(monkeypatch, capsys):
    # A well-formed command is parsed once, by its own parser; the top-level
    # parser's parse_args runs only for usage errors and top-level help.
    parser = cli.build_parser()
    calls = []

    def spy(args=None, namespace=None):
        calls.append(args)
        return type(parser).parse_args(parser, args, namespace)

    monkeypatch.setattr(parser, "parse_args", spy)
    assert run(capsys, "mindist", "figure1", "--method", "kernel", "--json")[0] == 0
    assert run(capsys, "bound", "--gamma", "1/2", "--epsilon", "1/3", "--n", "4") == (
        0, "8/3\n", "")
    assert calls == []
    assert _run_in_process(capsys, ["mindist", "figure1", "extra"])[0] == 2
    assert calls == [["mindist", "figure1", "extra"]]


def _run_in_process(capsys, argv):
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _run_fresh(argv, flags=()):
    env = dict(os.environ, PYTHONPATH=str(Path(expandercodes.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "expandercodes.cli", *argv],
        capture_output=True, encoding="utf-8", env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_share_no_state(monkeypatch, capsys):
    # Options set in one call, usage errors and --help must not change what a
    # later call in the same process prints.
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    pruned = ["mindist", "figure1", "--method", "pruned"]
    sequence = [
        [*pruned, "--gamma", "1/2", "--epsilon", "1/3"],
        ["mindist", "figure1"],
        pruned,
        ["verify", "figure1", "--gamma", "1/2", "--alpha", "9/10"],
        [*pruned, "--gamma", "0.5", "--epsilon", "1/3"],
        ["profile", "figure1", "--gamma", "1/2", "--json"],
        ["mindist", "--help"],
        ["lemmas", "figure1", "--gamma", "1/2", "--epsilon", "1/3"],
        ["mindist", "figure1"],
    ]
    results = [_run_in_process(capsys, argv) for argv in sequence]
    assert [status for status, _, _ in results] == [0, 0, 2, 0, 2, 0, 0, 0, 0]
    for argv, result in zip(sequence, results):
        assert result == _run_fresh(argv), argv


def readme_cli_examples():
    # The fenced block that opens README's "## CLI" section: one
    # "expandercodes ..." command per line, "#" starting a comment.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert commands and all(words[0] == "expandercodes" for words in commands)
    return [words[1:] for words in commands]


@pytest.mark.parametrize("argv", readme_cli_examples())
def test_readme_cli_examples_run(capsys, argv):
    # A renamed command or option fails here rather than for a reader.
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "") and out
