"""Smoke tests of the benchmark itself, on one-graph corpora.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import inspect
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS


def spec_names(section: str) -> list[str]:
    return [m["name"] for m in run.read_spec()[section]]


def package_bindings() -> dict:
    """Every attribute of the package's modules and of their classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == tracing.PACKAGE or name.startswith(tracing.PACKAGE + "."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if inspect.isclass(obj):
                    for key, value in vars(obj).items():
                        out[(name, attr, key)] = value
    return out


def assert_unpatched() -> None:
    for key, obj in package_bindings().items():
        func = getattr(obj, "__func__", obj)
        assert not getattr(func, "bench_wrapper", False), key


def exact_counts(report: dict) -> dict:
    return {k: v for k, v in report["traced"].items()
            if k.rsplit(".", 1)[1] in tracing.EXACT}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name):
    result, untraced = run.run_workload(name, 1, 0, trace=False, graphs=1)
    assert result["correct"], untraced["failures"]
    assert list(result["metrics"]) == spec_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert_unpatched()

    traced = [run.run_workload(name, seed, 0, trace=True, graphs=1) for seed in (1, 1, 2)]
    expected = [m for m in spec_names("per_layer")
                if m.rsplit(".", 1)[0] in WORKLOADS[name].layers]
    for result, report in traced:
        assert result["correct"], report["failures"]
        assert list(result["metrics"]) == spec_names("per_layer")
        assert [m for m in expected if m not in report["traced"]] == []
        assert_unpatched()
    counts = [exact_counts(report) for _, report in traced]
    assert counts[0] and counts[0] == counts[1]
    assert counts[0] != counts[2]
    # Tracing must not change what the CLI prints.
    assert traced[0][1]["stdout_sha256"] == untraced["stdout_sha256"]


def test_every_per_layer_metric_is_some_workloads():
    layers = set().union(*(w.layers for w in WORKLOADS.values()))
    assert [m for m in spec_names("per_layer") if m.rsplit(".", 1)[0] not in layers] == []


def test_unrecorded_metric_fails_the_run():
    checker = run.Checker(WORKLOADS["lemmas"], [])
    traced = {"trace.overhead_frac": 0.01}
    values = run.per_layer_values(run.read_spec(), WORKLOADS["lemmas"], traced, checker)
    assert values["trace.overhead_frac"] == (0.01, "ratio")
    assert values["mindist.min_distance_subset.examined"][0] == 0  # lemmas does not call it
    expected = [m for m in spec_names("per_layer")
                if m.rsplit(".", 1)[0] in WORKLOADS["lemmas"].layers]
    assert checker.failed == len(expected) - 1


def test_tracer_restores_every_attribute():
    run.load_package()
    before = package_bindings()
    with tracing.Tracer() as tracer:
        assert tracer.patches
        patched = package_bindings()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert any(patched[k] is not before[k] for k in before)


def test_wrong_output_counts_as_failed(monkeypatch):
    real = run.run_job

    def corrupt_kernel(cli, argv):
        job = real(cli, argv)
        if "kernel" in argv:
            job.record["distance"] += 1
        return job

    monkeypatch.setattr(run, "run_job", corrupt_kernel)
    result, report = run.run_workload("distance-lowrate", 1, 0, trace=False, graphs=1)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 4
    assert "distance" in report["failures"][0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemmas", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no expandercodes package" in proc.stderr
