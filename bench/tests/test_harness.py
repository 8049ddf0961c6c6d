"""Tests of the benchmark harness itself: python3 -m pytest bench/tests"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import check  # noqa: E402
from spans import LAYER_METRICS, Tracer, installed, layer_values  # noqa: E402


def test_self_time_on_nested_call_tree():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(n):
        now[0] += n

    def leaf_fn():
        tick(4)

    def bad_fn():
        tick(7)
        raise ValueError("boom")

    def inner_fn():
        tick(5)
        leaf()
        tick(1)

    def outer_fn():
        tick(1)
        inner()
        tick(2)
        inner()
        try:
            bad()
        except ValueError:
            pass
        tick(3)

    leaf, bad = tracer.wrap("m.leaf", leaf_fn), tracer.wrap("m.bad", bad_fn)
    inner, outer = tracer.wrap("m.inner", inner_fn), tracer.wrap("m.outer", outer_fn)
    outer()

    s = tracer.stats
    assert (s["m.leaf"].calls, s["m.leaf"].self_ns, s["m.leaf"].total_ns) == (2, 8, 8)
    assert (s["m.inner"].calls, s["m.inner"].self_ns, s["m.inner"].total_ns) == (2, 12, 20)
    assert (s["m.bad"].calls, s["m.bad"].errors, s["m.bad"].self_ns) == (0, 1, 7)
    assert (s["m.outer"].calls, s["m.outer"].self_ns, s["m.outer"].total_ns) == (1, 6, 33)
    assert sum(v.self_ns for v in s.values()) == s["m.outer"].total_ns
    assert tracer.calls_by_parent["m.leaf", "m.inner"] == 2
    assert tracer.calls_by_parent["m.outer", None] == 1


def test_rebinding_reaches_from_imported_names():
    from eplab import dilation, experiments, numerics, readout

    originals = (numerics.expm, numerics.psd_sqrt, numerics.step_propagators)
    tracer = Tracer()
    with installed(tracer):
        assert dilation.expm is not originals[0]
        dilation.expm(np.zeros((2, 2)))
        readout.psd_sqrt(np.eye(2))
        experiments.step_propagators(np.zeros((4, 3, 3)), np.ones(4))
    assert tracer.stats["numerics.expm"].calls == 1
    assert tracer.stats["numerics.psd_sqrt"].calls == 1
    assert tracer.stats["numerics.step_propagators"].matrices == 4
    assert (dilation.expm, readout.psd_sqrt, experiments.step_propagators) == originals
    from spans import eplab_modules

    for mod in eplab_modules():
        assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values()), mod.__name__


def _spec(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_report_names_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _spec(bench["end_to_end"]) == run.E2E_METRICS
    assert _spec(bench["per_layer"]) == LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)

    values, note = run.e2e_values([0.01 * i for i in range(1, 41)], 80.0, [0.5, 0.6, 0.7])
    text = "\n".join(run.e2e_report(values, note, 41, 0, [0.5, 0.6, 0.7]))
    for name, unit, _ in [*run.E2E_METRICS, run.FAIL_FRAC]:
        assert any(line.startswith(name) and f" {unit}" in line for line in text.splitlines()), name
    assert "p75.0 of 40 ops" in text

    layers = layer_values(Tracer(), 3, 1.0, 0.9)
    text = "\n".join(run.layer_report(layers))
    for name, unit, _ in LAYER_METRICS:
        assert any(line.startswith(name + " ") and line.endswith(f" {unit}")
                   for line in text.splitlines()), name
    result = json.loads(run.result_line(True, 3, 0, layers, LAYER_METRICS))
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == [n for n, _, _ in LAYER_METRICS]


def test_tail_percentile_needs_ten_ops_beyond():
    assert run.tail_percentile(list(range(20))) is None
    assert run.tail_percentile(list(range(30))) == (100 * 20 / 30, 19)


def _geophase_text(im):
    doc = {"total": [0.01, im], "dynamical": [0.0, 0.0], "geometric": [0.01, im], "eigenindex": 1}
    return "# config_hash=0 version=0\n" + json.dumps(doc)


def test_wrong_fingerprint_counts_as_failed_op(tmp_path):
    argv = ["geophase", "--eigenindex", "1"]
    ops = []
    for i, im in enumerate((-0.14, -0.12)):
        out = tmp_path / f"{i}.out"
        out.write_text(_geophase_text(im))
        ops.append(run.Op(argv, 0, 1.0, out))
    ops.append(run.Op(argv, 1, 1.0, tmp_path / "missing.out"))
    run.check_ops(ops)
    assert [op.ok for op in ops] == [True, False, False]
    assert ops[0].fingerprint == (0.01, -0.14, 0.01, -0.14)
    failures = run.failure_lines(ops)
    assert len(failures) == 2 and all("geophase --eigenindex 1" in f for f in failures)
    assert "exit 1" in failures[1]


def test_checks_pass_on_real_outputs(tmp_path):
    for argv in (["atlas"], ["cone", "--angles", "8"], ["spectrum", "--k2", "1",
                 "--k1-range", "-1:1:0.05"], ["eigensolve", "--k1", "0.3", "--k2", "0.5"]):
        op = run.run_op(argv, tmp_path / "o.out")
        ok, reason, fp = check(argv, op.rc, op.out_path.read_text())
        assert ok, (argv, reason)
        assert fp and all(np.isfinite(fp))


def test_streams_are_seeded():
    for name in workloads.NAMES:
        a, b, c = (list(itertools.islice(workloads.ops(name, seed), 12)) for seed in (7, 7, 8))
        assert a == b and a != c, name


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "readout", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
