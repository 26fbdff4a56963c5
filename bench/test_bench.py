"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run every workload for one cost period, a traced run, the set-up-free
failure path and the compare mode; about a minute on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_runs_one_period_and_prints_every_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                            "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.COST_PERIOD[workload]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric_and_writes_spans():
    result = _result(_bench("--workload", "moser-transport", "--seed", "7", "--seconds", "0",
                            "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["fields.sample.calls"]["value"] > 0
    assert result["metrics"]["flow.moser.busy_s"]["value"] > 0
    record_dir = ROOT / ".bench_runs" / "moser-transport-s7-t1"
    spans = json.loads((record_dir / "spans.json").read_text())
    assert {"cli.main", "cli.moser", "fields.sample"} <= {s["group"] for s in spans}
    record = json.loads((record_dir / "record.json").read_text())
    assert record["attribution"]["fields.sample"] > 0.5


def _config_digest(hash_seed: str) -> str:
    code = ("import hashlib, sys; sys.path.insert(0, 'bench'); import workloads as w; "
            "h = hashlib.sha256(); "
            "[h.update(w.config_bytes(w.make_op(n, s, i)[1])) "
            " for n in w.WORKLOADS for s in (0, 1) for i in range(24)]; "
            "[h.update(w.config_bytes(c)) for n in w.WORKLOADS for _, c in w.warmup_ops(n, 0)]; "
            "print(h.hexdigest())")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True).stdout


def test_same_seed_gives_byte_identical_configs():
    assert _config_digest("1") == _config_digest("2")
    for name in workloads.WORKLOADS:
        first = workloads.config_bytes(workloads.make_op(name, 5, 3)[1])
        assert first == workloads.config_bytes(workloads.make_op(name, 5, 3)[1])
        assert first != workloads.config_bytes(workloads.make_op(name, 6, 3)[1])


def test_wrappers_exist_only_while_installed():
    import conjresp
    from conjresp import cli, fields, flow

    originals = (fields.sample_coefficients, cli.cmd_verify, cli.transfer_check)
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        found = set(tracing.installed_wrappers())
        # names bound by `from .x import y` and the CLI's command table
        assert {"conjresp.flow.sample_coefficients", "conjresp.fields.sample_coefficients",
                "conjresp.transfer_check", "conjresp.cli.pushforward_density",
                "conjresp.cli.transfer_check", "conjresp.cli._COMMANDS['verify']",
                "conjresp.dynamics.TorusMap.lift", "numpy.fft.fftn"} <= found
        assert flow.sample_coefficients is not originals[0]
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert (fields.sample_coefficients, cli.cmd_verify, cli.transfer_check) == originals
    assert cli._COMMANDS["verify"] is originals[1]
    assert conjresp.transfer_check is originals[2]


def test_fails_without_a_printed_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "solve-2d", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_numbers_beyond_tolerance(tmp_path, capsys):
    op = {"index": 0, "config": {"a": 1}, "passed": True, "files": {"x": "0"},
          "numbers": {"residual": 1.0e-3, "errors": [1.0e-5, 2.5e-6]}}
    near = json.loads(json.dumps(op))
    near["numbers"]["residual"] *= 1 + 0.1 * run.COMPARE_RTOL
    near["files"] = {"x": "1"}
    far = json.loads(json.dumps(op))
    far["numbers"]["errors"][1] *= 1.01
    paths = []
    for name, entry in (("a", op), ("b", near), ("c", far)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"ops": [entry]}))
    assert run.compare(paths[0], paths[1]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["ops_with_changed_file_bytes"] == 1
    assert run.compare(paths[0], paths[2]) == 1


def test_solve_residual_recomputation_catches_a_wrong_field(tmp_path):
    from conjresp.cli import main

    command, cfg = workloads.make_op("solve-2d", 3, 0)
    cfg["grid"]["resolution"] = [32, 32]
    path = tmp_path / "cfg.json"
    path.write_bytes(workloads.config_bytes(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert checks.check_op(command, cfg, tmp_path / "out")["passed"]
    x0 = tmp_path / "out" / "solve_X0.json"
    field = json.loads(x0.read_text())
    field["values"][5] += 1e-6
    x0.write_text(json.dumps(field))
    result = checks.check_op(command, cfg, tmp_path / "out")
    assert not result["passed"] and result["ratio"] > 1.0
