"""Closed-loop benchmark of the conjresp CLI pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare RECORD_A RECORD_B

One client in one process sends the next generated config through
``conjresp.cli.main`` as soon as the previous op returns.  An op is one CLI
pipeline run (verify, sweep, moser or solve) including its file writes; the
benchmark then reads the op's outputs back and checks them, outside the
timed window.  Ops run until ``--seconds`` of op time has passed, stopping
at a whole cost period of the workload (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and prints the per-layer
metrics (per traced op) with the tracing overhead.  The last line of
standard output is one JSON object; the run record (every op's config,
outcome, reported numbers and output hashes, the environment and the set-up
samples) goes to ``.bench_runs/`` in the checkout, spans of a traced run
beside it.  ``--compare`` diffs the reported numbers of two records at
``COMPARE_RTOL``/``COMPARE_ATOL``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3  # this process plus two fresh ones
WALL_LIMIT_S = 150.0  # stop early, mid-period if need be, to end within 180 s
COMPARE_RTOL = 1e-6
COMPARE_ATOL = 1e-9
WARMUP_NOTE = ("set-up = imports + config generation + warm-up ops (workloads.warmup_ops: "
               "first slots with one flow step and one t, outcome ignored), timed from the "
               "first line of run.py; reported as the median over this process and two "
               "fresh processes doing the same set-up; warm-up never enters op_s_p50")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up, print its time and exit (used for set-up samples)")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def _require_program() -> None:
    if not (ROOT / "src" / "conjresp" / "cli.py").is_file():
        print(f"benchmark: no program at {ROOT / 'src' / 'conjresp'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "clients": 1,
        "loop": "closed",
        "warmup": WARMUP_NOTE,
    }


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _run_op(cli, command, cfg, work: Path, tag: str, span=None):
    """Run one CLI op into a fresh output dir; (exit code, seconds, stderr,
    out dir).  ``span``, if given, encloses exactly the timed call."""
    out = work / tag
    shutil.rmtree(out, ignore_errors=True)
    config = work / f"{tag}.json"
    config.write_bytes(workloads.config_bytes(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), span or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            code = cli.main([command, "--config", str(config), "--out", str(out), "--quiet"])
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue(), out


def _setup(args, work: Path):
    """Imports, config generation and warm-up; returns the CLI module."""
    from conjresp import cli

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for index, (command, cfg) in enumerate(workloads.warmup_ops(args.workload, args.seed)):
        _run_op(cli, command, cfg, work, f"warmup{index}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return cli


def _setup_samples(args) -> list:
    """Set-up time of fresh processes doing this run's set-up."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload",
             args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _execute(cli, tracer, command, cfg, work, index):
    """One op, and in a traced run its traced twin; returns the op's entry."""
    entry = {"index": index, "command": command, "config": cfg}
    runs = [("plain", False)]
    if tracer is not None:
        runs = [("plain", False), ("traced", True)]
        if index % 2:
            runs.reverse()
    outcomes = {}
    for tag, traced in runs:
        if traced:
            tracer.op = index
            tracer.install()
            try:
                outcome = _run_op(cli, command, cfg, work, tag, tracer.span(tracing.ROOT))
            finally:
                tracer.uninstall()
        else:
            if tracing.installed_wrappers():
                raise RuntimeError("wrappers installed during an untraced op")
            outcome = _run_op(cli, command, cfg, work, tag)
        code, elapsed, err, out = outcome
        result = {"exit_code": code, "op_s": elapsed}
        if code == 0:
            result.update(checks.check_op(command, cfg, out))
            result["files"] = checks.file_hashes(out)
        else:
            result.update(passed=False, ratio=None, numbers={},
                          reason=f"exit code {code}: {err.strip()[-2000:]}")
        shutil.rmtree(out, ignore_errors=True)
        outcomes[tag] = result
    entry.update(outcomes.pop("plain"))
    if "traced" in outcomes:
        traced = outcomes["traced"]
        entry["traced_op_s"] = traced["op_s"]
        if entry["passed"] and (not traced["passed"] or traced["files"] != entry["files"]):
            entry.update(passed=False,
                         reason=f"traced run differs: {traced['reason'] or 'output hashes differ'}")
    return entry


def _end_to_end(ops, setups):
    times = [op["op_s"] for op in ops]
    passed = sum(op["passed"] for op in ops)
    return {
        "ops_per_s": passed / sum(times),
        "op_s_p50": statistics.median(times),
        "pass_frac": passed / len(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(ops, tracer):
    """Per-layer metrics averaged over traced ops."""
    n = len(ops)
    totals, counts = {}, {}
    for op in ops:
        summary = tracer.op_summary(op["index"])
        op["layers"] = summary
        for group, entry in summary["groups"].items():
            for key, value in entry.items():
                totals[(group, key)] = totals.get((group, key), 0) + value
        for counter, value in summary["counts"].items():
            counts[counter] = counts.get(counter, 0) + value

    def total(group, key):
        return totals.get((group, key), 0)

    sample_values = total("fields.sample", "amount")
    cli_self = sum(total(g, "self_s") for g in tracing.CLI_GROUPS)
    metrics = {
        "fields.sample.calls": total("fields.sample", "calls"),
        "fields.sample.values": sample_values,
        "fields.sample.busy_s": total("fields.sample", "busy_s"),
        "fields.save.busy_s": total("fields.save", "busy_s"),
        "exactness.solve.calls": total("exactness.solve", "calls"),
        "exactness.solve.busy_s": total("exactness.solve", "busy_s"),
        "exactness.poisson.busy_s": total("exactness.poisson", "busy_s"),
        "exactness.poisson.fft_calls": counts.get("fft_calls", 0),
        "flow.integrate.calls": total("flow.integrate", "calls"),
        "flow.integrate.busy_s": total("flow.integrate", "busy_s"),
        "flow.integrate.self_s": total("flow.integrate", "self_s"),
        "flow.point_steps": total("flow.integrate", "amount") + total("flow.moser", "amount"),
        "flow.moser.busy_s": total("flow.moser", "busy_s"),
        "flow.transported_density.busy_s": total("flow.transported_density", "busy_s"),
        "dynamics.preimages.calls": total("dynamics.preimages", "calls"),
        "dynamics.preimages.targets": total("dynamics.preimages", "amount"),
        "dynamics.preimages.busy_s": total("dynamics.preimages", "busy_s"),
        "dynamics.preimages.lift_calls": counts.get("lift_calls", 0),
        "dynamics.warped_construction.busy_s": total("dynamics.warped_construction", "busy_s"),
        "dynamics.conjugated.busy_s": total("dynamics.conjugated", "busy_s"),
        "verify.pushforward.calls": total("verify.pushforward", "calls"),
        "verify.response.busy_s": total("verify.response", "busy_s"),
        "verify.derivative.busy_s": total("verify.derivative", "busy_s"),
        "verify.transfer.calls": total("verify.transfer", "calls"),
        "verify.transfer.busy_s": total("verify.transfer", "busy_s"),
        "cli.verify.busy_s": total("cli.verify", "busy_s"),
        "cli.sweep.busy_s": total("cli.sweep", "busy_s"),
        "cli.moser.busy_s": total("cli.moser", "busy_s"),
        "cli.solve.busy_s": total("cli.solve", "busy_s"),
        "cli.self_s": cli_self,
        "config.build_map.busy_s": total("config.build_map", "busy_s"),
        "fields.save.bytes": total("fields.save", "amount"),
    }
    metrics = {name: value / n for name, value in metrics.items()}
    metrics["fields.sample.ns_per_value"] = (
        total("fields.sample", "busy_s") * 1e9 / sample_values if sample_values else 0.0)
    metrics["trace.overhead_frac"] = (sum(op["traced_op_s"] for op in ops)
                                      / sum(op["op_s"] for op in ops) - 1.0)
    ratios = [op["ratio"] for op in ops if op.get("ratio") is not None]
    metrics["check.residual_ratio"] = max(ratios) if ratios else 0.0
    return metrics


def _attribution(ops, tracer) -> dict:
    """Share of traced op time spent inside each layer."""
    traced = sum(op["traced_op_s"] for op in ops)
    layers = {"fields.sample": ("fields.sample",),
              "exactness+fields.save": ("exactness.", "fields.save"),
              "flow": ("flow.",), "dynamics": ("dynamics.",), "verify": ("verify.",),
              "config.build_map": ("config.build_map",)}
    return {name: sum(tracer.layer_busy_s(op["index"], prefixes) for op in ops) / traced
            for name, prefixes in layers.items()}


def _declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> int:

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = RUNS / (f"{name}-setup{os.getpid()}" if args.setup_only else name) / "work"
    cli = _setup(args, work)
    setups = [time.perf_counter() - STARTED]
    if args.setup_only:
        shutil.rmtree(work.parent, ignore_errors=True)
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if not args.trace:
        setups += _setup_samples(args)
    declared = _declared_metrics(args.trace)
    tracer = tracing.Tracer() if args.trace else None
    if tracing.installed_wrappers():
        raise RuntimeError("wrappers installed before the run")

    period = workloads.COST_PERIOD[args.workload]
    ops, op_time, index = [], 0.0, 0
    while True:
        command, cfg = workloads.make_op(args.workload, args.seed, index)
        entry = _execute(cli, tracer, command, cfg, work, index)
        ops.append(entry)
        op_time += entry["op_s"] + entry.get("traced_op_s", 0.0)
        index += 1
        if op_time >= args.seconds and index % period == 0:
            break
        if time.perf_counter() - STARTED > WALL_LIMIT_S:
            break
    if tracing.installed_wrappers():
        raise RuntimeError("wrappers left installed after the run")
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = _per_layer(ops, tracer)
    else:
        values = _end_to_end(ops, setups)
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    failed = [op for op in ops if not op["passed"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "input_ranges": workloads.RANGES[args.workload], "cost_period": period,
        "setup_s_samples": setups, "cut_short": index % period != 0,
        "op_s_samples": {"count": len(ops), "values": [op["op_s"] for op in ops]},
        "metrics": values, "failures": [{"index": op["index"], "config": op["config"],
                                         "reason": op["reason"]} for op in failed],
        "ops": ops,
    }
    if args.trace:
        record["attribution"] = _attribution(ops, tracer)
        spans = [{"group": g, "op": op, "start_ns": s, "end_ns": e, "parent": p, "amount": a}
                 for g, op, s, e, p, a in tracer.spans]
        (work.parent / "spans.json").write_text(json.dumps(spans))
    (work.parent / "record.json").write_text(json.dumps(record, indent=1, default=str))
    for op in failed:
        print(f"op {op['index']} failed: {op['reason']}\n  config: {json.dumps(op['config'])}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def _numbers_differ(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(_numbers_differ(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) > COMPARE_ATOL + COMPARE_RTOL * abs(b)
    return a != b


def compare(path_a: str, path_b: str) -> int:
    """Diff the numbers two run records report for the same ops; exit 1 on
    any disagreement beyond the tolerance or any op that passed only once."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    ops_a = {op["index"]: op for op in a["ops"]}
    ops_b = {op["index"]: op for op in b["ops"]}
    common = sorted(set(ops_a) & set(ops_b))
    problems, hash_changes = [], 0
    for index in common:
        x, y = ops_a[index], ops_b[index]
        if workloads.config_bytes(x["config"]) != workloads.config_bytes(y["config"]):
            problems.append(f"op {index}: configs differ")
            continue
        if x["passed"] != y["passed"]:
            problems.append(f"op {index}: passed {x['passed']} vs {y['passed']}")
        for key in sorted(set(x["numbers"]) | set(y["numbers"])):
            if _numbers_differ(x["numbers"].get(key), y["numbers"].get(key)):
                problems.append(f"op {index} {key}: {x['numbers'].get(key)} vs "
                                f"{y['numbers'].get(key)}")
        hash_changes += x.get("files") != y.get("files")
    for line in problems:
        print(line)
    print(json.dumps({"compared_ops": len(common), "disagreements": len(problems),
                      "ops_with_changed_file_bytes": hash_changes,
                      "rtol": COMPARE_RTOL, "atol": COMPARE_ATOL}))
    return 1 if problems or not common else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(*args.compare)
    _require_program()
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
