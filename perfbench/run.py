"""Certified-run benchmark for gradflow1d.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

Run from the root of a checkout.  For about S seconds the harness launches
one child process at a time (perfbench/child.py); each child loads a
generated config with cli.load_config and runs cli.execute or cli.sweep on
the checkout's src/.  The harness gates every run's output files, then
prints a metadata line and, as the last line, the result JSON.

--trace 0 reports the end-to-end metrics, one sample per child, each child
on its own datum.  --trace 1 alternates untraced and traced children on
datum 0, so that per-run counts repeat exactly, and reports the per-layer
metrics and the tracing overhead.  Times are reported at a reference host
speed, measured by a calibration loop timed while each child runs.  Metric
names and units are those of BENCHMARK.json; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import RunOutputs, check_run, check_sweep  # noqa: E402
from tracing import ALL_HOOKS  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

MIN_CHILDREN = {0: 3, 1: 4}  # trace 1: two untraced/traced pairs
WALL_LIMIT_S = 150.0         # stop launching children after this
CHILD_TIMEOUT_S = 170.0      # a child running past this is killed
CALIBRATION_ITERS = 200_000  # the calibration loop: this many additions
PROBE_SEGMENTS = 10          # it is timed in segments while a child runs
PROBE_PERIOD_S = 0.05
# End-to-end times are reported at the speed of a host on which the
# calibration loop takes this long (see README: host speed phases).
REFERENCE_CALIB_MS = 10.0


def probe_s() -> float:
    """Thread CPU time of one segment of the calibration loop.

    CPU time, not wall time, so that it reads the host's speed (this host
    has phases about 1.5x apart) and not how busy the child keeps the cores.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(CALIBRATION_ITERS // PROBE_SEGMENTS):
        acc += i
    return time.thread_time() - t0


def metadata() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("name")),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def launch(root: Path, spec: dict, directory: Path, deadline: float):
    """Run one child to completion; return (result or None, rusage,
    calibration loop time in ms while it ran)."""
    spec_path = directory / "spec.json"
    result_path = directory / "result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (spec["src"], os.environ.get("PYTHONPATH")) if p)
    with open(directory / "stdout.txt", "wb") as out, \
            open(directory / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path),
             str(result_path)], cwd=root, env=env, stdout=out, stderr=err)
        pid = 0
        probes = []
        try:
            while time.perf_counter() < deadline:
                probes.append(probe_s())
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(PROBE_PERIOD_S)
        finally:
            if not pid:  # past the deadline, or the harness was interrupted
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    calib_ms = statistics.median(probes) * PROBE_SEGMENTS * 1e3
    if proc.returncode != 0 or not result_path.is_file():
        return None, rusage, calib_ms
    return json.loads(result_path.read_text()), rusage, calib_ms


def gate(result: dict, workload, out: Path) -> list[RunOutputs]:
    """Output checks for one child: one RunOutputs per certified run."""
    if workload.sweep_tau:
        return check_sweep(out, list(workload.sweep_tau), workload.n_steps,
                           result["checks"])
    return [check_run(out, workload.n_steps, result["checks"],
                      result["exit_code"])]


def measure(root: Path, name: str, seed: int, seconds: float, trace: int,
            work: Path) -> dict:
    """Launch children until the time is used; collect per-child samples."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    children = []
    while True:
        elapsed = time.perf_counter() - start
        if len(children) >= MIN_CHILDREN[trace]:
            typical = statistics.median(c["wall_s"] for c in children)
            if elapsed + typical > seconds or elapsed > WALL_LIMIT_S:
                break
        i = len(children)
        traced = bool(trace and i % 2)
        directory = work / f"child{i:03d}"
        config = write_inputs(workload, seed, 0 if trace else i, directory)
        spec = {"config": str(config.resolve()), "trace": traced,
                "sweep_tau": list(workload.sweep_tau),
                "src": str((root / "src").resolve())}
        t0 = time.perf_counter()
        result, rusage, calib_ms = launch(root, spec, directory,
                                          start + CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        child = {"traced": traced, "wall_s": wall, "calib_ms": calib_ms,
                 "peak_rss_mb": rusage.ru_maxrss / 1024.0,
                 "result": result}
        out = directory / "out"
        if result is None:
            child["runs"] = [RunOutputs(problems=["child failed"])
                             for _ in range(workload.rows())]
        else:
            child["runs"] = gate(result, workload, out)
            child["out_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                                     if p.is_file())
            shutil.rmtree(out, ignore_errors=True)
        children.append(child)
        if result is None:
            break
    return {"children": children, "elapsed_s": time.perf_counter() - start}


def cert_fail_frac(runs: list[RunOutputs]) -> float:
    """Failed certificate rows over rows attempted; a run that wrote no
    certificates counts as one failed row."""
    rows = sum(r.rows or 1 for r in runs)
    failed = sum(r.failed_rows if r.rows else 1 for r in runs)
    return failed / rows


def at_reference_speed(seconds: float, calib_ms: float) -> float:
    """A time measured while the calibration loop took `calib_ms`, scaled to
    a host on which it takes REFERENCE_CALIB_MS."""
    return seconds * REFERENCE_CALIB_MS / calib_ms


def end_to_end(completed: list) -> dict:
    """Medians over the completed children, one sample each."""
    return {
        "setup_s": statistics.median(
            at_reference_speed(c["result"]["setup_s"], c["calib_ms"])
            for c in completed),
        "run_s": statistics.median(
            at_reference_speed(c["result"]["run_s"], c["calib_ms"])
            for c in completed),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in completed),
    }


def per_layer(children: list, completed: list) -> dict:
    """Per-run medians over the traced children; counts are per run and
    times are at reference host speed, like the end-to-end times."""
    traced = [c for c in completed if c["traced"]]
    plain = [c for c in completed if not c["traced"]]

    def med(values):
        return float(statistics.median(values))

    def hook(c, name, key):
        value = c["result"]["trace"]["hooks"].get(name, {}).get(key, 0)
        return value if key == "calls" else speed(c, value)

    def speed(c, seconds):
        return at_reference_speed(seconds, c["calib_ms"])

    metrics = {}
    for name in ALL_HOOKS:
        for key in ("calls", "s", "self_s", "wait_s"):
            metrics[f"{name}.{key}"] = med(hook(c, name, key) for c in traced)
    step_ms = [1e3 * speed(c, s) for c in traced
               for s in c["result"]["trace"]["step_s"]]
    p50, p90 = np.percentile(step_ms, [50, 90]) if step_ms else (0.0, 0.0)
    metrics["jko.step_ms.p50"] = float(p50)
    metrics["jko.step_ms.p90"] = float(p90)
    for metric, counted in (("jko.energy_evals_per_step", "jko.energy_eval"),
                            ("jko.solves_per_step", "jko.solve_banded")):
        metrics[metric] = med(
            hook(c, counted, "calls") / max(hook(c, "jko.step", "calls"), 1)
            for c in traced)
    runs = [r for c in traced for r in c["runs"]]
    metrics["jko.nonconverged_frac"] = (sum(r.nonconverged for r in runs)
                                        / max(sum(r.steps for r in runs), 1))
    metrics["diagnostics.certify_wall.s"] = med(
        speed(c, c["result"]["trace"]["certify_wall_s"]) for c in traced)
    metrics["cli.out_bytes"] = med(c["out_bytes"] for c in traced)
    metrics["report.rows"] = med(sum(r.rows for r in c["runs"])
                                 for c in traced)
    metrics["report.cert_fail_frac"] = cert_fail_frac(runs)
    traced_run = med(speed(c, c["result"]["run_s"]) for c in traced)
    plain_run = med(speed(c, c["result"]["run_s"]) for c in plain)
    metrics["trace.untraced_run_s"] = plain_run
    metrics["trace.overhead_frac"] = traced_run / plain_run - 1.0
    metrics["host.calib_ms"] = med(c["calib_ms"] for c in children)
    return metrics


def declared(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m for m in spec["end_to_end"]},
            1: {m["name"]: m for m in spec["per_layer"]}}


def list_metrics(root: Path):
    for trace, kind in ((0, "end-to-end (--trace 0)"),
                        (1, "per-layer (--trace 1)")):
        print(kind)
        for m in declared(root)[trace].values():
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:<40} {m['unit']:<7} "
                  f"{m['better']} is better{bound}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if args.list_metrics:
        list_metrics(root)
        return 0
    if not (root / "src" / "gradflow1d" / "cli.py").is_file():
        print("run from the root of a gradflow1d checkout (no src/gradflow1d)",
              file=sys.stderr)
        return 2
    if args.workload is None:
        ap.error("--workload is required")

    units = declared(root)[args.trace]
    work = (root / ".perfbench"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meta = metadata()
    run = measure(root, args.workload, args.seed, args.seconds, args.trace,
                  work)
    children = run["children"]
    problems = [p for c in children for r in c["runs"] for p in r.problems]
    attempted = sum(len(c["runs"]) for c in children)
    failed = sum(bool(r.problems) and not r.rows
                 for c in children for r in c["runs"])
    calib = [c["calib_ms"] for c in children]
    absent = {a for c in children if c["result"]
              for a in c["result"].get("trace", {}).get("absent", [])}
    meta.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        children=len(children), elapsed_s=run["elapsed_s"],
        calib_ms={"min": min(calib), "max": max(calib)},
        absent=sorted(absent), problems=problems[:20])
    (work / "run.json").write_text(json.dumps(
        {"meta": meta, "children": [
            {**c, "runs": [vars(r) for r in c["runs"]]} for c in children]},
        indent=1))
    print(json.dumps({"meta": meta}))
    completed = [c for c in children
                 if c["result"] and c["result"]["run_s"] is not None]
    if {c["traced"] for c in completed} != {False, bool(args.trace)}:
        print(f"too few runs completed; see {work}", file=sys.stderr)
        return 1
    values = (per_layer(children, completed) if args.trace
              else end_to_end(completed))
    if values.keys() != units.keys():
        print(f"metrics {sorted(values.keys() ^ units.keys())} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]["unit"]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
