"""Benchmark of toeplab's CLI experiments, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the code under test is the
checkout's ``src/toeplab``.  Workloads are defined in ``workloads.py``.
Each pass of a workload runs in a fresh worker process (``worker.py``)
whose BLAS thread count is set through the environment before numpy
loads; the parent times it, reads its CPU time and peak RSS from
``wait4`` and checks every output against exact references
(``reference.py``).  Passes repeat, closed loop, while a typical pass
still ends within ``--seconds`` (at least two, so every operation is rerun
and must come out byte-identical); timings are medians over passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics: self time and calls of each wrapped public function
(``tracer.py``), work counts, and ``trace.overhead_s``, the median traced
pass minus the median untraced one.  On sphere_dense it first makes one
traced pass with one BLAS thread for ``spectral.blas_speedup``.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; lines before it are a
readable report with the environment record.  An operation that fails in
its documented known-defect way is attempted but not ``failed``: it
lowers ``ok_frac`` instead, so the defect stays visible.  The run exits
non-zero without a result when the checkout has no ``src/toeplab``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
SETUP_ONLY_SPAWNS = 5  # set-up samples besides the one every pass gives
MIN_PASSES = 2
RUN_LIMIT_S = 170.0    # no pass starts that could end after this


@dataclass
class Pass:
    """One worker process: its timings, resources and reported results."""

    wall: float
    cpu: float
    rss_mb: float
    setup: float
    result: dict
    traced: bool
    threads: int
    out: Path


def spawn(args: list[str], out: Path, threads: int, deadline: float) -> Pass:
    """Run the worker once, waiting for it and reading its resource usage."""
    env = dict(os.environ)
    env.update({v: str(threads) for v in BLAS_VARS})
    out.mkdir(parents=True)
    argv = [sys.executable, str(BENCH / "worker.py"), *args, "--out", str(out)]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"worker {' '.join(args)} ran past the run's time limit")
            time.sleep(0.002)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.monotonic() - t0
    code = os.waitstatus_to_exitcode(status)
    result_path = out / "result.json"
    if code != 0 or not result_path.exists():
        raise RuntimeError(f"worker {' '.join(args)} exited with {code}")
    result = json.loads(result_path.read_text())
    return Pass(wall=wall, cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024,
                setup=result["t_first"] - t0, result=result, traced="--trace" in args,
                threads=threads, out=out)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def grade(ops, refs, p: Pass, first: dict, problems: list[str]) -> tuple[list[str], list[float]]:
    """Outcome of each operation of a pass: "ok", "known_defect" or "failed"."""
    import reference

    outcomes, errs = [], []
    for op, res in zip(ops, p.result["ops"]):
        out = p.out / op["name"] / "out"
        defect = op.get("known_defect")
        found: list[str] = []
        if res["exit"] == 0:
            try:
                found, op_errs = reference.check(op, out, refs[op["name"]])
                errs += op_errs
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                found = [f"unreadable output: {exc!r}"]
            outcome = "failed" if found else "ok"
        elif defect and res["exit"] == defect["exit"] and defect["stderr"] in res["stderr"]:
            outcome = "known_defect"
        else:
            outcome = "failed"
            found = [f"exit {res['exit']}: {(res['raised'] or res['stderr']).strip()[-300:]}"]
        if outcome != "failed":
            # Float results are reproducible for a fixed BLAS thread count only.
            d = digest(out) if out.exists() else ""
            if first.setdefault((p.threads, op["name"]), d) != d:
                outcome, found = "failed", ["rerun is not byte-identical"]
        problems += [f"{op['name']}: {msg}" for msg in found]
        outcomes.append(outcome)
    return outcomes, errs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine(),
            "nproc": NPROC, "blas_threads": NPROC}


def layer_metrics(traced: list[Pass], single: Pass | None, untraced: list[Pass], names) -> dict:
    dumps = [p.result["trace"] for p in traced]
    first = dumps[0]
    counts, calls, maxima = first["counts"], first["calls"], first["maxima"]

    def self_s(name: str, ds) -> float:
        return statistics.median(d["self_s"].get(name, 0.0) for d in ds)

    out = {}
    for name in names:
        if name.endswith(".self_s"):
            out[name] = self_s(name[: -len(".self_s")], dumps)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name in counts:
            out[name] = counts[name]
        elif name in maxima:
            out[name] = maxima[name]
    out["multiindex.fiber_box_ratio"] = (counts["multiindex.fiber_points"] / counts["multiindex.box_points"]
                                         if counts.get("multiindex.box_points") else 0.0)
    out["spectral.eig_gflop"] = counts.get("spectral.eig_flop", 0) / 1e9
    out["spectral.matmul_gflop"] = counts.get("spectral.matmul_flop", 0) / 1e9
    out["toric.sampler_accept_ratio"] = (counts["toric.sampler_kept"] / counts["toric.sampler_drawn"]
                                         if counts.get("toric.sampler_drawn") else 0.0)
    dense = ("spectral.measure_eigen", "spectral.measure_poly")
    multi = sum(self_s(n, dumps) for n in dense)
    out["spectral.blas_speedup"] = (sum(single.result["trace"]["self_s"].get(n, 0.0) for n in dense) / multi
                                    if single is not None and multi > 0 else 0.0)
    out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                               - statistics.median(p.wall for p in untraced))
    return {name: out.get(name, 0) for name in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    if not (ROOT / "src" / "toeplab" / "__init__.py").is_file():
        print(f"no toeplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({v: str(NPROC) for v in BLAS_VARS})  # before numpy loads here too
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import reference

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    refs = {op["name"]: reference.expected(op) for op in ops}
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    hard_deadline = start + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [spawn(base + ["--setup-only"], work / f"setup-{i}", NPROC, hard_deadline).setup
                  for i in range(SETUP_ONLY_SPAWNS)]
        loop_start = time.monotonic()
        single = None
        if args.trace and args.workload == "sphere_dense":
            single = spawn(base + ["--trace"], work / "pass-single-thread", 1, hard_deadline)
        passes: list[Pass] = []
        while True:
            # Start a pass only if a typical one still ends within --seconds.
            typical = statistics.median(p.wall for p in passes) if passes else 0.0
            now = time.monotonic()
            if len(passes) >= MIN_PASSES + args.trace and (
                    now + typical > loop_start + args.seconds or now + typical > hard_deadline):
                break
            traced = bool(args.trace) and len(passes) % 2 == 0
            p = spawn(base + (["--trace"] if traced else []), work / f"pass-{len(passes)}", NPROC, hard_deadline)
            passes.append(p)

        problems: list[str] = []
        first_digest: dict = {}
        outcomes, errs = [], []
        for p in passes + ([single] if single else []):
            o, e = grade(ops, refs, p, first_digest, problems)
            outcomes += o
            errs += e
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = len(outcomes)
    failed = outcomes.count("failed")
    known = outcomes.count("known_defect")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations attempted, "
          f"{outcomes.count('ok')} ok, {known} known-defect, {failed} failed "
          f"(failed_frac incl. known defects {(failed + known) / attempted:.4f})")
    for msg in dict.fromkeys(problems):
        print(f"  problem: {msg}")

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        dumps = [p.result["trace"] for p in traced]
        consistent = all((d["counts"], d["calls"]) == (dumps[0]["counts"], dumps[0]["calls"]) for d in dumps)
        if not consistent:
            print("  problem: work counts differ between traced passes")
        metrics = layer_metrics(traced, single, untraced, names)
        print(f"traced passes {len(traced)}, untraced passes {len(untraced)}"
              + (", single-thread traced pass 1" if single else ""))
    else:
        consistent = True
        walls = [p.wall for p in passes]
        q1, med, q3 = quartiles(walls)
        print(f"wall_s over {len(walls)} passes: median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s")
        metrics = {
            "wall_s": med,
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "setup_s": statistics.median(setups + [p.setup for p in passes]),
            "ok_frac": outcomes.count("ok") / attempted,
            "ref_rel_err": max(errs) if errs else 0.0,
        }
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
