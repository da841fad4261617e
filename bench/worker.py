"""One pass of a workload in a fresh process.

Run by ``run.py``, never by hand:

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

It imports numpy and toeplab from the checkout's ``src`` (the BLAS thread
count is already in the environment), writes the generated manifests,
notes the monotonic time of its first operation, then runs every
operation in process through ``toeplab.cli.main`` (or the Monte Carlo
oracle) and writes ``result.json`` into DIR.  Exit code 0 means the pass
ran to the end; whether each operation succeeded is in ``result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401  (timed as part of set-up)
import toeplab  # noqa: E402
import toeplab.cli  # noqa: E402

import workloads  # noqa: E402


def _run_op(op: dict, out: Path) -> dict:
    manifest_path = out / "manifest.json"
    run_dir = out / "out"
    stderr = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            if op["kind"] == "cli":
                code = toeplab.cli.main(["--experiment", op["manifest"]["experiment"],
                                         "--manifest", str(manifest_path), "--out", str(run_dir)])
            else:
                m = op["manifest"]
                c0, se = toeplab.reduction.c0_sphere_mc(
                    toeplab.SymbolPoly.from_json(m["symbol"]),
                    toeplab.TestFunction.polynomial(m["f"]["coeffs"]),
                    m["n"], samples=m["samples"], seed=m["seed"])
                run_dir.mkdir(parents=True, exist_ok=True)
                (run_dir / "mc.json").write_text(json.dumps({"c0": c0, "stderr": se}) + "\n")
                code = 0
        raised = None
    except Exception:  # noqa: BLE001 -- a crash is an operation result to report
        code, raised = None, traceback.format_exc()
    return {"name": op["name"], "exit": code, "raised": raised, "stderr": stderr.getvalue(),
            "seconds": time.perf_counter() - t0}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    if not Path(toeplab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"toeplab imported from {toeplab.__file__}, not from the checkout", file=sys.stderr)
        return 2
    out = Path(args.out)
    ops = workloads.build(args.workload, args.seed)
    for op in ops:
        d = out / op["name"]
        d.mkdir(parents=True, exist_ok=True)
        (d / "manifest.json").write_text(json.dumps(op["manifest"], indent=2) + "\n")
    t_first = time.monotonic()
    result = {"t_first": t_first, "ops": [], "trace": None}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        for op in ops:
            if tracer is not None:
                tracer.op = op["name"]
            result["ops"].append(_run_op(op, out / op["name"]))
        if tracer is not None:
            result["trace"] = tracer.dump()
    (out / "result.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
