"""Every metric of every workload from one command.

    python3 bench/report.py [--seed N] [--seconds S]

Runs ``run.py`` on each workload of BENCHMARK.json, untraced and then
traced, streams each run's report and ends with one table of the
end-to-end metrics, workloads side by side.  Exits non-zero if any run
fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    table: dict[str, dict] = {}
    ok = True
    for name in names:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), proc.stderr, sep="\n", flush=True)
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace == 0:
                table[name] = result["metrics"]

    print(f"\n{'metric':14s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for m in spec["end_to_end"]:
        cells = [f"{table[n][m['name']]['value']:14.6g}" if n in table else f"{'-':>14s}" for n in names]
        print(f"{m['name']:14s} {m['unit']:6s} " + " ".join(cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
