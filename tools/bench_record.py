"""Record every end-to-end benchmark metric of a checkout in BENCH_<n>.json.

usage: python3 tools/bench_record.py <n> [checkout]

Runs the checkout's ``perfbench/run.py --trace 0`` (default: this one) for
every workload in its BENCHMARK.json at seeds 1-3, ``run_seconds`` each
(about six minutes), and writes BENCH_<n>.json at this repository's root:
every metric per workload and seed, and run.py's provenance (commit, Python
and numpy versions, nproc, src lines) plus whether src/ had local changes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def main(n: str, checkout: str = str(HERE)) -> None:
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    record = {"provenance": None, "runs": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (1, 2, 3):
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=checkout, capture_output=True, text=True)
            if run.returncode:
                print(f"{workload} seed {seed} failed (exit {run.returncode}); stderr ends:\n"
                      + "\n".join(run.stderr.splitlines()[-20:]), file=sys.stderr, flush=True)
                run.check_returncode()
            out = run.stdout.splitlines()
            record["provenance"] = json.loads(out[-2])["provenance"]
            line = json.loads(out[-1])
            line["metrics"] = {k: m["value"] for k, m in line["metrics"].items()}
            record["runs"].setdefault(workload, {})[str(seed)] = line
            print(workload, seed, line["correct"], line["metrics"].get("wall_s"), flush=True)
    record["provenance"]["src_dirty"] = bool(subprocess.run(
        ["git", "status", "--porcelain", "src"], cwd=checkout, capture_output=True, text=True).stdout)
    (HERE / f"BENCH_{n}.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
