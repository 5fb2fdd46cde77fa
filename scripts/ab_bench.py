#!/usr/bin/env python3
"""A/B benchmark of two revisions of this repository.

Exports each revision with `git archive` into a temporary directory, so no
worktree, branch or index changes, and runs alternating pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from each export, for every workload in BENCHMARK.json, with T its
`run_seconds`. On odd seeds the parent runs first, on even seeds the
change. The result is a BENCH_*.json holding, for every workload and every
end-to-end metric in BENCHMARK.json:
- each side's runs with their q1, median and q3;
- `change_wins_of_N`, the pairs in which the change read better;
- `change_worse_by`, (change median - parent median) / parent median,
  signed so that positive is worse;
- `median_gap_vs_parent_iqr`, [change median - parent median,
  parent q3 - parent q1];
- `fail_ratio`, failed / attempted commands over all runs of each side.

Usage:

    python3 scripts/ab_bench.py --parent a9971c5 --change HEAD \\
        --seeds 1101-1110 --what "Change: ..." --out BENCH_name.json

A revision is any tree-ish; `git write-tree` names the staged files
without a commit. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export(rev: str, into: Path) -> Path:
    """Extract the committed files of `rev` into a new directory."""
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as archive:
        archive.extractall(into, filter="data")
    return into


def parse_seeds(text: str) -> list[int]:
    if "-" in text.lstrip("-"):
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: (machine facts, the JSON object it prints last)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout.name} {workload} seed {seed} exited {proc.returncode}:\n"
                 + proc.stderr[-2000:])
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine: ")), {})
    return machine, json.loads(lines[-1])


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"runs": [round(r, 4) for r in runs], "q1": round(q1, 4),
            "median": round(median, 4), "q3": round(q3, 4)}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    p, c = quartiles(parent), quartiles(change)
    sign = 1 if better == "lower" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    return {
        "parent": p,
        "change": c,
        f"change_wins_of_{len(parent)}": wins,
        "change_worse_by": round(sign * (c["median"] - p["median"]) / p["median"], 4),
        "bound": bound,
        "median_gap_vs_parent_iqr": [round(c["median"] - p["median"], 4),
                                     round(p["q3"] - p["q1"], 4)],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="tree-ish of the parent")
    parser.add_argument("--change", default="HEAD", help="tree-ish of the change (HEAD)")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="FIRST-LAST or a comma list, at least two seeds")
    parser.add_argument("--what", default="", help="what the change is, for the JSON")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:  # the quartiles of one run per side are undefined
        parser.error(f"--seeds names {len(args.seeds)} seed(s); at least two are needed")

    revisions = {side: git("rev-parse", "--short", rev).decode().strip()
                 for side, rev in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        checkouts = {side: export(rev, Path(tmp) / side) for side, rev in revisions.items()}
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text("utf-8"))
        seconds = spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        results = {w: {"parent": [], "change": []} for w in workloads}
        machine = {}
        for workload in workloads:
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    machine, result = run_once(checkouts[side], workload, seed, seconds)
                    results[workload][side].append(result)
                    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: {values} "
                          f"failed {result['failed']}/{result['attempted']}", flush=True)

    report = {}
    for workload, sides in results.items():
        report[workload] = {
            m["name"]: compare([r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                               [r["metrics"][m["name"]]["value"] for r in sides["change"]],
                               m["better"], m["bound"])
            for m in spec["end_to_end"]
        }
        report[workload]["fail_ratio"] = {
            side: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
            for side, runs in sides.items()
        }
    what = (f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
            f"--seed S --seconds {seconds:g} --trace 0`, each side run from its own "
            f"`git archive` export; odd seeds ran the parent first, even seeds the change "
            f"first. Parent: {revisions['parent']}. Change: {revisions['change']}. {args.what}")
    document = {"what": what.strip(), "seeds": args.seeds, "run_seconds": seconds,
                "machine": machine, "workloads": report}
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
