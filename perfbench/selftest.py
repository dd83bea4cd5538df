#!/usr/bin/env python3
"""Fast self-test of the benchmark on reduced-size versions of its workloads.

Run from the repository root:

    python3 perfbench/selftest.py

Every workload runs at 1/20 of its vertex count (same degree and config),
once untraced and twice traced with one seed.  The test asserts that:

* every metric BENCHMARK.json names is emitted, with its unit, and nothing
  else, in the last JSON line of each run;
* every run is correct with no failed pass;
* sparse-d4's greedy fallback shows as over budget (over_budget_share 1 and
  colors_over_budget > 1), not as a failure, while the other workloads stay
  within budget;
* the exact counters and the coloring and stats hashes of the two traced
  runs repeat identically.

Exits 0 and prints "selftest OK" on success.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"
SEED = "3"
EXACT_UNITS = {"count", "B", "B/edge"}


def run(trace: int) -> dict[str, dict]:
    """Run every workload; return {workload: {"result", "shares", "hashes"}}."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", SEED,
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    runs: dict[str, dict] = {}
    current = None
    for line in out.stdout.splitlines():
        if line.startswith("# workload "):
            current = runs.setdefault(line.split()[2].rstrip(":"), {"shares": {}, "hashes": []})
        elif line.startswith("# graph_seed="):
            current["hashes"].append(line)
        elif line.startswith("{"):
            current["result"] = json.loads(line)
        elif line.endswith(" ratio") and line.split()[0].endswith("_share"):
            name, value, _ = line.split()
            current["shares"][name] = float(value)
    assert out.stdout.splitlines()[-1].startswith("{"), "the last line must be the JSON result"
    return runs


def check_names(runs: dict[str, dict], spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    for name, r in runs.items():
        got = {k: v["unit"] for k, v in r["result"]["metrics"].items()}
        assert got == want, f"{name}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
        assert r["result"]["correct"] and r["result"]["failed"] == 0, f"{name}: {r['result']}"
        assert set(r["result"]) == {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in bench["workloads"]}

    e2e = run(0)
    assert names <= set(e2e), f"workloads {sorted(e2e)} miss some of BENCHMARK.json's {sorted(names)}"
    check_names(e2e, bench["end_to_end"])
    for name, r in e2e.items():
        assert r["shares"]["failed_share"] == 0.0, name
        over = r["result"]["metrics"]["colors_over_budget"]["value"]
        if name == "sparse-d4":
            assert r["shares"]["over_budget_share"] == 1.0 and over > 1.0, r
        else:
            assert r["shares"]["over_budget_share"] == 0.0 and over <= 1.0, r

    first, second = run(1), run(1)
    check_names(first, bench["per_layer"])
    for name in first:
        a, b = first[name], second[name]
        for key, m in a["result"]["metrics"].items():
            if m["unit"] in EXACT_UNITS:
                assert m["value"] == b["result"]["metrics"][key]["value"], f"{name} {key} differs"
        assert a["hashes"] == b["hashes"], f"{name}: output hashes differ between traced runs"
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
