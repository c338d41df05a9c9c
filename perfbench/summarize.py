"""Medians and quartiles of the benchmark runs recorded under .perfbench_out/results/.

    python3 perfbench/summarize.py [--write <baseline.json>]

Groups the untraced result files by workload and prints, for every
end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median.  Traced result files
contribute their per-layer metrics and layer shares.  With --write the
summary is also stored as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_out" / "results"


def summarize(results_dir: Path) -> dict:
    runs: dict[str, list[dict]] = {}
    traced: dict[str, list[dict]] = {}
    for path in sorted(results_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        (traced if rec["trace"] else runs).setdefault(rec["workload"], []).append(rec)
    out = {}
    for workload in sorted(set(runs) | set(traced)):
        recs = runs.get(workload, [])
        entry: dict = {"runs": len(recs), "seeds": sorted(r["seed"] for r in recs)}
        if recs:
            entry["provenance"] = {k: v for k, v in recs[0]["provenance"].items() if k != "seed"}
            entry["failed_ops_ratio"] = statistics.median(r["failed_ops_ratio"] for r in recs)
            entry["metrics"] = {}
            for name in recs[0]["metrics"]:
                values = [r["metrics"][name] for r in recs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                entry["metrics"][name] = {"unit": recs[0]["units"][name], "median": med,
                                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        for rec in traced.get(workload, []):
            entry.setdefault("traced", []).append({
                "seed": rec["seed"], "metrics": rec["metrics"],
                "layer_shares": rec["layer_shares"]["all"]})
        out[workload] = entry
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", type=Path, default=None)
    args = p.parse_args()
    summary = summarize(RESULTS)
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} untraced runs")
        for name, m in entry.get("metrics", {}).items():
            print(f"  {name:16s} median {m['median']:.6g} {m['unit']:4s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
