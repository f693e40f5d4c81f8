#!/usr/bin/env python3
"""Run the exact-vs-effective comparison on the example config and print a
small table of the error against both bounds."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from landau_hf import load_config
from landau_hf.analysis import Problem, run_comparison
from landau_hf.cli import write_timeseries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    default_cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
    parser.add_argument("--config", default=str(default_cfg))
    parser.add_argument("--out", default="out/demo_compare.csv")
    args = parser.parse_args()

    config = load_config(args.config)
    result = run_comparison(Problem(config))

    print(f"{'t':>6} {'error':>12} {'int.defect':>12} {'a-priori':>12} "
          f"{'rdm dist':>12}")
    for rec in result.records[:: max(1, len(result.records) // 12)]:
        print(f"{rec.t:6.2f} {rec.error_norm:12.4e} {rec.defect_bound:12.4e} "
              f"{rec.apriori_bound:12.4e} {rec.rdm_trace_dist:12.4e}")
    print()
    for key in ("max_error", "max_error_over_apriori", "max_error_over_defect",
                "bound_violations", "final_energy_drift_hf"):
        print(f"{key}: {result.summary[key]}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_timeseries(result.records, str(out))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
