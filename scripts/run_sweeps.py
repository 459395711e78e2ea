#!/usr/bin/env python3
"""Formula-vs-engine sweeps over all three graph families, plus the
ordered-basis structure checks.  Reports land in ./out/ as JSON."""

from __future__ import annotations

import pathlib
import sys

from edgereg.verify import CampaignSpec, run_campaign, run_structure_checks

OUT = pathlib.Path("out")

SWEEPS = [
    CampaignSpec(family="cycle", n_values=(3, 4, 5), t_values=(1, 2),
                 weight_alphabet=(2, 3), exhaustive_cap=16, sample_size=10),
    CampaignSpec(family="forest", n_values=(2, 3, 4, 5), t_values=(1, 2),
                 weight_alphabet=(2, 3), exhaustive_cap=16),
    CampaignSpec(family="unicyclic", n_values=(4, 5), t_values=(1, 2),
                 weight_alphabet=(2, 3), exhaustive_cap=32),
    CampaignSpec(family="raw-ideal", n_values=(1,), t_values=(1,), sample_size=25),
]

STRUCTURE = CampaignSpec(family="cycle", n_values=(3, 4, 5), t_values=(1, 2, 3),
                         weight_alphabet=(2,))


def main() -> int:
    OUT.mkdir(exist_ok=True)
    codes = [0]
    for spec in SWEEPS:
        report = run_campaign(spec)
        path = OUT / f"campaign-{spec.family}.json"
        path.write_text(report.to_json() + "\n")
        summary = report.summary()
        print(f"{spec.family:<10} {summary} -> {path}")
        codes.append(report.exit_code())
    structure = run_structure_checks(STRUCTURE)
    path = OUT / "structure.json"
    path.write_text(structure.to_json() + "\n")
    print(f"{'structure':<10} {structure.summary()} -> {path}")
    codes.append(structure.exit_code())
    # a mismatch (1) outranks capped skips (3)
    return 1 if 1 in codes else max(codes)


if __name__ == "__main__":
    sys.exit(main())
