"""Regenerate ``perfbench/reference.json``, the results every benchmark
run is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Only a change that is meant to alter simulated results (the timing
model, a workload, a default config) may regenerate it, and it must say
so; a speed-only change must leave every reference value matching.
"""

import json
import pathlib
import sys

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                str(pathlib.Path(__file__).resolve().parent)]

from repro.harness import simulate  # noqa: E402
from repro.harness.campaign import run_campaign  # noqa: E402
from repro.service.queue import configs_from_spec  # noqa: E402

from campaigns import (INSTRUCTIONS, JOBS, campaign_spec,  # noqa: E402
                       entry_digest)
from common import BENCH_DIR  # noqa: E402
from simwork import SIMS, summary  # noqa: E402


def main() -> int:
    sims = {name: summary(simulate(config).stats)
            for name, config in SIMS.items()}
    entries = run_campaign(configs_from_spec(campaign_spec(0)), jobs=JOBS)
    doc = {
        "programs": "workload registry fixed-seed builds "
                    "(repro.workloads.registry); --seed only orders "
                    "campaign points",
        "sims": sims,
        "campaign": {"instructions": INSTRUCTIONS,
                     "fingerprints": {k: entry_digest(e)
                                      for k, e in sorted(entries.items())}},
    }
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(sims)} sims, {len(entries)} campaign points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
