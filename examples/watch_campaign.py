#!/usr/bin/env python
"""Live-telemetry tour: run a small campaign and watch it from outside.

Launches a journaled sweep in a background thread with fast heartbeats
and — from the *outside*, exactly like `repro watch DIR` would — reads
the journal's point shards while the simulation runs, printing the
dashboard table per frame.  Each worker heartbeat renews its point's
lease and lands in that point's shard, so the journal is the only
status book there is.

    python examples/watch_campaign.py [--dir /tmp/livecamp] [-n 20000]

Everything here is observable after the fact too: point `repro watch`
at the campaign directory once this exits.
"""

import argparse
import tempfile
import threading
import time
from pathlib import Path

from repro.harness import CampaignJournal, RunConfig, run_campaign
from repro.obs.live import journal_view, render_watch


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", default=None,
                        help="campaign directory (default: a temp dir)")
    parser.add_argument("-n", type=int, default=20_000,
                        help="instructions per point")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    root = Path(args.dir or tempfile.mkdtemp(prefix="livecamp-"))
    configs = [RunConfig(workload=w, engine=e, max_instructions=args.n)
               for w in ("astar", "sssp") for e in ("baseline", "phelps")]
    journal = CampaignJournal(root)

    def sweep():
        run_campaign(configs, journal=journal, jobs=args.jobs,
                     heartbeat_interval=0.2)

    # The sweep runs in a thread only to keep the tour in one process.
    worker = threading.Thread(target=sweep, daemon=True)
    worker.start()
    print(f"campaign dir : {root}")
    while worker.is_alive():
        time.sleep(0.5)
        view = journal_view(root)
        if view is not None:  # None while the sweep writes the manifest
            print("\n" + render_watch(view))
    worker.join()

    print(f"\nfinal statuses: {journal_view(root)['counts']}")
    print(f"replay the dashboard any time:  "
          f"python -m repro watch {root} --once")


if __name__ == "__main__":
    main()
