#!/usr/bin/env python
"""Campaign-service tour: submit a sweep over HTTP and ride it home.

Starts an in-process campaign daemon with a two-worker pool, then does
everything a remote client would do with nothing but stdlib HTTP:

1. ``POST /campaigns`` — submit a workloads × engines sweep spec;
2. ``GET /campaigns/<id>`` — poll status and per-point lease state;
3. ``GET /campaigns/<id>/stream`` — tail the Server-Sent Events feed
   until the campaign reaches a terminal status;
4. ``GET /campaigns/<id>/results`` — fetch the finished result entries.

    python examples/submit_campaign.py [--root /tmp/svc] [-n 20000]

Point it at an already-running daemon instead with ``--connect URL``
(start one with ``python -m repro service --port 8330``).

A spec can also list ``RunConfig.to_dict()`` points
(``{"points": [...]}``) with per-point core or Phelps overrides.  Every
figure benchmark journals its run that way, so a figure's spec can be
POSTed as-is::

    jq .spec benchmarks/results/campaigns/fig15a_window/campaign.json \\
      | curl -s -X POST localhost:8330/campaigns -d @-
"""

import argparse
import json
import tempfile
import urllib.request
from pathlib import Path


def get_json(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--connect", default=None,
                        help="URL of a running daemon (default: start one)")
    parser.add_argument("--root", default=None,
                        help="service campaign root (default: a temp dir)")
    parser.add_argument("-n", type=int, default=20_000,
                        help="instructions per point")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    service = None
    if args.connect:
        base = args.connect.rstrip("/")
    else:
        from repro.service import CampaignService, ServiceConfig
        root = Path(args.root or tempfile.mkdtemp(prefix="svc-"))
        service = CampaignService(ServiceConfig(
            root=str(root), port=0, workers=args.workers,
            heartbeat_interval=0.2)).start()
        base = service.url
    print(f"daemon       : {base}")

    try:
        # 1. Submit.
        spec = {"workloads": ["astar", "sssp"],
                "engines": ["baseline", "phelps"],
                "instructions": args.n}
        req = urllib.request.Request(
            f"{base}/campaigns", data=json.dumps(spec).encode(),
            method="POST", headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=10) as resp:
            record = json.loads(resp.read().decode())
        cid = record["id"]
        print(f"submitted    : {cid} ({record['total_points']} points)")

        # 2. One status poll, showing the per-point lease view.
        doc = get_json(f"{base}/campaigns/{cid}")
        print(f"status       : {doc['status']}  counts={doc['counts']}")

        # 3. Tail the SSE stream until a terminal frame arrives.
        print("streaming    :")
        with urllib.request.urlopen(f"{base}/campaigns/{cid}/stream",
                                    timeout=600) as resp:
            for raw in resp:
                line = raw.decode().strip()
                if not line.startswith("data: "):
                    continue
                frame = json.loads(line[len("data: "):])
                print(f"  {frame['status']:<10} counts={frame['counts']} "
                      f"leased={frame['leased']}")

        # 4. Fetch the results.
        results = get_json(f"{base}/campaigns/{cid}/results")
        print(f"results      : {results['done']}/{results['total_points']} "
              f"entries")
        for key, entry in sorted(results["results"].items()):
            print(f"  {key[:12]}…  cycles={entry['cycles']:>8}  "
                  f"mpki={entry['mpki']:.1f}")
        print(f"\nwatch it again any time:  "
              f"python -m repro watch --connect {base}/campaigns/{cid}")
    finally:
        if service is not None:
            service.stop()


if __name__ == "__main__":
    main()
