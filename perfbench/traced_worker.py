"""A connected campaign worker that records its own timeline.

Equivalent to ``repro worker --connect URL`` except that every
``ServiceClient.request`` (by endpoint) and every claimed point is
timed and appended, one JSON object per line, to ``--trace-out``.  Lines
are flushed as they are written, so the record survives the benchmark
stopping this process with SIGTERM.

    python perfbench/traced_worker.py --connect URL --id bw1 \\
        --trace-out bw1.jsonl [--poll-interval S] [--heartbeat-interval S]
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.service import worker as worker_mod  # noqa: E402
from repro.service.httpclient import ServiceClient  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True)
    parser.add_argument("--id", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--poll-interval", type=float, default=0.5)
    parser.add_argument("--heartbeat-interval", type=float, default=1.0)
    args = parser.parse_args()
    out = open(args.trace_out, "a", buffering=1)

    def record(**doc):
        out.write(json.dumps(doc) + "\n")

    request = ServiceClient.request

    def timed_request(self, method, path, doc=None, idempotency_key=None):
        start = time.time()
        body = None
        try:
            body = request(self, method, path, doc=doc,
                           idempotency_key=idempotency_key)
            return body
        finally:
            endpoint = path.split("?", 1)[0].strip("/")
            key = (doc or {}).get("key") or (body or {}).get("key")
            record(kind="request", endpoint=endpoint, start=start,
                   end=time.time(), key=key, ok=body is not None,
                   idle=endpoint == "schedule" and body is not None
                   and not body.get("campaign_id"))

    run_point = worker_mod._run_point

    def timed_run_point(transport, key, *rest, **kwargs):
        start = time.time()
        try:
            return run_point(transport, key, *rest, **kwargs)
        finally:
            record(kind="point", key=key, start=start, end=time.time())

    ServiceClient.request = timed_request
    worker_mod._run_point = timed_run_point
    options = worker_mod.WorkerOptions(
        worker_id=args.id, poll_interval=args.poll_interval,
        heartbeat_interval=args.heartbeat_interval, log=False)
    worker_mod.work_service(args.connect, options)
    return 0


if __name__ == "__main__":
    sys.exit(main())
