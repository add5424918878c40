"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --pass K --spawned-at T
                                [--trace] [--probe]

``run.py`` starts this once per pass, so the process-global caches of the
library (``perm.swap_levels``, ``poset._whitney_rec``) start cold in every
pass.  ``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (a system-wide clock on Linux); set-up time runs from
then to the first op and covers interpreter start, ``import permnet`` and
building the inputs.  ``--probe`` stops there.  ``--trace`` runs the pass
under the timing wrappers of ``tracer.py``.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import permnet
    from permnet import cli

    if os.path.dirname(os.path.abspath(permnet.__file__)) != os.path.join(SRC, "permnet"):
        print(f"permnet imported from {permnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    tasks = workloads.build(args.workload, args.seed, args.pass_index)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        client = workloads.Client(cli.main)  # the wrapper, when tracing
        start = time.perf_counter()
        for task in tasks:
            task(client)
        wall_s = time.perf_counter() - start

    result = client.summary()
    result.update(
        setup_s=setup_s,
        wall_s=wall_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
