"""The whole ``latkit suite`` sweep once, checked against the golden reports.

    python3 perfbench/full_sweep.py [--seed N] [--trace]

Runs ``suite.run_suite(suite.default_bundle(), seed=N)``: all 3,800 law
reports, about a minute of work, which is why the ``sweep`` workload runs a
sample instead.  With seed 0 every (prop, object, status, witness) must equal
``golden/sweep_seed0.tsv``; with another seed the (prop, object) keys must
match and every report must pass.  ``--trace`` installs the workload tracer
and prints its call counts, to cross-check a profile of the full sweep.
Prints one JSON object; exits 1 if a report differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import fresh_latkit, prepare  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    prepare()
    import sweep_workload
    import tracing

    golden = sweep_workload.read_golden()
    lk = fresh_latkit()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(lk)
    start = time.perf_counter()
    reports = lk.suite.run_suite(lk.suite.default_bundle(), seed=args.seed)
    seconds = time.perf_counter() - start

    got = {(r.prop, r.object): (r.status, r.witness) for r in reports}
    if args.seed == 0:
        want = golden
    else:
        want = {key: ("pass", None) for key in golden}
    differing = sorted(key for key in set(got) | set(want) if got.get(key) != want.get(key))
    summary = {
        "seed": args.seed,
        "reports": len(reports),
        "differing": [list(key) for key in differing[:20]],
        "differing_count": len(differing) + len(reports) - len(got),
        "seconds": seconds,
        "homs_cache": lk.suite._homs.cache_info()._asdict(),
    }
    if tracer is not None:
        calls, _ = tracer.summary()
        summary["calls"] = dict(sorted(calls.items()))
    print(json.dumps(summary, indent=1))
    sys.exit(1 if summary["differing_count"] else 0)


if __name__ == "__main__":
    main()
