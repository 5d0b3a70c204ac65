"""``sweep``: the law sweep of ``latkit suite`` over the shipped corpus.

A full sweep is 3,800 law reports and takes close to a minute on a small
machine, longer than one benchmark run may last.  A pass therefore runs a
fixed 1-in-16 sample of the reports: every sixteenth report of each law, in the
order ``suite.run_suite`` generates them, so each law keeps its share of
objects.  The checks are generated and collected exactly as ``run_suite``
does, with the run's seed passed to the laws that take one.  Each pass
starts from a fresh import, so the ``_homs`` cache starts empty, as in a
new ``latkit suite`` process.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass

from harness import Op, fresh_latkit, reference_seconds

STRIDE = 16
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "sweep_seed0.tsv")


def read_golden():
    """(prop, object) -> (status, witness) of the full sweep with seed 0."""
    with open(GOLDEN) as handle:
        rows = [line.rstrip("\n").split("\t") for line in handle if line.strip()]
    return {(prop, obj): (status, None if witness == "-" else witness) for prop, obj, status, witness in rows}


def checks(lk, bundle, seed):
    """Every (prop, object, body) of the sweep, generated as run_suite does."""
    for check in lk.suite.ALL_CHECKS:
        code = check.__code__
        kwargs = {"seed": seed} if "seed" in code.co_varnames[: code.co_argcount] else {}
        yield from check(bundle, **kwargs)


def build(seed, lk):
    """Set-up for one pass: latkit's corpus bundle and the sampled checks."""
    bundle = lk.suite.default_bundle()
    seen = Counter()
    sample, keys = [], []
    for prop, obj, body in checks(lk, bundle, seed):
        keys.append((prop, obj))
        if seen[prop] % STRIDE == 0:
            sample.append((prop, obj, body))
        seen[prop] += 1
    return sample, keys


@dataclass
class Pass:
    """Outcome of one pass: timed ops plus what the per-layer table needs."""

    ops: list
    law_seconds: Counter  # prop -> summed Report.millis / 1000
    cache_info: object  # suite._homs.cache_info() after the pass
    keys: list  # every (prop, object) the sweep generates


def run_pass(seed, golden, tracer=None):
    lk = fresh_latkit()
    sample, keys = build(seed, lk)
    if tracer is not None:
        tracer.install(lk)
    ops, law_seconds = [], Counter()
    for index, (prop, obj, body) in enumerate(sample):
        if tracer is not None:
            tracer.op = index
        reports = []
        start = time.perf_counter()
        try:
            lk.suite._collect([(prop, obj, body)], reports)
            error = None
        except Exception as exc:  # run_suite would abort the whole sweep here
            error = exc
        seconds = time.perf_counter() - start
        ref = reference_seconds()
        if error is not None:
            ops.append(Op(prop, seconds, False, "%s escaped: %s" % (type(error).__name__, error), ref))
            continue
        report = reports[0]
        law_seconds[prop] += report.millis / 1000.0
        ops.append(Op(prop, seconds, *_judge(report, seed, golden), ref))
    return Pass(ops, law_seconds, lk.suite._homs.cache_info(), keys)


def _judge(report, seed, golden):
    key = (report.prop, report.object)
    if key not in golden:
        return False, "%s %s is not in the golden sweep" % key
    want = golden[key] if seed == 0 else ("pass", None)
    got = (report.status, report.witness)
    return (True, "") if got == want else (False, "%s %s: %r, expected %r" % (*key, got, want))
