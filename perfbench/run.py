"""latkit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep|load|query --seed N --seconds S --trace 0|1

Run from the repository root; latkit is imported from ``src/``.  With
``--trace 0`` the workload runs closed loop (one op at a time, no worker
threads or processes) in whole cycles of the same ops until ``--seconds``
have passed, and the end-to-end metrics are reported from each op's time
relative to a fixed reference computation timed right after it.  With
``--trace 1`` it runs one cycle untraced and the same cycle traced, and
reports the per-layer metrics.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics named in
``BENCHMARK.json``); the exit code is 1 if any output was wrong.  Inputs,
results and spans go to ``.perfbench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import load_workload  # noqa: E402
import query_workload  # noqa: E402
import sweep_workload  # noqa: E402
import tracing  # noqa: E402
from harness import (  # noqa: E402
    ROOT, WORK, forget_latkit, fresh_latkit, import_latkit, prepare, reference_seconds,
)

WORKLOADS = {"sweep": sweep_workload, "load": load_workload, "query": query_workload}
SETUP_REPEATS = 5
MIN_CYCLES = 3
# End-to-end times are reported at the machine speed where the reference
# computation takes this long, near its time on the 2-core benchmark machine.
REFERENCE_S = 0.001
# op_tail_ms is the mean of the op times from this percentile up.  Fixed per
# workload so that parent and change report the same one; each takes in the
# ten or eleven most expensive ops at the baseline's cycle sizes (260, 40
# and 33 ops).
TAIL_PERCENTILE = {"sweep": 96, "load": 75, "query": 70}
CLI_COMMANDS = ("check", "hom", "count", "witness", "adjoint", "closure", "equiv")


def main():
    args = parse_args()
    prepare()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir)
    if threading.active_count() != 1:
        sys.exit("the benchmark must run single threaded")
    report(args, spec, result)
    sys.exit(0 if result["correct"] else 1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


# ------------------------------------------------------------------ workloads


class Workload:
    """Set-up and one cycle of ops for the chosen workload."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.module = WORKLOADS[name]
        self.golden = sweep_workload.read_golden() if name == "sweep" else None
        self.inputs = None
        self.gates = []  # run-level correctness problems
        self.extra = {}  # per cycle: law seconds and cache info (sweep)

    def set_up(self):
        """Import latkit and build this workload's inputs; returns seconds."""
        forget_latkit()
        start = time.perf_counter()
        lk = import_latkit()
        if self.name == "sweep":
            self.module.build(self.seed, lk)
        elif self.name == "load":
            self.inputs = self.module.build(self.seed, self.workdir)
        else:
            self.inputs = self.module.build(self.seed, self.workdir, self.module.corpus_orders(lk))
        return time.perf_counter() - start

    def cycle(self, tracer=None):
        if self.name == "sweep":
            result = self.module.run_pass(self.seed, self.golden, tracer)
            if len(result.keys) != len(self.golden) or set(result.keys) != set(self.golden):
                self.gates.append("the sweep's (prop, object) keys differ from the golden sweep")
            self.extra = {"law_seconds": result.law_seconds, "cache_info": result.cache_info}
            return result.ops
        return self.module.run_cycle(self.inputs, tracer)


def run(args, workdir):
    workload = Workload(args.workload, args.seed, workdir)
    setup = []
    result = {"setup": setup}
    if args.trace:
        workload.set_up()
        # Untraced cycles on both sides of the traced one, so that a drift in
        # machine speed does not skew the tracing overhead.
        before = workload.cycle()
        extra = workload.extra
        tracer = tracing.Tracer()
        ops = workload.cycle(tracer)
        after = workload.cycle()
        result["layers"] = layer_metrics(tracer, before, after, extra, ops)
        result["tracer"] = tracer
        checked = before + ops + after
    else:
        # A set-up before every cycle, and SETUP_REPEATS at least, samples
        # set-up time across the whole run, as the ops are.  Every cycle
        # repeats the same ops in the same order.  Each set-up, like each
        # op, is followed by the reference computation.
        cycles = []
        start = time.perf_counter()
        while len(cycles) < MIN_CYCLES or time.perf_counter() - start < args.seconds:
            setup.append((workload.set_up(), reference_seconds()))
            cycles.append(workload.cycle())
        while len(setup) < SETUP_REPEATS:
            setup.append((workload.set_up(), reference_seconds()))
        ops = [op for ops in cycles for op in ops]
        result["costs"] = op_costs(cycles, workload.gates)
        result["cycles"] = len(cycles)
        checked = ops
    if args.workload == "query":
        result["known_defects"] = workload.module.run_probes(workload.inputs)
    result["ops"] = ops
    result["attempted"] = len(checked)
    result["failures"] = [(o.command, o.detail) for o in checked if not o.ok]
    result["correct"] = not result["failures"] and not workload.gates
    result["gates"] = workload.gates
    result["manifest"] = manifest(args)
    return result


# -------------------------------------------------------------------- metrics


def op_costs(cycles, gates):
    """Each op's time over the reference time measured right after it, as
    the median over the run's cycles; and each op's median time as timed."""
    commands = [op.command for op in cycles[0]]
    if any([op.command for op in ops] != commands for ops in cycles):
        gates.append("the cycles of one run did not repeat the same ops")
    slots = range(len(commands))
    costs = [statistics.median(ops[i].seconds / ops[i].ref for ops in cycles) for i in slots]
    timed = [statistics.median(ops[i].seconds for ops in cycles) for i in slots]
    return costs, timed


def end_to_end(workload, result):
    """The end-to-end metrics at the machine speed where the reference
    computation takes REFERENCE_S, and the same figures as timed.

    The shared machine's speed drifts by a quarter and more within seconds,
    and by half for minutes at a time, and that drift would swamp any change
    in latkit.  So every op, and every set-up, is followed by the fixed
    reference computation (``harness.reference_seconds``), which does not
    use latkit.  The ratio of the two times cancels the speed the machine
    had at that moment; an op's cost is the median of its ratios over the
    run's cycles, scaled by REFERENCE_S."""
    costs, timed = result["costs"]
    setup = [seconds / ref for seconds, ref in result["setup"]]
    values = summarise(workload, [c * REFERENCE_S for c in costs])
    values["setup_s"] = statistics.median(setup) * REFERENCE_S
    as_timed = summarise(workload, timed)
    as_timed["setup_s"] = statistics.median(seconds for seconds, _ in result["setup"])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["failed_ratio"] = len(result["failures"]) / result["attempted"]
    n = len(costs)
    p = TAIL_PERCENTILE[workload]
    notes = [
        "times are at the machine speed where the reference computation takes %.6g ms" % (REFERENCE_S * 1000),
        "as timed: " + ", ".join("%s %.6g" % (name, as_timed[name]) for name in sorted(as_timed)),
        "op times are each op's median over %d cycles" % result["cycles"],
        "op_p50_ms is the mean of the 40th to 60th percentile op times",
        "op_tail_ms is the mean of the %d op times from the p%d of %d up" % (n - tail_index(n, p), p, n),
        "setup_s is the median of %d set-ups" % len(result["setup"]),
    ]
    return values, notes


def tail_index(n, percentile):
    return min(n - 1, int(n * percentile / 100))


def summarise(workload, seconds):
    """ops_per_s, op_p50_ms and op_tail_ms of one cycle's op times."""
    times = sorted(seconds)
    n = len(times)
    # Op costs cluster, with gaps between clusters, and the expensive ones
    # spread thinly; means over a band of the sorted times track the median
    # and the tail without jumping from one op to the next.
    middle = times[int(n * 0.4):int(n * 0.6) + 1]
    tail = times[tail_index(n, TAIL_PERCENTILE[workload]):]
    return {
        "ops_per_s": n / sum(times),
        "op_p50_ms": statistics.mean(middle) * 1000,
        "op_tail_ms": statistics.mean(tail) * 1000,
    }


def layer_metrics(tracer, before, after, extra, traced):
    """Per-layer numbers from the traced cycle; CLI latencies and law times
    from the untraced cycles around it."""
    calls, own = tracer.summary()
    out = {}
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module, attrs in table.items():
            for attr in attrs:
                name = tracing.metric_name(module, attr)
                out[name + ".calls"] = calls[name]
                out[name + ".self_s"] = own[name]
    io_seconds = own["io.parse_blocks"] + own["io.load_workspace"]
    out["io.bytes_per_s"] = tracer.bytes_loaded / io_seconds if io_seconds else 0.0
    for command in CLI_COMMANDS:
        times = [o.seconds for o in before + after if o.command == command]
        out["cli.%s.p50_ms" % command] = statistics.median(times) * 1000 if times else 0.0
    law_seconds = extra.get("law_seconds", {})
    for prop in sorted({prop for prop, _ in sweep_workload.read_golden()}):
        out["suite.law.%s.s" % prop] = law_seconds.get(prop, 0.0)
    info = extra.get("cache_info")
    lookups = info.hits + info.misses if info else 0
    out["suite.homs_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
    out["suite.homs_cache.misses"] = info.misses if info else 0
    untraced = sum(o.seconds for o in before + after) / 2
    out["trace.overhead_ratio"] = sum(o.seconds for o in traced) / untraced
    return out


def manifest(args):
    lk = fresh_latkit()
    import latkit

    bundle = lk.suite.default_bundle()
    text = "".join(
        [lk.io.format_lattice(n, lat, bundle["orthos"].get(n)) for n, lat in bundle["lattices"].items()]
        + [lk.io.format_cspace(n, s) for n, s in bundle["cspaces"].items()]
        + [lk.io.format_ospace(n, s) for n, s in bundle["ospaces"].items()]
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "latkit_version": latkit.__version__,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "corpus_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def git_commit():
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# --------------------------------------------------------------------- output


def report(args, spec, result):
    names = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = result["layers"]
    else:
        values, notes = end_to_end(args.workload, result)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[names]}

    print("manifest %s" % json.dumps(result["manifest"], sort_keys=True))
    for name, metric in metrics.items():
        print("%-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if not args.trace:
        print("%-40s %14.6g %s" % ("failed_ratio", values["failed_ratio"], "ratio"))
        print("\n".join(notes))
    for name, status in result.get("known_defects", {}).items():
        print("known defect %s: %s" % (name, status))
    for problem in result["gates"]:
        print("FAILED GATE: %s" % problem)
    for command, detail in result["failures"][:20]:
        print("FAILED %s: %s" % (command, detail))

    stem = os.path.join(WORK, "results", "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    with open(stem + ".json", "w") as handle:
        json.dump({
            "manifest": result["manifest"],
            "metrics": values,
            "known_defects": result.get("known_defects", {}),
            "failures": result["failures"],
            "gates": result["gates"],
            "ops": [[o.command, o.seconds, o.ref] for o in result["ops"]],
        }, handle, sort_keys=True)
    if args.trace:
        result["tracer"].write(stem + "-spans.tsv")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
