"""Spans around calls into latkit, installed from the benchmark's side.

``Tracer.install`` replaces each listed function in every latkit module that
binds it (``suite``, ``weak`` and ``cli`` use ``from .maps import ...``), and
each listed method on its class.  Nothing under ``src/`` changes.  The
order-table lookups ``leq``, ``join2`` and ``meet2`` are never wrapped.  Spans
stay in memory until the run writes them out; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Functions and methods that get a span (name, start, end, parent, op).
SPANNED = {
    "core": ["lattice_from_poset", "upper_extension", "lower_interval", "sublattice_on",
             "LatticeMap.is_isotone"],
    "maps": ["hom_set", "right_adjoint", "left_adjoint", "check_adjunction",
             "preservation_profile", "compose"],
    "weak": ["UpperMap.__init__", "PartialJoinMap.__init__", "partial_to_upper",
             "pointed_extend", "restrict_codomain", "compose_partial"],
    "transition": ["coherence_check", "hom_count", "all_union_maps"],
    "closure": ["fixed_points", "lattice_roundtrip", "boolean_duality"],
    "ortho": ["dagger", "lattice_isomorphic_with_ortho"],
    "stateprop": ["build_system"],
    "io": ["parse_blocks", "load_workspace"],
    "corpus": ["named_lattices"],
    "cli": ["main"],
}
# Called too often for a span each: counted only.
COUNTED = {"core": ["FiniteLattice.__eq__", "FiniteLattice.__hash__"]}


def metric_name(module, attr):
    return "%s.%s" % (module, attr.replace("__", ""))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op index]
        self.stack = []
        self.counts = Counter()
        self.bytes_loaded = 0  # text handed to io.load_workspace
        self.op = 0

    def install(self, lk):
        """Wrap the listed functions of the freshly imported modules ``lk``."""
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for module, attrs in table.items():
                mod = getattr(lk, module)
                for attr in attrs:
                    name = metric_name(module, attr)
                    if "." in attr:
                        cls_name, method = attr.split(".")
                        cls = getattr(mod, cls_name)
                        setattr(cls, method, make(name, cls.__dict__[method]))
                    else:
                        _rebind(getattr(mod, attr), make(name, getattr(mod, attr)))

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        measure_bytes = name == "io.load_workspace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if measure_bytes:
                texts = args[0] if args else kwargs["texts"]
                self.bytes_loaded += len(texts) if isinstance(texts, str) else sum(map(len, texts))
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def summary(self):
        """name -> calls and name -> self seconds over all spans."""
        calls = Counter(self.counts)
        own = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return calls, own

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for record in self.spans:
                handle.write("%s\t%.9f\t%.9f\t%d\t%d\n" % tuple(record))


def _rebind(original, wrapper):
    """Point every latkit module's binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "latkit" or name.startswith("latkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
