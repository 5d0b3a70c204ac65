"""Running latkit from the benchmark: cold imports, in-process CLI calls, and
the record of one operation."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import sys
import time
import types
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MODULES = (
    "core", "maps", "weak", "transition", "closure", "ortho",
    "stateprop", "io", "corpus", "suite", "cli",
)


def prepare():
    """Refuse to run where the results would not measure latkit as shipped,
    then make ``import latkit`` load it from SRC."""
    if sys.flags.optimize:
        sys.exit("refusing to run under -O: it strips latkit's assert-based self-checks")
    if not os.path.isfile(os.path.join(SRC, "latkit", "__init__.py")):
        sys.exit("no latkit sources under %s" % SRC)
    # Imports are repeated for every op; cache bytecode inside the checkout so
    # each one loads compiled modules, whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = os.path.join(WORK, "pycache")
    sys.path.insert(0, SRC)


def forget_latkit():
    """Drop every latkit module object, and the garbage they leave."""
    for name in [m for m in sys.modules if m == "latkit" or m.startswith("latkit.")]:
        del sys.modules[name]
    gc.collect()


def import_latkit():
    """Import latkit from SRC and return its modules by short name."""
    modules = {name: importlib.import_module("latkit." + name) for name in MODULES}
    if not modules["core"].__file__.startswith(SRC + os.sep):
        raise RuntimeError("latkit imported from %s, not from %s" % (modules["core"].__file__, SRC))
    return types.SimpleNamespace(**modules)


def fresh_latkit():
    """Import latkit anew, so that no module-level state (such as
    ``suite._homs``) carries over from one op or pass to the next, as with a
    new ``latkit`` process."""
    forget_latkit()
    return import_latkit()


@dataclass
class Outcome:
    """What one ``cli.main`` call did."""

    code: object  # the return value, or SystemExit's code; None if it raised
    out: str
    err: str
    error: Exception | None  # an exception that escaped cli.main
    seconds: float


def call_cli(cli, argv):
    """Run ``cli.main(argv)`` in this process, timing only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except SystemExit as exc:  # argparse reports usage errors this way
            code, error = exc.code, None
        except Exception as exc:  # a latkit user would see this traceback
            code, error = None, exc
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), error, seconds)


@dataclass
class Op:
    """One timed operation and whether its output was correct."""

    command: str
    seconds: float
    ok: bool
    detail: str = ""
    ref: float = 0.0  # reference_seconds() timed right after the op


# A fixed pure-Python computation, independent of latkit, timed after every
# op to gauge how fast the shared machine is at that moment: the join table
# of the divisors of 720 under divisibility, by brute force over up-sets.
_DIVISORS = [d for d in range(1, 721) if 720 % d == 0]
_UPSETS = [frozenset(j for j, e in enumerate(_DIVISORS) if e % d == 0) for d in _DIVISORS]


def reference_seconds():
    """Time one run of the reference computation."""
    up = _UPSETS

    def size(c):
        return len(up[c])

    start = time.perf_counter()
    [[max(up[a] & up[b], key=size) for b in range(len(up))] for a in range(len(up))]
    return time.perf_counter() - start


def verdict(outcome, expected_code):
    """'' when the exit code is as expected and nothing escaped, else why not."""
    if outcome.error is not None:
        return "%s escaped cli.main: %s" % (type(outcome.error).__name__, outcome.error)
    if outcome.code != expected_code:
        return "exit code %r, expected %d: %s" % (outcome.code, expected_code, outcome.err.strip()[:200])
    return ""
