"""Layer tracing for the traced benchmark run (``--trace 1``).

Every public function of every msskit module is wrapped, in every module
namespace that holds a reference to it (``msskit.generators`` calls
``is_mss_structured`` through its own binding, for instance), and so is
each ``selftest.SUITES`` entry.  A wrapper records one span: the function,
its start and end, and the span that was open when it was called.  Spans
stay in flat arrays in memory; self times and the per-layer metrics are
computed from them after the pass, and the spans are written out then.

Counts that explain a layer's work are taken at the same boundaries from
the wrapped calls' arguments and results: verdicts and failing rules of
the structured test, candidates the generator tested, primary outcomes of
factoring, and iterations, residuals and failures of ``locate``.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter

import msskit

MODULES = ["sequences", "structure", "generators", "composition",
           "counting", "locator", "cli", "selftest"]

# Metric group -> functions (module.name) whose spans it sums.
GROUPS = {
    "sequences.parse": ["sequences.as_sequence", "sequences.parse_sequence",
                        "sequences.expand_exponents"],
    "sequences.cmp": ["sequences.parity_lex_cmp"],
    "sequences.shiftmax": ["sequences.is_shift_maximal", "sequences.is_shift_maximal_signs"],
    "structure.decompose": ["structure.block_decompose"],
    "structure.test": ["structure.is_mss_structured"],
    "generators.enumerate": ["generators.enumerate_mss_structured"],
    "generators.bruteforce": ["generators.enumerate_mss_bruteforce"],
    "composition.factor": ["composition.factor_once", "composition.factor_all",
                           "composition.factor_tree", "composition.is_primary"],
    "composition.compose": ["composition.compose"],
    "counting.formula": ["counting.count_nonprimary_single_group", "counting.count_blocks",
                         "counting.count_nonprimary_cores", "counting.divisor_set",
                         "counting.proper_divisors"],
    "counting.enumerated": ["counting.enumerated_single_group_nonprimary",
                            "counting.enumerated_core_factors"],
    "locator.locate": ["locator.locate"],
}
RULES = ["run-bound", "head-exponent", "empty-tail-block", "block-order", "exponent-parity"]
SUITES = ["oracle", "construction", "counting", "roundtrip"]


def _public_functions(module):
    for name, fn in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    """Wraps msskit's public functions and keeps their spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.residual_max = 0.0
        self._observers = {
            "structure.is_mss_structured": self._on_test,
            "generators.enumerate_mss_bruteforce": self._on_bruteforce,
            "composition.factor_once": self._on_factor,
            "locator.locate": self._on_locate,
        }

    def install(self) -> None:
        wrapped = {}
        for mod in MODULES:
            module = getattr(msskit, mod)
            for name, fn in _public_functions(module):
                wrapped[fn] = self._wrap(fn, f"{mod}.{name}")
        for module in [msskit] + [getattr(msskit, mod) for mod in MODULES]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, name, wrapped[value])
        suites = msskit.selftest.SUITES
        for name, fn in list(suites.items()):
            suites[name] = self._wrap(fn, f"selftest.{name}")

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        fids, parents, starts, ends, stack = (
            self.fids, self.parents, self.starts, self.ends, self.stack)
        observe = self._observers.get(qualname)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            out = None
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                out = exc
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                if observe is not None:
                    observe(i, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ observers

    def _parent_name(self, i: int) -> str:
        parent = self.parents[i]
        return self.names[self.fids[parent]] if parent >= 0 else ""

    def _on_test(self, i, args, verdict):
        if not isinstance(verdict, msskit.StructuredVerdict):
            return
        self.counts["test.accepted"] += verdict.is_mss
        if not verdict.is_mss:
            self.counts[f"reject.{verdict.failing_rule}"] += 1
        if self._parent_name(i) == "generators.enumerate_mss_structured":
            self.counts["candidates"] += 1
            self.counts["candidates.accepted"] += verdict.is_mss

    def _on_bruteforce(self, i, args, out):
        self.counts["bruteforce.candidates"] += 2 ** (args[0] - 2)

    def _on_factor(self, i, args, split):
        if not isinstance(split, Exception):
            self.counts["factor.primary"] += split is None
            self.counts["factor.outcomes"] += 1

    def _on_locate(self, i, args, found):
        if isinstance(found, msskit.LocateError):
            self.counts["locate.failures"] += 1
        elif isinstance(found, msskit.LocatedSequence):
            self.counts["locate.found"] += 1
            self.counts["locate.iterations"] += found.iterations
            self.residual_max = max(self.residual_max, found.residual)

    # -------------------------------------------------------------- results

    def layer_metrics(self, output_bytes: int) -> dict:
        """Per-layer metrics of everything recorded so far."""
        n_fn = len(self.names)
        calls = [0] * n_fn
        total = [0.0] * n_fn
        own = [0.0] * n_fn
        child = [0.0] * len(self.fids)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        for i in range(len(fids) - 1, -1, -1):
            dur = ends[i] - starts[i]
            if parents[i] >= 0:
                child[parents[i]] += dur
            fid = fids[i]
            calls[fid] += 1
            total[fid] += dur
            own[fid] += dur - child[i]
        index = {name: fid for fid, name in enumerate(self.names)}

        def group(names, values):
            return sum(values[index[n]] for n in names if n in index)

        m = {}
        for key, names in GROUPS.items():
            m[f"{key}.calls"] = group(names, calls)
            m[f"{key}.self_s"] = group(names, own)
        for mod in MODULES:
            m[f"{mod}.self_s"] = sum(own[f] for f, n in enumerate(self.names)
                                     if n.split(".")[0] == mod)
        for suite in SUITES:
            m[f"selftest.{suite}.s"] = group([f"selftest.{suite}"], total)
        c = self.counts
        tests = m["structure.test.calls"]
        m["structure.test.accept_ratio"] = c["test.accepted"] / tests if tests else 0.0
        for rule in RULES:
            m[f"structure.reject.{rule}"] = c[f"reject.{rule}"]
        m["generators.candidates"] = c["candidates"]
        m["generators.yield_ratio"] = (
            c["candidates.accepted"] / c["candidates"] if c["candidates"] else 0.0)
        m["generators.bruteforce.candidates"] = c["bruteforce.candidates"]
        m["composition.primary_ratio"] = (
            c["factor.primary"] / c["factor.outcomes"] if c["factor.outcomes"] else 0.0)
        m["locator.iterations"] = c["locate.iterations"]
        m["locator.iterations_per_call"] = (
            c["locate.iterations"] / c["locate.found"] if c["locate.found"] else 0.0)
        m["locator.failures"] = c["locate.failures"]
        m["locator.residual_max"] = self.residual_max
        m["cli.output_bytes"] = output_bytes
        return m

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as f:
            header = {"names": self.names, "spans": len(self.fids),
                      "arrays": ["fid:i", "parent:i", "start:d", "end:d"]}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fids, self.parents, self.starts, self.ends):
                arr.tofile(f)
