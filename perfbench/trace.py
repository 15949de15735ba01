"""Per-layer tracing, installed from the benchmark's own code at run time.

``Tracer.installed()`` replaces each traced function with a wrapper in every
``iimaid`` module namespace that binds it (``incomplete``, ``iiefg`` and
``depth`` import by name), and restores the originals on exit.  A wrapper
records a span (name, start, end, parent span) in memory, the call count,
the exceptions passing through, and self time: the span's duration minus
the time its child spans cover.  A few layers add a work count taken from
the call's arguments or result.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from iimaid import gamedoc, maid

# Traced functions, as (module, function).  Each layer is a module of the
# library; scipy's linprog is traced as the solver under check_consistency.
TRACED = [
    ("bn", "marginal"), ("bn", "topo_sort"), ("bn", "ancestral_sample"),
    ("maid", "expected_utilities"), ("maid", "best_response"), ("maid", "is_nash"),
    ("maid", "find_pure_nash"),
    ("efg", "maid2efg"), ("efg", "efg_expected_utility"), ("efg", "info_sets"),
    ("incomplete", "model_information_sets"), ("incomplete", "profile_rules_for_model"),
    ("incomplete", "subjective_expected_utility"), ("incomplete", "best_response_ii"),
    ("incomplete", "is_nash_ii"), ("incomplete", "find_nash_ii"),
    ("incomplete", "check_consistency"),
    ("iiefg", "maid2efgII"), ("iiefg", "verify_equivalence"), ("iiefg", "interim_utility"),
    ("iiefg", "strategy_from_ii_policy"), ("iiefg", "belief_types"),
    ("depth", "recursive_best_response"), ("depth", "conditional_utility"),
    ("depth", "final_decision_assignment"), ("depth", "classify_depth"),
    ("gamedoc", "parse_document"), ("gamedoc", "serialize_document"),
    ("cli", "run"), ("simulate", "simulate"),
]
# Generators are counted by the items they yield; they get no span, because
# their time interleaves with their consumer's.
GENERATORS = [("bn", "enumerate_support")]

# The per-layer metrics, with their units, are the ``per_layer`` list of
# BENCHMARK.json; NOTES.md maps each to the end-to-end metric it should move.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int]] = []
        self.names: list[str] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        # (index of the open span, time its children have covered so far)
        self._stack: list[list] = []
        self._open: Counter = Counter()
        # id(original function) -> (original, wrapper), built on first install
        self._wrappers: dict[int, tuple] = {}

    # ----------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            self._open[name] += 1
            self.calls[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self._open[name] -= 1
                self.self_s[name] += end - start - frame[1]
                self.spans[index] = (name_id, start, end, parent)
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                # work counts are taken outside the span and excluded from
                # the parent's self time
                t = time.perf_counter()
                after(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += time.perf_counter() - t
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            for item in fn(*args, **kwargs):
                self.work[f"{name}.yielded"] += 1
                yield item

        return wrapper

    def _build_wrappers(self) -> None:
        import scipy.optimize  # noqa: F401  (linprog is read from sys.modules)

        targets = [(f"iimaid.{mod}", fn, f"{mod}.{fn}", self._wrap) for mod, fn in TRACED]
        targets += [(f"iimaid.{mod}", fn, f"{mod}.{fn}", self._wrap_generator)
                    for mod, fn in GENERATORS]
        targets.append(("scipy.optimize", "linprog", "scipy.linprog", self._wrap))
        for module, fn, name, wrap in targets:
            original = getattr(sys.modules[module], fn)
            self._wrappers[id(original)] = (original, wrap(name, original))

    @contextmanager
    def installed(self):
        """Swap every binding of a traced function for its wrapper, and back."""
        if not self._wrappers:
            self._build_wrappers()
        wrapped = {key: w for key, (_, w) in self._wrappers.items()}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "iimaid" or n.startswith("iimaid.")]
        namespaces.append(sys.modules["scipy.optimize"])
        replaced = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    setattr(ns, attr, wrapped[id(value)])
                    replaced.append((ns, attr, value))
                # a default argument binds a function too (depth's value_fn)
                defaults = getattr(value, "__defaults__", None) or ()
                if any(id(d) in wrapped for d in defaults):
                    replaced.append((value, "__defaults__", defaults))
                    value.__defaults__ = tuple(wrapped.get(id(d), d) for d in defaults)
        try:
            yield self
        finally:
            for ns, attr, original in reversed(replaced):
                setattr(ns, attr, original)

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    # ----------------------------------------------------------- results

    def metrics(self) -> dict:
        """Every per-layer metric of BENCHMARK.json as (value, unit); metrics
        measured outside the traced process read 0 here."""
        out = {}
        for entry in json.loads(BENCHMARK.read_text("utf-8"))["per_layer"]:
            key, unit = entry["name"], entry["unit"]
            if key.endswith(".calls"):
                value = self.calls[key[: -len(".calls")]]
            elif key.endswith(".self_s"):
                value = self.self_s[key[: -len(".self_s")]]
            elif key.endswith(".errors"):
                value = self.errors[key[: -len(".errors")]]
            else:
                value = self.work[key]
            out[key] = (value, unit)
        hits = self.work["maid.find_pure_nash.hits"]
        out["maid.find_pure_nash.hit_ratio"] = (
            hits / self.work["maid.find_pure_nash.profiles"] if hits else 0.0, "ratio")
        found = self.work["incomplete.find_nash_ii.hits"]
        out["incomplete.find_nash_ii.profiles_per_hit"] = (
            self.work["incomplete.find_nash_ii.profiles"] / found if found else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _best_response_policies(t, args, kwargs, result):
    model, agent = args[0], args[2]
    t.work["maid.best_response.policies"] += maid.count_pure_policies(
        model, maid.free_decisions(model, agent))


def _find_pure_nash(t, args, kwargs, result):
    model = args[0]
    t.work["maid.find_pure_nash.hits"] += len(result)
    t.work["maid.find_pure_nash.profiles"] += maid.count_pure_policies(
        model, maid.free_decisions(model))


def _is_nash_ii(t, args, kwargs, result):
    if t.inside("incomplete.find_nash_ii"):
        t.work["incomplete.find_nash_ii.profiles"] += 1


def _find_nash_ii(t, args, kwargs, result):
    t.work["incomplete.find_nash_ii.hits"] += result is not None


def _strategy_from_ii_policy(t, args, kwargs, result):
    if t.inside("iiefg.verify_equivalence"):
        t.work["iiefg.verify_equivalence.profiles"] += 1


_AFTER = {
    "maid.best_response": _best_response_policies,
    "maid.find_pure_nash": _find_pure_nash,
    "incomplete.is_nash_ii": _is_nash_ii,
    "incomplete.find_nash_ii": _find_nash_ii,
    "iiefg.strategy_from_ii_policy": _strategy_from_ii_policy,
    "efg.maid2efg": lambda t, a, k, r: t.work.update({"efg.maid2efg.nodes": len(r[0].nodes)}),
    "depth.recursive_best_response":
        lambda t, a, k, r: t.work.update({"depth.trace_steps": len(r.trace)}),
    "gamedoc.parse_document":
        lambda t, a, k, r: t.work.update({"gamedoc.parse_document.bytes": len(a[0].encode())}),
    "gamedoc.serialize_document":
        lambda t, a, k, r: t.work.update({"gamedoc.serialize_document.bytes": len(r.encode())}),
}


def reparse(text: str) -> None:
    """The gamedoc half of set-up, repeated under tracing."""
    gamedoc.serialize_document(gamedoc.parse_document(text).value)
