"""Outside-in span tracer: wraps solsurf functions without editing them.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent).  Spans are kept in
compact arrays in memory and saved once, when the traced process ends;
`summarize` turns them into per-name calls, inclusive time and self time.

solsurf modules bind names with ``from .matlie import commutator``, so a
function is patched at every ``solsurf.*`` module attribute that holds
it, not only in its home module.  Methods are patched on their class.
`restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # per-name counts taken at the call boundary (bytes, matrices, ...)
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, before: Hook | None = None,
             after: Hook | None = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``before(args, kwargs, None)`` runs before the span opens and
        ``after(args, kwargs, result)`` after it closes, so hook work is
        not charged to ``name``.
        """
        nid = self._id(name)
        clock, stack = self.clock, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs, None)
            i = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --- patching -------------------------------------------------------

    def patch_function(self, module: str, attr: str, name: str,
                       before: Hook | None = None, after: Hook | None = None) -> int:
        """Wrap ``module.attr`` at every loaded solsurf module that binds it.

        Returns the number of bindings replaced.
        """
        original = getattr(sys.modules[module], attr)
        wrapped = self.wrap(name, original, before, after)
        count = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "solsurf" or modname.startswith("solsurf.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapped)
                    count += 1
        return count

    def patch_method(self, cls: type, attr: str, name: str,
                     before: Hook | None = None, after: Hook | None = None) -> None:
        self.replace(cls, attr, self.wrap(name, vars(cls)[attr], before, after))

    def patch_mapping(self, mapping: dict, key: str, name: str) -> None:
        """Wrap a function stored in a dict (a dispatch table)."""
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(name, original)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Bind ``owner.attr`` to ``value`` until `restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every binding replaced by a patch_* call, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # --- output ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans as ``.npz``: names plus the four span arrays."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def load(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    with np.load(path) as data:
        return [str(n) for n in data["names"]], {k: data[k] for k in ("name_id", "parent", "start", "end")}


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per-name ``calls``, inclusive ``total_s``, ``self_s`` and call durations.

    A span's self time is its duration minus the durations of its direct
    children; single-threaded spans nest properly, so children never
    overlap each other.  ``total_s`` counts a name's time once even where
    its spans nest inside each other (recursion).
    """
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    n = len(dur)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time[:n]
    out: dict[str, dict] = {}
    for nid, name in enumerate(names):
        mask = name_id == nid
        idx = np.flatnonzero(mask)
        d = dur[idx]
        total = 0.0
        if len(idx):
            st, en = spans["start"][idx], spans["end"][idx]
            reach = np.maximum.accumulate(en)
            outer = np.ones(len(idx), dtype=bool)
            outer[1:] = st[1:] >= reach[:-1]
            total = float(d[outer].sum())
        out[name] = {
            "calls": int(len(idx)),
            "total_s": total,
            "self_s": float(self_time[idx].sum()),
            "durations": d,
        }
    return out
