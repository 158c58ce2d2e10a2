"""In-memory spans around the program's public entry points.

A `Tracer` replaces a function or method with a wrapper that records a span
(name, start, end, parent, item id and a few attributes) and calls the
original.  Spans stay in memory and are written out once, when the traced
process ends.  A target that no longer exists in the program is reported as
absent instead of failing the run, so a stage that a later version renames or
removes leaves its metrics at zero and its name in the absent list.

Times come from `time.monotonic`, a clock shared by all processes on Linux,
so spans written by the verifier and by its solver line up.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str
    attr: str                      # "function" or "Class.method"
    span: str
    before: Callable | None = None  # (args, kwargs) -> state
    after: Callable | None = None   # (args, kwargs, result, state) -> attrs
    recursive: bool = False         # record the outermost call only


class Tracer:
    def __init__(self, item: str):
        self.item = item
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "item": self.item, "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.monotonic(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict):
        span["end"] = time.monotonic()
        self._open.pop()

    def mark(self, name: str, **attrs):
        """A zero-length span, for a point in time or a final count."""
        self._end(self._begin(name))
        self.spans[-1]["attrs"].update(attrs)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def install(self, targets: list[Target]):
        for target in targets:
            owner, attr = self._resolve(target)
            if owner is None:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(target, owner, attr, original)
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # rebind names imported with `from module import name`
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "solverify":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    @staticmethod
    def _resolve(target: Target):
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None, None
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if not callable(getattr(owner, attr, None)):
            return None, None
        return owner, attr

    def _wrapper(self, target: Target, owner, attr: str, original: Callable):
        tracer = self

        def hook(fn, *hook_args):
            # a hook that no longer fits the program loses its attributes,
            # never the traced run
            try:
                return fn(*hook_args)
            except Exception as exc:
                return {"hook_error": repr(exc)}

        def wrapper(*args, **kwargs):
            state = hook(target.before, args, kwargs) if target.before else None
            span = tracer._begin(target.span)
            if target.recursive:
                # inner calls go straight to the original, adding no frames
                setattr(owner, attr, original)
            try:
                result = original(*args, **kwargs)
            finally:
                if target.recursive:
                    setattr(owner, attr, wrapper)
                tracer._end(span)
            if target.after:
                span["attrs"].update(hook(target.after, args, kwargs, result, state))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def load(path: str) -> tuple[list[dict], list[str]]:
    """Spans and absent targets from a dump; nothing if the process died
    before writing one."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return [], []
    return doc["spans"], doc["absent"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.  Children
    of one span run one after another, so their durations add up."""
    own = {s["id"]: s["end"] - s["start"] for s in spans if s["end"] is not None}
    for s in spans:
        parent = s["parent"]
        if parent is not None and s["id"] in own and parent in own:
            own[parent] -= s["end"] - s["start"]
    return own
