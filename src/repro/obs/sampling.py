"""A stdlib statistical sampling profiler with flamegraph output.

The phase profiler (:mod:`repro.obs.profile`) answers "which engine
phase is hot"; this module answers "which *code* is hot" without any
instrumentation at all: a daemon thread wakes every ``interval`` seconds,
reads the profiled thread's Python stack out of ``sys._current_frames()``
and counts identical stacks.  It samples wall-clock time (blocked frames
keep getting sampled), works on any thread, and cannot interrupt the
profiled code mid-bytecode.  ``repro --profile PATH`` runs one beside the
phase profiler.  The result is written in the collapsed-stack
(``.folded``) format that standard flamegraph tooling consumes directly::

    repro/bgp/engine:simulate_prefix;repro/bgp/engine:_decide_and_export 42

(one line per distinct stack, root first, frames separated by ``;``,
the sample count last — ``flamegraph.pl stacks.folded > flame.svg`` or
any speedscope-style viewer renders it).

The sampler deliberately keeps whole stacks (bounded by ``max_depth``)
rather than leaf counts: the flamegraph's value is attribution through
call chains, e.g. how much of ``select_best`` is reached via export
re-decisions versus initial announcements.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path
from types import FrameType

DEFAULT_INTERVAL = 0.005
"""Default sampling period in seconds (200 Hz)."""


def _frame_label(frame: FrameType) -> str:
    """One collapsed-stack frame token: ``package/module:function``.

    Slashes keep the token free of the ``;`` and space separators the
    folded format reserves; the module path makes same-named functions
    (``run``, ``apply``) distinguishable in the flamegraph.
    """
    module = frame.f_globals.get("__name__", "?")
    return f"{module.replace('.', '/')}:{frame.f_code.co_name}"


def _collapse(frame: FrameType | None, max_depth: int) -> tuple[str, ...]:
    """The root-first stack of labels above (and including) ``frame``."""
    labels: list[str] = []
    while frame is not None and len(labels) < max_depth:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class StackSampler:
    """Count collapsed stacks of one thread at a fixed interval.

    Usable directly (``start()`` / ``stop()``) or as a context manager.
    ``samples`` is the total number of captures; ``stacks`` maps each
    distinct collapsed stack to its count.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL, max_depth: int = 64) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.max_depth = max_depth
        self.stacks: Counter[tuple[str, ...]] = Counter()
        self.samples = 0
        self._target_ident: int | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Begin sampling the *calling* thread."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:  # target thread exited
                return
            self.stacks[_collapse(frame, self.max_depth)] += 1
            self.samples += 1
            del frame  # drop the reference promptly; frames pin locals

    def folded_lines(self) -> list[str]:
        """The collapsed-stack lines, most-sampled stack first."""
        ordered = sorted(
            self.stacks.items(), key=lambda item: (-item[1], item[0])
        )
        return [f"{';'.join(stack)} {count}" for stack, count in ordered]

    def write_folded(self, path: str | Path) -> int:
        """Write the ``.folded`` file; returns the number of lines."""
        lines = self.folded_lines()
        Path(path).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="ascii"
        )
        return len(lines)

    def summary(self, folded_path: str | Path | None = None) -> dict:
        """The ``sampling`` section of a PROFILE.json document.

        ``mode`` is always ``thread`` (wall-clock sampling); it is part
        of the layout ``PROFILE_SCHEMA`` fixes.
        """
        return {
            "mode": "thread",
            "interval_seconds": self.interval,
            "samples": self.samples,
            "distinct_stacks": len(self.stacks),
            "folded": str(folded_path) if folded_path is not None else None,
        }
