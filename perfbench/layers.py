"""Outside-in layer trace: timed wrappers around each layer's entry points.

The program already records ``sweep.cell``, ``engine.lockstep`` and
``engine.committed_draws`` spans.  :class:`LayerTrace` adds one span per
call into the public entry point of every other layer of a cell, plus the
work counts of that call, into the same
:class:`repro.obs.RecordingCollector`.  Nothing under ``src/`` changes:
the wrappers are installed on the module, class or kernel attribute the
program looks up at call time, and removed afterwards.

Busy time is *self* time: a wrapped call nested in another wrapped call
is subtracted from its parent, so the leaf layers never count an interval
twice and their sum over the run's wall time is the trace's coverage.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.adversaries.committed import CommittedBlockAdversary
from repro.algorithms.kernels import KERNELS
from repro.campaign.store import CampaignStore
from repro.obs import RecordingCollector, now, use_collector
from repro.ratio import kernels as ratio_kernels
from repro.sim import batch
from repro.sim.metrics import TrialMetrics

#: Layers whose busy times never overlap; their sum over the traced wall
#: time is the coverage.  ``engine.walk`` is the lockstep's own time once
#: its draws and decisions are taken out.  What no leaf covers is mostly
#: the teardown of each cell's adversaries and buffers when it returns.
LEAVES = (
    "prepare.derive",
    "prepare.adversary",
    "prepare.knowledge",
    "kernels.prepare",
    "draws",
    "kernels.decide",
    "engine.walk",
    "ratio.opt",
    "metrics.assemble",
    "store.write",
    "store.verify",
)

_MISSING = object()
CountHook = Callable[[tuple, Any], None]


class LayerTrace:
    """Self-time and work counters of every wrapped layer entry point."""

    def __init__(self) -> None:
        self.collector = RecordingCollector()
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # One slot per wrapped call in progress: time spent in wrapped
        # calls nested inside it.
        self._nested: List[float] = []

    def _wrap(
        self, name: str, function: Callable, count: Optional[CountHook] = None
    ) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            self._nested.append(0.0)
            start = now()
            try:
                result = function(*args, **kwargs)
            finally:
                end = now()
                elapsed = end - start
                self.busy[name] += elapsed - self._nested.pop()
                if self._nested:
                    self._nested[-1] += elapsed
                self.calls[name] += 1
                self.collector.add_span(name, start, end)
            if count is not None:
                count(args, result)
            return result

        return timed

    @contextmanager
    def recording(self) -> Iterator[RecordingCollector]:
        """Install the wrappers and the collector for the duration of a run."""
        with ExitStack() as stack:

            def patch(owner: Any, attr: str, name: str,
                      count: Optional[CountHook] = None,
                      static: bool = False) -> None:
                saved = vars(owner).get(attr, _MISSING)
                timed = self._wrap(name, getattr(owner, attr), count)
                setattr(owner, attr, staticmethod(timed) if static else timed)
                stack.callback(_restore, owner, attr, saved)

            patch(batch, "derive_sweep_trial", "prepare.derive")
            patch(batch, "build_trial_adversary", "prepare.adversary")
            patch(batch, "build_knowledge_for_random_run", "prepare.knowledge")
            patch(CommittedBlockAdversary, "committed_index_matrix", "draws",
                  self._count_draws, static=True)
            for kernel in KERNELS.values():
                patch(kernel, "prepare", "kernels.prepare")
                patch(kernel, "decide_block", "kernels.decide",
                      self._count_decisions)
            patch(ratio_kernels, "opt_end_matrix", "ratio.opt", self._count_opt)
            patch(TrialMetrics, "from_result", "metrics.assemble", static=True)
            patch(CampaignStore, "write_cell", "store.write", self._count_bytes)
            patch(CampaignStore, "verify", "store.verify")
            stack.enter_context(use_collector(self.collector))
            yield self.collector

    # -- work counts ------------------------------------------------------ #
    def _count_draws(self, args: tuple, result: Any) -> None:
        self.counts["draws.interactions"] += int(result[2].sum())

    def _count_decisions(self, args: tuple, result: Any) -> None:
        self.counts["kernels.decide.interactions"] += len(args[1])

    def _count_opt(self, args: tuple, ends: Any) -> None:
        lengths = np.asarray(args[2], dtype=np.int64)
        # A row with no convergecast in its window needed all of it.
        needed = np.where(np.isfinite(ends), ends + 1, lengths)
        self.counts["ratio.opt.swept_interactions"] += int(lengths.sum())
        self.counts["ratio.opt.needed_interactions"] += int(needed.sum())

    def _count_bytes(self, args: tuple, result: Any) -> None:
        store, cell = args[0], args[1]
        self.counts["store.write.bytes"] += (
            store.shard_path(cell.key).stat().st_size
            + store.manifest_path.stat().st_size
        )

    # -- per-layer metrics ------------------------------------------------ #
    def _program_span_seconds(self, name: str) -> float:
        return sum(s.duration for s in self.collector.spans if s.name == name)

    def metrics(self, wall_s: float, transmissions: int) -> Dict[str, float]:
        """The per-layer metrics of one traced run of ``wall_s`` seconds."""
        lockstep = self._program_span_seconds("engine.lockstep")
        lockstep_draws = self._program_span_seconds("engine.committed_draws")
        walked = int(sum(
            c.value for c in self.collector.counters
            if c.name == "engine.candidates_walked"
        ))
        busy = dict(self.busy)
        busy["engine.walk"] = (
            lockstep - lockstep_draws - busy.get("kernels.decide", 0.0)
        )
        draws = self.counts["draws.interactions"]
        swept = self.counts["ratio.opt.swept_interactions"]
        values: Dict[str, float] = {
            f"{layer}.busy_s": busy.get(layer, 0.0) for layer in LEAVES
        }
        values.update({
            "prepare.adversary.calls": self.calls["prepare.adversary"],
            "draws.interactions": draws,
            "draws.ns_per_interaction": (
                busy.get("draws", 0.0) / draws * 1e9 if draws else 0.0
            ),
            "kernels.decide.interactions": (
                self.counts["kernels.decide.interactions"]
            ),
            "engine.lockstep.busy_s": lockstep,
            "engine.candidates_walked": walked,
            "engine.useful_frac": transmissions / walked if walked else 0.0,
            "ratio.opt.swept_interactions": swept,
            "ratio.opt.needed_frac": (
                self.counts["ratio.opt.needed_interactions"] / swept
                if swept else 0.0
            ),
            "store.write.bytes": self.counts["store.write.bytes"],
            "trace.coverage_frac": (
                sum(busy.get(layer, 0.0) for layer in LEAVES) / wall_s
            ),
        })
        return values


def _restore(owner: Any, attr: str, saved: Any) -> None:
    if saved is _MISSING:
        delattr(owner, attr)
    else:
        setattr(owner, attr, saved)
