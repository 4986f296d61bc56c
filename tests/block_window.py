"""The vectorized engine's block cap, set for the length of a run.

:class:`~repro.core.vector_execution.VectorizedExecutor` takes no window
option: each trial reads :data:`repro.core.vector_execution.
DEFAULT_BLOCK_SIZE` as it starts.  Tests that push runs across many block
boundaries patch that constant around the run with :func:`block_window`.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import ContextManager, Optional
from unittest import mock

from repro.core import vector_execution


def block_window(size: Optional[int]) -> ContextManager[object]:
    """Cap the engine's blocks at ``size`` interactions (None: the default)."""
    if size is None:
        return nullcontext()
    return mock.patch.object(vector_execution, "DEFAULT_BLOCK_SIZE", size)
