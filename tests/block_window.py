"""The vectorized engine's block caps, set for the length of a run.

:class:`~repro.core.vector_execution.VectorizedExecutor` takes no window
option: each trial reads :data:`repro.core.vector_execution.
DEFAULT_BLOCK_SIZE` as it starts.  That constant is a dense kernel's cap,
and a sparse kernel's cap is four times it.  Tests that push runs across
many block boundaries patch the constant around the run with
:func:`block_window`: the one patch sets the dense cap and, through it,
the sparse one.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import ContextManager, Optional
from unittest import mock

from repro.core import vector_execution


def block_window(size: Optional[int]) -> ContextManager[object]:
    """Cap a dense kernel's blocks at ``size`` interactions, and a sparse
    kernel's at ``4 * size`` (None: the defaults)."""
    if size is None:
        return nullcontext()
    return mock.patch.object(vector_execution, "DEFAULT_BLOCK_SIZE", size)
