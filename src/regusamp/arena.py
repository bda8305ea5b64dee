"""Per-thread scratch buffers for the kernel blocks.

reconstruct._map_blocks evaluates every block of kernel weights inside
block(weights).  While a block is open, empty() lends the calling thread's
arena buffers, last in first out, instead of allocating: the kernel matrix,
the float temporaries of the element functions (kernel.psi,
windows.eval_window and eval_truncated, specfun.cardinal_bspline), the
sample positions and the gathered samples of a reduction all come from it,
so the same few buffers serve every block.  Everywhere else empty() is
np.empty.

A thread's arena is made on its first block and sized to the largest block
that thread has evaluated; it holds at most ARENA_BUFFERS buffers.  A buffer
lent inside frame() goes back when the frame exits, one lent directly inside
block() when the block ends.  A request that does not fit, in size or in
count, gets a new array, so a block nested in another (a reduction whose f
reconstructs) stays correct.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Most buffers one arena holds: the B-spline window, the deepest path, needs
# six at once (weights, offsets, the sinc argument and cardinal_bspline's
# three temporaries).
ARENA_BUFFERS = 7

_local = threading.local()


class _Arena:
    """One thread's buffers of ``size`` float64 values each, the first
    ``top`` of them lent out; ``open`` while a block runs."""

    def __init__(self):
        self.size = 0
        self.buffers = []
        self.top = 0
        self.open = False


def _lending():
    """The calling thread's arena while one of its blocks is open, else None."""
    arena = getattr(_local, "arena", None)
    return arena if arena is not None and arena.open else None


def empty(shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized array of the given shape: inside block(), a view of
    the calling thread's next free arena buffer, lent until the innermost
    enclosing frame() or block() exits; elsewhere a new one."""
    arena = getattr(_local, "arena", None)
    if arena is None or not arena.open or arena.top == ARENA_BUFFERS:
        return np.empty(shape, dtype)
    if arena.top == len(arena.buffers):
        arena.buffers.append(np.empty(arena.size))
    flat = arena.buffers[arena.top].view(dtype)
    count = math.prod(shape)
    if count > flat.size:
        return np.empty(shape, dtype)
    arena.top += 1
    return flat[:count].reshape(shape)


class frame:
    """``with frame():`` gives back, at exit, every arena buffer that empty()
    lent inside it; outside a block it does nothing."""

    __slots__ = ("arena", "top")

    def __enter__(self):
        self.arena = _lending()
        if self.arena is not None:
            self.top = self.arena.top

    def __exit__(self, *exc):
        if self.arena is not None:
            self.arena.top = self.top


class block(frame):
    """``with block(weights):`` lends the calling thread's arena to empty()
    for one kernel block of ``weights`` float64 values, making the arena on
    first use and growing its buffers to the block.  A block opened inside
    another one on the same thread lends on from the outer one's free
    buffers, at their size."""

    __slots__ = ("weights",)

    def __init__(self, weights: int):
        self.weights = weights

    def __enter__(self):
        arena = getattr(_local, "arena", None)
        if arena is None:
            arena = _local.arena = _Arena()
        if not arena.open:
            if self.weights > arena.size:
                arena.size = self.weights
                arena.buffers.clear()
            arena.top = 0
            arena.open = True
            self.arena = arena
            self.top = None
        else:
            super().__enter__()

    def __exit__(self, *exc):
        if self.top is None:
            self.arena.top = 0
            self.arena.open = False
        else:
            super().__exit__(*exc)
