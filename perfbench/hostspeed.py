"""Host-speed probe: a fixed reference kernel sampled while a pass runs.

On a shared host (measured on a 2-vCPU Xeon) a core's speed moves between
two states about 1.6x apart, and a state lasts from a second to a minute.
A run of 25 s can sit in one state, so the raw median pass time of two
runs of the same code can differ by 40%.

The probe times a small reference kernel every ``PERIOD_S`` seconds while
a pass runs, from a SIGALRM handler, so its samples see the same host
states as the pass.  A pass's wall time divided by the mean sample is the
pass time in reference-kernel units (``wall_ref``): it moves with the
program's speed and much less with the host's.  The kernel mixes the three
kinds of work the package does: vectorised special functions, sparse LU
solves and interpreted Python.  It uses numpy and scipy only, never the
package, so a change to the program cannot change the yardstick.

Python runs the handler in the main thread between bytecodes, so it never
interrupts the package inside native code, and the kernel touches no state
the pass reads.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special

PERIOD_S = 0.1
_GRID_POINTS = 4000
_LAPLACE_SIDE = 40
_SOLVES = 3
_LOOP = 4000


class HostProbe:
    """Reference kernel (about 2.5 ms) and a sampler that runs it on a timer."""

    def __init__(self):
        self._grid = np.linspace(0.1, 400.0, _GRID_POINTS)
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_LAPLACE_SIDE,) * 2)
        eye = sp.eye(_LAPLACE_SIDE)
        self._lu = spla.splu((sp.kron(t, eye) + sp.kron(eye, t)).tocsc())
        self._rhs = np.ones(_LAPLACE_SIDE**2)

    def kernel(self) -> float:
        """Run the reference kernel once; seconds it took."""
        start = time.perf_counter()
        scipy.special.jv(2.5, self._grid)
        for _ in range(_SOLVES):
            self._lu.solve(self._rhs)
        acc = 0
        for i in range(_LOOP):
            acc += i * i % 7
        return time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every PERIOD_S inside the block.

        Yields a ``Samples`` whose ``times`` holds one sample taken before
        the block and one per timer tick, and whose ``spent`` is the wall
        time the ticks took from the block, handler included.
        """
        samples = Samples([self.kernel()])

        def tick(signum, frame):
            start = time.perf_counter()
            samples.times.append(self.kernel())
            samples.spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Samples:
    """Kernel times sampled during one block, and the wall time they took."""

    times: list[float] = field(default_factory=list)
    spent: float = 0.0

    def mean(self) -> float:
        return sum(self.times) / len(self.times)
