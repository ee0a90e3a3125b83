"""A fixed reference job that measures how fast the host runs right now.

On a shared host the speed a process gets swings by up to 2x in stretches
that last from a few seconds to over a minute, so a bare wall time of one
run says as much about the neighbours as about ovc.  The reference is a
sparse elimination over dict rows of Python integers modulo 3^20, the kind of
work ovc's assembly and SNF do, written here so that no change to ovc can
change it.  In probes it slowed down in step with the workloads (within about
10%), while a plain arithmetic loop slowed down less.

``Meter`` runs the reference between cases and scales engine time to a host
on which one reference run takes ``REF_SECONDS``.  This module must not
import ovc: it also times the set-up, which includes importing ovc.
"""

from __future__ import annotations

import random
import time

MODULUS = 3 ** 20
SIZE = 90                   # rows and columns of the reference matrix
REF_SECONDS = 0.02          # one reference run on an uncontended host
EVERY_S = 0.3               # engine seconds between two reference runs


def eliminate(size: int = SIZE) -> int:
    """Row-reduce a fixed sparse size x size matrix modulo 3^20 with unit
    pivots; returns the number of nonzeros left, so the work is checkable."""
    rng = random.Random(20)
    rows = [{j: rng.randrange(1, MODULUS) for j in rng.sample(range(size), 6)}
            for _ in range(size)]
    for k in range(size):
        piv = next((r for r in range(k, size) if rows[r].get(k, 0) % 3), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        prow = rows[k]
        inv = pow(prow[k], -1, MODULUS)
        for r in range(k + 1, size):
            row = rows[r]
            if k in row:
                f = row[k] * inv % MODULUS
                for j, v in prow.items():
                    x = (row.get(j, 0) - f * v) % MODULUS
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
    return sum(map(len, rows))


def reference_seconds() -> float:
    t0 = time.perf_counter()
    eliminate()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference runs that took ``before``
    and ``after`` seconds, scaled to a host where one takes REF_SECONDS."""
    return seconds * 2 * REF_SECONDS / (before + after)


class Meter:
    """Scales engine seconds to a host of fixed speed.

    Engine time is cut into stretches of at least ``every`` seconds; a
    reference run closes each stretch, and the stretch is scaled by
    ``REF_SECONDS`` over the mean of the reference runs on either side."""

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self._pending = 0.0
        self._scaled = 0.0
        self._last = reference_seconds()
        self.samples = [self._last]         # every reference run's seconds

    def add(self, seconds: float):
        self._pending += seconds
        if self._pending >= self.every:
            self._close()

    def _close(self):
        ref = reference_seconds()
        self._scaled += scaled(self._pending, self._last, ref)
        self._last, self._pending = ref, 0.0
        self.samples.append(ref)

    def take(self) -> float:
        """Scaled seconds added since the last call."""
        if self._pending:
            self._close()
        out, self._scaled = self._scaled, 0.0
        return out
