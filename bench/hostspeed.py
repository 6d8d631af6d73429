"""How fast the shared host runs right now, from a fixed pure-Python kernel.

The benchmark's cores are shared with other tenants.  Their load comes and
goes within seconds and can stay high for minutes, and it slows every
command by up to about 1.8x, so wall seconds of the same code differ more
between runs than the regressions the benchmark must catch.  The benchmark
therefore times :func:`kernel` right before every command and every set-up,
and scales the run's times by ``REFERENCE_S / median(kernel seconds)``:
times are reported as they would be on a host where the kernel takes
``REFERENCE_S`` seconds.  On a quiet 2-core Xeon VM the kernel takes about
that long, so the scaled figures stay close to wall seconds there.

The kernel shares no code with ``kcir`` and must not change, or figures
measured before and after the change stop being comparable.  It does the
kind of work ``kcir`` does: it enumerates every sample tuple over a small
alphabet with its prefixes, as the classifier does, and hashes tuples and
frozensets into dicts, as the read map and the simulator do.
"""

from __future__ import annotations

from time import perf_counter

#: Kernel seconds on the reference host; the scaled times are in its seconds.
REFERENCE_S = 0.007


def kernel() -> int:
    """A fixed amount of tuple, frozenset and dict work; returns a checksum."""
    layer: list[tuple[str, ...]] = [()]
    signals: list[tuple[str, ...]] = []
    for _ in range(8):
        layer = [s + (a,) for s in layer for a in "01"]
        signals.extend(layer)
    index = {s: i for i, s in enumerate(signals)}
    pairs = {(index[s[:k]], index[s]) for s in signals for k in range(1, len(s))}
    seen: dict[frozenset, int] = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, i % 13, (i * 7) % 31)
        group = frozenset(key)
        seen[group] = seen.get(group, 0) + 1
        acc += len(str(key)) + sum(k for k in key if k & 1)
    return len(pairs) + len(seen) + acc


def time_kernel() -> float:
    """Wall seconds of one run of :func:`kernel`."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
