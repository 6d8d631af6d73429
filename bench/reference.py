"""Seeded stimuli and an independent O(T) model of the five stream circuits.

The models are written from the circuit descriptions in ``circuits/*.kcir``
and the semantics in the README, and share no code with ``kcir``: each walks
the stimulus once, carrying latch, register and memory state forward, where
``kcir simulate`` re-folds every prefix.  ``None`` means the output is
undefined at that tick, which ``simulate --allow-undef`` prints as UNDEF.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Optional

UNDEF = "UNDEF"

BITS = ("0", "1")
# Circuits that route data rather than compute on it get distinct tokens, so
# reading the sample of a wrong tick shows up as a wrong value.
TOKENS = ("a", "b", "c", "d", "e", "f", "g", "h")
ADDRESSES = ("A", "B", "-")

#: Stimulus columns per circuit file and the values each column draws from.
CHANNELS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "dff": (("C", BITS), ("D", TOKENS)),
    "counter": (("clk", BITS), ("en", BITS)),
    "twoclock": (("cf", BITS), ("cs", BITS), ("df", BITS), ("ds", BITS)),
    "mux": (("S", ("a", "b")), ("A", TOKENS), ("B", TOKENS)),
    "abmem": (("W", ADDRESSES), ("R", ADDRESSES), ("D", TOKENS)),
}

Stimulus = dict[str, tuple[str, ...]]


def make_stimulus(circuit: str, ticks: int, seed: str) -> Stimulus:
    """Uniformly random columns for ``circuit``; equal seeds give equal stimuli."""
    rng = random.Random(seed)
    return {
        name: tuple(rng.choice(values) for _ in range(ticks))
        for name, values in CHANNELS[circuit]
    }


def write_stimulus(path: Path, stimulus: Stimulus) -> None:
    names = list(stimulus)
    ticks = len(stimulus[names[0]])
    lines = ["tick," + ",".join(names)]
    lines += [f"{t}," + ",".join(stimulus[n][t] for n in names) for t in range(ticks)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rises(clock: tuple[str, ...], t: int) -> bool:
    return t > 0 and clock[t - 1] == "0" and clock[t] == "1"


def _xor(a: str, b: str) -> str:
    return "1" if a != b else "0"


def _dff(s: Stimulus) -> list[Optional[str]]:
    # Holds the data sample of the latest rising clock edge.
    held, out = None, []
    for t in range(len(s["C"])):
        if _rises(s["C"], t):
            held = s["D"][t]
        out.append(held)
    return out


def _counter(s: Stimulus) -> list[Optional[str]]:
    # counter.kcir: q0 ^= en, q1 ^= q0 & en on each edge; output is hi=q1, lo=q0.
    q0 = q1 = "0"
    out = []
    for t in range(len(s["clk"])):
        if _rises(s["clk"], t):
            en = s["en"][t]
            q0, q1 = _xor(q0, en), _xor(q1, "1" if q0 == "1" and en == "1" else "0")
        out.append(q1 + q0)
    return out


def _twoclock(s: Stimulus) -> list[Optional[str]]:
    # Two togglers, one per clock domain, printed as fast/slow.
    fast = slow = "0"
    out = []
    for t in range(len(s["cf"])):
        if _rises(s["cf"], t):
            fast = _xor(fast, "1")
        if _rises(s["cs"], t):
            slow = _xor(slow, "1")
        out.append(f"{fast}/{slow}")
    return out


def _mux(s: Stimulus) -> list[Optional[str]]:
    return [a if sel == "a" else b for sel, a, b in zip(s["S"], s["A"], s["B"])]


def _abmem(s: Stimulus) -> list[Optional[str]]:
    # A same-tick write is visible to the same-tick read; idle or unwritten reads are undefined.
    cells: dict[str, str] = {}
    out = []
    for write, read, data in zip(s["W"], s["R"], s["D"]):
        if write != "-":
            cells[write] = data
        out.append(cells.get(read))
    return out


MODELS = {
    "dff": _dff,
    "counter": _counter,
    "twoclock": _twoclock,
    "mux": _mux,
    "abmem": _abmem,
}


def expected_csv(circuit: str, stimulus: Stimulus) -> str:
    """The exact text ``kcir simulate --allow-undef`` should print."""
    outputs = MODELS[circuit](stimulus)
    lines = ["tick,output"]
    lines += [f"{t},{UNDEF if v is None else v}" for t, v in enumerate(outputs)]
    return "\n".join(lines) + "\n"
