"""Seeded operation streams for the four benchmark workloads.

Every op is one `eplab` command line. A workload is an endless stream of
ops drawn from its seed; the runner takes ops from the stream until its
time is up. Streams are built from shuffled decks, so each stretch of a
run holds the same mix of op kinds whatever the seed, and only the
instances (points, eigen-indices, sweep windows, noise seeds) change.
That keeps run-to-run spread down without fixing the inputs.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

# Reference values of the acceptance criteria (tests/test_acceptance.py).
GEOPHASE_IM_TARGET = {1: -0.14, 2: 0.10, 3: 0.04}  # criterion 9
MODESWITCH_END = {  # criterion 10: (preset, start, direction) -> end index
    ("through_k2", 1, "ccw"): 1,
    ("through_k2", 2, "ccw"): 1,
    ("through_k2", 1, "cw"): 2,
    ("through_k2", 2, "cw"): 2,
    ("through_k1", 1, "ccw"): 1,
    ("through_k1", 2, "ccw"): 1,
    ("through_k1", 1, "cw"): 1,
    ("through_k1", 2, "cw"): 1,
}
DILATE_POINTS = ((0.0, 1.0), (0.3, 1.0), (0.0, 0.8))  # criterion 7
PULSE_CASES = (  # criterion 8: (k1, k2, span, m0_scale), 151 samples each
    (0.0, 1.0, 0.08, 1.3),
    (0.0, 1.3, 0.05, 1.5),
    (0.3, 0.5, 0.3, 2.0),
)
PULSE_SAMPLES = 151
READOUT_K1 = (0.05, 0.45)  # criterion 12 window
READOUT_K2 = (0.3, 0.7)
READOUT_GRID = 5  # the window is drawn stratified over a 5x5 grid
READOUT_SHOTS = 100_000
SWEEP_STEP = 0.005
SWEEP_SPAN = 2.0  # 401 points per spectrum sweep
ATLAS_RESOLUTIONS = (41, 45, 49)
CONE_ANGLES = 32


def _deck(rng: random.Random, items) -> Iterator:
    """Endless stream that deals every item once per shuffled round."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _adiabatic(rng: random.Random) -> Iterator[list[str]]:
    # geophase and modeswitch alternate; both run at their default size
    # (T=5000 / 200k steps and T=5e4 / 500k steps).
    phases = _deck(rng, sorted(GEOPHASE_IM_TARGET))
    switches = _deck(rng, sorted(MODESWITCH_END))
    while True:
        yield ["geophase", "--eigenindex", str(next(phases))]
        preset, start, direction = next(switches)
        yield ["modeswitch", "--preset", preset, "--start", str(start),
               "--direction", direction]


def _dilation(rng: random.Random) -> Iterator[list[str]]:
    # one dilate (~1.3 s) per three pulses (~0.1 s): pulses set the median
    # latency, dilate the tail and most of the time.
    points = _deck(rng, DILATE_POINTS)
    cases = _deck(rng, PULSE_CASES)
    while True:
        k1, k2 = next(points)
        group = [["dilate", "--k1", repr(k1), "--k2", repr(k2)]]
        for _ in range(3):
            k1, k2, span, m0 = next(cases)
            group.append(["pulses", "--k1", repr(k1), "--k2", repr(k2),
                          "--span", repr(span), "--samples", str(PULSE_SAMPLES),
                          "--m0-scale", repr(m0)])
        rng.shuffle(group)
        yield from group


def _readout(rng: random.Random) -> Iterator[list[str]]:
    # rounds of 25 ops, one per cell of the 5x5 grid over the window: three
    # noisy eigensolves, one noiseless eigensolve and one tomography per five.
    cells = [(i, j) for i in range(READOUT_GRID) for j in range(READOUT_GRID)]
    w1 = (READOUT_K1[1] - READOUT_K1[0]) / READOUT_GRID
    w2 = (READOUT_K2[1] - READOUT_K2[0]) / READOUT_GRID
    while True:
        rng.shuffle(cells)
        for pos, (i, j) in enumerate(cells):
            k1 = f"{READOUT_K1[0] + (i + rng.random()) * w1:.4f}"
            k2 = f"{READOUT_K2[0] + (j + rng.random()) * w2:.4f}"
            seed = str(rng.randrange(2**31))
            kind = pos % 5
            if kind == 4:
                yield ["tomography", "--k1", k1, "--k2", k2, "--eigenindex",
                       str(rng.randint(1, 3)), "--shots", str(READOUT_SHOTS),
                       "--seed", seed]
            else:
                shots = 0 if kind == 3 else READOUT_SHOTS
                yield ["eigensolve", "--k1", k1, "--k2", k2, "--shots",
                       str(shots), "--seed", seed]


def _sweep(rng: random.Random, axis: str) -> list[str]:
    # k1 sweeps run on k2=1, k2 sweeps on k1=0: both lines have closed forms
    if axis == "k1":
        lo = round(rng.uniform(-1.2, -0.8), 3)
        fixed = ["--k2", "1"]
    else:
        lo = round(rng.uniform(-1.4, -0.6), 3)
        fixed = ["--k1", "0"]
    rng_text = f"{lo:.3f}:{lo + SWEEP_SPAN:.3f}:{SWEEP_STEP}"
    return ["spectrum", *fixed, f"--{axis}-range", rng_text]


def _spectral(rng: random.Random) -> Iterator[list[str]]:
    # rounds of five: three 401-point sweeps (~95 ms, so they set the
    # median), one atlas and one cone (~10-20 ms each).
    while True:
        group = [
            _sweep(rng, "k1"),
            _sweep(rng, "k2"),
            _sweep(rng, rng.choice(("k1", "k2"))),
            ["atlas", "--resolution", str(rng.choice(ATLAS_RESOLUTIONS))],
            ["cone", "--angles", str(CONE_ANGLES)],
        ]
        rng.shuffle(group)
        yield from group


_STREAMS = {
    "adiabatic_loops": _adiabatic,
    "dilation_pulses": _dilation,
    "readout": _readout,
    "spectral": _spectral,
}

# One small op of each kind the workload runs: it pays the lazy imports and
# first-call costs before timing starts. Part of set-up, never timed as an op.
WARMUP = {
    "adiabatic_loops": [["geophase", "--duration", "500"],
                        ["modeswitch", "--duration", "2000"]],
    "dilation_pulses": [["dilate", "--steps", "100"],
                        ["pulses", "--samples", "21"]],
    "readout": [["eigensolve", "--shots", "0"],
                ["tomography", "--shots", "1000"]],
    "spectral": [["spectrum", "--k2", "1", "--k1-range", "-0.1:0.1:0.01"],
                 ["atlas", "--resolution", "11"],
                 ["cone", "--angles", "4"]],
}

NAMES = tuple(_STREAMS)


def ops(workload: str, seed: int) -> Iterator[list[str]]:
    """Endless op stream of `workload`; the same seed gives the same ops."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))
