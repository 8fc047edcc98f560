"""Machine-speed reference for the benchmark's timings.

The 2-core VM the bounds were set on switches between a fast and a slow
state that lasts from seconds to minutes.  In the slow state, interpreted
Python takes 1.65–1.9 times as long, and a numpy gather takes 1.16 times as
long.  Over sets of five and ten runs, the quartile spread of raw run
times reached 0.24–0.6 of the median, and longer runs did not narrow it.
Adjacent passes of two different workloads kept their ratio steady to
0.04.

So every time the benchmark reports is divided by the slowness that this
fixed reference kernel measures around it.  The kernel belongs to the
benchmark, so no change to finalg moves it.  It has two parts:

- interpreted Python: recursive term evaluation over a table, like the
  scalar paths and the search;
- a numpy gather, like the exhaustive kernel.

They are weighted 2:1, because interpreted Python does most of finalg's
work on every workload; numpy does about 40% on `tables` and little
elsewhere.  A reported time is therefore in seconds at the reference
speed, the speed at which both parts take their nominal time.
"""
from __future__ import annotations

import itertools
from time import perf_counter

import numpy as np

# Seconds each part of the kernel takes at the reference speed: about its
# median over the fast and slow states of the machine the bounds were set
# on (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
PY_NOMINAL_S = 0.012
NP_NOMINAL_S = 0.009

_TERM = ("t", ("t", "a", "b", "c"), ("t", "b", "c", "a"),
         ("t", "c", "a", ("t", "a", "a", "b")))


def _evaluate(term, env, table, m):
    if isinstance(term, str):
        return env[term]
    x, y, z = [_evaluate(t, env, table, m) for t in term[1:]]
    return table[(x * m + y) * m + z]


def _python_kernel(m=12):
    table = [(a * 5 + b * 3 + c * 2 + 1) % m
             for a, b, c in itertools.product(range(m), repeat=3)]
    total = 0
    for a, b, c in itertools.product(range(m), repeat=3):
        total += _evaluate(_TERM, {"a": a, "b": b, "c": c}, table, m)
    return total


def _numpy_kernel(n=1 << 17, rounds=4):
    idx = np.arange(n, dtype=np.int64)
    total = 0
    for r in range(rounds):
        table = (idx * 7 + r) % 4096
        total += int(table[(idx * 13) % 4096].sum())
    return total


def slowness():
    """How much slower the machine runs now than at the reference speed:
    1.0 at that speed, 1.5 when both parts take 1.5 times as long."""
    t0 = perf_counter()
    _python_kernel()
    t1 = perf_counter()
    _numpy_kernel()
    t2 = perf_counter()
    return (2 * (t1 - t0) / PY_NOMINAL_S + (t2 - t1) / NP_NOMINAL_S) / 3
