"""Calibration kernel: a fixed pure-Python workload that imports nothing
from the library.

Machine speed on a shared host drifts by tens of percent between
processes, and it drifts the same way for this kernel and for the library's
exact arithmetic (big integers, modular list loops, Fractions, hashing).
The kernel's working set (400-term coefficient lists, 2.4 KB integers) is
close to a mid-sized scan step; a smaller one tracked job slowdowns worse.
Every timing the benchmark reports is normalised as

    seconds * REFERENCE_S / (kernel time measured next to that timing)

so that runs on a slow moment and on a fast one read alike.
"""

import time
from fractions import Fraction

# Kernel time (median of two) on a quiet moment of the machine that committed the benchmark
# (Python 3.11.7, 2 vCPU). Changing it rescales every normalised timing.
REFERENCE_S = 0.0095
_ROUNDS = 2


def _kernel() -> int:
    p = 10007
    a = [(i * i * 7919 + 13) % p for i in range(400)]
    b = [(i * 104729 + 7) % p for i in range(400)]
    # Kronecker substitution: pack, multiply as big integers, unpack
    ia = int.from_bytes(b"".join(c.to_bytes(6, "little") for c in a), "little")
    ib = int.from_bytes(b"".join(c.to_bytes(6, "little") for c in b), "little")
    raw = (ia * ib).to_bytes(6 * 800, "little")
    out = [int.from_bytes(raw[i * 6:(i + 1) * 6], "little") % p for i in range(799)]
    # Euclid over F_p on coefficient lists
    u, v = out[:300], a[:200]
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):
            c = u[-1] * inv % p
            off = len(u) - len(v)
            for j, cv in enumerate(v):
                u[off + j] = (u[off + j] - c * cv) % p
            while u and u[-1] == 0:
                u.pop()
            if not u:
                break
        u, v = v, u
    # rational arithmetic and hashing of tuples
    s = Fraction(0)
    for k in range(1, 40):
        s += Fraction(k, k * k + 1)
    table = {}
    for k in range(400):
        table[(k % 37, k)] = k
    return (len(u) + s.denominator % 97 + len(table)) % p


def measure(reps: int = 3) -> float:
    """Median wall time of ``reps`` kernel calls, in seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(_ROUNDS):
            _kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]

