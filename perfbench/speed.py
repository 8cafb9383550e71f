"""A fixed reference kernel that tracks how fast the host is running.

The benchmark was built on a shared 2-core machine whose speed drifted by
25-50% over tens of seconds: one fixed two-spin experiment read 85-119 ms as
the median of successive 5-second windows, and the same code_search pass
read 9.6 s and 14.8 s a minute apart.  No statistic over a 20-second run
survives that, so every timing is taken together with a probe of this
kernel, the mean of one run just before and one just after it on the same
CPU, and reported as

    seconds at reference speed = measured seconds / probe * REFERENCE_S

The kernel mixes what qwork spends its time on: small complex matrix
products, elementwise numpy work, BLAS-bound complex products at 64 and 256
dimensions, and interpreter-bound Python (dict updates and generator sums,
like qwork's planning and checking loops), which takes about 40% of its
time.  The host's slow phases slow these parts by different amounts: over
100 s of alternating runs, the ratio of a task to a probe of numpy work
alone spread by 11-26% between quartiles across tasks of all three library
workloads (plan_decouple, an RF sweep point, the noiseless sweep,
identity_offset on six spins, a seven-spin verify_schedule); with the
Python part and the 256-dimension product it spread by 4-10%, 16% for the
seven-spin verify_schedule.
It does not touch qwork, so a change to qwork moves the ratio and not the
probe.  Raw seconds are kept next to every scaled value.
"""

import gc
import math
import statistics
import time

import numpy as np

# Probe in a fresh process on the machine the benchmark was built on
# (2 cores, Python 3.11, numpy 2.4, OpenBLAS, one BLAS thread) in its fast
# phases (lower quartile of 20 processes; they read 3.0-5.5 ms), so scaled
# values read roughly as seconds on that machine when it is not contended.
REFERENCE_S = 3.7e-3
STARTUP_ELASTICITY = 0.5        # see startup_probe

_A = (np.arange(64, dtype=complex).reshape(8, 8) + 1j) / 64
_B = (np.arange(4096).reshape(64, 64) % 7 + 1j) / 64
_C = (np.arange(65536).reshape(256, 256) % 7 + 1j) / 256
_D = _C[:, :128].copy()


def kernel():
    acc = 0.0
    m = _A
    for k in range(60):
        m = _A @ m.conj().T
        m = m / np.abs(m).max()
        acc += math.sin(k * 0.1) * float(m[0, 0].real) + math.sqrt(k + 1.0)
    for _ in range(4):          # BLAS-bound, like the dense many-spin work
        acc += float((_B @ _B.conj().T)[0, 0].real)
    acc += float((_C @ _D)[0, 0].real)     # an 8-spin operator's size
    counts = {}
    for i in range(1500):       # interpreter-bound
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += sum(1 for j in (i, i + 1, i + 2) if j % 3)
    return acc


def probe(reps=3):
    """Median time of a few kernel runs, with the cyclic garbage collector
    held off so that the caller's garbage does not land in the probe."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def startup_probe(probe_s):
    """The probe as it applies to a fresh process's start-up.

    Start-up (reading and unmarshalling modules, loading shared libraries,
    page faults) slowed about half as much as the kernel in the host's slow
    phases: over 150 s of alternating runs, the log-log slope of its time on
    the probe was 0.53 for `import qwork.cli` and `qwork list-fixtures`, and
    0.76 for `qwork qec four-bit`, which computes for a second after its
    imports.  Scaling start-up by the full probe over-corrected it.
    """
    return REFERENCE_S * (probe_s / REFERENCE_S) ** STARTUP_ELASTICITY


def scaled(seconds, probe_s):
    """Seconds at reference speed."""
    return seconds / probe_s * REFERENCE_S
