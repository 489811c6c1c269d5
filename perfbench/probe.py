"""Machine-speed probe that adjusts timings for swings in the host's speed.

On the 2-vCPU virtual machines this benchmark was built on (Xeon, Sapphire
Rapids), a core's speed switches between two states about 1.7x apart that
last from seconds to a minute, in process time as much as in wall time.  A
six-minute trace put the interquartile spread of ten 20-second runs at 14% for
the mean pass time and 23% for the median, however the runs were cut.

The probe is a fixed small-array numpy kernel that never calls the library.
It slows down in step with the library, so a request's time scaled by the
probe times taken around it varies far less (2-3% over ten runs in the same
trace).  SpeedSampler runs the probe every INTERVAL_S from a SIGALRM handler,
in the main thread between bytecodes, so requests of any length are sampled
without starting a thread.  ``adjust`` scales a request's time to the speed
at which the probe takes PROBE_REF_S, its time in the fast state of that
machine; on a steady machine the adjusted time is the raw time times a
constant.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_LOOPS = 400
PROBE_REF_S = 0.0042
INTERVAL_S = 0.1

_A = (np.arange(9.0).reshape(3, 3) + 1j) / 10.0


def probe():
    """Time of one run of the probe kernel, in seconds."""
    t0 = time.perf_counter()
    a = _A
    for _ in range(PROBE_LOOPS):
        b = a @ a
        c = np.abs(b) ** 2 + np.real(np.conj(b) * b.T)
        np.einsum("ik,jk->ij", a, b)
        float(c.sum())
    return time.perf_counter() - t0


class SpeedSampler:
    """Probe samples (start, duration) taken every INTERVAL_S while entered."""

    def __init__(self):
        self._starts, self._durations = [], []
        self._previous = None
        self._probing_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._starts.append(t0)
        self._durations.append(probe())
        self._probing_s += time.perf_counter() - t0

    def clock(self):
        """perf_counter with the time spent in the sampler taken out."""
        while True:  # retry if a sample landed between the two reads
            probing = self._probing_s
            now = time.perf_counter()
            if self._probing_s == probing:
                return now - probing

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, start, end):
        """(time of a request net of the probes inside it, that time adjusted).

        The speed is the mean of the probes taken within one interval of the
        request, which always holds one for a request inside the sampling.
        """
        lo = bisect.bisect_left(self._starts, start - INTERVAL_S)
        hi = bisect.bisect_right(self._starts, end + INTERVAL_S)
        near = list(zip(self._starts[lo:hi], self._durations[lo:hi]))
        net = end - start - sum(d for s, d in near if start <= s < end)
        speed = (statistics.mean(d for _, d in near) if near
                 else statistics.median(self._durations))
        return net, net * PROBE_REF_S / speed
