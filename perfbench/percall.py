"""Time per call of the library's layers, as median and min over rounds.

Each case is called in rounds of a calibrated size (at least ROUND_S long);
the time per call of a round is its length over its size.  The median
shows the typical cost, the min the cost with the least interference.
"""

import statistics
import time

from su12sim.fock_oracle import TruncatedFockSpace
from su12sim.gaussian import InputState, photon_statistics, propagate
from su12sim.interferometer import InterferometerConfig
from su12sim.sensitivity import mean_derivative, phase_sensitivity, zero_phase_limit

ROUNDS = 11
ROUND_S = 0.01


def _cases():
    cfg = InterferometerConfig.balanced(3.0, 3.0, 1e-3)
    state = InputState.coherent(1, 0.5)
    vacuum = InputState.vacuum()
    weights = (1.0, 0.0, 1.0)
    S = cfg.total_matrix()
    moments = propagate(S, state)
    space = TruncatedFockSpace(14)
    # a small-gain circuit like the oracle's draws, well inside the guard
    oracle_cfg = InterferometerConfig(0.4, 0.3, 0.35, 0.25, 0.3, 1.1, 2.0, 4.0,
                                      0.7, 1.9, 3.1)
    oracle_state = InputState((0.5, 0.2j, -0.3))
    return {
        "total_matrix": cfg.total_matrix,
        "propagate": lambda: propagate(S, state),
        "photon_statistics": lambda: photon_statistics(moments),
        "mean_derivative": lambda: mean_derivative(cfg, state, weights, 1),
        "phase_sensitivity": lambda: phase_sensitivity(cfg, state, weights, 1),
        "zero_phase_limit": lambda: zero_phase_limit(vacuum, 3.0, 3.0, weights),
        "fock_space_init": lambda: TruncatedFockSpace(14),
        "run_circuit": lambda: space.run_circuit(oracle_cfg, oracle_state),
    }


def _per_call(fn):
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= ROUND_S:
            break
        number *= 2
    samples = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples), min(samples)


def per_call_table():
    """{case: (median_s, min_s)} for every layer in the table."""
    return {name: _per_call(fn) for name, fn in _cases().items()}
