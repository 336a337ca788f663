"""Pairwise weighted rotation averaging with turn-counting memory.

The stateless average interpolates along the geodesic from Ri to Rj.  When the
pair is swept over time, that map is discontinuous wherever the relative
rotation crosses the pi boundary or the pole: the traverse direction returned
by the log flips sign.  The memory-based variant keeps an integer turn counter
and a short history of past traverse directions, detects flips, and unwraps
the traveled distance to N*pi + d so the averaged output stays continuous.

Here ``FusionState`` carries that memory from one checked pair to the next;
``_kernels._memory_run`` owns the dispatch and its constants.
"""

from dataclasses import dataclass

import numpy as np

from . import so3
from ._kernels import D_TH_DEFAULT, E_PSI_DEFAULT, HISTORY_CAPACITY, _memory_run  # noqa: F401


@dataclass(frozen=True)
class WeightedPair:
    Ri: np.ndarray
    Rj: np.ndarray
    Wi: float
    Wj: float

    def __post_init__(self):
        if self.Wi < 0 or self.Wj < 0 or self.Wi + self.Wj <= 0:
            raise ValueError("weights must be non-negative with a positive sum")


@dataclass(frozen=True)
class FusionState:
    """Memory of one fold position in a sequential fusion run.

    history holds up to HISTORY_CAPACITY past unit traverse directions as
    float triples, oldest first (zero triples are sentinels for coincident
    inputs); n_turns counts signed crossings of multiples of pi.
    """

    n_turns: int
    history: tuple


def init_fusion_state(Ri0, Rj0):
    """State for a fresh sweep starting from the pair (Ri0, Rj0).

    It is the state fusion.fuse starts every fold from: no turns and an empty
    history, so the first step's own traverse direction is its alignment
    reference.  The pair is only checked to be rotations.
    """
    so3.check_rotation(Ri0, name="Ri0")
    so3.check_rotation(Rj0, name="Rj0")
    return FusionState(0, ())


def weighted_average_memory(pair, state):
    """One memory-based averaging step; returns (Rij, next_state).

    The input state is not mutated.  Sampling contract: between consecutive
    calls the relative motion of Rj with respect to Ri must stay below
    min(D_TH_DEFAULT, pi - D_TH_DEFAULT), otherwise a crossing can be misclassified.
    """
    Ri = so3.check_rotation(pair.Ri, name="Ri")
    Rj = so3.check_rotation(pair.Rj, name="Rj")
    out, turns, history = _memory_run(Ri[None], Rj[None], [float(pair.Wi)], [float(pair.Wj)],
                                      state.n_turns, state.history)
    return out[0], FusionState(int(turns[0]), history)
