"""Pairwise weighted rotation averaging with turn-counting memory.

The stateless average interpolates along the geodesic from Ri to Rj.  When the
pair is swept over time, that map is discontinuous wherever the relative
rotation crosses the pi boundary or the pole: the traverse direction returned
by the log flips sign.  The memory-based variant keeps an integer turn counter
and a short history of past traverse directions, detects flips, and unwraps
the traveled distance to N*pi + d so the averaged output stays continuous.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import so3
from ._kernels import memory_average_step, stateless_average

D_TH_DEFAULT = 0.15  # radians; splits pi-boundary from pole crossings
E_PSI_DEFAULT = math.cos(50.0 * math.pi / 180.0)
HISTORY_CAPACITY = 5


@dataclass(frozen=True)
class WeightedPair:
    Ri: np.ndarray
    Rj: np.ndarray
    Wi: float
    Wj: float

    def __post_init__(self):
        if self.Wi < 0 or self.Wj < 0 or self.Wi + self.Wj <= 0:
            raise ValueError("weights must be non-negative with a positive sum")


@dataclass
class FusionState:
    """Memory of one fold position in a sequential fusion run.

    history holds up to ``capacity`` past unit traverse directions (zero rows
    are sentinels for coincident inputs); n_turns counts signed crossings of
    multiples of pi.
    """

    n_turns: int
    history: np.ndarray  # (capacity, 3)
    n_hist: int

    def copy(self):
        return FusionState(self.n_turns, self.history.copy(), self.n_hist)


def init_fusion_state(Ri0, Rj0):
    """State for a fresh sweep starting from the pair (Ri0, Rj0).

    It is the state fusion.fuse starts every fold from: no turns and an empty
    history, so the first step's own traverse direction is its alignment
    reference.  The pair is only checked to be rotations.
    """
    so3.check_rotation(Ri0, name="Ri0")
    so3.check_rotation(Rj0, name="Rj0")
    return FusionState(0, np.zeros((HISTORY_CAPACITY, 3)), 0)


def weighted_average_stateless(pair):
    """Ri * exp(d * psi_bar) with d = Wj/(Wi+Wj) * dist(Ri, Rj)."""
    Ri = so3.check_rotation(pair.Ri, name="Ri")
    Rj = so3.check_rotation(pair.Rj, name="Rj")
    return stateless_average(Ri, Rj, float(pair.Wi), float(pair.Wj))


def weighted_average_memory(pair, state):
    """One memory-based averaging step; returns (Rij, next_state).

    The input state is not mutated.  Sampling contract: between consecutive
    calls the relative motion of Rj with respect to Ri must stay below
    min(D_TH_DEFAULT, pi - D_TH_DEFAULT), otherwise a crossing can be misclassified.
    """
    Ri = so3.check_rotation(pair.Ri, name="Ri")
    Rj = so3.check_rotation(pair.Rj, name="Rj")
    next_state = state.copy()
    Rij, n_turns, n_hist = memory_average_step(
        Ri, Rj, float(pair.Wi), float(pair.Wj), next_state.n_turns,
        next_state.history, next_state.n_hist, D_TH_DEFAULT, E_PSI_DEFAULT,
    )
    next_state.n_turns = int(n_turns)
    next_state.n_hist = int(n_hist)
    return Rij, next_state
