"""Named model specifications and synthetic-experiment configurations.

`syn52` is the two-class (triangle/square) ten-actor design with
reciprocation, turn-taking, and turn-continuing effects; the CLI's `syn6`
preset simulates 20 sequences of it with sigma 1.  The classroom grid presets
(A1..G3) combine the covariate groups with conversational effect sets:

    letters: A = groups 1+2+3, B = 1, C = 2, D = 3,
             E/F/G = the same groups interacted with context indicators
    numbers: 1 = recency + participation shifts, 2 = shifts, 3 = recency

Classroom presets assume actor attributes `teacher`, `female`, `white`
(0/1), `race`, `gender` (categorical), dyad attributes `friends`,
`adjacent`, `activities`, and contexts `lecture`/`groupwork`/`silent`
with lecture as the reference level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hrem.events import CovariateSet, RiskSet, build_risk_set
from hrem.stats import (
    Baserate,
    ContextInteraction,
    DyadMatch,
    DyadValue,
    Mix,
    PShift,
    ReceiverAttr,
    RecencyReceive,
    RecencySend,
    SenderAttr,
    StatisticSpec,
    ToBroadcast,
)

__all__ = ["SyntheticDesign", "syn52", "classroom_spec", "preset_names"]


@dataclass(frozen=True)
class SyntheticDesign:
    spec: StatisticSpec
    beta: np.ndarray
    risk: RiskSet
    cov: CovariateSet
    n_actors: int


def syn52(baserate: float = 0.0) -> SyntheticDesign:
    """Ten actors in two classes with structural and turn-taking effects.

    Multiplicative effects: e^1.5 within triangles, e^1 for triangle ->
    square, e^1.5 for AB-BA, e^1 for AB-BY, e^0.5 for AB-AY.
    """
    n = 10
    shapes = {i: ("triangle" if i < 5 else "square") for i in range(n)}
    cov = CovariateSet(actor_attrs={"shape": shapes})
    spec = StatisticSpec(
        (
            Baserate(),
            Mix("shape", "triangle", "triangle"),
            Mix("shape", "triangle", "square"),
            PShift("AB-BA"),
            PShift("AB-BY"),
            PShift("AB-AY"),
        )
    )
    beta = np.array([baserate, 1.5, 1.0, 1.5, 1.0, 0.5])
    return SyntheticDesign(spec=spec, beta=beta, risk=build_risk_set(n), cov=cov, n_actors=n)


_GROUPS = {
    1: (
        DyadMatch("race"),
        DyadMatch("gender"),
        ToBroadcast(attr="teacher", level=0),
        ToBroadcast(attr="teacher", level=1),
    ),
    2: (
        DyadValue("friends"),
        DyadValue("adjacent"),
        DyadValue("activities"),
    ),
    3: (
        ToBroadcast(attr="teacher", level=1),
        ToBroadcast(attr="teacher", level=1, prev=True),
    ),
}

_LETTERS = {
    "A": (1, 2, 3),
    "B": (1,),
    "C": (2,),
    "D": (3,),
    "E": (1,),
    "F": (2,),
    "G": (3,),
}

_PSHIFTS = tuple(PShift(k) for k in ("AB-BA", "AB-BY", "AB-XA", "AB-XB", "AB-XY", "AB-AY"))
_RECENCY = (RecencySend(), RecencyReceive())


def classroom_spec(code: str) -> StatisticSpec:
    """Build the StatisticSpec for a grid code like "A1" or "B2"."""
    code = code.strip().upper()
    if len(code) != 2 or code[0] not in _LETTERS or code[1] not in "123":
        raise ValueError("expected a model code A1..G3, got %r" % code)
    letter, number = code[0], int(code[1])
    effects = [
        Baserate(),
        SenderAttr("teacher", 1),
        SenderAttr("female", 1),
        SenderAttr("white", 1),
        ReceiverAttr("teacher", 1),
        ReceiverAttr("female", 1),
        ReceiverAttr("white", 1),
    ]
    for g in _LETTERS[letter]:
        effects.extend(_GROUPS[g])
        if letter in "EFG":
            effects.extend(ContextInteraction(base, ctx) for base in _GROUPS[g]
                           for ctx in ("groupwork", "silent"))
    if number in (1, 2):
        effects.extend(_PSHIFTS)
    if number in (1, 3):
        effects.extend(_RECENCY)
    # groups can overlap (teacher-broadcast is in groups 1 and 3)
    return StatisticSpec(tuple(dict.fromkeys(effects)))


def preset_names():
    codes = [l + str(n) for l in "ABCDEFG" for n in (1, 2, 3)]
    return ["syn52", "syn6"] + codes
