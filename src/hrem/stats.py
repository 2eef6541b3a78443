"""Statistic vectors s(t, i, j, A_t) and the unique-vector likelihood cache.

Each effect contributes one entry of the P-vector of statistics entering
the log-linear hazard.  Effects fall into three families: exogenous
(actor/dyad attributes, contexts), first-order endogenous (participation
shifts, recency ranks, event counts), and interactions between the two.
A sequence's evolving endogenous information lives in :class:`SeqState`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from hrem.events import CovariateSet, EventHistory, RiskSet

__all__ = [
    "PSHIFT_KINDS",
    "Baserate",
    "SenderAttr",
    "ReceiverAttr",
    "DyadMatch",
    "DyadValue",
    "Mix",
    "PShift",
    "RecencySend",
    "RecencyReceive",
    "ContextIndicator",
    "ContextInteraction",
    "ToBroadcast",
    "EventCount",
    "StatisticSpec",
    "SeqState",
    "UniqueStatTable",
    "unique_stat_table",
    "recency_rank",
    "pshift_label",
]

PSHIFT_KINDS = ("AB-BA", "AB-BY", "AB-XA", "AB-XB", "AB-XY", "AB-AY")


class SeqState:
    """Endogenous information about a sequence up to (but excluding) time t.

    Tracks the previous event, per-actor lists of distinct most-recent
    out/in-neighbors (most recent first), per-dyad event counts, and the
    current exogenous context.
    """

    __slots__ = (
        "n_nodes",
        "broadcast",
        "last_event",
        "send_recency",
        "receive_recency",
        "counts",
        "current_context",
        "n_applied",
        "last_time",
    )

    def __init__(self, n_actors: int, broadcast: int | None = None, cov: CovariateSet | None = None):
        self.n_nodes = n_actors + (1 if broadcast is not None else 0)
        self.broadcast = broadcast
        self.last_event = None
        self.send_recency = [[] for _ in range(self.n_nodes)]
        self.receive_recency = [[] for _ in range(self.n_nodes)]
        self.counts = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        self.current_context = cov.context_at(0.0) if cov is not None else None
        self.n_applied = 0
        self.last_time = 0.0

    def copy(self) -> "SeqState":
        new = SeqState.__new__(SeqState)
        new.n_nodes = self.n_nodes
        new.broadcast = self.broadcast
        new.last_event = self.last_event
        new.send_recency = [list(r) for r in self.send_recency]
        new.receive_recency = [list(r) for r in self.receive_recency]
        new.counts = self.counts.copy()
        new.current_context = self.current_context
        new.n_applied = self.n_applied
        new.last_time = self.last_time
        return new

    def apply(self, event, cov: CovariateSet | None = None):
        """Fold one event into the state, in place."""
        t, i, j = event
        if self.n_applied > 0 and t <= self.last_time:
            raise ValueError("out-of-order event at t=%g (last t=%g)" % (t, self.last_time))
        self.last_event = (i, j)
        out = self.send_recency[i]
        if j in out:
            out.remove(j)
        out.insert(0, j)
        inc = self.receive_recency[j]
        if i in inc:
            inc.remove(i)
        inc.insert(0, i)
        self.counts[i, j] += 1
        if cov is not None and cov.context_track:
            self.current_context = cov.context_at(t)
        self.n_applied += 1
        self.last_time = t
        return self


def recency_rank(direction: str, state: SeqState, i: int, j: int) -> float:
    """Inverse rank of j in i's recency list; 0 when absent (rank infinity)."""
    if direction == "send":
        lst = state.send_recency[i]
    elif direction == "receive":
        lst = state.receive_recency[i]
    else:
        raise ValueError("direction must be 'send' or 'receive'")
    try:
        return 1.0 / (lst.index(j) + 1)
    except ValueError:
        return 0.0


# ---------------------------------------------------------------------------
# Effects


@dataclass(frozen=True)
class Effect:
    @property
    def endogenous(self) -> bool:
        """True when the column depends on the sequence state.

        Other columns depend only on the covariates, the risk set and the
        context label, so :meth:`StatisticSpec.matrix` computes them once.
        """
        return False

    def value(self, state, cov, i, j, context):
        raise NotImplementedError

    def column(self, state, cov, risk, context):
        # Generic fallback; numeric effects override with vectorized forms.
        return np.array(
            [self.value(state, cov, i, j, context) for i, j in risk.dyads], dtype=float
        )

    def check(self, cov: CovariateSet, n_actors: int):
        """Raise if a referenced attribute is missing for some actor."""

    def to_json(self):
        raise NotImplementedError


def _actor_indicator(cov, name, level, n_actors):
    vals = cov.actor_values(name, n_actors)
    if level is None:
        return vals.astype(float)
    return (vals == level).astype(float)


def _check_actor_attr(cov, name, n_actors):
    attr = cov.actor_attrs.get(name)
    if attr is None:
        raise KeyError("unbound actor attribute %r" % name)
    missing = [i for i in range(n_actors) if i not in attr]
    if missing:
        raise KeyError("actor attribute %r missing for actors %s" % (name, missing))


@dataclass(frozen=True)
class Baserate(Effect):
    def value(self, state, cov, i, j, context):
        return 1.0

    def column(self, state, cov, risk, context):
        return np.ones(len(risk))

    def to_json(self):
        return {"type": "baserate"}


@dataclass(frozen=True)
class SenderAttr(Effect):
    attr: str
    level: object = None

    def value(self, state, cov, i, j, context):
        v = cov.actor_attrs[self.attr][i]
        return float(v == self.level) if self.level is not None else float(v)

    def column(self, state, cov, risk, context):
        ind = _actor_indicator(cov, self.attr, self.level, int(risk.senders.max()) + 1)
        return ind[risk.senders]

    def check(self, cov, n_actors):
        _check_actor_attr(cov, self.attr, n_actors)

    def to_json(self):
        return {"type": "sender_attr", "attr": self.attr, "level": self.level}


@dataclass(frozen=True)
class ReceiverAttr(Effect):
    attr: str
    level: object = None

    def _indicator_ext(self, cov, risk):
        # Broadcast recipients take the room mean of the statistic.
        n_actors = int(risk.senders.max()) + 1
        ind = _actor_indicator(cov, self.attr, self.level, n_actors)
        if risk.broadcast_actor is not None:
            ind = np.concatenate([ind, [ind.mean()]])
        return ind

    def value(self, state, cov, i, j, context):
        n_actors = max(cov.actor_attrs[self.attr]) + 1
        if j in cov.actor_attrs[self.attr]:
            v = cov.actor_attrs[self.attr][j]
            return float(v == self.level) if self.level is not None else float(v)
        ind = _actor_indicator(cov, self.attr, self.level, n_actors)
        return float(ind.mean())

    def column(self, state, cov, risk, context):
        return self._indicator_ext(cov, risk)[risk.recipients]

    def check(self, cov, n_actors):
        _check_actor_attr(cov, self.attr, n_actors)

    def to_json(self):
        return {"type": "receiver_attr", "attr": self.attr, "level": self.level}


@dataclass(frozen=True)
class DyadMatch(Effect):
    attr: str

    def value(self, state, cov, i, j, context):
        attrs = cov.actor_attrs[self.attr]
        vi = attrs[i]
        if j in attrs:
            return float(attrs[j] == vi)
        vals = np.array([attrs[a] for a in sorted(a for a in attrs)])
        return float(np.mean(vals == vi))

    def column(self, state, cov, risk, context):
        n_actors = int(risk.senders.max()) + 1
        vals = cov.actor_values(self.attr, n_actors)
        vi = vals[risk.senders]
        out = np.zeros(len(risk))
        real = (
            risk.recipients < n_actors
            if risk.broadcast_actor is not None
            else np.ones(len(risk), dtype=bool)
        )
        out[real] = (vals[risk.recipients[real]] == vi[real]).astype(float)
        if risk.broadcast_actor is not None:
            freq = {v: np.mean(vals == v) for v in set(vals.tolist())}
            bc = ~real
            out[bc] = [freq[v] for v in vi[bc]]
        return out

    def check(self, cov, n_actors):
        _check_actor_attr(cov, self.attr, n_actors)

    def to_json(self):
        return {"type": "dyad_match", "attr": self.attr}


@dataclass(frozen=True)
class DyadValue(Effect):
    attr: str

    def value(self, state, cov, i, j, context):
        return cov.dyad_value(self.attr, i, j)

    def column(self, state, cov, risk, context):
        attr = cov.dyad_attrs[self.attr]
        return np.array([attr.get(d, 0.0) for d in risk.dyads], dtype=float)

    def check(self, cov, n_actors):
        if self.attr not in cov.dyad_attrs:
            raise KeyError("unbound dyad attribute %r" % self.attr)

    def to_json(self):
        return {"type": "dyad_value", "attr": self.attr}


@dataclass(frozen=True)
class Mix(Effect):
    """Indicator of a sender-class -> receiver-class combination."""

    attr: str
    sender_level: object
    receiver_level: object

    def value(self, state, cov, i, j, context):
        attrs = cov.actor_attrs[self.attr]
        si = float(attrs[i] == self.sender_level)
        if j in attrs:
            rj = float(attrs[j] == self.receiver_level)
        else:
            rj = float(np.mean([attrs[a] == self.receiver_level for a in attrs]))
        return si * rj

    def column(self, state, cov, risk, context):
        n_actors = int(risk.senders.max()) + 1
        s_ind = _actor_indicator(cov, self.attr, self.sender_level, n_actors)
        r_ind = _actor_indicator(cov, self.attr, self.receiver_level, n_actors)
        if risk.broadcast_actor is not None:
            r_ind = np.concatenate([r_ind, [r_ind.mean()]])
        return s_ind[risk.senders] * r_ind[risk.recipients]

    def check(self, cov, n_actors):
        _check_actor_attr(cov, self.attr, n_actors)

    def to_json(self):
        return {
            "type": "mix",
            "attr": self.attr,
            "sender_level": self.sender_level,
            "receiver_level": self.receiver_level,
        }


@dataclass(frozen=True)
class PShift(Effect):
    """Participation-shift indicator relative to the previous event.

    With previous event (A, B) the six kinds classify the next dyad:
    AB-BA, AB-BY (turn-receiving), AB-XA, AB-XB, AB-XY (turn-usurping),
    and AB-AY (turn-continuing).  A, B, X, Y denote distinct actors, so
    an exact repeat (A, B) carries no indicator; neither does the first
    event of a sequence.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in PSHIFT_KINDS:
            raise ValueError("unknown participation shift %r" % self.kind)

    endogenous = True

    def value(self, state, cov, i, j, context):
        if state.last_event is None:
            return 0.0
        a, b = state.last_event
        return float(_pshift_match(self.kind, a, b, i, j))

    def column(self, state, cov, risk, context):
        if state.last_event is None:
            return np.zeros(len(risk))
        a, b = state.last_event
        s_is, r_is = risk.actor_masks
        k = self.kind
        if k == "AB-BA":
            hit = s_is[b] & r_is[a]
        elif k == "AB-BY":
            hit = s_is[b] & ~(r_is[a] | r_is[b])
        elif k == "AB-XA":
            hit = r_is[a] & ~(s_is[a] | s_is[b])
        elif k == "AB-XB":
            hit = r_is[b] & ~(s_is[a] | s_is[b])
        elif k == "AB-XY":
            hit = ~(s_is[a] | s_is[b] | r_is[a] | r_is[b])
        else:  # AB-AY
            hit = s_is[a] & ~(r_is[a] | r_is[b])
        return hit.astype(float)

    def to_json(self):
        return {"type": "pshift", "kind": self.kind}


def _pshift_match(kind, a, b, i, j):
    if kind == "AB-BA":
        return i == b and j == a
    if kind == "AB-BY":
        return i == b and j != a and j != b
    if kind == "AB-XA":
        return i != a and i != b and j == a
    if kind == "AB-XB":
        return i != a and i != b and j == b
    if kind == "AB-XY":
        return i != a and i != b and j != a and j != b
    if kind == "AB-AY":
        return i == a and j != b and j != a
    raise ValueError(kind)


def pshift_label(prev_event, event):
    """Classify an event relative to its predecessor; None for the first."""
    if prev_event is None:
        return None
    a, b = prev_event[-2:]
    i, j = event[-2:]
    for kind in PSHIFT_KINDS:
        if _pshift_match(kind, a, b, i, j):
            return kind
    return None


def _recency_column(lists, risk):
    """Inverse rank of j in lists[i] for every dyad (i, j); 0 when absent."""
    n = max(len(lists), risk.actor_masks[0].shape[0])
    lens = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    total = int(lens.sum())
    targets = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=total)
    owners = np.repeat(np.arange(len(lists)), lens)
    ranks = np.arange(1, total + 1) - np.repeat(np.cumsum(lens) - lens, lens)
    inverse = np.zeros((n, n))
    inverse[owners, targets] = 1.0 / ranks
    return inverse[risk.senders, risk.recipients]


@dataclass(frozen=True)
class RecencySend(Effect):
    endogenous = True

    def value(self, state, cov, i, j, context):
        return recency_rank("send", state, i, j)

    def column(self, state, cov, risk, context):
        return _recency_column(state.send_recency, risk)

    def to_json(self):
        return {"type": "recency_send"}


@dataclass(frozen=True)
class RecencyReceive(Effect):
    endogenous = True

    def value(self, state, cov, i, j, context):
        return recency_rank("receive", state, i, j)

    def column(self, state, cov, risk, context):
        return _recency_column(state.receive_recency, risk)

    def to_json(self):
        return {"type": "recency_receive"}


@dataclass(frozen=True)
class ContextIndicator(Effect):
    label: str

    def value(self, state, cov, i, j, context):
        return float(context == self.label)

    def column(self, state, cov, risk, context):
        return np.full(len(risk), float(context == self.label))

    def to_json(self):
        return {"type": "context", "label": self.label}


@dataclass(frozen=True)
class ContextInteraction(Effect):
    base: Effect
    label: str

    @property
    def endogenous(self) -> bool:
        return self.base.endogenous

    def value(self, state, cov, i, j, context):
        if context != self.label:
            return 0.0
        return self.base.value(state, cov, i, j, context)

    def column(self, state, cov, risk, context):
        if context != self.label:
            return np.zeros(len(risk))
        return self.base.column(state, cov, risk, context)

    def check(self, cov, n_actors):
        self.base.check(cov, n_actors)

    def to_json(self):
        return {"type": "context_interaction", "base": self.base.to_json(), "label": self.label}


@dataclass(frozen=True)
class ToBroadcast(Effect):
    """Indicator that the recipient is the broadcast actor.

    Optionally restricted to senders with a given attribute level, and
    optionally interacted with "the previous event was such a broadcast".
    """

    attr: str | None = None
    level: object = None
    prev: bool = False

    def _sender_ok(self, cov, i):
        if self.attr is None:
            return True
        return cov.actor_attrs[self.attr][i] == self.level

    def value(self, state, cov, i, j, context):
        bc = state.broadcast
        if bc is None or j != bc or not self._sender_ok(cov, i):
            return 0.0
        if self.prev:
            if state.last_event is None:
                return 0.0
            a, b = state.last_event
            if b != bc or not self._sender_ok(cov, a):
                return 0.0
        return 1.0

    @property
    def endogenous(self) -> bool:
        return self.prev

    def column(self, state, cov, risk, context):
        bc = risk.broadcast_actor
        if bc is None:
            return np.zeros(len(risk))
        if self.prev:
            if state.last_event is None:
                return np.zeros(len(risk))
            a, b = state.last_event
            if b != bc or not self._sender_ok(cov, a):
                return np.zeros(len(risk))
        hit = risk.recipients == bc
        if self.attr is not None:
            n_actors = int(risk.senders.max()) + 1
            ind = _actor_indicator(cov, self.attr, self.level, n_actors).astype(bool)
            hit = hit & ind[risk.senders]
        return hit.astype(float)

    def check(self, cov, n_actors):
        if self.attr is not None:
            _check_actor_attr(cov, self.attr, n_actors)

    def to_json(self):
        return {"type": "to_broadcast", "attr": self.attr, "level": self.level, "prev": self.prev}


@dataclass(frozen=True)
class EventCount(Effect):
    """N_ij(t-) raised to a power; unbounded and explosion-prone for power > 0."""

    power: float = 1.0

    endogenous = True

    def value(self, state, cov, i, j, context):
        return float(state.counts[i, j]) ** self.power if state.counts[i, j] else 0.0

    def column(self, state, cov, risk, context):
        c = state.counts[risk.senders, risk.recipients].astype(float)
        out = np.zeros(len(risk))
        nz = c > 0
        out[nz] = c[nz] ** self.power
        return out

    def to_json(self):
        return {"type": "event_count", "power": self.power}


# ---------------------------------------------------------------------------
# Specification


_UNSET = object()


@dataclass(frozen=True)
class StatisticSpec:
    """Ordered, duplicate-free list of effects; P = len(effects)."""

    effects: tuple

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise ValueError("effect list must be nonempty")
        if len(set(self.effects)) != len(self.effects):
            raise ValueError("duplicate effect descriptors")
        dynamic = tuple(p for p, eff in enumerate(self.effects) if eff.endogenous)
        object.__setattr__(self, "_endogenous", dynamic)

    @property
    def p(self) -> int:
        return len(self.effects)

    def check(self, cov: CovariateSet, n_actors: int):
        for eff in self.effects:
            eff.check(cov, n_actors)

    def vector(self, state: SeqState, cov: CovariateSet, i: int, j: int,
               context=_UNSET) -> np.ndarray:
        if context is _UNSET:
            context = state.current_context
        out = np.empty(self.p)
        for p, eff in enumerate(self.effects):
            out[p] = eff.value(state, cov, i, j, context)
        return out

    def matrix(self, state: SeqState, cov: CovariateSet, risk: RiskSet,
               context=_UNSET) -> np.ndarray:
        """|R| x P statistic matrix, one row per risk-set dyad.

        The exogenous columns depend only on (cov, risk, context).  They are
        computed once per context label and kept in a one-entry cache keyed
        by the identity of cov and risk; each call copies that block and
        fills in the endogenous columns from the state.
        """
        if context is _UNSET:
            context = state.current_context
        cache = self.__dict__.get("_static")
        if cache is None or cache[0] is not cov or cache[1] is not risk:
            cache = (cov, risk, {})
            self.__dict__["_static"] = cache
        block = cache[2].get(context)
        if block is None:
            block = np.zeros((len(risk), self.p))
            for p, eff in enumerate(self.effects):
                if not eff.endogenous:
                    block[:, p] = eff.column(state, cov, risk, context)
            cache[2][context] = block
        out = block.copy()
        for p in self._endogenous:
            out[:, p] = self.effects[p].column(state, cov, risk, context)
        return out

    def to_json(self) -> str:
        return json.dumps([eff.to_json() for eff in self.effects], indent=1)

    @classmethod
    def from_obj(cls, obj, cov: CovariateSet | None = None) -> "StatisticSpec":
        return cls(tuple(_effect_from_obj(o, cov) for o in obj))

    @classmethod
    def from_json(cls, text: str, cov: CovariateSet | None = None) -> "StatisticSpec":
        return cls.from_obj(json.loads(text), cov)


def _effect_from_obj(o, cov=None):
    if isinstance(o, Effect):
        return o
    kind = o["type"]
    if kind == "baserate":
        return Baserate()
    if kind in ("sender_attr", "receiver_attr"):
        klass = SenderAttr if kind == "sender_attr" else ReceiverAttr
        if "level" in o and o["level"] is not None:
            return klass(o["attr"], o["level"])
        # Categorical attributes expand to per-level indicators at bind
        # time; the reference level (default: smallest) is dropped.
        if cov is not None and o["attr"] in cov.actor_attrs:
            vals = set(cov.actor_attrs[o["attr"]].values())
            if any(isinstance(v, str) for v in vals):
                levels = sorted(vals, key=str)
                ref = o.get("reference", levels[0])
                expanded = [klass(o["attr"], lev) for lev in levels if lev != ref]
                return expanded if len(expanded) != 1 else expanded[0]
        return klass(o["attr"], None)
    if kind == "dyad_match":
        return DyadMatch(o["attr"])
    if kind == "dyad_value":
        return DyadValue(o["attr"])
    if kind == "mix":
        return Mix(o["attr"], o["sender_level"], o["receiver_level"])
    if kind == "pshift":
        return PShift(o["kind"])
    if kind == "recency_send":
        return RecencySend()
    if kind == "recency_receive":
        return RecencyReceive()
    if kind == "context":
        return ContextIndicator(o["label"])
    if kind == "context_interaction":
        return ContextInteraction(_effect_from_obj(o["base"], cov), o["label"])
    if kind == "to_broadcast":
        return ToBroadcast(o.get("attr"), o.get("level"), bool(o.get("prev", False)))
    if kind == "event_count":
        return EventCount(float(o.get("power", 1.0)))
    raise ValueError("unknown effect type %r" % kind)


# ---------------------------------------------------------------------------
# Unique-vector cache


@dataclass(frozen=True)
class UniqueStatTable:
    """Distinct statistic vectors with event counts q and exposures m.

    The log-likelihood of a sequence reduces to
    sum_r [q_r * beta'U_r - m_r * exp(beta'U_r)], so MCMC evaluations
    cost O(P * |U|) instead of O(M * P * N^2).
    """

    vectors: np.ndarray  # (|U|, P)
    q: np.ndarray  # (|U|,) int
    m: np.ndarray  # (|U|,) float

    @property
    def n_unique(self) -> int:
        return len(self.q)

    @property
    def n_events(self) -> int:
        return int(self.q.sum())

    @property
    def total_exposure(self) -> float:
        return float(self.m.sum())


class _RowIndex:
    """Distinct rows in first-occurrence order, with their counts q and exposures m.

    A row is looked up by its projection onto a fixed random vector in a
    sorted array of the projections of known rows; every hit is then
    checked bitwise against the stored row.  Misses and collisions go
    through an exact dict of row bytes, which assigns new ids in order.
    """

    def __init__(self, p: int):
        self.rows = np.empty((16, p))  # growing buffer; the first n rows are distinct
        self.q = np.zeros(16, dtype=np.int64)
        self.m = np.zeros(16)
        self.n = 0
        self.exact: dict = {}
        self.direction = np.random.default_rng(0).standard_normal(p)
        self.keys = np.empty(0)  # sorted projections
        self.key_ids = np.empty(0, dtype=np.intp)  # row id of each projection

    # Slots are found before q or m is read: finding one may grow the buffers.

    def observe(self, row: np.ndarray):
        r = self._slot(row)
        self.q[r] += 1

    def expose(self, mat: np.ndarray, dur: float):
        ids = self._slots(mat)
        np.add.at(self.m, ids, dur)

    def _slot(self, row: np.ndarray) -> int:
        key = row.tobytes()
        r = self.exact.get(key)
        if r is None:
            r = self.n
            if r == len(self.rows):
                self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
                self.q = np.concatenate([self.q, np.zeros_like(self.q)])
                self.m = np.concatenate([self.m, np.zeros_like(self.m)])
            self.rows[r] = row
            self.exact[key] = r
            self.n += 1
        return r

    def _slots(self, mat: np.ndarray) -> np.ndarray:
        h = mat @ self.direction
        ids = np.zeros(len(mat), dtype=np.intp)
        known = np.zeros(len(mat), dtype=bool)  # projection already in keys
        hit = known
        if len(self.keys):
            pos = np.minimum(np.searchsorted(self.keys, h), len(self.keys) - 1)
            ids = self.key_ids[pos]
            known = self.keys[pos] == h
            hit = known & (self.rows[ids].view(np.uint64) == mat.view(np.uint64)).all(axis=1)
        if hit.all():
            return ids
        # Misses and collisions, in row order so new ids follow first occurrence.
        new_keys: dict = {}
        for r in np.flatnonzero(~hit):
            ids[r] = self._slot(mat[r])
            if not known[r] and h[r] == h[r]:  # a collision keeps the first row's key; NaN gets none
                new_keys.setdefault(h[r], ids[r])
        if new_keys:
            hs = np.array(sorted(new_keys))
            at = np.searchsorted(self.keys, hs)
            self.keys = np.insert(self.keys, at, hs)
            self.key_ids = np.insert(self.key_ids, at, [new_keys[x] for x in hs])
        return ids

    def table(self) -> UniqueStatTable:
        n = self.n
        return UniqueStatTable(vectors=self.rows[:n].copy(), q=self.q[:n].copy(),
                               m=self.m[:n].copy())


def unique_stat_table(spec: StatisticSpec, history: EventHistory, risk: RiskSet,
                      cov: CovariateSet) -> UniqueStatTable:
    """Build the unique-vector cache for one sequence.

    Exposures accumulate piecewise across context boundaries, which add
    hazard changepoints between events.  Deduplication uses exact bitwise
    equality of the float64 vectors; rows keep their order of first
    occurrence, and each exposure is summed in event order.
    """
    state = SeqState(history.n_actors, broadcast=risk.broadcast_actor, cov=cov)
    index = _RowIndex(spec.p)
    prev_t = 0.0
    for (t, i, j) in history.events:
        for dur, ctx in cov.context_segments(prev_t, t):
            index.expose(spec.matrix(state, cov, risk, context=ctx), dur)
        index.observe(spec.vector(state, cov, i, j, context=cov.context_at(t)))
        state.apply((t, i, j), cov)
        prev_t = t
    for dur, ctx in cov.context_segments(prev_t, history.tau):
        index.expose(spec.matrix(state, cov, risk, context=ctx), dur)
    return index.table()
