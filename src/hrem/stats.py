"""Statistic vectors s(t, i, j, A_t) and the unique-vector likelihood cache.

Each effect contributes one entry of the P-vector of statistics entering
the log-linear hazard, computed as a column over the whole risk set.
Effects fall into three families: exogenous (actor/dyad attributes,
contexts), first-order endogenous (participation shifts, recency ranks,
event counts), and interactions between the two.  A sequence's evolving
endogenous information lives in :class:`SeqState`, and :func:`walk` steps
through a history's hazard intervals for every consumer of the statistics.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections import defaultdict
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
    "WalkStep",
    "walk",
    "unique_stat_table",
    "pshift_label",
]

PSHIFT_KINDS = ("AB-BA", "AB-BY", "AB-XA", "AB-XB", "AB-XY", "AB-AY")


class SeqState:
    """Endogenous information about a sequence up to (but excluding) time t.

    Tracks the previous event, per-actor lists of distinct most-recent
    out/in-neighbors (most recent first), per-dyad event counts, and the
    current exogenous context.  A recency column reads the inverse ranks of
    its direction from an (n_nodes x n_nodes) array that is built from the
    lists when a column first asks for it; from then on :meth:`apply`
    rewrites only the rows whose lists the event changed, row i of the send
    array and row j of the receive array.  Specs without a recency effect
    never build either array.
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
        "_send_ranks",
        "_receive_ranks",
        "_rank_values",
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
        self._send_ranks = None
        self._receive_ranks = None

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
        if self._send_ranks is not None:
            self._rank_row(self._send_ranks[i], out)
        if self._receive_ranks is not None:
            self._rank_row(self._receive_ranks[j], inc)
        self.counts[i, j] += 1
        if cov is not None and cov.context_track:
            self.current_context = cov.context_at(t)
        self.n_applied += 1
        self.last_time = t
        return self

    def _rank_row(self, row, lst):
        """Overwrite `row` with the inverse ranks of the ids in `lst`, rank 1 first."""
        row.fill(0.0)
        row[lst] = self._rank_values[:len(lst)]

    def _inverse_ranks(self, direction: str, size: int) -> np.ndarray:
        """Array whose [a, b] is 1/rank of b in a's `direction` list, 0 when absent.

        `direction` is "send" or "receive", and the array is at least
        `size` x `size`.  It is built from the lists on the first request;
        later requests return the same array, which :meth:`apply` keeps
        current.
        """
        attr = "_send_ranks" if direction == "send" else "_receive_ranks"
        ranks = getattr(self, attr)
        if ranks is None or len(ranks) < size:
            n = max(self.n_nodes, size)
            self._rank_values = 1.0 / np.arange(1, n + 1)
            ranks = np.zeros((n, n))
            lists = self.send_recency if direction == "send" else self.receive_recency
            for row, lst in zip(ranks, lists):
                self._rank_row(row, lst)
            setattr(self, attr, ranks)
        return ranks


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

    def column(self, state, cov, risk, context):
        """The statistic of every risk-set dyad, in the order of ``risk.dyads``."""
        raise NotImplementedError

    def check(self, cov: CovariateSet, n_actors: int):
        """Raise if the actor attribute `attr`, when set, is missing for some actor."""
        name = getattr(self, "attr", None)
        if name is None:
            return
        attr = cov.actor_attrs.get(name)
        if attr is None:
            raise KeyError("unbound actor attribute %r" % name)
        missing = [i for i in range(n_actors) if i not in attr]
        if missing:
            raise KeyError("actor attribute %r missing for actors %s" % (name, missing))

    def to_json(self) -> dict:
        """`{"type": name, field: value, ...}` in field order; a nested effect as its own."""
        obj = {"type": _NAMES[type(self)]}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            obj[f.name] = value.to_json() if isinstance(value, Effect) else value
        return obj


def _actor_indicator(cov, name, level, n_actors):
    vals = cov.actor_values(name, n_actors)
    if level is None:
        return vals.astype(float)
    return (vals == level).astype(float)


def _recipient_indicator(cov, name, level, risk):
    """`_actor_indicator` by recipient id; the broadcast recipient takes the room mean."""
    ind = _actor_indicator(cov, name, level, risk.n_actors)
    if risk.broadcast_actor is not None:
        ind = np.concatenate([ind, [ind.mean()]])
    return ind


@dataclass(frozen=True)
class Baserate(Effect):
    def column(self, state, cov, risk, context):
        return np.ones(len(risk))


@dataclass(frozen=True)
class SenderAttr(Effect):
    attr: str
    level: object = None

    def column(self, state, cov, risk, context):
        return _actor_indicator(cov, self.attr, self.level, risk.n_actors)[risk.senders]


@dataclass(frozen=True)
class ReceiverAttr(Effect):
    attr: str
    level: object = None

    def column(self, state, cov, risk, context):
        return _recipient_indicator(cov, self.attr, self.level, risk)[risk.recipients]


@dataclass(frozen=True)
class DyadMatch(Effect):
    attr: str

    def column(self, state, cov, risk, context):
        n_actors = risk.n_actors
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


@dataclass(frozen=True)
class DyadValue(Effect):
    attr: str

    def column(self, state, cov, risk, context):
        attr = cov.dyad_attrs[self.attr]
        return np.array([attr.get(d, 0.0) for d in risk.dyads], dtype=float)

    def check(self, cov, n_actors):
        if self.attr not in cov.dyad_attrs:
            raise KeyError("unbound dyad attribute %r" % self.attr)


@dataclass(frozen=True)
class Mix(Effect):
    """Indicator of a sender-class -> receiver-class combination."""

    attr: str
    sender_level: object
    receiver_level: object

    def column(self, state, cov, risk, context):
        s_ind = _actor_indicator(cov, self.attr, self.sender_level, risk.n_actors)
        r_ind = _recipient_indicator(cov, self.attr, self.receiver_level, risk)
        return s_ind[risk.senders] * r_ind[risk.recipients]


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


def pshift_label(prev_event, event):
    """Classify an event relative to its predecessor; None for the first."""
    if prev_event is None:
        return None
    a, b = prev_event[-2:]
    i, j = event[-2:]
    sender = "A" if i == a else "B" if i == b else "X"
    recipient = "A" if j == a else "B" if j == b else "Y"
    label = "AB-%s%s" % (sender, recipient)
    return label if label in PSHIFT_KINDS else None


@dataclass(frozen=True)
class RecencySend(Effect):
    endogenous = True

    def column(self, state, cov, risk, context):
        ranks = state._inverse_ranks("send", len(risk.actor_masks[0]))
        return ranks[risk.senders, risk.recipients]


@dataclass(frozen=True)
class RecencyReceive(Effect):
    endogenous = True

    def column(self, state, cov, risk, context):
        ranks = state._inverse_ranks("receive", len(risk.actor_masks[0]))
        return ranks[risk.senders, risk.recipients]


@dataclass(frozen=True)
class ContextIndicator(Effect):
    label: str

    def column(self, state, cov, risk, context):
        return np.full(len(risk), float(context == self.label))


@dataclass(frozen=True)
class ContextInteraction(Effect):
    base: Effect
    label: str

    @property
    def endogenous(self) -> bool:
        return self.base.endogenous

    def column(self, state, cov, risk, context):
        if context != self.label:
            return np.zeros(len(risk))
        return self.base.column(state, cov, risk, context)

    def check(self, cov, n_actors):
        self.base.check(cov, n_actors)


@dataclass(frozen=True)
class ToBroadcast(Effect):
    """Indicator that the recipient is the broadcast actor.

    Optionally restricted to senders with a given attribute level, and
    optionally interacted with "the previous event was such a broadcast".
    """

    attr: str | None = None
    level: object = None
    prev: bool = False

    def __post_init__(self):
        object.__setattr__(self, "prev", bool(self.prev))

    def _sender_ok(self, cov, i):
        if self.attr is None:
            return True
        return cov.actor_attrs[self.attr][i] == self.level

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
            ind = _actor_indicator(cov, self.attr, self.level, risk.n_actors).astype(bool)
            hit = hit & ind[risk.senders]
        return hit.astype(float)


@dataclass(frozen=True)
class EventCount(Effect):
    """N_ij(t-) raised to a power; unbounded and explosion-prone for power > 0."""

    power: float = 1.0

    endogenous = True

    def __post_init__(self):
        object.__setattr__(self, "power", float(self.power))

    def column(self, state, cov, risk, context):
        c = state.counts[risk.senders, risk.recipients].astype(float)
        out = np.zeros(len(risk))
        nz = c > 0
        out[nz] = c[nz] ** self.power
        return out


# The only place the JSON type names appear.
_TYPES = {
    "baserate": Baserate,
    "sender_attr": SenderAttr,
    "receiver_attr": ReceiverAttr,
    "dyad_match": DyadMatch,
    "dyad_value": DyadValue,
    "mix": Mix,
    "pshift": PShift,
    "recency_send": RecencySend,
    "recency_receive": RecencyReceive,
    "context": ContextIndicator,
    "context_interaction": ContextInteraction,
    "to_broadcast": ToBroadcast,
    "event_count": EventCount,
}
_NAMES = {klass: name for name, klass in _TYPES.items()}


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

    def vector(self, state: SeqState, cov: CovariateSet, risk: RiskSet, i: int, j: int,
               context=_UNSET) -> np.ndarray:
        """Statistic vector of dyad (i, j): its row of :meth:`matrix`."""
        return self.matrix(state, cov, risk, context)[risk.index[(i, j)]]

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
        effects = []
        for pos, o in enumerate(obj):
            try:
                effects.extend(_effects_from_obj(o, cov))
            except ValueError as exc:
                raise ValueError("spec entry %d: %s" % (pos, exc)) from None
        return cls(tuple(effects))


def _effects_from_obj(o, cov=None) -> list:
    """The effects of one JSON object: a categorical attribute expands to its levels."""
    if isinstance(o, Effect):
        return [o]
    if not isinstance(o, dict):
        raise ValueError("an effect is a JSON object, not %r" % (o,))
    name = o.get("type")
    klass = _TYPES.get(name)
    if klass is None:
        raise ValueError("unknown effect type %r" % (name,))
    fields = dataclasses.fields(klass)
    missing = [f.name for f in fields if f.name not in o and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError("effect %r is missing field(s) %s" % (name, ", ".join(missing)))
    kw = {f.name: o[f.name] for f in fields if f.name in o}
    if "base" in kw:
        return [klass(**dict(kw, base=b)) for b in _effects_from_obj(kw["base"], cov)]
    if klass in (SenderAttr, ReceiverAttr) and kw.get("level") is None and cov is not None:
        # Categorical attributes expand to per-level indicators at bind
        # time; the reference level (default: smallest) is dropped.
        vals = set(cov.actor_attrs.get(kw["attr"], {}).values())
        if any(isinstance(v, str) for v in vals):
            levels = sorted(vals, key=str)
            ref = o.get("reference", levels[0])
            return [klass(kw["attr"], lev) for lev in levels if lev != ref]
    try:
        return [klass(**kw)]
    except ValueError as exc:
        raise ValueError("effect %r: %s" % (name, exc)) from None


# ---------------------------------------------------------------------------
# Unique-vector cache


@dataclass(frozen=True)
class UniqueStatTable:
    """Distinct statistic vectors with event counts q and exposures m.

    The log-likelihood of a sequence reduces to
    sum_r [q_r * beta'U_r - m_r * exp(beta'U_r)], so a likelihood costs
    O(P * |U|) instead of O(M * P * N^2).  A collapsed slice evaluation
    costs O(V_p), the number of distinct values in column p, after one
    O(|U|) pass per update (:meth:`hrem.inference.CollapsedGibbs.sweep`).
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


class WalkStep:
    """One hazard interval of :func:`walk`: from the previous event to the next one.

    `segments` iterates once over the (duration, context) pieces of the
    interval (its tuples are built only when a consumer needs them), `event`
    is the event that ends it (None for the censored tail, which ends at
    tau), `context` the context at that event and `row` the event's
    risk-set row.  `x(context)` is the statistic matrix of the state before
    the event, built on first use; it is valid until the walk advances.
    """

    __slots__ = ("index", "event", "segments", "context", "row", "_build", "_memo")

    def __init__(self, index, event, segments, context, row, build):
        self.index = index
        self.event = event
        self.segments = segments
        self.context = context
        self.row = row
        self._build = build
        self._memo = {}

    def x(self, context) -> np.ndarray:
        mat = self._memo.get(context)
        if mat is None:
            mat = self._memo[context] = self._build(context)
        return mat


def walk(spec: StatisticSpec, history: EventHistory, risk: RiskSet, cov: CovariateSet,
         start: int = 0):
    """Yield a :class:`WalkStep` per event from index `start` on, then one for the tail.

    Events before `start` only advance the state, and no step builds a
    matrix that its consumer does not ask for.
    """
    state = SeqState(history.n_actors, broadcast=risk.broadcast_actor, cov=cov)

    def build(context):
        return spec.matrix(state, cov, risk, context=context)

    prev_t = 0.0
    for m, event in enumerate(history.events):
        t, i, j = event
        if m >= start:
            yield WalkStep(m, event, cov.context_segments(prev_t, t), cov.context_at(t),
                           risk.index[(i, j)], build)
        state.apply(event, cov)
        prev_t = t
    yield WalkStep(history.m, None, cov.context_segments(prev_t, history.tau), None, None, build)


# Row ids held for one np.add.at into the exposures; bounded so peak memory stays flat.
_EXPOSURE_BLOCK = 1 << 14


def unique_stat_table(spec: StatisticSpec, history: EventHistory, risk: RiskSet,
                      cov: CovariateSet) -> UniqueStatTable:
    """Build the unique-vector cache for one sequence.

    Exposures accumulate piecewise across context boundaries, which add
    hazard changepoints between events.  A row is keyed by its bytes, so
    deduplication is exact bitwise equality of the float64 vectors; rows
    keep their order of first occurrence, and each exposure is summed in
    event order.  An event changes only some rows of the matrix, so each
    segment's matrix is compared bitwise with the previous segment's (as
    uint64, which keeps 0.0 and -0.0 apart) and only the rows that differ
    are looked up; the others keep their ids.
    """
    row_key = np.dtype((np.void, 8 * spec.p))
    ids = defaultdict(itertools.count().__next__)  # row bytes -> id, in order of first occurrence
    m = np.zeros(0)
    # The row ids of each exposed segment in event order, and its duration,
    # added to m in blocks of at most _EXPOSURE_BLOCK ids.
    rows, durs = [], []
    observed = []

    def add_exposures():
        nonlocal m
        m = np.concatenate([m, np.zeros(len(ids) - len(m))])
        if rows:
            np.add.at(m, np.concatenate(rows), np.repeat(durs, len(risk)))
        rows.clear()
        durs.clear()

    prev_x, prev_ids = None, np.zeros(len(risk), dtype=np.intp)
    for step in walk(spec, history, risk, cov):
        for dur, ctx in step.segments:
            if (len(rows) + 1) * len(risk) > _EXPOSURE_BLOCK:
                add_exposures()
            x = step.x(ctx)
            changed = (slice(None) if prev_x is None else
                       (x.view(np.uint64) != prev_x.view(np.uint64)).any(axis=1).nonzero()[0])
            seg_ids = prev_ids.copy()
            seg_ids[changed] = np.fromiter(
                map(ids.__getitem__, x[changed].view(row_key).ravel().tolist()), dtype=np.intp)
            rows.append(seg_ids)
            durs.append(dur)
            prev_x, prev_ids = x, seg_ids
        if step.event is not None:
            observed.append(ids[step.x(step.context)[step.row].tobytes()])
    add_exposures()  # also sizes m to every row: the last rows may be unexposed
    n = len(ids)
    vectors = np.frombuffer(b"".join(ids), dtype=float).reshape(n, spec.p)
    q = np.bincount(np.array(observed, dtype=np.intp), minlength=n).astype(np.int64)
    return UniqueStatTable(vectors=vectors, q=q, m=m)
