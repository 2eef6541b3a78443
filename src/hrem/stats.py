"""Statistic vectors s(t, i, j, A_t) and the unique-vector likelihood cache.

Each effect contributes one entry of the P-vector of statistics entering
the log-linear hazard, computed as a column over the whole risk set.
Effects fall into three families: exogenous (actor/dyad attributes,
contexts), first-order endogenous (participation shifts, recency ranks,
event counts), and interactions between the two.  A sequence's evolving
endogenous information lives in :class:`SeqState`.

:func:`walk` lays out a history's hazard changepoint segments for every
consumer of the statistics and gives each segment a key, what its matrix
depends on: its context label and previous event when no column reads the
walk state and the keys stay few enough to keep a row of each, the segment
itself otherwise.  Its :class:`Walk` yields the
matrices of the distinct keys a :class:`Block` at a time.  Each effect
computes its column for a whole block in one call (:class:`Segments`): the
exogenous columns once per context label, the participation shifts and
the other columns of the previous event from array operations over the
block, and only the columns that read the state (recency ranks, counts)
once per segment as the walk passes it.  So a block costs a few array
operations per effect, and a syn52 history of 1000 events needs at most
91 matrices.  :meth:`StatisticSpec.matrix` runs the same columns on one
state.
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
    "Block",
    "Segments",
    "Walk",
    "walk",
    "unique_stat_table",
    "pshift_label",
]

PSHIFT_KINDS = ("AB-BA", "AB-BY", "AB-XA", "AB-XB", "AB-XY", "AB-AY")


class SeqState:
    """Endogenous information about a sequence up to (but excluding) time t.

    Tracks the previous event, per-actor lists of distinct most-recent
    out/in-neighbors (most recent first), per-dyad event counts, and the
    current exogenous context.  `send_ranks` and `receive_ranks` are
    (n_nodes x n_nodes) arrays whose [a, b] is 1/rank of b in a's list of
    that direction, 0 when b is absent; the recency columns gather from
    them.  :meth:`apply` rewrites the rows whose lists the event changed,
    row i of the send array and row j of the receive array.  Only a
    consumer whose spec has a column that reads the state folds events
    into one.
    """

    __slots__ = (
        "n_nodes",
        "broadcast",
        "last_event",
        "send_recency",
        "receive_recency",
        "send_ranks",
        "receive_ranks",
        "counts",
        "current_context",
        "n_applied",
        "last_time",
        "_rank_values",
    )

    def __init__(self, n_actors: int, broadcast: int | None = None, cov: CovariateSet | None = None):
        self.n_nodes = n_actors + (1 if broadcast is not None else 0)
        self.broadcast = broadcast
        self.last_event = None
        self.send_recency = [[] for _ in range(self.n_nodes)]
        self.receive_recency = [[] for _ in range(self.n_nodes)]
        self.send_ranks = np.zeros((self.n_nodes, self.n_nodes))
        self.receive_ranks = np.zeros((self.n_nodes, self.n_nodes))
        self._rank_values = 1.0 / np.arange(1, self.n_nodes + 1)
        self.counts = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        self.current_context = cov.context_at(0.0) if cov is not None else None
        self.n_applied = 0
        self.last_time = 0.0

    def apply(self, event, cov: CovariateSet | None = None):
        """Fold one event into the state, in place."""
        t, i, j = event
        if self.n_applied > 0 and t <= self.last_time:
            raise ValueError("out-of-order event at t=%g (last t=%g)" % (t, self.last_time))
        self.last_event = (i, j)
        for lists, ranks, a, b in ((self.send_recency, self.send_ranks, i, j),
                                   (self.receive_recency, self.receive_ranks, j, i)):
            lst = lists[a]
            if b in lst:
                lst.remove(b)
            lst.insert(0, b)
            ranks[a] = 0.0
            ranks[a, lst] = self._rank_values[:len(lst)]
        self.counts[i, j] += 1
        if cov is not None and cov.context_track:
            self.current_context = cov.context_at(t)
        self.n_applied += 1
        self.last_time = t
        return self


# ---------------------------------------------------------------------------
# Effects


class Segments:
    """Changepoint segments whose statistic columns one call computes.

    `contexts` holds each segment's context label, and row n of the
    (n, 2) integer array `prev` the sender and recipient of the event
    before segment n, (-1, -1) before the first event.  `state` is the
    :class:`SeqState` that every segment sees: the walk sets it only on a
    segment of its own, for the columns that read it.
    """

    __slots__ = ("contexts", "prev", "state", "_roles")

    def __init__(self, contexts, prev=None, state=None):
        self.contexts = contexts
        self.prev = prev
        self.state = state
        self._roles = None

    def in_context(self, label) -> np.ndarray:
        """(n, 1) booleans: which segments are in context `label`."""
        return np.array([c == label for c in self.contexts])[:, None]

    def roles(self, risk: RiskSet) -> tuple:
        """(sender is a, sender is b, recipient is a, recipient is b) for the previous event (a, b).

        Four (n, |R|) boolean arrays, all False before the first event,
        gathered once per segments.
        """
        if self._roles is None:
            on = risk.actor_masks.take(self.prev, axis=0)  # row -1 is all False
            self._roles = (on[:, 0, 0], on[:, 1, 0], on[:, 0, 1], on[:, 1, 1])
        return self._roles


@dataclass(frozen=True)
class Effect:
    @property
    def endogenous(self) -> bool:
        """True when the column depends on the walk: on the events before a segment.

        Other columns depend only on the covariates, the risk set and the
        context label, so :class:`StatisticSpec` computes them once per label.
        """
        return False

    @property
    def reads_state(self) -> bool:
        """True when the column reads the running :class:`SeqState`.

        The walk computes such a column once per segment, while the state
        is current; every other endogenous column it computes for a whole
        block of segments from their previous events and contexts.
        """
        return False

    def column(self, segs, cov, risk):
        """The statistic of every risk-set dyad in each of the n segments `segs`.

        An array that broadcasts to (n, |R|), its columns in the order of
        ``risk.dyads``.
        """
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
    def column(self, segs, cov, risk):
        return np.ones(len(risk))


@dataclass(frozen=True)
class SenderAttr(Effect):
    attr: str
    level: object = None

    def column(self, segs, cov, risk):
        return _actor_indicator(cov, self.attr, self.level, risk.n_actors)[risk.senders]


@dataclass(frozen=True)
class ReceiverAttr(Effect):
    attr: str
    level: object = None

    def column(self, segs, cov, risk):
        return _recipient_indicator(cov, self.attr, self.level, risk)[risk.recipients]


@dataclass(frozen=True)
class DyadMatch(Effect):
    attr: str

    def column(self, segs, cov, risk):
        vals = cov.actor_values(self.attr, risk.n_actors)
        match = (vals[:, None] == vals).astype(float)
        if risk.broadcast_actor is not None:  # the broadcast recipient takes the room mean
            match = np.column_stack([match, match.mean(axis=1)])
        return match[risk.senders, risk.recipients]


@dataclass(frozen=True)
class DyadValue(Effect):
    attr: str

    def column(self, segs, cov, risk):
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

    def column(self, segs, cov, risk):
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

    def column(self, segs, cov, risk):
        s_a, s_b, r_a, r_b = segs.roles(risk)
        k = self.kind  # on booleans, x > y is x & ~y
        if k == "AB-BA":
            return s_b & r_a
        if k == "AB-BY":
            return s_b > (r_a | r_b)
        if k == "AB-XA":
            return r_a > (s_a | s_b)
        if k == "AB-XB":
            return r_b > (s_a | s_b)
        if k == "AB-XY":
            return (segs.prev[:, :1] >= 0) > (s_a | s_b | r_a | r_b)
        return s_a > (r_a | r_b)  # AB-AY


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
    endogenous = reads_state = True

    def column(self, segs, cov, risk):
        return segs.state.send_ranks[risk.senders, risk.recipients]


@dataclass(frozen=True)
class RecencyReceive(Effect):
    endogenous = reads_state = True

    def column(self, segs, cov, risk):
        return segs.state.receive_ranks[risk.senders, risk.recipients]


@dataclass(frozen=True)
class ContextIndicator(Effect):
    label: str

    def column(self, segs, cov, risk):
        return segs.in_context(self.label).astype(float)


@dataclass(frozen=True)
class ContextInteraction(Effect):
    base: Effect
    label: str

    @property
    def endogenous(self) -> bool:
        return self.base.endogenous

    @property
    def reads_state(self) -> bool:
        return self.base.reads_state

    def column(self, segs, cov, risk):
        return np.where(segs.in_context(self.label), self.base.column(segs, cov, risk), 0.0)

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

    @property
    def endogenous(self) -> bool:
        return self.prev

    def column(self, segs, cov, risk):
        bc = risk.broadcast_actor
        if bc is None:
            return np.zeros(len(risk))
        sender_ok = (np.ones(risk.n_actors, dtype=bool) if self.attr is None else
                     _actor_indicator(cov, self.attr, self.level, risk.n_actors).astype(bool))
        hit = (risk.recipients == bc) & sender_ok[risk.senders]
        if self.prev:
            # The segments that follow such a broadcast; -1 (no event yet) is never bc.
            hit = ((segs.prev[:, 1] == bc) & sender_ok[segs.prev[:, 0]])[:, None] & hit
        return hit


@dataclass(frozen=True)
class EventCount(Effect):
    """N_ij(t-) raised to a power; unbounded and explosion-prone for power > 0."""

    power: float = 1.0

    endogenous = reads_state = True

    def __post_init__(self):
        object.__setattr__(self, "power", float(self.power))

    def column(self, segs, cov, risk):
        c = segs.state.counts[risk.senders, risk.recipients].astype(float)
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
        object.__setattr__(self, "_dynamic", dynamic)
        for name, reads in (("_stateful", True), ("_arrayed", False)):
            object.__setattr__(self, name, tuple((d, self.effects[p]) for d, p in enumerate(dynamic)
                                                 if self.effects[p].reads_state == reads))

    @property
    def p(self) -> int:
        return len(self.effects)

    def check(self, cov: CovariateSet, n_actors: int):
        for eff in self.effects:
            eff.check(cov, n_actors)

    def vector(self, state: SeqState, cov: CovariateSet, risk: RiskSet, i: int, j: int,
               context=_UNSET) -> np.ndarray:
        """Statistic vector of dyad (i, j): its row of :meth:`matrix`."""
        row = int(risk.rows(i, j)[0])
        if row < 0:
            raise KeyError((i, j))
        return self.matrix(state, cov, risk, context)[row]

    def matrix(self, state: SeqState, cov: CovariateSet, risk: RiskSet,
               context=_UNSET) -> np.ndarray:
        """|R| x P statistic matrix of `state`, one row per risk-set dyad.

        It is the matrix of one segment in `context` (by default the
        state's), from the exogenous block and the effect columns that
        :func:`walk` uses.
        """
        if state.n_nodes < risk.n_nodes:
            raise ValueError("the state has %d nodes, fewer than the %d of the risk set"
                             % (state.n_nodes, risk.n_nodes))
        if context is _UNSET:
            context = state.current_context
        segs = Segments([context], np.array([state.last_event or (-1, -1)]), state)
        stack, codes = self._stack(cov, risk, segs.contexts)
        out = stack[codes[0]].copy()
        for p in self._dynamic:
            out[:, p] = self.effects[p].column(segs, cov, risk)
        return out

    def _stack(self, cov: CovariateSet, risk: RiskSet, contexts) -> tuple:
        """(stack, codes): the exogenous columns of every context label, and the labels' codes.

        The exogenous columns depend only on (cov, risk, context).  They are
        computed once per context label and kept in `stack`, a
        (labels, |R|, P) array whose endogenous columns are 0, in a
        one-entry cache keyed by the identity of cov and risk; ``codes[n]``
        is the position of ``contexts[n]`` in it.
        """
        cache = self.__dict__.get("_static")
        if cache is None or cache[0] is not cov or cache[1] is not risk:
            cache = self.__dict__["_static"] = [cov, risk, {}, np.zeros((0, len(risk), self.p))]
        codes = cache[2]
        try:
            return cache[3], [codes[c] for c in contexts]
        except KeyError:  # a label not seen yet
            pass
        new = [c for c in dict.fromkeys(contexts) if c not in codes]
        block = np.zeros((len(new), len(risk), self.p))
        for p, eff in enumerate(self.effects):
            if not eff.endogenous:
                block[:, :, p] = eff.column(Segments(new), cov, risk)
        codes.update({c: len(codes) + n for n, c in enumerate(new)})
        cache[3] = np.concatenate([cache[3], block])
        return cache[3], [codes[c] for c in contexts]

    def _block(self, segs: Segments, cov: CovariateSet, risk: RiskSet, dyn) -> "Block":
        """The :class:`Block` of `segs`, whose columns that read the state are in `dyn`.

        Every other endogenous column is computed here for all the segments
        at once, and written to its row of `dyn`.
        """
        for d, eff in self._arrayed:
            dyn[d] = eff.column(segs, cov, risk)
        stack, codes = self._stack(cov, risk, segs.contexts)
        return Block(stack, np.array(codes), self._dynamic, dyn, segs.contexts)

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
    :func:`unique_stat_table` builds it a block of the walk's keys at a
    time: it compares the endogenous columns of consecutive keys in one
    array operation per block and hashes only the rows that changed, so a
    build costs O(K * |R| * D) array work for K keys and D endogenous
    effects, plus one dict lookup of P floats per changed row, and
    O(S * |R|) to gather and add the exposures of S segments.
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


class Block:
    """Statistic matrices of consecutive keys of one :class:`Walk`.

    The matrices are kept as parts: `codes[b]` is key b's position in
    `stack`, the spec's (contexts, |R|, P) stack of exogenous columns, and
    `dyn[d]` is the (B, |R|) array of the d-th endogenous column, which is
    column `columns[d]` of the matrices.  `contexts[b]` is key b's context
    label.  The walk sets `keys`, the slice of the block's positions in its
    order of keys, and `slots`, that of their rows in a consumer's per-key
    arrays (:class:`Walk`).
    :meth:`matrices` assembles the matrices, :meth:`rows` only some rows,
    and :meth:`log_hazards` the matrices' products with beta.
    """

    __slots__ = ("stack", "codes", "columns", "dyn", "contexts", "keys", "slots")

    def __init__(self, stack, codes, columns, dyn, contexts):
        self.stack = stack
        self.codes = codes
        self.columns = columns
        self.dyn = dyn
        self.contexts = contexts

    def matrices(self) -> np.ndarray:
        """The (B, |R|, P) statistic matrices of the block's keys."""
        x = self.stack[self.codes]
        for d, p in enumerate(self.columns):
            x[:, :, p] = self.dyn[d]
        return x

    def log_hazards(self, beta) -> np.ndarray:
        """(B, |R|) log hazards, each key's own x @ beta."""
        return self.matrices() @ beta

    def rows(self, b, r) -> np.ndarray:
        """The statistic rows of dyads `r` in keys `b` (index arrays): (n, P)."""
        out = self.stack[self.codes[b], r]
        if self.columns:
            out[:, list(self.columns)] = self.dyn[:, b, r].T
        return out


class Walk:
    """The changepoint segments of one history and the keys of their statistic matrices.

    Per segment s: `dur[s]` and `contexts[s]`; `interval[s]`, the index of
    the event that ends its interval (M for the censored tail); `event[s]`
    and `row[s]`, the event that ends the segment and its risk-set row, -1
    for a segment that ends at a context switch or at tau.  A segment of
    zero duration holds only its event (the context switched at the event's
    own time) and has no exposure.

    Segments with one key share one matrix.  For a spec with no column that
    reads the state, a key is a (context label, previous event) pair, and
    each event-only segment a key of its own, as long as the keys' rows fit
    in _KEY_BUDGET risk-set rows; otherwise, and for any other spec, each
    segment is its own key.  `key[s]` numbers the keys in order of first
    occurrence and `first[k]` is key k's first segment.  A consumer keeps
    what it derives from key k in row ``k % n_slots`` of an array of
    `n_slots` rows: one per key when keys repeat, one block's otherwise,
    so those arrays hold at most _KEY_BUDGET risk-set rows, or one block's.
    """

    __slots__ = ("dur", "contexts", "interval", "event", "row", "key", "first", "n_slots",
                 "_by_key", "_args")

    def blocks(self):
        """Yield (block, ready): the matrices of the keys in order, a :class:`Block` of
        B = max(1, _WALK_BLOCK // |R|) keys at a time, and the segments that they complete.

        `ready` holds those segments as (part, slots) pairs: a slice of at
        most B segments, and the rows of their keys in a consumer's per-key
        arrays, a slice when each segment is its own key.  Each effect's
        column is computed for the whole block in one call from the keys'
        contexts and previous events, except the columns that read the
        state, which one pass that advances the state computes key by key.
        So a block costs O(B * |R| * D) memory for D endogenous effects.
        """
        spec, history, risk, cov = self._args
        contexts, prev, interval = self._by_key  # of each key's first segment
        state = SeqState(history.n_actors, broadcast=risk.broadcast_actor, cov=cov)
        # The state folds the events in order, as tuples of Python scalars.
        events = zip(history.times.tolist(), history.senders.tolist(), history.recipients.tolist())
        size = max(1, _WALK_BLOCK // len(risk))
        own = len(self.first) == len(self.dur)  # each segment is its own key
        done = 0
        for at in range(0, len(self.first), size):
            keys = slice(at, min(at + size, len(self.first)))
            dyn = np.empty((len(spec._dynamic), keys.stop - at, len(risk)))
            for b, m in enumerate(interval[keys].tolist() if spec._stateful else ()):
                while state.n_applied < m:
                    state.apply(next(events), cov)
                one = Segments([contexts[at + b]], state=state)
                for d, eff in spec._stateful:
                    dyn[d, b] = eff.column(one, cov, risk)
            block = spec._block(Segments(contexts[keys], prev[keys]), cov, risk, dyn)
            block.keys = keys
            block.slots = slice(at % self.n_slots, at % self.n_slots + keys.stop - at)
            end = self.first[at + size] if at + size < len(self.first) else len(self.dur)
            ready = []
            for a in range(done, end, size):
                part = slice(a, min(a + size, end))
                # Segments that are their own keys sit in the slots in order.
                ready.append((part, slice(a % self.n_slots, a % self.n_slots + part.stop - a)
                              if own else self.key[part]))
            yield block, ready
            done = end


# Risk-set rows in one block of the walk, max(1, _WALK_BLOCK // |R|)
# keys: enough for a few array operations per effect to replace a
# block's per-key calls, few enough that the consumers' per-row arrays
# keep peak memory flat.
_WALK_BLOCK = 1 << 12

# Risk-set rows that the consumers of a walk whose keys repeat may keep, one
# per row of every key (2 MB per float array): past it, each segment is its
# own key and they keep a block's rows.
_KEY_BUDGET = 1 << 18


def walk(spec: StatisticSpec, history: EventHistory, risk: RiskSet, cov: CovariateSet,
         start: int = 0) -> Walk:
    """The :class:`Walk` of a history's hazard intervals, from interval `start` on.

    The interval before event m (from event m-1, or 0) splits into pieces
    at context switches; the last piece ends in the event, and the censored
    tail (from the last event to tau) ends in none.  When the event's
    context label differs from its last piece's (a switch at the event's
    own time), the event gets a segment of its own.  Events before `start`
    only advance the state.  All of it comes from array operations over the
    whole history: a bisection of the track's starts finds the pieces and
    the contexts, and one sort the keys.
    """
    times, senders, recipients = history.times, history.senders, history.recipients
    earlier = np.append(-np.inf, times)[:-1]
    late = np.flatnonzero(~(times > earlier))
    if len(late):
        raise ValueError("out-of-order event at t=%g (last t=%g)"
                         % (times[late[0]], earlier[late[0]]))
    rows = risk.rows(senders[start:], recipients[start:])
    if (rows < 0).any():
        m = start + int(np.argmin(rows))
        raise ValueError("event %d: dyad (%d, %d) not in risk set" % (m, senders[m], recipients[m]))
    # Interval m runs from event m-1 (or 0) to event m, or to tau for m = M.
    ivl = np.arange(start, history.m + 1)
    t0, t1 = np.append(0.0, times)[ivl], np.append(times, history.tau)[ivl]
    starts = np.array(cov._starts)
    cut = np.append(starts, [0.0, 0.0])  # the padding serves only indices that np.where drops
    labels = [lab for _, lab in cov.context_track] + [None]  # label -1: before the first start
    first = {}
    codes = np.array([first.setdefault(x, n) for n, x in enumerate(labels)])  # equal labels, equal codes
    lo = starts.searchsorted(t0, "right")  # the first switch inside the interval
    pieces = np.where(t1 > t0, starts.searchsorted(t1, "left") - lo + 1, 0)
    # Each interval's pieces, then a segment of its event's own, dropped below unless needed.
    count = pieces + (ivl < history.m)
    seg = np.repeat(np.arange(len(ivl)), count)
    k = np.arange(len(seg)) - np.repeat(count.cumsum() - count, count)  # position in the interval
    own = k == pieces[seg]
    a = np.where(own, t1[seg], np.where(k > 0, cut[lo[seg] + k - 1], t0[seg]))
    b = np.where(k < pieces[seg] - 1, cut[lo[seg] + k], t1[seg])
    lab = starts.searchsorted(a, "right") - 1
    keep = ~own | (k == 0) | (codes[lab] != codes[np.append(-1, lab[:-1])])
    seg, dur, lab = ivl[seg[keep]], (b - a)[keep], lab[keep]  # seg: each segment's interval
    w = Walk()
    w.dur, w.contexts, w.interval = dur, [labels[x] for x in lab.tolist()], seg
    w.event = np.where(np.append(seg[1:] != seg[:-1], True) & (seg < history.m), seg, -1)
    w.row = np.append(rows, -1)[np.where(w.event >= 0, w.event - start, -1)]
    prev = np.column_stack([np.append(-1, senders), np.append(-1, recipients)])[seg]
    w._args = (spec, history, risk, cov)
    w.key = w.first = np.arange(len(dur))
    w.n_slots = max(1, _WALK_BLOCK // len(risk))
    w._by_key = (w.contexts, prev, seg)
    if spec._stateful:
        return w
    # (context, previous sender, previous recipient) as one integer, and
    # each event-only segment a negative key of its own.
    n = risk.n_nodes + 1
    whole = (codes[lab] * n + prev[:, 0] + 1) * n + prev[:, 1] + 1
    _, at, inverse = np.unique(np.where(dur > 0, whole, -1 - np.arange(len(dur))),
                               return_index=True, return_inverse=True)
    if len(at) * len(risk) > _KEY_BUDGET:
        return w
    w.key, w.first = np.argsort(np.argsort(at))[inverse], np.sort(at)
    w.n_slots = max(1, len(at))
    w._by_key = ([w.contexts[s] for s in w.first.tolist()], prev[w.first], seg[w.first])
    return w


def _every(mask):
    """`mask` as an index: a slice, which indexes with a view, when it holds only True."""
    return slice(None) if mask.all() else mask


def unique_stat_table(spec: StatisticSpec, history: EventHistory, risk: RiskSet,
                      cov: CovariateSet) -> UniqueStatTable:
    """Build the unique-vector cache for one sequence.

    Exposures accumulate piecewise across context boundaries, which add
    hazard changepoints between events.  A row is keyed by its bytes, so
    deduplication is exact bitwise equality of the float64 vectors; rows
    keep their order of first occurrence, and each exposure is summed in
    event order.  The walk builds one matrix per key (:class:`Walk`).  An
    exposed key's matrix differs from the previous exposed key's only in
    some rows, so each block compares every key's endogenous columns
    bitwise with the previous key's in one operation, and its exogenous
    columns only across a context switch, and looks up only the rows that
    differ; the others keep their ids.  An event-only key looks up only its
    event's row.  Keys come in order of first occurrence, and an exposed
    key is first met in an exposed segment, so the lookups meet the rows in
    the order the segments do.  Each segment then gathers its row ids from
    its key, and the exposures are added in segment order, as a
    segment-by-segment build adds them.
    """
    w = walk(spec, history, risk, cov)
    row_key = np.dtype((np.void, 8 * spec.p))
    ids = defaultdict(itertools.count().__next__)  # row bytes -> id, in order of first occurrence
    n_rows = len(risk)
    exposed, hit = w.dur > 0, w.event >= 0
    key_open = exposed[w.first]
    key_ids = np.empty((w.n_slots, n_rows), dtype=np.intp)  # each key's row ids (Walk.n_slots)
    m = np.zeros(0)
    observed = []
    prev = None  # (context, exogenous rows, endogenous columns, row ids) of the last exposed key
    for block, ready in w.blocks():
        opened = key_open[block.keys]
        sel = _every(opened)  # the exposed keys
        pos = np.arange(len(opened))[sel]
        # Compared as uint64, which keeps 0.0 and -0.0 apart.
        codes, dyn = block.codes[sel], block.dyn[:, sel].view(np.uint64)
        static = block.stack.view(np.uint64)
        look = np.zeros((len(opened), n_rows), dtype=bool)
        if len(codes):
            # Keys in one context share their exogenous rows; across a
            # switch, the rows whose exogenous columns differ change too.
            changed = np.empty((len(codes), n_rows), dtype=bool)
            changed[1:] = (dyn[:, 1:] != dyn[:, :-1]).any(axis=0)
            for k in (codes[1:] != codes[:-1]).nonzero()[0] + 1:
                changed[k] |= (static[codes[k]] != static[codes[k - 1]]).any(axis=1)
            if prev is None:
                changed[0] = True
            else:
                changed[0] = (dyn[:, 0] != prev[2]).any(axis=0)
                if block.contexts[pos[0]] != prev[0]:
                    changed[0] |= (static[codes[0]] != prev[1]).any(axis=1)
            look[sel] = changed
        if not opened.all():
            only = (~opened).nonzero()[0]
            look[only, w.row[w.first[block.keys][only]]] = True
        # Lookups in key order, then row order: the order of first occurrence.
        block_ids = np.empty(look.shape, dtype=np.intp)
        block_ids[look] = np.fromiter(
            map(ids.__getitem__, block.rows(*look.nonzero()).view(row_key).ravel().tolist()),
            dtype=np.intp)
        if len(codes):
            # A row that did not change keeps the id of the last key that looked it up.
            last = np.where(changed, np.arange(1, len(codes) + 1)[:, None], 0)
            np.maximum.accumulate(last, axis=0, out=last)
            prev_ids = np.zeros(n_rows, dtype=np.intp) if prev is None else prev[3]
            carried = np.concatenate([prev_ids[None], block_ids[sel]])
            block_ids[sel] = carried[last, np.arange(n_rows)]
            prev = (block.contexts[pos[-1]], static[codes[-1]], dyn[:, -1].copy(),
                    block_ids[pos[-1]])
        key_ids[block.slots] = block_ids
        # The segments now complete gather their keys' ids: exposures in segment order.
        m = np.concatenate([m, np.zeros(len(ids) - len(m))])
        for part, slots in ready:
            seg_ids, on, ends = key_ids[slots], _every(exposed[part]), hit[part]
            np.add.at(m, seg_ids[on].ravel(), np.repeat(w.dur[part][on], n_rows))
            observed.extend(seg_ids[ends, w.row[part][ends]].tolist())
    n = len(ids)
    vectors = np.frombuffer(b"".join(ids), dtype=float).reshape(n, spec.p)
    q = np.bincount(np.array(observed, dtype=np.intp), minlength=n).astype(np.int64)
    return UniqueStatTable(vectors=vectors, q=q, m=m)
