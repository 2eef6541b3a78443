"""Event sequence data model, ingestion, and validation.

An event history is an ordered sequence of (time, sender, recipient)
triples over a fixed actor set observed on the window [0, tau).  Actor
ids are dense integers 0..N-1 after ingestion; the optional broadcast
actor ("send to all") gets id N and only ever appears as a recipient.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EventHistory",
    "RiskSet",
    "CovariateSet",
    "ValidationError",
    "build_risk_set",
    "load_history",
    "load_covariates",
    "validate",
    "events_to_csv",
    "history_to_json",
]


class ValidationError(ValueError):
    """Raised when ingested data violates a structural invariant."""


@dataclass(frozen=True)
class EventHistory:
    """Ordered sequence of dyadic events on [0, tau).

    events: tuple of (t, sender, recipient) with strictly increasing t.
    actor_labels maps dense ids back to the original labels when the
    history came from a file.
    """

    events: tuple
    tau: float
    n_actors: int
    sequence_id: str = "seq"
    actor_labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(tuple(e) for e in self.events))

    @property
    def m(self) -> int:
        return len(self.events)

    @property
    def times(self) -> np.ndarray:
        return np.array([e[0] for e in self.events], dtype=float)

    @property
    def senders(self) -> np.ndarray:
        return np.array([e[1] for e in self.events], dtype=int)

    @property
    def recipients(self) -> np.ndarray:
        return np.array([e[2] for e in self.events], dtype=int)

    def truncate(self, n_events: int, pad: float | None = None) -> "EventHistory":
        """First `n_events` events with the window shortened accordingly.

        The new tau is the last kept time plus `pad` (default: the mean
        inter-event gap of the kept segment) so the censoring term of the
        likelihood stays well-defined.
        """
        if n_events <= 0 or n_events > self.m:
            raise ValueError("n_events must be in 1..M")
        kept = self.events[:n_events]
        t_last = kept[-1][0]
        if pad is None:
            pad = t_last / n_events
        return EventHistory(
            events=kept,
            tau=t_last + pad,
            n_actors=self.n_actors,
            sequence_id=self.sequence_id,
            actor_labels=self.actor_labels,
        )


@dataclass(frozen=True)
class RiskSet:
    """Set of dyads eligible to occur, fixed over the window.

    Reflexive pairs are excluded.  If a broadcast actor is present it
    appears only on the recipient side.
    """

    dyads: tuple
    broadcast_actor: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dyads", tuple(tuple(d) for d in self.dyads))

    def __len__(self):
        return len(self.dyads)

    def __contains__(self, dyad):
        return tuple(dyad) in self.index

    @property
    def index(self) -> dict:
        # dyad -> row position, cached on first use
        idx = self.__dict__.get("_index")
        if idx is None:
            idx = {d: r for r, d in enumerate(self.dyads)}
            self.__dict__["_index"] = idx
        return idx

    @property
    def senders(self) -> np.ndarray:
        arr = self.__dict__.get("_senders")
        if arr is None:
            arr = np.array([d[0] for d in self.dyads], dtype=int)
            self.__dict__["_senders"] = arr
        return arr

    @property
    def recipients(self) -> np.ndarray:
        arr = self.__dict__.get("_recipients")
        if arr is None:
            arr = np.array([d[1] for d in self.dyads], dtype=int)
            self.__dict__["_recipients"] = arr
        return arr

    @property
    def actor_masks(self) -> tuple:
        # (senders == a, recipients == a) as rows a of two boolean arrays
        masks = self.__dict__.get("_actor_masks")
        if masks is None:
            nodes = np.arange(max(self.senders.max(), self.recipients.max()) + 1)[:, None]
            masks = (self.senders == nodes, self.recipients == nodes)
            self.__dict__["_actor_masks"] = masks
        return masks


def build_risk_set(n_actors: int, include_broadcast: bool = False) -> RiskSet:
    """All non-reflexive ordered pairs, optionally plus a broadcast recipient.

    The broadcast actor gets id `n_actors` and every real actor may send
    to it, so |R| = n(n-1) + n with broadcast.
    """
    if n_actors < 2:
        raise ValueError("need at least 2 actors")
    dyads = [(i, j) for i in range(n_actors) for j in range(n_actors) if i != j]
    broadcast = None
    if include_broadcast:
        broadcast = n_actors
        dyads.extend((i, broadcast) for i in range(n_actors))
    return RiskSet(dyads=tuple(dyads), broadcast_actor=broadcast)


@dataclass(frozen=True)
class CovariateSet:
    """Actor attributes, dyad attributes, and the exogenous context track.

    actor_attrs: name -> {actor id: value} (categorical str or real).
    dyad_attrs: name -> {(i, j): real}; missing dyads read as 0.
    context_track: ordered tuple of (start time, label) covering [0, tau).
    """

    actor_attrs: dict = field(default_factory=dict)
    dyad_attrs: dict = field(default_factory=dict)
    context_track: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "context_track", tuple(tuple(c) for c in self.context_track))

    def context_at(self, t: float):
        label = None
        for start, lab in self.context_track:
            if start <= t:
                label = lab
            else:
                break
        return label

    def context_segments(self, t0: float, t1: float):
        """Yield (duration, label) pieces partitioning the interval (t0, t1]."""
        if t1 <= t0:
            return
        if not self.context_track:
            yield (t1 - t0, None)
            return
        cuts = [t0]
        for start, _ in self.context_track:
            if t0 < start < t1:
                cuts.append(start)
        cuts.append(t1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            yield (b - a, self.context_at(a))

    def actor_values(self, name: str, n_actors: int) -> np.ndarray:
        """Values of an actor attribute for dense ids 0..n_actors-1."""
        try:
            attr = self.actor_attrs[name]
        except KeyError:
            raise KeyError("unknown actor attribute %r" % name)
        return np.array([attr[i] for i in range(n_actors)])

    def dyad_value(self, name: str, i: int, j: int) -> float:
        try:
            attr = self.dyad_attrs[name]
        except KeyError:
            raise KeyError("unknown dyad attribute %r" % name)
        return float(attr.get((i, j), 0.0))


def validate(history: EventHistory, risk: RiskSet, cov: CovariateSet | None = None) -> list:
    """Check all structural invariants; return one message per violation.

    Violations are data, not exceptions: an empty list means the inputs
    are consistent.
    """
    report = []
    if history.tau <= 0:
        report.append("tau must be positive, got %r" % history.tau)
    if history.n_actors < 1:
        report.append("n_actors must be positive, got %r" % history.n_actors)
    prev_t = 0.0
    for m, (t, i, j) in enumerate(history.events):
        if t <= prev_t:
            report.append("event %d: times not strictly increasing (%g after %g)" % (m, t, prev_t))
        prev_t = t
        if t >= history.tau:
            report.append("event %d: time %g outside observation window [0, %g)" % (m, t, history.tau))
        if (i, j) not in risk.index:
            report.append("event %d: dyad (%d, %d) not in risk set" % (m, i, j))
        if i == j:
            report.append("event %d: reflexive event (%d, %d)" % (m, i, j))
        if risk.broadcast_actor is not None and i == risk.broadcast_actor:
            report.append("event %d: broadcast actor %d cannot send" % (m, i))
    for (i, j) in risk.dyads:
        if i == j:
            report.append("risk set contains reflexive pair (%d, %d)" % (i, j))
        if risk.broadcast_actor is not None and i == risk.broadcast_actor:
            report.append("risk set has broadcast actor %d as sender" % i)
    if cov is not None and cov.context_track:
        starts = [s for s, _ in cov.context_track]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            report.append("context intervals not disjoint/ordered")
        for m, (t, _, _) in enumerate(history.events):
            if cov.context_at(t) is None:
                report.append("event %d: time %g not covered by context track" % (m, t))
    return report


def _parse_events_csv(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["t", "sender", "recipient"]:
        raise ValidationError("expected CSV header 't,sender,recipient', got %r" % header)
    events = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 3:
            raise ValidationError("line %d: expected 3 fields, got %d" % (lineno, len(row)))
        try:
            t = float(row[0])
        except ValueError:
            raise ValidationError("line %d: bad time %r" % (lineno, row[0]))
        events.append((t, row[1].strip(), row[2].strip()))
    return events


def _dense_ids(raw_events, broadcast_label=None):
    """Map original actor labels to dense integer ids (broadcast last)."""
    labels = sorted(
        {e[1] for e in raw_events} | {e[2] for e in raw_events} - {broadcast_label},
        key=str,
    )
    if broadcast_label is not None and broadcast_label in labels:
        labels.remove(broadcast_label)
    mapping = {lab: i for i, lab in enumerate(labels)}
    if broadcast_label is not None:
        mapping[broadcast_label] = len(labels)
    return mapping, tuple(labels)


def load_history(
    source,
    format: str = "csv",
    *,
    tau: float | None = None,
    covariates: CovariateSet | None = None,
    n_actors: int | None = None,
    broadcast_label=None,
    sequence_id: str = "seq",
    jitter: bool = False,
    jitter_eps: float = 1e-9,
):
    """Parse and validate an event sequence from a byte/text stream or path.

    CSV carries only events (header `t,sender,recipient`); tau must then
    come from the `tau` argument or an accompanying covariate JSON.  The
    JSON format is self-contained: `events` plus the covariate keys
    accepted by :func:`load_covariates`.

    Returns (EventHistory, CovariateSet).  With `jitter=True` tied times
    are nudged apart deterministically instead of rejected.
    """
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()

    cov = covariates
    if format == "csv":
        raw = _parse_events_csv(text)
    elif format == "json":
        doc = json.loads(text)
        raw = [(float(e[0]), e[1], e[2]) for e in doc.get("events", [])]
        cov, meta = _covariates_from_doc(doc)
        tau = meta.get("tau", tau)
        broadcast_label = meta.get("broadcast_id", broadcast_label)
    else:
        raise ValueError("unknown format %r" % format)

    if tau is None:
        raise ValidationError("tau is required and was not provided")

    # Integer-looking labels stay integers so ids are stable.
    def norm(x):
        if isinstance(x, str):
            try:
                return int(x)
            except ValueError:
                return x
        return x

    raw = [(t, norm(i), norm(j)) for t, i, j in raw]
    if broadcast_label is not None:
        broadcast_label = norm(broadcast_label)
    mapping, labels = _dense_ids(raw, broadcast_label)
    if n_actors is not None and n_actors > len(labels):
        # Pad with unused integer labels so silent actors stay in the risk set.
        pool = (x for x in range(2 * n_actors) if x not in mapping and x != broadcast_label)
        labels = list(labels)
        while len(labels) < n_actors:
            labels.append(next(pool))
        labels = tuple(labels)
        mapping = {lab: i for i, lab in enumerate(labels)}
        if broadcast_label is not None:
            mapping[broadcast_label] = len(labels)

    events = [(t, mapping[i], mapping[j]) for t, i, j in raw]
    if jitter:
        fixed = []
        prev = -math.inf
        for t, i, j in events:
            if t <= prev:
                t = prev + jitter_eps
            fixed.append((t, i, j))
            prev = t
        events = fixed

    n_real = len(labels)
    history = EventHistory(
        events=tuple(events),
        tau=float(tau),
        n_actors=n_real,
        sequence_id=sequence_id,
        actor_labels=labels,
    )
    if cov is None:
        cov = CovariateSet()
    risk = build_risk_set(n_real, include_broadcast=broadcast_label is not None)
    report = validate(history, risk, cov)
    if report:
        raise ValidationError("; ".join(report))
    return history, cov


def _covariates_from_doc(doc):
    actor_attrs: dict = {}
    for rec in doc.get("actors", []):
        aid = rec["id"]
        for name, value in rec.items():
            if name == "id":
                continue
            actor_attrs.setdefault(name, {})[aid] = value
    dyad_attrs: dict = {}
    for rec in doc.get("dyads", []):
        key = (rec["i"], rec["j"])
        for name, value in rec.items():
            if name in ("i", "j"):
                continue
            dyad_attrs.setdefault(name, {})[key] = float(value)
    contexts = tuple((float(c["start"]), c["label"]) for c in doc.get("contexts", []))
    cov = CovariateSet(actor_attrs=actor_attrs, dyad_attrs=dyad_attrs, context_track=contexts)
    meta = {k: doc[k] for k in ("tau", "broadcast_id") if k in doc}
    return cov, meta


def load_covariates(source):
    """Read the covariate/context JSON; returns (CovariateSet, meta dict).

    meta carries `tau` and `broadcast_id` when present.
    """
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _covariates_from_doc(json.loads(text))


def events_to_csv(history: EventHistory) -> str:
    """Serialize events in the ingestion CSV format (dense ids)."""
    out = ["t,sender,recipient"]
    for t, i, j in history.events:
        out.append("%r,%d,%d" % (t, i, j))
    return "\n".join(out) + "\n"


def _covariates_document(cov: CovariateSet, n_actors: int) -> dict:
    """The `actors`, `dyads` and `contexts` keys read by :func:`load_covariates`.

    Every actor id below `n_actors` gets a record, even without attributes.
    """
    actors = []
    ids = sorted({i for attrs in cov.actor_attrs.values() for i in attrs} | set(range(n_actors)))
    for aid in ids:
        rec = {"id": aid}
        for name, attrs in cov.actor_attrs.items():
            if aid in attrs:
                rec[name] = attrs[aid]
        actors.append(rec)
    dyads = []
    keys = sorted({k for attrs in cov.dyad_attrs.values() for k in attrs})
    for (i, j) in keys:
        rec = {"i": i, "j": j}
        for name, attrs in cov.dyad_attrs.items():
            if (i, j) in attrs:
                rec[name] = attrs[(i, j)]
        dyads.append(rec)
    return {
        "actors": actors,
        "dyads": dyads,
        "contexts": [{"start": s, "label": l} for s, l in cov.context_track],
    }


def history_to_json(history: EventHistory, cov: CovariateSet, broadcast: int | None = None) -> str:
    """Self-contained JSON with events, covariates, contexts, and tau."""
    doc = {"events": [[t, i, j] for t, i, j in history.events], "tau": history.tau}
    doc.update(_covariates_document(cov, history.n_actors))
    if broadcast is not None:
        doc["broadcast_id"] = broadcast
    return json.dumps(doc, indent=1)
