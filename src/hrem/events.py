"""Event sequence data model, ingestion, and validation.

An event history is an ordered sequence of (time, sender, recipient)
triples over a fixed actor set observed on the window [0, tau).  Actor
ids are dense integers 0..N-1 after ingestion; the optional broadcast
actor ("send to all") gets id N and only ever appears as a recipient.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
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
    "validate_track",
    "events_to_csv",
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

    def truncate(self, n_events: int) -> "EventHistory":
        """First `n_events` events with the window shortened accordingly.

        The new tau is the last kept time plus the mean inter-event gap of
        the kept segment, so the censoring term of the likelihood stays
        well-defined.
        """
        if n_events <= 0 or n_events > self.m:
            raise ValueError("n_events must be in 1..M")
        kept = self.events[:n_events]
        t_last = kept[-1][0]
        return EventHistory(
            events=kept,
            tau=t_last + t_last / n_events,
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

    @functools.cached_property
    def index(self) -> dict:
        """dyad -> row position."""
        return {d: r for r, d in enumerate(self.dyads)}

    @functools.cached_property
    def senders(self) -> np.ndarray:
        return np.array([d[0] for d in self.dyads], dtype=int)

    @functools.cached_property
    def recipients(self) -> np.ndarray:
        return np.array([d[1] for d in self.dyads], dtype=int)

    @functools.cached_property
    def n_actors(self) -> int:
        """Number of real actors: the broadcast recipient never sends."""
        return int(self.senders.max()) + 1

    @functools.cached_property
    def actor_masks(self) -> np.ndarray:
        """(nodes + 1, 2, |R|) booleans: [a, 0] is senders == a, [a, 1] recipients == a.

        The nodes are the ids up to the largest one; the last row, -1, stands
        for no actor and is all False.
        """
        nodes = np.arange(max(self.senders.max(), self.recipients.max()) + 2)[:, None]
        nodes[-1] = -1
        return np.stack([self.senders == nodes, self.recipients == nodes], axis=1)


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
        track = tuple(tuple(c) for c in self.context_track)
        object.__setattr__(self, "context_track", track)
        # The running maximum of the starts: bisecting it finds the first
        # start after t, as a scan of the track in order does.
        object.__setattr__(self, "_starts", list(itertools.accumulate((s for s, _ in track), max)))

    def context_at(self, t: float):
        """Label of the entry before the first start after t; None before the first start."""
        n = bisect.bisect_right(self._starts, t)
        return self.context_track[n - 1][1] if n else None

    def next_context_change(self, t: float) -> float:
        """The first start after t; inf when no start is."""
        n = bisect.bisect_right(self._starts, t)
        return self._starts[n] if n < len(self._starts) else math.inf

    def context_segments(self, t0: float, t1: float):
        """Yield (duration, label) pieces partitioning the interval (t0, t1].

        The interval is cut at every start inside it; the starts increase
        (:func:`validate_track`).
        """
        if t1 <= t0:
            return
        s = self._starts
        cuts = [t0, *s[bisect.bisect_right(s, t0):bisect.bisect_left(s, t1)], t1]
        for a, b in zip(cuts[:-1], cuts[1:]):
            yield (b - a, self.context_at(a))

    def actor_values(self, name: str, n_actors: int) -> np.ndarray:
        """Values of an actor attribute for dense ids 0..n_actors-1."""
        try:
            attr = self.actor_attrs[name]
        except KeyError:
            raise KeyError("unknown actor attribute %r" % name)
        return np.array([attr[i] for i in range(n_actors)])

    def relabel(self, labels) -> "CovariateSet":
        """The same covariates keyed by dense id, where `labels[i]` is the label of id i.

        Keys that name no label are dropped.
        """
        ids = {_label(lab): i for i, lab in enumerate(labels)}
        actor_attrs = {name: {ids[a]: v for a, v in attr.items() if a in ids}
                       for name, attr in self.actor_attrs.items()}
        dyad_attrs = {name: {(ids[i], ids[j]): v for (i, j), v in attr.items()
                             if i in ids and j in ids}
                      for name, attr in self.dyad_attrs.items()}
        return CovariateSet(actor_attrs, dyad_attrs, self.context_track)


def validate(history: EventHistory, risk: RiskSet, cov: CovariateSet | None = None) -> list:
    """Check all structural invariants; return one message per violation.

    Violations are data, not exceptions: an empty list means the inputs
    are consistent.
    """
    report = []
    window = history.tau > 0  # without a window, one message says so, not one per event
    if not window:
        report.append("tau must be positive, got %r" % history.tau)
    if history.n_actors < 1:
        report.append("n_actors must be positive, got %r" % history.n_actors)
    prev_t = 0.0
    for m, (t, i, j) in enumerate(history.events):
        if t <= prev_t:
            report.append("event %d: times not strictly increasing (%g after %g)" % (m, t, prev_t))
        prev_t = t
        if window and t >= history.tau:
            report.append("event %d: time %g outside observation window [0, %g)"
                          % (m, t, history.tau))
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
    if cov is not None:
        report += validate_track(history, cov)
    return report


def validate_track(history: EventHistory, cov: CovariateSet) -> list:
    """The part of `validate` that checks the context track against the events.

    The starts must increase strictly and the track must cover every event.
    A covariate set without a track gives an empty report at no cost.
    """
    if not cov.context_track:
        return []
    report = []
    starts = [s for s, _ in cov.context_track]
    for n in range(1, len(starts)):
        if starts[n] <= starts[n - 1]:
            report.append("context %d starts at %g, not after context %d at %g"
                          % (n, starts[n], n - 1, starts[n - 1]))
            break
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
        events.append((t, _label(row[1].strip()), _label(row[2].strip())))
    return events


def _label(x):
    """An actor label as read from a file: integer-looking strings become integers."""
    try:
        return int(x) if isinstance(x, str) else x
    except ValueError:
        return x


def _read_text(source) -> str:
    """The text of a byte/text stream or of the file at a path."""
    if hasattr(source, "read"):
        text = source.read()
        return text.decode("utf-8") if isinstance(text, bytes) else text
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def load_history(
    source,
    format: str = "csv",
    *,
    tau: float | None = None,
    n_actors: int | None = None,
    broadcast_label=None,
    sequence_id: str = "seq",
):
    """Parse and validate an event CSV from a byte/text stream or path.

    The CSV carries only events (header `t,sender,recipient`), so tau comes
    from the `tau` argument.  `format` must be "csv".

    Returns (EventHistory, CovariateSet); the covariate set is always empty,
    because covariates come from :func:`load_covariates`.
    """
    if format != "csv":
        raise ValueError("unknown format %r" % format)
    raw = _parse_events_csv(_read_text(source))
    if tau is None:
        raise ValidationError("tau is required and was not provided")

    broadcast_label = _label(broadcast_label)
    labels = {lab for _, i, j in raw for lab in (i, j)} - {broadcast_label}
    if n_actors is not None:
        # Pad with unused integer labels so silent actors stay in the risk set.
        pool = (x for x in range(2 * n_actors) if x not in labels and x != broadcast_label)
        while len(labels) < n_actors:
            labels.add(next(pool))
    # Dense ids in label order: integer labels numerically, then string
    # labels; the broadcast recipient last.
    labels = tuple(sorted(labels, key=lambda lab: (isinstance(lab, str), lab)))
    mapping = {lab: i for i, lab in enumerate(labels)}
    if broadcast_label is not None:
        mapping[broadcast_label] = len(labels)

    events = [(t, mapping[i], mapping[j]) for t, i, j in raw]
    n_real = len(labels)
    history = EventHistory(
        events=tuple(events),
        tau=float(tau),
        n_actors=n_real,
        sequence_id=sequence_id,
        actor_labels=labels,
    )
    risk = build_risk_set(n_real, include_broadcast=broadcast_label is not None)
    report = validate(history, risk)
    if report:
        raise ValidationError("; ".join(report))
    return history, CovariateSet()


def load_covariates(source) -> CovariateSet:
    """Read the covariate/context JSON, keyed by its actor ids read as labels."""
    doc = json.loads(_read_text(source))
    actor_attrs: dict = {}
    for rec in doc.get("actors", []):
        for name, value in rec.items():
            if name != "id":
                actor_attrs.setdefault(name, {})[_label(rec["id"])] = value
    dyad_attrs: dict = {}
    for rec in doc.get("dyads", []):
        key = (_label(rec["i"]), _label(rec["j"]))
        for name, value in rec.items():
            if name not in ("i", "j"):
                dyad_attrs.setdefault(name, {})[key] = float(value)
    contexts = tuple((float(c["start"]), c["label"]) for c in doc.get("contexts", []))
    return CovariateSet(actor_attrs=actor_attrs, dyad_attrs=dyad_attrs, context_track=contexts)


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
