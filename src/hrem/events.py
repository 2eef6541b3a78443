"""Event sequence data model, ingestion, and validation.

An event history is an ordered sequence of (time, sender, recipient)
triples, held as three arrays, over a fixed actor set observed inside the
window (0, tau).  Actor ids are dense integers 0..N-1 after ingestion; the
broadcast actor ("send to all"), if any, gets id N and is only a recipient.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True, eq=False)
class EventHistory:
    """Ordered sequence of dyadic events inside the window (0, tau).

    Event m is (times[m], senders[m], recipients[m]): three read-only
    arrays of one length, float64 times that increase strictly and intp
    dense actor ids.  actor_labels maps dense ids back to the original
    labels when the history came from a file.
    """

    times: np.ndarray
    senders: np.ndarray
    recipients: np.ndarray
    tau: float
    n_actors: int
    sequence_id: str = "seq"
    actor_labels: tuple = ()

    def __post_init__(self):
        for name, dtype in (("times", np.float64), ("senders", np.intp), ("recipients", np.intp)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def m(self) -> int:
        return len(self.times)

    @property
    def events(self) -> tuple:
        """The events as (t, sender, recipient) tuples of Python scalars."""
        return tuple(zip(self.times.tolist(), self.senders.tolist(), self.recipients.tolist()))

    def truncate(self, n_events: int) -> "EventHistory":
        """First `n_events` events with the window shortened accordingly.

        The new tau is the last kept time plus the mean inter-event gap of
        the kept segment, so the censoring term of the likelihood stays
        well-defined.
        """
        if n_events <= 0 or n_events > self.m:
            raise ValueError("n_events must be in 1..M")
        t_last, kept = float(self.times[n_events - 1]), slice(n_events)
        return replace(self, times=self.times[kept], senders=self.senders[kept],
                       recipients=self.recipients[kept], tau=t_last + t_last / n_events)


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
    def n_nodes(self) -> int:
        """Number of actor ids: 0 up to the largest in a dyad, the broadcast recipient included."""
        return int(max(self.senders.max(initial=-1), self.recipients.max(initial=-1))) + 1

    @functools.cached_property
    def row_index(self) -> np.ndarray:
        """(nodes, nodes) intp array: [i, j] is dyad (i, j)'s row position, -1 off the risk set."""
        grid = np.full((self.n_nodes, self.n_nodes), -1, dtype=np.intp)
        grid[self.senders, self.recipients] = np.arange(len(self.dyads))
        return grid

    def rows(self, senders, recipients) -> np.ndarray:
        """The row position of each pair (senders[n], recipients[n]), -1 for one off the risk set.

        An id that names no node (negative, too large or not whole) puts its
        pair off the set.
        """
        ids = np.array([senders, recipients], dtype=float).reshape(2, -1)
        on = ((ids >= 0) & (ids < self.n_nodes) & (ids == np.floor(ids))).all(axis=0)
        i, j = np.where(on, ids, 0).astype(np.intp)
        return np.where(on, self.row_index[i, j], -1)

    @functools.cached_property
    def actor_masks(self) -> np.ndarray:
        """(nodes + 1, 2, |R|) booleans: [a, 0] is senders == a, [a, 1] recipients == a.

        The last row, -1, stands for no actor and is all False.
        """
        nodes = np.arange(self.n_nodes + 1)[:, None]
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
    are consistent.  The checks of the events compare whole arrays.
    """
    report = []
    window = history.tau > 0  # without a window, one message says so, not one per event
    if not window:
        report.append("tau must be positive, got %r" % history.tau)
    if history.n_actors < 1:
        report.append("n_actors must be positive, got %r" % history.n_actors)
    t, i, j, bc = history.times, history.senders, history.recipients, risk.broadcast_actor
    earlier = np.append(-np.inf, t[:-1])
    checks = [  # (flags over the events, the message of the event at an index)
        (np.isnan(t), lambda m: "event %d: time %g is not a number" % (m, t[m])),
        (t <= earlier, lambda m: "event %d: times not strictly increasing (%g after %g)"
         % (m, t[m], earlier[m])),
        (window & ((t <= 0) | (t >= history.tau)), lambda m: "event %d: time %g outside"
         " observation window (0, %g)" % (m, t[m], history.tau)),
        (risk.rows(i, j) < 0, lambda m: "event %d: dyad (%d, %d) not in risk set"
         % (m, i[m], j[m])),
        (i == j, lambda m: "event %d: reflexive event (%d, %d)" % (m, i[m], j[m])),
        (bc is not None and i == bc, lambda m: "event %d: broadcast actor %d cannot send"
         % (m, i[m])),
    ]
    # Event by event, and in the order of the checks within one.
    hits = sorted((m, k) for k, (flags, _) in enumerate(checks) for m in np.flatnonzero(flags))
    report += [checks[k][1](m) for m, k in hits]
    for (i, j) in risk.dyads:
        if i == j:
            report.append("risk set contains reflexive pair (%d, %d)" % (i, j))
        if bc is not None and i == bc:
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
    # An event before the first start has no context (CovariateSet.context_at).
    return report + ["event %d: time %g not covered by context track" % (m, history.times[m])
                     for m in np.flatnonzero(history.times < starts[0])]


def _tokens(text: str) -> tuple:
    """(header, widths, fields): the first row, the later rows' lengths, and all their fields.

    The csv module cuts the text into rows.  An empty later row holds one
    empty field.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # such as a carriage return inside a line
        raise ValidationError("line %d: %s" % (reader.line_num, exc))
    body = [row or [""] for row in rows[1:]]
    return (rows[0] if rows else None, np.fromiter(map(len, body), np.intp, len(body)),
            list(itertools.chain.from_iterable(body)))


def _parse_events_csv(text: str) -> tuple:
    """(times, senders, recipients) of an event CSV: a float array and two lists of label strings.

    Blank rows are skipped.  The first row that is short or has a bad time
    raises, naming its line.
    """
    header, widths, fields = _tokens(text)
    if header is None or [h.strip() for h in header[:3]] != ["t", "sender", "recipient"]:
        raise ValidationError("expected CSV header 't,sender,recipient', got %r" % header)
    first = np.cumsum(widths) - widths  # each row's first field
    raw = list(map(fields.__getitem__, first.tolist()))
    rows = np.arange(len(widths))  # the rows that are not blank
    try:
        times, bad = np.fromiter(map(float, raw), float, len(raw)), len(raw)
    except ValueError:  # a blank row or a bad time: drop the blank rows, find the bad time
        filled = np.append(0, np.fromiter(map(bool, map(str.strip, fields)), int).cumsum())
        rows = np.flatnonzero(filled[first + widths] > filled[first])
        first, raw = first[rows], [raw[r] for r in rows.tolist()]
        bad = next((k for k, x in enumerate(raw) if not _is_float(x)), len(raw))
        times = np.fromiter(map(float, raw[:bad]), float, bad)
    short = np.flatnonzero(widths[rows] < 3)
    if len(short) and short[0] <= bad:
        raise ValidationError("line %d: expected 3 fields, got %d"
                              % (rows[short[0]] + 2, widths[rows[short[0]]]))
    if bad < len(raw):
        raise ValidationError("line %d: bad time %r" % (rows[bad] + 2, raw[bad]))
    return tuple([times] + [list(map(str.strip, map(fields.__getitem__, (first + k).tolist())))
                            for k in (1, 2)])


def _is_float(x: str) -> bool:
    try:
        float(x)
    except ValueError:
        return False
    return True


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
    from the `tau` argument.  `format` must be "csv".  `n_actors` pads the
    labels with unused integers up to that count, and refuses a file with more.

    Returns (EventHistory, CovariateSet); the covariate set is always empty,
    because covariates come from :func:`load_covariates`.
    """
    if format != "csv":
        raise ValueError("unknown format %r" % format)
    times, senders, recipients = _parse_events_csv(_read_text(source))
    if tau is None:
        raise ValidationError("tau is required and was not provided")

    broadcast_label = _label(broadcast_label)
    read = {x: _label(x) for x in {*senders, *recipients}}  # each distinct string once
    labels = set(read.values()) - {broadcast_label}
    if n_actors is not None and len(labels) > n_actors:
        raise ValidationError("the file has %d actor labels, more than n_actors %d"
                              % (len(labels), n_actors))
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
    ids = {x: mapping[lab] for x, lab in read.items()}
    history = EventHistory(times, *(list(map(ids.__getitem__, x)) for x in (senders, recipients)),
                           tau=float(tau), n_actors=len(labels), sequence_id=sequence_id,
                           actor_labels=labels)
    risk = build_risk_set(len(labels), include_broadcast=broadcast_label is not None)
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
    columns = (history.times, history.senders, history.recipients)
    rows = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    return "\n".join(["t,sender,recipient", *rows]) + "\n"


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
