"""Scalar statistics, one dyad at a time: the reference for the vectorized columns.

`hrem.stats` computes each effect as a whole column over the risk set.
This module computes the same statistic for a single dyad straight from
its definition, with no code shared with those columns, so the tests can
check the statistic matrices, the unique-vector tables, the per-event
scores and the likelihoods against it.  It keeps its own record of the
past events (:class:`Past`), so a slip in how :class:`hrem.stats.SeqState`
folds an event cannot pass as the reference.  Its later sections pin
random streams the same way: the ranks' tie-break, the collapsed sweep and
the simulator's event draw, each written out as the library first had it.
The last sections read an event CSV row by row with the csv module, the
reference for the array reader of :func:`hrem.events.load_history`, and
write the event-level CSVs one event at a time with `%`, the reference for
the column-built writers.  :func:`event_history` builds a history from
(t, sender, recipient) tuples.
"""

import collections
import csv
import io
import math

import numpy as np

from hrem.events import EventHistory, ValidationError, build_risk_set
from hrem.inference import gibbs_mu, gibbs_sigma
from hrem.stats import (
    Baserate,
    ContextIndicator,
    ContextInteraction,
    DyadMatch,
    DyadValue,
    EventCount,
    Mix,
    PShift,
    ReceiverAttr,
    RecencyReceive,
    RecencySend,
    SenderAttr,
    SeqState,
    ToBroadcast,
    pshift_label,
)


class Past:
    """What the statistics read of the events before time t.

    `sent[i]` lists the distinct recipients of i's events, and
    `received[i]` the distinct senders of the events to i, the latest
    first; `counts[i, j]` is the number of events from i to j.
    """

    def __init__(self, n_actors, broadcast=None):
        self.room = range(n_actors)  # the real actors
        self.broadcast = broadcast
        self.last_event = None
        self.sent = collections.defaultdict(list)
        self.received = collections.defaultdict(list)
        self.counts = collections.Counter()

    def apply(self, event):
        _, i, j = event
        self.last_event = (i, j)
        self.sent[i] = [j] + [b for b in self.sent[i] if b != j]
        self.received[j] = [i] + [a for a in self.received[j] if a != i]
        self.counts[i, j] += 1
        return self


def recency_rank(direction, past, i, j):
    """Inverse rank of j in i's recency list of `past`; 0 when absent (rank infinity)."""
    if direction == "send":
        lst = past.sent[i]
    elif direction == "receive":
        lst = past.received[i]
    else:
        raise ValueError("direction must be 'send' or 'receive'")
    try:
        return 1.0 / (lst.index(j) + 1)
    except ValueError:
        return 0.0


def pshift_match(kind, a, b, i, j):
    """Whether (i, j) is a `kind` participation shift after the event (a, b)."""
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


def _level(v, level):
    return float(v == level) if level is not None else float(v)


def _receiver(past, attrs, j, level):
    # The broadcast recipient takes the mean over the room of real actors.
    if j == past.broadcast:
        return float(np.mean([_level(attrs[a], level) for a in past.room]))
    return _level(attrs[j], level)


def value(eff, past, cov, i, j, context):
    """Statistic of effect `eff` for the single dyad (i, j)."""
    if isinstance(eff, Baserate):
        return 1.0
    if isinstance(eff, SenderAttr):
        return _level(cov.actor_attrs[eff.attr][i], eff.level)
    if isinstance(eff, ReceiverAttr):
        return _receiver(past, cov.actor_attrs[eff.attr], j, eff.level)
    if isinstance(eff, DyadMatch):
        attrs = cov.actor_attrs[eff.attr]
        if j == past.broadcast:
            return float(np.mean([attrs[a] == attrs[i] for a in past.room]))
        return float(attrs[j] == attrs[i])
    if isinstance(eff, DyadValue):
        return float(cov.dyad_attrs[eff.attr].get((i, j), 0.0))
    if isinstance(eff, Mix):
        attrs = cov.actor_attrs[eff.attr]
        return _level(attrs[i], eff.sender_level) * _receiver(past, attrs, j, eff.receiver_level)
    if isinstance(eff, PShift):
        if past.last_event is None:
            return 0.0
        return float(pshift_match(eff.kind, *past.last_event, i, j))
    if isinstance(eff, RecencySend):
        return recency_rank("send", past, i, j)
    if isinstance(eff, RecencyReceive):
        return recency_rank("receive", past, i, j)
    if isinstance(eff, ContextIndicator):
        return float(context == eff.label)
    if isinstance(eff, ContextInteraction):
        return value(eff.base, past, cov, i, j, context) if context == eff.label else 0.0
    if isinstance(eff, ToBroadcast):
        def sender_ok(a):
            return eff.attr is None or cov.actor_attrs[eff.attr][a] == eff.level

        bc = past.broadcast
        if bc is None or j != bc or not sender_ok(i):
            return 0.0
        if eff.prev:
            if past.last_event is None:
                return 0.0
            a, b = past.last_event
            if b != bc or not sender_ok(a):
                return 0.0
        return 1.0
    if isinstance(eff, EventCount):
        c = past.counts[i, j]
        return float(c) ** eff.power if c else 0.0
    raise TypeError("no scalar form for %r" % (eff,))


def vector(spec, past, cov, i, j, context):
    return np.array([value(eff, past, cov, i, j, context) for eff in spec.effects])


def _intervals(history, risk, cov):
    """Yield (past, pieces, event) per interval between changepoints.

    `pieces` are the (duration, context) parts of the interval and `event`
    is (i, j, context at the event), None for the censored tail.
    """
    past = Past(history.n_actors, broadcast=risk.broadcast_actor)
    prev_t = 0.0
    for (t, i, j) in history.events:
        yield past, cov.context_segments(prev_t, t), (i, j, cov.context_at(t))
        past.apply((t, i, j))
        prev_t = t
    yield past, cov.context_segments(prev_t, history.tau), None


def segments(spec, history, risk, cov, start=0):
    """(duration, context, event, row, matrix) of every segment, from interval `start` on.

    An interval's pieces are its segments; the last ends in the event,
    unless the event's context differs from the last piece's (a switch at
    the event's own time), which gives the event a segment of zero duration.
    """
    out = []
    for m, (past, pieces, event) in enumerate(_intervals(history, risk, cov)):
        if m < start:
            continue
        segs = [(d, c, -1, -1) for d, c in pieces]
        if event is not None:
            i, j, ctx = event
            if segs and segs[-1][1] == ctx:
                segs[-1] = (segs[-1][0], ctx, m, risk.dyads.index((i, j)))
            else:
                segs.append((0.0, ctx, m, risk.dyads.index((i, j))))
        for d, c, ev, row in segs:
            x = np.array([vector(spec, past, cov, i, j, c) for i, j in risk.dyads])
            out.append((d, c, ev, row, x))
    return out


def scores(beta, history, spec, risk, cov, start=0):
    """The fields of score_events' EventScores, one segment at a time, as a dict.

    Each segment's log hazards are its matrix's x @ beta; an exposed
    segment adds duration times total hazard to its interval's exposure,
    and a segment that ends in an event scores the event on its own row.
    """
    beta = np.asarray(beta, dtype=float)
    fields = ("log_hazard", "exposure", "prob", "log_prob", "higher", "ties")
    out = {name: [] for name in fields}
    parts = []
    for dur, _, event, row, x in segments(spec, history, risk, cov, start):
        eta = x @ beta
        with np.errstate(over="ignore"):
            if dur > 0:
                parts.append(dur * np.exp(eta).sum())
        if event < 0:
            continue
        top = eta.max()
        w = np.exp(eta - top)
        norm = w.sum()
        out["log_hazard"].append(eta[row])
        out["exposure"].append(sum(parts))
        out["prob"].append(w[row] / norm)
        out["log_prob"].append(eta[row] - (top + np.log(norm)))
        out["higher"].append(np.count_nonzero(eta > eta[row]))
        out["ties"].append(np.count_nonzero(eta == eta[row]))
        parts = []
    out = {name: np.array(out[name], dtype=np.int64 if name in ("higher", "ties") else float)
           for name in fields}
    out["tail_exposure"] = sum(parts)
    return out


def table(spec, history, risk, cov):
    """Per-row table build: every row from `vector`, deduplicated by its bytes.

    Returns (vectors, q, m) in order of first occurrence.
    """
    index, vectors, q, m = {}, [], [], []

    def slot(row):
        key = row.tobytes()
        r = index.get(key)
        if r is None:
            r = index[key] = len(vectors)
            vectors.append(row)
            q.append(0)
            m.append(0.0)
        return r

    for past, pieces, event in _intervals(history, risk, cov):
        for dur, ctx in pieces:
            for i, j in risk.dyads:
                m[slot(vector(spec, past, cov, i, j, ctx))] += dur
        if event is not None:
            q[slot(vector(spec, past, cov, *event))] += 1
    vectors = np.array(vectors) if vectors else np.zeros((0, spec.p))
    return vectors, np.array(q, dtype=np.int64), np.array(m, dtype=float)


def loglik(beta, history, spec, risk, cov):
    """Full-time log-likelihood from per-dyad scalar hazards, O(M * P * N^2)."""
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for past, pieces, event in _intervals(history, risk, cov):
        for dur, ctx in pieces:
            total -= dur * sum(np.exp(beta @ vector(spec, past, cov, i, j, ctx))
                               for i, j in risk.dyads)
        if event is not None:
            total += float(beta @ vector(spec, past, cov, *event))
    return float(total)


# Ranks, one event at a time: the reference for the vectorized tie-break.
# The log hazards come from the library's one-state statistic matrices,
# built per event on a SeqState as simulate_by_choice builds them, since
# what this pins is the rank and the random stream, not the statistics.


def event_log_hazards(beta, history, spec, risk, cov, start=0):
    """(x @ beta over the risk set, observed row) for each event from `start` on."""
    beta = np.asarray(beta, dtype=float)
    state = SeqState(history.n_actors, broadcast=risk.broadcast_actor, cov=cov)
    out = []
    for m, (t, i, j) in enumerate(history.events):
        if m >= start:
            x = spec.matrix(state, cov, risk, context=cov.context_at(t))
            out.append((x @ beta, risk.dyads.index((i, j))))
        state.apply((t, i, j), cov)
    return out


def tie_broken_ranks(scored, rng):
    """1-based descending rank of scores[row] for each (scores, row), in order.

    Ties are broken with one scalar rng.integers(number tied) per entry.
    """
    ranks = []
    for scores, row in scored:
        higher = int(np.sum(scores > scores[row]))
        ties = int(np.sum(scores == scores[row]))
        ranks.append(higher + 1 + int(rng.integers(ties)))
    return np.array(ranks, dtype=int)


def baseline_scored(history, risk, n_train):
    """(training counts, observed row) for each test event of the frequency baseline."""
    counts = np.zeros(len(risk))
    for (t, i, j) in history.events[:n_train]:
        counts[risk.dyads.index((i, j))] += 1
    return [(counts, risk.dyads.index((i, j))) for (t, i, j) in history.events[n_train:]]


def surprise(ranks, history, threshold):
    """{(i, j): (share of its events ranked beyond threshold, n_events)}."""
    out = {}
    for rank, (t, i, j) in zip(ranks, history.events):
        hits, n = out.get((i, j), (0, 0))
        out[(i, j)] = (hits + (rank > threshold), n + 1)
    return {d: (hits / n, n) for d, (hits, n) in out.items()}


# The collapsed sweep, one target evaluation at a time: the reference for the
# sampler's stream.  Each evaluation enters its own errstate, and the slice
# update evaluates its start density again after the sweep's finite check.


def slice_update(x0, logf, width, rng):
    """(new point, stepping-out steps, shrinkage steps) of one slice update from x0."""
    logf0 = logf(x0)
    if not np.isfinite(logf0):
        raise FloatingPointError("slice sampler started at non-finite target")
    logy = logf0 + math.log(rng.random())
    left = x0 - rng.random() * width
    right = left + width
    n_out = 0
    while logf(left) > logy and n_out < 50:
        left -= width
        n_out += 1
    while logf(right) > logy and n_out < 100:
        right += width
        n_out += 1
    n_shrink = 0
    while True:
        x1 = left + rng.random() * (right - left)
        if logf(x1) > logy:
            return x1, n_out, n_shrink
        if x1 > x0:
            right = x1
        else:
            left = x1
        n_shrink += 1


def linear_predictors(sampler):
    """Each table's eta_k = U_k beta_k at `sampler`'s betas: where `collapsed_sweep` starts."""
    return [table.vectors @ beta for table, beta in zip(sampler.tables, sampler.betas)]


def collapsed_sweep(sampler, etas):
    """One sweep of a CollapsedGibbs `sampler`, moving its state and the per-table `etas` in place.

    `etas` starts as `linear_predictors(sampler)`, and again whenever the
    sampler's tables change.
    """
    hyper, rng = sampler.hyper, sampler.rng
    a, b = hyper.alpha_sigma, hyper.beta_sigma
    for p in range(sampler.p):
        sq_total = float(np.sum((sampler.betas[:, p] - sampler.mu[p]) ** 2))
        for k in range(sampler.k):
            table = sampler.tables[k]
            u_p = table.vectors[:, p]
            cur = sampler.betas[k, p]
            base = etas[k] - cur * u_p
            q_lin = float(table.q @ u_p)
            sq_others = sq_total - (cur - sampler.mu[p]) ** 2
            mu_p = sampler.mu[p]

            def target(x):
                with np.errstate(over="ignore"):
                    lam = np.exp(base + x * u_p)
                expo = float(table.m @ lam)
                if not np.isfinite(expo):
                    return -math.inf
                return (q_lin * x - expo - (a + sampler.k / 2.0)
                        * math.log(b + 0.5 * (sq_others + (x - mu_p) ** 2)))

            if not np.isfinite(target(cur)):
                raise FloatingPointError("non-finite log-posterior")
            new, n_out, n_shrink = slice_update(cur, target, sampler.widths[k, p], rng)
            if sampler.adapt:
                if n_shrink > 2:
                    sampler.widths[k, p] *= 0.5
                elif n_shrink == 0 and n_out > 1:
                    sampler.widths[k, p] *= 2.0
            sampler.betas[k, p] = new
            etas[k] = base + new * u_p
            sq_total = sq_others + (new - sampler.mu[p]) ** 2
    for p in range(sampler.p):
        sampler.sigma2[p] = gibbs_sigma(sampler.betas[:, p], sampler.mu[p], hyper, rng)
        sampler.mu[p] = gibbs_mu(sampler.betas[:, p], sampler.sigma2[p], rng,
                                 mode=sampler.mu_update, hyper=hyper)


# The simulator, drawing each event with Generator.choice: the reference for
# the stream of simulate_history.


def simulate_by_choice(beta, spec, risk, cov, n_events, rng):
    """(events, tau) of simulate_history stopped by count, without its explosion checks."""
    state = SeqState(risk.n_actors, broadcast=risk.broadcast_actor, cov=cov)
    events, t = [], 0.0
    while len(events) < n_events:
        with np.errstate(over="ignore"):
            lam = np.exp(spec.matrix(state, cov, risk, context=cov.context_at(t)) @ beta)
        total = float(lam.sum())
        dt = rng.exponential(1.0 / total)
        t_ctx = min([start for start, _ in cov.context_track if start > t], default=math.inf)
        if t + dt > t_ctx:
            t = t_ctx  # the hazards change there: restart the clock
            continue
        t = t + dt
        i, j = risk.dyads[rng.choice(len(lam), p=lam / total)]
        events.append((t, i, j))
        state.apply((t, i, j), cov)
    return tuple(events), t + t / len(events)


# The event CSV, one row at a time: the reference for load_history's reader
# and for validate, written out as the library first had them.


def label(x):
    """An actor label as read from a file: integer-looking strings become integers."""
    try:
        return int(x) if isinstance(x, str) else x
    except ValueError:
        return x


def read_history(text, tau, n_actors=None, broadcast_label=None):
    """The EventHistory of an event CSV; raises ValidationError as load_history does."""
    reader = csv.reader(io.StringIO(text))
    try:
        return _read_rows(reader, tau, n_actors, broadcast_label)
    except csv.Error as exc:
        raise ValidationError("line %d: %s" % (reader.line_num, exc))


def _read_rows(reader, tau, n_actors, broadcast_label):
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["t", "sender", "recipient"]:
        raise ValidationError("expected CSV header 't,sender,recipient', got %r" % header)
    raw = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 3:
            raise ValidationError("line %d: expected 3 fields, got %d" % (lineno, len(row)))
        try:
            t = float(row[0])
        except ValueError:
            raise ValidationError("line %d: bad time %r" % (lineno, row[0]))
        raw.append((t, label(row[1].strip()), label(row[2].strip())))
    broadcast_label = label(broadcast_label)
    labels = {lab for _, i, j in raw for lab in (i, j)} - {broadcast_label}
    if n_actors is not None and len(labels) > n_actors:
        raise ValidationError("the file has %d actor labels, more than n_actors %d"
                              % (len(labels), n_actors))
    if n_actors is not None:
        pool = (x for x in range(2 * n_actors) if x not in labels and x != broadcast_label)
        while len(labels) < n_actors:
            labels.add(next(pool))
    labels = tuple(sorted(labels, key=lambda lab: (isinstance(lab, str), lab)))
    mapping = {lab: i for i, lab in enumerate(labels)}
    if broadcast_label is not None:
        mapping[broadcast_label] = len(labels)
    history = event_history(tuple((t, mapping[i], mapping[j]) for t, i, j in raw),
                            tau=float(tau), n_actors=len(labels), actor_labels=labels)
    report = validate(history, build_risk_set(len(labels),
                                              include_broadcast=broadcast_label is not None))
    if report:
        raise ValidationError("; ".join(report))
    return history


def validate(history, risk):
    """validate's report without a covariate set: one loop over the events, one over the dyads."""
    report = []
    window = history.tau > 0
    if not window:
        report.append("tau must be positive, got %r" % history.tau)
    if history.n_actors < 1:
        report.append("n_actors must be positive, got %r" % history.n_actors)
    dyads = set(risk.dyads)
    prev_t = None
    for m, (t, i, j) in enumerate(history.events):
        if t != t:
            report.append("event %d: time %g is not a number" % (m, t))
        if prev_t is not None and t <= prev_t:
            report.append("event %d: times not strictly increasing (%g after %g)" % (m, t, prev_t))
        prev_t = t
        if window and (t <= 0 or t >= history.tau):
            report.append("event %d: time %g outside observation window (0, %g)"
                          % (m, t, history.tau))
        if (i, j) not in dyads:
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
    return report


def event_history(events, tau, n_actors, **kw):
    """The EventHistory of (t, sender, recipient) tuples."""
    columns = list(zip(*events)) or [(), (), ()]
    return EventHistory(*columns, tau=tau, n_actors=n_actors, **kw)


# The event-level CSVs, one event at a time: the reference for events_to_csv
# and for the residual and probability files of `hrem diagnose`.


def events_csv(history):
    """events_to_csv's text."""
    out = ["t,sender,recipient"]
    for t, i, j in history.events:
        out.append("%r,%d,%d" % (t, i, j))
    return "\n".join(out) + "\n"


def diagnose_rows(k, history, names, deviance, prob):
    """(residual rows, probability rows) of sequence k, with actor names `names`."""
    res_rows, prob_rows = [], []
    prev = None
    for m, (t, i, j) in enumerate(history.events):
        label = pshift_label(prev, (t, i, j)) or ""
        res_rows.append("%d,%d,%r,%s,%s,%s,%r"
                        % (k, m, t, names[i], names[j], label, float(deviance[m])))
        prob_rows.append("%d,%d,%r,%s,%s,%r" % (k, m, t, names[i], names[j], float(prob[m])))
        prev = (t, i, j)
    return res_rows, prob_rows
