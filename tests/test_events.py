import io
import itertools
import json
import math

import numpy as np
import pytest

import scalar_oracle as oracle
from hrem.events import (
    CovariateSet,
    RiskSet,
    ValidationError,
    build_risk_set,
    _covariates_document,
    events_to_csv,
    load_covariates,
    load_history,
    validate,
)


def test_load_csv_three_rows():
    csv = "t,sender,recipient\n0.5,0,1\n1.0,1,2\n1.5,2,0\n"
    hist, cov = load_history(io.StringIO(csv), "csv", tau=2.0)
    assert hist.m == 3
    assert hist.events[0] == (0.5, 0, 1)
    assert hist.n_actors == 3


def test_load_csv_tied_times_rejected():
    csv = "t,sender,recipient\n0.5,0,1\n0.5,1,2\n"
    with pytest.raises(ValidationError, match="not strictly increasing"):
        load_history(io.StringIO(csv), "csv", tau=2.0)


def test_load_csv_bad_header():
    with pytest.raises(ValidationError, match="header"):
        load_history(io.StringIO("a,b,c\n1,0,1\n"), "csv", tau=2.0)
    with pytest.raises(ValueError, match="unknown format 'json'"):
        load_history(io.StringIO("t,sender,recipient\n0.5,0,1\n"), "json", tau=2.0)


def test_load_csv_bad_time_reports_line():
    csv = "t,sender,recipient\n0.5,0,1\nnope,1,2\n"
    with pytest.raises(ValidationError, match="line 3"):
        load_history(io.StringIO(csv), "csv", tau=2.0)


def test_load_csv_broadcast_recipient():
    csv = "t,sender,recipient\n0.2,0,1\n0.4,1,all\n"
    hist, _ = load_history(io.StringIO(csv), "csv", tau=1.0, broadcast_label="all")
    # broadcast actor gets the last dense id
    assert hist.events[1][2] == hist.n_actors


def test_load_requires_tau():
    with pytest.raises(ValidationError, match="tau"):
        load_history(io.StringIO("t,sender,recipient\n0.5,0,1\n"), "csv")


def test_validate_clean_history_empty_report():
    hist = oracle.event_history(((0.3, 0, 1), (0.7, 1, 0)), tau=1.0, n_actors=2)
    assert validate(hist, build_risk_set(2)) == []


def test_validate_reflexive_event_reported_with_index():
    hist = oracle.event_history(((0.3, 0, 1), (0.5, 2, 2)), tau=1.0, n_actors=3)
    report = validate(hist, build_risk_set(3))
    assert any("event 1" in r and "reflexive" in r for r in report)


def test_validate_event_beyond_tau():
    hist = oracle.event_history(((1.5, 0, 1),), tau=1.0, n_actors=2)
    report = validate(hist, build_risk_set(2))
    assert any("window" in r for r in report)


@pytest.mark.parametrize("tau", [-1.0, 0.0])
def test_validate_without_a_window_says_so_once_not_once_per_event(tau):
    events = tuple((0.5 * (m + 1), m % 2, 1 - m % 2) for m in range(50))
    report = validate(oracle.event_history(events, tau=tau, n_actors=2), build_risk_set(2))
    assert report == ["tau must be positive, got %r" % tau]
    csv = "t,sender,recipient\n" + "".join("%r,%d,%d\n" % e for e in events)
    with pytest.raises(ValidationError) as exc:
        load_history(io.StringIO(csv), "csv", tau=tau)
    assert str(exc.value) == "tau must be positive, got %r" % tau


def test_build_risk_set_sizes():
    assert set(build_risk_set(2).dyads) == {(0, 1), (1, 0)}
    assert len(build_risk_set(10)) == 90
    assert len(build_risk_set(3, include_broadcast=True)) == 9


def test_build_risk_set_too_small():
    with pytest.raises(ValueError):
        build_risk_set(1)


def test_broadcast_never_sends():
    risk = build_risk_set(3, include_broadcast=True)
    assert risk.broadcast_actor == 3
    assert all(i != 3 for i, _ in risk.dyads)


def test_csv_round_trip():
    hist = oracle.event_history(((0.25, 0, 1), (0.75, 1, 2)), tau=1.5, n_actors=3)
    hist2, _ = load_history(io.StringIO(events_to_csv(hist)), "csv", tau=1.5)
    assert hist2.events == hist.events
    assert hist2.tau == hist.tau


def test_json_round_trip():
    cov = CovariateSet(
        actor_attrs={"grp": {0: "a", 1: "b", 2: "a"}},
        dyad_attrs={"w": {(0, 1): 2.0}},
        context_track=((0.0, "lec"), (1.0, "grp")),
    )
    text = json.dumps(_covariates_document(cov, 3), indent=1)
    cov2 = load_covariates(io.StringIO(text))
    assert cov2.actor_attrs == cov.actor_attrs
    assert cov2.dyad_attrs == cov.dyad_attrs
    assert cov2.context_track == cov.context_track


def test_validate_catches_random_corruptions():
    rng = np.random.default_rng(0)
    risk = build_risk_set(4)
    for _ in range(25):
        times = np.sort(rng.uniform(0, 1, size=6))
        events = []
        for t in times:
            i, j = rng.choice(4, size=2, replace=False)
            events.append((float(t), int(i), int(j)))
        hist = oracle.event_history(tuple(events), tau=1.0, n_actors=4)
        assert validate(hist, risk) == []
        # corrupt one event
        bad = list(events)
        kind = rng.integers(3)
        if kind == 0:
            t, i, j = bad[2]
            bad[2] = (t, i, i)
        elif kind == 1:
            t, i, j = bad[2]
            bad[2] = (bad[1][0], i, j)
        else:
            t, i, j = bad[2]
            bad[2] = (2.0, i, j)
        corrupted = oracle.event_history(tuple(bad), tau=1.0, n_actors=4)
        assert validate(corrupted, risk) != []


def test_context_segments_partition():
    cov = CovariateSet(context_track=((0.0, "a"), (1.0, "b"), (2.0, "c")))
    segs = list(cov.context_segments(0.5, 2.5))
    assert segs == [(0.5, "a"), (1.0, "b"), (0.5, "c")]
    assert sum(d for d, _ in segs) == pytest.approx(2.0)


def test_context_at():
    cov = CovariateSet(context_track=((0.0, "a"), (1.0, "b")))
    assert cov.context_at(0.0) == "a"
    assert cov.context_at(0.99) == "a"
    assert cov.context_at(1.0) == "b"


def scan_context_at(track, t):
    """The label of the last entry before the first start after t, scanning the track."""
    label = None
    for start, lab in track:
        if start > t:
            break
        label = lab
    return label


def test_context_lookups_by_bisection_match_a_scan_of_the_track():
    tracks = [((0.0, "a"), (1.0, "b"), (2.0, "b"), (3.5, "a"), (4.0, "c")),  # a repeated label
              ((0.5, "x"), (0.75, "x"), (2.0, "y")),  # times before the first start
              ()]
    for track in tracks:
        cov = CovariateSet(context_track=track)
        starts = [s for s, _ in track]
        times = sorted(set(starts) | {-1.0, 0.0, 0.25, 1.5, 2.0 + 1e-12, 3.75, 5.0})
        for t in times:
            assert cov.context_at(t) == scan_context_at(track, t), (track, t)
            assert cov.next_context_change(t) == min([s for s in starts if s > t],
                                                     default=math.inf), (track, t)
        for t0, t1 in itertools.product(times, repeat=2):
            cuts = [t0] + [s for s in starts if t0 < s < t1] + [t1]
            want = [(b - a, scan_context_at(track, a)) for a, b in zip(cuts, cuts[1:])]
            assert list(cov.context_segments(t0, t1)) == (want if t1 > t0 else []), (t0, t1)
    # A track whose starts do not increase fails validate_track, which still
    # scans it per event; both lookups answer as the scan does.
    track = ((10.0, "a"), (0.0, "b"), (12.0, "c"))
    cov = CovariateSet(context_track=track)
    for t in (-1.0, 0.0, 5.0, 10.0, 11.0, 12.0, 13.0):
        assert cov.context_at(t) == scan_context_at(track, t), t
        assert cov.next_context_change(t) == next((s for s, _ in track if s > t), math.inf), t


def test_truncate_shortens_window():
    hist = oracle.event_history(((1.0, 0, 1), (2.0, 1, 0), (3.0, 0, 1)), tau=4.0, n_actors=2)
    cut = hist.truncate(2)
    assert cut.m == 2
    assert cut.tau == pytest.approx(3.0)  # 2.0 + mean gap 1.0
    with pytest.raises(ValueError):
        hist.truncate(0)


def test_n_actors_padding_keeps_silent_actors():
    csv = "t,sender,recipient\n0.5,0,1\n"
    hist, _ = load_history(io.StringIO(csv), "csv", tau=1.0, n_actors=5)
    assert hist.n_actors == 5


# ---------------------------------------------------------------------------
# The array reader and validate against the row-by-row reference


def read(reader, text, **kw):
    """("ok", the history's fields) or (exception class, message) of `reader` on `text`."""
    try:
        h = reader(text, **kw)
    except Exception as exc:  # the same class and text on both sides
        return type(exc), str(exc)
    return "ok", (h.events, h.tau, h.n_actors, h.sequence_id, h.actor_labels)


HEADER = "t,sender,recipient\n"
READER_CASES = [
    HEADER + "0.5,0,1\n1.0,1,2\n1.5,2,0\n",
    HEADER + "0.5,ann,bob\n0.7,bob,cy\n0.9,cy,ann\n",  # string labels
    HEADER + "".join("%g,%d,%d\n" % (0.1 * (k + 1), k, (k + 3) % 12) for k in range(12)),
    HEADER + "0.5,0,all\n0.6,1,0\n0.7,1,all",  # a broadcast label, no final line end
    HEADER + "0.5,0,1\n\n   \n , ,\n1.0,1,0\n\n\n",  # blank and whitespace-only lines
    HEADER.replace("\n", "\r\n") + "0.5,0,1\r\n\r\n1.0,1,2\r\n",  # CRLF endings
    HEADER + '0.5,"a, b",c\n0.75,c,"a, b"\n',  # a quoted label holding a comma
    HEADER + '0.5,"0",1\n1.0,1,0\n',  # a quoted integer label
    HEADER + "0.5,0,1,x,y\n1.0,1,0,\n",  # extra columns
    " t , sender , recipient ,extra\n 0.5 , 1 , 2 \n",  # padded fields
    HEADER + "0.5,0,1\n0.7,1\n",  # a short row
    HEADER + "0.5,0,1\n0.7,1\nnope,1,2\n",  # a short row before a bad time
    HEADER + "0.5,0,1\nnope,1,2\n0.7,1\n",  # a bad time before a short row
    HEADER + "0.5,0,1\n\n,1,2\n",  # an empty time
    HEADER + "0.1_5,0,1\n 2e-1 ,1,0\n",  # times that float() reads
    "a,b,c\n1,0,1\n",  # a bad header
    "", "\n", HEADER, "t,sender\n0.5,0\n",  # no header, an empty one, no events
    HEADER + "0.5,0,1\r0.6,1,0\n",  # a carriage return inside a line
    HEADER + "0.5,0,1\nnan,1,2\n1.5,2,0\n",  # a NaN time
    HEADER + "0.5,0,1\n0.5,1,2\n0.25,2,0\n2.5,0,2\n",  # tied and late times, one past tau
    HEADER + "0.5,0,0\n0.7,all,1\n",  # a reflexive event, a broadcast sender
    HEADER + "0.5,1,01\n0.7,0,1\n",  # two strings of one integer label
]


@pytest.mark.parametrize("text", READER_CASES)
def test_array_reader_reads_what_the_row_by_row_reader_reads(text):
    for kw in ({}, {"broadcast_label": "all"}, {"n_actors": 6}):
        want = read(oracle.read_history, text, tau=2.0, **kw)
        got = read(lambda x, **k: load_history(io.StringIO(x), "csv", **k)[0], text,
                   tau=2.0, sequence_id="seq", **kw)
        assert got == want, (text, kw)
        if got[0] == "ok":
            hist = load_history(io.StringIO(text), "csv", tau=2.0, **kw)[0]
            assert all(type(t) is float and type(i) is int and type(j) is int
                       for t, i, j in got[1][0])
            assert [hist.times.dtype, hist.senders.dtype, hist.recipients.dtype] == \
                [np.float64, np.intp, np.intp]


def test_a_nan_time_fails_validation_and_the_walk():
    from hrem.stats import Baserate, StatisticSpec, unique_stat_table

    text = "t,sender,recipient\n0.5,0,1\nnan,1,2\n1.5,2,0\n"
    with pytest.raises(ValidationError) as exc:
        load_history(io.StringIO(text), "csv", tau=3.0)
    assert str(exc.value) == "event 1: time nan is not a number"
    spec, risk = StatisticSpec((Baserate(),)), build_risk_set(3)
    for at in (0, 1, 2):  # a hand-built history with a NaN time anywhere
        events = [(0.5, 0, 1), (1.0, 1, 2), (1.5, 2, 0)]
        events[at] = (math.nan, *events[at][1:])
        hist = oracle.event_history(tuple(events), tau=3.0, n_actors=3)
        assert validate(hist, risk) == ["event %d: time nan is not a number" % at]
        with pytest.raises(ValueError, match="out-of-order event at t=nan"):
            unique_stat_table(spec, hist, risk, CovariateSet())


def test_validate_reports_what_one_loop_over_the_events_reports():
    risk = build_risk_set(3, include_broadcast=True)
    bad_risk = RiskSet(dyads=((0, 1), (2, 2), (3, 0), (1, 0)), broadcast_actor=3)
    histories = [
        ((0.3, 0, 1), (0.3, 1, 1), (0.2, 3, 0), (1.5, 0, 7), (math.nan, 2, 3), (0.9, 1, -1)),
        ((0.0, 0, 1), (0.5, 1, 0)),
        (),
    ]
    for events in histories:
        for tau in (1.0, 0.0):
            hist = oracle.event_history(events, tau=tau, n_actors=3)
            for r in (risk, bad_risk):
                assert validate(hist, r) == oracle.validate(hist, r), (events, tau, r)
    rng = np.random.default_rng(1)
    for _ in range(30):
        times = np.round(np.sort(rng.uniform(-0.2, 1.2, size=8)), 1)
        events = tuple((float(t), int(i), int(j))
                       for t, i, j in zip(times, rng.integers(-1, 5, 8), rng.integers(0, 5, 8)))
        hist = oracle.event_history(events, tau=1.0, n_actors=3)
        assert validate(hist, risk) == oracle.validate(hist, risk), events


def test_risk_rows_match_the_dyad_index():
    risk = build_risk_set(4, include_broadcast=True)
    pairs = [(i, j) for i in range(-1, 7) for j in range(-1, 7)] + [(0.5, 1), (1, math.nan)]
    senders, recipients = np.array(pairs, dtype=float).T
    assert risk.rows(senders, recipients).tolist() == [risk.dyads.index(p) if p in risk.dyads else -1 for p in pairs]
    assert risk.row_index.shape == (5, 5) and risk.row_index.dtype == np.intp
    from hrem.stats import Baserate, StatisticSpec, unique_stat_table

    hist = oracle.event_history(((0.5, 0, 1), (1.0, 2, 2)), tau=2.0, n_actors=4)
    with pytest.raises(ValueError, match=r"event 1: dyad \(2, 2\) not in risk set"):
        unique_stat_table(StatisticSpec((Baserate(),)), hist, risk, CovariateSet())


# ---------------------------------------------------------------------------
# The columnar history and the window


@pytest.mark.parametrize("t, shown", [(0.0, "0"), (-0.5, "-0.5")])
def test_a_first_event_at_or_before_zero_is_outside_the_window(t, shown):
    message = "event 0: time %s outside observation window (0, 1)" % shown
    hist = oracle.event_history(((t, 0, 1), (0.5, 1, 0)), tau=1.0, n_actors=2)
    assert validate(hist, build_risk_set(2)) == [message]
    with pytest.raises(ValidationError) as exc:
        load_history(io.StringIO("t,sender,recipient\n%r,0,1\n0.5,1,0\n" % t), "csv", tau=1.0)
    assert str(exc.value) == message


def test_a_carriage_return_inside_a_line_names_the_line():
    text = "t,sender,recipient\n0.5,0,1\r0.6,1,0\n"
    with pytest.raises(ValidationError, match="^line 2: new-line character seen"):
        load_history(io.StringIO(text), "csv", tau=1.0)


def test_more_labels_than_n_actors_are_refused_naming_both_counts():
    text = "t,sender,recipient\n0.5,0,7\n0.7,7,3\n"
    with pytest.raises(ValidationError) as exc:
        load_history(io.StringIO(text), "csv", tau=1.0, n_actors=2)
    assert str(exc.value) == "the file has 3 actor labels, more than n_actors 2"
    assert load_history(io.StringIO(text), "csv", tau=1.0, n_actors=3)[0].n_actors == 3


def _histories():
    """(name, history): one loaded from a file, one simulated and a truncation of each."""
    from hrem.presets import syn52
    from hrem.simulate import simulate_history

    text = "t,sender,recipient\n0.25,ann,bob\n0.5,bob,all\n0.75,cy,ann\n"
    loaded, _ = load_history(io.StringIO(text), "csv", tau=1.0, broadcast_label="all")
    d = syn52()
    simulated = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=50, seed=3)
    return [("loaded", loaded), ("simulated", simulated), ("loaded, truncated", loaded.truncate(2)),
            ("simulated, truncated", simulated.truncate(20))]


def test_a_history_holds_three_read_only_arrays():
    for name, hist in _histories():
        for column, dtype in (("times", np.float64), ("senders", np.intp), ("recipients", np.intp)):
            a = getattr(hist, column)
            assert a.dtype == dtype and len(a) == hist.m, (name, column)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert not hasattr(hist, "array")


def test_events_are_the_tuples_of_python_scalars_the_producers_drew():
    from hrem.presets import syn52

    hist = dict(_histories())
    assert hist["loaded"].events == ((0.25, 0, 1), (0.5, 1, 3), (0.75, 2, 0))
    assert hist["loaded, truncated"].events == hist["loaded"].events[:2]
    d = syn52()
    events, _ = oracle.simulate_by_choice(d.beta, d.spec, d.risk, d.cov, 50,
                                          np.random.default_rng(3))
    assert hist["simulated"].events == events
    assert hist["simulated, truncated"].events == events[:20]
    for h in hist.values():
        assert all(type(t) is float and type(i) is int and type(j) is int
                   for t, i, j in h.events)


def test_events_to_csv_writes_the_bytes_of_the_per_event_writer():
    text = "t,sender,recipient\n" + "".join(
        "%r,%s,%s\n" % (0.1 * (m + 1), *pair) for m, pair in enumerate(
            [("ann", "bob"), ("ann", "bob"), ("bob", "all"), ("cy", "ann"), ("bob", "all")] * 4))
    hist, _ = load_history(io.StringIO(text), "csv", tau=3.0, broadcast_label="all")
    for h in (hist, hist.truncate(1), oracle.event_history((), tau=1.0, n_actors=2)):
        assert events_to_csv(h) == oracle.events_csv(h)
