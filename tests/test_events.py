import io
import itertools
import json
import math

import numpy as np
import pytest

from hrem.events import (
    CovariateSet,
    EventHistory,
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
    hist = EventHistory(events=((0.3, 0, 1), (0.7, 1, 0)), tau=1.0, n_actors=2)
    assert validate(hist, build_risk_set(2)) == []


def test_validate_reflexive_event_reported_with_index():
    hist = EventHistory(events=((0.3, 0, 1), (0.5, 2, 2)), tau=1.0, n_actors=3)
    report = validate(hist, build_risk_set(3))
    assert any("event 1" in r and "reflexive" in r for r in report)


def test_validate_event_beyond_tau():
    hist = EventHistory(events=((1.5, 0, 1),), tau=1.0, n_actors=2)
    report = validate(hist, build_risk_set(2))
    assert any("window" in r for r in report)


@pytest.mark.parametrize("tau", [-1.0, 0.0])
def test_validate_without_a_window_says_so_once_not_once_per_event(tau):
    events = tuple((0.5 * (m + 1), m % 2, 1 - m % 2) for m in range(50))
    report = validate(EventHistory(events=events, tau=tau, n_actors=2), build_risk_set(2))
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
    hist = EventHistory(events=((0.25, 0, 1), (0.75, 1, 2)), tau=1.5, n_actors=3)
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
        hist = EventHistory(events=tuple(events), tau=1.0, n_actors=4)
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
        corrupted = EventHistory(events=tuple(bad), tau=1.0, n_actors=4)
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
    hist = EventHistory(events=((1.0, 0, 1), (2.0, 1, 0), (3.0, 0, 1)), tau=4.0, n_actors=2)
    cut = hist.truncate(2)
    assert cut.m == 2
    assert cut.tau == pytest.approx(3.0)  # 2.0 + mean gap 1.0
    with pytest.raises(ValueError):
        hist.truncate(0)


def test_n_actors_padding_keeps_silent_actors():
    csv = "t,sender,recipient\n0.5,0,1\n"
    hist, _ = load_history(io.StringIO(csv), "csv", tau=1.0, n_actors=5)
    assert hist.n_actors == 5
