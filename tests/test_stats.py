import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrem.stats
from hrem.events import CovariateSet, build_risk_set
from hrem.presets import classroom_spec, syn52
from hrem.simulate import simulate_history
from hrem.stats import (
    _TYPES,
    PSHIFT_KINDS,
    Baserate,
    ContextIndicator,
    ContextInteraction,
    DyadMatch,
    DyadValue,
    Effect,
    EventCount,
    Mix,
    PShift,
    ReceiverAttr,
    RecencyReceive,
    RecencySend,
    SenderAttr,
    SeqState,
    StatisticSpec,
    ToBroadcast,
    pshift_label,
    unique_stat_table,
)

import scalar_oracle as oracle

COV = CovariateSet()
RISK = build_risk_set(4)


def state_after(events, n_actors=4, cov=None, broadcast=None):
    s = SeqState(n_actors, broadcast=broadcast, cov=cov)
    for ev in events:
        s.apply(ev, cov)
    return s


def test_pshift_ab_ba():
    s = state_after([(0.1, 0, 1)])
    spec = StatisticSpec((PShift("AB-BA"),))
    assert spec.vector(s, COV, RISK, 1, 0)[0] == 1.0
    assert spec.vector(s, COV, RISK, 0, 1)[0] == 0.0


def test_pshift_ab_xb_requires_distinct_x():
    s = state_after([(0.1, 0, 1)])
    spec = StatisticSpec((PShift("AB-XB"),))
    # querying (B, A): sender is B, not a third actor X
    assert spec.vector(s, COV, RISK, 1, 0)[0] == 0.0
    assert spec.vector(s, COV, RISK, 2, 1)[0] == 1.0


def test_pshifts_mutually_exclusive():
    rng = np.random.default_rng(1)
    risk = build_risk_set(5)
    spec = StatisticSpec(tuple(PShift(k) for k in PSHIFT_KINDS))
    s = SeqState(5)
    t = 0.0
    for _ in range(40):
        t += 1.0
        i, j = risk.dyads[rng.integers(len(risk))]
        mat = spec.matrix(s, COV, risk)
        assert np.all(mat.sum(axis=1) <= 1.0)
        s.apply((t, i, j))


def test_first_event_has_no_pshift():
    s = SeqState(4)
    spec = StatisticSpec(tuple(PShift(k) for k in PSHIFT_KINDS))
    assert np.all(spec.vector(s, COV, RISK, 0, 1) == 0.0)


def test_repeat_event_carries_no_indicator():
    s = state_after([(0.1, 0, 1)])
    assert pshift_label((0, 1), (0.2, 0, 1)) is None
    spec = StatisticSpec(tuple(PShift(k) for k in PSHIFT_KINDS))
    assert np.all(spec.vector(s, COV, RISK, 0, 1) == 0.0)


def test_pshift_label_kinds():
    assert pshift_label((0, 1), (0.2, 1, 0)) == "AB-BA"
    assert pshift_label((0, 1), (0.2, 1, 2)) == "AB-BY"
    assert pshift_label((0, 1), (0.2, 2, 0)) == "AB-XA"
    assert pshift_label((0, 1), (0.2, 2, 1)) == "AB-XB"
    assert pshift_label((0, 1), (0.2, 2, 3)) == "AB-XY"
    assert pshift_label((0, 1), (0.2, 0, 2)) == "AB-AY"
    assert pshift_label(None, (0.2, 0, 1)) is None


def past_after(events, n_actors=4, broadcast=None):
    """The oracle's record of `events`, kept apart from SeqState."""
    past = oracle.Past(n_actors, broadcast=broadcast)
    for ev in events:
        past.apply(ev)
    return past


def test_recency_rank_values():
    s = past_after([(0.1, 0, 1), (0.2, 0, 2), (0.3, 0, 3)])
    assert oracle.recency_rank("send", s, 0, 3) == 1.0
    assert oracle.recency_rank("send", s, 0, 2) == 0.5
    assert oracle.recency_rank("send", s, 0, 1) == pytest.approx(1 / 3)
    assert oracle.recency_rank("send", s, 1, 0) == 0.0  # absent: rank infinity
    assert oracle.recency_rank("receive", s, 1, 0) == 1.0


def test_recency_effect_falls_to_half():
    spec = StatisticSpec((RecencySend(),))
    s = state_after([(0.1, 0, 1)])
    assert spec.vector(s, COV, RISK, 0, 1)[0] == 1.0
    s.apply((0.2, 0, 2))
    assert spec.vector(s, COV, RISK, 0, 1)[0] == 0.5


def test_update_state_examples():
    s = SeqState(4).apply((0.1, 1, 2))
    assert s.send_recency[1] == [2]
    assert s.counts[1, 2] == 1
    s.apply((0.2, 1, 3))
    assert s.send_recency[1] == [3, 2]
    s2 = SeqState(4).apply((0.1, 1, 2)).apply((0.2, 1, 2))
    assert s2.send_recency[1] == [2]
    assert s2.counts[1, 2] == 2


def test_update_state_rejects_out_of_order():
    for t in (0.4, 0.5):  # earlier than, and tied with, the last event
        s = state_after([(0.5, 0, 1)])
        with pytest.raises(ValueError, match="out-of-order"):
            s.apply((t, 1, 0))
        assert s.n_applied == 1 and s.counts[1, 0] == 0
        # The walk rejects them too, for a spec with no column that reads the state.
        history = oracle.event_history(((0.5, 0, 1), (t, 1, 0)), tau=1.0, n_actors=4)
        with pytest.raises(ValueError, match="out-of-order"):
            unique_stat_table(StatisticSpec((Baserate(), PShift("AB-BA"))), history, RISK, COV)


def test_state_rebuild_equals_incremental():
    # Five actors and the broadcast recipient 5.  `inc` folds the events one
    # at a time; a state rebuilt from scratch after each event must agree
    # with it, and its rank arrays with the oracle's recency lists.
    rng = np.random.default_rng(7)
    nodes = 6
    for _ in range(10):
        events = []
        t = 0.0
        for _ in range(30):
            t += float(rng.exponential())
            i = int(rng.integers(5))
            j = int(rng.choice([k for k in range(nodes) if k != i]))
            events.append((t, i, j))
        inc = SeqState(5, broadcast=5)
        for m, ev in enumerate(events, start=1):
            inc.apply(ev)
            scratch = state_after(events[:m], n_actors=5, broadcast=5)
            assert inc.last_event == scratch.last_event
            assert inc.send_recency == scratch.send_recency
            assert inc.receive_recency == scratch.receive_recency
            assert np.array_equal(inc.counts, scratch.counts)
            assert inc.counts.sum() == m
            past = past_after(events[:m], n_actors=5, broadcast=5)
            for d, ranks in (("send", inc.send_ranks), ("receive", inc.receive_ranks)):
                want = [[oracle.recency_rank(d, past, a, b) for b in range(nodes)]
                        for a in range(nodes)]
                assert ranks.tolist() == want, (d, m)


def test_spec_requires_nonempty_unique():
    with pytest.raises(ValueError):
        StatisticSpec(())
    with pytest.raises(ValueError):
        StatisticSpec((Baserate(), Baserate()))


def test_spec_check_unknown_attribute():
    spec = StatisticSpec((DyadMatch("race"),))
    with pytest.raises(KeyError, match="race"):
        spec.check(CovariateSet(), 4)


ALL_TYPES = StatisticSpec((
    Baserate(), SenderAttr("female"), ReceiverAttr("race", "b"), DyadMatch("race"),
    DyadValue("friends"), Mix("race", "a", "b"), PShift("AB-BA"), RecencySend(),
    RecencyReceive(), ContextIndicator("lecture"), ContextInteraction(PShift("AB-XY"), "lecture"),
    ToBroadcast("teacher", 1, True), EventCount(2.0),
))
ALL_TYPES_JSON = (
    '[{"type": "baserate"}, {"type": "sender_attr", "attr": "female", "level": null}, '
    '{"type": "receiver_attr", "attr": "race", "level": "b"}, '
    '{"type": "dyad_match", "attr": "race"}, {"type": "dyad_value", "attr": "friends"}, '
    '{"type": "mix", "attr": "race", "sender_level": "a", "receiver_level": "b"}, '
    '{"type": "pshift", "kind": "AB-BA"}, {"type": "recency_send"}, '
    '{"type": "recency_receive"}, {"type": "context", "label": "lecture"}, '
    '{"type": "context_interaction", "base": {"type": "pshift", "kind": "AB-XY"}, '
    '"label": "lecture"}, {"type": "to_broadcast", "attr": "teacher", "level": 1, "prev": true}, '
    '{"type": "event_count", "power": 2.0}]'
)


def test_spec_json_round_trip():
    presets = [classroom_spec(letter + number) for letter in "ABCDEFG" for number in "123"]
    for spec in [syn52().spec, ALL_TYPES] + presets:
        assert StatisticSpec.from_obj(json.loads(spec.to_json())) == spec
    # the text, key order included, is pinned: indent=1 of the literal's objects
    assert ALL_TYPES.to_json() == json.dumps(json.loads(ALL_TYPES_JSON), indent=1)
    # the all-types spec uses every registered type, and every Effect class is registered
    used = {type(e) for e in ALL_TYPES.effects} | {type(ALL_TYPES.effects[10].base)}
    assert used == set(_TYPES.values()) == set(Effect.__subclasses__())
    # values are coerced when an effect is built, so the JSON does not depend on the caller
    assert EventCount(2).to_json() == {"type": "event_count", "power": 2.0}
    assert ToBroadcast(prev=1).to_json()["prev"] is True


def test_categorical_attribute_expands_to_every_level_but_the_reference():
    cov = CovariateSet(actor_attrs={"g": {0: "a", 1: "b", 2: "c", 3: "a"}})
    obj = {"type": "sender_attr", "attr": "g"}
    assert StatisticSpec.from_obj([obj], cov).effects == (SenderAttr("g", "b"), SenderAttr("g", "c"))
    spec = StatisticSpec.from_obj([dict(obj, reference="b")], cov)
    assert spec.effects == (SenderAttr("g", "a"), SenderAttr("g", "c"))
    nested = {"type": "context_interaction", "base": obj, "label": "L"}
    assert StatisticSpec.from_obj([nested], cov).effects == (
        ContextInteraction(SenderAttr("g", "b"), "L"), ContextInteraction(SenderAttr("g", "c"), "L"))


# Each classroom preset's P and the leading hex digits of the sha256 of its JSON.
PRESET_PINS = {
    "A1": (23, "22ef851d33bcf5e2"),
    "A2": (21, "3a26dc82254a807f"),
    "A3": (17, "388c98561248e0ce"),
    "B1": (19, "e98b5762841380af"),
    "B2": (17, "356a2c37051e4548"),
    "B3": (13, "6e9b426c57c56c69"),
    "C1": (18, "22ad0a97ac584823"),
    "C2": (16, "ef03f1e674a2946f"),
    "C3": (12, "fd457ef62422ddbf"),
    "D1": (17, "cc73655ac6f42b27"),
    "D2": (15, "130994b465221e56"),
    "D3": (11, "354b48a65838b089"),
    "E1": (27, "5d78a4f661103815"),
    "E2": (25, "67387608552664d0"),
    "E3": (21, "369aa0a98d4093fd"),
    "F1": (24, "849ff570fa151fcb"),
    "F2": (22, "05bd76ca41d30e60"),
    "F3": (18, "3b15843b25f50251"),
    "G1": (21, "365223bfb38ef473"),
    "G2": (19, "1dc701ab97a00539"),
    "G3": (15, "899786ce72b66009"),
}


def test_classroom_presets_build():
    for letter in "ABCDEFG":
        for number in "123":
            spec = classroom_spec(letter + number)
            assert spec.p >= 7
            digest = hashlib.sha256(spec.to_json().encode()).hexdigest()[:16]
            assert (spec.p, digest) == PRESET_PINS[letter + number], letter + number
    with pytest.raises(ValueError):
        classroom_spec("Z9")


def test_compute_stat_vector_deterministic():
    d = syn52()
    s = state_after([(0.1, 0, 1), (0.2, 1, 5)], n_actors=10)
    v1 = d.spec.vector(s, d.cov, d.risk, 5, 1)
    v2 = d.spec.vector(s, d.cov, d.risk, 5, 1)
    assert np.array_equal(v1, v2)
    assert v1.shape == (d.spec.p,)


def test_unique_table_intercept_only():
    hist = oracle.event_history(((0.2, 0, 1), (0.5, 1, 2)), tau=1.0, n_actors=3)
    risk = build_risk_set(3)
    table = unique_stat_table(StatisticSpec((Baserate(),)), hist, risk, COV)
    assert table.n_unique == 1
    assert table.q[0] == 2
    assert table.m[0] == pytest.approx(len(risk) * 1.0)


def test_unique_table_two_actor_abba():
    hist = oracle.event_history(((0.2, 0, 1), (0.5, 1, 0), (0.7, 0, 1)), tau=1.0, n_actors=2)
    risk = build_risk_set(2)
    table = unique_stat_table(StatisticSpec((PShift("AB-BA"),)), hist, risk, COV)
    assert table.n_unique <= 2
    assert table.q.sum() == 3


def test_unique_table_invariants_random():
    d = syn52(baserate=-1.0)
    risk = d.risk
    for seed in range(5):
        hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=60, seed=seed)
        table = unique_stat_table(d.spec, hist, risk, d.cov)
        assert table.q.sum() == hist.m
        assert table.m.sum() == pytest.approx(len(risk) * hist.tau, rel=1e-12)
        # vectors pairwise distinct
        assert len({v.tobytes() for v in table.vectors}) == table.n_unique


def test_unique_table_with_contexts():
    cov = CovariateSet(context_track=((0.0, "a"), (0.4, "b")))
    spec = StatisticSpec((Baserate(), ContextIndicator("b")))
    hist = oracle.event_history(((0.2, 0, 1), (0.6, 1, 0)), tau=1.0, n_actors=2)
    risk = build_risk_set(2)
    table = unique_stat_table(spec, hist, risk, cov)
    # exposure splits at the context switch: 0.4 under "a", 0.6 under "b", per dyad
    assert table.m.sum() == pytest.approx(2.0)
    by_vec = {tuple(v): m for v, m in zip(table.vectors, table.m)}
    assert by_vec[(1.0, 0.0)] == pytest.approx(0.8)
    assert by_vec[(1.0, 1.0)] == pytest.approx(1.2)


def test_unique_table_keeps_zero_and_minus_zero_rows_across_a_context_switch():
    # The row of every dyad is 0.0 under context "a" and -0.0 (the sender's
    # x) under "b": equal as floats, two rows bitwise.
    cov = CovariateSet(actor_attrs={"x": {0: -0.0, 1: -0.0}},
                       context_track=((0.0, "a"), (0.4, "b")))
    spec = StatisticSpec((ContextInteraction(SenderAttr("x"), "b"),))
    hist = oracle.event_history(((0.2, 0, 1), (0.6, 1, 0)), tau=1.0, n_actors=2)
    risk = build_risk_set(2)
    table = unique_stat_table(spec, hist, risk, cov)
    assert table.n_unique == 2
    assert np.signbit(table.vectors[:, 0]).tolist() == [False, True]
    assert table.q.tolist() == [1, 1]
    assert table.m.tolist() == pytest.approx([0.8, 1.2])  # 0.4 and 0.6 per dyad
    vectors, q, m = oracle.table(spec, hist, risk, cov)
    assert same_bits(table.vectors, vectors)
    assert np.array_equal(table.q, q)
    assert same_bits(table.m, m)


def test_recency_receive_column_matches_values():
    risk = build_risk_set(4)
    events = [(0.1, 0, 1), (0.3, 2, 1), (0.5, 3, 1)]
    spec = StatisticSpec((RecencyReceive(),))
    col = spec.matrix(state_after(events), COV, risk)[:, 0]
    past = past_after(events)
    for r, (i, j) in enumerate(risk.dyads):
        assert col[r] == oracle.recency_rank("receive", past, i, j)


# ---------------------------------------------------------------------------
# The table builder and the statistic matrix against per-dyad oracles


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


def effect_pool():
    """Every effect type, over actor attributes x (real) and g (u/v), dyad attribute w."""
    return [
        Baserate(),
        SenderAttr("x"), SenderAttr("g", "u"),
        ReceiverAttr("x"), ReceiverAttr("g", "v"),
        DyadMatch("g"), DyadValue("w"), Mix("g", "u", "v"), Mix("g", "v", "v"),
        *(PShift(k) for k in PSHIFT_KINDS),
        RecencySend(), RecencyReceive(),
        ContextIndicator("b"),
        ContextInteraction(PShift("AB-BA"), "b"),
        ContextInteraction(RecencySend(), "a"),
        ContextInteraction(SenderAttr("x"), "b"),
        ContextInteraction(ToBroadcast(prev=True), "a"),
        ToBroadcast(), ToBroadcast("g", "u"),
        ToBroadcast(prev=True), ToBroadcast("g", "u", prev=True),
        EventCount(1.0), EventCount(2.0), EventCount(0.5),
    ]


@st.composite
def designs(draw):
    n = draw(st.integers(3, 5))
    risk = build_risk_set(n, include_broadcast=True)
    # -0.0 and 0.0 compare equal but differ bitwise, so they must stay distinct rows
    x = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -0.3]), min_size=n + 1,
                      max_size=n + 1))
    g = draw(st.lists(st.sampled_from("uv"), min_size=n + 1, max_size=n + 1))
    # An attribute value for the broadcast id must not displace its room mean.
    n_valued = n + draw(st.sampled_from([0, 1]))
    real = [d for d in risk.dyads if d[1] != risk.broadcast_actor]
    w_on = draw(st.lists(st.sampled_from(real), max_size=6, unique=True))
    w_val = draw(st.sampled_from([1.0, 0.5, 3.0]))
    gaps = draw(st.lists(st.sampled_from([0.1, 0.25, 0.4, 1.0]), min_size=1, max_size=25))
    times = np.cumsum(gaps)
    tau = float(times[-1]) + draw(st.sampled_from([0.05, 0.3]))
    picks = draw(st.lists(st.integers(0, len(risk) - 1), min_size=len(gaps),
                          max_size=len(gaps)))
    events = tuple((float(t), *risk.dyads[r]) for t, r in zip(times, picks))
    switches = draw(st.lists(st.sampled_from(sorted(set(times.tolist()) | {0.3, 0.7, 1.9})),
                             max_size=4, unique=True))
    track = [(0.0, "a")] + [(float(s), "ab"[k % 2 == 0]) for k, s in enumerate(sorted(switches))]
    cov = CovariateSet(
        actor_attrs={"x": dict(enumerate(x[:n_valued])), "g": dict(enumerate(g[:n_valued]))},
        dyad_attrs={"w": {d: w_val for d in w_on}},
        context_track=tuple(track),
    )
    pool = effect_pool()
    chosen = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9, unique=True))
    spec = StatisticSpec(tuple(pool[c] for c in chosen))
    return spec, oracle.event_history(events, tau=tau, n_actors=n), risk, cov


@settings(max_examples=40, deadline=None)
@given(designs())
def test_unique_table_matches_per_row_oracle(design):
    spec, history, risk, cov = design
    table = unique_stat_table(spec, history, risk, cov)
    vectors, q, m = oracle.table(spec, history, risk, cov)
    assert same_bits(table.vectors, vectors)  # also fixes the row order
    assert table.q.dtype == q.dtype and np.array_equal(table.q, q)
    assert same_bits(table.m, m)


def test_broadcast_recipient_counts_under_its_room_mean_row():
    # The broadcast id 4 also carries an x value; its row takes the room mean of x.
    cov = CovariateSet(actor_attrs={"x": {0: 1, 1: 0, 2: 0, 3: 1, 4: 1}})
    risk = build_risk_set(4, include_broadcast=True)
    spec = StatisticSpec((ReceiverAttr("x"), Mix("x", 1, 1)))
    hist = oracle.event_history(((0.5, 0, 4), (1.0, 1, 2), (1.5, 0, 4)), tau=2.0, n_actors=4)
    table = unique_stat_table(spec, hist, risk, cov)
    q = {tuple(v): n for v, n in zip(table.vectors.tolist(), table.q)}
    assert q[(0.5, 0.5)] == 2  # both (0, 4) events
    assert q[(1.0, 1.0)] == 0  # the row of (0, 3), which never occurs
    vectors, q, m = oracle.table(spec, hist, risk, cov)
    assert same_bits(table.vectors, vectors)
    assert np.array_equal(table.q, q)
    assert same_bits(table.m, m)


def classroom_covariates(n=6):
    rng = np.random.default_rng(3)
    race = rng.choice(list("abc"), n)
    female = rng.integers(0, 2, n)
    actors = {
        "teacher": {i: int(i == 0) for i in range(n)},
        "female": {i: int(female[i]) for i in range(n)},
        "white": {i: int(v) for i, v in enumerate(rng.integers(0, 2, n))},
        "race": {i: str(race[i]) for i in range(n)},
        "gender": {i: "f" if female[i] else "m" for i in range(n)},
    }
    dyads = {name: {(i, j): float(rng.integers(1, 3)) for i in range(n) for j in range(n)
                    if i != j and rng.random() < 0.3}
             for name in ("friends", "adjacent", "activities")}
    track = ((0.0, "lecture"), (2.0, "groupwork"), (4.0, "silent"), (6.0, "lecture"))
    return CovariateSet(actor_attrs=actors, dyad_attrs=dyads, context_track=track)


def classroom_history(n_events, seed):
    """A short sequence simulated under E1 on six actors plus broadcast."""
    cov = classroom_covariates()
    risk = build_risk_set(6, include_broadcast=True)
    gen = classroom_spec("E1")
    beta = np.full(gen.p, 0.2) - np.eye(gen.p)[0] * 2.5
    return simulate_history(beta, gen, risk, cov, n_events=n_events, seed=seed), risk, cov


def test_matrix_rows_equal_vectors_in_every_context():
    hist, risk, cov = classroom_history(30, seed=4)
    for code in ("E1", "A1", "G3", "F2"):
        spec = classroom_spec(code)
        state = SeqState(6, broadcast=risk.broadcast_actor, cov=cov)
        past = oracle.Past(6, broadcast=risk.broadcast_actor)
        for event in hist.events:
            for ctx in ("lecture", "groupwork", "silent"):
                mat = spec.matrix(state, cov, risk, context=ctx)
                rows = np.array([oracle.vector(spec, past, cov, i, j, ctx)
                                 for i, j in risk.dyads])
                assert same_bits(mat, rows), (code, ctx, state.n_applied)
                i, j = risk.dyads[-1]
                assert same_bits(spec.vector(state, cov, risk, i, j, context=ctx), mat[-1])
            state.apply(event, cov)
            past.apply(event)


def test_unique_table_matches_per_row_oracle_on_presets():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=150, seed=9)
    cases = [(d.spec, hist, d.risk, d.cov)]
    hist, risk, cov = classroom_history(40, seed=5)
    cases += [(classroom_spec(code), hist, risk, cov) for code in ("E1", "A1")]
    for spec, history, risk, cov in cases:
        table = unique_stat_table(spec, history, risk, cov)
        vectors, q, m = oracle.table(spec, history, risk, cov)
        assert same_bits(table.vectors, vectors)
        assert np.array_equal(table.q, q)
        assert same_bits(table.m, m)


def block_design(track="switches"):
    """Six actors plus broadcast, a spec of every walk-dependent kind, and 40 events.

    With `track` "switches", the context track switches exactly at event 5's
    time (so that event is scored in a context no piece of its interval
    has), inside the interval before event 10, twice inside the interval
    before event 15, and in the censored tail.  With "repeats", consecutive
    entries carry the same label: one starts exactly at event 4's time, which
    the event's interval has as its context, so only a label change (at
    event 7's time) gives an event a segment of its own; the interval before
    event 12 holds four switches, two of them to the label it already has,
    and the tail one more.
    """
    rng = np.random.default_rng(19)
    n = 6
    risk = build_risk_set(n, include_broadcast=True)
    events, t = [], 0.0
    for _ in range(40):
        t += float(rng.exponential())
        i = int(rng.integers(n))
        j = int(rng.choice([k for k in range(n + 1) if k != i]))
        events.append((t, i, j))
    times = [e[0] for e in events]
    if track == "switches":
        track = ((0.0, "a"), (times[5], "b"), ((times[8] + times[9]) / 2, "a"),
                 (times[13] + (times[14] - times[13]) / 3, "b"),
                 (times[13] + 2 * (times[14] - times[13]) / 3, "c"), (times[-1] + 0.5, "b"))
    else:
        gap = times[12] - times[11]
        track = ((0.0, "a"), (times[4], "a"), (times[7], "b"),
                 *((times[11] + f * gap, lab) for f, lab in ((0.2, "b"), (0.4, "c"), (0.6, "a"),
                                                             (0.8, "a"))),
                 (times[-1] + 0.5, "a"))
    cov = CovariateSet(actor_attrs={"teacher": {i: int(i == 0) for i in range(n)}},
                       context_track=track)
    history = oracle.event_history(tuple(events), n_actors=n, tau=times[-1] + 1.0)
    spec = StatisticSpec((
        Baserate(), SenderAttr("teacher", 1), ContextIndicator("b"),
        *(PShift(k) for k in PSHIFT_KINDS),
        RecencySend(), RecencyReceive(), EventCount(1.0), EventCount(0.5),
        ToBroadcast(prev=True), ToBroadcast(attr="teacher", level=1, prev=True),
        ContextInteraction(RecencySend(), "b"), ContextInteraction(PShift("AB-BA"), "b"),
        ContextInteraction(EventCount(0.5), "c"),
    ))
    return spec, history, risk, cov


def walk_sizes(risk):
    """Values of _WALK_BLOCK giving 1, 2 and 3 keys a block, and the default."""
    return (1, 2 * len(risk), 3 * len(risk) + 5, hrem.stats._WALK_BLOCK)


def walked_segments(spec, history, risk, cov, start, size):
    """(duration, context, event, row, matrix) of every segment of the walk, `size` rows a block."""
    w = hrem.stats.walk(spec, history, risk, cov, start=start)
    blocks, ready = [], []
    for block, parts in w.blocks():
        blocks.append(block)
        for part, slots in parts:  # each segment once, in order, once its key is built
            assert part.start == len(ready) and part.stop - part.start <= max(1, size // len(risk))
            ready.extend(range(part.start, part.stop))
            assert w.key[part].max() < block.keys.stop
            assert np.array_equal(np.arange(w.n_slots)[slots], w.key[part] % w.n_slots)
    assert ready == list(range(len(w.dur)))
    per = max(1, size // len(risk))
    assert all(len(b.codes) == per for b in blocks[:-1]) and len(blocks[-1].codes) <= per
    mats = np.concatenate([b.matrices() for b in blocks])
    assert len(mats) == len(w.first) and np.array_equal(w.key[w.first], np.arange(len(w.first)))
    assert [k for b in blocks for k in range(len(w.first))[b.keys]] == list(range(len(w.first)))
    assert all(b.slots == slice(b.keys.start % w.n_slots, b.keys.start % w.n_slots + len(b.codes))
               and b.slots.stop <= w.n_slots for b in blocks)
    return list(zip(w.dur.tolist(), w.contexts, w.event.tolist(), w.row.tolist(), mats[w.key]))


@pytest.mark.parametrize("start", [0, 3])
def test_walk_blocks_match_the_scalar_oracle_for_every_segment_and_block_size(monkeypatch,
                                                                                start):
    for track in ("switches", "repeats"):
        spec, history, risk, cov = block_design(track)
        want = oracle.segments(spec, history, risk, cov, start)
        assert any(d == 0.0 for d, *_ in want) and want[0][2] == start  # event-only, first event
        if track == "repeats":
            ends = {ev: n for n, (_, _, ev, _, _) in enumerate(want) if ev >= 0}
            assert want[ends[4]][0] > 0 and want[ends[7]][0] == 0.0
            assert ends[12] - ends[11] == 5  # the four switches cut the interval in five
        for size in walk_sizes(risk):
            monkeypatch.setattr(hrem.stats, "_WALK_BLOCK", size)
            got = walked_segments(spec, history, risk, cov, start, size)
            assert len(got) == len(want), (track, size)
            for n, (g, w) in enumerate(zip(got, want)):
                assert g[:4] == w[:4], (track, size, n)
                assert same_bits(g[4], w[4]), (track, size, n, g[:4])


def test_tables_and_scores_are_the_same_for_any_walk_block(monkeypatch):
    from hrem.likelihood import score_events

    cases = [block_design("switches"), block_design("repeats")]
    hist, risk, cov = classroom_history(40, seed=5)
    cases.append((classroom_spec("E1"), hist, risk, cov))
    for spec, history, risk, cov in cases:
        vectors, q, m = oracle.table(spec, history, risk, cov)
        beta = np.linspace(-0.5, 0.4, spec.p)
        scores = {}
        for size in walk_sizes(risk):
            monkeypatch.setattr(hrem.stats, "_WALK_BLOCK", size)
            table = unique_stat_table(spec, history, risk, cov)
            assert same_bits(table.vectors, vectors) and np.array_equal(table.q, q), size
            assert same_bits(table.m, m), size
            for start in (0, 11):
                got = score_events(beta, history, spec, risk, cov, start=start)
                first = scores.setdefault(start, got)
                for name in ("log_hazard", "exposure", "prob", "log_prob", "higher", "ties"):
                    assert same_bits(getattr(got, name), getattr(first, name)), (size, name)
                assert got.tail_exposure == first.tail_exposure
            assert np.array_equal(scores[0].higher[11:], scores[11].higher)


def test_matrix_follows_a_new_covariate_set():
    risk = build_risk_set(4)
    spec = StatisticSpec((Baserate(), SenderAttr("x"), DyadValue("w"), PShift("AB-BA")))
    first = CovariateSet(actor_attrs={"x": {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}},
                         dyad_attrs={"w": {(0, 1): 1.0}})
    second = CovariateSet(actor_attrs={"x": {0: -1.0, 1: 0.0, 2: 5.0, 3: 7.0}},
                          dyad_attrs={"w": {(2, 3): 9.0}})
    state = state_after([(0.1, 0, 1)])
    for cov in (first, second, first):
        mat = spec.matrix(state, cov, risk)
        fresh = StatisticSpec(spec.effects).matrix(state, cov, risk)
        assert same_bits(mat, fresh)
        assert np.array_equal(mat[:, 1], [cov.actor_attrs["x"][i] for i, _ in risk.dyads])
    # a different risk set over the same covariates is a new cache entry too
    smaller = build_risk_set(3)
    assert spec.matrix(state, first, smaller).shape == (len(smaller), spec.p)


def without_state(spec):
    """The spec's columns that read no walk state."""
    return StatisticSpec(tuple(eff for eff in spec.effects if not eff.reads_state))


@pytest.mark.parametrize("budget", [hrem.stats._KEY_BUDGET, 0], ids=["keyed", "per_segment"])
@pytest.mark.parametrize("track", ["switches", "repeats"])
def test_keyed_walk_builds_tables_and_scores_as_the_per_segment_references(monkeypatch, track,
                                                                           budget):
    from hrem.likelihood import score_events

    monkeypatch.setattr(hrem.stats, "_KEY_BUDGET", budget)
    full, history, risk, cov = block_design(track)
    for spec in (without_state(full), full):
        vectors, q, m = oracle.table(spec, history, risk, cov)
        beta = np.linspace(-0.5, 0.4, spec.p)
        want = {start: oracle.scores(beta, history, spec, risk, cov, start) for start in (0, 11)}
        segments = {start: oracle.segments(spec, history, risk, cov, start) for start in (0, 11)}
        for size in walk_sizes(risk):
            monkeypatch.setattr(hrem.stats, "_WALK_BLOCK", size)
            table = unique_stat_table(spec, history, risk, cov)
            assert same_bits(table.vectors, vectors) and np.array_equal(table.q, q), size
            assert same_bits(table.m, m), size
            for start in (0, 11):
                walked = hrem.stats.walk(spec, history, risk, cov, start=start)
                # A spec that reads no state shares keys within the budget; an
                # event-only segment has its own.
                shared = len(walked.first) < len(walked.dur)
                assert shared == (not spec._stateful and budget > 0), (size, start)
                got = walked_segments(spec, history, risk, cov, start, size)
                assert len(got) == len(segments[start])
                for g, w in zip(got, segments[start]):
                    assert g[:4] == w[:4] and same_bits(g[4], w[4]), (size, start, g[:4])
                scores = score_events(beta, history, spec, risk, cov, start=start)
                for name in ("log_hazard", "exposure", "prob", "log_prob", "higher", "ties"):
                    assert same_bits(getattr(scores, name), want[start][name]), (size, name)
                assert same_bits(np.float64(scores.tail_exposure),
                                 np.float64(want[start]["tail_exposure"]))


def test_an_event_only_segment_is_a_key_of_its_own():
    from hrem.likelihood import score_events

    # Event 1 falls on the switch to "b", so its segment holds only the
    # event, after the event (0, 1); the interval after event 2, also
    # (0, 1), lies in "b" too, so its exposed segment has the same context
    # and previous event.
    cov = CovariateSet(context_track=((0.0, "a"), (2.0, "b"), (2.5, "a"), (2.8, "b")))
    risk = build_risk_set(3)
    history = oracle.event_history(((1.0, 0, 1), (2.0, 1, 2), (3.0, 0, 1), (4.0, 1, 2)),
                                   tau=5.0, n_actors=3)
    spec = StatisticSpec((Baserate(), ContextIndicator("b"), PShift("AB-BA"), PShift("AB-BY"),
                          ContextInteraction(PShift("AB-XA"), "b")))
    walked = hrem.stats.walk(spec, history, risk, cov)
    assert walked.dur[2] == 0.0 and walked.key[2] not in walked.key[walked.dur > 0]
    assert len(walked.first) < len(walked.dur)
    table = unique_stat_table(spec, history, risk, cov)
    vectors, q, m = oracle.table(spec, history, risk, cov)
    assert same_bits(table.vectors, vectors) and np.array_equal(table.q, q)
    assert same_bits(table.m, m)
    beta = np.array([-1.0, 0.5, 0.25, -0.75, 1.5])
    scores = score_events(beta, history, spec, risk, cov)
    want = oracle.scores(beta, history, spec, risk, cov)
    for name in ("log_hazard", "exposure", "prob", "log_prob", "higher", "ties"):
        assert same_bits(getattr(scores, name), want[name]), name


def test_a_stateless_walk_over_a_large_risk_set_keeps_one_blocks_rows(monkeypatch):
    from hrem.likelihood import score_events

    risk = build_risk_set(80)
    rows = np.random.default_rng(3).choice(len(risk), size=300, replace=False)
    events = tuple((0.01 * (n + 1), *risk.dyads[r]) for n, r in enumerate(rows.tolist()))
    history = oracle.event_history(events, tau=4.0, n_actors=80)
    spec = StatisticSpec((Baserate(), PShift("AB-BA"), PShift("AB-XA")))
    assert not spec._stateful
    walked = hrem.stats.walk(spec, history, risk, COV)
    # Its distinct keys would need more rows than the budget allows.
    pairs = set(zip(history.senders.tolist(), history.recipients.tolist()))
    assert len(pairs) * len(risk) > hrem.stats._KEY_BUDGET
    assert walked.n_slots == max(1, hrem.stats._WALK_BLOCK // len(risk))
    assert np.array_equal(walked.key, np.arange(len(walked.dur)))
    beta = np.array([-1.0, 0.75, -0.5])
    table = unique_stat_table(spec, history, risk, COV)
    scores = score_events(beta, history, spec, risk, COV, start=7)
    # Past no budget, every key is distinct and kept, three a block.
    monkeypatch.setattr(hrem.stats, "_KEY_BUDGET", 1 << 40)
    monkeypatch.setattr(hrem.stats, "_WALK_BLOCK", 3 * len(risk))
    assert hrem.stats.walk(spec, history, risk, COV).n_slots == len(walked.dur)
    keyed = unique_stat_table(spec, history, risk, COV)
    assert same_bits(table.vectors, keyed.vectors) and np.array_equal(table.q, keyed.q)
    assert same_bits(table.m, keyed.m)
    want = score_events(beta, history, spec, risk, COV, start=7)
    for name in ("log_hazard", "exposure", "prob", "log_prob", "higher", "ties"):
        assert same_bits(getattr(scores, name), getattr(want, name)), name
    assert scores.tail_exposure == want.tail_exposure


def test_a_syn52_walk_builds_one_matrix_per_distinct_key(monkeypatch):
    from hrem.likelihood import score_events

    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=400, seed=9)
    keys, own = set(), 0  # (context, previous event) of every piece, and event-only segments
    for past, pieces, event in oracle._intervals(hist, d.risk, d.cov):
        pieces = list(pieces)
        keys |= {(ctx, past.last_event) for _, ctx in pieces}
        own += event is not None and (not pieces or pieces[-1][1] != event[2])
    assert len(keys) + own <= len(d.risk) + 1 < hist.m
    built = []
    block = StatisticSpec._block

    def counting(self, segs, cov, risk, dyn):
        built.append(len(segs.contexts) * len(risk))
        return block(self, segs, cov, risk, dyn)

    monkeypatch.setattr(StatisticSpec, "_block", counting)
    unique_stat_table(d.spec, hist, d.risk, d.cov)
    assert sum(built) == (len(keys) + own) * len(d.risk)
    built.clear()
    score_events(d.beta, hist, d.spec, d.risk, d.cov)
    assert sum(built) == (len(keys) + own) * len(d.risk)


def test_a_state_without_the_risk_sets_nodes_is_refused():
    from hrem.simulate import event_choice_probabilities

    risk = build_risk_set(4, include_broadcast=True)
    spec = StatisticSpec((Baserate(), RecencySend()))
    message = "the state has 4 nodes, fewer than the 5 of the risk set"
    with pytest.raises(ValueError, match=message):
        spec.matrix(SeqState(4), COV, risk)
    with pytest.raises(ValueError, match=message):
        event_choice_probabilities(np.zeros(2), spec, risk, COV, SeqState(4))
    state = SeqState(4, broadcast=4).apply((0.5, 0, 4))
    assert spec.matrix(state, COV, risk)[risk.row_index[0, 4]].tolist() == [1.0, 1.0]
