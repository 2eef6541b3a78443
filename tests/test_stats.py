import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrem.events import CovariateSet, EventHistory, build_risk_set
from hrem.presets import classroom_spec, syn52
from hrem.simulate import simulate_history
from hrem.stats import (
    PSHIFT_KINDS,
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
    StatisticSpec,
    ToBroadcast,
    pshift_label,
    recency_rank,
    unique_stat_table,
)

COV = CovariateSet()


def state_after(events, n_actors=4, cov=None):
    s = SeqState(n_actors, cov=cov)
    for ev in events:
        s.apply(ev, cov)
    return s


def test_pshift_ab_ba():
    s = state_after([(0.1, 0, 1)])
    spec = StatisticSpec((PShift("AB-BA"),))
    assert spec.vector(s, COV, 1, 0)[0] == 1.0
    assert spec.vector(s, COV, 0, 1)[0] == 0.0


def test_pshift_ab_xb_requires_distinct_x():
    s = state_after([(0.1, 0, 1)])
    spec = StatisticSpec((PShift("AB-XB"),))
    # querying (B, A): sender is B, not a third actor X
    assert spec.vector(s, COV, 1, 0)[0] == 0.0
    assert spec.vector(s, COV, 2, 1)[0] == 1.0


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
    assert np.all(spec.vector(s, COV, 0, 1) == 0.0)


def test_repeat_event_carries_no_indicator():
    s = state_after([(0.1, 0, 1)])
    assert pshift_label((0, 1), (0.2, 0, 1)) is None
    spec = StatisticSpec(tuple(PShift(k) for k in PSHIFT_KINDS))
    assert np.all(spec.vector(s, COV, 0, 1) == 0.0)


def test_pshift_label_kinds():
    assert pshift_label((0, 1), (0.2, 1, 0)) == "AB-BA"
    assert pshift_label((0, 1), (0.2, 1, 2)) == "AB-BY"
    assert pshift_label((0, 1), (0.2, 2, 0)) == "AB-XA"
    assert pshift_label((0, 1), (0.2, 2, 1)) == "AB-XB"
    assert pshift_label((0, 1), (0.2, 2, 3)) == "AB-XY"
    assert pshift_label((0, 1), (0.2, 0, 2)) == "AB-AY"
    assert pshift_label(None, (0.2, 0, 1)) is None


def test_recency_rank_values():
    s = state_after([(0.1, 0, 1), (0.2, 0, 2), (0.3, 0, 3)])
    assert recency_rank("send", s, 0, 3) == 1.0
    assert recency_rank("send", s, 0, 2) == 0.5
    assert recency_rank("send", s, 0, 1) == pytest.approx(1 / 3)
    assert recency_rank("send", s, 1, 0) == 0.0  # absent: rank infinity
    assert recency_rank("receive", s, 1, 0) == 1.0


def test_recency_effect_falls_to_half():
    spec = StatisticSpec((RecencySend(),))
    s = state_after([(0.1, 0, 1)])
    assert spec.vector(s, COV, 0, 1)[0] == 1.0
    s.apply((0.2, 0, 2))
    assert spec.vector(s, COV, 0, 1)[0] == 0.5


def test_update_state_examples():
    empty = SeqState(4)
    s = empty.copy().apply((0.1, 1, 2))
    assert s.send_recency[1] == [2]
    assert s.counts[1, 2] == 1
    assert empty.send_recency[1] == [] and empty.counts.sum() == 0  # copy leaves the original
    s = s.copy().apply((0.2, 1, 3))
    assert s.send_recency[1] == [3, 2]
    s2 = SeqState(4).copy().apply((0.1, 1, 2)).copy().apply((0.2, 1, 2))
    assert s2.send_recency[1] == [2]
    assert s2.counts[1, 2] == 2


def test_update_state_rejects_out_of_order():
    s = state_after([(0.5, 0, 1)])
    with pytest.raises(ValueError, match="out-of-order"):
        s.copy().apply((0.4, 1, 0))
    with pytest.raises(ValueError, match="out-of-order"):
        s.apply((0.4, 1, 0))


def test_state_rebuild_equals_incremental():
    rng = np.random.default_rng(7)
    for _ in range(10):
        events = []
        t = 0.0
        for _ in range(30):
            t += float(rng.exponential())
            i, j = rng.choice(5, size=2, replace=False)
            events.append((t, int(i), int(j)))
        inc = SeqState(5)
        for m, ev in enumerate(events, start=1):
            inc.apply(ev)
            scratch = state_after(events[:m], n_actors=5)
            assert inc.last_event == scratch.last_event
            assert inc.send_recency == scratch.send_recency
            assert inc.receive_recency == scratch.receive_recency
            assert np.array_equal(inc.counts, scratch.counts)
            assert inc.counts.sum() == m


def test_spec_requires_nonempty_unique():
    with pytest.raises(ValueError):
        StatisticSpec(())
    with pytest.raises(ValueError):
        StatisticSpec((Baserate(), Baserate()))


def test_spec_check_unknown_attribute():
    spec = StatisticSpec((DyadMatch("race"),))
    with pytest.raises(KeyError, match="race"):
        spec.check(CovariateSet(), 4)


def test_spec_json_round_trip():
    spec = syn52().spec
    again = StatisticSpec.from_json(spec.to_json())
    assert again == spec


def test_classroom_presets_build():
    for letter in "ABCDEFG":
        for number in "123":
            spec = classroom_spec(letter + number)
            assert spec.p >= 7
    with pytest.raises(ValueError):
        classroom_spec("Z9")


def test_compute_stat_vector_deterministic():
    d = syn52()
    s = state_after([(0.1, 0, 1), (0.2, 1, 5)], n_actors=10)
    v1 = d.spec.vector(s, d.cov, 5, 1)
    v2 = d.spec.vector(s, d.cov, 5, 1)
    assert np.array_equal(v1, v2)
    assert v1.shape == (d.spec.p,)


def test_unique_table_intercept_only():
    hist = EventHistory(events=((0.2, 0, 1), (0.5, 1, 2)), tau=1.0, n_actors=3)
    risk = build_risk_set(3)
    table = unique_stat_table(StatisticSpec((Baserate(),)), hist, risk, COV)
    assert table.n_unique == 1
    assert table.q[0] == 2
    assert table.m[0] == pytest.approx(len(risk) * 1.0)


def test_unique_table_two_actor_abba():
    hist = EventHistory(events=((0.2, 0, 1), (0.5, 1, 0), (0.7, 0, 1)), tau=1.0, n_actors=2)
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
    hist = EventHistory(events=((0.2, 0, 1), (0.6, 1, 0)), tau=1.0, n_actors=2)
    risk = build_risk_set(2)
    table = unique_stat_table(spec, hist, risk, cov)
    # exposure splits at the context switch: 0.4 under "a", 0.6 under "b", per dyad
    assert table.m.sum() == pytest.approx(2.0)
    by_vec = {tuple(v): m for v, m in zip(table.vectors, table.m)}
    assert by_vec[(1.0, 0.0)] == pytest.approx(0.8)
    assert by_vec[(1.0, 1.0)] == pytest.approx(1.2)


def test_recency_receive_column_matches_values():
    risk = build_risk_set(4)
    s = state_after([(0.1, 0, 1), (0.3, 2, 1), (0.5, 3, 1)])
    spec = StatisticSpec((RecencyReceive(),))
    col = spec.matrix(s, COV, risk)[:, 0]
    for r, (i, j) in enumerate(risk.dyads):
        assert col[r] == recency_rank("receive", s, i, j)


# ---------------------------------------------------------------------------
# The table builder and the statistic matrix against per-dyad oracles


def oracle_table(spec, history, risk, cov):
    """Per-row builder: each dyad's row from spec.vector, deduplicated by its bytes."""
    state = SeqState(history.n_actors, broadcast=risk.broadcast_actor, cov=cov)
    index, vectors, q, m = {}, [], [], []

    def slot(row):
        key = row.tobytes()
        r = index.get(key)
        if r is None:
            r = index[key] = len(vectors)
            vectors.append(row.copy())
            q.append(0)
            m.append(0.0)
        return r

    def expose(t0, t1):
        for dur, ctx in cov.context_segments(t0, t1):
            for i, j in risk.dyads:
                m[slot(spec.vector(state, cov, i, j, context=ctx))] += dur

    prev_t = 0.0
    for (t, i, j) in history.events:
        expose(prev_t, t)
        q[slot(spec.vector(state, cov, i, j, context=cov.context_at(t)))] += 1
        state.apply((t, i, j), cov)
        prev_t = t
    expose(prev_t, history.tau)
    vectors = np.array(vectors) if vectors else np.zeros((0, spec.p))
    return vectors, np.array(q, dtype=np.int64), np.array(m, dtype=float)


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
    # -0.0 and 0.0 project alike but differ bitwise, so they must stay distinct rows
    x = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -0.3]), min_size=n, max_size=n))
    g = draw(st.lists(st.sampled_from("uv"), min_size=n, max_size=n))
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
        actor_attrs={"x": dict(enumerate(x)), "g": dict(enumerate(g))},
        dyad_attrs={"w": {d: w_val for d in w_on}},
        context_track=tuple(track),
    )
    pool = effect_pool()
    chosen = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9, unique=True))
    spec = StatisticSpec(tuple(pool[c] for c in chosen))
    return spec, EventHistory(events=events, tau=tau, n_actors=n), risk, cov


@settings(max_examples=40, deadline=None)
@given(designs())
def test_unique_table_matches_per_row_oracle(design):
    spec, history, risk, cov = design
    table = unique_stat_table(spec, history, risk, cov)
    vectors, q, m = oracle_table(spec, history, risk, cov)
    assert same_bits(table.vectors, vectors)  # also fixes the row order
    assert table.q.dtype == q.dtype and np.array_equal(table.q, q)
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
        for event in hist.events:
            for ctx in ("lecture", "groupwork", "silent"):
                mat = spec.matrix(state, cov, risk, context=ctx)
                rows = np.array([spec.vector(state, cov, i, j, context=ctx)
                                 for i, j in risk.dyads])
                assert same_bits(mat, rows), (code, ctx, state.n_applied)
            state.apply(event, cov)


def test_unique_table_matches_per_row_oracle_on_presets():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=150, seed=9)
    cases = [(d.spec, hist, d.risk, d.cov)]
    hist, risk, cov = classroom_history(40, seed=5)
    cases += [(classroom_spec(code), hist, risk, cov) for code in ("E1", "A1")]
    for spec, history, risk, cov in cases:
        table = unique_stat_table(spec, history, risk, cov)
        vectors, q, m = oracle_table(spec, history, risk, cov)
        assert same_bits(table.vectors, vectors)
        assert np.array_equal(table.q, q)
        assert same_bits(table.m, m)


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
