"""Graph sampling, score generation, count aggregation, schedules, file I/O."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoregraph as sg
from scoregraph.errors import InfeasibleError
from scoregraph.graph import _complete_edges, _draw_scores, _key_sets, _scorer


def test_minimum_edge_count_forces_pure_cycle():
    g = sg.sample_score_graph(3, 3, "cyclic-plus-random-edges",
                              np.random.default_rng(0))
    assert sorted(map(tuple, g.edges)) == [(0, 1), (1, 2), (2, 0)]


def test_complete_family_yields_all_ordered_pairs():
    n = 300
    g = sg.sample_score_graph(n, n * n - n, "complete")
    assert g.n_edges == 89700
    pairs = {tuple(e) for e in g.edges}
    assert len(pairs) == 89700
    assert all(i != j for i, j in pairs)


def test_sampling_deterministic_under_fixed_seed():
    a = sg.sample_score_graph(5, 7, "cyclic-plus-random-edges",
                              np.random.default_rng(42))
    b = sg.sample_score_graph(5, 7, "cyclic-plus-random-edges",
                              np.random.default_rng(42))
    assert np.array_equal(a.edges, b.edges)


def test_edge_count_range_is_enforced():
    with pytest.raises(ValueError):
        sg.sample_score_graph(5, 4, "cyclic-plus-random-edges")
    with pytest.raises(ValueError):
        sg.sample_score_graph(5, 21, "cyclic-plus-random-edges")
    with pytest.raises(ValueError):
        sg.sample_score_graph(1, 1, "cyclic-plus-random-edges")
    with pytest.raises(ValueError):
        sg.sample_score_graph(5, 12, "complete")   # complete means all pairs
    # a non-integer count or too few agents is rejected before any draw, naming the size
    for n_agents, target, topology, message in (
            (10, 20.0, "cyclic-plus-random-edges", "edge_count_target must be an integer"),
            (10, "20", "cyclic-plus-random-edges", "edge_count_target must be an integer"),
            (10.5, 20, "cyclic-plus-random-edges", "n_agents must be an integer"),
            ("10", 20, "cyclic-plus-random-edges", "n_agents must be an integer"),
            (5.0, 20, "complete", "n_agents must be an integer"),
            (1, 2, "cyclic-plus-random-edges", "n_agents must be >= 2")):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{message}$"):
            sg.sample_score_graph(n_agents, target, topology, rng)
        assert rng.bit_generator.state == before
    # numpy integer sizes give what Python ints give
    for topology, target in (("cyclic-plus-random-edges", 20), ("complete", 20)):
        a = sg.sample_score_graph(5, target, topology, np.random.default_rng(3))
        b = sg.sample_score_graph(np.int64(5), np.int64(target), topology,
                                  np.random.default_rng(3))
        assert np.array_equal(a.edges, b.edges) and (b.n_agents, b.n_edges) == (5, target)


def test_score_graph_rejects_malformed_edges():
    with pytest.raises(ValueError):
        sg.ScoreGraph(3, 2, np.array([(0, 0), (1, 2), (2, 1)]))   # self loop
    with pytest.raises(ValueError):
        sg.ScoreGraph(3, 2, np.array([(0, 1), (0, 1), (1, 0), (2, 0)]))  # dup
    with pytest.raises(ValueError):
        sg.ScoreGraph(3, 2, np.array([(1, 0), (0, 2), (2, 1)])[:2])  # no in-edge
    with pytest.raises(ValueError, match="edge endpoints must be integers"):
        sg.ScoreGraph(3, 2, [[0, 1.7], [1, 2], [2, 0]])
    with pytest.raises(ValueError, match="score indices must be integers"):
        sg.ScoreGraph(3, 2, [[0, 1], [1, 2], [2, 0]], [0.9, 1, 0])


def test_score_graph_rejects_non_integer_sizes(tmp_path):
    # a fractional R would build a graph whose saved header load_score_graph
    # rejects, and a float N fails inside numpy
    edges, scores = [[0, 1], [1, 2], [2, 0]], [0, 1, 0]
    for n_agents, n_scores, name in ((3, 2.5, "n_scores"), (3.0, 2, "n_agents"),
                                     (3, 2.0, "n_scores"), ("3", 2, "n_agents"),
                                     (3, "2", "n_scores")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            sg.ScoreGraph(n_agents, n_scores, edges, scores)
    # one below each bound keeps its own wording
    with pytest.raises(ValueError, match="^a score graph needs at least 2 agents$"):
        sg.ScoreGraph(1, 2, [[0, 0]])
    with pytest.raises(ValueError, match="^score alphabet size must be >= 2$"):
        sg.ScoreGraph(3, 1, edges)
    graph = sg.ScoreGraph(np.int64(3), np.int32(2), edges, scores)
    sg.save_score_graph(graph, tmp_path / "g.txt")
    loaded = sg.load_score_graph(tmp_path / "g.txt")
    assert (loaded.n_agents, loaded.n_scores) == (3, 2)
    np.testing.assert_array_equal(loaded.edges, graph.edges)
    np.testing.assert_array_equal(loaded.scores, graph.scores)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_sampled_graph_invariants(n, data):
    target = data.draw(st.integers(n, n * n - n))
    seed = data.draw(st.integers(0, 2**31))
    g = sg.sample_score_graph(n, target, "cyclic-plus-random-edges",
                              np.random.default_rng(seed))
    assert g.n_edges == target
    assert np.bincount(g.edges[:, 1], minlength=n).min() >= 1
    pairs = {tuple(e) for e in g.edges}
    assert len(pairs) == target and all(i != j for i, j in pairs)


def test_degenerate_prior_generates_deterministic_scores():
    m = sg.preparata_model()
    g = sg.sample_score_graph(10, 40, "cyclic-plus-random-edges",
                              np.random.default_rng(1))
    scored, states = sg.generate_scores(g, m, (), (0.0,), np.random.default_rng(1))
    assert np.all(states == 0)
    assert np.all(scored.scores == 0)   # sound evaluators report sound targets


def test_all_unsound_network_scores_are_coin_flips():
    m = sg.preparata_model()
    g = sg.sample_score_graph(60, 3000, "cyclic-plus-random-edges",
                              np.random.default_rng(2))
    scored, states = sg.generate_scores(g, m, (), (1.0,), np.random.default_rng(2))
    assert np.all(states == 1)
    frac = scored.scores.mean()
    # Binomial(3000, 1/2): keep 4 sigma of slack around 1/2
    assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 3000)


def test_generate_scores_rejects_infeasible_parameters():
    m = sg.preparata_model()
    g = sg.sample_score_graph(4, 6, "cyclic-plus-random-edges",
                              np.random.default_rng(0))
    with pytest.raises(InfeasibleError):
        sg.generate_scores(g, m, (), (1.5,), np.random.default_rng(0))


def test_conditional_score_histograms_match_model_pmf():
    """Empirical per-(evaluator, target) state-pair score frequencies on 1e5
    edges stay within 3 sigma of the model probabilities."""
    m = sg.social_ranking_model(3, 3)
    theta, gamma = (0.5,), (0.3,)
    g = sg.sample_score_graph(350, 100000, "cyclic-plus-random-edges",
                              np.random.default_rng(3))
    scored, states = sg.generate_scores(g, m, theta, gamma,
                                        np.random.default_rng(3))
    tensor = m.tensor(theta)
    ev, tg = states[scored.edges[:, 0]], states[scored.edges[:, 1]]
    for l in range(3):
        for mm in range(3):
            sel = (ev == l) & (tg == mm)
            n_lm = int(sel.sum())
            assert n_lm > 100
            for h in range(3):
                p = tensor[h, l, mm]
                emp = (scored.scores[sel] == h).mean()
                sigma = np.sqrt(p * (1 - p) / n_lm)
                assert abs(emp - p) <= 3 * sigma + 1e-12


def test_mutual_pair_counts_direct():
    # two agents scoring each other, distinct scores
    g = sg.ScoreGraph(2, 2, np.array([(0, 1), (1, 0)]), scores=np.array([0, 1]))
    c = sg.aggregate_counts(g)
    assert c.mutual[0, 0, 1] == 1          # gave score 0, received score 1
    assert c.mutual[1, 1, 0] == 1
    assert c.mutual.sum() == 2
    assert c.received_only.sum() == 0 and c.given_only.sum() == 0
    assert np.array_equal(c.received[0], [0, 1])
    assert np.array_equal(c.received[1], [1, 0])


def test_every_edge_counted_once_at_its_head():
    rng = np.random.default_rng(5)
    g = sg.sample_score_graph(9, 30, "cyclic-plus-random-edges", rng)
    scored, _ = sg.generate_scores(g, sg.reliability_model(4), (), (0.4,), rng)
    c = sg.aggregate_counts(scored)
    assert c.received.sum() == scored.n_edges
    assert np.array_equal(c.received.sum(axis=1), c.in_degree)
    assert np.array_equal(c.received.sum(axis=0),
                          np.bincount(scored.scores, minlength=4))
    assert abs(c.phi.sum() - 1.0) < 1e-12


def _assert_naive_recount(graph):
    """aggregate_counts(graph) equals a per-edge recount through a dict of scores."""
    c = sg.aggregate_counts(graph)
    n, r = graph.n_agents, graph.n_scores
    edges = [tuple(e) for e in graph.edges]
    scores = {e: int(h) for e, h in zip(edges, graph.scores)}
    received = np.zeros((n, r), dtype=int)
    mutual = np.zeros((n, r, r), dtype=int)
    received_only = np.zeros((n, r), dtype=int)
    given_only = np.zeros((n, r), dtype=int)
    for (i, j), h in scores.items():
        received[j, h] += 1
        if (j, i) in scores:
            mutual[j, scores[(j, i)], h] += 1
        else:
            received_only[j, h] += 1
            given_only[i, h] += 1
    assert np.array_equal(c.received, received)
    assert np.array_equal(c.mutual, mutual)
    assert np.array_equal(c.received_only, received_only)
    assert np.array_equal(c.given_only, given_only)
    c.validate()


def test_counts_match_naive_recount():
    rng = np.random.default_rng(7)
    g = sg.sample_score_graph(8, 20, "cyclic-plus-random-edges", rng)
    scored, _ = sg.generate_scores(g, sg.reliability_model(3), (), (0.35,), rng)
    _assert_naive_recount(scored)


def test_counts_with_more_than_256_scores_match_naive_recount(tmp_path):
    """R = 300 widens the reverse-score table past uint8.  The scores 255, 256
    and R - 1, next to the absent marker R, sit on mutual and one-way edges."""
    n, big = 12, 300
    rng = np.random.default_rng(21)
    cycle = [(i, (i + 1) % n) for i in range(n)]
    others = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in cycle]
    edges = cycle + [others[k] for k in rng.choice(len(others), size=40, replace=False)]
    mutual = [e for e in edges if e[::-1] in edges]
    one_way = [e for e in edges if e[::-1] not in edges]
    assert len(mutual) >= 4 and len(one_way) >= 2
    other_pair = next(e for e in mutual if e not in (mutual[0], mutual[0][::-1]))
    scores = dict(zip(edges, rng.integers(0, big, size=len(edges)).tolist()))
    scores.update({mutual[0]: 255, mutual[0][::-1]: 256, other_pair: big - 1,
                   one_way[0]: big - 1, one_way[1]: 0})
    order = rng.permutation(len(edges))
    g = sg.ScoreGraph(n, big, np.array(edges)[order],
                      np.array([scores[e] for e in edges])[order])
    sg.save_score_graph(g, tmp_path / "g.txt")
    back = sg.load_score_graph(tmp_path / "g.txt")
    assert back.n_scores == big and np.array_equal(back.scores, g.scores)
    _assert_naive_recount(back)


def test_scores_past_256_levels_match_the_reference():
    model = sg.categorical_model(2, 300)
    theta, gamma = model.feasible.split(model.feasible.sample_interior(np.random.default_rng(3)))
    g = sg.sample_score_graph(30, 600, "cyclic-plus-random-edges", np.random.default_rng(4))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    scored, states = sg.generate_scores(g, model, theta, gamma, rng)
    ref_scores, ref_states = _reference_scores(g.edges, 30, model, theta, gamma, ref_rng)
    assert np.array_equal(states, ref_states)
    assert scored.scores.dtype == np.int64 and np.array_equal(scored.scores, ref_scores)
    assert scored.scores.max() > 255


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.data())
def test_count_identities_hold_on_random_graphs(n, data):
    target = data.draw(st.integers(n, n * n - n))
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    g = sg.sample_score_graph(n, target, "cyclic-plus-random-edges", rng)
    scored, _ = sg.generate_scores(g, sg.reliability_model(3), (), (0.3,), rng)
    c = sg.aggregate_counts(scored)
    c.validate()
    assert np.array_equal(c.received, c.received_only + c.mutual.sum(axis=1))


def test_validate_raises_under_python_O():
    """validate() raises AssertionError itself, so python -O keeps its checks."""
    code = """
import dataclasses, sys
import numpy as np
import scoregraph as sg
if not sys.flags.optimize:
    sys.exit("python -O did not take effect")
rng = np.random.default_rng(0)
g = sg.sample_score_graph(5, 8, "cyclic-plus-random-edges", rng)
scored, _ = sg.generate_scores(g, sg.reliability_model(3), (), (0.3,), rng)
c = sg.aggregate_counts(scored)
c.validate()
bad = dataclasses.replace(c, in_degree=c.in_degree + np.eye(1, c.n_agents, dtype=int)[0])
try:
    bad.validate()
except AssertionError as err:
    print(err)
else:
    sys.exit("validate() passed counts whose in_degree is off by one")
"""
    package_root = os.path.dirname(os.path.dirname(sg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "NeighborCounts violates: received summed over scores is in_degree\n"


def test_aggregate_requires_scores():
    g = sg.sample_score_graph(4, 8, "cyclic-plus-random-edges",
                              np.random.default_rng(0))
    with pytest.raises(ValueError):
        sg.aggregate_counts(g)


def _reference_sample(n_agents, edge_count_target, rng):
    """The candidate-array sampler: cycle plus picked (N^2, 2) candidate rows, lexsorted."""
    idx = np.arange(n_agents)
    cycle = np.column_stack([idx, (idx + 1) % n_agents])
    extra = edge_count_target - n_agents
    if extra == 0:
        edges = cycle
    else:
        i, j = np.divmod(np.arange(n_agents * n_agents), n_agents)
        candidates = np.column_stack([i, j])
        keep = (i != j) & (j != (i + 1) % n_agents)
        candidates = candidates[keep]
        pick = rng.choice(candidates.shape[0], size=extra, replace=False)
        edges = np.vstack([cycle, candidates[pick]])
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _reference_scores(edges, n_agents, model, theta, gamma, rng):
    """The per-edge scorer: gather an (n, R) probability array, cumsum it, count."""
    prior = model.prior(gamma)
    tensor = model.tensor(theta)
    states = rng.choice(model.n_states, size=n_agents, p=prior)
    probs = tensor[:, states[edges[:, 0]], states[edges[:, 1]]].T
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(len(edges))
    scores = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(scores, model.n_scores - 1), states


def _reference_counts(edges, scores, n, big):
    """The np.add.at aggregator: received, mutual, received_only, given_only, in_degree."""
    e, h = edges, scores
    keys = e[:, 0] * n + e[:, 1]
    rkeys = e[:, 1] * n + e[:, 0]
    pos = np.minimum(np.searchsorted(keys, rkeys), len(keys) - 1)
    m = keys[pos] == rkeys
    received = np.zeros((n, big), dtype=np.int64)
    mutual = np.zeros((n, big, big), dtype=np.int64)
    received_only = np.zeros((n, big), dtype=np.int64)
    given_only = np.zeros((n, big), dtype=np.int64)
    np.add.at(received, (e[:, 1], h), 1)
    np.add.at(mutual, (e[m, 0], h[m], h[pos[m]]), 1)
    np.add.at(received_only, (e[~m, 1], h[~m]), 1)
    np.add.at(given_only, (e[~m, 0], h[~m]), 1)
    return received, mutual, received_only, given_only, received.sum(axis=1)


PIN_MODELS = {"preparata": sg.preparata_model(), "reliability": sg.reliability_model(4),
              "social-ranking": sg.social_ranking_model(3, 3),
              "categorical": sg.categorical_model(3, 3)}


@pytest.mark.parametrize("name", sorted(PIN_MODELS))
@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_data_path_matches_reference_implementations(n, name):
    """Sampling, scoring and aggregation equal the reference implementations
    bit for bit, and leave the rng in the same state after each call."""
    model = PIN_MODELS[name]
    theta, gamma = model.feasible.split(
        model.feasible.sample_interior(np.random.default_rng(11)))
    max_edges = n * n - n
    targets = sorted({t for t in (n, n + 1, (n + max_edges) // 2, max_edges)
                      if t <= max_edges})
    for target in targets:
        for seed in (0, 1, 2):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            g = sg.sample_score_graph(n, target, "cyclic-plus-random-edges", rng)
            ref_edges = _reference_sample(n, target, ref_rng)
            assert np.array_equal(g.edges, ref_edges)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

            scored, states = sg.generate_scores(g, model, theta, gamma, rng)
            ref_scores, ref_states = _reference_scores(ref_edges, n, model, theta, gamma,
                                                       ref_rng)
            assert np.array_equal(states, ref_states)
            assert np.array_equal(scored.scores, ref_scores)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

            c = sg.aggregate_counts(scored)
            ref = _reference_counts(ref_edges, ref_scores, n, model.n_scores)
            got = (c.received, c.mutual, c.received_only, c.given_only, c.in_degree)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_reference_counts(graph, ref_edges, ref_scores):
    """aggregate_counts(graph) equals _reference_counts, dtypes included."""
    c = sg.aggregate_counts(graph)
    ref = _reference_counts(ref_edges, ref_scores, graph.n_agents, graph.n_scores)
    got = (c.received, c.mutual, c.received_only, c.given_only, c.in_degree)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 3, 300])
def test_cached_key_sets_keep_the_reference_graphs_and_rng_stream(n):
    """Near and at N(N-1) edges the sampler, which builds each N's key sets
    once and returns the complete graph's cached edges at N(N-1), equals the
    reference bit for bit and leaves the rng where the reference does."""
    model = PIN_MODELS["reliability"]
    max_edges = n * n - n
    for target in sorted({t for t in (n, max_edges - 1, max_edges) if t >= n}):
        for seed in (0, 1, 2):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            g = sg.sample_score_graph(n, target, "cyclic-plus-random-edges", rng)
            ref_edges = _reference_sample(n, target, ref_rng)
            assert np.array_equal(g.edges, ref_edges)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            scored, states = sg.generate_scores(g, model, (), (0.3,), rng)
            ref_scores, ref_states = _reference_scores(ref_edges, n, model, (), (0.3,), ref_rng)
            assert np.array_equal(states, ref_states)
            assert np.array_equal(scored.scores, ref_scores)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if target == max_edges:
                assert np.array_equal(g.edges, sg.sample_score_graph(n, target, "complete").edges)
                _assert_reference_counts(scored, ref_edges, ref_scores)


@pytest.mark.parametrize("big", [2, 5, 300])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_complete_graphs_from_shuffled_pairs_count_as_the_reference(n, big):
    """A ScoreGraph of all N(N-1) pairs, given in a shuffled order with random
    scores (R = 300 takes a uint16 score table), counts as the reference."""
    rng = np.random.default_rng(n * 1000 + big)
    i, j = np.divmod(np.arange(n * n), n)
    pairs = np.column_stack([i, j])[i != j]
    scores = rng.integers(0, big, size=len(pairs))
    scores[:2] = big - 1, 0
    order = rng.permutation(len(pairs))
    g = sg.ScoreGraph(n, big, pairs[order], scores[order])
    assert np.array_equal(g.edges, pairs) and np.array_equal(g.scores, scores)
    _assert_reference_counts(g, pairs, scores)
    _assert_naive_recount(g)


def test_scores_count_the_lower_levels_even_past_the_top_level():
    """Only the R - 1 lower CDF levels are counted.  With each conditional
    score distribution summing to 1/2, half of the draws land above the top
    level; every score still equals the count over all R levels clipped at
    R - 1, on a sparse graph and on the complete one."""
    model = sg.categorical_model(3, 4)
    theta, gamma = model.feasible.split(model.feasible.sample_interior(np.random.default_rng(2)))
    prior = model.prior(gamma)
    scorer = _scorer(model, model.tensor(theta) / 2, prior)
    cdf = scorer[3]
    assert cdf[-1].max() <= 0.5 + 1e-12
    for n, target in ((9, 30), (9, 72)):
        g = sg.sample_score_graph(n, target, "cyclic-plus-random-edges", 6)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        scored, states = _draw_scores(g, scorer, rng)
        ref_states = ref_rng.choice(model.n_states, size=n, p=prior)
        pair = ref_states[g.edges[:, 0]] * model.n_states + ref_states[g.edges[:, 1]]
        u = ref_rng.random(g.n_edges)
        guarded = np.minimum((u[:, None] >= cdf[:, pair].T).sum(1), model.n_scores - 1)
        assert np.array_equal(states, ref_states) and (u >= cdf[-1, pair]).mean() > 0.2
        assert scored.scores.dtype == np.int64 and np.array_equal(scored.scores, guarded)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_cached_key_sets_are_keyed_by_the_number_of_agents():
    """Calls that interleave two values of N give the graphs of calls in a fresh order."""
    calls = [(n, target, seed) for seed in (0, 1) for n in (7, 9)
             for target in (n, 2 * n, n * n - n - 1, n * n - n)]
    interleaved = [sg.sample_score_graph(n, t, "cyclic-plus-random-edges", s).edges
                   for n, t, s in calls]
    _key_sets.cache_clear()
    _complete_edges.cache_clear()
    for k in reversed(range(len(calls))):
        n, target, seed = calls[k]
        fresh = sg.sample_score_graph(n, target, "cyclic-plus-random-edges", seed).edges
        assert np.array_equal(interleaved[k], fresh)
        assert np.array_equal(fresh, _reference_sample(n, target, np.random.default_rng(seed)))


def test_shared_edge_arrays_cannot_be_made_writable():
    """Graphs of one N share their edge buffers, so no view of one may become writable."""
    frame, = sg.make_comm_schedule(6, "static-complete").frames
    for edges in (sg.sample_score_graph(5, 12, "cyclic-plus-random-edges", 0).edges,
                  sg.sample_score_graph(5, 20, "cyclic-plus-random-edges", 0).edges,
                  frame):
        with pytest.raises(ValueError):
            edges.setflags(write=True)


def test_all_pair_topologies_match_the_pair_list():
    for n in (2, 3, 10):
        i, j = np.divmod(np.arange(n * n), n)
        pairs = np.column_stack([i, j])[i != j]
        assert np.array_equal(sg.sample_score_graph(n, n * n - n, "complete").edges, pairs)
        frame, = sg.make_comm_schedule(n, "static-complete").frames
        assert np.array_equal(frame, pairs)


@pytest.mark.parametrize("topology", ["complete", "cyclic-plus-random-edges"])
def test_unchecked_producers_meet_the_public_rules(topology):
    """sample_score_graph and generate_scores skip ScoreGraph's checks; the
    public constructor accepts what they build and stores the same arrays."""
    n_agents, model = 9, sg.reliability_model(4)
    max_edges = n_agents * n_agents - n_agents
    targets = ([max_edges] if topology == "complete"
               else [n_agents, (n_agents + max_edges) // 2, max_edges])
    rng = np.random.default_rng(19)
    for target in targets:
        g = sg.sample_score_graph(n_agents, target, topology, rng)
        scored, _ = sg.generate_scores(g, model, (), (0.3,), rng)
        assert scored.n_scores == model.n_scores
        rebuilt = sg.ScoreGraph(n_agents, 2, np.array(g.edges))
        assert np.array_equal(rebuilt.edges, g.edges) and not g.edges.flags.writeable
        rebuilt = sg.ScoreGraph(n_agents, model.n_scores, np.array(scored.edges),
                                np.array(scored.scores))
        for ours, theirs in ((rebuilt.edges, scored.edges), (rebuilt.scores, scored.scores)):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            assert not theirs.flags.writeable


def test_shuffled_edges_build_the_sorted_graph():
    rng = np.random.default_rng(13)
    g = sg.sample_score_graph(12, 60, "cyclic-plus-random-edges", rng)
    scored, _ = sg.generate_scores(g, sg.reliability_model(4), (), (0.3,), rng)
    for _ in range(5):
        perm = rng.permutation(scored.n_edges)
        back = sg.ScoreGraph(12, 4, scored.edges[perm], scored.scores[perm])
        assert np.array_equal(back.edges, scored.edges)
        assert np.array_equal(back.scores, scored.scores)


def test_duplicate_edges_raise_sorted_or_not():
    sorted_dup = np.array([(0, 1), (0, 1), (1, 0), (2, 0)])
    unsorted_dup = np.array([(2, 0), (0, 1), (1, 0), (0, 1)])
    for edges in (sorted_dup, unsorted_dup):
        with pytest.raises(ValueError, match="duplicate"):
            sg.ScoreGraph(3, 2, edges)


def test_score_graph_never_freezes_the_callers_arrays():
    edges = np.array([(0, 1), (1, 2), (2, 0)])
    scores = np.array([0, 1, 1])
    g = sg.ScoreGraph(3, 2, edges, scores)
    assert edges.flags.writeable and scores.flags.writeable
    edges[0] = (1, 0)
    scores[0] = 1
    assert g.edges[0].tolist() == [0, 1] and g.scores[0] == 0
    assert not g.edges.flags.writeable and not g.scores.flags.writeable


class TestCommSchedules:
    def test_static_cycle_every_frame_connected(self):
        sched = sg.make_comm_schedule(4, "static-cycle")
        assert sched.satisfies_window_connectivity()
        for t in range(3):
            frame = sched.frames[t % sched.n_frames]
            assert sorted(map(tuple, frame)) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_partition_frames_alone_disconnected_union_connected(self):
        sched = sg.make_comm_schedule(4, "periodic-edge-partition", 2,
                                      rng=np.random.default_rng(0))
        assert sched.satisfies_window_connectivity()
        for t in range(2):
            lone = sg.CommSchedule(4, (sched.frames[t % sched.n_frames],), 1)
            assert not lone.satisfies_window_connectivity()
        # a directed path is weakly but not strongly connected, in either direction
        path = [(0, 1), (1, 2), (2, 3)]
        assert not sg.CommSchedule(4, (path,), 1).satisfies_window_connectivity()
        back = [(j, i) for i, j in path]
        assert not sg.CommSchedule(4, (back,), 1).satisfies_window_connectivity()
        assert sum(len(sched.frames[t % sched.n_frames]) for t in range(2)) == 4

    def test_partition_q3_passes_window_check(self):
        sched = sg.make_comm_schedule(6, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(1))
        assert sched.satisfies_window_connectivity()

    def test_pushsum_matrix_column_stochastic(self):
        sched = sg.make_comm_schedule(5, "periodic-edge-partition", 2,
                                      rng=np.random.default_rng(2))
        for t in range(2):
            mat = sched.matrix(t)
            np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-15)
            assert np.all(np.diag(mat) > 0)   # implicit self loops

    def test_non_integer_sizes_are_rejected(self):
        cycle = ([(0, 1), (1, 2), (2, 0)],)
        for build, name in ((lambda: sg.CommSchedule(3.0, cycle, 1), "n_agents"),
                            (lambda: sg.CommSchedule(3, cycle, 1.5), "window"),
                            (lambda: sg.make_comm_schedule(6, "periodic-edge-partition", 2.0),
                             "window"),
                            (lambda: sg.make_comm_schedule(6.0, "static-cycle"), "n_agents"),
                            (lambda: sg.CommSchedule("3", cycle, 1), "n_agents"),
                            (lambda: sg.make_comm_schedule(6, "static-cycle", "1"), "window")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
                build()
        # one below each bound
        for build, message in (
                (lambda: sg.CommSchedule(3, cycle, 0),
                 "a schedule needs window >= 1 and at least one frame"),
                (lambda: sg.make_comm_schedule(6, "periodic-edge-partition", 0),
                 "a schedule needs window >= 1 and at least one frame"),
                (lambda: sg.make_comm_schedule(1, "static-cycle"), "n_agents must be >= 2")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()
        a = sg.make_comm_schedule(6, "periodic-edge-partition", 2, rng=5)
        b = sg.make_comm_schedule(np.int64(6), "periodic-edge-partition", np.int64(2), rng=5)
        assert b.satisfies_window_connectivity()
        for x, y in zip(a.matrices, b.matrices, strict=True):
            assert np.array_equal(x, y)

    def test_two_agent_complete_matrix(self):
        mat = sg.CommSchedule(2, ([(0, 1), (1, 0)],), 1).matrix(0)
        np.testing.assert_allclose(mat, [[0.5, 0.5], [0.5, 0.5]])

    def test_schedule_never_aliases_the_callers_frame(self):
        f = np.array([(0, 1), (1, 2), (2, 0)])
        s = sg.CommSchedule(3, (f,), 1)
        f[0] = (0, 2)
        assert f.flags.writeable
        assert s.frames[0][0].tolist() == [0, 1]
        cycle = sg.CommSchedule(3, ([(0, 1), (1, 2), (2, 0)],), 1)
        np.testing.assert_array_equal(s.matrix(0), cycle.matrix(0))
        assert not s.frames[0].flags.writeable

    def test_frame_endpoints_must_be_agent_ids(self):
        cycle = [(0, 1), (1, 2), (2, 0)]
        for bad in ([[0, -1], [1, 2], [2, 0]], [[0, 1], [1, 3], [2, 0]]):
            with pytest.raises(ValueError, match="frame 1 has an endpoint outside 0..2"):
                sg.CommSchedule(3, (cycle, bad), 1)
        assert sg.CommSchedule(3, (cycle, []), 2).satisfies_window_connectivity()

    def test_schedule_without_frames_rejected(self):
        # no frame to take round t from: matrix(t) would divide by zero
        with pytest.raises(ValueError, match="at least one frame"):
            sg.CommSchedule(5, (), 1)

    def test_impossible_window_rejected(self):
        # splitting a 3-cycle into 5 frames leaves empty frames; the 5-window
        # union is still the full cycle, so this must succeed instead
        sched = sg.make_comm_schedule(3, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(0))
        assert sched.satisfies_window_connectivity()
        with pytest.raises(ValueError):
            sg.make_comm_schedule(3, "no-such-family")


class TestSerialization:
    def test_graph_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        g = sg.sample_score_graph(7, 18, "cyclic-plus-random-edges", rng)
        scored, states = sg.generate_scores(g, sg.reliability_model(5), (),
                                            (0.25,), rng)
        path = tmp_path / "graph.txt"
        sg.save_score_graph(scored, path)
        back = sg.load_score_graph(path)
        assert back.n_agents == 7 and back.n_scores == 5
        assert np.array_equal(back.edges, scored.edges)
        assert np.array_equal(back.scores, scored.scores)
        # second write is byte-identical
        path2 = tmp_path / "again.txt"
        sg.save_score_graph(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_graph_file_is_one_based(self, tmp_path):
        g = sg.ScoreGraph(2, 2, np.array([(0, 1), (1, 0)]),
                          scores=np.array([1, 0]))
        path = tmp_path / "g.txt"
        sg.save_score_graph(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scoregraph 2 2 2"
        assert lines[1].split() == ["1", "2", "2"]
        assert lines[2].split() == ["2", "1", "1"]

    def test_graph_and_states_file_text(self, tmp_path):
        g = sg.ScoreGraph(3, 3, np.array([(2, 0), (0, 1), (1, 2), (1, 0)]),
                          scores=np.array([2, 0, 1, 1]))
        sg.save_score_graph(g, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_bytes() == (
            b"scoregraph 3 3 4\n1 2 1\n2 1 2\n2 3 2\n3 1 3\n")
        sg.save_states(np.array([1, 0, 2]), tmp_path / "s.txt")
        assert (tmp_path / "s.txt").read_bytes() == b"1 2\n2 1\n3 3\n"

    def test_full_scale_graph_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        g = sg.sample_score_graph(300, 89700, "complete")
        scored, states = sg.generate_scores(g, sg.reliability_model(5), (), (0.3,), rng)
        sg.save_score_graph(scored, tmp_path / "g.txt")
        back = sg.load_score_graph(tmp_path / "g.txt")
        assert back.n_edges == 89700 and back.n_scores == 5
        assert np.array_equal(back.edges, scored.edges)
        assert np.array_equal(back.scores, scored.scores)
        sg.save_states(states, tmp_path / "s.txt")
        assert np.array_equal(sg.load_states(tmp_path / "s.txt"), states)

    def test_states_round_trip(self, tmp_path):
        path = tmp_path / "states.txt"
        # every input save_states accepts reads back as its integers
        for states in ([0], [3, 0, 7], np.array([1.0, 0.0]), np.array([2, 1], dtype=np.uint8),
                       (True, False), np.arange(50) % 4):
            sg.save_states(states, path)
            np.testing.assert_array_equal(sg.load_states(path), np.asarray(states, np.int64))
        states = np.array([0, 2, 1, 1])
        sg.save_states(states, path)
        assert np.array_equal(sg.load_states(path), states)
        assert path.read_text().splitlines()[0] == "1 1"   # 1-based both columns

    @pytest.mark.parametrize("states, fault", [
        ([0.5, 1.7, 2], "states must be integers"),
        (["0", "1"], "states must be integers"),
        ([-1, 0], "states must be a nonempty 1-D array of integers >= 0"),
        ([], "states must be a nonempty 1-D array of integers >= 0"),
        ([[0, 1], [1, 0]], "states must be a nonempty 1-D array of integers >= 0"),
        (1, "states must be a nonempty 1-D array of integers >= 0"),
    ], ids=["fractional", "strings", "negative", "empty", "two-d", "scalar"])
    def test_save_states_rejects_what_load_states_would(self, tmp_path, states, fault):
        # checked before the file is opened: the old file keeps its bytes
        path = tmp_path / "states.txt"
        path.write_bytes(b"1 2\n2 1\n")
        with pytest.raises(ValueError, match=f"^{fault}$"):
            sg.save_states(states, path)
        assert path.read_bytes() == b"1 2\n2 1\n"

    @pytest.mark.parametrize("text, fault", [
        ("0 1\n1 2\n", "agent id 0 in states file is outside 1..2"),
        ("1 1\n3 2\n", "agent id 3 in states file is outside 1..2"),
        ("2 1\n2 2\n", "agent id 2 appears twice"),
        ("1 0\n2 1\n", "state 0 in states file is below 1"),
        ("1 1 1\n2 1 1\n", "two columns"),
    ], ids=["id-zero", "id-above-rows", "duplicate-id", "state-zero", "three-columns"])
    def test_bad_states_file_rejected(self, tmp_path, text, fault):
        path = tmp_path / "states.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=fault):
            sg.load_states(path)

    def test_empty_states_file_rejected(self, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="the states file has no rows"):
            sg.load_states(path)

    def test_states_file_ids_in_any_order(self, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("2 3\n1 1\n3 2\n")
        np.testing.assert_array_equal(sg.load_states(path), [0, 2, 1])

    def test_graph_file_without_rows_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("scoregraph 2 2 0\n")
        with pytest.raises(ValueError, match="the score graph file has no rows"):
            sg.load_score_graph(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wrong 2 2 1\n1 2 1\n")
        with pytest.raises(ValueError):
            sg.load_score_graph(path)
