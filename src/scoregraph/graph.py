"""Directed score graphs, neighbor count aggregation, and communication schedules.

A score graph is a directed graph on N agents where an edge (i, j) means
"agent i evaluated agent j" and carries a score index h in {0..R-1}.  All
indices (agents, scores, states) are 0-based inside the package; the
plain-text serialization format is 1-based.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ScoreGraph",
    "NeighborCounts",
    "CommSchedule",
    "sample_score_graph",
    "generate_scores",
    "aggregate_counts",
    "make_comm_schedule",
    "save_score_graph",
    "load_score_graph",
    "save_states",
    "load_states",
]


def as_rng(seed):
    """Coerce None, an int seed, a seed list, or a Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _owned(a: np.ndarray, order) -> np.ndarray:
    """Read-only `a` (rows permuted by `order` unless it is None).

    A read-only input is kept as it is; a writable one is copied, so the
    caller's array never becomes read-only behind its back.
    """
    if order is not None:
        a = a[order]
    elif a.flags.writeable:
        a = a.copy()
    return _freeze(a)


@dataclass(frozen=True)
class ScoreGraph:
    """Immutable directed graph with an optional score index per edge.

    Parameters
    ----------
    n_agents : int
        Number of agents N (>= 2).
    n_scores : int
        Size R of the score alphabet (>= 2).
    edges : ndarray of shape (n, 2)
        Ordered pairs (evaluator, target), 0-based, no self loops, no
        duplicates.  Stored sorted by the flat key i*N + j, which is the
        lexicographic order on (i, j).
    scores : ndarray of shape (n,), optional
        Score index in {0..R-1} for each edge, aligned with `edges`.
        None for a graph whose scores have not been generated yet.

    Keys that already strictly increase (so no duplicates) cost O(n) to
    check and are stored as given, shared when read-only and copied
    otherwise; any other order is sorted by one stable argsort of the keys
    that permutes the scores alongside.  `sample_score_graph` (edges read off
    an N^2 mask in key order, with the N-cycle or every pair) and
    `generate_scores` (checked edges, scores below R) skip the checks via `_trusted_graph`.
    """

    n_agents: int
    n_scores: int
    edges: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        if self.n_agents < 2:
            raise ValueError("a score graph needs at least 2 agents")
        if self.n_scores < 2:
            raise ValueError("score alphabet size must be >= 2")
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (n, 2)")
        if edges.shape[0] == 0:
            raise ValueError("a score graph needs at least one edge")
        if edges.min() < 0 or edges.max() >= self.n_agents:
            raise ValueError("edge endpoints out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self loops are not allowed")
        keys = edges[:, 0] * self.n_agents + edges[:, 1]
        order = None
        if np.any(keys[1:] <= keys[:-1]):
            order = np.argsort(keys, kind="stable")
            if np.any(np.diff(keys[order]) == 0):
                raise ValueError("duplicate edges are not allowed")
        if np.bincount(edges[:, 1], minlength=self.n_agents).min() < 1:
            raise ValueError("every agent needs at least one incoming edge")
        object.__setattr__(self, "edges", _owned(edges, order))
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.int64)
            if scores.shape != (edges.shape[0],):
                raise ValueError("scores must align with edges")
            if scores.min() < 0 or scores.max() >= self.n_scores:
                raise ValueError("score index out of range")
            object.__setattr__(self, "scores", _owned(scores, order))

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def _trusted_graph(n_agents, n_scores, edges, scores=None) -> ScoreGraph:
    """A ScoreGraph of read-only arrays that already meet its rules, built unchecked."""
    graph = object.__new__(ScoreGraph)
    graph.__dict__.update(n_agents=n_agents, n_scores=n_scores, edges=edges, scores=scores)
    return graph


@dataclass(frozen=True)
class NeighborCounts:
    """Per-agent score histograms over the single-hop neighborhoods.

    For agent i, a neighbor j falls in exactly one of three classes:
    mutual (both (i,j) and (j,i) edges exist), received-only ((j,i) only),
    or given-only ((i,j) only).

    Fields
    ------
    received : (N, R) int array
        received[i, h] counts in-neighbors that scored i with h.
    mutual : (N, R, R) int array
        mutual[i, h, k] counts mutual neighbors j where i gave score h to j
        and received score k from j.
    received_only : (N, R) int array
        Histogram of scores received from non-mutual in-neighbors.
    given_only : (N, R) int array
        Histogram of scores given to non-mutual out-neighbors.
    in_degree : (N,) int array
        Number of incoming edges per agent.
    """

    received: np.ndarray
    mutual: np.ndarray
    received_only: np.ndarray
    given_only: np.ndarray
    in_degree: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.received.shape[0]

    @property
    def n_scores(self) -> int:
        return self.received.shape[1]

    @property
    def n_edges(self) -> int:
        return int(self.received.sum())

    @property
    def phi(self) -> np.ndarray:
        """Empirical score distribution: the network-wide received histogram / n_edges."""
        return self.received.sum(axis=0) / self.n_edges

    def validate(self) -> None:
        """Check internal consistency identities; raise AssertionError on failure
        (explicitly, so the checks also run under python -O)."""
        total_mutual = self.mutual.sum(axis=0)
        for holds, identity in (
                (np.array_equal(self.received.sum(axis=1), self.in_degree),
                 "received summed over scores is in_degree"),
                (np.array_equal(self.received_only + self.mutual.sum(axis=1), self.received),
                 "received is received_only plus mutual summed over the given score"),
                # every non-mutual edge shows up once as given-only and once as received-only
                (self.given_only.sum() == self.received_only.sum(),
                 "given_only and received_only have the same total"),
                (np.array_equal(total_mutual, total_mutual.T),
                 "the network-wide mutual histogram is symmetric")):
            if not holds:
                raise AssertionError(f"NeighborCounts violates: {identity}")


def _off_diagonal(n_agents: int) -> np.ndarray:
    """Boolean mask over the flat keys i*N + j of all N^2 pairs: True where i != j."""
    mask = np.ones(n_agents * n_agents, dtype=bool)
    mask[:: n_agents + 1] = False
    return mask


def _pairs(a: np.ndarray) -> np.ndarray:
    """The off-diagonal of a square (N, N) array as an (N - 1, N) array whose
    entries, read row by row, are a[i, j] for the N(N - 1) pairs i != j in key
    order: a view of `a` when `a` is C-contiguous, else of a contiguous copy.

    Row r of the flat array from index 1, cut into rows of N + 1, runs from
    a[r, r + 1] to a[r + 1, r + 1]; dropping that last diagonal entry leaves
    a[r, r + 1:] followed by a[r + 1, :r + 1].
    """
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]


def _mask_edges(mask: np.ndarray, n_agents: int) -> np.ndarray:
    """Read-only (n, 2) edges (i, j) of the True flat keys of an N^2 mask, in key order.

    The (2, n) buffer itself is frozen, so no view of it can be made writable.
    """
    keys = np.flatnonzero(mask)
    edges = np.empty((2, keys.size), dtype=np.int64)  # rows i and j: contiguous columns
    np.divmod(keys, n_agents, out=(edges[0], edges[1]))
    return _freeze(edges).T


# Per cached N: 8N cycle keys, 8(N^2 - 2N) candidate keys and 16(N^2 - N)
# bytes of complete edges, about 24 N^2 bytes (2.2 MB at N = 300).
@lru_cache(maxsize=4)
def _key_sets(n_agents: int) -> tuple:
    """Read-only flat keys i*N + j of the directed N-cycle, and of the non-loop,
    non-cycle pairs in key order (the candidates of the extra edges)."""
    idx = np.arange(n_agents)
    cycle = idx * n_agents + (idx + 1) % n_agents
    mask = _off_diagonal(n_agents)
    mask[cycle] = False
    return _freeze(cycle), _freeze(np.flatnonzero(mask))


@lru_cache(maxsize=4)
def _complete_edges(n_agents: int) -> np.ndarray:
    """Read-only (N^2 - N, 2) edges of every ordered pair, in key order."""
    return _mask_edges(_off_diagonal(n_agents), n_agents)


def sample_score_graph(n_agents: int, edge_count_target: int, topology="cyclic-plus-random-edges",
                       rng=None) -> ScoreGraph:
    """Sample a score-graph topology (without scores).

    Parameters
    ----------
    n_agents : int
        Number of agents N >= 2.
    edge_count_target : int
        Exact number of directed edges, in [N, N^2 - N].
    topology : str
        "cyclic-plus-random-edges" starts from the directed N-cycle (which
        guarantees every agent one incoming edge) and adds uniformly random
        distinct extra edges; "complete" requires edge_count_target equal to
        N^2 - N.  A graph with explicit edges is built with ScoreGraph.
    rng : None, int, sequence, or numpy Generator
        Randomness source; fixed seeds give identical graphs.

    The extra edges come from one draw, `rng.choice(k, size=extra,
    replace=False)` over the k non-cycle, non-loop pairs in flat key order
    i*N + j; that draw and its order are a contract pinned by tests, so a
    seed gives the same graph and leaves the rng in the same state across
    versions.  The edge set is read off an N^2 mask already in key order,
    so building the graph costs no sort.  At edge_count_target = N^2 - N
    every candidate is an edge: the draw is still made, only for the rng
    state, and the result is the complete graph's edge set.  The key sets
    and the complete edges depend only on N and are built once per N, for
    the last 4 values of N (about 24 N^2 bytes each, 2.2 MB at N = 300);
    graphs of one N share these read-only arrays.
    """
    if n_agents < 2:
        raise ValueError("n_agents must be >= 2")
    max_edges = n_agents * (n_agents - 1)
    if not n_agents <= edge_count_target <= max_edges:
        raise ValueError(
            f"edge_count_target must lie in [{n_agents}, {max_edges}]")
    if topology == "complete":
        if edge_count_target != max_edges:
            raise ValueError("complete topology fixes edge count at N^2 - N")
        edges = _complete_edges(n_agents)
    elif topology == "cyclic-plus-random-edges":
        rng = as_rng(rng)
        cycle, candidates = _key_sets(n_agents)
        extra = edge_count_target - n_agents
        pick = rng.choice(len(candidates), size=extra, replace=False) if extra else []
        if edge_count_target == max_edges:      # every candidate is picked, in whatever order
            edges = _complete_edges(n_agents)
        else:
            chosen = np.zeros(n_agents * n_agents, dtype=bool)
            chosen[cycle] = True
            chosen[candidates[pick]] = True
            edges = _mask_edges(chosen, n_agents)
    else:
        raise ValueError(f"unknown topology family: {topology!r}")
    # R is unknown until scores exist; use the minimum legal alphabet as a
    # placeholder that generate_scores replaces with the model's R.
    return _trusted_graph(n_agents, 2, edges)


def generate_scores(graph: ScoreGraph, model, theta, gamma, rng=None):
    """Draw hidden states and edge scores from a model.

    States are i.i.d. from the model prior; each edge score is drawn from the
    conditional score distribution given the evaluator and target states.
    Edges are processed in the graph's canonical (sorted) order from a single
    random stream, so a fixed seed fully determines the output.  The draws
    are `rng.choice(C, size=N, p=prior)` for the states, then one
    `rng.random(n)` for the scores; edge e's score is the number of the
    lower R - 1 levels of its state pair's CDF, read from an (R, C^2) table,
    that u[e] reaches: the first score whose cumulative probability exceeds
    u[e], or the top score R - 1 where no lower one does, also where
    rounding puts the top level (nominally 1) at or below u[e], so no clip
    is needed (see _draw_scores).  The draws and their order are a contract
    pinned by tests.

    theta and gamma are checked here, and the prior and the CDF table built
    from them; a sweep builds those once at its checked truth and draws
    every trial from them (see _scorer and _draw_scores).

    Returns
    -------
    (ScoreGraph, ndarray)
        The graph with scores attached (and n_scores set to the model's R),
        and the length-N array of true state indices.
    """
    rng = as_rng(rng)
    return _draw_scores(graph, _scorer(model, model.tensor(theta), model.prior(gamma)), rng)


def _scorer(model, tensor: np.ndarray, prior: np.ndarray) -> tuple:
    """What generate_scores draws from at one point, from the model's tensor
    and prior there: (C, R, prior, cdf), with cdf[h, l*C + m] = P(score <= h)
    for an evaluator in state l and a target in state m."""
    n_states, n_scores = model.n_states, model.n_scores
    return (n_states, n_scores, prior,
            np.cumsum(tensor, axis=0).reshape(n_scores, n_states * n_states))


def _draw_scores(graph: ScoreGraph, scorer: tuple, rng: np.random.Generator):
    """generate_scores from the tables of _scorer: the same draws and bits.

    An edge's score counts the lower R - 1 CDF levels that u reaches.  The
    CDF of a state pair is a cumulative sum of nonnegative entries, so it
    never decreases: u at or above the top level is at or above every lower
    one, and the count over R - 1 levels is min(count over R levels, R - 1),
    which takes no clip even where rounding puts the top level below u.  A
    graph of N(N - 1) edges is the complete one, its edges every pair in key
    order, so each level is read off the off-diagonal (_pairs) of an (N, N)
    table of that level at (states[i], states[j]), built by a row gather of
    a (C, N) table, rather than by two per-edge state gathers and one
    per-edge level gather.
    """
    n_states, n_scores, prior, cdf = scorer
    n = graph.n_agents
    states = rng.choice(n_states, size=n, p=prior)
    if graph.n_edges == n * (n - 1):
        shape = (n - 1, n)
        levels = (_pairs(level.reshape(n_states, n_states)[:, states][states])  # at (s_i, s_j)
                  for level in cdf[:-1])
    else:
        shape = (graph.n_edges,)
        pair = states[graph.edges[:, 0]] * n_states + states[graph.edges[:, 1]]
        levels = (level[pair] for level in cdf[:-1])
    u = rng.random(graph.n_edges).reshape(shape)
    scores = np.zeros(shape, dtype=np.min_scalar_type(n_scores - 1))
    for level in levels:                  # one pass per lower level: count those u reaches
        scores += u >= level
    scored = _trusted_graph(n, n_scores, graph.edges, _freeze(scores.reshape(-1).astype(np.int64)))
    return scored, states


def aggregate_counts(graph: ScoreGraph) -> NeighborCounts:
    """Aggregate the per-agent histograms every estimator and the classifier use.

    Each histogram is one `np.bincount` over flat (agent, score[, score])
    indices.  On a sparse graph the reverse edge's score comes from an
    N^2-entry table (R marks an absent edge, in the smallest type that holds
    R), so the cost is O(n + N^2).  A graph of N(N - 1) edges is the complete
    one, its edges every pair in key order: the scores fill the off-diagonal
    of an (N, N) table (_pairs; the smallest type that holds R - 1), each
    reverse score is the same view of its transpose, every neighbor is
    mutual, so `mutual` is one bincount, `received` its sum over the given
    score, and the one-sided histograms are zero.
    """
    if graph.scores is None:
        raise ValueError("graph has no scores; generate or load them first")
    n, big = graph.n_agents, graph.n_scores
    i, j, h = graph.edges[:, 0], graph.edges[:, 1], graph.scores
    if graph.n_edges == n * (n - 1):
        table = np.empty((n, n), dtype=np.min_scalar_type(big - 1))
        _pairs(table)[...] = h.reshape(n - 1, n)
        back = _pairs(table.T).reshape(-1)    # score of the edge (j, i)
        mutual = np.bincount((i * big + h) * big + back, minlength=n * big * big).reshape(
            n, big, big)
        received = mutual.sum(axis=1)
        received_only = np.zeros((n, big), dtype=received.dtype)
        given_only = np.zeros((n, big), dtype=received.dtype)
    else:
        back = np.full(n * n, big, dtype=np.min_scalar_type(big))
        back[i * n + j] = h
        back = back[j * n + i]            # score of the edge (j, i), or R if it is absent
        m = back < big                    # the edge (j, i) exists
        given = i * big + h               # flat (evaluator, score)
        got = j * big + h                 # flat (target, score)

        received = np.bincount(got, minlength=n * big).reshape(n, big)
        mutual = np.bincount(given[m] * big + back[m], minlength=n * big * big).reshape(n, big, big)
        received_only = np.bincount(got[~m], minlength=n * big).reshape(n, big)
        given_only = np.bincount(given[~m], minlength=n * big).reshape(n, big)

    return NeighborCounts(*map(_freeze, (received, mutual, received_only, given_only,
                                         received.sum(axis=1))))


def _pushsum_matrix(n_agents: int, frame: np.ndarray) -> np.ndarray:
    """Column-stochastic mixing matrix of one frame, with implicit self loops.

    Column j spreads mass 1/d_j to j itself and to every out-neighbor of j in
    the frame, where d_j counts the self loop plus frame out-edges.
    """
    out = np.zeros((n_agents, n_agents), dtype=bool)
    out[frame[:, 0], frame[:, 1]] = True
    np.fill_diagonal(out, False)
    d = 1 + out.sum(axis=1)
    mat = out.T.astype(np.float64)
    np.fill_diagonal(mat, 1.0)
    return mat / d[None, :]


def _reaches_all(adj: np.ndarray) -> bool:
    """Whether a search from node 0 along the edges i -> j where adj[i, j] reaches every node."""
    reached = np.zeros(adj.shape[0], dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


@dataclass(frozen=True)
class CommSchedule:
    """Periodic time-varying communication graph.

    frames[t % len(frames)] is the edge set active at round t.  Self loops
    are implicit: they are never stored but always count toward out-degrees
    and always deliver.  The schedule must satisfy the window-connectivity
    condition: the union of any Q consecutive frames is strongly connected.
    """

    n_agents: int
    frames: tuple
    window: int
    matrices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = tuple(
            _owned(np.asarray(f, dtype=np.int64).reshape(-1, 2), None) for f in self.frames)
        if self.window < 1 or not frames:
            raise ValueError("a schedule needs window >= 1 and at least one frame")
        for k, f in enumerate(frames):
            if f.size and (f.min() < 0 or f.max() >= self.n_agents):
                raise ValueError(f"frame {k} has an endpoint outside 0..{self.n_agents - 1}")
        object.__setattr__(self, "frames", frames)
        mats = tuple(_freeze(_pushsum_matrix(self.n_agents, f)) for f in frames)
        object.__setattr__(self, "matrices", mats)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def matrix(self, t: int) -> np.ndarray:
        return self.matrices[t % self.n_frames]

    def satisfies_window_connectivity(self) -> bool:
        """Check that every Q-round window union is strongly connected."""
        p = self.n_frames
        for start in range(p):
            adj = np.eye(self.n_agents, dtype=bool)
            for k in range(self.window):
                f = self.frames[(start + k) % p]
                adj[f[:, 0], f[:, 1]] = True
            # strongly connected iff node 0 reaches every node and every node reaches 0
            if not (_reaches_all(adj) and _reaches_all(adj.T)):
                return False
        return True


def make_comm_schedule(n_agents: int, family: str, window: int = 1, rng=0) -> CommSchedule:
    """Build one of the stock schedule families and verify window connectivity.

    Families
    --------
    "static-complete" : one frame with every ordered pair.
    "static-cycle"    : one frame with the directed N-cycle.
    "periodic-edge-partition" : the N-cycle's edges dealt (after an rng
        shuffle) round-robin into `window` frames; no single frame is
        strongly connected for window > 1, but each window-union is the
        full cycle.

    The default rng seed is fixed so repeated calls build the same schedule.
    """
    if n_agents < 2:
        raise ValueError("n_agents must be >= 2")
    idx = np.arange(n_agents)
    cycle = np.column_stack([idx, (idx + 1) % n_agents])
    if family == "static-complete":
        frames = [_complete_edges(n_agents)]
    elif family == "static-cycle":
        frames = [cycle]
    elif family == "periodic-edge-partition":
        rng = as_rng(rng)
        order = rng.permutation(n_agents)
        shuffled = cycle[order]
        frames = [shuffled[k::window] for k in range(window)]
    else:
        raise ValueError(f"unknown schedule family: {family!r}")
    schedule = CommSchedule(n_agents, tuple(frames), window)
    if not schedule.satisfies_window_connectivity():
        raise ValueError(
            f"family {family!r} with window {window} violates window connectivity")
    return schedule


def _text_rows(rows: np.ndarray) -> str:
    """Integer rows as lines of space-separated decimals, each ending in a newline."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return (line * rows.shape[0]) % tuple(rows.ravel().tolist())


def save_score_graph(graph: ScoreGraph, path) -> None:
    """Write the 1-based edge-list format: header `scoregraph N R n`, lines `i j h`."""
    if graph.scores is None:
        raise ValueError("only scored graphs are serializable")
    rows = np.column_stack([graph.edges, graph.scores]) + 1
    with open(path, "w") as fh:
        fh.write(f"scoregraph {graph.n_agents} {graph.n_scores} {graph.n_edges}\n"
                 + _text_rows(rows))


def _int_rows(source, kind: str) -> np.ndarray:
    """The integer rows of a text file (a path or an open file); ValueError when it has none."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(source, dtype=np.int64, ndmin=2)
    if rows.size == 0:
        raise ValueError(f"the {kind} file has no rows")
    return rows


def load_score_graph(path) -> ScoreGraph:
    """Read the edge-list format written by save_score_graph."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "scoregraph":
            raise ValueError("not a score graph file")
        n_agents, n_scores, n_edges = (int(x) for x in header[1:])
        rows = _int_rows(fh, "score graph")
    if rows.shape != (n_edges, 3):
        raise ValueError("edge count does not match header")
    return ScoreGraph(n_agents, n_scores, rows[:, :2] - 1, rows[:, 2] - 1)


def save_states(states, path) -> None:
    """Write states as 1-based `i x_index` lines."""
    states = np.asarray(states, dtype=np.int64)
    rows = np.column_stack([np.arange(states.size), states]) + 1
    with open(path, "w") as fh:
        fh.write(_text_rows(rows))


def load_states(path) -> np.ndarray:
    """Read the `i x_index` lines of save_states: n lines hold each id 1..n once, states >= 1."""
    rows = _int_rows(path, "states")
    if rows.shape[1:] != (2,):
        raise ValueError("a states file has two columns: agent id and state")
    ids, values = rows[:, 0], rows[:, 1]
    bad = ids[(ids < 1) | (ids > len(rows))]
    if bad.size:
        raise ValueError(f"agent id {bad[0]} in states file is outside 1..{len(rows)}")
    seen = np.bincount(ids - 1, minlength=len(rows))
    if seen.max() > 1:
        raise ValueError(f"agent id {np.argmax(seen) + 1} appears twice in states file")
    if values.min() < 1:
        raise ValueError(f"state {values.min()} in states file is below 1")
    states = np.empty(len(rows), dtype=np.int64)
    states[ids - 1] = values - 1
    return states
