"""Parametrized score models.

A model couples a conditional score distribution with a state prior:

    tensor(theta)[h, l, m] = P(score h | evaluator state l, target state m)
    prior(gamma)[l]        = P(state l)

together with analytic gradients and a compact convex feasible set for the
stacked parameter vector z = [theta, gamma]: one product of box and simplex
blocks over z, split into theta and gamma at theta_dim.  The evaluator state
is always the first state axis of the tensor.

Every model callable broadcasts over leading axes, so one call evaluates a
stack of points: theta of shape (..., theta_dim) gives a tensor of shape
(..., R, C, C) and a tensor gradient of shape (..., theta_dim, R, C, C);
gamma of shape (..., gamma_dim) gives a prior of shape (..., C) and a prior
gradient of shape (..., gamma_dim, C).  A table that does not depend on its
parameter may drop the leading axes, since the einsums and matmuls that
consume it broadcast.  Feasible-set projections act row-wise on the last
axis, and validation checks every row of a stack.

A model that declares the gamma -> 1 - gamma label-swap symmetry has a
scalar gamma; ModelSpec rejects any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InfeasibleError

__all__ = [
    "Box",
    "Simplex",
    "FeasibleSet",
    "ModelSpec",
    "project_simplex",
    "preparata_model",
    "reliability_model",
    "social_ranking_model",
    "categorical_model",
]

FEAS_TOL = 1e-9


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, row-wise along the last axis.

    Sort-based (Duchi et al. 2008): the threshold tau comes from the last
    sorted position rho where u_rho > (sum of the rho largest entries - 1) / rho.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    ind = np.arange(1, v.shape[-1] + 1)
    rho = np.where(u - css / ind > 0, ind, 0).max(axis=-1, keepdims=True)
    tau = np.where(ind == rho, css, 0.0).sum(axis=-1, keepdims=True) / rho
    return np.maximum(v - tau, 0.0)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box constraint on a contiguous slice of parameters."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box bounds must satisfy lo < hi elementwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, v, tol=FEAS_TOL) -> bool:
        return bool(np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol))

    def centroid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def sample_interior(self, rng, margin=0.05) -> np.ndarray:
        w = self.hi - self.lo
        return rng.uniform(self.lo + margin * w, self.hi - margin * w)


@dataclass(frozen=True)
class Simplex:
    """Probability-simplex constraint on a contiguous slice of parameters."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("simplex dimension must be >= 1")

    def contains(self, v, tol=FEAS_TOL) -> bool:
        return bool(np.all(v >= -tol) and abs(float(np.sum(v)) - 1.0) <= tol)

    def centroid(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)

    def sample_interior(self, rng, margin=0.05) -> np.ndarray:
        raw = rng.dirichlet(np.ones(self.dim))
        return (1.0 - margin) * raw + margin * self.centroid()


@dataclass(frozen=True)
class FeasibleSet:
    """A product of box/simplex blocks over the stacked vector z = [theta, gamma].

    The first `theta_dim` coordinates are theta, the rest gamma; no block
    straddles that split.
    """

    blocks: tuple
    theta_dim: int

    def __post_init__(self):
        if self.theta_dim not in {0, *(sl.stop for sl, _ in self._slices())}:
            raise ValueError("a block straddles the theta/gamma split")

    @cached_property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def gamma_dim(self) -> int:
        return self.dim - self.theta_dim

    def split(self, z):
        z = np.asarray(z, dtype=np.float64)
        return z[..., : self.theta_dim], z[..., self.theta_dim:]

    def _slices(self):
        start = 0
        for b in self.blocks:
            yield slice(start, start + b.dim), b
            start += b.dim

    @cached_property
    def _simplices(self) -> tuple:
        """One (k, d) index array per simplex size d: row j holds the
        coordinates of the j-th simplex block of that size."""
        by_size = {}
        for sl, b in self._slices():
            if isinstance(b, Simplex):
                by_size.setdefault(b.dim, []).append(np.arange(sl.start, sl.stop))
        return tuple(np.array(rows) for rows in by_size.values())

    def project(self, z) -> np.ndarray:
        """Row-wise projection of z, or of a stack (..., dim), onto the set.

        One clip against `bounds` projects the box blocks; the k simplex
        blocks of each size d are then one project_simplex call on their
        coordinates of z gathered to (..., k, d).
        """
        z = np.asarray(z, dtype=np.float64)
        out = np.clip(z, *self.bounds)
        for idx in self._simplices:
            out[..., idx] = project_simplex(z[..., idx])
        return out

    def contains(self, v, tol=FEAS_TOL, part: str | None = None) -> bool:
        """Whether the point v lies in the set: v is all of z, or with `part`
        "theta" or "gamma" only that part of it."""
        v = np.asarray(v, dtype=np.float64)
        start = self.theta_dim if part == "gamma" else 0
        stop = self.theta_dim if part == "theta" else self.dim
        if v.shape != (stop - start,):
            return False
        return all(b.contains(v[sl.start - start:sl.stop - start], tol)
                   for sl, b in self._slices() if start <= sl.start and sl.stop <= stop)

    def centroid(self) -> np.ndarray:
        return np.concatenate([b.centroid() for b in self.blocks])

    def box_dims(self) -> np.ndarray:
        """Indices of z that belong to box (not simplex) blocks."""
        return np.array([k for sl, b in self._slices() if isinstance(b, Box)
                         for k in range(sl.start, sl.stop)], dtype=np.int64)

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate lower and upper bounds of z; simplex coordinates lie in [0, 1].

        Computed once per set; the arrays are read-only.
        """
        lo = np.concatenate([b.lo if isinstance(b, Box) else np.zeros(b.dim) for b in self.blocks])
        hi = np.concatenate([b.hi if isinstance(b, Box) else np.ones(b.dim) for b in self.blocks])
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    def sample_interior(self, rng, margin=0.05, size: int | None = None) -> np.ndarray:
        """One interior point (dim,), or `size` points (size, dim) drawn one after another.

        On all-box sets the `size` points come from one uniform draw, which
        consumes the same stream and gives the same bits as `size` one-point
        calls.
        """
        if size is None:
            return np.concatenate([b.sample_interior(rng, margin) for b in self.blocks])
        if not self._simplices:
            lo, hi = self.bounds
            w = hi - lo
            return rng.uniform(lo + margin * w, hi - margin * w, size=(size, self.dim))
        return np.array([self.sample_interior(rng, margin) for _ in range(size)])


@dataclass(frozen=True)
class ModelSpec:
    """A concrete score model: dimensions, callables, feasible set."""

    name: str
    n_states: int
    n_scores: int
    feasible: FeasibleSet
    label_swap_symmetric: bool
    tensor_fn: callable = field(repr=False, compare=False)
    prior_fn: callable = field(repr=False, compare=False)
    tensor_grad_fn: callable = field(repr=False, compare=False)
    prior_grad_fn: callable = field(repr=False, compare=False)

    def __post_init__(self):
        if self.label_swap_symmetric and self.gamma_dim != 1:
            raise ValueError(f"{self.name}: the label-swap symmetry needs a scalar gamma")

    @property
    def theta_dim(self) -> int:
        return self.feasible.theta_dim

    @property
    def gamma_dim(self) -> int:
        return self.feasible.gamma_dim

    def _part(self, part: str, v, validate: bool = False, tol=FEAS_TOL) -> np.ndarray:
        """theta or gamma (`part`) as an array, a point or a stack (..., dim);
        with `validate`, InfeasibleError names the first row outside the set."""
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        dim = self.theta_dim if part == "theta" else self.gamma_dim
        if v.shape[-1] != dim:
            raise InfeasibleError(f"{self.name}: {part} must have {dim} components")
        if validate:
            for idx in np.ndindex(v.shape[:-1]):
                if not self.feasible.contains(v[idx], tol, part):
                    at = f" (row {', '.join(map(str, idx))})" if idx else ""
                    raise InfeasibleError(f"{self.name}: {part} {v[idx]}{at} is infeasible")
        return v

    def require_feasible(self, theta, gamma, tol=FEAS_TOL) -> None:
        """Raise InfeasibleError unless every row of a stack (or the one point) is feasible."""
        self._part("theta", theta, True, tol)
        self._part("gamma", gamma, True, tol)

    def tensor(self, theta, validate: bool = True) -> np.ndarray:
        return self.tensor_fn(self._part("theta", theta, validate))

    def prior(self, gamma, validate: bool = True) -> np.ndarray:
        return self.prior_fn(self._part("gamma", gamma, validate))

    def tensor_grad(self, theta) -> np.ndarray:
        """d_tensor[..., k, h, l, m] = d tensor[..., h, l, m] / d theta_k."""
        return self.tensor_grad_fn(self._part("theta", theta))

    def prior_grad(self, gamma) -> np.ndarray:
        """d_prior[..., k, l] = d prior[..., l] / d gamma_k."""
        return self.prior_grad_fn(self._part("gamma", gamma))


def _bernoulli_prior(gamma):
    return np.concatenate([1.0 - gamma, gamma], axis=-1)


def _bernoulli_prior_grad(gamma):
    return np.array([[-1.0, 1.0]])


def preparata_model() -> ModelSpec:
    """Binary states, binary scores; the probabilistic mutual-test model.

    A state-0 (healthy) evaluator reports the target's state exactly; a
    state-1 (faulty) evaluator reports uniformly at random.  No theta; gamma
    is the scalar fault probability in [0, 1].  This is reliability_model(2),
    whose ramp tables are exactly (1, 0), (0, 1) and (1/2, 1/2).
    """
    return replace(reliability_model(2), name="preparata")


def reliability_model(n_scores: int) -> ModelSpec:
    """Binary states, R graded scores 0..R-1.

    A state-0 evaluator scores the target on a linear ramp (low scores for
    state-0 targets, high for state-1); a state-1 evaluator scores uniformly.
    Collapses to the binary mutual-test model at R = 2.
    """
    if n_scores < 2:
        raise ValueError("reliability model needs n_scores >= 2")
    big = n_scores
    r = np.arange(big, dtype=np.float64)
    ramp = r / r[-1]
    tensor = np.empty((big, 2, 2))
    tensor[:, 0, 0] = (2.0 / big) * (1.0 - ramp)
    tensor[:, 0, 1] = (2.0 / big) * ramp
    tensor[:, 1, 0] = 1.0 / big
    tensor[:, 1, 1] = 1.0 / big
    tensor.setflags(write=False)
    empty_grad = np.zeros((0, big, 2, 2))
    return ModelSpec(
        name="reliability",
        n_states=2,
        n_scores=big,
        feasible=FeasibleSet((Box(np.array([0.0]), np.array([1.0])),), theta_dim=0),
        label_swap_symmetric=False,
        tensor_fn=lambda theta: tensor,
        prior_fn=_bernoulli_prior,
        tensor_grad_fn=lambda theta: empty_grad,
        prior_grad_fn=_bernoulli_prior_grad,
    )


def _binomial_prior(n_states: int):
    coef = np.array([math.comb(n_states - 1, l) for l in range(n_states)],
                    dtype=np.float64)
    top = n_states - 1
    l = np.arange(n_states)
    # exponents clipped at 0 where the factor in front of the power is 0
    down, up = np.maximum(l - 1, 0), np.maximum(top - l - 1, 0)

    def prior(gamma):
        return coef * gamma ** l * (1.0 - gamma) ** (top - l)

    def prior_grad(gamma):
        t1 = l * gamma ** down * (1.0 - gamma) ** (top - l)
        t2 = (top - l) * gamma ** l * (1.0 - gamma) ** up
        return (coef * (t1 - t2))[..., None, :]

    return prior, prior_grad


THETA_BOX = (0.05, 10.0)


def social_ranking_model(n_states: int, n_scores: int, distance=None) -> ModelSpec:
    """Graded states 1..C and scores 1..R with a dispersion-controlled kernel.

    The score likelihood concentrates around scores whose normalized
    shortfall (r_C - r_h)/r_R matches the normalized state distance
    d(c_l, c_m)/c_C; theta > 0 is the dispersion (small theta = sharp).
    The prior on the state index is Binomial(C-1, gamma).

    `distance` is the C-by-C matrix d(c_a, c_b) of state distances; default
    |c_a - c_b|.  It must be nonnegative with d(c_a, c_b) = 0 exactly when
    a = b.
    """
    if n_states < 2 or n_scores < 2:
        raise ValueError("social ranking model needs n_states, n_scores >= 2")
    c_vals = np.arange(1, n_states + 1, dtype=np.float64)
    r_vals = np.arange(1, n_scores + 1, dtype=np.float64)
    if distance is None:
        distance = np.abs(c_vals[:, None] - c_vals)
    dmat = np.asarray(distance, dtype=np.float64)
    if dmat.shape != (n_states, n_states):
        raise ValueError("distance matrix must be C by C")
    if np.any(dmat < 0):
        raise ValueError("distance must be nonnegative")
    if np.any(np.diag(dmat) != 0) or np.any((dmat == 0) & ~np.eye(n_states, dtype=bool)):
        raise ValueError("distance must vanish exactly on equal states")
    # offsets[h, l, m]: how far score h sits from the score suggested by the
    # state distance of the pair (l, m)
    shortfall = (r_vals[-1] - r_vals) / r_vals[-1]
    offsets = shortfall[:, None, None] - (dmat / c_vals[-1])[None, :, :]
    # the gamma -> 1 - gamma relabeling symmetry needs a reversal-invariant distance
    swap_ok = bool(np.allclose(dmat, dmat[::-1, ::-1].T) and np.allclose(dmat, dmat.T))

    a2 = offsets ** 2

    def tensor(theta):
        w = np.exp(-((offsets / theta[..., None, None]) ** 2))
        return w / w.sum(axis=-3, keepdims=True)

    def tensor_grad(theta):
        p = tensor(theta)
        mean_a2 = (p * a2).sum(axis=-3, keepdims=True)
        scale = 2.0 / theta[..., None, None] ** 3
        return (scale * p * (a2 - mean_a2))[..., None, :, :, :]

    prior, prior_grad = _binomial_prior(n_states)
    return ModelSpec(
        name="social-ranking",
        n_states=n_states,
        n_scores=n_scores,
        feasible=FeasibleSet((Box(np.array([THETA_BOX[0]]), np.array([THETA_BOX[1]])),
                              Box(np.array([0.0]), np.array([1.0]))), theta_dim=1),
        label_swap_symmetric=swap_ok,
        tensor_fn=tensor,
        prior_fn=prior,
        tensor_grad_fn=tensor_grad,
        prior_grad_fn=prior_grad,
    )


def categorical_model(n_states: int, n_scores: int) -> ModelSpec:
    """Fully free tables: theta holds all R*C^2 score masses, gamma all C prior masses.

    theta is laid out as C*C blocks of length R, block (l, m) at flat offset
    (l*C + m)*R, each constrained to the probability simplex; gamma is one
    C-simplex.  Gradients are constant indicator tables.
    """
    if n_states < 2 or n_scores < 2:
        raise ValueError("categorical model needs n_states, n_scores >= 2")
    big_c, big_r = n_states, n_scores
    tdim = big_r * big_c * big_c

    def tensor(theta):
        blocks = theta.reshape(theta.shape[:-1] + (big_c, big_c, big_r))
        return np.moveaxis(blocks, -1, -3)

    d_tensor = tensor(np.eye(tdim)).copy()
    d_tensor.setflags(write=False)
    d_prior = np.eye(big_c)
    d_prior.setflags(write=False)
    return ModelSpec(
        name="categorical",
        n_states=big_c,
        n_scores=big_r,
        feasible=FeasibleSet((*(Simplex(big_r) for _ in range(big_c * big_c)), Simplex(big_c)),
                             theta_dim=tdim),
        label_swap_symmetric=False,
        tensor_fn=tensor,
        prior_fn=lambda gamma: np.array(gamma, dtype=np.float64),
        tensor_grad_fn=lambda theta: d_tensor,
        prior_grad_fn=lambda gamma: d_prior,
    )
