"""Collocation derivative operators on scattered nodes.

Builds, for each node of a cloud, a compact stencil whose weighted sum of
neighbor values approximates a partial derivative D^alpha. The weights come
from a small moment-matching system per node: a monomial basis evaluated at
the scaled neighbor offsets, damped by a Gaussian window, is forced to
reproduce the derivative of every basis monomial at the origin. Solving that
system and folding the window back in yields kernel weights with the discrete
moment conditions built in, so polynomials up to degree |alpha| + r - 1 are
differentiated exactly.

Conventions used throughout:

* offsets are taken center-minus-neighbor, v_q = (x_p - x_q) / eps_p;
* the right-hand side is b_beta = (-1)^{|alpha|} D^alpha p_beta(0), so the
  target moment at beta = alpha is (-1)^{|alpha|} alpha!;
* the applied operator is Q f(x_p) = sum_q w_q (f(x_q) + s f(x_p)) with
  s = +1 for odd |alpha| and s = -1 for even |alpha|. The even case cancels
  constants by itself, which is why the constant monomial only appears in
  the basis when |alpha| is odd.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .cloud import (
    PointCloud,
    SpatialIndex,
    _axis_sum,
    _integer,
    _k_nearest_arrays,
    _spacing,
)

__all__ = [
    "InsufficientSupportError", "NodeReport", "OperatorBuildError", "OperatorSpec",
    "StencilOperator", "apply", "build_operator", "gradient_operator", "inspect_node",
    "monomial_basis", "verify_moments",
]

_RESIDUAL_TOL = 1e-10
_GROWTH = 1.5
_MAX_GROWTH_ATTEMPTS = 5
_COND_THRESHOLD = 1e12  # the largest 1-norm condition estimate accepted
_MAX_BASIS_DEGREE = 6
_BLOCK = 102_400  # stacked (node, neighbor, monomial) entries per chunk: 512 at 3-d k*l


class InsufficientSupportError(ValueError):
    """Raised when a cloud has too few nodes for a support of the basis size."""


class OperatorBuildError(RuntimeError):
    """Raised when operator construction fails at one or more nodes."""

    def __init__(self, failed: dict[int, str]):
        self.failed_nodes = dict(sorted(failed.items()))
        ids = list(self.failed_nodes)
        shown = ", ".join(str(i) for i in ids[:10])
        if len(ids) > 10:
            shown += f", ... ({len(ids)} total)"
        super().__init__(
            f"operator construction failed at node(s) {shown}; "
            f"first failure: {next(iter(self.failed_nodes.values()))}"
        )

    def __reduce__(self):  # pickle and copy rebuild from the constructor's argument
        return type(self), (self.failed_nodes,), self.__dict__


def _ill_conditioned(node: int, detail: str) -> str:
    """The failure text of a node whose moment system failed a gate."""
    return f"ill-conditioned moment system at node {node}: {detail}"


def _coincident(node: int, twin: int) -> str:
    """The failure text of a node at the same coordinates as another."""
    return (
        f"node {node} coincides exactly with node {twin}; "
        f"derivative stencils are undefined at coincident nodes"
    )


def _validate_alpha(alpha) -> tuple[int, ...]:
    alpha = tuple(_integer("alpha component", a) for a in alpha)
    if len(alpha) not in (1, 2, 3):
        raise ValueError(f"multi-index must have 1 to 3 components, got {alpha}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index components must be non-negative, got {alpha}")
    if sum(alpha) < 1:
        raise ValueError(f"derivative order must be at least 1, got {alpha}")
    return alpha


def _first_partials(d: int) -> list[tuple[int, ...]]:
    """The multi-indices of d/dx_0, ..., d/dx_{d-1}, in axis order."""
    return [tuple(int(j == i) for j in range(d)) for i in range(d)]


class _Derivative:
    """Order and center-value sign of a dataclass with a multi-index `alpha`."""

    @property
    def order(self) -> int:
        """Total order |alpha| of the multi-index."""
        return sum(self.alpha)

    @property
    def sign(self) -> int:
        """Center-value coupling: +1 for odd |alpha|, -1 for even."""
        return 1 if self.order % 2 == 1 else -1


@dataclass(frozen=True)
class OperatorSpec(_Derivative):
    """Parameters controlling one derivative operator.

    Parameters
    ----------
    alpha : tuple of int
        Derivative multi-index, one component per spatial dimension.
    r : int
        Approximation order; polynomials up to degree |alpha| + r - 1 are
        reproduced exactly. Default 2.
    eps_factor : float
        Kernel width, a finite multiple of the local average spacing. Default 1.0.
    neighbor_factor : float
        Support size as a multiple of the basis size l (k = ceil of it),
        finite and at least 1.0. Default 2.0.
    """

    alpha: tuple[int, ...]
    r: int = 2
    eps_factor: float = 1.0
    neighbor_factor: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _validate_alpha(self.alpha))
        if _integer("approximation order r", self.r) < 1:
            raise ValueError(f"approximation order r must be >= 1, got {self.r}")
        if self.order + self.r - 1 > _MAX_BASIS_DEGREE:
            raise ValueError(
                f"|alpha| + r - 1 = {self.order + self.r - 1} "
                f"exceeds the supported maximum degree {_MAX_BASIS_DEGREE}"
            )
        if not 0 < self.eps_factor < math.inf:
            raise ValueError(
                f"eps_factor must be positive and finite, got {self.eps_factor}"
            )
        if not 1.0 <= self.neighbor_factor < math.inf:
            raise ValueError(
                f"neighbor_factor must be finite and at least 1.0, "
                f"got {self.neighbor_factor}"
            )


def monomial_basis(alpha, r: int) -> list[tuple[int, ...]]:
    """Monomial multi-indices for the moment system of D^alpha at order r.

    Degrees run from alpha_min to |alpha| + r - 1, where alpha_min is 0 for
    odd |alpha| and 1 for even |alpha| (the center coupling of even
    operators cancels constants on its own). Graded order, and within each
    degree the leading component decreases, e.g. (2,0), (1,1), (0,2).
    """
    alpha = _validate_alpha(alpha)
    if _integer("approximation order r", r) < 1:
        raise ValueError(f"approximation order r must be >= 1, got {r}")
    order = sum(alpha)
    lo = 0 if order % 2 == 1 else 1
    return [
        beta
        for degree in range(lo, order + r)
        for beta in itertools.product(range(degree, -1, -1), repeat=len(alpha))
        if sum(beta) == degree
    ]


@functools.lru_cache(maxsize=256)
def _basis_cached(alpha: tuple[int, ...], r: int):
    """monomial_basis, its product chain (parent, axis) and the right-hand side
    b, memoized per (alpha, r): the parent lowers the last non-zero exponent by
    one (-1 means none), and b, read-only as the cache shares it, is zero but
    for (-1)^{|alpha|} alpha! at beta = alpha."""
    basis = tuple(monomial_basis(alpha, r))
    chain = []
    for beta in basis:
        axis = max((i for i, b in enumerate(beta) if b), default=-1)
        lower = tuple(b - (i == axis) for i, b in enumerate(beta))
        chain.append((basis.index(lower) if sum(lower) else -1, axis))
    b = np.zeros(len(basis))
    b[basis.index(alpha)] = (-1) ** sum(alpha) * math.prod(map(math.factorial, alpha))
    b.flags.writeable = False
    return basis, tuple(chain), b


def _basis_matrix(scaled: np.ndarray, chain) -> np.ndarray:
    # scaled (..., k, d) -> V (..., k, l): column 1, v[axis] or V[parent] * v[axis],
    # correctly rounded products (no pow), so no dependence on batch, layout or CPU
    V = np.empty(scaled.shape[:-1] + (len(chain),))
    for j, (parent, axis) in enumerate(chain):
        if parent >= 0:
            np.multiply(V[..., parent], scaled[..., axis], out=V[..., j])
        else:
            V[..., j] = scaled[..., axis] if axis >= 0 else 1.0
    return V


# The stages below are the only numeric path: the builder runs them on blocks
# of nodes, inspect_node on a batch of one. Every node's numbers come from its
# own slice of each stacked operation, so they do not depend on the batch.


def _assemble(offsets: np.ndarray, eps: np.ndarray, chain):
    """Stacked moment matrices from center-minus-neighbor offsets (m, k, d)
    and kernel widths (m,): returns V (m, k, l), E (m, k) and
    A = B^T B (m, l, l)."""
    scaled = offsets / eps[:, None, None]
    V = _basis_matrix(scaled, chain)
    E = np.exp(-0.5 * _axis_sum(scaled**2))
    B = E[..., None] * V
    # B twice would take numpy's syrk path, ~3x slower than gemm on these small
    # matrices and contended across threads; B^T first keeps the 3-d bits.
    return V, E, np.matmul(B.transpose(0, 2, 1), B.copy())


def _fold(V: np.ndarray, E: np.ndarray, eps: np.ndarray, a: np.ndarray, order: int):
    """Per-neighbor weights eps^-|alpha| p(v) a W(v), (m, k), from one
    column of coefficients a (m, l, 1)."""
    return (V @ a)[..., 0] * E**2 / eps[:, None] ** order


def _moment_deviation(V, w, eps, order: int, b: np.ndarray) -> np.ndarray:
    """max_beta |V^T (w eps^|alpha|) - b_beta| of each node (m,), from the
    monomials V (m, k, l) and the weights w (m, k): the build's gate and
    verify_moments alike."""
    Z = np.matmul(V.transpose(0, 2, 1), (w * eps[:, None] ** order)[..., None])
    return np.max(np.abs(Z[..., 0] - b), axis=1)


def _norm1(M: np.ndarray) -> np.ndarray:
    """Stacked 1-norms, summed row by row: np.linalg.norm(M, 1, (1, 2))'s bits."""
    return functools.reduce(np.add, np.abs(M).transpose(1, 0, 2)).max(axis=1)


def _solve(V, E, A, eps, rhs: np.ndarray, order: int):
    """Solve A a = b at every node of a stack for each column b of rhs (l, c),
    and fold each a = A^-1 b into weights (c, m, k) with V, E and eps.

    Each A is inverted once. The gates: the 1-norm condition estimate
    |A| |A^-1| (the bits of np.linalg.cond(A, 1)) is finite and at most
    _COND_THRESHOLD = 1e12, and _moment_deviation of each column's weights
    is at most 1e-10 (1 + |b|). Returns the condition estimates (m,), the
    weights and the failure detail of each failed row, whose numbers are
    meaningless.
    """
    m, l, _ = A.shape
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # one singular A fails the stack: one by one,
        inv = np.full_like(A, np.inf)  # a singular A keeps cond = inf
        for i in range(m):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(A[i : i + 1])[0]
    with np.errstate(all="ignore"):  # failed rows: inf and nan, dropped later
        cond = _norm1(A) * _norm1(inv)
        # one right-hand side at a time, shaped (m, l, 1), so a shared
        # multi-target build is bit-identical to single-target builds
        coeffs = (inv @ np.broadcast_to(b[:, None], (m, l, 1)) for b in rhs.T)
        W = np.stack([_fold(V, E, eps, a, order) for a in coeffs])
        miss = [_moment_deviation(V, w, eps, order, b) for w, b in zip(W, rhs.T)]
    why = {}
    for i in np.flatnonzero(~(cond <= _COND_THRESHOLD)).tolist():
        big = f"condition estimate {cond[i]:.3e} exceeds {_COND_THRESHOLD:.3e}"
        why[i] = big if cond[i] < math.inf else "moment matrix is numerically singular"
    for b, dev in zip(rhs.T, miss):
        bound = _RESIDUAL_TOL * (1.0 + math.sqrt(float(b @ b)))
        for i in np.flatnonzero(~(dev <= bound)).tolist():
            why.setdefault(i, f"moment residual {dev[i]:.3e} exceeds {bound:.3e}")
    return cond, W, why


@dataclass(frozen=True, eq=False)
class StencilOperator(_Derivative):
    """A derivative operator assembled over every node of `cloud`, which it
    holds by reference and reads `n` and `dim` from; verify_moments checks
    the stencils on it. The elasticity recovery accepts only a cloud == it.

    The CSR matrix is the only store of the stencils: row p holds the
    weights w_q of node p's neighbors and, last, the center coupling
    sign * sum_q w_q, so applying the operator evaluates
    sum_q w_q (f_q + sign * f_p). `neighbor_ids` and `weights` are
    per-node views of those rows without the center entry, made on first
    access. Diagnostics from construction (kernel width, support size,
    condition estimate) are kept per node, in arrays that the components of
    one gradient build share. Construction, dataclasses.replace's too, makes
    the diagnostics and the CSR arrays read-only in place.
    """

    alpha: tuple[int, ...]
    r: int
    cloud: PointCloud = field(repr=False)
    eps: np.ndarray = field(repr=False)
    support_size: np.ndarray = field(repr=False)
    condition: np.ndarray = field(repr=False)
    _matrix: csr_matrix = field(repr=False)

    def __post_init__(self):
        m, diagnostics = self._matrix, (self.eps, self.support_size, self.condition)
        for arr in (m.data, m.indices, m.indptr, *diagnostics):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.cloud.n

    @property
    def dim(self) -> int:
        return self.cloud.dim

    def _rows(self, values: np.ndarray) -> list[np.ndarray]:
        ptr = self._matrix.indptr
        return [values[a:b] for a, b in zip(ptr[:-1].tolist(), (ptr[1:] - 1).tolist())]

    @functools.cached_property
    def neighbor_ids(self) -> list[np.ndarray]:
        return self._rows(self._matrix.indices)

    @functools.cached_property
    def weights(self) -> list[np.ndarray]:
        return self._rows(self._matrix.data)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return apply(self, values)


def _workers() -> int:
    """The number of CPUs in this process's affinity mask."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _in_chunks(fn, nodes: np.ndarray, width: int) -> list:
    """[fn(chunk) for chunk in chunks]: nodes of `width` stacked entries each, in
    one chunk under half a _BLOCK of entries, else in a multiple of _workers()
    chunks of at most a block or one node, never more chunks than nodes. The
    calling thread takes every workers-th chunk, helper threads made here the
    rest. A node's bits come from its own slices, not from the cut or threads."""
    n, workers, per = nodes.size, _workers(), max(_BLOCK // width, 1)
    parts = workers * -(-n // (workers * per)) if 2 * n * width >= _BLOCK else 1
    chunks = np.array_split(nodes, min(parts, n))
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:  # threads start on submit
        helped = [i % workers and pool.submit(fn, c) for i, c in enumerate(chunks)]
        return [f.result() if f else fn(c) for c, f in zip(chunks, helped)]


def _solve_block(
    index: SpatialIndex, spec: OperatorSpec, rhs: np.ndarray, nodes: np.ndarray, k: int
):
    """One growth attempt at support size k over a block of the index's nodes.

    Runs kNN and the spacing, then assembly and the solve (with its weight
    fold and gates), each as one stacked pass over the block. Returns the
    nodes that passed as (nodes, ids (m, k), eps, condition, weights
    (columns, m, k)), then the error text of the nodes that failed for good
    (coincident nodes) and of those a larger support may mend.
    """
    ids, dist = _k_nearest_arrays(index, k, nodes)
    twin = dist[:, 0] <= 0.0
    pairs = zip(nodes[twin].tolist(), ids[twin, 0].tolist())
    final = {p: _coincident(p, q) for p, q in pairs}
    nodes, ids = nodes[~twin], ids[~twin]
    coords = index.cloud.coords
    offsets = np.take(coords, nodes, 0)[:, None] - np.take(coords, ids, 0)
    eps = spec.eps_factor * _spacing(offsets)
    V, E, A = _assemble(offsets, eps, _basis_cached(spec.alpha, spec.r)[1])
    cond, W, why = _solve(V, E, A, eps, rhs, spec.order)
    rows = nodes.tolist()
    retry = {rows[i]: _ill_conditioned(rows[i], w) for i, w in why.items()}
    ok = np.isin(np.arange(nodes.size), list(why), invert=True)
    return (nodes[ok], ids[ok], eps[ok], cond[ok], W[:, ok]), final, retry


def _grow(
    cloud: PointCloud,
    index: SpatialIndex,
    alphas: list[tuple[int, ...]],
    spec: OperatorSpec,
    pending: np.ndarray,
):
    """The growth attempts of the pending nodes, which builds and inspect_node share.

    The first support size is k0 = ceil(neighbor_factor * l), capped at n - 1;
    each attempt is one batched pass over the pending nodes, in blocks, and the
    nodes whose support fails a gate are regrown together at 1.5 times the last
    k, capped at n - 1, at most _MAX_GROWTH_ATTEMPTS times. Returns the blocks
    that passed (see _solve_block), the failure text of each node that never
    passed and each attempt's (k, {node: failure text}).

    A cloud of at most l nodes cannot hold a support of l and raises
    InsufficientSupportError, and one with u <= |alpha| + r - 1 distinct values
    on an axis OperatorBuildError at every node: the offsets take u values
    there, 0 among them, so v prod(v - c) over the others lies in the basis
    span and vanishes on every support.
    """
    if len(spec.alpha) != cloud.dim:
        raise ValueError(
            f"multi-index {spec.alpha} does not match cloud dimension {cloud.dim}"
        )
    if index.cloud != cloud:
        raise ValueError("spatial index was built for a different cloud")
    rhs = np.column_stack([_basis_cached(a, spec.r)[2] for a in alphas])
    l, n = rhs.shape[0], cloud.n
    if n - 1 < l:
        raise InsufficientSupportError(
            f"cloud of {n} nodes cannot determine {l} basis moments"
        )
    need = spec.order + spec.r  # distinct values per axis: the basis degree + 1
    for xyz, u in zip("xyz", (np.unique(c).size for c in cloud.coords.T)):
        if u < need:
            why = f"axis {xyz} has {u} distinct coordinates, the basis needs {need}"
            raise OperatorBuildError({p: _ill_conditioned(p, why) for p in range(n)})
    blocks, failed, attempts = [], {}, []
    k = min(math.ceil(spec.neighbor_factor * l), n - 1)
    for _ in range(_MAX_GROWTH_ATTEMPTS + 1):
        final, retry = {}, {}
        solve = functools.partial(_solve_block, index, spec, rhs, k=k)
        for block, gone, again in _in_chunks(solve, pending, k * l):
            blocks.append(block)
            final.update(gone)
            retry.update(again)
        failed.update(final)
        attempts.append((k, {**final, **retry}))
        pending = np.array(sorted(retry), dtype=np.intp)
        if not retry or k == n - 1:
            break
        k = min(math.ceil(_GROWTH * k), n - 1)
    failed.update(retry)
    return blocks, failed, attempts


def _build_many(
    cloud: PointCloud,
    index: SpatialIndex,
    alphas: list[tuple[int, ...]],
    spec: OperatorSpec,
) -> list[StencilOperator]:
    """Build one operator per multi-index in alphas, sharing supports and
    moment matrices. All alphas must have the same order so the basis and
    moment matrix coincide; only the right-hand sides differ.
    """
    n = cloud.n
    blocks, failed, _ = _grow(cloud, index, alphas, spec, np.arange(n))
    if failed:
        raise OperatorBuildError(failed)

    eps, size, cond = np.empty(n), np.empty(n, dtype=np.intp), np.empty(n)
    for nodes, ids, e, c, _ in blocks:
        eps[nodes], size[nodes], cond[nodes] = e, ids.shape[1], c
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(size + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.intp)
    data = np.empty((len(alphas), indptr[-1]))
    for nodes, ids, _, _, W in blocks:
        at = indptr[nodes, None] + np.arange(ids.shape[1] + 1)  # rows, center last
        indices[at] = np.column_stack([ids, nodes])
        data[:, at[:, :-1]] = W
        # summed over contiguous rows: the same bits as np.sum of each row
        data[:, at[:, -1]] = spec.sign * np.sum(W, axis=2)
    ops = []
    for j, alpha in enumerate(alphas):
        matrix = csr_matrix((data[j], indices, indptr), shape=(n, n))
        indices, indptr = matrix.indices, matrix.indptr  # shared with the next
        ops.append(
            StencilOperator(
                alpha=alpha,
                r=spec.r,
                cloud=cloud,
                eps=eps,
                support_size=size,
                condition=cond,
                _matrix=matrix,
            )
        )
    return ops


def build_operator(
    cloud: PointCloud,
    index: SpatialIndex,
    spec: OperatorSpec,
) -> StencilOperator:
    """Build the D^alpha stencil operator at every node of the cloud.

    Initial support size is k = ceil(neighbor_factor * l), capped at n - 1,
    where l is the number of basis monomials; a cloud of at most l nodes
    raises InsufficientSupportError. A support is regrown by 1.5x, at most
    5 times, when its condition estimate exceeds 1e12 or its weights miss
    their moments by more than 1e-10 (1 + alpha!), as verify_moments reads
    them. If any node still fails, an OperatorBuildError listing the
    failing node ids is raised. An index built over other coordinates than
    the cloud's raises ValueError.

    Each growth attempt is one batched pass over the pending nodes, in blocks
    of at most 102,400 stacked entries (k * l per node) run on the CPUs of the
    affinity mask. A node's weights do not depend on its block, so the bits
    depend on neither the cut nor the CPU count, and two builds over the same
    cloud are bit-identical. inspect_node runs the same growth attempts on one
    node and gives the same bits.
    """
    return _build_many(cloud, index, [spec.alpha], spec)[0]


def gradient_operator(
    cloud: PointCloud,
    index: SpatialIndex,
    r: int = OperatorSpec.r,
    *,
    eps_factor: float = OperatorSpec.eps_factor,
    neighbor_factor: float = OperatorSpec.neighbor_factor,
    threads: int | None = None,
) -> tuple[StencilOperator, ...]:
    """Build all d first-partial operators in one pass.

    The component operators share supports and moment matrices; only the
    right-hand sides differ. The result equals d independent build_operator
    calls, and like them runs its blocks on the CPUs of the affinity mask with
    bits that do not depend on that count. `threads` is checked to be positive
    and otherwise ignored.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    alphas = _first_partials(cloud.dim)
    spec = OperatorSpec(alphas[0], r, eps_factor, neighbor_factor)
    return tuple(_build_many(cloud, index, alphas, spec))


@dataclass(frozen=True, eq=False)
class NodeReport:
    """What build_operator did at one node, from inspect_node.

    `attempts` holds one (k, failure text or None) per growth attempt, with
    the build's text. `ids`, `eps`, `condition` and `weights` are the node's
    operator row without the center entry, and None when the last attempt
    failed.
    """

    node: int
    spec: OperatorSpec
    attempts: tuple[tuple[int, str | None], ...]
    ids: np.ndarray | None
    eps: float | None
    condition: float | None
    weights: np.ndarray | None


def inspect_node(
    cloud: PointCloud, index: SpatialIndex, spec: OperatorSpec, node: int
) -> NodeReport:
    """Run build_operator's growth attempts on one node.

    The build's own attempt loop runs on a batch of one, so the report holds
    the build's bits and failure texts at this node; a node the build would
    fail gets None in place of its row. The build's checks come first and
    raise as it does. IndexError if node is not in [0, n).
    """
    node = _integer("node", node)
    if not 0 <= node < cloud.n:
        raise IndexError(f"node {node} out of range for cloud of {cloud.n} nodes")
    blocks, failed, attempts = _grow(cloud, index, [spec.alpha], spec, np.array([node]))
    row = (None,) * 4
    if not failed:
        _, ids, eps, cond, W = blocks[-1]
        row = ids[0], float(eps[0]), float(cond[0]), W[0, 0]
    tried = tuple((k, why.get(node)) for k, why in attempts)
    return NodeReport(node, spec, tried, *row)


def _real_field(values) -> np.ndarray:
    """`values` as float64; complex input raises rather than lose its imaginary part."""
    if np.iscomplexobj(values):
        raise ValueError("field contains complex values")
    return np.asarray(values, dtype=np.float64)


def apply(op: StencilOperator, values: np.ndarray) -> np.ndarray:
    """Apply a stencil operator to nodal values.

    Evaluates sum_q w_q (f_q + sign f_p) at every node with a fixed
    summation order, so repeated applications are bit-identical.
    """
    values = _real_field(values)
    if values.shape != (op.n,):
        raise ValueError(f"expected {op.n} nodal values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    return op._matrix @ values


def verify_moments(op: StencilOperator) -> np.ndarray:
    """Recompute the discrete moments of every stencil from its final weights.

    Returns the per-node maximum absolute deviation of
    Z^beta = sum_q v_q^beta eps^{|alpha|} w_q from its target:
    (-1)^{|alpha|} alpha! at beta = alpha and 0 for the other basis
    monomials (the constant moment participates only for odd |alpha|, the
    only case where it is in the basis). The build's gate is this same
    computation, which accepts at most 1e-10 (1 + alpha!), on the operator's
    own cloud. The nodes of each support size k run in blocks as the build's
    do (k * l entries per node), on the CPUs of the affinity mask; the result
    depends on neither cut nor count.
    """
    basis, chain, target = _basis_cached(op.alpha, op.r)
    ids, w, ptr = op._matrix.indices, op._matrix.data, op._matrix.indptr
    coords = op.cloud.coords
    starts, counts = ptr[:-1], np.diff(ptr) - 1  # rows without the center entry
    # one support size per chunk: each node's moments are its single-node product
    def check(nodes):
        at = starts[nodes, None] + np.arange(counts[nodes[0]])  # stencil entries
        eps = op.eps[nodes]
        v = np.take(coords, nodes, 0)[:, None] - np.take(coords, ids[at], 0)
        V = _basis_matrix(v / eps[:, None, None], chain)
        return nodes, _moment_deviation(V, w[at], eps, op.order, target)

    out = np.empty(op.n)
    for k in np.unique(counts).tolist():
        group = np.flatnonzero(counts == k)
        for nodes, deviation in _in_chunks(check, group, k * len(basis)):
            out[nodes] = deviation
    return out
