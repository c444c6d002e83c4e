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
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .cloud import (
    DuplicateNodeError,
    NeighborSet,
    PointCloud,
    SpatialIndex,
    _k_nearest_arrays,
    _spacing,
)

_RESIDUAL_TOL = 1e-10
_GROWTH = 1.5
_MAX_BASIS_DEGREE = 6
_BLOCK = 512  # nodes per stacked pass; bounds the (m, k, l) stacked temporaries


class InsufficientSupportError(ValueError):
    """Raised when a support has fewer nodes than basis monomials."""


class IllConditionedNodeError(RuntimeError):
    """Raised when one node's moment system cannot be solved reliably."""

    def __init__(self, node: int | None, detail: str):
        self.node = node
        where = f"node {node}" if node is not None else "node"
        super().__init__(f"ill-conditioned moment system at {where}: {detail}")


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


def multi_index_order(alpha) -> int:
    """Total order |alpha| of a derivative multi-index."""
    return int(sum(alpha))


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _validate_alpha(alpha) -> tuple[int, ...]:
    alpha = tuple(_integer("alpha component", a) for a in alpha)
    if len(alpha) not in (1, 2, 3):
        raise ValueError(f"multi-index must have 1 to 3 components, got {alpha}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index components must be non-negative, got {alpha}")
    if sum(alpha) < 1:
        raise ValueError(f"derivative order must be at least 1, got {alpha}")
    return alpha


def _check_dim(alpha: tuple[int, ...], cloud: PointCloud) -> None:
    if len(alpha) != cloud.dim:
        raise ValueError(
            f"multi-index {alpha} does not match cloud dimension {cloud.dim}"
        )


def _first_partials(d: int) -> list[tuple[int, ...]]:
    """The multi-indices of d/dx_0, ..., d/dx_{d-1}, in axis order."""
    return [tuple(int(j == i) for j in range(d)) for i in range(d)]


class _Derivative:
    """Order and center-value sign of a dataclass with a multi-index `alpha`."""

    @property
    def order(self) -> int:
        return multi_index_order(self.alpha)

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
    max_growth_attempts : int
        How many times an ill-conditioned support may be regrown by 1.5x
        before the node is reported as failed. Default 5.
    cond_threshold : float
        1-norm condition estimate above which a (square-rank) moment system
        is rejected. Default 1e12.
    """

    alpha: tuple[int, ...]
    r: int = 2
    eps_factor: float = 1.0
    neighbor_factor: float = 2.0
    max_growth_attempts: int = 5
    cond_threshold: float = 1e12

    def __post_init__(self):
        object.__setattr__(self, "alpha", _validate_alpha(self.alpha))
        if _integer("approximation order r", self.r) < 1:
            raise ValueError(f"approximation order r must be >= 1, got {self.r}")
        if multi_index_order(self.alpha) + self.r - 1 > _MAX_BASIS_DEGREE:
            raise ValueError(
                f"|alpha| + r - 1 = {multi_index_order(self.alpha) + self.r - 1} "
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
        if _integer("max_growth_attempts", self.max_growth_attempts) < 0:
            raise ValueError("max_growth_attempts must be non-negative")
        if not self.cond_threshold > 0:
            raise ValueError("cond_threshold must be positive")


def _grade_tuples(total: int, d: int):
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _grade_tuples(total - first, d - 1):
            yield (first,) + rest


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
    d = len(alpha)
    order = multi_index_order(alpha)
    lo = 0 if order % 2 == 1 else 1
    hi = order + r - 1
    basis: list[tuple[int, ...]] = []
    for degree in range(lo, hi + 1):
        basis.extend(_grade_tuples(degree, d))
    return basis


@functools.lru_cache(maxsize=256)
def _basis_cached(alpha: tuple[int, ...], r: int):
    """monomial_basis and its product chain (parent, axis), memoized per (alpha, r):
    the parent lowers the last non-zero exponent by one; -1 means none."""
    basis = tuple(monomial_basis(alpha, r))
    chain = []
    for beta in basis:
        axis = max((i for i, b in enumerate(beta) if b), default=-1)
        lower = tuple(b - (i == axis) for i, b in enumerate(beta))
        chain.append((basis.index(lower) if sum(lower) else -1, axis))
    return basis, tuple(chain)


@dataclass(frozen=True)
class MomentSystem:
    """Per-node moment-matching system A a = b with A = B^T B, B = E V.

    V holds the basis monomials at the scaled offsets v_q = (x_p - x_q)/eps
    (one row per neighbor), E the Gaussian half-window exp(-|v_q|^2 / 2), so
    E^2 is the kernel window. V's entries are fixed chains of products, e.g.
    (x*y)*y for x y^2, so their bits do not depend on batch, layout or CPU.
    """

    basis: list[tuple[int, ...]]
    V: np.ndarray
    E: np.ndarray
    A: np.ndarray
    b: np.ndarray
    eps: float


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


def _rhs(basis: tuple[tuple[int, ...], ...], alpha: tuple[int, ...]) -> np.ndarray:
    b = np.zeros(len(basis))
    sign = -1.0 if multi_index_order(alpha) % 2 == 1 else 1.0
    b[basis.index(alpha)] = sign * math.prod(math.factorial(a) for a in alpha)
    return b


# The three stages below are the only numeric path: the builder runs them on
# blocks of nodes, the per-node API on a batch of one. Every node's numbers
# come from its own slice of each stacked operation, so they do not depend on
# the batch.


def _assemble(offsets: np.ndarray, eps: np.ndarray, chain):
    """Stacked moment matrices from center-minus-neighbor offsets (m, k, d)
    and kernel widths (m,): returns V (m, k, l), E (m, k) and
    A = B^T B (m, l, l)."""
    scaled = offsets / eps[:, None, None]
    V = _basis_matrix(scaled, chain)
    E = np.exp(-0.5 * np.sum(scaled**2, axis=2))
    B = E[..., None] * V
    return V, E, np.matmul(B.transpose(0, 2, 1), B)


def _solve(
    V: np.ndarray, E: np.ndarray, A: np.ndarray, rhs: np.ndarray, cond_threshold: float
):
    """Solve A a = b at every node of a stack, for each column b of rhs (l, c).

    For k >= l each A is inverted once: the 1-norm condition estimate
    |A| |A^-1| (the bits of np.linalg.cond(A, 1)) must be finite and at
    most cond_threshold, and a = A^-1 b. For k < l (the whole cloud is
    smaller than the basis) there is no gate and a = A^+ b, the minimal-norm
    solution from the SVD of B. Either way |A a - b| <= 1e-10 (1 + |b|) is
    enforced per column. Returns the condition estimates (m,), inf for k < l,
    the coefficients (c, m, l, 1), and the failure detail of each failed row.
    """
    m, k, l = V.shape
    why: dict[int, str] = {}
    if k >= l:
        try:
            inv = np.linalg.inv(A)
        except np.linalg.LinAlgError:  # one singular A fails the stack: one by one,
            inv = np.full_like(A, np.inf)  # a singular A keeps cond = inf
            for i in range(m):
                with contextlib.suppress(np.linalg.LinAlgError):
                    inv[i] = np.linalg.inv(A[i : i + 1])[0]
        with np.errstate(all="ignore"):  # the norms np.linalg.cond(A, 1) takes
            cond = np.linalg.norm(A, 1, (1, 2)) * np.linalg.norm(inv, 1, (1, 2))
        live = np.isfinite(cond) & (cond <= cond_threshold)
        for i in np.flatnonzero(~live).tolist():
            why[i] = (
                f"condition estimate {cond[i]:.3e} exceeds {cond_threshold:.3e}"
                if np.isfinite(cond[i])
                else "moment matrix is numerically singular"
            )
    else:
        cond = np.full(m, np.inf)
        _, s, vt = np.linalg.svd(E[..., None] * V, full_matrices=False)
        keep = s > np.where(s[:, :1] > 0, s[:, :1] * 1e-13, np.inf)
        live = keep[:, 0]
        for i in np.flatnonzero(~live).tolist():
            why[i] = "moment matrix is numerically zero"
        inv_s2 = np.divide(1.0, s**2, out=np.zeros_like(s), where=keep)
        inv = np.matmul(vt.transpose(0, 2, 1) * inv_s2[:, None, :], vt)  # V S^-2 V^T
    A, inv = A[live], inv[live]
    coeffs = np.full((rhs.shape[1], m, l, 1), np.nan)
    ok = np.ones(A.shape[0], dtype=bool)
    rows = np.flatnonzero(live)
    # one right-hand side at a time, shaped (m, l, 1), so a shared
    # multi-target build is bit-identical to single-target builds
    for j, col in enumerate(rhs.T):
        b = np.broadcast_to(col[:, None], A.shape[:2] + (1,))
        a = np.matmul(inv, b)
        res = (A @ a - b)[..., 0]
        resid = np.sqrt(np.sum(res * res, axis=1))
        bound = _RESIDUAL_TOL * (1.0 + math.sqrt(float(col @ col)))
        bad = ~(resid <= bound) & ok
        for i, r in zip(rows[bad].tolist(), resid[bad].tolist()):
            why[i] = f"moment residual {r:.3e} exceeds {bound:.3e}"
        ok &= ~bad
        coeffs[j, live] = a
    return cond, coeffs, why


def _fold(V: np.ndarray, E: np.ndarray, eps: np.ndarray, a: np.ndarray, order: int):
    """Per-neighbor weights eps^-|alpha| p(v) a W(v), (m, k), from one
    column of coefficients a (m, l, 1)."""
    return (V @ a)[..., 0] * E**2 / eps[:, None] ** order


def assemble_moment_system(
    cloud: PointCloud,
    neighbors: NeighborSet,
    spec: OperatorSpec,
    eps: float,
    *,
    allow_underdetermined: bool = False,
) -> MomentSystem:
    """Assemble the moment system of D^alpha at one node.

    The builder's assembly stage on a batch of one, so the arrays are the
    bits the builder uses at this node. Raises InsufficientSupportError
    when the support has fewer nodes than basis monomials, unless
    allow_underdetermined is set (the builder accepts such a support only
    once it spans the whole cloud, and then the minimal-norm solution iff
    its residual passes).
    """
    if not eps > 0:
        raise ValueError(f"kernel width eps must be positive, got {eps}")
    _check_dim(spec.alpha, cloud)
    basis, chain = _basis_cached(spec.alpha, spec.r)
    k, l = len(neighbors), len(basis)
    if k < l and not allow_underdetermined:
        raise InsufficientSupportError(
            f"node {neighbors.node}: support of {k} nodes cannot determine "
            f"{l} basis moments"
        )
    offsets = cloud.coords[neighbors.node] - cloud.coords[neighbors.ids]
    V, E, A = (x[0] for x in _assemble(offsets[None], np.array([float(eps)]), chain))
    b = _rhs(basis, spec.alpha)
    return MomentSystem(basis=list(basis), V=V, E=E, A=A, b=b, eps=float(eps))


def solve_kernel_coefficients(
    system: MomentSystem,
    *,
    cond_threshold: float = 1e12,
    node: int | None = None,
) -> np.ndarray:
    """Solve the moment system for the kernel coefficient vector a.

    The builder's solve stage on a batch of one: the same gates, the same
    solver and the same bits. Raises IllConditionedNodeError naming `node`
    when a gate fails.
    """
    V, E, A = (x[None] for x in (system.V, system.E, system.A))
    _, coeffs, why = _solve(V, E, A, system.b[:, None], cond_threshold)
    if why:
        raise IllConditionedNodeError(node, why[0])
    return coeffs[0, 0, :, 0]


def kernel_weights(system: MomentSystem, coeffs: np.ndarray, order: int) -> np.ndarray:
    """Fold coefficients into per-neighbor weights eps^-|alpha| p(v) a W(v),
    with the builder's weight fold on a batch of one."""
    a = np.ascontiguousarray(coeffs, dtype=np.float64).reshape(1, -1, 1)
    return _fold(system.V[None], system.E[None], np.array([system.eps]), a, order)[0]


@dataclass(frozen=True)
class StencilOperator(_Derivative):
    """A derivative operator assembled over every node of one cloud.

    The CSR matrix is the only store of the stencils: row p holds the
    weights w_q of node p's neighbors and, last, the center coupling
    sign * sum_q w_q, so applying the operator evaluates
    sum_q w_q (f_q + sign * f_p). `neighbor_ids` and `weights` are
    read-only per-node views of those rows without the center entry, made
    on first access.
    Diagnostics from construction (kernel width, support size, condition
    estimate) are kept per node, in read-only arrays that the components of
    one gradient build share.
    """

    alpha: tuple[int, ...]
    r: int
    dim: int
    n: int
    eps: np.ndarray = field(repr=False)
    support_size: np.ndarray = field(repr=False)
    condition: np.ndarray = field(repr=False)
    _matrix: csr_matrix = field(repr=False, compare=False)

    def __post_init__(self):
        m = self._matrix
        for arr in (m.data, m.indices, m.indptr):
            arr.flags.writeable = False

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


def _resolve_threads(threads: int | None) -> int:
    """The requested thread count, 1 by default, checked to be positive. The
    build is one batched pass, so the count changes nothing."""
    threads = 1 if threads is None else threads
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    return threads


def _solve_block(
    cloud: PointCloud,
    index: SpatialIndex,
    spec: OperatorSpec,
    rhs: np.ndarray,
    nodes: np.ndarray,
    k: int,
):
    """One growth attempt at support size k over a block of nodes.

    Runs kNN and the spacing, then the three stages (assembly, solve with
    its gates, weight fold), each as one stacked pass over the block.
    Returns the nodes that passed as (nodes, ids (m, k), eps, condition,
    weights (columns, m, k)), then the error text of the nodes that failed
    for good (coincident nodes) and of those a larger support may mend.
    """
    ids, dist = _k_nearest_arrays(index, k, nodes)
    twin = dist[:, 0] <= 0.0
    final = {
        int(p): str(DuplicateNodeError(p, q)) for p, q in zip(nodes[twin], ids[twin, 0])
    }
    nodes, ids = nodes[~twin], ids[~twin]
    offsets = cloud.coords[nodes, None] - cloud.coords[ids]  # center minus neighbor
    eps = spec.eps_factor * _spacing(offsets)
    V, E, A = _assemble(offsets, eps, _basis_cached(spec.alpha, spec.r)[1])
    cond, coeffs, why = _solve(V, E, A, rhs, spec.cond_threshold)
    rows = nodes.tolist()
    retry = {rows[i]: str(IllConditionedNodeError(rows[i], w)) for i, w in why.items()}
    ok = np.ones(nodes.size, dtype=bool)
    ok[list(why)] = False
    nodes, ids, eps, cond, V, E = (x[ok] for x in (nodes, ids, eps, cond, V, E))
    W = np.stack([_fold(V, E, eps, a[ok], spec.order) for a in coeffs])
    return (nodes, ids, eps, cond, W), final, retry


def _build_many(
    cloud: PointCloud,
    index: SpatialIndex,
    alphas: list[tuple[int, ...]],
    spec: OperatorSpec,
) -> list[StencilOperator]:
    """Build one operator per multi-index in alphas, sharing supports and
    moment matrices. All alphas must have the same order so the basis and
    moment matrix coincide; only the right-hand sides differ.

    Each growth attempt is one batched pass over the pending nodes, in
    blocks; the nodes whose support fails a gate are regrown together.
    Growth stops at k = n - 1, so a cloud smaller than the basis (k < l) has
    one attempt, at its minimal-norm solve.
    """
    if not np.array_equal(index.cloud.coords, cloud.coords):
        raise ValueError("spatial index was built for a different cloud")
    basis = _basis_cached(alphas[0], spec.r)[0]
    rhs = np.column_stack([_rhs(basis, a) for a in alphas])
    l = len(basis)
    n = cloud.n
    k = min(math.ceil(spec.neighbor_factor * l), n - 1)
    if k < 1:
        raise InsufficientSupportError("cloud has no neighbors to build stencils from")

    blocks, failed = [], {}
    pending = np.arange(n)
    for attempt in range(spec.max_growth_attempts + 1):
        if attempt:
            k = min(math.ceil(_GROWTH * k), n - 1)
        retry: dict[int, str] = {}
        for start in range(0, pending.size, _BLOCK):
            block, final, again = _solve_block(
                cloud, index, spec, rhs, pending[start : start + _BLOCK], k
            )
            blocks.append(block)
            failed.update(final)
            retry.update(again)
        pending = np.array(sorted(retry), dtype=np.intp)
        if not retry or k >= n - 1:
            break
    failed.update(retry)
    if failed:
        raise OperatorBuildError(failed)

    eps, size, cond = np.empty(n), np.empty(n, dtype=np.intp), np.empty(n)
    for nodes, ids, e, c, _ in blocks:
        eps[nodes], size[nodes], cond[nodes] = e, ids.shape[1], c
    for arr in (eps, size, cond):
        arr.flags.writeable = False  # shared by every operator built here
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
                dim=cloud.dim,
                n=n,
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

    Initial support size is k = ceil(neighbor_factor * l), capped at n - 1;
    supports flagged ill-conditioned are regrown by 1.5x up to
    max_growth_attempts times. If any node still fails, an
    OperatorBuildError listing the failing node ids is raised. An index
    built over other coordinates than the cloud's raises ValueError.

    The build is one batched pass over all nodes per growth attempt, and
    each node's weights do not depend on the batch it is solved in, so two
    builds over the same cloud produce bit-identical weights. They are also
    the bits the per-node API (assemble_moment_system,
    solve_kernel_coefficients, kernel_weights) gives at that node.
    """
    _check_dim(spec.alpha, cloud)
    return _build_many(cloud, index, [spec.alpha], spec)[0]


def gradient_operator(
    cloud: PointCloud,
    index: SpatialIndex,
    r: int = 2,
    *,
    eps_factor: float = 1.0,
    neighbor_factor: float = 2.0,
    max_growth_attempts: int = 5,
    cond_threshold: float = 1e12,
    threads: int | None = None,
) -> tuple[StencilOperator, ...]:
    """Build all d first-partial operators in one pass.

    The component operators share supports and moment matrices; only the
    right-hand sides differ. The result equals d independent build_operator
    calls. `threads` is checked to be positive and otherwise unused.
    """
    _resolve_threads(threads)
    alphas = _first_partials(cloud.dim)
    spec = OperatorSpec(
        alpha=alphas[0],
        r=r,
        eps_factor=eps_factor,
        neighbor_factor=neighbor_factor,
        max_growth_attempts=max_growth_attempts,
        cond_threshold=cond_threshold,
    )
    return tuple(_build_many(cloud, index, alphas, spec))


def apply(op: StencilOperator, values: np.ndarray) -> np.ndarray:
    """Apply a stencil operator to nodal values.

    Evaluates sum_q w_q (f_q + sign f_p) at every node with a fixed
    summation order, so repeated applications are bit-identical.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (op.n,):
        raise ValueError(f"expected {op.n} nodal values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    return op._matrix @ values


def verify_moments(op: StencilOperator, cloud: PointCloud) -> np.ndarray:
    """Recompute the discrete moments of every stencil from its final weights.

    Returns the per-node maximum absolute deviation of
    Z^beta = sum_q v_q^beta eps^{|alpha|} w_q from its target:
    (-1)^{|alpha|} alpha! at beta = alpha and 0 for the other basis
    monomials (the constant moment participates only for odd |alpha|, the
    only case where it is in the basis). Build acceptance requires the
    deviation to stay below 1e-8 everywhere.
    """
    if cloud.n != op.n or cloud.dim != op.dim:
        raise ValueError("operator was built for a different cloud")
    basis, chain = _basis_cached(op.alpha, op.r)
    target = _rhs(basis, op.alpha)
    ids, w, ptr = op._matrix.indices, op._matrix.data, op._matrix.indptr
    starts, counts = ptr[:-1], np.diff(ptr) - 1  # rows without the center entry
    out = np.empty(op.n)
    # one stacked product per support size and block of nodes: each node's
    # moments come from the same (k, l) matrix-vector product a single-node
    # check would run, and the blocks bound the temporary memory
    for k in np.unique(counts):
        same = np.flatnonzero(counts == k)
        for b in range(0, same.size, _BLOCK):
            nodes = same[b : b + _BLOCK]
            at = starts[nodes, None] + np.arange(k)  # (nodes, k) stencil entries
            eps = op.eps[nodes, None]
            v = (cloud.coords[nodes, None] - cloud.coords[ids[at]]) / eps[..., None]
            V = _basis_matrix(v, chain)
            Z = np.matmul(V.transpose(0, 2, 1), (w[at] * eps**op.order)[..., None])
            out[nodes] = np.max(np.abs(Z[..., 0] - target), axis=1)
    return out
