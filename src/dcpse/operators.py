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

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs
from scipy.sparse import csr_matrix

from .cloud import (
    DuplicateNodeError,
    NeighborSet,
    PointCloud,
    SpatialIndex,
    _k_nearest_arrays,
    average_spacing,
    k_nearest,
)

_RESIDUAL_TOL = 1e-10
_GROWTH = 1.5
_MAX_BASIS_DEGREE = 6
_BLOCK = 512  # nodes per stacked pass; bounds the (m, k, l, d) basis temporary


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


def _validate_alpha(alpha) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) not in (1, 2, 3):
        raise ValueError(f"multi-index must have 1 to 3 components, got {alpha}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index components must be non-negative, got {alpha}")
    if sum(alpha) < 1:
        raise ValueError(f"derivative order must be at least 1, got {alpha}")
    return alpha


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters controlling one derivative operator.

    Parameters
    ----------
    alpha : tuple of int
        Derivative multi-index, one component per spatial dimension.
    r : int
        Approximation order; polynomials up to degree |alpha| + r - 1 are
        reproduced exactly. Default 2.
    eps_factor : float
        Kernel width as a multiple of the local average spacing. Default 1.0.
    neighbor_factor : float
        Support size as a multiple of the basis size l (k = ceil of it),
        at least 1.0. Default 2.0.
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
        if self.r < 1:
            raise ValueError(f"approximation order r must be >= 1, got {self.r}")
        if multi_index_order(self.alpha) + self.r - 1 > _MAX_BASIS_DEGREE:
            raise ValueError(
                f"|alpha| + r - 1 = {multi_index_order(self.alpha) + self.r - 1} "
                f"exceeds the supported maximum degree {_MAX_BASIS_DEGREE}"
            )
        if not self.eps_factor > 0:
            raise ValueError(f"eps_factor must be positive, got {self.eps_factor}")
        if not self.neighbor_factor >= 1.0:
            raise ValueError(
                f"neighbor_factor must be at least 1.0, got {self.neighbor_factor}"
            )
        if self.max_growth_attempts < 0:
            raise ValueError("max_growth_attempts must be non-negative")
        if not self.cond_threshold > 0:
            raise ValueError("cond_threshold must be positive")

    @property
    def order(self) -> int:
        return multi_index_order(self.alpha)

    @property
    def sign(self) -> int:
        """Center-value coupling: +1 for odd |alpha|, -1 for even."""
        return 1 if self.order % 2 == 1 else -1


def _grade_tuples(total: int, d: int):
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _grade_tuples(total - first, d - 1):
            yield (first,) + rest


def monomial_basis(alpha, r: int, d: int | None = None) -> list[tuple[int, ...]]:
    """Monomial multi-indices for the moment system of D^alpha at order r.

    Degrees run from alpha_min to |alpha| + r - 1, where alpha_min is 0 for
    odd |alpha| and 1 for even |alpha| (the center coupling of even
    operators cancels constants on its own). Graded order, and within each
    degree the leading component decreases, e.g. (2,0), (1,1), (0,2).
    When given, `d` must agree with the dimension implied by alpha.
    """
    alpha = _validate_alpha(alpha)
    if r < 1:
        raise ValueError(f"approximation order r must be >= 1, got {r}")
    if d is not None and d != len(alpha):
        raise ValueError(
            f"dimension {d} does not match multi-index of length {len(alpha)}"
        )
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
    """monomial_basis plus its float matrix, memoized per (alpha, r)."""
    basis = tuple(monomial_basis(alpha, r))
    arr = np.asarray(basis, dtype=np.float64)
    arr.setflags(write=False)
    return basis, arr


@dataclass(frozen=True)
class MomentSystem:
    """Per-node moment-matching system A a = b with A = B^T B, B = E V.

    V holds the basis monomials at the scaled offsets v_q = (x_p - x_q)/eps
    (one row per neighbor), E the Gaussian half-window exp(-|v_q|^2 / 2), so
    E^2 is the kernel window.
    """

    basis: list[tuple[int, ...]]
    scaled_offsets: np.ndarray
    V: np.ndarray
    E: np.ndarray
    A: np.ndarray
    b: np.ndarray
    eps: float

    @property
    def k(self) -> int:
        return self.V.shape[0]

    @property
    def l(self) -> int:
        return self.V.shape[1]

    def condition_estimate(self) -> float:
        """1-norm condition estimate of A; inf if numerically singular."""
        cached = self.__dict__.get("_cond")
        if cached is None:
            try:
                cached = float(np.linalg.cond(self.A, 1))
            except np.linalg.LinAlgError:
                cached = float("inf")
            object.__setattr__(self, "_cond", cached)
        return cached


def _basis_matrix(scaled: np.ndarray, basis_arr: np.ndarray) -> np.ndarray:
    # scaled: (..., k, d), basis_arr: (l, d) -> V: (..., k, l); 0**0 == 1
    # covers the constant monomial.
    return np.prod(scaled[..., None, :] ** basis_arr, axis=-1)


def _rhs(basis: list[tuple[int, ...]], alpha: tuple[int, ...]) -> np.ndarray:
    b = np.zeros(len(basis))
    sign = -1.0 if multi_index_order(alpha) % 2 == 1 else 1.0
    try:
        idx = basis.index(alpha)
    except ValueError:
        raise ValueError(f"derivative multi-index {alpha} not in basis") from None
    b[idx] = sign * math.prod(math.factorial(a) for a in alpha)
    return b


def assemble_moment_system(
    cloud: PointCloud,
    neighbors: NeighborSet,
    spec: OperatorSpec,
    eps: float,
    *,
    allow_underdetermined: bool = False,
) -> MomentSystem:
    """Assemble the moment system of D^alpha at one node.

    Raises InsufficientSupportError when the support has fewer nodes than
    basis monomials, unless allow_underdetermined is set (the builder uses
    that once the support already spans the whole cloud, accepting the
    minimal-norm solution iff its residual passes).
    """
    if not eps > 0:
        raise ValueError(f"kernel width eps must be positive, got {eps}")
    if len(alpha := spec.alpha) != cloud.dim:
        raise ValueError(
            f"multi-index {alpha} has {len(alpha)} components "
            f"but the cloud is {cloud.dim}-dimensional"
        )
    basis_t, basis_arr = _basis_cached(tuple(spec.alpha), spec.r)
    basis = list(basis_t)
    k, l = len(neighbors), len(basis)
    if k < l and not allow_underdetermined:
        raise InsufficientSupportError(
            f"node {neighbors.node}: support of {k} nodes cannot determine "
            f"{l} basis moments"
        )
    offsets = cloud.coords[neighbors.node] - cloud.coords[neighbors.ids]
    scaled = offsets / eps
    V = _basis_matrix(scaled, basis_arr)
    E = np.exp(-0.5 * np.sum(scaled**2, axis=1))
    B = E[:, None] * V
    A = B.T @ B
    b = _rhs(basis, spec.alpha)
    return MomentSystem(
        basis=basis, scaled_offsets=scaled, V=V, E=E, A=A, b=b, eps=float(eps)
    )


def _solve_columns(
    system: MomentSystem,
    rhs: np.ndarray,
    cond_threshold: float,
    node: int | None,
) -> np.ndarray:
    """Solve A a = b for each column of rhs with a shared factorization.

    Square-rank systems (k >= l) are gated on the condition estimate and
    solved by Cholesky; rank-deficient or underdetermined ones fall back to
    an orthogonal-factorization least-squares solve on B. Either way the
    residual |A a - b| <= 1e-10 (1 + |b|) is enforced per column.
    """
    A, B = system.A, system.E[:, None] * system.V
    underdetermined = system.k < system.l
    if not underdetermined:
        cond = system.condition_estimate()
        if not cond <= cond_threshold:
            raise IllConditionedNodeError(
                node, f"condition estimate {cond:.3e} exceeds {cond_threshold:.3e}"
            )
    solve = None
    if not underdetermined:
        try:
            factor, _ = scipy.linalg.cho_factor(A, lower=True, check_finite=False)

            def solve(col):
                # potrs directly: cho_solve minus its per-call checks, which
                # dominate at the small sizes solved here
                return dpotrs(factor, col, lower=1)[0]

        except scipy.linalg.LinAlgError:
            solve = None
    if solve is None:
        _, s, vt = np.linalg.svd(B, full_matrices=False)
        keep = s > (s[0] * 1e-13 if s.size and s[0] > 0 else np.inf)
        if not np.any(keep):
            raise IllConditionedNodeError(node, "moment matrix is numerically zero")
        s, vt = s[keep], vt[keep]
        pinv = (vt.T / s**2) @ vt  # pseudo-inverse of A = V S^2 V^T

        def solve(col):
            return pinv @ col

    # Columns are solved one at a time so that shared multi-target builds
    # are bit-identical to independent single-target builds.
    sol = np.empty_like(rhs)
    for j in range(rhs.shape[1]):
        col = rhs[:, j]
        a = solve(col)
        for _ in range(2):  # refinement keeps the residual near round-off
            a = a + solve(col - A @ a)
        res = A @ a - col
        resid = math.sqrt(float(res @ res))
        bound = _RESIDUAL_TOL * (1.0 + math.sqrt(float(col @ col)))
        if not resid <= bound:
            raise IllConditionedNodeError(
                node, f"moment residual {resid:.3e} exceeds {bound:.3e}"
            )
        sol[:, j] = a
    return sol


def solve_kernel_coefficients(
    system: MomentSystem,
    *,
    cond_threshold: float = 1e12,
    node: int | None = None,
) -> np.ndarray:
    """Solve the moment system for the kernel coefficient vector a."""
    return _solve_columns(system, system.b[:, None], cond_threshold, node)[:, 0]


def kernel_weights(system: MomentSystem, coeffs: np.ndarray, order: int) -> np.ndarray:
    """Fold coefficients into per-neighbor weights eps^-|alpha| p(v) a W(v)."""
    phi = (system.V @ coeffs) * system.E**2
    return phi / system.eps**order


@dataclass(frozen=True)
class StencilOperator:
    """A derivative operator assembled over every node of one cloud.

    The CSR matrix is the only store of the stencils: row p holds the
    weights w_q of node p's neighbors and, last, the center coupling
    sign * sum_q w_q, so applying the operator evaluates
    sum_q w_q (f_q + sign * f_p). `neighbor_ids` and `weights` are
    read-only per-node views of those rows without the center entry.
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
    neighbor_ids: list[np.ndarray] = field(init=False, repr=False, compare=False)
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self._matrix
        for arr in (m.data, m.indices, m.indptr):
            arr.flags.writeable = False
        rows = list(zip(m.indptr[:-1].tolist(), (m.indptr[1:] - 1).tolist()))
        object.__setattr__(self, "neighbor_ids", [m.indices[a:b] for a, b in rows])
        object.__setattr__(self, "weights", [m.data[a:b] for a, b in rows])

    @property
    def order(self) -> int:
        return multi_index_order(self.alpha)

    @property
    def sign(self) -> int:
        return 1 if self.order % 2 == 1 else -1

    def apply(self, values: np.ndarray) -> np.ndarray:
        return apply(self, values)


def _resolve_threads(threads: int | None) -> int:
    """The requested thread count, checked to be positive. The build is one
    batched pass, so the count changes nothing; it is kept as a checked
    setting for callers that pass it."""
    if threads is None:
        threads = int(os.environ.get("DCPSE_THREADS", "").strip() or 1)
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

    Runs the whole chain as stacked array passes: kNN, spacing, moment
    assembly, the condition gate, the solve with two refinement steps, the
    residual gate and the weight fold. Every node's numbers come from its own
    slice of each stacked operation, so they do not depend on the block.
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
    eps = spec.eps_factor * np.mean(np.sum(np.abs(offsets), axis=2), axis=1)
    scaled = offsets / eps[:, None, None]
    V = _basis_matrix(scaled, _basis_cached(spec.alpha, spec.r)[1])
    E = np.exp(-0.5 * np.sum(scaled**2, axis=2))
    B = E[..., None] * V
    A = np.matmul(B.transpose(0, 2, 1), B)
    cond = np.linalg.cond(A, 1)
    cond[np.isnan(cond)] = np.inf
    ok = cond <= spec.cond_threshold
    retry: dict[int, str] = {}
    for p, c in zip(nodes[~ok].tolist(), cond[~ok].tolist()):
        detail = f"condition estimate {c:.3e} exceeds {spec.cond_threshold:.3e}"
        retry[p] = str(IllConditionedNodeError(p, detail))
    nodes, ids, eps, cond, V, E, A = (
        x[ok] for x in (nodes, ids, eps, cond, V, E, A)
    )
    W = np.empty((rhs.shape[1],) + ids.shape)
    ok = np.ones(nodes.size, dtype=bool)
    # one right-hand side at a time, shaped (m, l, 1), so a shared
    # multi-target build is bit-identical to single-target builds
    for j, col in enumerate(rhs.T):
        b = np.broadcast_to(col[:, None], A.shape[:2] + (1,))
        a = np.linalg.solve(A, b)
        for _ in range(2):  # refinement keeps the residual near round-off
            a = a + np.linalg.solve(A, b - A @ a)
        res = (A @ a - b)[..., 0]
        resid = np.sqrt(np.sum(res * res, axis=1))
        bound = _RESIDUAL_TOL * (1.0 + math.sqrt(float(col @ col)))
        bad = ~(resid <= bound) & ok
        for p, r in zip(nodes[bad].tolist(), resid[bad].tolist()):
            detail = f"moment residual {r:.3e} exceeds {bound:.3e}"
            retry[p] = str(IllConditionedNodeError(p, detail))
        ok &= ~bad
        W[j] = (V @ a)[..., 0] * E**2 / eps[:, None] ** spec.order
    return (nodes[ok], ids[ok], eps[ok], cond[ok], W[:, ok]), final, retry


def _solve_underdetermined(
    cloud: PointCloud,
    index: SpatialIndex,
    spec: OperatorSpec,
    rhs: np.ndarray,
    k: int,
):
    """The whole cloud (k = n - 1 others) is smaller than the basis: one
    minimal-norm solve per node, no regrowth. Returns the passed block as
    _solve_block does, or None and the failures."""
    rows, failed = [], {}
    for p in range(cloud.n):
        try:
            ns = k_nearest(index, p, k)
            eps = spec.eps_factor * average_spacing(cloud, ns)
            system = assemble_moment_system(
                cloud, ns, spec, eps, allow_underdetermined=True
            )
            coeffs = _solve_columns(system, rhs, spec.cond_threshold, p)
        except (IllConditionedNodeError, DuplicateNodeError) as err:
            failed[p] = str(err)
        else:
            w = [kernel_weights(system, a, spec.order) for a in coeffs.T]
            rows.append((ns.ids, eps, w))
    if failed:
        return None, failed
    ids, eps, W = zip(*rows)
    n = cloud.n
    block = (np.arange(n), np.array(ids), np.array(eps), np.full(n, np.inf))
    return block + (np.stack(W, axis=1),), {}


def _build_many(
    cloud: PointCloud,
    index: SpatialIndex,
    alphas: list[tuple[int, ...]],
    spec: OperatorSpec,
    threads: int | None,
) -> list[StencilOperator]:
    """Build one operator per multi-index in alphas, sharing supports and
    moment matrices. All alphas must have the same order so the basis and
    moment matrix coincide; only the right-hand sides differ.

    Each growth attempt is one batched pass over the pending nodes, in
    blocks; the nodes whose support fails a gate are regrown together.
    """
    orders = {multi_index_order(a) for a in alphas}
    if len(orders) != 1:
        raise ValueError("shared construction requires equal derivative orders")
    _resolve_threads(threads)  # validated only: the thread count changes nothing
    basis = monomial_basis(alphas[0], spec.r)
    rhs = np.column_stack([_rhs(basis, a) for a in alphas])
    l = len(basis)
    n = cloud.n
    k = min(math.ceil(spec.neighbor_factor * l), n - 1)
    if k < 1:
        raise InsufficientSupportError("cloud has no neighbors to build stencils from")

    if k < l:
        block, failed = _solve_underdetermined(cloud, index, spec, rhs, k)
        blocks = [block]
    else:
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
    *,
    threads: int | None = None,
) -> StencilOperator:
    """Build the D^alpha stencil operator at every node of the cloud.

    Initial support size is k = ceil(neighbor_factor * l), capped at n - 1;
    supports flagged ill-conditioned are regrown by 1.5x up to
    max_growth_attempts times. If any node still fails, an
    OperatorBuildError listing the failing node ids is raised.

    The build is one batched pass over all nodes per growth attempt, and
    each node's weights do not depend on the batch it is solved in, so two
    builds over the same cloud produce bit-identical weights. `threads` is
    accepted and checked to be positive, but changes nothing.
    """
    if len(spec.alpha) != cloud.dim:
        raise ValueError(
            f"multi-index {spec.alpha} does not match cloud dimension {cloud.dim}"
        )
    return _build_many(cloud, index, [spec.alpha], spec, threads)[0]


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
    calls.
    """
    d = cloud.dim
    alphas = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    spec = OperatorSpec(
        alpha=alphas[0],
        r=r,
        eps_factor=eps_factor,
        neighbor_factor=neighbor_factor,
        max_growth_attempts=max_growth_attempts,
        cond_threshold=cond_threshold,
    )
    return tuple(_build_many(cloud, index, alphas, spec, threads))


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
    basis, basis_arr = _basis_cached(tuple(op.alpha), op.r)
    target = _rhs(list(basis), op.alpha)
    ids = np.concatenate(op.neighbor_ids)
    w = np.concatenate(op.weights)
    counts = np.fromiter(map(len, op.weights), dtype=np.intp, count=op.n)
    starts = np.cumsum(counts) - counts
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
            V = _basis_matrix(v, basis_arr)
            Z = np.matmul(V.transpose(0, 2, 1), (w[at] * eps**op.order)[..., None])
            out[nodes] = np.max(np.abs(Z[..., 0] - target), axis=1)
    return out
