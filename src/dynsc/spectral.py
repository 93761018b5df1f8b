"""Spectral clustering: leading eigenvectors, k-means on their rows, spectral norms.

"Leading" eigenvectors are the ``k`` of largest magnitude: the rank-``k``
structure matrices this targets may have negative eigenvalues for
disassortative kernels, and magnitude selection recovers their column space in
all cases.

Eigenpairs and norms are computed only as accurately as the theory needs:
at every size a Lanczos solver stops at relative tolerance ``EIGENPAIR_TOL``
(eigenvectors; by Davis-Kahan their error is at most ``tol * |lambda_1| / gap``,
far below the statistical error) or ``NORM_TOL`` (spectral norms: a Ritz value is at most
the norm and within ``NORM_TOL`` relative of an eigenvalue, about ``NORM_TOL ** 2`` of an
isolated one, but not in a cluster tighter than ``NORM_TOL``). The eigengap's first discarded
magnitude is such a norm, of the matrix with the selected pairs deflated. Every
solve multiplies by one operand: a dense matrix through BLAS ``dsymv``, a CSR
one as CSR, less a low-rank term in factored form. A dense decomposition is
left only for ``k > n - 2``, where Lanczos cannot run, and for its failures;
it yields the whole spectrum, gap included, at once.

The k-means step uses distance-squared-weighted random seeding plus Lloyd
iterations with restarts, and stops restarting once the best cost has been
reached ``_KMEANS_REPEATS`` times. It reports the achieved cost rather than
certifying an approximation ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg
from scipy.linalg import blas

from .errors import EigenSolverError, InvalidInputError
from .sbm import CommunityLabels, check_symmetric
from .util import subseed

DENSE_FALLBACK_LIMIT = 4096  # largest n decomposed densely when Lanczos fails
EIGENPAIR_TOL = 1e-8  # Lanczos relative tolerance of top_k_eigenpairs
NORM_TOL = 1e-4  # Lanczos relative tolerance of spectral_norm and the eigengap
_V0_SEED = 0x5EED
_KMEANS_TAG = 77
_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-9  # centroid movement that ends a Lloyd run
# restarts stop once this many have reached the best cost within _KMEANS_REPEAT_RTOL
_KMEANS_REPEATS = 3
_KMEANS_REPEAT_RTOL = 1e-12


@dataclass(frozen=True)
class EigenBasis:
    """Selected eigenpairs: ``values[i]`` with orthonormal column ``vectors[:, i]``.

    ``gap`` is the magnitude gap ``|value_k| - |value_{k+1}|`` between the last
    selected and the first discarded eigenvalue; ``gap_degenerate`` flags a gap
    within the accuracy of ``|value_{k+1}|`` (see :func:`top_k_eigenpairs`).
    """

    values: np.ndarray
    vectors: np.ndarray
    gap: float
    gap_degenerate: bool


@dataclass(frozen=True)
class KMeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    cost: float
    restarts_used: int
    degenerate: bool


@dataclass(frozen=True)
class SpectralClusteringResult:
    labels: CommunityLabels
    kmeans: KMeansResult
    eigen: EigenBasis

    @property
    def cost(self) -> float:
        return self.kmeans.cost

    @property
    def eigengap(self) -> float:
        return self.eigen.gap


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    peaks = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    out = vectors.copy()
    out[:, peaks < 0] *= -1.0
    return out


def _as_low_rank(minus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(U, C)`` of ``U C Uᵀ``: ``U`` finite n-by-r (ndarray or CSR), ``C`` symmetric."""
    u, c = minus
    u = u if scipy.sparse.issparse(u) else np.asarray(u, dtype=float)
    c = check_symmetric(c, "C")
    if u.shape != (n, c.shape[0]):
        raise InvalidInputError(f"U must be {n}x{c.shape[0]}, got shape {u.shape}")
    if not np.isfinite(u.data if scipy.sparse.issparse(u) else u).all():
        raise InvalidInputError("U contains non-finite entries")
    return u, c


class _Operand(scipy.sparse.linalg.LinearOperator):
    """``m - U C Uᵀ``, or ``m`` alone when ``minus`` is None: the one eigensolver operand.

    ``m`` is a checked symmetric ndarray or CSR array and ``minus`` the checked
    factors ``(U, C)``. A dense ``m`` is multiplied by BLAS ``dsymv`` on one
    triangle of a Fortran-ordered array: a C-ordered ``m`` passes its
    transpose, an equal view; only an array that is neither is copied, once.
    CSR stays CSR and ``U C Uᵀ`` is never built. ``matvec`` is ``_matvec``,
    so ARPACK's call for each product skips ``LinearOperator``'s checks.
    """

    def __init__(self, m, minus=None):
        super().__init__(float, m.shape)
        self.m, self.minus, self.fortran = m, minus, None
        if isinstance(m, np.ndarray):
            self.fortran = m.T if m.flags.c_contiguous else np.asfortranarray(m)

    def _matvec(self, x):
        shape, x = x.shape, x.ravel()  # dot passes (n, 1) columns
        y = self.m @ x if self.fortran is None else blas.dsymv(1.0, self.fortran, x)
        if self.minus is not None:
            u, c = self.minus
            y -= u @ (c @ (u.T @ x))
        return y.reshape(shape)

    matvec = _matvec

    def eigh(self, vectors: bool):
        """``eigh``'s ``(values, vectors)`` or ``eigvalsh``'s ``values`` of the dense matrix."""
        full = self.m.toarray() if self.fortran is None else self.m
        if self.minus is not None:
            u, c = self.minus
            # eigh reads one triangle, so the last-bit asymmetry of the product is harmless
            full = full - (u @ c) @ u.T
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(full)

    def is_zero(self) -> bool:
        """Whether ``m`` has no nonzero entry and ``U`` or ``C`` is zero."""
        if (self.m.data if self.fortran is None else self.m).any():
            return False
        return self.minus is None or not (abs(self.minus[0]).sum() and self.minus[1].any())


def _leading_eigs(m, k: int, vectors: bool, tol: float, minus=None, draw: int = 0):
    """Eigenvalues (and eigenvectors if ``vectors``) of ``m - U C Uᵀ``, for magnitude selection.

    ``m`` and ``minus`` are as :class:`_Operand` takes them. While
    ``k <= n - 2`` a Lanczos solver finds the ``k`` pairs of largest magnitude,
    started from draw number ``draw`` of the ``_V0_SEED`` stream, at relative
    tolerance ``tol``. For larger ``k``, and when the solver fails on an
    operand of size up to ``DENSE_FALLBACK_LIMIT``, the operand is decomposed
    densely and all ``n`` pairs are returned; a failure above that size raises
    :class:`EigenSolverError`. ARPACK fails on a zero operand, which then gets
    ``k`` zero eigenvalues with the first ``k`` unit vectors, as ``eigh`` orders
    them. Returns ``eigh``'s ``(values, vectors)`` or ``eigvalsh``'s ``values``.
    """
    n = m.shape[0]
    op = _Operand(m, minus)
    if k > n - 2:
        return op.eigh(vectors)
    v0 = np.random.default_rng(_V0_SEED).standard_normal((draw + 1, n))[draw]
    try:
        return scipy.sparse.linalg.eigsh(op, k=k, which="LM", v0=v0, tol=tol,
                                         return_eigenvectors=vectors)
    except scipy.sparse.linalg.ArpackError as exc:
        if op.is_zero():
            return (np.zeros(k), np.eye(n, k)) if vectors else np.zeros(k)
        if n <= DENSE_FALLBACK_LIMIT:
            return op.eigh(vectors)
        raise EigenSolverError(f"eigensolver failed at n={n}: {exc}") from exc


def top_k_eigenpairs(m, k: int) -> EigenBasis:
    """The ``k`` eigenpairs of largest magnitude of a symmetric ndarray or ``scipy.sparse`` matrix.

    Deterministic up to sign, with signs canonicalized. The ``k`` pairs are
    accurate to ``EIGENPAIR_TOL`` relative. After a Lanczos solve the first
    discarded magnitude is the norm of ``m - V Λ Vᵀ`` to ``NORM_TOL``, from a
    start vector of its own so that it finds further copies of a repeated
    eigenvalue; after a dense decomposition it is read from the spectrum that
    decomposition already holds. The gap is flagged degenerate when it is at
    most ``NORM_TOL ** 2`` times ``max(1, |value_1|)``, the error of a Ritz
    value from a ``NORM_TOL`` solve at an isolated eigenvalue (see the module docstring).
    """
    m = check_symmetric(m)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    values, vectors = _leading_eigs(m, k, vectors=True, tol=EIGENPAIR_TOL)

    keys = np.abs(values)
    order = np.argsort(-keys, kind="stable")
    top = order[:k]
    values, vectors = values[top].astype(float), vectors[:, top].astype(float)
    gap, degenerate = float("inf"), False
    if k < n:
        if keys.size > k:  # a dense decomposition: all n values
            discarded = keys[order[k]]
        else:
            discarded = np.abs(_leading_eigs(m, 1, vectors=False, tol=NORM_TOL,
                                             minus=(vectors, np.diag(values)), draw=1)).max()
        gap = float(keys[top[-1]] - discarded)
        degenerate = gap <= NORM_TOL ** 2 * max(1.0, float(keys.max()))
        if degenerate:
            warnings.warn(f"eigengap {gap:.3e} is numerically degenerate", RuntimeWarning,
                          stacklevel=2)
    return EigenBasis(values=values, vectors=_canonical_signs(vectors), gap=gap,
                      gap_degenerate=bool(degenerate))


def _seed_centroids(x: np.ndarray, k: int, rngs: list) -> np.ndarray:
    """Distance-squared-weighted seeding, ``(len(rngs), k, d)``; duplicate locations get zero mass.

    Each run draws what ``rng.choice(n, p=d2 / total)`` would, without its argument checks.
    """
    n = x.shape[0]
    centers = np.empty((len(rngs), k, x.shape[1]))
    centers[:, 0] = x[[rng.integers(n) for rng in rngs]]
    d2 = ((x - centers[:, :1]) ** 2).sum(axis=2)
    for j in range(1, k):
        picks = []
        for rng, row, total in zip(rngs, d2, d2.sum(axis=1)):
            if total <= 0.0:
                picks.append(rng.integers(n))  # fewer than k distinct points
            else:
                cdf = (row / total).cumsum()
                cdf /= cdf[-1]
                picks.append(cdf.searchsorted(rng.random(), side="right"))
        centers[:, j] = x[picks]
        d2 = np.minimum(d2, ((x - centers[:, j, None]) ** 2).sum(axis=2))
    return centers


def _nearest(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroids of ``x`` among each of ``b`` runs' centroids (b, k, d), in one product.

    The argmin over ``|c|^2 - 2 x c^T``, ties to the lowest index, is taken by k - 1 strict
    compares of whole columns; ``argmin`` itself where a NaN needs its first-NaN rule. Returns
    the labels and the labels offset by ``k`` per run, both (b, n).
    """
    n, (b, k, d) = x.shape[0], centers.shape
    flat = centers.reshape(-1, d)
    d2 = ((flat ** 2).sum(axis=1) - 2.0 * (x @ flat.T)).reshape(n, b, k)
    if np.isfinite(d2).all():
        labels, best = np.zeros((n, b), dtype=np.intp), d2[:, :, 0]
        for j in range(1, k):
            np.putmask(labels, d2[:, :, j] < best, j)
            best = np.minimum(best, d2[:, :, j])
    else:
        labels = d2.argmin(axis=2)
    labels = np.ascontiguousarray(labels.T)
    return labels, labels + np.arange(0, b * k, k)[:, None]


def _distances(x: np.ndarray, centers: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """``|x - c|^2`` summed over the exact differences, ``c`` the centroid ``offset`` picks.

    ``offset`` indexes the rows of ``centers`` (b, k, d) flattened to (b * k, d).
    """
    return ((x - np.take(centers.reshape(-1, x.shape[1]), offset, axis=0)) ** 2).sum(axis=-1)


def _lloyd_round(x: np.ndarray, k: int, rngs: list) -> list:
    """Seeded Lloyd runs, one per generator, iterated together.

    One ``bincount`` per coordinate of ``x.T``, tiled over all runs' offset labels, takes the
    sequential sums of ``x[labels == j].mean(axis=0)``, and a run is frozen once its centroids
    move less than ``_KMEANS_TOL``. Returns ``(labels, centers, cost, degenerate)`` per run.
    """
    n, d = x.shape
    weights = np.tile(x.T, len(rngs))
    centers = _seed_centroids(x, k, rngs)
    active = np.arange(len(rngs))
    for _ in range(_KMEANS_MAX_ITER):
        if not active.size:
            break
        a = active.size
        old = centers[active]
        labels, offset = _nearest(x, old)
        flat = offset.ravel()
        counts = np.bincount(flat, minlength=a * k)
        if d == 1:  # numpy sums a lone column pairwise, not in order
            sums = np.array([x[run == j].sum() for run in labels for j in range(k)])[:, None]
        else:
            sums = np.array([np.bincount(flat, w, a * k) for w in weights[:, :a * n]]).T
        new = old.copy()
        filled = counts > 0
        new.reshape(-1, d)[filled] = sums[filled] / counts[filled, None]
        if not filled.all():
            # re-seed an empty cluster at the point farthest from its centroid
            runs, empty = np.nonzero(~filled.reshape(a, k))
            new[runs, empty] = x[_distances(x, old, offset[runs]).argmax(axis=1)]
        movement = np.sqrt(((new - old) ** 2).sum(axis=2)).max(axis=1)
        centers[active] = new
        active = active[~(movement < _KMEANS_TOL)]
    labels, offset = _nearest(x, centers)
    costs = [float(run.sum()) for run in _distances(x, centers, offset)]
    degenerate = [bool((np.bincount(run, minlength=k) == 0).any()) for run in labels]
    return [(labels[r], centers[r], costs[r], degenerate[r]) for r in range(len(rngs))]


def kmeans(points: np.ndarray, k: int, restarts: int = 20, seed: int = 0) -> KMeansResult:
    """Best of ``restarts`` seeded Lloyd runs on ``points`` (n rows).

    Assignment ties break toward the lowest centroid index; a cluster left
    empty after an iteration is re-seeded at the farthest point rather than
    crashing. Restarts stop early once a zero-cost solution is found, or once
    ``_KMEANS_REPEATS`` of them have reached the best cost within
    ``_KMEANS_REPEAT_RTOL`` relative; the best is the first restart of least
    cost either way. The reported cost is recomputed from the returned labels
    and centroids. Restarts run in rounds, with the result of one at a time.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError("points must be a 2-d array")
    if not np.isfinite(x).all():
        raise InvalidInputError("points must be finite")
    if not 1 <= k <= x.shape[0]:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={x.shape[0]}")
    if restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    best, costs, repeats = None, [], 0
    while True:
        # seed the restarts that could still end the search: a new best adds one repeat at most
        size = min(_KMEANS_REPEATS - repeats, restarts - len(costs))
        rngs = [np.random.default_rng(subseed(seed, _KMEANS_TAG, ridx))
                for ridx in range(len(costs), len(costs) + size)]
        for run in _lloyd_round(x, k, rngs):
            costs.append(run[2])
            if best is None or run[2] < best[2]:
                best = run
            repeats = np.count_nonzero(np.asarray(costs) <= best[2] * (1.0 + _KMEANS_REPEAT_RTOL))
            if best[2] == 0.0 or repeats >= _KMEANS_REPEATS or len(costs) == restarts:
                labels, centers, cost, degenerate = best
                return KMeansResult(labels, centers, cost, len(costs), degenerate)


def spectral_cluster(m, k: int, *, restarts: int = 20,
                     seed: int = 0) -> SpectralClusteringResult:
    """Cluster the rows of the k leading eigenvectors of ``m``.

    Rows are fed to k-means raw, without row normalization.
    """
    basis = top_k_eigenpairs(m, k)
    km = kmeans(basis.vectors, k, restarts=restarts, seed=seed)
    labels = CommunityLabels(km.labels, k)
    return SpectralClusteringResult(labels=labels, kmeans=km, eigen=basis)


def spectral_norm(m, minus=None) -> float:
    """Operator 2-norm (largest absolute eigenvalue) of ``m``, or of ``m - U C Uᵀ``.

    ``m`` is a symmetric ndarray or ``scipy.sparse`` matrix; ``minus``, when
    given, is the pair ``(U, C)`` of a low-rank term, ``U`` an n-by-r ndarray or
    CSR array and ``C`` symmetric r-by-r, applied in factored form. A Lanczos
    iteration stops at relative tolerance ``NORM_TOL``; a zero operand has norm
    0.0. See :func:`_leading_eigs`.
    """
    m = check_symmetric(m)
    if minus is not None:
        minus = _as_low_rank(minus, m.shape[0])
    return float(np.abs(_leading_eigs(m, 1, vectors=False, tol=NORM_TOL, minus=minus)).max())
