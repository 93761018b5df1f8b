"""Spectral clustering: leading eigenvectors, k-means on their rows, spectral norms.

"Leading" eigenvectors are the ``k`` of largest magnitude: the rank-``k``
structure matrices this targets may have negative eigenvalues for
disassortative kernels, and magnitude selection recovers their column space in
all cases.

Eigenpairs and norms are computed only as accurately as the theory needs:
above ``DENSE_EIGEN_LIMIT`` a Lanczos solver stops at relative tolerance
``EIGENPAIR_TOL`` (eigenvectors; by Davis-Kahan their error is at most
``tol * |lambda_1| / gap``, far below the statistical error) or ``NORM_TOL``
(spectral norms).

The k-means step uses distance-squared-weighted random seeding plus Lloyd
iterations with restarts, and stops restarting once the best cost has been
reached ``_KMEANS_REPEATS`` times. It reports the achieved cost rather than
certifying an approximation ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import blas

from .errors import EigenSolverError, InvalidInputError
from .sbm import CommunityLabels, check_symmetric
from .util import subseed

# Matrices up to this size are decomposed densely; larger ones go to Lanczos.
DENSE_EIGEN_LIMIT = 128
DENSE_FALLBACK_LIMIT = 4096
EIGENPAIR_TOL = 1e-8  # Lanczos relative tolerance of top_k_eigenpairs
NORM_TOL = 1e-6  # Lanczos relative tolerance of spectral_norm
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
    selected and the first discarded eigenvalue; ``gap_degenerate`` flags a
    numerically vanishing gap.
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
    out = vectors.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        j = int(np.argmax(np.abs(v)))
        if v[j] < 0:
            out[:, col] = -v
    return out


def _as_low_rank(minus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(U, C)`` of ``U C Uᵀ``: ``U`` finite n-by-r, ``C`` symmetric r-by-r."""
    u, c = minus
    u = np.asarray(u, dtype=float)
    c = check_symmetric(c, "C")
    if u.shape != (n, c.shape[0]):
        raise InvalidInputError(f"U must be {n}x{c.shape[0]}, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidInputError("U contains non-finite entries")
    return u, c


class _SymmetricDense(scipy.sparse.linalg.LinearOperator):
    """A checked, exactly symmetric float64 ndarray, multiplied by BLAS ``dsymv``.

    ``dsymv`` reads one triangle of a Fortran-ordered array. A C-ordered ``a``
    passes its transpose, a view that equals ``a``; only an array that is
    neither C- nor F-contiguous is copied, once, here.
    """

    def __init__(self, a: np.ndarray):
        super().__init__(float, a.shape)
        self.fortran = a.T if a.flags.c_contiguous else np.asfortranarray(a)

    def _matvec(self, x):
        return blas.dsymv(1.0, self.fortran, x.ravel())  # matmat passes (n, 1) columns


def _leading_eigs(m, k: int, vectors: bool, tol: float, minus=None):
    """Eigenvalues (and eigenvectors if ``vectors``) of ``m - U C Uᵀ``, for magnitude selection.

    ``m`` is a checked symmetric ndarray or CSR array and ``minus`` the
    checked factors ``(U, C)``, or None for ``m`` alone. Matrices up to
    ``DENSE_EIGEN_LIMIT``, or with ``k > n - 2``, are decomposed densely and
    all ``n`` pairs are returned. Larger ones use a Lanczos solver for the
    ``k`` pairs of largest magnitude, with a fixed starting vector and
    relative tolerance ``tol``, multiplying by ``m`` in the form it is given
    (an ndarray through BLAS ``dsymv``, a CSR array as CSR) and applying
    ``U C Uᵀ`` in factored form, and falling back to the dense path (up to
    ``DENSE_FALLBACK_LIMIT``) on non-convergence. Returns ``eigh``'s
    ``(values, vectors)`` or ``eigvalsh``'s ``values``.
    """
    n = m.shape[0]

    def dense():
        full = m.toarray() if scipy.sparse.issparse(m) else m
        if minus is not None:
            u, c = minus
            # eigh reads one triangle, so the last-bit asymmetry of the product is harmless
            full = full - (u @ c) @ u.T
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(full)

    if n <= DENSE_EIGEN_LIMIT or k > n - 2:
        return dense()
    v0 = np.random.default_rng(_V0_SEED).standard_normal(n)
    op = _SymmetricDense(m) if isinstance(m, np.ndarray) else m
    if minus is not None:
        u, c = minus
        base = op

        def apply(x):
            return base @ x - u @ (c @ (u.T @ x))

        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply, matmat=apply,
                                                dtype=float)
    try:
        return scipy.sparse.linalg.eigsh(op, k=k, which="LM", v0=v0, tol=tol,
                                         return_eigenvectors=vectors)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        if n <= DENSE_FALLBACK_LIMIT:
            return dense()
        raise EigenSolverError(
            f"eigensolver did not converge ({len(exc.eigenvalues)} of {k} pairs)") from exc


def top_k_eigenpairs(m, k: int) -> EigenBasis:
    """The ``k`` eigenpairs of largest magnitude of a symmetric ndarray or ``scipy.sparse`` matrix.

    Deterministic up to sign, with signs canonicalized. ``k + 1`` pairs are
    computed so the gap to the first discarded eigenvalue can be reported;
    above ``DENSE_EIGEN_LIMIT`` they are accurate to ``EIGENPAIR_TOL`` relative.
    """
    m = check_symmetric(m)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    values, vectors = _leading_eigs(m, k + 1, vectors=True, tol=EIGENPAIR_TOL)

    keys = np.abs(values)
    order = np.argsort(-keys, kind="stable")
    top = order[:k]
    if k < len(values):
        gap = float(keys[top[-1]] - keys[order[k]])
        scale = max(1.0, float(keys.max()))
        degenerate = gap <= 1e-12 * scale
        if degenerate:
            warnings.warn(f"eigengap {gap:.3e} is numerically degenerate", RuntimeWarning,
                          stacklevel=2)
    else:
        gap = float("inf")
        degenerate = False
    return EigenBasis(
        values=values[top].astype(float),
        vectors=_canonical_signs(vectors[:, top].astype(float)),
        gap=gap,
        gap_degenerate=bool(degenerate),
    )


def _seed_centroids(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-squared-weighted seeding; duplicate locations get zero mass."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # fewer than k distinct points
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _assign(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and each point's squared distance to its centroid.

    The argmin is over ``|x|^2 - 2 x c^T + |c|^2`` less the ``|x|^2`` that
    every centroid shares; the returned distances are recomputed from the
    exact differences, so no cancellation reaches the cost.
    """
    d2 = (centers ** 2).sum(axis=1) - 2.0 * (x @ centers.T)
    labels = d2.argmin(axis=1)  # argmin breaks ties by lowest centroid index
    return labels, ((x - centers[labels]) ** 2).sum(axis=1)


def _kmeans_single(x: np.ndarray, k: int, rng: np.random.Generator):
    """One seeded Lloyd run; returns (labels, centers, cost, degenerate, cost_history)."""
    centers = _seed_centroids(x, k, rng)
    history = []
    for _ in range(_KMEANS_MAX_ITER):
        labels, dist = _assign(x, centers)
        history.append(float(dist.sum()))
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centers[j] = x[labels == j].mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its centroid
                new_centers[j] = x[int(np.argmax(dist))]
        movement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if movement < _KMEANS_TOL:
            break
    labels, dist = _assign(x, centers)
    cost = float(dist.sum())
    history.append(cost)
    degenerate = bool((np.bincount(labels, minlength=k) == 0).any())
    return labels, centers, cost, degenerate, history


def kmeans(points: np.ndarray, k: int, restarts: int = 20, seed: int = 0) -> KMeansResult:
    """Best of ``restarts`` seeded Lloyd runs on ``points`` (n rows).

    Assignment ties break toward the lowest centroid index; a cluster left
    empty after an iteration is re-seeded at the farthest point rather than
    crashing. Restarts stop early once a zero-cost solution is found, or once
    ``_KMEANS_REPEATS`` of them have reached the best cost within
    ``_KMEANS_REPEAT_RTOL`` relative; the best is the first restart of least
    cost either way. The reported cost is recomputed from the returned labels
    and centroids.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError("points must be a 2-d array")
    if not 1 <= k <= x.shape[0]:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={x.shape[0]}")
    if restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    best = None
    costs = []
    for ridx in range(restarts):
        rng = np.random.default_rng(subseed(seed, _KMEANS_TAG, ridx))
        labels, centers, cost, degenerate, _ = _kmeans_single(x, k, rng)
        costs.append(cost)
        if best is None or cost < best[2]:
            best = (labels, centers, cost, degenerate)
        repeats = np.count_nonzero(np.asarray(costs) <= best[2] * (1.0 + _KMEANS_REPEAT_RTOL))
        if best[2] == 0.0 or repeats >= _KMEANS_REPEATS:
            break
    labels, centers, cost, degenerate = best
    return KMeansResult(labels=labels, centroids=centers, cost=cost,
                        restarts_used=len(costs), degenerate=degenerate)


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
    given, is the pair ``(U, C)`` of a low-rank term, ``U`` n-by-r and ``C``
    symmetric r-by-r, which large matrices apply in factored form without
    building ``U C Uᵀ``. Large matrices use a Lanczos iteration at relative
    tolerance ``NORM_TOL``; see :func:`_leading_eigs` for the dense and fallback
    paths.
    """
    m = check_symmetric(m)
    if minus is not None:
        minus = _as_low_rank(minus, m.shape[0])
    nonzero = m.count_nonzero() if scipy.sparse.issparse(m) else np.count_nonzero(m)
    if not nonzero and (minus is None or not (minus[0].any() and minus[1].any())):
        return 0.0
    return float(np.abs(_leading_eigs(m, 1, vectors=False, tol=NORM_TOL, minus=minus)).max())
