"""Static SBM primitives.

Community labels, block connectivity models, connection-probability matrices,
Bernoulli adjacency sampling (from labels in O(n + edges), or from an arbitrary
probability matrix), degrees, the normalized Laplacian ``D^{-1/2} A D^{-1/2}``
(dense or CSR), and the extremal expected-degree scales used by the
concentration rates.

Dense symmetric matrices are plain ``numpy`` arrays; every constructor in this
module mirrors values so that ``M[i, j] == M[j, i]`` holds exactly, not just up
to rounding. Adjacency snapshots are kept as upper-triangle edge lists because
sampled graphs are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse

from .errors import InvalidInputError, ZeroDegreeError


def check_symmetric(m, name: str = "matrix"):
    """``m`` as a float64 ndarray or CSR array, checked square, finite and exactly symmetric.

    A ``scipy.sparse`` input is checked in O(nnz), never densified, and
    returned as a CSR array; anything else is returned as an ndarray.
    """
    if scipy.sparse.issparse(m):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
        m = scipy.sparse.csr_array(m, dtype=float)
        if not np.isfinite(m.data).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
        if (m != m.T).nnz:
            raise InvalidInputError(f"{name} is not symmetric")
        return m
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    if not np.array_equal(m, m.T):
        raise InvalidInputError(f"{name} is not symmetric")
    return m


@dataclass(frozen=True)
class CommunityLabels:
    """Per-node community assignment: ``labels[i]`` in ``[0, k)``."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise InvalidInputError("labels must be a 1-d sequence")
        if self.k < 1:
            raise InvalidInputError(f"k must be >= 1, got {self.k}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise InvalidInputError(f"labels must lie in [0, {self.k})")

    @property
    def n(self) -> int:
        return self.labels.size

    def sizes(self) -> np.ndarray:
        """Community sizes as a length-``k`` integer vector."""
        return np.bincount(self.labels, minlength=self.k)

    def one_hot(self) -> np.ndarray:
        """The n-by-k 0/1 membership matrix."""
        out = np.zeros((self.n, self.k))
        out[np.arange(self.n), self.labels] = 1.0
        return out


@dataclass(frozen=True)
class ConnectivityModel:
    """Block connectivity ``B = alpha * b0`` with ``b0`` symmetric in [0, 1].

    ``tau`` is set when the kernel is the planted partition
    ``b0 = (1 - tau) * I + tau * ones``, i.e. ``B`` has ``alpha`` on its
    diagonal and ``tau * alpha`` outside.
    """

    k: int
    alpha: float
    b0: np.ndarray
    tau: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must be in (0, 1], got {self.alpha}")
        b0 = check_symmetric(self.b0, "b0")
        if b0.shape != (self.k, self.k):
            raise InvalidInputError(f"b0 must be {self.k}x{self.k}")
        if b0.min() < 0.0 or b0.max() > 1.0:
            raise InvalidInputError("b0 entries must lie in [0, 1]")
        if self.alpha * b0.max() > 1.0:
            raise InvalidInputError("alpha * max(b0) must not exceed 1")
        object.__setattr__(self, "b0", b0)

    @classmethod
    def planted_partition(cls, k: int, alpha: float, tau: float) -> "ConnectivityModel":
        if not 0.0 <= tau < 1.0:
            raise InvalidInputError(f"tau must be in [0, 1), got {tau}")
        b0 = np.full((k, k), float(tau))
        np.fill_diagonal(b0, 1.0)
        return cls(k=k, alpha=alpha, b0=b0, tau=float(tau))

    @classmethod
    def from_kernel(cls, k: int, alpha: float, b0: np.ndarray) -> "ConnectivityModel":
        return cls(k=k, alpha=alpha, b0=b0, tau=None)

    @property
    def is_planted(self) -> bool:
        return self.tau is not None

    @property
    def gamma(self) -> float:
        """Smallest eigenvalue of ``b0`` (``1 - tau`` for the planted partition)."""
        if self.is_planted:
            return 1.0 if self.k == 1 else 1.0 - self.tau
        return float(np.linalg.eigvalsh(self.b0)[0])


@dataclass(frozen=True)
class AdjacencySnapshot:
    """One simple undirected 0/1 graph, stored as an upper-triangle edge list."""

    n: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise InvalidInputError("rows/cols must be 1-d arrays of equal length")
        if rows.size:
            if rows.min() < 0 or cols.max() >= self.n:
                raise InvalidInputError("edge endpoint out of range")
            if not (rows < cols).all():
                raise InvalidInputError("edges must satisfy i < j (no self-loops)")
            key = rows * self.n + cols
            if np.unique(key).size != key.size:
                raise InvalidInputError("duplicate edges")

    @property
    def edge_count(self) -> int:
        return self.rows.size

    def to_dense(self) -> np.ndarray:
        """Full symmetric 0/1 matrix with zero diagonal."""
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = 1
        a[self.cols, self.rows] = 1
        return a

    def degrees(self) -> np.ndarray:
        d = np.bincount(self.rows, minlength=self.n) + np.bincount(self.cols, minlength=self.n)
        return d.astype(np.float64)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "AdjacencySnapshot":
        a = check_symmetric(np.asarray(a), "adjacency")
        if np.any(np.diag(a) != 0):
            raise InvalidInputError("adjacency must have zero diagonal")
        if not np.isin(a, (0, 1)).all():
            raise InvalidInputError("adjacency entries must be 0 or 1")
        rows, cols = np.nonzero(np.triu(a, k=1))
        return cls(a.shape[0], rows, cols)


def build_probability_matrix(labels: CommunityLabels, model: ConnectivityModel) -> np.ndarray:
    """Connection-probability matrix ``P[i, j] = alpha * b0[label_i, label_j]``.

    The diagonal is included; expectations of sampled adjacency matrices match
    ``P - diag(P)``.
    """
    if labels.k != model.k:
        raise InvalidInputError(f"labels declare k={labels.k}, model has k={model.k}")
    lab = labels.labels
    return model.alpha * model.b0[np.ix_(lab, lab)]


def sample_adjacency(p: np.ndarray, seed) -> AdjacencySnapshot:
    """Sample a graph with independent edges ``A_ij ~ Ber(p_ij)`` for i < j.

    Only the strict upper triangle of ``p`` is consulted; the diagonal is
    always zero. ``seed`` may be an int, a SeedSequence, or a Generator.
    """
    p = check_symmetric(p, "p")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise InvalidInputError("probabilities must lie in [0, 1]")
    n = p.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.random((n, n))
    hit = np.triu(u < p, k=1)
    rows, cols = np.nonzero(hit)
    return AdjacencySnapshot(n, rows, cols)


def _triu_decode(idx: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Map positions in the row-major strict upper triangle of a ``size`` square to ``(i, j)``.

    Position ``idx`` is the pair ``(rows[idx], cols[idx])`` of ``rows, cols =
    np.triu_indices(size, 1)``, found without building those O(size^2)
    arrays. Row ``i`` starts at ``i * (2 size - 1 - i) / 2``; the float root
    can land one row off, which the integer comparisons correct.
    """
    b = 2 * size - 1

    def row_start(i):
        return i * (b - i) // 2

    i = np.floor((b - np.sqrt(b * b - 8.0 * idx)) / 2).astype(np.int64)
    i -= row_start(i) > idx
    i += row_start(i + 1) <= idx
    return i, idx - row_start(i) + i + 1


def sample_sbm(labels: CommunityLabels, model: ConnectivityModel, seed) -> AdjacencySnapshot:
    """Sample ``A_ij ~ Ber(alpha * b0[label_i, label_j])`` for i < j in O(n + edges).

    Same distribution as ``sample_adjacency(build_probability_matrix(labels,
    model), seed)``, from a different random stream. For each block pair
    ``a <= b`` it draws the edge count from a binomial over the block's node
    pairs, then that many distinct pairs uniformly (Batagelj & Brandes, 2005).
    Edges come back in row-major ``(row, col)`` order.
    """
    if labels.k != model.k:
        raise InvalidInputError(f"labels declare k={labels.k}, model has k={model.k}")
    n = labels.n
    rng = np.random.default_rng(seed)
    members = np.argsort(labels.labels, kind="stable")  # nodes grouped by community
    sizes = labels.sizes()
    starts = np.concatenate(([0], np.cumsum(sizes)))
    keys = []
    for a in range(model.k):
        for b in range(a, model.k):
            na, nb = int(sizes[a]), int(sizes[b])
            pairs = na * (na - 1) // 2 if a == b else na * nb
            m = rng.binomial(pairs, model.alpha * model.b0[a, b])
            idx = rng.choice(pairs, m, replace=False, shuffle=False)
            i, j = _triu_decode(idx, na) if a == b else (idx // nb, idx % nb)
            u, v = members[starts[a] + i], members[starts[b] + j]
            keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    keys = np.sort(np.concatenate(keys))
    return AdjacencySnapshot(n, keys // n, keys % n)


def degrees(m) -> np.ndarray:
    """Row sums ``d_i = sum_j M_ij`` of a symmetric matrix or snapshot."""
    if isinstance(m, AdjacencySnapshot):
        return m.degrees()
    m = check_symmetric(m)
    return m.sum(axis=1)


def _inverse_sqrt_degrees(d: np.ndarray, zero_degree: str) -> np.ndarray:
    """``1 / sqrt(d)`` under a zero-degree policy of :func:`normalized_laplacian`."""
    if zero_degree == "error":
        if np.any(d <= 0.0):
            raise ZeroDegreeError("matrix has a non-positive row sum")
        return 1.0 / np.sqrt(d)
    if zero_degree != "zero-row":
        raise InvalidInputError(f"unknown zero_degree policy {zero_degree!r}")
    if np.any(d < 0.0):
        raise InvalidInputError("matrix has a negative row sum")
    inv = np.zeros_like(d)
    pos = d > 0.0
    inv[pos] = 1.0 / np.sqrt(d[pos])
    return inv


def normalized_laplacian(m: np.ndarray, zero_degree: str = "error") -> np.ndarray:
    """Normalized Laplacian ``L_ij = M_ij / sqrt(d_i d_j)``.

    Only the product form ``D^{-1/2} M D^{-1/2}`` is exposed; the common
    variant ``I - D^{-1/2} M D^{-1/2}`` has the same eigenvectors, so spectral
    clustering is unaffected by the choice.

    ``zero_degree`` selects the policy for zero row sums: ``"error"`` raises
    (appropriate for probability matrices, whose degrees are positive by
    construction) and ``"zero-row"`` zeroes the corresponding rows and columns
    (appropriate for sampled graphs, where sparse regimes produce isolated
    nodes). NaN is never emitted. Isolated nodes can be recovered by the
    caller as ``degrees(m) == 0``.
    """
    m = check_symmetric(m)
    inv = _inverse_sqrt_degrees(m.sum(axis=1), zero_degree)
    # outer() keeps exact symmetry: scale[i, j] == scale[j, i] bit for bit
    return m * np.outer(inv, inv)


def normalized_laplacian_csr(m, zero_degree: str = "error") -> scipy.sparse.csr_array:
    """:func:`normalized_laplacian` of a ``scipy.sparse`` matrix, as a CSR array.

    Works in O(n + nnz) and scales each stored entry by ``inv_i * inv_j``, as
    the dense form does, so the result is exactly symmetric. The degrees are
    summed over the stored entries only, which can differ from the dense row
    sum in the last bit.
    """
    m = check_symmetric(m)
    inv = _inverse_sqrt_degrees(m.sum(axis=1), zero_degree)
    scale = inv[m.indices]
    scale *= np.repeat(inv, np.diff(m.indptr))  # inv_j * inv_i == inv_i * inv_j exactly
    scale *= m.data
    return scipy.sparse.csr_array((scale, m.indices.copy(), m.indptr.copy()), shape=m.shape)


def expected_degrees(labels: CommunityLabels, model: ConnectivityModel) -> np.ndarray:
    """Expected sampled degrees ``E d_i = sum_{j != i} P_ij`` (diagonal excluded)."""
    if labels.k != model.k:
        raise InvalidInputError(f"labels declare k={labels.k}, model has k={model.k}")
    row_by_comm = model.b0 @ labels.sizes().astype(float)
    lab = labels.labels
    return model.alpha * (row_by_comm[lab] - np.diag(model.b0)[lab])


# ---------------------------------------------------------------------------
# Effective community sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizeProfile:
    """Extremal expected-degree scales over admissible community size vectors.

    ``nbar_max`` / ``nbar_min`` are the max/min over size vectors
    ``n_min <= n_l <= n_max`` with ``sum n_l = n`` (and over rows ``k``) of
    ``sum_l n_l * b0[k, l]``; the expected degree lies between
    ``alpha * nbar_min`` and ``alpha * nbar_max``.
    """

    n: int
    k: int
    n_min: int
    n_max: int
    n_prime_max: int
    nbar_min: float
    nbar_max: float
    mu_b: float
    gamma: float


def _extremal_linear(coeffs: np.ndarray, n: int, n_min: int, n_max: int, maximize: bool) -> float:
    """Exact extremum of ``coeffs . x`` over the box-with-sum polytope.

    The polytope is ``{n_min <= x_l <= n_max, sum x_l = n}``. A linear
    functional is extremized by filling budget greedily in coefficient order,
    which is exact here (fractional-knapsack argument) and stays integral for
    integer bounds.
    """
    k = coeffs.size
    order = np.argsort(-coeffs if maximize else coeffs, kind="stable")
    sizes = np.full(k, float(n_min))
    budget = float(n - k * n_min)
    for idx in order:
        if budget <= 0:
            break
        add = min(budget, float(n_max - n_min))
        sizes[idx] += add
        budget -= add
    return float(coeffs @ sizes)


def effective_sizes(model: ConnectivityModel, n: int, n_min: int, n_max: int) -> SizeProfile:
    """Compute the SizeProfile for ``model`` under size bounds ``[n_min, n_max]``.

    For the planted partition this reduces to the closed form
    ``(1 - tau) * n_max + n * tau`` whenever a community of size ``n_max`` is
    admissible; the greedy optimizer below yields exactly that value in that
    case and the correct (capped) extremum otherwise.
    """
    k = model.k
    if n_min < 0 or n_max < n_min:
        raise InvalidInputError("need 0 <= n_min <= n_max")
    if k * n_min > n or k * n_max < n:
        raise InvalidInputError(
            f"size bounds infeasible: k*n_min={k * n_min}, n={n}, k*n_max={k * n_max}"
        )
    if not (n_min <= n / k <= n_max):
        raise InvalidInputError("need n_min <= n/k <= n_max")

    maxima = [_extremal_linear(model.b0[row], n, n_min, n_max, maximize=True) for row in range(k)]
    minima = [_extremal_linear(model.b0[row], n, n_min, n_max, maximize=False) for row in range(k)]
    nbar_max = max(maxima)
    nbar_min = min(minima)
    if k == 1:
        n_prime_max = 0
    else:
        n_prime_max = min(n_max, (n - (k - 2) * n_min) // 2)
    mu_b = nbar_max / nbar_min if nbar_min > 0 else float("inf")
    return SizeProfile(
        n=n,
        k=k,
        n_min=int(n_min),
        n_max=int(n_max),
        n_prime_max=int(n_prime_max),
        nbar_min=nbar_min,
        nbar_max=nbar_max,
        mu_b=mu_b,
        gamma=model.gamma,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_snapshot(snap: AdjacencySnapshot, path) -> None:
    """Write a snapshot as a plain-text edge list: header ``n=<n>``, then ``i j`` per line."""
    lines = [f"n={snap.n}"]
    lines.extend(f"{i} {j}" for i, j in zip(snap.rows.tolist(), snap.cols.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def load_snapshot(path) -> AdjacencySnapshot:
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("n="):
        raise InvalidInputError(f"{path}: missing 'n=<n>' header")
    try:
        n = int(text[0][2:])
    except ValueError:
        raise InvalidInputError(f"{path}: bad header {text[0]!r}") from None
    rows, cols = [], []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        try:
            i, j = map(int, line.split())
        except ValueError:
            raise InvalidInputError(
                f"{path}:{lineno}: expected two node indices, got {line!r}") from None
        rows.append(i)
        cols.append(j)
    return AdjacencySnapshot(n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))
