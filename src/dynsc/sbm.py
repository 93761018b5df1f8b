"""Static SBM primitives.

Community labels, block connectivity models, connection-probability matrices
and the low-rank factors of their weighted sums, Bernoulli adjacency sampling
(from labels in O(n + edges), or from an arbitrary probability matrix), the
normalized Laplacian ``D^{-1/2} A D^{-1/2}`` (dense or CSR), and the extremal
expected-degree scales used by the concentration rates.

Dense symmetric matrices are plain ``numpy`` arrays; every constructor in this
module mirrors values so that ``M[i, j] == M[j, i]`` holds exactly, not just up
to rounding. Adjacency snapshots are kept as upper-triangle edge lists because
sampled graphs are sparse. Stored integers take the narrowest unsigned type
that holds their range, ``np.min_scalar_type(n - 1)`` for endpoints and
``np.min_scalar_type(k - 1)`` for labels: 4 bytes per edge for every n up to
65536 and one byte per node for K up to 256. ``AdjacencySnapshot.keys`` is
the one place that widens endpoints, to the int64 keys ``i * n + j``; label
pair codes are formed, in int64, only in :mod:`dynsc.metrics`.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse

from .errors import InvalidInputError, ZeroDegreeError
from .util import format_ints

_SYMMETRY_BLOCK = 64  # rows per block of the dense symmetry check
# the largest n whose largest edge key (n - 2) * n + (n - 1) fits int64, so
# endpoints never need more than uint32
_MAX_SNAPSHOT_N = 3_037_000_500
_TRUSTED = contextvars.ContextVar("dynsc_trusted_symmetric", default=())


@contextlib.contextmanager
def _trusted(*matrices):
    """In this block and context only, :func:`check_symmetric` returns these objects as they are."""
    token = _TRUSTED.set(_TRUSTED.get() + matrices)
    try:
        yield
    finally:
        _TRUSTED.reset(token)


def check_symmetric(m, name: str = "matrix"):
    """``m`` as a float64 ndarray or CSR array, checked square, finite and exactly symmetric.

    A ``scipy.sparse`` input is checked in O(nnz), never densified, and
    returned as a CSR array; anything else is returned as an ndarray. Objects
    that :func:`dynsc.experiments.evaluate_cell` vouches for are returned unchecked.
    """
    if any(m is t for t in _TRUSTED.get()):
        return m
    return _check_symmetric(m, name)


def _check_symmetric(m, name: str):
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
    # each row block of the upper triangle is checked finite, then against its
    # column block: one pass in cache-sized pieces, with no n x n temporary. A
    # finite, symmetric upper triangle leaves the lower one finite too; on a
    # mismatch the whole matrix is scanned, so a non-finite lower entry is
    # still reported as such
    for i in range(0, m.shape[0], _SYMMETRY_BLOCK):
        upper = m[i:i + _SYMMETRY_BLOCK, i:]
        if not np.isfinite(upper).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
        if not np.array_equal(upper, m[i:, i:i + _SYMMETRY_BLOCK].T):
            if not np.isfinite(m).all():
                raise InvalidInputError(f"{name} contains non-finite entries")
            raise InvalidInputError(f"{name} is not symmetric")
    return m


@dataclass(frozen=True)
class CommunityLabels:
    """Per-node community assignment: ``labels[i]`` in ``[0, k)``.

    ``labels`` is stored as ``np.min_scalar_type(k - 1)``, uint8 for K up to
    256; inputs of any integer type are validated in int64 before they are
    narrowed.
    """

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise InvalidInputError("labels must be a 1-d sequence")
        if self.k < 1:
            raise InvalidInputError(f"k must be >= 1, got {self.k}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise InvalidInputError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "labels",
                           labels.astype(np.min_scalar_type(self.k - 1), copy=False))

    @property
    def n(self) -> int:
        return self.labels.size

    def sizes(self) -> np.ndarray:
        """Community sizes as a length-``k`` integer vector."""
        return np.bincount(self.labels, minlength=self.k)


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
        object.__setattr__(self, "b0", b0)

    @classmethod
    def planted_partition(cls, k: int, alpha: float, tau: float) -> "ConnectivityModel":
        if not 0.0 <= tau < 1.0:
            raise InvalidInputError(f"tau must be in [0, 1), got {tau}")
        b0 = np.full((k, k), float(tau))
        np.fill_diagonal(b0, 1.0)
        return cls(k=k, alpha=alpha, b0=b0, tau=float(tau))

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
    """One simple undirected 0/1 graph, stored as an upper-triangle edge list.

    ``rows`` and ``cols`` are stored as ``np.min_scalar_type(n - 1)``: uint16
    for n from 257 to 65536, uint8 below, uint32 above; inputs of any integer
    type are validated in int64 before they are narrowed. ``n`` may not exceed
    3,037,000,500, beyond which the int64 edge keys would wrap.
    """

    n: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n > _MAX_SNAPSHOT_N:
            raise InvalidInputError(
                f"n={self.n} exceeds {_MAX_SNAPSHOT_N}, the largest n whose edge keys fit int64")
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise InvalidInputError("rows/cols must be 1-d arrays of equal length")
        if rows.size and (rows.min() < 0 or cols.max() >= self.n):
            raise InvalidInputError("edge endpoint out of range")
        if not (rows < cols).all():
            raise InvalidInputError("edges must satisfy i < j (no self-loops)")
        # every endpoint now lies in [0, n), so it fits the narrower type exactly
        index = np.min_scalar_type(self.n - 1)
        object.__setattr__(self, "rows", rows.astype(index, copy=False))
        object.__setattr__(self, "cols", cols.astype(index, copy=False))
        key = self.keys()
        # strictly increasing keys hold no duplicate; only other orders are sorted
        if not (key[1:] > key[:-1]).all() and (np.diff(np.sort(key)) == 0).any():
            raise InvalidInputError("duplicate edges")

    def keys(self) -> np.ndarray:
        """The int64 edge keys ``i * n + j``, which order edges row-major.

        The product is taken in int64: ``i * n`` does not fit the narrow
        endpoint type.
        """
        key = self.rows.astype(np.int64)
        key *= self.n
        key += self.cols
        return key

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


def build_probability_matrix(labels: CommunityLabels, model: ConnectivityModel) -> np.ndarray:
    """Connection-probability matrix ``P[i, j] = alpha * b0[label_i, label_j]``.

    The diagonal is included; expectations of sampled adjacency matrices match
    ``P - diag(P)``.
    """
    if labels.k != model.k:
        raise InvalidInputError(f"labels declare k={labels.k}, model has k={model.k}")
    lab = labels.labels
    # the products first, then columns and rows: the same values as gathering
    # b0 first, and C-ordered, which a ``[lab][:, lab]`` gather is not
    return (model.alpha * model.b0)[:, lab][lab]


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
    nodes). NaN is never emitted. Isolated nodes are the zero row sums of
    ``m``.
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


def expectation_factors(history, model: ConnectivityModel) -> tuple:
    """Factors ``(U, B)`` of ``sum beta * P(theta)`` over a non-empty list of ``(beta, theta)``.

    ``U`` is a CSR array of n * g stored ones: the one-hot columns of each of the g
    distinct labelings, in order of first appearance. ``B`` is block-diagonal: a
    labeling's weights times ``alpha * b0``, added in history order, so a
    one-labeling history gives a dense sum's values exactly.
    """
    n, k, c = history[0][1].n, model.k, model.alpha * model.b0
    blocks = {}  # labeling -> (labels, summed weights times c), in order of first appearance
    for beta, theta in history:
        if theta.k != k:
            raise InvalidInputError(f"labels declare k={theta.k}, model has k={k}")
        _, block = blocks.setdefault(theta.labels.tobytes(), (theta.labels, np.zeros((k, k))))
        block += beta * c
    g = len(blocks)
    idx = np.int32 if n * g < 2 ** 31 else np.int64  # scipy keeps the index dtype it is given
    indices, b = np.empty((n, g), dtype=idx), np.zeros((k * g, k * g))
    for j, (labels, block) in enumerate(blocks.values()):
        indices[:, j] = labels + k * j
        b[k * j:k * (j + 1), k * j:k * (j + 1)] = block
    indptr = np.arange(0, n * g + 1, g, dtype=idx)
    return scipy.sparse.csr_array((np.ones(n * g), indices.ravel(), indptr), shape=(n, k * g)), b


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
    edges = format_ints(np.column_stack([snap.rows, snap.cols]), b" \n")
    Path(path).write_bytes(f"n={snap.n}\n".encode() + edges)


def load_snapshot(path) -> AdjacencySnapshot:
    header, _, body = Path(path).read_text().partition("\n")
    if not header.startswith("n="):
        raise InvalidInputError(f"{path}: missing 'n=<n>' header")
    try:
        n = int(header[2:])
    except ValueError:
        raise InvalidInputError(f"{path}: bad header {header!r}") from None
    if not body.strip():  # no edges; loadtxt would warn on the empty input
        return AdjacencySnapshot(n, np.empty(0, np.int64), np.empty(0, np.int64))
    try:  # blank lines are skipped; a ragged or non-integer line raises
        edges = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: expected two node indices per line: {exc}") from None
    if edges.shape[1] != 2:  # loadtxt accepts any column count shared by all lines
        raise InvalidInputError(
            f"{path}: expected two node indices per line, got {edges.shape[1]}")
    return AdjacencySnapshot(n, edges[:, 0], edges[:, 1])
