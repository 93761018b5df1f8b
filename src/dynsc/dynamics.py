"""Membership dynamics and snapshot sequences.

Two dynamics on the community labels are supported:

* deterministic: exactly ``s`` uniformly chosen nodes move to a uniformly
  chosen different community at each step, with community sizes kept inside
  ``[n_min, n_max]`` by rejection-resampling individual moves;
* markov: every node independently stays with probability ``1 - epsilon`` and
  otherwise jumps to one of the ``k - 1`` other communities uniformly.

Conditionally on the labels, snapshots are sampled independently per step with
per-step derived sub-seeds, so trials can run in parallel and still reproduce
the serial output exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GenerationError, InvalidInputError
from .sbm import (
    CommunityLabels,
    ConnectivityModel,
    load_snapshot,
    sample_sbm,
    save_snapshot,
)
from .util import dump_kv, format_ints, parse_kv, subseed

# sub-seed stream tags (arbitrary but fixed)
_TAG_MEMBERSHIP = 101
_TAG_SNAPSHOT = 202

_RETRY_FACTOR = 100


def _check_integers(cfg, names):
    """Reject a field of ``cfg`` that is not a Python or numpy integer (``bool`` included)."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DeterministicDsbmConfig:
    """Deterministic DSBM: exactly ``s`` nodes change community per step."""

    n: int
    model: ConnectivityModel
    t_len: int
    s: int
    n_min: int
    n_max: int
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, ("t_len", "s", "n_min", "n_max"))
        if not 0 <= self.s <= self.n:
            raise InvalidInputError(f"need 0 <= s <= n, got s={self.s}")
        if self.t_len < 0:
            raise InvalidInputError("t_len must be >= 0")
        k = self.model.k
        if k * self.n_min > self.n or k * self.n_max < self.n:
            raise InvalidInputError("size bounds infeasible: need k*n_min <= n <= k*n_max")

    @classmethod
    def from_epsilon(cls, n, model, t_len, epsilon, n_min, n_max, seed=0):
        """Accept the ``epsilon`` parameterization, with ``s = round(epsilon * n)``."""
        if not 0.0 <= epsilon <= 1.0:
            raise InvalidInputError(f"epsilon must be in [0, 1], got {epsilon}")
        return cls(n=n, model=model, t_len=t_len, s=int(round(epsilon * n)),
                   n_min=n_min, n_max=n_max, seed=seed)

    @property
    def epsilon(self) -> float:
        return self.s / self.n


@dataclass(frozen=True)
class MarkovDsbmConfig:
    """Markov DSBM: per-node independent switch probability ``epsilon``."""

    n: int
    model: ConnectivityModel
    t_len: int
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidInputError(f"epsilon must be in [0, 1], got {self.epsilon}")
        _check_integers(self, ("t_len",))
        if self.t_len < 0:
            raise InvalidInputError("t_len must be >= 0")


@dataclass(frozen=True)
class MembershipSequence:
    """Labelings ``Theta_0 .. Theta_T`` plus the dynamics metadata that produced them."""

    thetas: tuple
    mode: str                      # "deterministic" | "markov"
    epsilon: float
    s: int | None = None           # deterministic mode only
    n_min: int | None = None
    n_max: int | None = None

    def __post_init__(self):
        if self.mode not in ("deterministic", "markov"):
            raise InvalidInputError(f"mode must be 'deterministic' or 'markov', got {self.mode!r}")
        if not self.thetas:
            raise InvalidInputError("sequence must contain at least Theta_0")
        n, k = self.thetas[0].n, self.thetas[0].k
        for th in self.thetas:
            if th.n != n or th.k != k:
                raise InvalidInputError("all labelings must share (n, k)")
        object.__setattr__(self, "thetas", tuple(self.thetas))

    @property
    def n(self) -> int:
        return self.thetas[0].n

    @property
    def t_len(self) -> int:
        return len(self.thetas) - 1


@dataclass(frozen=True)
class SnapshotSequence:
    """Adjacency snapshots aligned with a membership sequence."""

    snapshots: tuple

    def __post_init__(self):
        if not self.snapshots:
            raise InvalidInputError("sequence must contain at least one snapshot")
        n = self.snapshots[0].n
        for s in self.snapshots:
            if s.n != n:
                raise InvalidInputError("all snapshots must share n")
        object.__setattr__(self, "snapshots", tuple(self.snapshots))

    @property
    def n(self) -> int:
        return self.snapshots[0].n

    @property
    def t_len(self) -> int:
        return len(self.snapshots) - 1


def _balanced_initial(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Round-robin assignment, then a seeded shuffle; sizes differ by at most one."""
    return rng.permutation(np.arange(n, dtype=np.int64) % k)


def gen_deterministic_sequence(cfg: DeterministicDsbmConfig) -> MembershipSequence:
    """Generate labels under the deterministic dynamics.

    Each step draws a not-yet-moved node uniformly and a uniform target
    community different from its current one; moves that would push a size
    outside ``[n_min, n_max]`` are rejected and resampled. The step fails with
    :class:`GenerationError` after ``100 * s`` rejections.
    """
    n, k = cfg.n, cfg.model.k
    if cfg.s > 0 and k < 2:
        raise GenerationError("cannot move nodes with a single community")
    rng0 = np.random.default_rng(subseed(cfg.seed, _TAG_MEMBERSHIP, 0))
    labels = _balanced_initial(n, k, rng0)
    counts = np.bincount(labels, minlength=k)
    thetas = [CommunityLabels(labels.copy(), k)]
    retry_cap = _RETRY_FACTOR * max(cfg.s, 1)
    for t in range(1, cfg.t_len + 1):
        rng = np.random.default_rng(subseed(cfg.seed, _TAG_MEMBERSHIP, t))
        moved: set[int] = set()
        retries = 0
        while len(moved) < cfg.s:
            i = int(rng.integers(n))
            target = int((labels[i] + rng.integers(1, k)) % k)
            cur = labels[i]
            if (i not in moved
                    and counts[cur] - 1 >= cfg.n_min
                    and counts[target] + 1 <= cfg.n_max):
                labels[i] = target
                counts[cur] -= 1
                counts[target] += 1
                moved.add(i)
            else:
                retries += 1
                if retries > retry_cap:
                    raise GenerationError(
                        f"step {t}: no admissible move set found after {retries} retries"
                    )
        thetas.append(CommunityLabels(labels.copy(), k))
    return MembershipSequence(tuple(thetas), mode="deterministic", epsilon=cfg.epsilon,
                              s=cfg.s, n_min=cfg.n_min, n_max=cfg.n_max)


def gen_markov_sequence(cfg: MarkovDsbmConfig) -> MembershipSequence:
    """Generate labels under the Markov dynamics, with ``Theta_0`` uniform i.i.d."""
    n, k = cfg.n, cfg.model.k
    rng0 = np.random.default_rng(subseed(cfg.seed, _TAG_MEMBERSHIP, 0))
    labels = rng0.integers(0, k, size=n).astype(np.int64)
    thetas = [CommunityLabels(labels.copy(), k)]
    for t in range(1, cfg.t_len + 1):
        rng = np.random.default_rng(subseed(cfg.seed, _TAG_MEMBERSHIP, t))
        switch = rng.random(n) < cfg.epsilon
        if k > 1:
            hops = rng.integers(1, k, size=int(switch.sum()))
            labels = labels.copy()
            labels[switch] = (labels[switch] + hops) % k
        thetas.append(CommunityLabels(labels.copy(), k))
    return MembershipSequence(tuple(thetas), mode="markov", epsilon=cfg.epsilon)


def sample_snapshot_sequence(seq: MembershipSequence, model: ConnectivityModel,
                             seed: int) -> SnapshotSequence:
    """Sample one snapshot per labeling, independently given the labels."""
    return SnapshotSequence(tuple(sample_sbm(theta, model, subseed(seed, _TAG_SNAPSHOT, t))
                                  for t, theta in enumerate(seq.thetas)))


# ---------------------------------------------------------------------------
# Persistence: one directory per sequence
# ---------------------------------------------------------------------------

_MANIFEST_NAME = "manifest.txt"
_LABELS_NAME = "labels.csv"


def _model_to_kv(model: ConnectivityModel) -> dict:
    kv = {"k": model.k, "alpha": model.alpha}
    if model.is_planted:
        kv["tau"] = model.tau
    else:
        kv["b0"] = ";".join(" ".join(format(v, ".17g") for v in row) for row in model.b0)
    return kv


def save_sequence(directory, seq: MembershipSequence, snaps: SnapshotSequence,
                  model: ConnectivityModel, seed: int) -> Path:
    """Persist a generated sequence: per-step edge lists, a labels CSV, a manifest."""
    if len(seq.thetas) != len(snaps.snapshots):
        raise InvalidInputError("membership and snapshot sequences have different lengths")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    seps = b"," * (seq.n - 1) + b"\n"
    with open(directory / _LABELS_NAME, "wb") as fh:
        for th in seq.thetas:
            fh.write(format_ints(th.labels, seps))
    for t, snap in enumerate(snaps.snapshots):
        save_snapshot(snap, directory / f"snapshot_{t:04d}.txt")
    manifest = {
        "format": "dynsc-sequence-v1",
        "mode": seq.mode,
        "n": seq.n,
        "t_len": seq.t_len,
        "epsilon": seq.epsilon,
        "seed": seed,
    }
    manifest.update(_model_to_kv(model))
    if seq.mode == "deterministic":
        manifest.update(s=seq.s, n_min=seq.n_min, n_max=seq.n_max)
    else:
        manifest["s_equivalent"] = int(round(seq.epsilon * seq.n))
    # repr round-trips a float exactly, so load_sequence returns the generated alpha and epsilon
    manifest = {key: repr(float(value)) if isinstance(value, float) else value
                for key, value in manifest.items()}
    (directory / _MANIFEST_NAME).write_text(dump_kv(manifest, header="dynsc sequence manifest"))
    return directory


def load_sequence(directory):
    """Load a persisted sequence; returns ``(membership, snapshots, model, manifest)``.

    Labels and snapshots must match the manifest's ``n`` and ``t_len``: one
    label row of ``n`` entries and one ``n``-node snapshot per step.
    """
    directory = Path(directory)
    path = directory / _MANIFEST_NAME
    manifest = parse_kv(path.read_text())

    def value(key, cast=str):
        if key not in manifest:
            raise InvalidInputError(f"{path}: missing key {key!r}")
        try:
            return cast(manifest[key])
        except ValueError:
            raise InvalidInputError(f"{path}: cannot parse {key}={manifest[key]!r}") from None

    k, alpha = value("k", int), value("alpha", float)
    if "tau" in manifest:
        model = ConnectivityModel.planted_partition(k, alpha, value("tau", float))
    else:
        model = ConnectivityModel(k, alpha, value("b0", lambda text: np.array(
            [[float(v) for v in row.split()] for row in text.split(";")])))
    n, t_len = value("n", int), value("t_len", int)
    try:
        # at the width CommunityLabels keeps: a negative or too-wide label fails to parse
        labels = np.loadtxt(directory / _LABELS_NAME, delimiter=",",
                            dtype=np.min_scalar_type(model.k - 1), ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"{directory / _LABELS_NAME}: {exc}") from None
    if labels.shape != (t_len + 1, n):
        raise InvalidInputError(
            f"{directory / _LABELS_NAME}: {labels.shape[0]} rows of {labels.shape[1]} labels, "
            f"but the manifest has t_len={t_len} and n={n}")
    thetas = tuple(CommunityLabels(row, model.k) for row in labels)
    snaps = SnapshotSequence(tuple(load_snapshot(directory / f"snapshot_{t:04d}.txt")
                                   for t in range(t_len + 1)))
    if snaps.n != n:
        raise InvalidInputError(f"snapshots have n={snaps.n}, but the manifest has n={n}")
    mode = value("mode")
    sizes = ("s", "n_min", "n_max") if mode == "deterministic" else ()
    seq = MembershipSequence(thetas, mode=mode, epsilon=value("epsilon", float),
                             **{key: value(key, int) for key in sizes})
    return seq, snaps, model, manifest
