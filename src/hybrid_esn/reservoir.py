"""Echo state network construction, training, and autoregressive forecasting.

The reservoir is a tanh ESN without a leak term: r' = tanh(A r + B u).
Only the linear readout C is trained, by closed-form ridge regression on
the nonlinearly transformed state history.  Forecasts renormalize each
predicted phase-component pair back to the unit circle before feeding it
back in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "ReservoirConfig",
    "ReservoirMatrices",
    "StateHistory",
    "Readout",
    "ReadoutTrainingError",
    "ForecastAbort",
    "CollectionError",
    "spectral_radius_of",
    "build_internal_matrix",
    "build_input_matrix",
    "build_matrices",
    "update_state",
    "nonlinear_transform",
    "collect_states",
    "train_readout",
    "ReservoirStack",
    "stack_reservoirs",
    "forecast_columns",
    "forecast",
]

from .dynamics import normalize_rows


class ReadoutTrainingError(RuntimeError):
    """Ridge solve failed (rank-deficient Gram matrix with beta = 0)."""


class CollectionError(RuntimeError):
    """Non-finite reservoir activation while collecting training states."""

    def __init__(self, step: int):
        super().__init__(f"non-finite reservoir activation at training step {step}")
        self.step = step


class ForecastAbort(RuntimeError):
    """Autoregressive forecast hit a non-finite or unnormalizable prediction.

    Carries the surviving prediction prefix so callers can score the failure
    rather than drop it.
    """

    def __init__(self, partial: np.ndarray, step: int, reason: str):
        super().__init__(f"forecast aborted at step {step}: {reason}")
        self.partial = partial
        self.step = step


@dataclass(frozen=True)
class ReservoirConfig:
    """ESN hyperparameters; defaults are the parameter-error-task baselines."""

    size: int = 300
    spectral_radius: float = 0.4
    input_scaling: float = 0.15
    mean_degree: float = 3.0
    regularization: float = 1e-6
    knowledge_ratio: float = 0.5

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("reservoir size must be >= 1")
        if self.spectral_radius <= 0:
            raise ValueError("spectral radius must be positive")
        if self.input_scaling <= 0:
            raise ValueError("input scaling must be positive")
        if not (0 < self.mean_degree <= self.size):
            raise ValueError("mean degree must be in (0, size]")
        if self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if not (0.0 <= self.knowledge_ratio <= 1.0):
            raise ValueError("knowledge ratio must be in [0, 1]")


@dataclass(frozen=True)
class ReservoirMatrices:
    """The fixed random matrices: sparse internal A and one-hot-row input B."""

    internal: scipy.sparse.csr_matrix
    input: np.ndarray

    @property
    def d_r(self) -> int:
        return self.internal.shape[0]

    @property
    def d_in(self) -> int:
        return self.input.shape[1]


@dataclass(frozen=True)
class StateHistory:
    """Transformed (and, for hybrid, expert-augmented) states as columns."""

    features: np.ndarray  # D_feat x n_T

    @property
    def feature_dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Readout:
    """Trained output matrix C mapping features to next-step predictions."""

    weights: np.ndarray  # D_u x D_feat


def spectral_radius_of(a) -> float:
    """Magnitude of the largest eigenvalue of a (sparse) square matrix.

    Dense solve for modest sizes; ARPACK for larger sparse matrices (the
    dominant eigenvalue of a random non-symmetric matrix is often a complex
    pair, which plain real power iteration cannot track).
    """
    n = a.shape[0]
    if n <= 2048:
        dense = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)
        return float(np.max(np.abs(np.linalg.eigvals(dense))))
    try:
        # a fixed start vector: ARPACK's default random one depends on what
        # ran before in the process, and so would the radius
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        # ask for several eigenvalues: sparse random matrices have tightly
        # clustered leading spectra and small-k ARPACK can miss the maximum
        vals = scipy.sparse.linalg.eigs(
            a.astype(float), k=8, which="LM", return_eigenvectors=False,
            maxiter=10_000, tol=1e-10, v0=v0,
        )
        return float(np.max(np.abs(vals)))
    except (scipy.sparse.linalg.ArpackNoConvergence, RuntimeError):
        dense = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)
        return float(np.max(np.abs(np.linalg.eigvals(dense))))


# Elements per row block of the internal matrix draw (8 MB of doubles).
_DRAW_BLOCK = 1 << 20


def _draw_internal(rng, n: int, p: float) -> scipy.sparse.csr_matrix:
    """One Erdos-Renyi draw: the n x n mask first, then the n x n weights.

    Both are drawn in row blocks of about _DRAW_BLOCK elements and only the
    masked entries are kept, so no n x n array is ever held.  The stream is
    consumed as by whole-matrix draws, and the CSR arrays are byte-identical
    to `csr_matrix(np.where(mask, weights, 0.0))`.
    """
    rows = max(1, _DRAW_BLOCK // n)
    starts = range(0, n, rows)
    buf = np.empty(rows * n)
    picked = []
    for r0 in starts:
        block = buf[:min(rows, n - r0) * n]
        rng.random(out=block)
        picked.append(np.flatnonzero(block < p))
    flat, data = [], []
    for r0, idx in zip(starts, picked):
        data.append(rng.uniform(-1.0, 1.0, min(rows, n - r0) * n)[idx])
        flat.append(idx + r0 * n)
    data, flat = np.concatenate(data), np.concatenate(flat)
    keep = data != 0.0  # a masked entry whose weight is exactly zero is not stored
    row, col = np.divmod(flat[keep], n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return scipy.sparse.csr_matrix((data[keep], col.astype(np.int32), indptr), shape=(n, n))


def build_internal_matrix(cfg: ReservoirConfig, seed) -> scipy.sparse.csr_matrix:
    """Erdos-Renyi internal matrix A, rescaled to the target spectral radius.

    Each directed entry is present with probability mean_degree/size, with
    Uniform(-1, 1) weights.  A draw whose spectral radius is zero (e.g. an
    empty graph) is resampled from the same stream, up to 16 attempts.
    """
    rng = np.random.default_rng(seed)
    n = cfg.size
    for _ in range(16):
        a = _draw_internal(rng, n, cfg.mean_degree / n)
        rho = spectral_radius_of(a)
        if rho > 0:
            a.data *= cfg.spectral_radius / rho
            return a
    raise RuntimeError(
        "could not sample an internal matrix with non-zero spectral radius "
        "after 16 attempts; increase mean_degree or size"
    )


def build_input_matrix(cfg: ReservoirConfig, d_in: int, hybrid: bool, seed) -> np.ndarray:
    """Input matrix B with exactly one non-zero per row.

    Standard: the column is uniform over all d_in input dimensions.  Hybrid
    (d_in = 2*D_u, ordered [expert prediction; current state]): each row
    lands in the expert block with probability knowledge_ratio, else in the
    state block.  Weights ~ Uniform(-input_scaling, input_scaling).
    """
    rng = np.random.default_rng(seed)
    n = cfg.size
    if hybrid:
        if d_in % 2 != 0:
            raise ValueError("hybrid input dimension must be even")
        d_u = d_in // 2
        to_expert = rng.random(n) < cfg.knowledge_ratio
        within = rng.integers(0, d_u, n)
        cols = np.where(to_expert, within, d_u + within)
    else:
        cols = rng.integers(0, d_in, n)
    weights = rng.uniform(-cfg.input_scaling, cfg.input_scaling, n)
    b = np.zeros((n, d_in))
    b[np.arange(n), cols] = weights
    return b


def build_matrices(cfg: ReservoirConfig, d_u: int, hybrid: bool, internal_seed, input_seed) -> ReservoirMatrices:
    """Convenience constructor for the (A, B) pair of one instantiation."""
    a = build_internal_matrix(cfg, internal_seed)
    b = build_input_matrix(cfg, 2 * d_u if hybrid else d_u, hybrid, input_seed)
    return ReservoirMatrices(internal=a, input=b)


def update_state(r: np.ndarray, u: np.ndarray, m: ReservoirMatrices) -> np.ndarray:
    """r' = tanh(A r + B u)."""
    if r.shape[0] != m.d_r or u.shape[0] != m.d_in:
        raise ValueError("state/input dimensions do not match the matrices")
    return np.tanh(m.internal @ r + m.input @ u)


def nonlinear_transform(r: np.ndarray) -> np.ndarray:
    """Odd (1-based) entries pass through; even entries are squared."""
    out = np.array(r, dtype=float, copy=True)
    out[1::2] **= 2
    return out


def collect_states(training: np.ndarray, m: ReservoirMatrices, expert=None):
    """Drive the reservoir through a training span in feed-forward mode.

    `training` is D_u x (n_T + 1); column t of the returned history holds
    g(r_{t+1}) (standard) or [u_tilde_{t+1}; g(r_{t+1})] (hybrid), and the
    target matrix holds the ground-truth next states.
    """
    if training.ndim != 2 or training.shape[1] < 2:
        raise ValueError("need at least 2 training samples")
    d_u, n_cols = training.shape
    n_t = n_cols - 1
    d_feat = m.d_r + (d_u if expert is not None else 0)
    features = np.empty((d_feat, n_t))
    r = np.zeros(m.d_r)
    for t in range(n_t):
        u = training[:, t]
        if expert is not None:
            u_tilde = expert.step(u)
            r = update_state(r, np.concatenate([u_tilde, u]), m)
        else:
            r = update_state(r, u, m)
        if not np.all(np.isfinite(r)):
            raise CollectionError(t)
        g = nonlinear_transform(r)
        features[:, t] = np.concatenate([u_tilde, g]) if expert is not None else g
    return StateHistory(features=features), training[:, 1:]


def train_readout(history, targets: np.ndarray, beta: float) -> Readout:
    """Closed-form ridge regression: C = Y Phi^T (Phi Phi^T + beta I)^-1.

    Solved through a symmetric positive-definite factorization of the Gram
    matrix, in place; no explicit inverse and no second Gram matrix is formed.
    """
    if beta < 0:
        raise ValueError("regularization must be >= 0")
    phi = history.features if isinstance(history, StateHistory) else np.asarray(history)
    y = np.asarray(targets)
    if phi.shape[1] != y.shape[1]:
        raise ValueError("history and targets disagree on sample count")
    gram = phi @ phi.T
    # Factor in place: cho_factor reads the upper triangle of the Fortran
    # array gram.T, i.e. gram's lower triangle, so mirror the upper one onto
    # it first; the factored matrix is then exactly the upper triangle of
    # phi @ phi.T, as a copying cho_factor(gram) would factor.
    for i in range(1, gram.shape[0]):
        gram[i, :i] = gram[:i, i]
    gram[np.diag_indices_from(gram)] += beta
    try:
        factor = scipy.linalg.cho_factor(gram.T, overwrite_a=True)
        c = scipy.linalg.cho_solve(factor, phi @ y.T).T
    except scipy.linalg.LinAlgError as exc:
        raise ReadoutTrainingError(
            "ridge solve failed: Gram matrix is rank deficient; use beta > 0"
        ) from exc
    if not np.all(np.isfinite(c)):
        raise ReadoutTrainingError(
            "ridge solve produced non-finite weights; use beta > 0"
        )
    return Readout(weights=c)


@dataclass(frozen=True)
class ReservoirStack:
    """Trained instantiations stacked so that their forecasts advance in lock step.

    Column c = k * n_spans + j runs instantiation k on span j.  The states of
    all columns form one (n_inst * d_r, n_spans) matrix: row block k holds
    instantiation k, so one block-diagonal product advances every column.
    B has one non-zero per row and is applied as a gather from the
    (n_cols, d_in) input rows.  Every per-column product sums in the same
    order as the one-column `update_state` and readout, so each column is
    bitwise equal to a forecast of its own.
    """

    internal: scipy.sparse.csr_matrix  # block diagonal of the A matrices
    gather: np.ndarray  # (n_inst * d_r, n_spans) flat indices into the input rows
    weights: np.ndarray  # (n_inst * d_r, 1) the non-zero of each row of B
    readouts: np.ndarray  # (n_inst, D_u, D_feat)
    n_spans: int

    def update(self, r: np.ndarray, u: np.ndarray, u_tilde=None) -> np.ndarray:
        """r' = tanh(A r + B [u_tilde; u]) for every column; u is (n_cols, D_u)."""
        x = u if u_tilde is None else np.concatenate([u_tilde, u], axis=1)
        z = self.internal @ r
        z += self.weights * np.take(x, self.gather)
        return np.tanh(z, out=z)

    def readout(self, r: np.ndarray, u_tilde=None) -> np.ndarray:
        """C_k [u_tilde; g(r)] for every column, as (n_cols, D_u) rows.

        The stacked matmul runs one gemv per column: a single gemm over the
        columns would round differently from the one-column product.
        """
        n_inst, n_spans = self.readouts.shape[0], self.n_spans
        d_r = r.shape[0] // n_inst
        off = 0 if u_tilde is None else u_tilde.shape[1]
        feat = np.empty((n_inst, n_spans, off + d_r))
        if u_tilde is not None:
            feat[..., :off] = u_tilde.reshape(n_inst, n_spans, off)
        feat[..., off:] = r.reshape(n_inst, d_r, n_spans).transpose(0, 2, 1)
        feat[..., off + 1::2] **= 2  # nonlinear_transform
        u_hat = np.matmul(self.readouts[:, None], feat[..., None])
        return u_hat.reshape(n_inst * n_spans, -1)


def stack_reservoirs(matrices, readouts, n_spans: int) -> ReservoirStack:
    """Stack instantiations (matrices[k], readouts[k]) for `n_spans` spans each."""
    n_inst = len(matrices)
    d_r, d_in = matrices[0].d_r, matrices[0].d_in
    cols = np.empty((n_inst, d_r), dtype=np.intp)
    weights = np.empty((n_inst, d_r))
    for k, m in enumerate(matrices):
        if m.input.shape != (d_r, d_in):
            raise ValueError("stacked instantiations must share their dimensions")
        if np.any(np.count_nonzero(m.input, axis=1) > 1):
            raise ValueError("input matrix must have at most one non-zero per row")
        cols[k] = np.argmax(m.input != 0, axis=1)
        weights[k] = m.input[np.arange(d_r), cols[k]]
    column = np.arange(n_inst)[:, None, None] * n_spans + np.arange(n_spans)
    gather = column * d_in + cols[:, :, None]
    return ReservoirStack(
        internal=scipy.sparse.block_diag([m.internal for m in matrices], format="csr"),
        gather=gather.reshape(n_inst * d_r, n_spans),
        weights=weights.reshape(n_inst * d_r, 1),
        readouts=np.stack([r.weights for r in readouts]),
        n_spans=n_spans,
    )


def forecast_columns(warmups: np.ndarray, horizon: int, on_step, stack=None,
                     expert=None) -> np.ndarray:
    """Forecast many columns autoregressively in lock step.

    `warmups` is (W, n_cols, D_u): each column's warm-up inputs.  With a
    reservoir `stack`, each column starts from r = 0, consumes its warm-up
    feed-forward (through the expert too, if given) and then feeds back its
    renormalized readout; an expert failure fails every column.  Without a
    reservoir the expert alone forecasts from the last warm-up sample, and a
    failed expert step aborts only its column.

    `on_step(k, u_hat)` receives the (n_cols, D_u) predictions of step k.
    A column whose prediction is non-finite or unnormalizable is aborted:
    from then on it replays its last accepted input, which keeps it finite
    and leaves the other columns untouched.  Returns each column's abort
    step, or `horizon` where it ran to the end; the loop ends early once
    every column has aborted.
    """
    n_cols = warmups.shape[1]
    aborts = np.full(n_cols, horizon)
    alive = np.ones(n_cols, dtype=bool)
    frozen = False
    u = warmups[-1]
    if stack is not None:
        r = np.zeros((stack.internal.shape[0], stack.n_spans))
        u_tilde = None
        for u in warmups:
            if expert is not None:
                u_tilde = expert.step(u)
            r = stack.update(r, u, u_tilde)
    for k in range(horizon):
        if stack is None:
            u_hat, ok = expert.step_rows(u)
        else:
            u_hat, ok = normalize_rows(stack.readout(r, u_tilde))
        if frozen or not ok.all():
            aborts[alive & ~ok] = k
            alive &= ok
            if not alive.any():
                break
            u_hat[~alive] = u[~alive]
            frozen = True
        on_step(k, u_hat)
        u = u_hat
        if stack is not None and k < horizon - 1:
            if expert is not None:
                u_tilde = expert.step(u)
            r = stack.update(r, u, u_tilde)
    return aborts


def forecast(warmup: np.ndarray, horizon: int, m: ReservoirMatrices, readout: Readout,
             expert=None) -> np.ndarray:
    """Warm up on a span, then forecast autoregressively for `horizon` steps.

    The reservoir starts from r = 0, consumes the warm-up span feed-forward,
    and then feeds its own (renormalized) output back in; prediction step 1
    corresponds to the first ground-truth test sample.  Returns D_u x horizon.
    This is the one-column case of `forecast_columns`.
    """
    if warmup.ndim != 2 or warmup.shape[1] < 1:
        raise ValueError("warm-up span must contain at least one sample")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    preds = np.empty((warmup.shape[0], horizon))

    def keep(k, u_hat):
        preds[:, k] = u_hat[0]

    aborts = forecast_columns(np.ascontiguousarray(warmup.T[:, None, :]), horizon, keep,
                              stack_reservoirs([m], [readout], 1), expert)
    k = int(aborts[0])
    if k < horizon:
        raise ForecastAbort(preds[:, :k].copy(), k, "non-finite or unnormalizable prediction")
    return preds
