"""File formats: trajectory CSV, metric CSV, and the binary model dump."""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np
import scipy.sparse

from .dynamics import BiHarmonicParams, KuramotoParams
from .evaluation import MetricRecord
from .hybrid import ExpertModel, Instantiation
from .reservoir import ReservoirMatrices

__all__ = [
    "write_trajectory_csv",
    "read_trajectory_csv",
    "METRIC_CSV_HEADER",
    "write_metric_csv",
    "read_metric_csv",
    "save_model",
    "load_model",
]

METRIC_CSV_HEADER = ("task,regime,model,param_name,param_value,"
                     "instantiation,span,mean_nmse,valid_time_s")


def _fmt(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


def write_trajectory_csv(path, trajectory: np.ndarray, dt: float) -> None:
    """One row per sample: t, x_1, y_1, ..., x_N, y_N at 17 significant digits."""
    n_pairs = trajectory.shape[0] // 2
    header = ["t"]
    for i in range(1, n_pairs + 1):
        header += [f"x_{i}", f"y_{i}"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(trajectory.shape[1]):
            row = [_fmt(k * dt, 17)] + [_fmt(v, 17) for v in trajectory[:, k]]
            fh.write(",".join(row) + "\n")


def read_trajectory_csv(path):
    """Returns (trajectory D_u x n_samples, dt)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    t = data[:, 0]
    dt = float(t[1] - t[0]) if t.size > 1 else 0.0
    return data[:, 1:].T, dt


def write_metric_csv(path, records) -> None:
    """MetricRecord rows with floats at 9 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(METRIC_CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join([
                r.task, r.regime, r.model, r.param_name, _fmt(r.param_value, 9),
                str(r.instantiation), str(r.span),
                _fmt(r.mean_nmse, 9), _fmt(r.valid_time, 9),
            ]) + "\n")


def read_metric_csv(path):
    """MetricRecord rows; ValueError on a missing column or a cell that does not parse."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in METRIC_CSV_HEADER.split(",") if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        for row in reader:
            try:
                records.append(MetricRecord(
                    task=row["task"], regime=row["regime"], model=row["model"],
                    param_name=row["param_name"], param_value=float(row["param_value"]),
                    instantiation=int(row["instantiation"]), span=int(row["span"]),
                    mean_nmse=float(row["mean_nmse"]), valid_time=float(row["valid_time_s"]),
                ))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# Binary model dump: versioned header then row-major float64 blocks.
# Layout: magic "HESNMDL1", u32 version, u32 d_r, u32 d_u, u32 d_in,
# u32 d_feat, u32 expert flag (0 none, 1 standard, 2 bi-harmonic), then
# A (d_r*d_r), B (d_r*d_in), C (d_u*d_feat), and for experts: f64 dt,
# f64 K, f64 omega[N] (+ f64 gamma1, gamma2, a for flag 2).

_MAGIC = b"HESNMDL1"
_VERSION = 1


def save_model(path, model: Instantiation) -> None:
    if model.matrices is None:
        raise ValueError("a model dump needs reservoir matrices")
    matrices, readout, expert = model.matrices, model.readout, model.expert
    d_u, d_feat = readout.shape
    flag = 0
    if expert is not None:
        flag = 2 if isinstance(expert.params, BiHarmonicParams) else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<5I", _VERSION, matrices.d_r, d_u, matrices.d_in, d_feat))
        fh.write(struct.pack("<I", flag))
        fh.write(np.ascontiguousarray(matrices.internal.toarray(), dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(matrices.input, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(readout, dtype="<f8").tobytes())
        if expert is not None:
            base = expert.params.base if flag == 2 else expert.params
            fh.write(struct.pack("<d", expert.dt))
            fh.write(struct.pack("<d", base.coupling))
            fh.write(np.ascontiguousarray(base.omega, dtype="<f8").tobytes())
            if flag == 2:
                fh.write(struct.pack("<3d", expert.params.gamma1, expert.params.gamma2,
                                     expert.params.second_harmonic_scale))


def load_model(path) -> Instantiation:
    """Read a model dump, checked against its own header.

    Raises ValueError when the magic, version or expert flag is unknown, when
    the file is shorter or longer than its header implies, or when the
    blocks do not form a model (see `Instantiation`).
    """
    blob = Path(path).read_bytes()
    if blob[:8] != _MAGIC:
        raise ValueError(f"not a model dump (bad magic {blob[:8]!r})")
    if len(blob) < 32:
        raise ValueError("model dump truncated inside its 32-byte header")
    version, d_r, d_u, d_in, d_feat, flag = struct.unpack_from("<6I", blob, 8)
    if version != _VERSION:
        raise ValueError(f"unsupported model dump version {version}")
    if flag not in (0, 1, 2):
        raise ValueError(f"unknown expert flag {flag} in model dump")
    if flag and d_u % 2:
        raise ValueError(f"model dump has an expert but an odd output dimension {d_u}")
    # A, B, C, then (dt, K, omega) and (gamma1, gamma2, a) as the flag says
    sizes = [d_r * d_r, d_r * d_in, d_u * d_feat, 2 + d_u // 2, 3][:3 + flag]
    expected = 32 + 8 * sum(sizes)
    if len(blob) < expected:
        raise ValueError(f"model dump truncated: {len(blob)} bytes, its header "
                         f"implies {expected}")
    if len(blob) > expected:
        raise ValueError(f"model dump has {len(blob) - expected} trailing bytes beyond "
                         f"the {expected} its header implies")
    a, b, c, *expert_blocks = np.split(np.frombuffer(blob, dtype="<f8", offset=32),
                                       np.cumsum(sizes)[:-1])
    expert = None
    if flag:
        dt, coupling, *omega = expert_blocks[0]
        params = KuramotoParams(omega=np.array(omega), coupling=float(coupling))
        if flag == 2:
            g1, g2, a2 = map(float, expert_blocks[1])
            params = BiHarmonicParams(base=params, gamma1=g1, gamma2=g2,
                                      second_harmonic_scale=a2)
        expert = ExpertModel(params=params, dt=float(dt))
    matrices = ReservoirMatrices(internal=scipy.sparse.csr_matrix(a.reshape(d_r, d_r)),
                                 input=b.reshape(d_r, d_in).copy())
    return Instantiation(matrices, c.reshape(d_u, d_feat).copy(), expert)
