"""Summary CSV and dependency-free SVG line plots of sweep results."""

from __future__ import annotations

import math
from collections import defaultdict

from .experiments import SummaryRow
from .io import fmt9

__all__ = ["write_summary_csv", "render_sweep_svg", "ARM_COLORS"]

SUMMARY_CSV_HEADER = (
    "task,regime,model,param_name,param_value,n_instantiations,"
    "mean_nmse_mean,mean_nmse_std,mean_nmse_max,"
    "valid_time_mean,valid_time_std,valid_time_max"
)

ARM_COLORS = {"hybrid": "#d62728", "standard": "#1f77b4", "ode": "#2ca02c"}

_METRICS = {
    "mean_nmse": ("nmse_mean", "nmse_std", "mean NMSE"),
    "valid_time": ("valid_time_mean", "valid_time_std", "valid time (s)"),
}


def write_summary_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SUMMARY_CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join([
                r.task, r.regime, r.model, r.param_name, fmt9(r.param_value),
                str(r.n_instantiations),
                fmt9(r.nmse_mean), fmt9(r.nmse_std), fmt9(r.nmse_max),
                fmt9(r.valid_time_mean), fmt9(r.valid_time_std), fmt9(r.valid_time_max),
            ]) + "\n")


def _axis_ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_sweep_svg(rows, metric: str = "mean_nmse", title: str = "") -> str:
    """One figure: mean line per model arm with a +/-1 std shaded band.

    `rows` are SummaryRows sharing one (task, regime, param_name); the x axis
    is the swept parameter value, log-scaled when it spans over two decades.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; valid: {', '.join(_METRICS)}")
    mean_attr, std_attr, ylabel = _METRICS[metric]
    if not rows:
        raise ValueError("no summary rows to plot")

    by_arm = defaultdict(list)
    for r in rows:
        by_arm[r.model].append(r)
    for arm in by_arm:
        by_arm[arm].sort(key=lambda r: r.param_value)

    xs = sorted({r.param_value for r in rows})
    log_x = min(xs) > 0 and max(xs) / min(xs) > 100
    to_x = (lambda v: math.log10(v)) if log_x else (lambda v: v)
    x_lo, x_hi = to_x(min(xs)), to_x(max(xs))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    y_hi = 0.0
    for r in rows:
        y_hi = max(y_hi, getattr(r, mean_attr) + getattr(r, std_attr))
    y_hi = y_hi or 1.0
    y_lo = 0.0

    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    def px(v):
        return ml + (to_x(v) - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + (1.0 - (v - y_lo) / (y_hi - y_lo)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        # axes
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
    ]
    param_name = rows[0].param_name
    xlabel = param_name + (" (log10)" if log_x else "")
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>'
    )
    for tick in _axis_ticks(x_lo, x_hi):
        x = ml + (tick - x_lo) / (x_hi - x_lo) * pw
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 20}" text-anchor="middle">{tick:.3g}</text>')
    for tick in _axis_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:.3g}</text>')

    legend_y = mt + 6
    for arm in ("standard", "hybrid", "ode"):
        pts = by_arm.get(arm)
        if not pts:
            continue
        color = ARM_COLORS[arm]
        upper = [(px(r.param_value), py(getattr(r, mean_attr) + getattr(r, std_attr))) for r in pts]
        lower = [(px(r.param_value), py(getattr(r, mean_attr) - getattr(r, std_attr))) for r in pts]
        band = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
        line = " ".join(
            f"{px(r.param_value):.2f},{py(getattr(r, mean_attr)):.2f}" for r in pts
        )
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<rect x="{ml + pw - 110}" y="{legend_y - 9}" width="18" height="4" fill="{color}"/>'
        )
        parts.append(f'<text x="{ml + pw - 86}" y="{legend_y}">{arm}</text>')
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
