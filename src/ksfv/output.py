"""Diagnostics CSV, hand-rolled SVG charts, and run manifests.

The CSV header and float formatting are part of the stable interface: numbers
are serialized with repr(), i.e. the shortest decimal that round-trips, so
byte-identical files certify bit-identical trajectories. SVG is emitted
directly (fixed 800x600 viewBox) with no external renderer.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .core import Grid, State
from .errors import UsageError
from .solver import DiagnosticsRow, RunResult

CSV_HEADER = "t,dt,mass_u,mass_v,max_u,min_u,F,dissipation_rhs,identity_residual"


def fmt(x: float) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(x))


def rows_to_csv(rows: Sequence[DiagnosticsRow]) -> str:
    if not rows:
        raise UsageError("no diagnostics rows to serialize")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                fmt(x)
                for x in (
                    r.t,
                    r.dt,
                    r.mass_u,
                    r.mass_v,
                    r.max_u,
                    r.min_u,
                    r.F,
                    r.dissipation_rhs,
                    r.identity_residual,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def final_state_csv(state: State, grid: Grid) -> str:
    lines = ["x,u,v"]
    for x, u, v in zip(grid.centers, state.u, state.v):
        lines.append(f"{fmt(x)},{fmt(u)},{fmt(v)}")
    return "\n".join(lines) + "\n"


def grid_checksum(grid: Grid) -> str:
    digest = hashlib.sha256()
    digest.update(
        f"{grid.spec.kind}:{grid.spec.n}:{fmt(grid.spec.R)}:{grid.spec.cells}".encode()
    )
    digest.update(np.ascontiguousarray(grid.cell_volume).tobytes())
    digest.update(np.ascontiguousarray(grid.face_area).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# SVG


_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    return list(np.linspace(lo, hi, count))


def line_chart_svg(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str,
    ylabel: str,
    ylog: bool = False,
) -> str:
    """Single-polyline chart with linear axes (optionally log-10 vertical)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise UsageError("empty series")
    if ylog:
        ys = np.log10(np.maximum(ys, 1e-300))
        ylabel = f"log10({ylabel})"
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    sx = lambda x: _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)
    sy = lambda y: _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(
            f'<text x="{sx(tx):.1f}" y="{_H-_MB+18}" text-anchor="middle" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y0, y1):
        parts.append(
            f'<text x="{_ML-6}" y="{sy(ty)+4:.1f}" text-anchor="end" font-size="11">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="16" y="{_H/2:.0f}" font-size="12" transform="rotate(-90 16 {_H/2:.0f})" text-anchor="middle">{ylabel}</text>'
    )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_CLASS_COLORS = {
    "Global": "#3a9e4e",
    "BlowUp": "#c23b3b",
    "Inconclusive": "#9e9e9e",
    "Error": "#e0a100",
}


def heatmap_svg(
    x_values: Sequence[float],
    y_values: Sequence[float],
    labels: Dict[tuple, str],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Classification heat map over two sweep axes (one rect per run)."""
    nx, ny = len(x_values), len(y_values)
    if nx == 0 or ny == 0:
        raise UsageError("empty sweep axes")
    cw = (_W - _ML - _MR) / nx
    ch = (_H - _MT - _MB) / ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for i, xv in enumerate(x_values):
        for j, yv in enumerate(y_values):
            color = _CLASS_COLORS.get(labels.get((i, j), "Inconclusive"), "#9e9e9e")
            x = _ML + i * cw
            y = _H - _MB - (j + 1) * ch
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cw:.1f}" height="{ch:.1f}" '
                f'fill="{color}" stroke="white"/>'
            )
    for i, xv in enumerate(x_values):
        parts.append(
            f'<text x="{_ML + (i + 0.5) * cw:.1f}" y="{_H-_MB+18}" text-anchor="middle" '
            f'font-size="11">{xv:.4g}</text>'
        )
    for j, yv in enumerate(y_values):
        parts.append(
            f'<text x="{_ML-6}" y="{_H-_MB-(j+0.5)*ch+4:.1f}" text-anchor="end" '
            f'font-size="11">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_W/2:.0f}" y="{_H-12}" text-anchor="middle" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H/2:.0f}" font-size="12" transform="rotate(-90 16 {_H/2:.0f})" text-anchor="middle">{ylabel}</text>'
    )
    legend_x = _W - _MR - 150
    for k, (name, color) in enumerate(_CLASS_COLORS.items()):
        parts.append(
            f'<rect x="{legend_x}" y="{_MT + 14 * k}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 14}" y="{_MT + 14 * k + 9}" font-size="10">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# manifests


def manifest_text(
    config_map: Dict[str, str],
    result: RunResult,
    wall_seconds: float,
    files: Iterable[str],
    version: str,
) -> str:
    """Structured text mirroring the config schema plus the run outcome."""
    lines = ["# run manifest"]
    lines.append(f"manifest.version = {version}")
    lines.append(f"manifest.grid_checksum = sha256:{grid_checksum(result.grid)}")
    lines.append(f"manifest.wall_seconds = {wall_seconds:.3f}")
    lines.append(f"manifest.termination = {result.termination.tag.value}")
    lines.append(f"manifest.t_final = {fmt(result.termination.t_final)}")
    if result.termination.blowup_estimate is not None:
        lines.append(
            f"manifest.blowup_estimate = {fmt(result.termination.blowup_estimate)}"
        )
    lines.append(f"manifest.steps = {result.steps}")
    lines.append(f"manifest.files = {','.join(files)}")
    for key in sorted(config_map):
        lines.append(f"config.{key} = {config_map[key]}")
    return "\n".join(lines) + "\n"


def config_from_manifest(text: str) -> Dict[str, str]:
    """Recover the configuration section of a manifest (for reproduction runs)."""
    out: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or "=" not in line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("config."):
            out[key[len("config.") :]] = value
    if not out:
        raise UsageError("manifest carries no config section")
    return out
