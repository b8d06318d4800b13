"""SVG line charts of selection frequencies.

One panel per (case, schedule): sample size on a log x-axis, frequency
of selecting the case's best procedure on [0, 1], one polyline per
scheme.  Charts are written as self-contained SVG plus a plain-text
data sidecar for external plotting.
"""

from __future__ import annotations

import math
import os
import warnings

from .errors import EmptySelection
from .harness import FrequencyTable
from .scenarios import resolve_scenario

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 55

_SCHEME_STYLE = [
    ("#1b6ca8", "square"),
    ("#c03530", "plus"),
    ("#3a8f3a", "cross"),
    ("#8055a8", "square"),
    ("#b07d2b", "plus"),
]


def _marker(shape: str, px: float, py: float, color: str) -> str:
    if shape == "square":
        return f'<rect x="{px - 3.5:.1f}" y="{py - 3.5:.1f}" width="7" height="7" fill="{color}"/>'
    if shape == "plus":
        return (
            f'<path d="M {px - 4:.1f} {py:.1f} H {px + 4:.1f} M {px:.1f} {py - 4:.1f} '
            f'V {py + 4:.1f}" stroke="{color}" stroke-width="2" fill="none"/>'
        )
    return (
        f'<path d="M {px - 3.5:.1f} {py - 3.5:.1f} L {px + 3.5:.1f} {py + 3.5:.1f} '
        f'M {px - 3.5:.1f} {py + 3.5:.1f} L {px + 3.5:.1f} {py - 3.5:.1f}" '
        f'stroke="{color}" stroke-width="2" fill="none"/>'
    )


def _panel_svg(case: str, schedule: str, series: dict[str, list[tuple[int, float]]]) -> str:
    ns = sorted({n for pts in series.values() for n, _ in pts})
    lo, hi = math.log(ns[0]), math.log(ns[-1])
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, lo + 0.5
    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(n: int) -> float:
        return MARGIN_L + (math.log(n) - lo) / (hi - lo) * inner_w

    def py(freq: float) -> float:
        return MARGIN_T + (1.0 - freq) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="24" font-family="sans-serif" font-size="15">'
        f"Best-procedure selection frequency, {case}, split {schedule}</text>",
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    for i in range(6):
        frac = i / 5.0
        y = py(frac)
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{frac:.1f}</text>'
        )
    for n in ns:
        x = px(n)
        parts.append(
            f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.1f}" '
            f'y2="{HEIGHT - MARGIN_B + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{n}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + inner_w / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">sample size n (log scale)</text>'
    )
    for idx, (scheme, pts) in enumerate(sorted(series.items())):
        color, shape = _SCHEME_STYLE[idx % len(_SCHEME_STYLE)]
        pts = sorted(pts)
        if len(pts) > 1:
            path = " ".join(f"{px(n):.1f},{py(f):.1f}" for n, f in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for n, f in pts:
            parts.append(_marker(shape, px(n), py(f), color))
        ly = MARGIN_T + 16 + 22 * idx
        lx = WIDTH - MARGIN_R + 14
        parts.append(_marker(shape, lx, ly - 4, color))
        parts.append(
            f'<text x="{lx + 12}" y="{ly}" font-family="sans-serif" font-size="12">{scheme}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(table: FrequencyTable, out_dir: str) -> list[str]:
    """Write one SVG + one text sidecar per (case, schedule) panel.

    Each panel charts the frequency of the case's best procedure, found
    by name in the table's procedure list.  Cells of a case whose best
    procedure is not in that list are skipped with a warning.  Raises
    EmptySelection when the table has no plottable rows, and ValueError
    when a frequency falls outside [0, 1].
    """
    panels: dict[tuple[str, str], dict[str, list[tuple[int, float]]]] = {}
    skipped: dict[str, str | None] = {}
    for row in table.rows:
        if row.excluded or row.error:
            continue
        best = resolve_scenario(row.case).best
        if best not in table.procedures:
            skipped[row.case] = best
            continue
        freq = row.frequencies(table.procedures)[best]
        if not (0.0 <= freq <= 1.0):
            raise ValueError(f"frequency out of [0,1] in cell {row.case}/{row.n}: {freq}")
        panels.setdefault((row.case, row.schedule), {}).setdefault(row.scheme, []).append(
            (row.n, freq)
        )
    for case, best in sorted(skipped.items()):
        warnings.warn(
            f"not plotting {case}: its best procedure {best!r} is not among {table.procedures}",
            stacklevel=2,
        )
    if not panels:
        raise EmptySelection("no rows to plot")

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for (case, schedule), series in sorted(panels.items()):
        stem = f"{case}_{schedule.replace(':', '-')}"
        svg_path = os.path.join(out_dir, stem + ".svg")
        with open(svg_path, "w") as fh:
            fh.write(_panel_svg(case, schedule, series))
        txt_path = os.path.join(out_dir, stem + ".txt")
        with open(txt_path, "w") as fh:
            fh.write("# n scheme best_proc_frequency\n")
            for scheme, pts in sorted(series.items()):
                for n, f in sorted(pts):
                    fh.write(f"{n} {scheme} {f:.6f}\n")
        written.extend([svg_path, txt_path])
    return written
