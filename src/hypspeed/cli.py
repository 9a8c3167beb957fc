"""Command-line front end: speed tables, verification suites, fits, combs,
and static SVG charts.

Exit codes: 0 success (and zero violations for `verify`), 1 verification
violations, 2 malformed input, 3 an operation unsupported for the domain.
All emitted CSV/JSON/SVG is byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .comb import build_comb, verify_comb
from .domains import (Comb, DomainError, UnsupportedDomainOperation,
                      domain_from_json)
from .semigroups import koenigs_semigroup
from .speeds import default_grid, fit_asymptotic, sample_speeds
from .verify import SUITES, run_suite

CSV_COLUMNS = ("t", "v", "v_o", "v_T", "log_rho", "theta")


@dataclass
class CliConfig:
    """A parsed invocation; its field defaults are the CLI's defaults."""

    subcommand: str
    domain_json: str | None = None
    t_min: float = 1.0
    t_max: float = 1e8
    points: int = 512
    suite: str | None = None
    samples: int | None = None
    seed: int = 42
    tol: float = 1e-9
    series: str = "v"
    basis: str = "log_t"
    window: tuple[float, float] = (1e6, 1e8)
    gauge: str = "log1p"
    abscissae: str = "linear"
    steps: int = 10
    columns: tuple[str, ...] = ("v", "v_o", "v_T")
    output: str | None = None
    ratio_output: str | None = None

    def __post_init__(self):
        self.window = tuple(self.window)
        try:
            ok = self.t_min >= 0 and self.t_max > self.t_min and self.points >= 2
        except TypeError:  # Python 3.11's argparse reads `--points=--` as []
            ok = False
        if not ok:
            raise ValueError("need t_min >= 0, t_max > t_min, points >= 2")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_domain(text: str):
    if text is None:
        raise DomainError("a --domain JSON value is required")
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return domain_from_json(json.loads(text))


def _write(path: str | None, payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _speed_rows(cfg: CliConfig):
    domain = _load_domain(cfg.domain_json)
    if isinstance(domain, Comb):
        raise UnsupportedDomainOperation("speeds are undefined for comb domains; use `comb`")
    sg = koenigs_semigroup(domain)
    grid = default_grid(cfg.t_min, cfg.t_max, cfg.points)
    return sample_speeds(sg, grid)


def _cmd_speeds(cfg: CliConfig) -> int:
    rows = _speed_rows(cfg)
    lines = [",".join(CSV_COLUMNS)]
    for s in rows:
        lines.append(",".join(_fmt(v) for v in (s.t, s.v, s.v_o, s.v_T, s.log_rho, s.theta)))
    _write(cfg.output, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(cfg: CliConfig) -> int:
    report = run_suite(cfg.suite, n=cfg.samples, seed=cfg.seed, tol=cfg.tol)
    _write(cfg.output, json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0 if report.violations == 0 else 1


def _cmd_fit(cfg: CliConfig) -> int:
    rows = _speed_rows(cfg)
    fit = fit_asymptotic(rows, cfg.series, cfg.basis, cfg.window)
    payload = {
        "series": cfg.series,
        "basis": fit.basis,
        "coefficient": fit.coefficient,
        "sup_residual": fit.sup_residual,
        "window": list(fit.window),
    }
    _write(cfg.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _parse_abscissae(text: str):
    if text == "linear":
        return "linear"
    if text.startswith("geom:"):
        return ("geometric", float(text.split(":", 1)[1]))
    return [float(x) for x in text.split(",")]


def _cmd_comb(cfg: CliConfig) -> int:
    cc = build_comb(cfg.gauge, _parse_abscissae(cfg.abscissae), cfg.steps)
    rows = verify_comb(cc)
    construction = {
        "teeth": [[a, b] for a, b in zip(cc.a, cc.b)],
        "x": list(cc.x),
        "gauge": cc.gauge_name,
        "extent": cc.extent,
    }
    _write(cfg.output, json.dumps(construction, sort_keys=True, indent=2) + "\n")
    lines = ["j,b,x,bound,gauge,ratio"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in
                              (r["j"], r["b"], r["x"], r["bound"], r["gauge"], r["ratio"])))
    _write(cfg.ratio_output, "\n".join(lines) + "\n")
    return 0


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_chart(xs, series: dict[str, list[float]], x_label: str) -> str:
    """A static single-file line chart; deliberately dependency-free so the
    output is byte-identical across environments."""
    width, height, pad = 820, 500, 60
    x_lo, x_hi = min(xs), max(xs)
    ys_all = [y for ys in series.values() for y in ys if math.isfinite(y)]
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    span_x = x_hi - x_lo if x_hi > x_lo else 1.0

    def sx(x):
        return pad + (x - x_lo) / span_x * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for k in range(int(math.floor(x_lo)), int(math.ceil(x_hi)) + 1):
        if x_lo <= k <= x_hi:
            x = sx(k)
            parts.append(f'<line x1="{x:.2f}" y1="{pad}" x2="{x:.2f}" y2="{height - pad}" '
                         'stroke="#ddd" stroke-width="1"/>')
            parts.append(f'<text x="{x:.2f}" y="{height - pad + 18}" font-size="12" '
                         f'text-anchor="middle" font-family="monospace">1e{k}</text>')
    for i in range(5):
        y_val = y_lo + i * (y_hi - y_lo) / 4
        y = sy(y_val)
        parts.append(f'<line x1="{pad}" y1="{y:.2f}" x2="{width - pad}" y2="{y:.2f}" '
                     'stroke="#eee" stroke-width="1"/>')
        parts.append(f'<text x="{pad - 6}" y="{y + 4:.2f}" font-size="12" text-anchor="end" '
                     f'font-family="monospace">{y_val:.4g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle" font-family="monospace">{x_label}</text>')
    for idx, (name, ys) in enumerate(series.items()):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad - 8}" y="{pad + 16 + 16 * idx}" font-size="12" '
                     f'text-anchor="end" font-family="monospace" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot(cfg: CliConfig) -> int:
    rows = _speed_rows(cfg)
    xs = [math.log10(s.t) if s.t > 0 else math.log10(cfg.t_max) - 12 for s in rows]
    series = {}
    for col in cfg.columns:
        if col not in CSV_COLUMNS[1:]:
            raise DomainError(f"unknown column {col!r}")
        series[col] = [getattr(s, col) for s in rows]
    _write(cfg.output, _svg_chart(xs, series, "log10 t"))
    return 0


def run(cfg: CliConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    handlers = {"speeds": _cmd_speeds, "verify": _cmd_verify, "fit": _cmd_fit,
                "comb": _cmd_comb, "plot": _cmd_plot}
    try:
        return handlers[cfg.subcommand](cfg)
    except UnsupportedDomainOperation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, DomainError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_columns(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _build_parser() -> argparse.ArgumentParser:
    default_seed = int(os.environ.get("HYPSPEED_SEED", CliConfig.seed))
    parser = argparse.ArgumentParser(
        prog="hypspeed",
        description="speeds of non-elliptic semigroup orbits and their verification suites",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_grid(p):
        p.add_argument("--t-min", type=float, default=CliConfig.t_min)
        p.add_argument("--t-max", type=float, default=CliConfig.t_max)
        p.add_argument("--points", type=int, default=CliConfig.points)

    p_speeds = sub.add_parser("speeds", help="emit a CSV speed table")
    p_speeds.add_argument("--domain", dest="domain_json", required=True,
                          help="domain JSON (inline or a file path)")
    add_grid(p_speeds)
    p_speeds.add_argument("-o", "--output")

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--seed", type=int, default=default_seed)
    p_verify.add_argument("--tol", type=float, default=CliConfig.tol)
    p_verify.add_argument("-o", "--output")

    p_fit = sub.add_parser("fit", help="fit an asymptotic coefficient")
    p_fit.add_argument("--domain", dest="domain_json", required=True)
    p_fit.add_argument("--series", default=CliConfig.series, choices=("v", "v_o", "v_T"))
    p_fit.add_argument("--basis", default=CliConfig.basis, choices=("log_t", "t"))
    p_fit.add_argument("--window", type=float, nargs=2, default=CliConfig.window)
    add_grid(p_fit)
    p_fit.add_argument("-o", "--output")

    p_comb = sub.add_parser("comb", help="build and certify a comb construction")
    p_comb.add_argument("--gauge", default=CliConfig.gauge,
                        help="log1p | sqrt | pow:<p> (sublinear gauge)")
    p_comb.add_argument("--abscissae", default=CliConfig.abscissae,
                        help="linear | geom:<ratio> | comma-separated list")
    p_comb.add_argument("--steps", type=int, default=CliConfig.steps)
    p_comb.add_argument("-o", "--output", help="construction JSON destination")
    p_comb.add_argument("--ratios", dest="ratio_output", help="ratio CSV destination")

    p_plot = sub.add_parser("plot", help="emit a static SVG chart of speed columns")
    p_plot.add_argument("--domain", dest="domain_json", required=True)
    p_plot.add_argument("--columns", type=_parse_columns, default=CliConfig.columns)
    add_grid(p_plot)
    p_plot.add_argument("-o", "--output")
    return parser


def parse_args(argv=None) -> CliConfig:
    # every option's dest is a CliConfig field
    return CliConfig(**vars(_build_parser().parse_args(argv)))


def main(argv=None) -> None:
    try:
        cfg = parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run(cfg))


if __name__ == "__main__":
    main()
