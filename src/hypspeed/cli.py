"""Command-line front end: speed tables, verification suites, fits, combs,
and static SVG charts.

Exit codes: 0 success (and zero violations for `verify`), 1 verification
violations, 2 malformed input or a file that cannot be read or written, 3 an
operation unsupported for the domain.
All emitted CSV/JSON/SVG is byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .comb import build_comb, verify_comb
from .domains import (Comb, DomainError, UnsupportedDomainOperation,
                      domain_from_json)
from .hyperbolic import _split
from .semigroups import koenigs_semigroup
from .speeds import default_grid, fit_asymptotic, sample_speeds
from .verify import SUITES, run_suite

CSV_COLUMNS = ("t", "v", "v_o", "v_T", "log_rho", "theta")
#: rows per chunk, which bounds the format string, the cell tuple, the
#: stacked block and the byte frames that a table of any length holds at once
_CSV_CHUNK_ROWS = 1024


def _load_domain(text: str):
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


#: 10^s for the scale exponents s = 16 - k, every one a double, and its halves
_POW10 = np.array([float(10 ** s) for s in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """The four digit characters of each group value 0..9999, and how many
    of them are trailing zeros."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000)
    trailing = np.zeros(10000, dtype=np.int8)
    zeros_so_far = np.ones(10000, dtype=bool)
    for place in digits[::-1]:  # the units first
        zeros_so_far &= place == 0
        trailing += zeros_so_far
    return (digits.T + ord("0")).copy().view("S4").ravel(), trailing


_DIGITS4, _TRAILING4 = _digit_groups()

#: the bytes a covered cell's text is taken from, in order: the sign, "0.000"
#: for the exponents -4..-1, the 17 digits with a '.' slot after each of the
#: first 16, and the separator
_FRAME = np.frombuffer(b"-0.000" + b"0." * 16 + b"0,", dtype=np.uint8)
#: the leftmost digit's column; digit j sits at 6 + 2j
_DIGIT0 = 6


def _keep_table() -> np.ndarray:
    """Which frame bytes a covered cell keeps, by its code (sign, exponent
    class, index of its last nonzero digit): the exponent class is k + 4 for
    the exponents k = -4..16 and 21 for a zero."""
    k = np.arange(-4, 17)[:, None, None]
    t = np.arange(17)[None, :, None]
    col = np.arange(len(_FRAME))
    digit = col - _DIGIT0
    keep = np.zeros((2, 22, 17, len(_FRAME)), dtype=bool)
    keep[:, :21] = (
        # the digits through the last nonzero one, and the units digit
        ((digit >= 0) & (digit % 2 == 0) & (digit // 2 <= np.maximum(k, t)))
        # "0." and -k-1 zeros for a negative exponent
        | ((k < 0) & ((col == 1) | (col == 2) | ((col >= _DIGIT0 + 1 + k) & (col < _DIGIT0))))
        # '.' after the units digit when a fraction follows
        | ((k >= 0) & (t > k) & (col == _DIGIT0 + 1 + 2 * k)))
    keep[:, 21, :, 1] = True   # a zero prints one '0'
    keep[1, ..., 0] = True     # '-' from the sign bit, so -0.0 prints -0
    keep[..., -1] = True       # the separator
    return keep.reshape(2 * 22 * 17, len(_FRAME))


_KEEP = _keep_table()


def _divmod(n, d: int):
    """np.divmod(n, d) for int64 n >= 0; numpy's own remainder is slower."""
    q = n // d
    return q, n - q * d


def _scaled(a, a_hi, a_lo, k):
    """a * 10^(16 - k) as the unevaluated sum p + e, exactly (Dekker's
    two-product): 10^s is a double for s <= 22, and for a in [1e-4, 1e17)
    nothing over- or underflows."""
    s = 16 - k
    p = a * _POW10.take(s)
    hi, lo = _POW10_HI.take(s), _POW10_LO.take(s)
    return p, ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo


def _fixed_cells(block: np.ndarray) -> str | None:
    """The `%.17g` text of a (rows, columns) block, each cell followed by
    ',' or, at a row's end, a newline; None unless every cell is +-0.0 or
    finite with 1e-4 <= |x| < 1e17, the cells `%.17g` prints in fixed
    notation with exponent -4..16.

    A cell's 17 significant digits are the integer n = round-half-even of
    |x| 10^(16-k), for the exponent k with 10^16 <= n < 10^17, taken from
    the exact two-product, and its text is a subsequence of `_FRAME`."""
    x = block.ravel()
    a = np.abs(x)
    zero = x == 0.0
    if not (zero | ((a >= 1e-4) & (a < 1e17))).all():
        return None
    a[zero] = 1.0  # printed by its own code; never take log10(0)
    a_hi, a_lo = _split(a)
    # floor(log10 a) is an estimate, off by at most one next to a power of
    # ten; an exact comparison of the split product with 10^16 and 10^17,
    # lo's sign included, corrects it
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, e = _scaled(a, a_hi, a_lo, k)
    k += (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    k -= (p < 1e16) | ((p == 1e16) & (e < 0.0))
    p, e = _scaled(a, a_hi, a_lo, k)
    # p in [1e16, 1e17] is an even integer above 2^53, so round-half-even of
    # p + e is p + rint(e); a carry to 10^17 moves the exponent up
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    # the leading digit, then four groups of four, in exact int64 arithmetic
    lead, rest = _divmod(n, 10 ** 16)
    halves = np.empty((len(x), 2), dtype=np.int64)
    halves[:, 0], halves[:, 1] = _divmod(rest, 10 ** 8)
    groups = np.empty((len(x), 2, 2), dtype=np.int64)
    groups[..., 0], groups[..., 1] = _divmod(halves, 10 ** 4)
    groups = groups.reshape(len(x), 4)
    frame = np.empty((len(x), len(_FRAME)), dtype=np.uint8)
    frame[:] = _FRAME
    frame[:, _DIGIT0] = lead + ord("0")
    frame[:, _DIGIT0 + 2::2] = _DIGITS4.take(groups).view(np.uint8)
    separators = frame.reshape(*block.shape, len(_FRAME))[..., -1]
    separators[:, :-1] = ord(",")
    separators[:, -1] = ord("\n")
    # the index of the last nonzero digit, 16 less the trailing zeros of
    # rest (all 16 of them when it is 0; the leading digit never is 0)
    zeros = _TRAILING4.take(groups)
    whole = zeros == 4
    last = 16 - (zeros[:, 3] + whole[:, 3] * (
        zeros[:, 2] + whole[:, 2] * (zeros[:, 1] + whole[:, 1] * zeros[:, 0])))
    code = (np.signbit(x) * 22 + np.where(zero, 21, k + 4)) * 17 + last
    return np.compress(_KEEP.take(code, axis=0).ravel(), frame.ravel()).tobytes().decode("ascii")


def _csv(header: tuple[str, ...], columns) -> str:
    """A header line, then one line per index of the equal-length numeric
    columns, each cell `'%.17g' % x` of its double: 17 significant digits,
    rounded half to even from the exact binary value.

    A chunk of rows whose every cell is +-0.0 or finite with
    1e-4 <= |x| < 1e17 takes its text from numpy array passes
    (`_fixed_cells`); any other chunk takes the `%` operator.  The bytes are
    the same either way."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    chunks = [",".join(header) + "\n"]
    for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        block = np.column_stack([c[lo:lo + _CSV_CHUNK_ROWS] for c in columns])
        text = _fixed_cells(block)
        chunks.append(line * len(block) % tuple(block.ravel().tolist()) if text is None else text)
    return "".join(chunks)


def _speed_table(cfg: argparse.Namespace):
    # a malformed grid exits 2 before a comb domain can exit 3
    grid = default_grid(cfg.t_min, cfg.t_max, cfg.points)
    domain = _load_domain(cfg.domain_json)
    if isinstance(domain, Comb):
        raise UnsupportedDomainOperation("speeds are undefined for comb domains; use `comb`")
    return sample_speeds(koenigs_semigroup(domain), grid)


def _cmd_speeds(cfg: argparse.Namespace) -> int:
    table = _speed_table(cfg)
    _write(cfg.output, _csv(CSV_COLUMNS, [getattr(table, c) for c in CSV_COLUMNS]))
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    report = run_suite(cfg.suite, n=cfg.samples, seed=cfg.seed, tol=cfg.tol)
    _write(cfg.output, json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0 if report.violations == 0 else 1


def _cmd_fit(cfg: argparse.Namespace) -> int:
    fit = fit_asymptotic(_speed_table(cfg), cfg.series, cfg.basis, cfg.window)
    payload = {
        "series": cfg.series,
        "basis": fit.basis,
        "coefficient": fit.coefficient,
        "sup_residual": fit.sup_residual,
        "window": list(fit.window),
    }
    _write(cfg.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_comb(cfg: argparse.Namespace) -> int:
    cc = build_comb(cfg.gauge, cfg.abscissae, cfg.steps)
    rows = verify_comb(cc)
    construction = {
        "teeth": [[a, b] for a, b in zip(cc.a, cc.b)],
        "x": list(cc.x),
        "gauge": cc.gauge_name,
        "extent": cc.extent,
    }
    _write(cfg.output, json.dumps(construction, sort_keys=True, indent=2) + "\n")
    header = ("j", "b", "x", "bound", "gauge", "ratio")
    _write(cfg.ratio_output, _csv(header, [[r[c] for r in rows] for c in header]))
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


def _cmd_plot(cfg: argparse.Namespace) -> int:
    if not cfg.columns:
        raise ValueError("--columns names no column to plot")
    table = _speed_table(cfg)
    xs = [math.log10(t) if t > 0 else math.log10(cfg.t_max) - 12 for t in table.t.tolist()]
    series = {}
    for col in cfg.columns:
        if col not in CSV_COLUMNS[1:]:
            raise DomainError(f"unknown column {col!r}")
        series[col] = getattr(table, col).tolist()
    _write(cfg.output, _svg_chart(xs, series, "log10 t"))
    return 0


def run(cfg: argparse.Namespace) -> int:
    """Dispatch the namespace `parse_args` returns; returns the process exit status."""
    handlers = {"speeds": _cmd_speeds, "verify": _cmd_verify, "fit": _cmd_fit,
                "comb": _cmd_comb, "plot": _cmd_plot}
    try:
        return handlers[cfg.subcommand](cfg)
    except UnsupportedDomainOperation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, DomainError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_columns(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypspeed",
        description="speeds of non-elliptic semigroup orbits and their verification suites",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_grid(p):
        p.add_argument("--t-min", type=float, default=1.0)
        p.add_argument("--t-max", type=float, default=1e8)
        p.add_argument("--points", type=int, default=512)

    p_speeds = sub.add_parser("speeds", help="emit a CSV speed table")
    p_speeds.add_argument("--domain", dest="domain_json", required=True,
                          help="domain JSON (inline or a file path)")
    add_grid(p_speeds)
    p_speeds.add_argument("-o", "--output")

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--seed", type=int)  # None: parse_args reads HYPSPEED_SEED
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("-o", "--output")

    p_fit = sub.add_parser("fit", help="fit an asymptotic coefficient")
    p_fit.add_argument("--domain", dest="domain_json", required=True)
    p_fit.add_argument("--series", default="v", choices=("v", "v_o", "v_T"))
    p_fit.add_argument("--basis", default="log_t", choices=("log_t", "t"))
    p_fit.add_argument("--window", type=float, nargs=2, default=(1e6, 1e8))
    add_grid(p_fit)
    p_fit.add_argument("-o", "--output")

    p_comb = sub.add_parser("comb", help="build and certify a comb construction")
    p_comb.add_argument("--gauge", default="log1p",
                        help="log1p | sqrt | pow:<p> (sublinear gauge)")
    p_comb.add_argument("--abscissae", default="linear",
                        help="linear | geom:<ratio> | comma-separated list")
    p_comb.add_argument("--steps", type=int, default=10)
    p_comb.add_argument("-o", "--output", help="construction JSON destination")
    p_comb.add_argument("--ratios", dest="ratio_output", help="ratio CSV destination")

    p_plot = sub.add_parser("plot", help="emit a static SVG chart of speed columns")
    p_plot.add_argument("--domain", dest="domain_json", required=True)
    p_plot.add_argument("--columns", type=_parse_columns, default=("v", "v_o", "v_T"))
    add_grid(p_plot)
    p_plot.add_argument("-o", "--output")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    args = _build_parser().parse_args(argv)
    for dest, value in vars(args).items():
        if value == []:  # Python 3.11's argparse reads `--opt=--` as [] and skips `type`
            raise ValueError(f"option {dest!r} was given an empty value")
    if "seed" in args and args.seed is None:
        # read at every call, since the parser is built once per process,
        # and only here, so a malformed value fails only `verify` without --seed
        args.seed = int(os.environ.get("HYPSPEED_SEED", 42))
    return args


def main(argv=None) -> None:
    try:
        cfg = parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run(cfg))


if __name__ == "__main__":
    main()
