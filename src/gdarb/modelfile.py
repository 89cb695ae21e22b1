"""Sectioned key-value model files.

A model file describes a diffusion market in original coordinates:

    [state_space]
    lo = 0
    hi = inf

    [scale]
    breakpoints = 0, inf
    segment1 = affine -1 1

    [speed]
    breakpoints = 0, inf
    segment1 = const 1
    atom1 = 2 3          # location mass

    [boundaries]
    left = absorbing     # open | absorbing | reflecting
    right = open

    [market]
    x0 = 1.2
    rate = 0.05

Segments are listed in order (segment1, segment2, ...), one per breakpoint
gap.  Supported kinds: ``const c``, ``affine intercept slope``,
``poly c0 c1 ...``, ``power coeff center exponent offset side``,
``exp coeff rate offset``, ``log coeff scale center offset``.
``#`` starts a comment.  Errors carry the offending line number.
"""

from __future__ import annotations

import math
import re

from .measures import SignedMeasure
from .model import BoundarySpec, DiffusionSpec, ModelError
from .piecewise import (
    Affine, Const, Exponential, Log, PiecewiseFn, Poly, Power, Segment, _half_line
)

__all__ = ["ModelFileError", "parse_model_file", "parse_model_text"]

_SECTIONS = ("state_space", "scale", "speed", "boundaries", "market")
_BEHAVIORS = ("open", "absorbing", "reflecting")


class ModelFileError(ModelError):
    def __init__(self, message: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{message}")
        self.line = line


def _parse_number(token: str, line: int) -> float:
    t = token.strip().lower()
    try:
        if t in ("inf", "+inf"):
            return math.inf
        if t == "-inf":
            return -math.inf
        return float(t)
    except ValueError:
        raise ModelFileError(f"not a number: {token!r}", line) from None


def _parse_segment(text: str, line: int) -> Segment:
    parts = text.split()
    if not parts:
        raise ModelFileError("empty segment definition", line)
    kind, args = parts[0].lower(), [_parse_number(p, line) for p in parts[1:]]

    def need(n):
        if len(args) != n:
            raise ModelFileError(
                f"segment kind {kind!r} takes {n} arguments, got {len(args)}", line
            )

    if kind == "const":
        need(1)
        return Const(args[0])
    if kind == "affine":
        need(2)
        return Affine(args[0], args[1])
    if kind == "poly":
        if not args:
            raise ModelFileError("poly needs at least one coefficient", line)
        return Poly(tuple(args))
    if kind == "power":
        need(5)
        side = int(args[4])
        if side not in (-1, 1):
            raise ModelFileError("power side must be -1 or 1", line)
        return Power(args[0], args[1], args[2], args[3], side)
    if kind == "exp":
        need(3)
        return Exponential(args[0], args[1], args[2])
    if kind == "log":
        need(4)
        return Log(args[0], args[1], args[2], args[3])
    raise ModelFileError(f"unknown segment kind {kind!r}", line)


def _scan(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = re.fullmatch(r"\[([A-Za-z_]+)\]", stripped)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise ModelFileError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ModelFileError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ModelFileError("content before any section header", lineno)
        if "=" not in stripped:
            raise ModelFileError("expected key = value", lineno)
        key, value = (s.strip() for s in stripped.split("=", 1))
        if not key:
            raise ModelFileError("empty key", lineno)
        if key in sections[current]:
            raise ModelFileError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _take(section: dict, key: str, section_name: str, required: bool = True):
    if key not in section:
        if required:
            raise ModelFileError(f"missing key {key!r} in [{section_name}]")
        return None, None
    return section.pop(key)


def _parse_piecewise(section: dict, section_name: str, lo: float, hi: float) -> PiecewiseFn:
    """The section's function, whose breakpoints cover the state space
    [lo, hi] and whose ``power`` and ``log`` pieces stay on their half-lines
    there."""
    bp_text, bp_line = _take(section, "breakpoints", section_name)
    bps = tuple(_parse_number(t, bp_line) for t in bp_text.split(","))
    if len(bps) < 2 or any(a >= b for a, b in zip(bps, bps[1:])):
        raise ModelFileError("breakpoints must be strictly increasing", bp_line)
    if not (bps[0] <= lo and hi <= bps[-1]):
        raise ModelFileError(f"breakpoints must cover the state space [{lo}, {hi}]", bp_line)
    segments = []
    for k in range(1, len(bps)):
        text, line = _take(section, f"segment{k}", section_name)
        seg = _parse_segment(text, line)
        a, b = max(bps[k - 1], lo), min(bps[k], hi)
        if isinstance(seg, (Power, Log)) and a < b:
            kind = "power" if isinstance(seg, Power) else "log"
            side = seg.side if kind == "power" else (seg.scale > 0) - (seg.scale < 0)
            try:
                _half_line(a, b, side, seg.center, kind)
            except ValueError:
                msg = f"{kind} segment leaves its half-line on [{a}, {b}]"
                raise ModelFileError(msg, line) from None
        segments.append(seg)
    return PiecewiseFn(bps, tuple(segments))


def _parse_boundary(side: str, value: str, line: int) -> BoundarySpec:
    behavior = value.strip().lower()
    if behavior not in _BEHAVIORS:
        raise ModelFileError(
            f"{side} boundary must be one of {', '.join(_BEHAVIORS)}", line
        )
    if behavior == "open":
        return BoundarySpec(side)
    return BoundarySpec(side, included=True, behavior=behavior)


def parse_model_text(text: str) -> DiffusionSpec:
    sections = _scan(text)
    for name in _SECTIONS:
        if name not in sections:
            raise ModelFileError(f"missing section [{name}]")

    ss = sections["state_space"]
    lo_text, lo_line = _take(ss, "lo", "state_space")
    hi_text, hi_line = _take(ss, "hi", "state_space")
    lo = _parse_number(lo_text, lo_line)
    hi = _parse_number(hi_text, hi_line)
    if not lo < hi:
        raise ModelFileError("state space needs lo < hi", lo_line)

    scale = _parse_piecewise(sections["scale"], "scale", lo, hi)
    speed_sec = sections["speed"]
    density = _parse_piecewise(speed_sec, "speed", lo, hi)
    atoms = []
    for key in sorted(k for k in speed_sec if re.fullmatch(r"atom\d+", k)):
        value, line = speed_sec.pop(key)
        parts = value.split()
        if len(parts) != 2:
            raise ModelFileError(f"{key} needs 'location mass'", line)
        loc = _parse_number(parts[0], line)
        mass = _parse_number(parts[1], line)
        if mass < 0:
            raise ModelFileError(f"{key}: atom mass must be nonnegative", line)
        if not lo <= loc <= hi:
            raise ModelFileError(f"{key}: location outside the state space", line)
        if mass > 0:
            atoms.append((loc, mass))
    speed = SignedMeasure(density=density, atoms=tuple(sorted(atoms)))

    bs = sections["boundaries"]
    left_text, left_line = _take(bs, "left", "boundaries")
    right_text, right_line = _take(bs, "right", "boundaries")
    left = _parse_boundary("left", left_text, left_line)
    right = _parse_boundary("right", right_text, right_line)
    if left.included and not math.isfinite(lo):
        raise ModelFileError("an infinite left endpoint cannot be included", left_line)
    if right.included and not math.isfinite(hi):
        raise ModelFileError("an infinite right endpoint cannot be included", right_line)

    mk = sections["market"]
    x0_text, x0_line = _take(mk, "x0", "market")
    rate_text, rate_line = _take(mk, "rate", "market")
    x0 = _parse_number(x0_text, x0_line)
    rate = _parse_number(rate_text, rate_line)
    if not math.isfinite(rate):
        raise ModelFileError("rate must be finite", rate_line)
    if not lo <= x0 <= hi or not math.isfinite(x0):
        raise ModelFileError("x0 must lie in the state space", x0_line)

    for name, sec in sections.items():
        for key, (_, line) in sec.items():
            raise ModelFileError(f"unexpected key {key!r} in [{name}]", line)

    return DiffusionSpec(
        lo=lo, hi=hi, left=left, right=right,
        scale=scale, speed=speed, start=x0, rate=rate,
    )


def parse_model_file(path: str) -> DiffusionSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read())
