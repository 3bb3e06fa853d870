"""Plain-text formats for series and map files.

A series file is a header line ``k=<int> N=<int> basis=<xyu|zzu>``
followed by one coefficient record per line: ``j l m p/q`` in the real
basis, ``j l m re im`` (two fractions) in the complex one.  Lines whose
first nonblank character is ``#`` are comments.  Output is canonical:
records sorted by (weight, j, l, m), every number a reduced fraction
with an explicit denominator.  Serializing a parsed canonical file
reproduces it byte for byte.

A map file is ``map k=<int> N=<int>``, an optional line
``linear delta=<p/q> rot=<0|1|2|3>``, then an ``f`` section and a ``g``
section whose records are ``j m re im`` on z^j w^m.
"""

import re
import sys
from fractions import Fraction

from .errors import DigitLimitError, StructuralError
from .series import ComplexSeries, GaussRat, RealSeries
from .transform import FormalMap, LinearFactor

_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def _digit_limit(what):
    return DigitLimitError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits, Python's "
        "limit for integer string conversion; set PYTHONINTMAXSTRDIGITS to "
        "raise it")


def format_rat(q: Fraction) -> str:
    """p/q for a Fraction or an int q, both of which carry numerator and
    denominator."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise _digit_limit("a result") from None


def parse_rat(tok: str) -> Fraction:
    if not _RAT.match(tok):
        raise StructuralError(f"bad fraction {tok!r}")
    num, _, den = tok.partition("/")
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError:
        raise _digit_limit(f"fraction {tok[:20]}...") from None
    if not q:
        raise StructuralError(f"bad fraction {tok!r}: zero denominator")
    return Fraction(p, q)


def _content_lines(text):
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield n, line


def _parse_int(tok, what, line_no):
    """An integer token, -?[0-9]+ as parse_rat reads one: int() alone would
    also take '+4', '1_2' and non-ASCII digits."""
    if not (tok.isascii()
            and (tok.isdigit() or tok.startswith("-") and tok[1:].isdigit())):
        raise StructuralError(f"line {line_no}: {what} must be an integer, "
                              f"got {tok!r}")
    try:
        return int(tok)
    except ValueError:
        # such a token fails int() only over the digit limit
        raise _digit_limit(f"line {line_no}: {what} {tok[:20]}...") from None


def _parse_header(fields, line_no, expect):
    vals = []
    if len(fields) != len(expect):
        raise StructuralError(
            f"line {line_no}: header must have fields {expect}")
    for tok, name in zip(fields, expect):
        if not tok.startswith(name + "="):
            raise StructuralError(
                f"line {line_no}: expected {name}=<value>, got {tok!r}")
        vals.append(tok[len(name) + 1:])
    return vals


def serialize_series(S) -> str:
    if isinstance(S, RealSeries):
        basis = "xyu"
    elif isinstance(S, ComplexSeries):
        basis = "zzu"
    else:
        raise StructuralError(f"not a series: {S!r}")
    out = [f"k={S.k} N={S.N} basis={basis}"]
    for (j, l, m), c in S.sorted_items():
        if basis == "xyu":
            out.append(f"{j} {l} {m} {format_rat(c)}")
        else:
            out.append(f"{j} {l} {m} {format_rat(c.re)} {format_rat(c.im)}")
    return "\n".join(out) + "\n"


def parse_series(text: str):
    lines = _content_lines(text)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise StructuralError("empty series file") from None
    k_s, n_s, basis = _parse_header(header.split(), line_no, ("k", "N", "basis"))
    k = _parse_int(k_s, "k", line_no)
    N = _parse_int(n_s, "N", line_no)
    if basis not in ("xyu", "zzu"):
        raise StructuralError(f"line {line_no}: basis must be xyu or zzu")
    want = 4 if basis == "xyu" else 5
    coeffs = {}
    for line_no, line in lines:
        fields = line.split()
        if len(fields) != want:
            raise StructuralError(
                f"line {line_no}: expected {want} fields, got {len(fields)}")
        j = _parse_int(fields[0], "j", line_no)
        l = _parse_int(fields[1], "l", line_no)
        m = _parse_int(fields[2], "m", line_no)
        if (j, l, m) in coeffs:
            raise StructuralError(f"line {line_no}: duplicate monomial {(j, l, m)}")
        if basis == "xyu":
            coeffs[(j, l, m)] = parse_rat(fields[3])
        else:
            coeffs[(j, l, m)] = GaussRat(parse_rat(fields[3]), parse_rat(fields[4]))
    if basis == "xyu":
        return RealSeries(k, N, coeffs)
    return ComplexSeries(k, N, coeffs)


def serialize_map(T: FormalMap) -> str:
    out = [f"map k={T.k} N={T.N}"]
    if not T.linear.is_identity():
        out.append(f"linear delta={format_rat(T.linear.delta)} rot={T.linear.rot}")
    for name, part in (("f", T.f), ("g", T.g)):
        out.append(name)
        for (j, m), c in part.sorted_items():
            out.append(f"{j} {m} {format_rat(c.re)} {format_rat(c.im)}")
    return "\n".join(out) + "\n"


def parse_map(text: str) -> FormalMap:
    lines = list(_content_lines(text))
    if not lines:
        raise StructuralError("empty map file")
    line_no, header = lines[0]
    fields = header.split()
    if not fields or fields[0] != "map":
        raise StructuralError(f"line {line_no}: map file must start with 'map'")
    k_s, n_s = _parse_header(fields[1:], line_no, ("k", "N"))
    k = _parse_int(k_s, "k", line_no)
    N = _parse_int(n_s, "N", line_no)
    linear = None
    pos = 1
    if pos < len(lines) and lines[pos][1].split()[0] == "linear":
        line_no, line = lines[pos]
        d_s, r_s = _parse_header(line.split()[1:], line_no, ("delta", "rot"))
        rot = _parse_int(r_s, "rot", line_no)
        if rot not in (0, 1, 2, 3):
            raise StructuralError(f"line {line_no}: rot must be 0..3")
        linear = LinearFactor(parse_rat(d_s), rot)
        pos += 1
    sections = {}
    current = None
    for line_no, line in lines[pos:]:
        fields = line.split()
        if fields[0] in ("f", "g") and len(fields) == 1:
            if fields[0] in sections:
                raise StructuralError(f"line {line_no}: duplicate section {fields[0]!r}")
            current = sections.setdefault(fields[0], {})
            continue
        if current is None:
            raise StructuralError(f"line {line_no}: record outside f/g section")
        if len(fields) != 4:
            raise StructuralError(f"line {line_no}: expected 'j m re im'")
        j = _parse_int(fields[0], "j", line_no)
        m = _parse_int(fields[1], "m", line_no)
        if (j, m) in current:
            raise StructuralError(f"line {line_no}: duplicate monomial {(j, m)}")
        current[(j, m)] = GaussRat(parse_rat(fields[2]), parse_rat(fields[3]))
    if set(sections) != {"f", "g"}:
        raise StructuralError("map file needs both an f and a g section")
    return FormalMap.from_parts(k, N, sections["f"], sections["g"], linear)
