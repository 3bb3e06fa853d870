"""Command line surface for the exact engine.

    crnf analyze <file> ...
    crnf tnormal [--target-A p/q --target-B p/q] <file> ...
    crnf rigid <file> ...
    crnf nt <file> ...
    crnf check --form {t|rigid|nt|stanton|ko1-nontube|ko1-tube|ko1-half} <file> ...
    crnf tube-equiv <file1> <file2>
    crnf apply --map <mapfile> <file> ...
    crnf classify <file> ...

Every command accepts --json; every number in either output is an exact
fraction string.  `-` reads the series from stdin (commands that write
files then need an explicit --out).  Several files at once need --each.
CRNF_MAX_WEIGHT in the environment rejects inputs whose truncation
weight N exceeds it.

Each call builds the argument parser of its command alone; help, a call
without a command and an unknown command build the parsers of all of them.

Exit codes: 0 the computation succeeded or the checked property holds,
1 a checked condition fails or the inputs are inequivalent, 2 malformed
or unsupported input, 3 a square solver system came out singular, 4 an
internal self-check of the engine failed (a bug, not bad input).  When
the reader of standard output closes it early (`crnf ... | head -1`), the
rest of the output is dropped quietly and the exit code is still that of
the command.
"""

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .equivalence import RadicalReal, tube_equivalent
from .errors import InputError, InternalError, SingularSystemError, TruncationError
from .fileformat import (format_rat, parse_map, parse_rat, parse_series,
                         serialize_map, serialize_series)
from .hypersurface import Hypersurface, detect_tube_model
from .normalize import (NormalFormKind, check, nt_normalize, rigid_normalize,
                        t_normalize)
from .series import GaussRat, RealSeries, to_complex_basis, to_real_basis
from .symmetry import classify_aut
from .transform import LinearFactor, pushforward_series

# the --form names, in the order --help lists them
_FORMS = ("ko1-half", "ko1-nontube", "ko1-tube", "nt", "rigid", "stanton", "t")


# ---------------------------------------------------------------- plumbing

def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_text(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_series(path):
    S = parse_series(_read_text(path))
    raw = os.environ.get("CRNF_MAX_WEIGHT")
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise InputError(
                f"CRNF_MAX_WEIGHT must be an integer, got {raw!r}") from None
        if S.N > cap:
            raise TruncationError(f"N = {S.N} exceeds CRNF_MAX_WEIGHT = {cap}")
    return S


def _as_real(S):
    """Input series in the x, y, u basis plus the basis tag to write back."""
    if isinstance(S, RealSeries):
        return S, "xyu"
    return to_real_basis(S), "zzu"


def _serialize_in(F, basis):
    return serialize_series(F if basis == "xyu" else to_complex_basis(F))


def _out_base(path, args, tag):
    if args.out is not None:
        return args.out
    if path == "-":
        raise InputError("reading stdin: name the output with --out")
    return str(Path(path).with_suffix("")) + "." + tag


# ------------------------------------------------------------- formatting

def _real_text(x):
    if isinstance(x, RadicalReal):
        sign = "-" if x.sign < 0 else ""
        return f"{sign}({format_rat(x.base)})^(1/{x.root_index})"
    return format_rat(x)


def _real_json(x):
    if isinstance(x, RadicalReal):
        return {"kind": "radical", "base": format_rat(x.base),
                "root_index": x.root_index, "sign": x.sign}
    return {"kind": "rational", "value": format_rat(x)}


def _value_text(v):
    if isinstance(v, GaussRat):
        return f"{format_rat(v.re)} {format_rat(v.im)}"
    return format_rat(v)


def _value_json(v):
    if isinstance(v, GaussRat):
        return {"re": format_rat(v.re), "im": format_rat(v.im)}
    return format_rat(v)


def _map_report(T):
    lin = None
    if not T.linear.is_identity():
        lin = {"delta": format_rat(T.linear.delta), "rot": T.linear.rot}
    parts = {}
    for name, part in (("f", T.f), ("g", T.g)):
        parts[name] = [{"j": j, "m": m,
                        "re": format_rat(c.re), "im": format_rat(c.im)}
                       for (j, m), c in part.sorted_items()]
    return {"linear": lin, "f": parts["f"], "g": parts["g"]}


def _map_lines(T):
    if T.linear.is_identity():
        lines = ["linear: identity"]
    else:
        lines = [f"linear: delta={format_rat(T.linear.delta)} rot={T.linear.rot}"]
    for name, part in (("f", T.f), ("g", T.g)):
        if part.is_zero():
            lines.append(f"{name}: none")
        for (j, m), c in part.sorted_items():
            lines.append(f"{name}: {j} {m} {format_rat(c.re)} {format_rat(c.im)}")
    return lines


def _gen_json(g):
    if isinstance(g, LinearFactor):
        return {"type": "linear", "delta": format_rat(g.delta), "rot": g.rot}
    return {"type": "rotation", "order": g.order, "power": g.power,
            "delta": format_rat(g.delta)}


def _gen_text(g):
    if isinstance(g, LinearFactor):
        return f"linear delta={format_rat(g.delta)} rot={g.rot}"
    return f"rotation order={g.order} power={g.power} delta={format_rat(g.delta)}"


# --------------------------------------------------------------- commands

def _cmd_analyze(path, args):
    F, _ = _as_real(_load_series(path))
    H = Hypersurface.normal_coordinates(F, F.k)
    info = detect_tube_model(H.leading_complex())
    report = {"k": info.k, "N": F.N, "essential_type": info.e,
              "invariant_L": info.L, "tube_model": info.is_tube,
              "tube_form": H.tube_form}
    lines = [
        f"k = {info.k}",
        f"N = {F.N}",
        f"essential type e = {info.e}",
        ("invariant L = undefined (2e = k)" if info.L is None
         else f"invariant L = {info.L}"),
        f"tube model: {'yes' if info.is_tube else 'no'}",
        f"tube form (leading x^k): {'yes' if H.tube_form else 'no'}",
    ]
    return 0, report, lines


def _run_normalizer(path, args, tag, normalize):
    F, basis = _as_real(_load_series(path))
    H = Hypersurface.validate(F, F.k)
    res = normalize(H)
    base = _out_base(path, args, tag)
    srs_path, map_path = base + ".srs", base + ".map"
    _write_text(srs_path, _serialize_in(res.H_normal.F, basis))
    _write_text(map_path, serialize_map(res.T))
    report = {"k": H.k, "N": H.N, **_map_report(res.T),
              "series_file": srs_path, "map_file": map_path}
    lines = _map_lines(res.T) + [f"wrote {srs_path}", f"wrote {map_path}"]
    return res, report, lines


def _cmd_tnormal(path, args):
    if (args.target_A is None) != (args.target_B is None):
        raise InputError("--target-A and --target-B must be given together")
    targets = None
    if args.target_A is not None:
        targets = (parse_rat(args.target_A), parse_rat(args.target_B))
    res, report, lines = _run_normalizer(
        path, args, "tnf", lambda H: t_normalize(H, targets=targets))
    k = res.H_normal.k
    A = res.H_normal.F.coeffs.get((2 * k - 1, 0, 0), Fraction(0))
    B = res.H_normal.F.coeffs.get((2 * k - 1, 1, 0), Fraction(0))
    report["A"], report["B"] = format_rat(A), format_rat(B)
    lines = [f"A = {format_rat(A)}", f"B = {format_rat(B)}"] + lines
    return 0, report, lines


def _cmd_rigid(path, args):
    _, report, lines = _run_normalizer(path, args, "rgd", rigid_normalize)
    return 0, report, lines


def _cmd_nt(path, args):
    _, report, lines = _run_normalizer(path, args, "ntf", nt_normalize)
    return 0, report, lines


def _cmd_check(path, args):
    F, _ = _as_real(_load_series(path))
    H = Hypersurface.normal_coordinates(F, F.k)
    violations = check(H, NormalFormKind(args.form))
    report = {"form": args.form, "holds": not violations,
              "violations": [{"family": v.family, "key": list(v.key),
                              "value": _value_json(v.value)}
                             for v in violations]}
    if not violations:
        lines = [f"form {args.form}: OK"]
    else:
        lines = [f"form {args.form}: {len(violations)} violation(s)"]
        for v in violations:
            lines.append(f"  {v.family} {v.key} -> {_value_text(v.value)}")
    return (0 if not violations else 1), report, lines


def _cmd_classify(path, args):
    F, _ = _as_real(_load_series(path))
    H = Hypersurface.normal_coordinates(F, F.k)
    cls = classify_aut(H)
    report = {"class": cls.tag, "m": cls.m, "conditional": cls.conditional,
              "generators": [_gen_json(g) for g in cls.evidence]}
    lines = [f"class: {cls.tag}"]
    if cls.m is not None:
        lines.append(f"m = {cls.m}")
    lines.append(f"conditional: {'yes' if cls.conditional else 'no'}")
    if cls.evidence:
        lines.append("generators:")
        lines.extend(f"  {_gen_text(g)}" for g in cls.evidence)
    else:
        lines.append("generators: none")
    return 0, report, lines


def _cmd_apply(path, args, T):
    F, basis = _as_real(_load_series(path))
    if T.k != F.k or T.N != F.N:
        raise InputError(f"map (k={T.k}, N={T.N}) and series "
                         f"(k={F.k}, N={F.N}) disagree")
    image = pushforward_series(F, T)
    srs_path = _out_base(path, args, "img") + ".srs"
    _write_text(srs_path, _serialize_in(image, basis))
    report = {"k": F.k, "N": F.N, "series_file": srs_path}
    return 0, report, [f"wrote {srs_path}"]


def _cmd_tube_equiv(args):
    F, _ = _as_real(_load_series(args.files[0]))
    G, _ = _as_real(_load_series(args.files[1]))
    w = tube_equivalent(F, G)
    if w is None:
        order = min(F.N, G.N)
        return 1, {"equivalent": False, "order": order}, \
            [f"INEQUIVALENT (order {order})"]
    c1, h1, delta, h2, c2 = w.factors
    report = {"equivalent": True, "order": w.N,
              "a": _real_json(w.a),
              "b": None if w.b is None else _real_json(w.b),
              "c": _real_json(w.c),
              "sign_ambiguous": w.sign_ambiguous,
              "factors": {"c1": format_rat(c1), "h1": format_rat(h1),
                          "delta": _real_json(delta),
                          "h2": format_rat(h2), "c2": format_rat(c2)}}
    lines = [f"EQUIVALENT (order {w.N})", f"a = {_real_text(w.a)}"]
    if w.b is None:
        p, q = w.b_parts
        report["b_parts"] = {"p": format_rat(p), "q": format_rat(q)}
        lines.append(f"b = p*a + q*a^k with p = {format_rat(p)}, "
                     f"q = {format_rat(q)}")
    else:
        lines.append(f"b = {_real_text(w.b)}")
    lines.append(f"c = {_real_text(w.c)}")
    if w.sign_ambiguous:
        lines.append("sign: ambiguous (the dilation -a works as well)")
    lines.append(f"factors: c1 = {format_rat(c1)}, h1 = {format_rat(h1)}, "
                 f"delta = {_real_text(delta)}, h2 = {format_rat(h2)}, "
                 f"c2 = {format_rat(c2)}")
    return 0, report, lines


# ------------------------------------------------------------- the parser

_JSON = (("--json",), {"action": "store_true",
                       "help": "emit a JSON report instead of text"})
_EACH = (("--each",), {"action": "store_true",
                       "help": "process several input files in one run"})
_OUT = (("--out",), {"metavar": "BASE",
                     "help": "output base path (.srs/.map appended); "
                             "required when reading stdin"})
_FILES = (("files",), {"nargs": "+", "metavar": "file"})

# name -> (help, per-file handler, arguments in the order help lists them);
# apply's handler also takes the parsed map, and tube-equiv, which reads its
# two files at once, has none
_COMMANDS = {
    "analyze": ("report k, essential type, L, tube verdicts", _cmd_analyze,
                (_FILES, _JSON, _EACH)),
    "tnormal": ("full normal form and the map to it", _cmd_tnormal,
                (_FILES,
                 (("--target-A",), {"dest": "target_A", "metavar": "p/q",
                                    "help": "prescribe the x^(2k-1) constant"}),
                 (("--target-B",), {"dest": "target_B", "metavar": "p/q",
                                    "help": "prescribe the x^(2k-1) y constant"}),
                 _JSON, _EACH, _OUT)),
    "rigid": ("normal form within the rigid class", _cmd_rigid,
              (_FILES, _JSON, _EACH, _OUT)),
    "nt": ("normal form within the y-independent class", _cmd_nt,
           (_FILES, _JSON, _EACH, _OUT)),
    "check": ("list violated normal form conditions", _cmd_check,
              ((("--form",), {"required": True, "choices": _FORMS}),
               _FILES, _JSON, _EACH)),
    "tube-equiv": ("decide equivalence of two tube graphs", None,
                   ((("files",), {"nargs": 2, "metavar": "file"}), _JSON)),
    "apply": ("push a series through a map file", _cmd_apply,
              ((("--map",), {"required": True, "dest": "mapfile",
                             "metavar": "mapfile"}),
               _FILES, _JSON, _EACH, _OUT)),
    "classify": ("symmetry class of the graph", _cmd_classify,
                 (_FILES, _JSON, _EACH)),
}


def _build_parser(command=None):
    """The crnf parser with the subparser of `command` alone, or with all of
    them when command is None."""
    p = argparse.ArgumentParser(
        prog="crnf",
        description="Exact normal forms, equivalence witnesses, and "
                    "symmetry classes for finite-type hypersurface graphs.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            sp.set_defaults(handler=handler, out=None)
            for flags, kwargs in arguments:
                sp.add_argument(*flags, **kwargs)
    return p


# the exit code of each error reported as "error: <message>"
_EXIT_CODES = {InternalError: 4, SingularSystemError: 3, InputError: 2}


def _exit_code(exc) -> int:
    return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def _dispatch(args):
    """List of (label, exit code, report, text lines), one per input."""
    if args.command == "tube-equiv":
        code, report, lines = _cmd_tube_equiv(args)
        return [(None, code, report, lines)]
    handler = args.handler
    if args.command == "apply":
        T = parse_map(_read_text(args.mapfile))
        handler = lambda path, args: _cmd_apply(path, args, T)
    if len(args.files) > 1 and not args.each:
        raise InputError("several input files need --each")
    if args.each and args.out is not None and len(args.files) > 1:
        raise InputError("--out conflicts with --each; "
                         "outputs use per-file default names")
    entries = []
    for path in args.files:
        if args.each:
            try:
                code, report, lines = handler(path, args)
            except tuple(_EXIT_CODES) as exc:
                code, report, lines = (_exit_code(exc), {"error": str(exc)},
                                       [f"error: {exc}"])
            entries.append((path, code, report, lines))
        else:
            entries.append((None,) + handler(path, args))
    return entries


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argv led by a command name needs that command's subparser alone; any
    # other argv (help, no command, an unknown one, an option first) gets
    # them all, so argparse words its help and errors as always
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        entries = _dispatch(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    try:
        _print_entries(entries, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: what is left goes to devnull, so
        # that the flush at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return max(code for (_, code, _, _) in entries)


def _print_entries(entries, as_json):
    if as_json:
        # imported here: a call without --json does not pay for it
        import json
        if entries[0][0] is None:
            print(json.dumps(entries[0][2], indent=2))
        else:
            print(json.dumps([{"file": label, **report}
                              for (label, _, report, _) in entries], indent=2))
    else:
        for label, _, _, lines in entries:
            if label is not None:
                print(f"== {label} ==")
            for line in lines:
                print(line)


if __name__ == "__main__":
    sys.exit(main())
