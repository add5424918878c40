"""Command line front end.

Verbs: convert, enumerate, verify, whitney, mobius, render.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 invalid input object.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from typing import Optional, Sequence

from . import checks, diagram, forest, network, perm, poset

HARD_MAX_N = 9
HARD_MAX_EPS = 10
HARD_MAX_CONVERT_N = 2048

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INVALID = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def load_config(path: Optional[str]) -> dict[str, int]:
    """key=value lines; unknown keys ignored, hard ceilings enforced."""
    caps = {"max_n": network.DEFAULT_CAP, "max_eps_len": 8}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#") or "=" not in line:
                        continue
                    key, _, value = line.partition("=")
                    key = key.strip()
                    if key in caps:
                        caps[key] = int(value.strip())
        except OSError as exc:
            raise CliError(f"cannot read config {path}: {exc}", EXIT_USAGE) from exc
        except ValueError as exc:
            raise CliError(f"bad config value in {path}: {exc}", EXIT_USAGE) from exc
    caps["max_n"] = min(caps["max_n"], HARD_MAX_N)
    caps["max_eps_len"] = min(caps["max_eps_len"], HARD_MAX_EPS)
    return caps


def _parse_eps(text: str, for_poset: bool, out, cap=None) -> network.Signature:
    eps = network.parse_signature(text)
    stripped = network.strip_neutral(eps) if for_poset else eps
    if cap is not None and len(stripped) > cap:
        raise CliError("signature exceeds cap", EXIT_USAGE)
    if stripped != eps:
        out.write("note: neutral points stripped from signature\n")
    return stripped


def _lattice_cap(caps) -> int:
    """The lattice verbs' length limit: ``max_eps_len``, never past the
    enumeration cap.  ``mobius`` and the suites build N^2/8 bytes of order
    masks for N elements, 13.5 GB for the 329,462 of +++++-----; ``render
    --poset`` builds none but writes 1.48 MB of DOT for the 6,902 of ++++----."""
    return min(caps["max_eps_len"], network.DEFAULT_CAP)


def _forest_eps(args, net: network.Network, out) -> network.Signature:
    if args.eps:
        return _parse_eps(args.eps, True, out)
    sig = network.signature_of(net)
    if 0 in sig:
        raise CliError("network has neutral points; pass --eps with a + or - at each "
                       f"of its {net.n} points to fix the forest shape")
    return sig


def _check_degree(n: int, verb: str = "convert") -> None:
    if n > HARD_MAX_CONVERT_N:
        raise CliError(f"degree {n} exceeds the {verb} limit {HARD_MAX_CONVERT_N}", EXIT_USAGE)


def cmd_convert(args, out, caps) -> int:
    """Every source is checked against ``HARD_MAX_CONVERT_N`` once parsed,
    before anything of its degree's size is built or written.  A
    polyomino's degree is the length of its word, which is read off
    before the peel runs: the peel costs strips times cells."""
    src, dst = args.source, args.target
    value = args.value
    if args.eps is not None and dst != "forest":
        raise CliError("--eps applies only with --to forest", EXIT_USAGE)
    if src == "perm":
        word = perm.parse_word(value)
        _check_degree(len(word))
        if dst == "polyomino":  # the network round trip is the identity
            poly = diagram.rothe_diagram(perm.inverse(word))
            out.write(diagram.polyomino_to_json(poly) + "\n")
            return EXIT_OK
        net = network.from_permutation(word)
    elif src == "network":
        net = network.parse_network(value)
        _check_degree(net.n)
    elif src == "polyomino":
        poly = diagram.polyomino_from_json(value)
        word = diagram.polyomino_permutation(poly)
        _check_degree(len(word))
        if dst == "perm":
            out.write(perm.format_word(word) + "\n")
            return EXIT_OK
        net = network.validate(len(word), diagram.polyomino_edges(poly))
    else:
        f = forest.forest_from_json(value)
        _check_degree(len(f.eps))
        if dst == "perm":
            out.write(perm.format_word(forest.strand_permutation(f)) + "\n")
            return EXIT_OK
        net = forest.to_network(f)

    if dst == "network":
        out.write(network.format_network(net) + "\n")
    elif dst == "perm":
        out.write(perm.format_word(network.to_permutation(net)) + "\n")
    elif dst == "forest":
        notes = io.StringIO()  # written only once the forest is built
        f = forest.from_network(net, _forest_eps(args, net, notes))
        out.write(notes.getvalue() + forest.forest_to_json(f) + "\n")
    else:
        word = perm.inverse(network.to_permutation(net))
        poly = diagram.rothe_diagram(word)
        out.write(diagram.polyomino_to_json(poly) + "\n")
    return EXIT_OK


def cmd_enumerate(args, out, caps) -> int:
    if args.n is not None and args.eps is not None:
        raise CliError("enumerate takes --n or --eps, not both", EXIT_USAGE)
    if args.eps is not None:
        eps = _parse_eps(args.eps, False, out)
        n = len(eps)
    else:
        eps = None
        n = args.n
    if n is None:
        raise CliError("enumerate needs --n or --eps", EXIT_USAGE)
    if n < 0:
        raise CliError(f"n={n} is negative", EXIT_USAGE)
    if n > caps["max_n"]:
        raise CliError(f"n={n} exceeds cap {caps['max_n']}", EXIT_USAGE)
    if eps is None:  # the word scan is the bijection itself
        nets = network.enumerate_networks(n, cap=caps["max_n"])
    else:
        nets = poset.signature_networks(eps)
    for net in nets:
        out.write(network.format_network(net) + "\n")
    out.write(f"total={len(nets)}\n")
    return EXIT_OK


def cmd_verify(args, out, caps) -> int:
    if args.eps is not None:
        try:
            eps = network.strip_neutral(network.parse_signature(args.eps))
        except network.NetworkError:
            eps = ()  # run_suite reports bad text once it knows the suite takes --eps
        if len(eps) > _lattice_cap(caps):
            raise CliError("signature exceeds cap", EXIT_USAGE)
    try:
        results = checks.run_suite(args.suite, n=args.n, eps=args.eps, bound=args.bound)
    except checks.BoundError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    failed = False
    for res in results:  # each line is written as its check completes
        out.write(res.line() + "\n")
        out.flush()
        failed = failed or not res.passed
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_whitney(args, out, caps) -> int:
    eps = _parse_eps(args.eps, True, out, caps["max_eps_len"])
    coeffs = poset.whitney_direct(eps)
    rec = poset.whitney_recurrence(eps)
    if coeffs != rec:
        out.write("FAIL recurrence disagrees with direct count\n")
        return EXIT_VERIFY
    label = network.format_signature(eps)
    out.write(f"W({label}) = {poset.poly_format(coeffs)}\n")
    out.write(f"coeffs={list(coeffs)}\n")
    return EXIT_OK


def cmd_mobius(args, out, caps) -> int:
    eps = _parse_eps(args.eps, True, out, _lattice_cap(caps))
    lat = poset.build_lattice(eps)
    values = {}
    for y in range(len(lat.elements)):
        mu = lat.mobius_recursive(lat.bottom, y)
        values[mu] = values.get(mu, 0) + 1
    top_mu = lat.mobius_recursive(lat.bottom, lat.top)
    out.write(f"elements={len(lat.elements)}\n")
    out.write(f"mobius(bottom, top)={top_mu}\n")
    for v in sorted(values):
        out.write(f"count mobius(bottom, y)={v}: {values[v]}\n")
    return EXIT_OK


# The formats each render source writes.
RENDER_FORMATS = {"poset": ("text", "dot"), "network": ("text", "json"),
                  "polyomino": ("text", "json", "cells"), "forest": ("text", "json")}


def cmd_render(args, out, caps) -> int:
    """argparse admits exactly one source; a format that source does not
    write is refused before the object is read."""
    source = next(s for s in RENDER_FORMATS if getattr(args, s) is not None)
    if args.format not in RENDER_FORMATS[source]:
        raise CliError(f"--format {args.format} does not apply to --{source}; "
                       f"use {' or '.join(RENDER_FORMATS[source])}", EXIT_USAGE)
    if source == "poset":
        eps = _parse_eps(args.poset, True, out, _lattice_cap(caps))
        poset.write_hasse(eps, args.format, out)
    elif source == "network":
        net = network.parse_network(args.network)
        if args.format == "json":
            out.write(network.network_to_json(net) + "\n")
        else:
            _check_degree(net.n, "render")  # the sign line has a mark per point
            marks = {1: "+", -1: "-", 0: "."}
            sig = network.signature_of(net)
            out.write(" ".join(marks[v] for v in sig) + "\n")
            out.write(network.format_network(net) + "\n")
    elif source == "polyomino":
        poly = diagram.polyomino_from_json(args.polyomino)
        if args.format == "json":
            out.write(diagram.polyomino_to_json(poly) + "\n")
        else:  # only the drawings need labels
            if args.format == "text":  # the grid spans every row and column up to the cells
                far = max((max(cell) for cell in poly.cells), default=0)
                if far > HARD_MAX_CONVERT_N:
                    raise CliError(f"cell coordinate {far} exceeds the render limit "
                                   f"{HARD_MAX_CONVERT_N}", EXIT_USAGE)
            lp = diagram.label_polyomino(poly) if poly.cells else None
            draw = diagram.cell_dump if args.format == "cells" else diagram.render_polyomino
            out.write(draw(poly, lp) + "\n")
    else:
        f = forest.forest_from_json(args.forest)
        if args.format == "json":
            out.write(forest.forest_to_json(f) + "\n")
        else:
            _check_degree(len(f.eps), "render")  # the drawing has a box per cell
            out.write(forest.render_forest(f) + "\n")
    return EXIT_OK


VERBS = {"convert": cmd_convert, "enumerate": cmd_enumerate, "verify": cmd_verify,
         "whitney": cmd_whitney, "mobius": cmd_mobius, "render": cmd_render}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept for the life
    of the process: ``parse_args`` returns a fresh namespace every call
    and the defaults live on the actions, so no call sees another's."""
    ap = argparse.ArgumentParser(
        prog="permnet",
        description="Networks, permutations, cell diagrams, forests, and their lattice.",
    )
    ap.add_argument("--config", help="key=value caps file")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--from", dest="source", required=True,
                   choices=["perm", "network", "polyomino", "forest"])
    p.add_argument("--to", dest="target", required=True,
                   choices=["perm", "network", "polyomino", "forest"])
    p.add_argument("--eps", help="signature for forest targets")
    p.add_argument("value", help="input object (text or JSON per format)")

    p = sub.add_parser("enumerate", help="list all networks for n or a signature")
    p.add_argument("--n", type=int)
    p.add_argument("--eps")

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True,
                   choices=["bijection", "polyomino", "rothe", "forest",
                            "lattice", "whitney", "mobius", "el", "all"])
    p.add_argument("--n", type=int)
    p.add_argument("--eps")
    p.add_argument("--bound", type=int)

    p = sub.add_parser("whitney", help="rank generating polynomial of a signature")
    p.add_argument("--eps", required=True)

    p = sub.add_parser("mobius", help="Mobius values from the bottom element")
    p.add_argument("--eps", required=True)

    p = sub.add_parser("render", help="text/DOT renderings")
    sources = p.add_mutually_exclusive_group(required=True)
    for source in RENDER_FORMATS:
        sources.add_argument(f"--{source}")
    p.add_argument("--format", default="text", choices=["text", "json", "dot", "cells"])
    return ap


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for key, value in vars(args).items():
        if value == []:  # argparse up to Python 3.11 reads --eps=-- as []
            setattr(args, key, "--")
    try:
        caps = load_config(args.config)
        return VERBS[args.verb](args, out, caps)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except checks.LIBRARY_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
