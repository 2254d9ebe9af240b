"""Command-line surface: JSON documents in, JSON documents out.

Results go to stdout, diagnostics to stderr as one structured JSON object.
Exit codes: 0 success, 1 parse/usage problem, 2 precondition violation
(not-regular input, wrong slice count, field too small, budget exceeded...).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    FieldTooSmallError,
    NotRegularError,
    ParseError,
    PreconditionError,
    WrongSliceCountError,
)
from .field import PrimeField
from .oracle import DEFAULT_BUDGET, orbit_partition
from .pencil import kronecker_form
from .spatial import (
    SpatialMatrix,
    canonical_label,
    classify_regular,
    equivalent,
    regular_part,
    theorem2_catalog,
)


def _fail(code: int, name: str, message: str, **extra) -> None:
    doc = {"error": name, "message": message}
    doc.update(extra)
    print(json.dumps(doc), file=sys.stderr)
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; route those through the parse-error
    # convention instead so exit 2 stays reserved for precondition violations
    def error(self, message):
        _fail(1, "UsageError", message)


def _load_doc(source: str) -> dict:
    try:
        if source == "-":
            return json.load(sys.stdin)
        if source.lstrip().startswith(("{", "[")):
            return json.loads(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers malformed JSON, invalid UTF-8 and integers past
    # CPython's int-string digit limit; RecursionError, nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read JSON from {source!r}: {exc}") from exc


def _load_tensor(source: str, p_flag: int | None) -> SpatialMatrix:
    a = SpatialMatrix.from_dict(_load_doc(source))
    if p_flag is not None and a.fld.p != p_flag:
        raise ParseError(f"document states p={a.fld.p}, --p asserts {p_flag}")
    return a


def _mat_rows(mat) -> list[list[int]]:
    return [list(r) for r in mat.rows]


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _cmd_canonicalize(args) -> int:
    a = _load_tensor(args.tensor, args.p)
    cs, w = canonical_label(a)
    out = {"canonical": cs.to_dict(), "tensor": cs.tensor().to_dict()}
    if args.witness:
        out["witness"] = w.to_dict()
    _emit(out)
    return 0


def _cmd_classify(args) -> int:
    a = _load_tensor(args.tensor, args.p)
    cls, w = classify_regular(a)
    out = cls.to_dict()
    if args.witness:
        out["witness"] = w.to_dict()
    _emit(out)
    return 0


def _cmd_equiv(args) -> int:
    a = _load_tensor(args.left, args.p)
    b = _load_tensor(args.right, args.p)
    ok, w = equivalent(a, b)
    out: dict = {"equivalent": ok}
    if ok and args.witness:
        out["witness"] = w.to_dict()
    _emit(out)
    return 0


def _cmd_kronecker(args) -> int:
    a = _load_tensor(args.tensor, args.p)
    if a.q != 2:
        raise WrongSliceCountError(f"pencil reduction needs 2 slices, got {a.q}")
    form, w = kronecker_form(a.slices[0], a.slices[1])
    out = form.to_dict()
    if args.witness:
        out["witness"] = {
            "p": a.fld.p,
            "R": _mat_rows(w.r),
            "S": _mat_rows(w.s),
        }
    _emit(out)
    return 0


def _cmd_regular_part(args) -> int:
    a = _load_tensor(args.tensor, args.p)
    corner, w = regular_part(a)
    out = {"regular_part": corner.to_dict()}
    if args.witness:
        out["witness"] = w.to_dict()
    _emit(out)
    return 0


def _parse_shape(text: str) -> tuple[int, int, int]:
    try:
        parts = [int(x) for x in text.lower().split("x")]
    except ValueError:
        parts = []
    if len(parts) != 3 or any(x < 0 for x in parts):
        raise ParseError(f"--shape wants MxNxQ, got {text!r}")
    return parts[0], parts[1], parts[2]


def _cmd_orbit(args) -> int:
    fld = PrimeField(args.p)
    dims = _parse_shape(args.shape)
    part = orbit_partition(fld, dims, budget=args.budget)
    for orb in part.orbits:
        _emit({"representative": orb.representative.to_dict(), "size": orb.size})
    return 0


def _cmd_list_canonical(args) -> int:
    fld = PrimeField(args.p)
    for cls in theorem2_catalog(fld):
        doc = cls.to_dict()
        doc["tensor"] = cls.representative().to_dict()
        _emit(doc)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # built once per process, on the first main() call, so importing stays
    # cheap; parse_args keeps no state between calls
    parser = _Parser(prog="gfcanon", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, witness=True):
        sp.add_argument("--p", type=int, default=None,
                        help="assert the document's modulus (never overrides)")
        if witness:
            sp.add_argument("--witness", action="store_true",
                            help="emit the transform certificate too")

    sp = sub.add_parser("canonicalize", help="canonical block-sum label of an m x n x 2 tensor")
    sp.add_argument("tensor", help="tensor document: path, inline JSON, or -")
    common(sp)
    sp.set_defaults(fn=_cmd_canonicalize)

    sp = sub.add_parser("classify", help="catalog class of a regular tensor with n <= 2, q <= 2")
    sp.add_argument("tensor")
    common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("equiv", help="decide equivalence of two tensors of equal dimensions")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp)
    sp.set_defaults(fn=_cmd_equiv)

    sp = sub.add_parser("kronecker", help="pencil block structure of a 2-slice tensor")
    sp.add_argument("tensor")
    common(sp)
    sp.set_defaults(fn=_cmd_kronecker)

    sp = sub.add_parser("regular-part", help="extract the maximal regular corner")
    sp.add_argument("tensor")
    common(sp)
    sp.set_defaults(fn=_cmd_regular_part)

    sp = sub.add_parser("orbit", help="exhaustive orbit table for a small shape (JSON lines)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--shape", required=True, help="MxNxQ, e.g. 2x2x2")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.set_defaults(fn=_cmd_orbit)

    sp = sub.add_parser("list-canonical", help="catalog of regular class representatives for GF(p)")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(fn=_cmd_list_canonical)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        _fail(1, type(exc).__name__, str(exc))
    except NotRegularError as exc:
        _fail(2, "NotRegularError", str(exc), ranks=list(exc.ranks))
    except FieldTooSmallError as exc:
        extra = {}
        if exc.blocks is not None:
            extra["blocks"] = exc.blocks.to_dict()
        _fail(2, "FieldTooSmallError", str(exc), **extra)
    except PreconditionError as exc:
        _fail(2, type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
