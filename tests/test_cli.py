import io
import json
import sys
import time
import tracemalloc

import pytest

from gfcanon import CanonicalSum, KroneckerForm, ParseError, SpatialMatrix, TransformWitness, apply_transform, cli
from gfcanon.cli import main

A_GF5 = json.dumps(
    {"p": 5, "dims": [2, 2, 2], "slices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
)
SINGULAR_GF2 = json.dumps(
    {"p": 2, "dims": [2, 2, 2], "slices": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
)


def run(capsys, *args):
    code = 0
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_canonicalize_round_trip(capsys):
    code, out, err = run(capsys, "canonicalize", A_GF5, "--witness")
    assert code == 0 and err == ""
    doc = json.loads(out)
    a = SpatialMatrix.from_dict(json.loads(A_GF5))
    w = TransformWitness.from_dict(doc["witness"])
    target = SpatialMatrix.from_dict(doc["tensor"])
    assert apply_transform(a, w) == target
    # emitted documents re-parse to identical values
    assert TransformWitness.from_dict(doc["witness"]).to_dict() == doc["witness"]
    assert SpatialMatrix.from_dict(doc["tensor"]).to_dict() == doc["tensor"]


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", A_GF5)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "A" and doc["v"] == 1 and doc["p"] == 5


def test_classify_gf2_b_family(capsys):
    d11 = json.dumps(
        {"p": 2, "dims": [2, 2, 2], "slices": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]}
    )
    code, out, _ = run(capsys, "classify", d11)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "B" and doc["v"] == 1


def test_equiv_same_tensor_identity_witness(capsys):
    code, out, _ = run(capsys, "equiv", A_GF5, A_GF5, "--witness")
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["witness"]["R"] == [[1, 0], [0, 1]]
    assert doc["witness"]["S"] == [[1, 0], [0, 1]]
    assert doc["witness"]["T"] == [[1, 0], [0, 1]]


def test_equiv_false(capsys):
    b = json.dumps(
        {"p": 5, "dims": [2, 2, 2], "slices": [[[1, 0], [0, 1]], [[0, 2], [1, 0]]]}
    )
    code, out, _ = run(capsys, "equiv", A_GF5, b)
    assert code == 0
    assert json.loads(out) == {"equivalent": False}


def test_kronecker_blocks(capsys):
    code, out, _ = run(capsys, "kronecker", A_GF5)
    assert code == 0
    doc = json.loads(out)
    assert doc["right"] == [] and doc["left"] == [] and doc["inf"] == []
    assert doc["finite"] == [[4, 1], [1, 1]]


def test_regular_part_extracts_corner(capsys):
    padded = json.dumps(
        {
            "p": 3,
            "dims": [2, 2, 2],
            "slices": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        }
    )
    code, out, _ = run(capsys, "regular-part", padded, "--witness")
    assert code == 0
    doc = json.loads(out)
    assert doc["regular_part"]["dims"] == [1, 1, 1]
    assert "witness" in doc


def test_orbit_lines(capsys):
    code, out, _ = run(capsys, "orbit", "--p", "2", "--shape", "2x2x2")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().split("\n")]
    assert len(lines) == 8
    assert sum(l["size"] for l in lines) == 256
    assert lines[0]["representative"]["slices"] == [
        [[0, 0], [0, 0]],
        [[0, 0], [0, 0]],
    ]


def test_list_canonical(capsys):
    code, out, _ = run(capsys, "list-canonical", "--p", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().split("\n")]
    labels = [(l["label"], l.get("v")) for l in lines]
    assert labels.count(("A", 0)) == 1
    assert ("A", 1) in labels and ("A", 2) in labels
    assert all("tensor" in l for l in lines)


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(
        cli._Parser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
    )
    first = run(capsys, "canonicalize", A_GF5, "--witness")
    count = len(built)
    assert first[0] == 0 and run(capsys, "canonicalize", A_GF5, "--witness") == first
    code, out, err = run(capsys, "canonicalize", A_GF5, "--no-such-flag")
    assert code == 1 and out == "" and json.loads(err)["error"] == "UsageError"
    assert run(capsys, "canonicalize", A_GF5, "--witness") == first
    assert len(built) == count


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(A_GF5))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0 and json.loads(out)["label"] == "A"


# -- failure modes ------------------------------------------------------------


def test_parse_errors_exit_1(capsys, monkeypatch, tmp_path):
    # invalid UTF-8, an integer past CPython's int-string digit limit, and
    # arrays nested past the recursion limit, as a file, inline and on stdin
    bad = {
        "utf8": b'{"p": 5, "dims": [1, 1, 1], "slices": [[[\xff]]]}',
        "digits": b'{"p": 5, "dims": [1, 1, 1], "slices": [[[' + b"7" * 5000 + b"]]]}",
        "nesting": b"[" * 100_000 + b"]" * 100_000,
    }
    for name, raw in bad.items():
        (tmp_path / name).write_bytes(raw)
    cases = [
        ("canonicalize", "{broken"),
        ("canonicalize", "/no/such/file.json"),
        ("classify", A_GF5, "--p", "7"),
        ("orbit", "--p", "2", "--shape", "2x2"),
        ("no-such-verb",),
    ]
    cases += [("canonicalize", str(tmp_path / name)) for name in bad]
    cases += [("canonicalize", bad[name].decode()) for name in ("digits", "nesting")]
    cases += [("canonicalize", "-", raw) for raw in bad.values()]
    for args in cases:
        if args[1:2] == ("-",):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(args[2]), encoding="utf-8"))
            args = args[:2]
        code, out, err = run(capsys, *args)
        assert code == 1 and out == "", args[:2]
        assert json.loads(err)["error"]


@pytest.mark.parametrize(
    "doc",
    [
        {"p": 5, "dims": [1, 1, 1], "slices": [[[1.7]]]},
        {"p": 5, "dims": [1, 1, 1], "slices": [[[True]]]},
        {"p": 5, "dims": [1, 1, 1], "slices": [[["3"]]]},
        {"p": 5, "dims": ["1", 1, 1], "slices": [[[1]]]},
        {"p": 5, "dims": [1, 1, True], "slices": [[[1]]]},
        {"p": 5, "dims": [2, -1, 0], "slices": []},
    ],
)
def test_strict_tensor_document_exit_1(capsys, doc):
    # floats, bools and numeric strings are refused, never reduced mod p
    code, out, err = run(capsys, "regular-part", json.dumps(doc))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_inline_json_array_is_not_a_path(capsys):
    code, out, err = run(capsys, "regular-part", "[1,2]")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and "No such file" not in doc["message"]


@pytest.mark.parametrize(
    "parse, doc",
    [
        (TransformWitness.from_dict, {"p": 5, "R": [[1.0]], "S": [[1]], "T": [[1]]}),
        (TransformWitness.from_dict, {"p": 5, "R": [[1]], "S": [[True]], "T": [[1]]}),
        (TransformWitness.from_dict, {"p": 5, "R": [[1]], "S": [[1]], "T": [["1"]]}),
        (CanonicalSum.from_dict, {"p": 5, "right": [True], "left": [], "finite": []}),
        (CanonicalSum.from_dict, {"p": 5, "right": [], "left": ["2"], "finite": []}),
        (CanonicalSum.from_dict, {"p": 5, "right": [], "left": [], "finite": [[1.5, 1]]}),
        (KroneckerForm.from_dict, {"p": 5, "right": [2.0], "left": [], "inf": [], "finite": []}),
        (KroneckerForm.from_dict, {"p": 5, "right": [], "left": [], "inf": [True], "finite": []}),
        (KroneckerForm.from_dict, {"p": 5, "right": [], "left": [], "inf": [], "finite": [["3", 1]]}),
        (KroneckerForm.from_dict, {"p": 5, "right": [], "left": [], "inf": [0], "finite": []}),
        (CanonicalSum.from_dict, {"p": 5, "right": [-3], "left": [], "finite": []}),
        (CanonicalSum.from_dict, {"p": 5, "right": [], "left": [0], "finite": []}),
        (CanonicalSum.from_dict, {"p": 5, "right": [], "left": [], "finite": [[1, 2]]}),
        (CanonicalSum.from_dict, {"p": 5, "right": [], "left": [], "finite": [[3]]}),
        (KroneckerForm.from_dict, {"p": 5, "right": [], "left": [], "inf": [], "finite": [[1, 2]]}),
    ],
)
def test_strict_witness_and_label_documents(parse, doc):
    with pytest.raises(ParseError):
        parse(doc)


def test_not_prime_exit_1(capsys):
    bad = json.dumps({"p": 6, "dims": [1, 1, 1], "slices": [[[1]]]})
    code, _, err = run(capsys, "classify", bad)
    assert code == 1
    assert json.loads(err)["error"] == "NotPrimeError"


def test_not_regular_exit_2_with_ranks(capsys):
    code, _, err = run(capsys, "classify", SINGULAR_GF2)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "NotRegularError"
    assert doc["ranks"] == [1, 1, 1]


def test_wrong_slice_count_exit_2(capsys):
    one = json.dumps({"p": 2, "dims": [1, 1, 1], "slices": [[[1]]]})
    for verb in ("canonicalize", "kronecker"):
        code, _, err = run(capsys, verb, one)
        assert code == 2
        assert json.loads(err)["error"] == "WrongSliceCountError"


def test_budget_exit_2(capsys):
    code, _, err = run(capsys, "orbit", "--p", "3", "--shape", "3x3x3")
    assert code == 2
    assert json.loads(err)["error"] == "BudgetExceededError"


def test_orbit_budget_exit_2_at_large_p(capsys):
    # divisors (x - 1)(x + 1): two anchors, 2 p (p - 1) mixes at p = 2^31 - 1
    p = 2**31 - 1
    doc = json.dumps({"p": p, "dims": [2, 2, 2], "slices": [[[1, 0], [0, 1]], [[1, 0], [0, p - 1]]]})
    main(["canonicalize", A_GF5])  # builds the parser off the clock
    capsys.readouterr()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run(capsys, "canonicalize", doc)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and seconds < 0.5 and peak < 2**20
    diag = json.loads(err)
    assert diag["error"] == "BudgetExceededError"
    assert "orbit" in diag["message"] and str(2 * p * (p - 1)) in diag["message"]


def test_field_too_small_exit_2_with_blocks(capsys):
    stuck = json.dumps(
        {
            "p": 2,
            "dims": [3, 3, 2],
            "slices": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 1, 1], [0, 0, 1]],
            ],
        }
    )
    code, _, err = run(capsys, "canonicalize", stuck)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "FieldTooSmallError"
    assert doc["blocks"]["inf"] == [1]
    assert doc["blocks"]["finite"] == [[0, 1], [1, 1]]


def test_seed_flag_is_gone(capsys):
    # factoring always uses its own fixed seed, so no flag reaches it
    code, out, err = run(capsys, "canonicalize", A_GF5, "--seed", "3")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"
