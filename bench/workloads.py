"""How each workload calls the package, records an outcome and checks it.

A workload object has four parts:

* ``prepare(op)`` turns an operation's plain-int inputs into the arguments
  of the call (package objects are built here, off the clock);
* ``invoke(args)`` is the timed call;
* ``outcome(op, result)`` turns the call's result, or the exception it
  raised, into a JSON-able record;
* ``check(ops, outcomes)`` runs the independent checks and returns one list
  of problems per operation.

``golden_view(outcome)`` is the part of an outcome that the golden record
stores and that must match it exactly.
"""

from __future__ import annotations

import contextlib
import io
import json

import gf


def _is_monic(c):
    return bool(c) and c[-1] == 1


def _witness_problems(w, p, dims):
    probs = []
    for key, d in zip("RST", dims):
        mat = w.get(key)
        if not isinstance(mat, list) or len(mat) != d or any(len(r) != d for r in mat):
            probs.append(f"witness {key} is not {d}x{d}")
        elif not gf.is_invertible(mat, p):
            probs.append(f"witness {key} is singular")
    return probs


def check_transform(src, dst, w, p):
    """Problems with w as a witness that (R, S, T) carries src onto dst."""
    m, n, q = len(src[0]), len(src[0][0]), len(src)
    probs = _witness_problems(w, p, (m, n, q))
    if not probs and gf.apply_triple(src, w["R"], w["S"], w["T"], p) != dst:
        probs.append("witness does not reproduce the target")
    return probs


def label_tensor(label):
    b1, b2, m, n = gf.pencil_blocks(
        {"right": label["right"], "left": label["left"], "finite": label["finite"]},
        label["p"],
    )
    return [b1, b2], m, n


def check_label(slices, label, witness, p):
    """A label is well formed and the witness carries the input onto the
    label's block tensor."""
    if label.get("p") != p:
        return ["label names the wrong field"]
    if any(not _is_monic(c) for c in label["finite"]):
        return ["label has a non-monic divisor"]
    target, m, n = label_tensor(label)
    if (m, n) != (len(slices[0]), len(slices[0][0])):
        return [f"label tensor is {m}x{n}, input is {len(slices[0])}x{len(slices[0][0])}"]
    return check_transform(slices, target, witness, p)


def _multiset(form):
    return {
        "right": sorted(form["right"]),
        "left": sorted(form["left"]),
        "inf": sorted(form["inf"]),
        "finite": sorted(tuple(c) for c in form["finite"]),
    }


class LabelCensus:
    name = "label-census"
    # per-p caches the calls fill: pgl2_reps for every field
    pgl_primes = (3, 5, 7, 13)
    catalog_primes = ()

    def __init__(self, gfc):
        self.gfc = gfc

    def prepare(self, op):
        fld = self.gfc.PrimeField(op["p"])
        return (self.gfc.SpatialMatrix(fld, op["slices"], op["m"], op["n"]),)

    def invoke(self, args):
        return self.gfc.spatial.canonical_label(*args)

    def outcome(self, op, result):
        if isinstance(result, BaseException):
            return {"raised": type(result).__name__, "message": str(result)}
        cs, w = result
        return {"label": cs.to_dict(), "witness": w.to_dict()}

    @staticmethod
    def golden_view(out):
        return out.get("label") or {"raised": out["raised"]}

    def check(self, ops, outs):
        probs = [[] for _ in ops]
        labels_of_base = {}
        for i, (op, out) in enumerate(zip(ops, outs)):
            if op["refuse"]:
                if out.get("raised") != "FieldTooSmallError":
                    probs[i].append(f"expected FieldTooSmallError, got {self.golden_view(out)}")
                continue
            if "raised" in out:
                probs[i].append(f"raised {out['raised']}: {out['message']}")
                continue
            probs[i] += check_label(op["slices"], out["label"], out["witness"], op["p"])
            labels_of_base.setdefault(op["base"], []).append((i, out["label"]))
        for group in labels_of_base.values():
            first = group[0][1]
            for i, lab in group[1:]:
                if lab != first:
                    probs[i].append("presentations of one base tensor got different labels")
        return probs


class PencilSweep:
    name = "pencil-sweep"
    pgl_primes = ()
    catalog_primes = ()

    def __init__(self, gfc):
        self.gfc = gfc

    def prepare(self, op):
        fld = self.gfc.PrimeField(op["p"])
        n = len(op["a1"][0])
        return (self.gfc.Matrix(fld, op["a1"], n), self.gfc.Matrix(fld, op["a2"], n))

    def invoke(self, args):
        return self.gfc.pencil.kronecker_form(*args)

    def outcome(self, op, result):
        if isinstance(result, BaseException):
            return {"raised": type(result).__name__, "message": str(result)}
        form, w = result
        return {
            "form": form.to_dict(),
            "R": [list(r) for r in w.r.rows],
            "S": [list(r) for r in w.s.rows],
        }

    @staticmethod
    def golden_view(out):
        return out.get("form") or {"raised": out["raised"]}

    def check(self, ops, outs):
        probs = [[] for _ in ops]
        for i, (op, out) in enumerate(zip(ops, outs)):
            p = op["p"]
            if "raised" in out:
                probs[i].append(f"raised {out['raised']}: {out['message']}")
                continue
            form = out["form"]
            if form["p"] != p or any(not _is_monic(c) for c in form["finite"]):
                probs[i].append("malformed form")
                continue
            b1, b2, m, n = gf.pencil_blocks(form, p)
            m0, n0 = len(op["a1"]), len(op["a1"][0])
            if (m, n) != (m0, n0):
                probs[i].append(f"form is {m}x{n}, pencil is {m0}x{n0}")
                continue
            w = {"R": out["R"], "S": out["S"], "T": [[1]]}
            probs[i] += _witness_problems(w, p, (m, n, 1))
            if not probs[i] and (gf.apply_pair(out["R"], out["S"], op["a1"], p) != b1
                                 or gf.apply_pair(out["R"], out["S"], op["a2"], p) != b2):
                probs[i].append("witness does not reproduce the block form")
            if op["planted"] is not None and _multiset(form) != _multiset(op["planted"]):
                probs[i].append("recovered form differs from the planted one")
        return probs


CATALOG_REPS = {
    "C1x1x1": lambda v: [[[1]]],
    "C2x2x1": lambda v: [[[1, 0], [0, 1]]],
    "C2x1x2": lambda v: [[[1], [0]], [[0], [1]]],
    "C1x2x2": lambda v: [[[1, 0]], [[0, 1]]],
    "A": lambda v: [[[1, 0], [0, 1]], [[0, v], [1, 0]]],
    "B": lambda v: [[[1, 0], [0, 1]], [[0, v], [1, 1]]],
    "C3x2x2_s2": lambda v: [[[1, 0], [0, 1], [0, 0]], [[0, 0], [0, 0], [0, 1]]],
    "C3x2x2_s3": lambda v: [[[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]]],
    "C4x2x2": lambda v: [[[1, 0], [0, 1], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 1]]],
}


class EquivCli:
    name = "equiv-cli"
    pgl_primes = (2, 3, 5)
    catalog_primes = (2, 3, 5)

    def __init__(self, gfc):
        self.gfc = gfc

    def prepare(self, op):
        return (op["argv"],)

    def invoke(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.gfc.cli.main(list(args[0]))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def outcome(self, op, result):
        if isinstance(result, BaseException):
            return {"raised": type(result).__name__, "message": str(result)}
        code, out, err = result
        rec = {"exit": code, "stdout": None, "stderr": None,
               "bytes_in": sum(len(a.encode()) for a in op["argv"]),
               "bytes_out": len(out.encode()) + len(err.encode())}
        try:
            rec["stdout"] = json.loads(out) if out.strip() else None
            rec["stderr"] = json.loads(err) if err.strip() else None
        except ValueError:
            rec["unparsed"] = True
        return rec

    @staticmethod
    def golden_view(out):
        if "raised" in out:
            return {"raised": out["raised"]}
        return {"exit": out["exit"], "stdout": out["stdout"],
                "error": (out["stderr"] or {}).get("error")}

    def check(self, ops, outs):
        return [self._check_one(op, out) for op, out in zip(ops, outs)]

    def _check_one(self, op, out):
        if "raised" in out:
            return [f"raised {out['raised']}: {out['message']}"]
        if out.get("unparsed"):
            return ["output is not one JSON document"]
        exp = op["expect"]
        if out["exit"] != exp["exit"]:
            return [f"exit {out['exit']}, expected {exp['exit']}: {out['stderr']}"]
        if exp["exit"] != 0:
            err = out["stderr"] or {}
            if err.get("error") != exp["error"]:
                return [f"error {err.get('error')}, expected {exp['error']}"]
            if "ranks" in exp and err.get("ranks") != exp["ranks"]:
                return [f"ranks {err.get('ranks')}, expected {exp['ranks']}"]
            return []
        doc = out["stdout"] or {}
        verb = op["argv"][0]
        tensors = op["tensors"]
        p = json.loads(op["argv"][1])["p"]
        if verb == "equiv":
            if doc.get("equivalent") is not exp["equivalent"]:
                return [f"equivalent={doc.get('equivalent')}, expected {exp['equivalent']}"]
            if exp["equivalent"]:
                return check_transform(tensors[0], tensors[1], doc.get("witness", {}), p)
            return []
        if verb == "canonicalize":
            label = doc.get("canonical", {})
            probs = check_label(tensors[0], label, doc.get("witness", {}), p)
            if not probs and doc.get("tensor", {}).get("slices") != label_tensor(label)[0]:
                probs.append("emitted tensor is not the label's block tensor")
            return probs
        if verb == "classify":
            kind = doc.get("label")
            if kind not in exp["kinds"]:
                return [f"class {kind}, expected one of {exp['kinds']}"]
            rep = CATALOG_REPS[kind](doc.get("v"))
            return check_transform(tensors[0], [[[x % p for x in r] for r in s] for s in rep],
                                   doc.get("witness", {}), p)
        if verb == "regular-part":
            corner = doc.get("regular_part", {})
            dims = corner.get("dims")
            if dims != exp["dims"]:
                return [f"corner dims {dims}, expected {exp['dims']}"]
            m, n, q = len(tensors[0][0]), len(tensors[0][0][0]), len(tensors[0])
            if gf.unfolding_ranks(corner["slices"], dims[0], dims[1], p) != tuple(dims):
                return ["corner is not regular"]
            return check_transform(tensors[0], gf.pad(corner["slices"], m, n, q),
                                   doc.get("witness", {}), p)
        return [f"unknown verb {verb}"]


WORKLOADS = {w.name: w for w in (LabelCensus, PencilSweep, EquivCli)}
