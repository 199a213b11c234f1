"""CLI behavior: subcommand outputs, schemas on stdin/files, exit codes."""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerflags
import eulerflags.cli as cli
from eulerflags.serialize import dump_bundle
from eulerflags.surfaces import genus_surface_bundle, rational_flat_rep

POINTS = {"n": 2, "points": [["1", "1"], ["1", "0"], ["0", "1"]]}
FLAGS4 = {"n": 2, "flags": [[["1", "0"], ["0", "1"]], [["2", "1"], ["1", "1"]],
                            [["1", "3"], ["-1", "1"]], [["5", "-2"], ["3", "1"]]]}


def _run(capsys, argv, stdin_doc=None, monkeypatch=None):
    if stdin_doc is not None:
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_doc)))
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_eval_pinned(tmp_path, capsys):
    p = tmp_path / "pts.json"
    p.write_text(json.dumps(POINTS))
    rc, out = _run(capsys, ["eval", "pcoc", str(p)])
    assert rc == 0 and out.strip() == "-1"
    rc, out = _run(capsys, ["eval", "smi", str(p)])
    assert rc == 0 and out.strip() == "1/4"
    rc, out = _run(capsys, ["eval", "sul", str(p)])
    assert rc == 0 and out.strip() == "0"


def test_eval_coboundaries(tmp_path, capsys):
    f = tmp_path / "flags.json"
    f.write_text(json.dumps(FLAGS4))
    for kind in ("dcoco", "dcoc"):
        rc, out = _run(capsys, ["eval", kind, str(f)])
        assert rc == 0 and out.strip() == "0"
    rc, out = _run(capsys, ["eval", "coco", str(f)])
    assert rc == 1  # coco needs n+1 flags, file has n+2


def test_eval_coc_modes(tmp_path, capsys):
    f = tmp_path / "three.json"
    f.write_text(json.dumps({"n": 2, "flags": FLAGS4["flags"][:3]}))
    rc, a = _run(capsys, ["eval", "coc", str(f)])
    rc2, b = _run(capsys, ["eval", "coc", str(f), "--mode", "naive"])
    assert rc == rc2 == 0 and a == b
    # the naive budget is fixed (2^20 terms), not an option
    rc, _ = _run(capsys, ["eval", "coc", str(f), "--budget-bits", "10"])
    assert rc == 1


def test_witness(capsys):
    rc, out = _run(capsys, ["witness", "obstruction", "--n", "4"])
    doc = json.loads(out)
    assert rc == 0 and doc["value"] == "-1" and len(doc["points"]) == 6
    rc, out = _run(capsys, ["witness", "coboundary-kill", "--n", "2"])
    doc = json.loads(out)
    assert rc == 0 and len(doc["matrices"]) == 3 and doc["fixings_verified"]
    rc, _ = _run(capsys, ["witness", "obstruction", "--n", "5"])
    assert rc == 1


def test_euler_subcommand(tmp_path, capsys):
    b = genus_surface_bundle(rational_flat_rep(), seed=1)
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(dump_bundle(b)))
    rc, out = _run(capsys, ["euler", str(p)])
    doc = json.loads(out)
    assert rc == 0 and doc["euler_number"] == 0 and doc["raw"] == "0"
    assert len(doc["per_simplex"]) == 72


def test_euler_rejects_float_transition(tmp_path, capsys):
    doc = dump_bundle(genus_surface_bundle(rational_flat_rep(), seed=1))
    doc["transitions"][0]["g"][0][0] = 1.0
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["euler", str(p)]) == 1
    assert capsys.readouterr().err.strip() == "error: not a rational: 1.0"


def test_euler_rejects_repeated_transition_pair(tmp_path, capsys):
    # (0, 1) listed first with another matrix: refused, not overwritten
    doc = _bundle_doc()
    doc["transitions"].insert(0, {"i": 0, "j": 1,
                                  "g": [["5", "0"], ["0", "1/5"]]})
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["euler", str(p)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: transition pair (0, 1) is repeated\n"


@pytest.mark.parametrize("field, value, message", [
    ("c", 1.7, "chain coefficient"),
    ("vertices", 34.9, "vertex count"),
    ("v", [0, 1, "x"], "simplex vertex"),
])
def test_euler_rejects_non_integer_combinatorics(tmp_path, capsys, field, value,
                                                 message):
    doc = dump_bundle(genus_surface_bundle(rational_flat_rep(), seed=1))
    (doc if field == "vertices" else doc["simplices"][0])[field] = value
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["euler", str(p)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {message} must be an integer")


def test_realize_round_trip(tmp_path, capsys, monkeypatch):
    rc, out = _run(capsys, ["realize", "-"], stdin_doc=FLAGS4,
                   monkeypatch=monkeypatch)
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and len(doc["points"]) == 4


def test_itu_subcommand(tmp_path, capsys):
    p = tmp_path / "gs.json"
    p.write_text(json.dumps({"n": 2, "gs": [[[1, 0], [0, 1]]] * 3}))
    rc, out = _run(capsys, ["itu", "--gs", str(p), "--samples", "5000"])
    doc = json.loads(out)
    assert rc == 0 and abs(doc["mean"]) <= 3 * doc["stderr"] + 1e-12
    assert doc["samples"] == 5000 and doc["resampled"] >= 0
    # the file's n is checked against the matrix shape; --n is not an option
    rc, _ = _run(capsys, ["itu", "--gs", str(p), "--samples", "10",
                          "--n", "4"])
    assert rc == 1


def _put(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _bundle_doc():
    return dump_bundle(genus_surface_bundle(rational_flat_rep(), seed=1))


GS = {"n": 2, "gs": [[[1, 0], [0, 1]]] * 3}
_ARGV = {"euler": ["euler", "-"], "eval": ["eval", "pcoc", "-"],
         "realize": ["realize", "-"],
         "itu": ["itu", "--gs", "-", "--samples", "10"]}
MALFORMED = [
    ("euler", ["n"], 2.0), ("euler", ["n"], "2"), ("euler", ["n"], None),
    ("euler", ["simplices", 0, "v"], 5), ("euler", ["simplices", 0, "v"], None),
    ("euler", ["section"], 5), ("euler", ["simplices"], 5),
    ("euler", ["transitions"], 5), ("euler", ["transitions", 0, "i"], [0]),
    ("euler", ["tol"], 1e-9),
    ("eval", ["points"], 5), ("eval", ["n"], 2.0),
    ("eval", ["points", 0, 0], "1e3000000"),  # refused before Fraction parses it
    ("realize", ["n"], 2.0), ("realize", ["flags"], [5, 5, 5, 5]),
    ("itu", ["gs", 0], [[1, 0], [0, "a"]]), ("itu", ["gs"], 5),
    ("itu", ["gs", 0], [[None, 0], [0, 1]]), ("itu", ["n"], 2.0),
    ("itu", ["gs", 0], [["1", "0"], ["0", "1"]]),
    ("itu", ["gs", 0], [["1_0", 0], [0, 1]]),
    ("itu", ["gs", 0], [[True, False], [False, True]]),
]


@pytest.mark.parametrize("command, path, value", MALFORMED,
                         ids=[f"{c}-{'.'.join(map(str, p))}={v!r}"
                              for c, p, v in MALFORMED])
def test_malformed_input_is_one_error_line(capsys, monkeypatch, command, path,
                                           value):
    # an exception other than InputError would escape cli.main and fail here
    base = {"euler": _bundle_doc, "eval": lambda: POINTS,
            "realize": lambda: FLAGS4, "itu": lambda: GS}[command]()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_put(base, path, value))))
    rc = cli.main(_ARGV[command])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


# malformed calls on well-formed input: --mode means something only to coc
# and dcoc, and every other kind refuses it, either mode
_POINTS4 = {"n": 2, "points": POINTS["points"] + [["2", "-1"]]}
_EVAL_DOCS = {"pcoc": POINTS, "sul": POINTS, "smi": POINTS, "dpcoc": _POINTS4,
              "dsul": _POINTS4, "coco": {"n": 2, "flags": FLAGS4["flags"][:3]},
              "dcoco": FLAGS4}
MALFORMED_ARGV = [(kind, ["eval", kind, "-", "--mode", mode])
                  for kind in _EVAL_DOCS for mode in ("naive", "factorized")]


@pytest.mark.parametrize("kind, argv", MALFORMED_ARGV,
                         ids=[" ".join(argv) for _, argv in MALFORMED_ARGV])
def test_malformed_call_is_one_error_line(capsys, monkeypatch, kind, argv):
    rc, out = _run(capsys, argv[:3], _EVAL_DOCS[kind], monkeypatch)
    assert rc == 0 and out  # the input is fine without the option
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_EVAL_DOCS[kind])))
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"error: --mode applies only to coc and dcoc, not {kind}\n"


def test_eval_coc_mode_defaults_to_factorized(capsys, monkeypatch):
    modes = []
    coc = cli.coc
    monkeypatch.setattr(cli, "coc", lambda Fs, mode: modes.append(mode) or coc(Fs, mode=mode))
    for kind, doc in (("coc", _EVAL_DOCS["coco"]), ("dcoc", _EVAL_DOCS["dcoco"])):
        for mode in ([], ["--mode", "naive"]):
            rc, out = _run(capsys, ["eval", kind, "-"] + mode, doc, monkeypatch)
            assert rc == 0 and out.strip() in ("-1", "0", "1")
    # dcoc evaluates coc on each of its n + 2 = 4 faces
    assert modes == ["factorized", "naive"] + ["factorized"] * 4 + ["naive"] * 4


def test_huge_malformed_rational_is_one_short_error_line():
    # a 1 MB rational string is echoed in a bounded form, not in full
    doc = _put(POINTS, ["points", 0, 0], "1" * 10 ** 6 + ".5")
    r = subprocess.run([sys.executable, "-m", "eulerflags.cli", "eval", "pcoc", "-"],
                       input=json.dumps(doc).encode(), capture_output=True)
    lines = r.stderr.splitlines()
    assert r.returncode == 1 and r.stdout == b"" and len(lines) == 1
    assert lines[0].startswith(b"error: not a rational: ") and len(lines[0]) < 200


@pytest.mark.parametrize("data", [b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "too-deep"])
def test_unreadable_file_is_an_input_error(tmp_path, capsys, data):
    p = tmp_path / "doc.json"
    p.write_bytes(data)
    assert cli.main(["eval", "pcoc", str(p)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: cannot read JSON")


def test_verify_subcommand(capsys):
    rc, out = _run(capsys, ["verify", "--suite", "smillie-relation",
                            "--seed", "2", "--trials", "10"])
    doc = json.loads(out)
    assert rc == 0 and doc["failures"] == [] and doc["trials"] == 10


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli.main(["eval", "pcoc", str(tmp_path / "gone.json")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "points": [["1", "x"]]}))
    assert cli.main(["eval", "pcoc", str(bad)]) == 1
    capsys.readouterr()
    assert cli.main(["eval", "sideways", str(bad)]) == 1  # argparse error
    capsys.readouterr()
    # property violations surface as exit 2
    monkeypatch.setattr(cli, "obstruction_witness", lambda n: ((), 7))
    assert cli.main(["witness", "obstruction", "--n", "2"]) == 2
    capsys.readouterr()


def test_exit_codes_under_optimize():
    # python -O strips assert statements; invariants must still exit 2
    src = str(Path(eulerflags.__file__).parents[1])
    code = ("import sys, eulerflags.cli as cli\n"
            "cli.obstruction_witness = lambda n: ((), 7)\n"
            "sys.exit(cli.main(['witness', 'obstruction', '--n', '2']))\n")
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 2, r.stderr
    assert "property violation: obstruction dichotomy violated" in r.stderr


def test_no_assert_statements_in_library():
    pkg = Path(eulerflags.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pkg.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_linalg_clears_denominators():
    # the clearing rule (lcm of denominators, gcd of a primitive vector)
    # lives in linalg alone; every other module calls its routines
    pkg = Path(eulerflags.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("gcd", "lcm")
                    and isinstance(node.value, ast.Name) and node.value.id == "math"):
                found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(a.name in ("gcd", "lcm") for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_linalg_decides_input_types():
    # the rational, integer and sequence rules live in linalg alone: no
    # other module tests for bool, and serialize builds no Fraction or float
    pkg = Path(eulerflags.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == "isinstance" and len(node.args) == 2:
                kinds = node.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in names):
                    found.append(f"{path.name}:{node.lineno}")
            if path.name == "serialize.py" and node.func.id in ("Fraction", "float"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_linalg_reads_det_int():
    # the Bareiss kernel is private to linalg; other modules reach it
    # through det_sign_int, det, ori or the signed minors
    pkg = Path(eulerflags.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Name) and node.id == "_det_int")
                    or (isinstance(node, ast.Attribute) and node.attr == "_det_int")
                    or (isinstance(node, ast.alias) and node.name == "_det_int")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_linalg_inverts():
    # no library module outside linalg calls its Fraction inverse mat_inv:
    # they invert cleared integer pairs by the one inverse, linalg._inverse
    pkg = Path(eulerflags.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Name) and node.id == "mat_inv")
                    or (isinstance(node, ast.Attribute) and node.attr == "mat_inv")
                    or (isinstance(node, ast.alias) and node.name == "mat_inv")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_linalg_handles_cleared_pairs():
    # cleared pairs (L, G) are read, multiplied and compared in linalg
    # alone: no other module defines a closeness rule or a matrix product,
    # names the integer product _mat_mul, or takes _close from anywhere but
    # linalg; and only linalg._glp says "must have positive determinant"
    pkg = Path(eulerflags.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        glp = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_glp"]
        for node in ast.walk(tree):
            if path.name != "linalg.py" and (
                    (isinstance(node, ast.FunctionDef)
                     and node.name in ("_close", "_mat_mul"))
                    or (isinstance(node, ast.Name) and node.id == "_mat_mul")
                    or (isinstance(node, ast.Attribute) and node.attr == "_mat_mul")
                    or (isinstance(node, ast.alias) and node.name == "_mat_mul")
                    or (isinstance(node, ast.ImportFrom) and node.module != "linalg"
                        and any(a.name == "_close" for a in node.names))):
                found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "must have positive determinant" in node.value
                    and not (path.name == "linalg.py" and glp
                             and glp[0].lineno <= node.lineno <= glp[0].end_lineno)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_itu_output_is_the_estimate_record(tmp_path, capsys):
    p = tmp_path / "gs.json"
    p.write_text(json.dumps(GS))
    rc, out = _run(capsys, ["itu", "--gs", str(p), "--samples", "10"])
    assert rc == 0 and list(json.loads(out)) == ["mean", "stderr", "samples",
                                                 "seed", "mode", "resampled"]


def test_exact_modules_have_no_floats():
    # an exact path holds no float: no float literal, no float() call and
    # no math or cmath name beyond the integer gcd, lcm and prod
    pkg = Path(eulerflags.__file__).parent
    allowed = {"gcd", "lcm", "prod"}
    found = []
    for name in ("linalg", "flags", "cocycles", "simplicial", "serialize",
                 "verify", "cli"):
        for node in ast.walk(ast.parse((pkg / f"{name}.py").read_text())):
            literal = isinstance(node, ast.Constant) and type(node.value) is float
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float")
            attr = (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("math", "cmath")
                    and node.attr not in allowed)
            imported = (isinstance(node, ast.ImportFrom)
                        and node.module in ("math", "cmath")
                        and any(a.name not in allowed for a in node.names))
            if literal or call or attr or imported:
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("argv", [["witness", "obstruction", "--n", "4"],
                                  ["eval", "pcoc", "PTS"]],
                         ids=["large-output", "one-line"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv):
    # the read end is closed before the child starts, so its first write or
    # its flush fails, whether the output fills a buffer or not
    p = tmp_path / "pts.json"
    p.write_text(json.dumps(POINTS))
    argv = [str(p) if a == "PTS" else a for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "eulerflags.cli", *argv],
                           stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert r.returncode == 1 and r.stderr == "", r.stderr


def test_module_entry_point(tmp_path):
    p = tmp_path / "pts.json"
    p.write_text(json.dumps(POINTS))
    r = subprocess.run([sys.executable, "-m", "eulerflags.cli",
                        "eval", "pcoc", str(p)],
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout.strip() == "-1"
