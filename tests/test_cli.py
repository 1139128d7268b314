import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stringsep
from stringsep import geometry, graphs, topology
from stringsep.cli import main
from stringsep.errors import ContractViolation, ParseError

from .oracles import reference_parse_graph, reference_parse_strings_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


def test_evensub(capsys):
    code, out, _ = run(capsys, "evensub", "--word", "abba")
    assert code == 0 and out == "1 3 bb\n"
    code, out, _ = run(capsys, "evensub", "--word", "ab")
    assert code == 0 and out == "none\n"


def test_pcr_bound(capsys):
    code, out, _ = run(capsys, "pcr-bound", "--n", "10")
    assert code == 0 and out == "42\n"
    code, out, _ = run(capsys, "pcr-bound", "--n", "9")
    assert code == 0 and out == "126/5\n"
    code, _, err = run(capsys, "pcr-bound", "--n", "3")
    assert code == 1 and "n >= 5" in err


def test_econg_json(capsys, p3_file):
    code, out, _ = run(capsys, "econg", "--graph", p3_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "edge"
    assert abs(payload["congestion"] - 2.0) < 1e-6


def test_separator_roundtrip(capsys, tmp_path, p3_file):
    out_path = tmp_path / "sep.json"
    code, _, _ = run(capsys, "separator", "--graph", p3_file, "--seed", "3", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["S"] == [1] and payload["size"] == 1


def test_strings_pipeline(capsys, tmp_path):
    strings = tmp_path / "curves.txt"
    strings.write_text("a: 0 0 4 0\nb: 1 -1 1 1\nc: 3 -1 3 1\n")
    code, out, _ = run(capsys, "build-ig", "--strings", str(strings))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["edges"] == [[0, 1], [0, 2]]
    code, out, _ = run(capsys, "separator", "--strings", str(strings))
    assert code == 0


def test_expo_weak2str(capsys, tmp_path):
    real = tmp_path / "expo.txt"
    code, out, _ = run(capsys, "expo", "--k", "2", "--out", str(real))
    assert code == 0
    summary = json.loads(out)
    assert summary["violations"] == 0
    assert summary["spine_crossings"] == [1, 3]
    strs = tmp_path / "strings.txt"
    code, out, _ = run(capsys, "weak2str", "--realization", str(real), "--out", str(strs))
    assert code == 0
    assert strs.exists()
    code, out, _ = run(capsys, "build-ig", "--strings", str(strs))
    assert code == 0


def test_report_complete_graph_empty_vertex_cells(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "report", "--graph", str(k4), "--name", "K4")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[6] == "" and row[9] == ""  # vspars and prod_vertex empty


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\r\nb", "a\rb", "a\nb", '"', "plain name"])
def test_report_name_reads_back_as_one_csv_field(capsys, p3_file, name):
    code, out, err = run(capsys, "report", "--graph", p3_file, "--name", name)
    assert (code, err) == (0, "")
    header, row = csv.reader(io.StringIO(out, newline=""))
    assert len(header) == len(row) == 10
    assert row[0] == name and row[1:3] == ["3", "2"]


def test_report_default_name_with_a_comma_is_quoted(capsys, tmp_path):
    path = tmp_path / "p,3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "report", "--graph", str(path))
    assert code == 0
    assert out.splitlines()[1].startswith(f'"{path}",3,2,')
    assert [len(r) for r in csv.reader(io.StringIO(out, newline=""))] == [10, 10]


@pytest.mark.parametrize("command,mode", [("econg", "edge"), ("vcong", "vertex")])
def test_disconnected_congestion_is_json_null(capsys, tmp_path, command, mode):
    graph = tmp_path / "two-edges.txt"
    graph.write_text("4 2\n0 1\n2 3\n")
    code, out, err = run(capsys, command, "--graph", str(graph))
    assert (code, err) == (0, "")

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    assert json.loads(out, parse_constant=no_constants) == {
        "mode": mode, "congestion": None, "commodities": []}


# stdout digests of the congestion LPs and the duality report, taken before
# the LP was assembled from arrays
CONGESTION_BYTES = {
    ("econg", "p3"): "85c91afe0c88b989d0296ecdf3e8a3363f415a9776e9c238d5c03464d160f71e",
    ("vcong", "p3"): "4fbd103fa8ef95b45830955a1903e552fb298e99fdb2ad29161bd9735730c45d",
    ("report", "p3"): "29f75af4bbed7cb29ef26ec3a21607005aa043fd2b61aa2787996cfdb61f94dc",
    ("econg", "c4"): "4e2a707ae893470d4af7c7c2dd2e99d3ee7c1ede75d0b10a274c9e7763a378b4",
    ("vcong", "c4"): "57095174d9615026b397521848f9af56629ae9287363aa12291970a9a4130350",
    ("report", "c4"): "d1039de5c89ae72be8817c61c51e20b363685e419d123e15b1edca1ed3acfde3",
    ("econg", "k4"): "2aa551048eb78e7005b6b0d312a89da82948eb12b468ef70145e42d302bef1f4",
    ("vcong", "k4"): "1d17e3505f17d578c4f620a2edcb8918b5abd3e2d736750f137fe439a5213736",
    ("report", "k4"): "3b2a6bf73983aad7999c1b13ff0487e240ea35a7171c09d760dbe064524ad6ab",
    ("econg", "grid3x4"): "d0abab62534dd0d3615e7e5576d12c2ed0e50bbdff8a7405c8c9744b3a8eedd2",
    ("vcong", "grid3x4"): "c3388ba91b362042687915d2fbccfd72f047b5091520fd3e7a37c148f8724a7a",
    ("report", "grid3x4"): "ec9a1384f52f760b591c1b18f0c67e97258c4bd39efafec31561a40add21ebc2",
    ("econg", "gnp12-40-s1"): "0f79fff663dc98b6b0d731f6464266d781526e73df9fdea3e7a739b5d21f77cd",
    ("vcong", "gnp12-40-s1"): "35a5664800624cf77f5286cd5d910d3daafb84d1bea91b5fa427e846fe2e6f30",
    ("report", "gnp12-40-s1"): "c94423a40283e462cb469a40c07b13e6f28f5b07fc9f99adb7d7081c049d5f31",
    ("econg", "gnp12-40-s4"): "b1739234858c396c45568f0c1a99a118e46395296143fa0bcfaf1ef2abc2bbeb",
    ("vcong", "gnp12-40-s4"): "1f9ac000b92f02265e0dc1db6fb1443564680f26b764ac473a6bc992982855a7",
    ("report", "gnp12-40-s4"): "77a9f7fda3fc7cbc881284dd974f1f1ee4648e51652820cb2cdb3adb5bff5681",
}
CONGESTION_GRAPHS = {
    "p3": lambda: graphs.graph_from_pairs(3, [(0, 1), (1, 2)]),
    "c4": lambda: graphs.graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "k4": lambda: graphs.generate("complete", (4,)),
    "grid3x4": lambda: graphs.generate("grid", (3, 4)),
    "gnp12-40-s1": lambda: graphs.generate("gnp_connected", (12, 40), seed=1),
    "gnp12-40-s4": lambda: graphs.generate("gnp_connected", (12, 40), seed=4),
}


@pytest.mark.parametrize("command,name", sorted(CONGESTION_BYTES), ids="-".join)
def test_congestion_bytes_unchanged(capsys, tmp_path, command, name):
    path = tmp_path / f"{name}.txt"
    path.write_text(graphs.serialize_graph(CONGESTION_GRAPHS[name]()))
    extra = ("--name", name) if command == "report" else ()
    code, out, err = run(capsys, command, "--graph", str(path), *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONGESTION_BYTES[command, name]


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_contract_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "econg", "--graph", str(bad))
    assert code == 1 and "self-loop" in err


# the file's edge 0 is (1, 2), drawn from (4, 0) to (9, 0); vertex 2 is at (8, 0)
REALIZATION_BAD_ENDS = ("3 2\n1 2\n0 1\nvertex 0 0 0\nvertex 1 4 0\nvertex 2 8 0\n"
                        "edge 0: 4 0 9 0\nedge 1: 0 0 4 0\n")


@pytest.mark.parametrize(
    "command,text",
    [
        ("weak2str", "1 0\nvertex 0 a 1\n"),
        ("weak2str", "2 1\n0 1\nvertex 0 0 0\nvertex 1 1 0\nedge 3: 0 0 1 0\n"),
        ("weak2str", "99999999999999999999 0\n"),
        ("weak2str", "2 1\n0 1\nvertex 0 0 0\nvertex 1 1 0\nvertex 0 0 0\nedge 0: 0 0 1 0\n"),
        ("weak2str", "2 1\n0 1\nvertex 0 0 0\nvertex 1 1 0\nedge 0: 0 0 1 0\nedge 0: 0 0 1 0\n"),
        ("separator", "99999999999999999999 0\n"),
        ("separator", "9999999999 0\n"),
        ("build-ig", "a 0 0 1 1\n"),
        ("build-ig", "a: 0 0 1 1\nb: 0 1 1\n"),
        ("build-ig", "\na: 0 0 x 1\n"),
        ("build-ig", "a: 0 0 1 1\nb: 0 1 1 0\na: 2 2 3 3\n"),
        ("weak2str", "2 1\n0 1\nallow 0 0\nvertex 0 0 0\nvertex 1 1 0\nedge 0: 0 0 1 0\n"),
        ("weak2str", "2 1\n1 1\nvertex 0 0 0\nvertex 1 1 0\nedge 0: 0 0 1 0\n"),
        ("weak2str", "3 2\n0 1\n1 0\nvertex 0 0 0\nvertex 1 1 0\nvertex 2 2 2\n"),
        ("econg", "3 2\n0 1\n1 1\n"),
        ("vcong", "3 2\n0 1\n0 5\n"),
        ("sparsity", "3 2\n0 1\n1 0\n"),
        ("embed", "3 2\n0 1\n"),
        ("sweep", "3 1\n0 1\n1 2\n"),
        ("conflicts", "3 1\n0 x\n"),
        ("report", "3 1\n0 1 2\n"),
        ("weak2str", REALIZATION_BAD_ENDS),
        ("separator", b"3 1\n0 \xff1\n"),
        ("build-ig", b"a: 0 0 1 1\nb: 0 1 \xff 0\n"),
        ("weak2str", b"2 1\n0 1\xc3\nvertex 0 0 0\nvertex 1 1 0\nedge 0: 0 0 1 0\n"),
    ],
    ids=["bad-int", "edge-index", "realization-huge-n", "second-vertex-line", "second-edge-line",
         "graph-n-overflow", "graph-n-memory",
         "strings-no-colon", "strings-odd-count", "strings-not-int", "strings-repeated-id",
         "allow-itself", "realization-self-loop", "realization-duplicate-edge",
         "econg-self-loop", "vcong-out-of-range", "sparsity-duplicate-edge",
         "embed-missing-edge", "sweep-extra-edge", "conflicts-not-int", "report-three-fields",
         "realization-curve-ends", "graph-not-utf8", "strings-not-utf8", "realization-not-utf8"],
)
def test_malformed_input_exit_1(capsys, tmp_path, command, text):
    bad = tmp_path / "bad.txt"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text)
    flag = {"weak2str": "--realization", "build-ig": "--strings"}.get(command, "--graph")
    code, out, err = run(capsys, command, flag, str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: line ")


@pytest.mark.parametrize(
    "data,line",
    [(b"\xff3 2\n", 1), (b"3 2\n0 1\n1 \xe2\x82\n", 3), (b"3 2\r\n0 1\r\n\xc3", 3),
     (b"3 2\r0 1\r\n\n1 2\x80\n", 4), (b"3 2\n\n0 1\n1 2\n", None)],
    ids=["first-byte", "cut-sequence", "crlf", "lone-cr", "valid"],
)
def test_not_utf8_names_the_line_of_the_first_bad_byte(capsys, tmp_path, data, line):
    # lines are counted as the parsers count them, so a lone CR ends one
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "econg", "--graph", str(path))
    if line is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (1, "", f"error: line {line}: not UTF-8 text\n")


def test_crlf_input_parses_as_lf(capsys, tmp_path):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    for path, eol in ((lf, b"\n"), (crlf, b"\r\n")):
        path.write_bytes(eol.join([b"4 3", b"0 1", b"", b"1 2", b"2 3", b""]))
    assert run(capsys, "separator", "--graph", str(crlf)) == run(capsys, "separator", "--graph", str(lf))
    lf.write_bytes(b"a: 0 0 4 0\nb: 1 -1 1 1\n")
    crlf.write_bytes(b"a: 0 0 4 0\r\nb: 1 -1 1 1\r\n")
    assert run(capsys, "build-ig", "--strings", str(crlf)) == run(capsys, "build-ig", "--strings", str(lf))


def test_weak2str_curve_ends_name_the_file_edge_and_line(capsys, tmp_path):
    # the ends are checked once every line is read, so vertex lines may
    # come after the edge lines
    lines = REALIZATION_BAD_ENDS.splitlines()
    moved = "\n".join(lines[:3] + lines[6:][::-1] + lines[3:6][::-1]) + "\n"
    want = "does not join vertex 1 at (4, 0) and vertex 2 at (8, 0)\n"
    for text, line in ((REALIZATION_BAD_ENDS, 7), (moved, 5)):
        real = tmp_path / "real.txt"
        real.write_text(text)
        code, out, err = run(capsys, "weak2str", "--realization", str(real))
        assert (code, out) == (1, "")
        assert err == f"error: line {line}: edge 0: curve from (4, 0) to (9, 0) " + want


def test_weak2str_curve_not_simple_exit_1(capsys, tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("2 1\n0 1\nvertex 0 0 0\nvertex 1 4 0\nedge 0: 0 0 2 0 2 1 1 -1 4 0\n")
    code, out, err = run(capsys, "weak2str", "--realization", str(real))
    assert (code, out, err) == (1, "", "error: curve e0: non-adjacent segments 0,2 intersect\n")


# stdout digests taken before best_embedding seeded its trials in one pass
# per block: a seed of 2^64 + 1 and a negative seed reach _mix unreduced
SEED_BYTES = [
    (("embed", "--seed", "18446744073709551617", "--trials", "3"),
     "494327835fc1aeac9af8dedc60c474d3a5ba0905950d7791d2b78929867d7076"),
    (("separator", "--seed", "-7"),
     "dcd525472fc54c92a777b9065219b38ba4ba8ae64b00af69755fe7e119b813b1"),
]


@pytest.mark.parametrize("argv,digest", SEED_BYTES, ids=["embed-seed-2^64+1", "separator-seed-7"])
def test_seed_handling_bytes_unchanged(capsys, tmp_path, argv, digest):
    grid = tmp_path / "grid.txt"
    grid.write_text(graphs.serialize_graph(graphs.generate("grid", (4, 4))))
    code, out, err = run(capsys, argv[0], "--graph", str(grid), *argv[1:])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout digests of `separator --graph` on random segment instances that
# take two to four embed-and-sweep rounds, taken while the pipeline still
# kept a worklist of parts: (count, span, seed, extra flags)
SEPARATOR_BYTES = {
    (60, 120, 1, ()): "ec50b22bb10d5849c446a30ea4de365624b17e5eb9f40dd5f312113e1a95add2",
    (60, 90, 2, ()): "1fcd86a9e95cf4e07c0f1d4de65ac724fb64bf787eda87698c20388661edbfd8",
    (100, 100, 1, ()): "ef3295ac3f0aa0ec07e0a9db143b8857cfc3e8325bc4d1d775a17483241aab73",
    (100, None, 2, ()): "4f15666b8d413ae73a8afcf7607f2fdadcdcd90b2ee1537fe0140389a5cae042",
    (200, 300, 1, ()): "7367f28d18c83ab7b4ad4ec908259e60df25fa233d3af4669ca931e46606965b",
    (100, None, 2, ("--seed", "3", "--trials", "2")):
        "dd42c14875f1d93f3bb6f212179acd4c03188c6d25d4f795e106bfa7e7849308",
    (60, 120, 2, ("--seed", "3", "--trials", "1")):
        "4c3399f219203500b3bc61b6011a8394cfd1330e01604807875692dfe5823910",
}


@pytest.mark.parametrize("case", sorted(SEPARATOR_BYTES, key=str), ids=str)
def test_separator_bytes_unchanged(capsys, tmp_path, case):
    count, span, seed, extra = case
    g, _ = geometry.intersection_graph(geometry.random_segment_instance(count, seed, span))
    path = tmp_path / "g.txt"
    path.write_text(graphs.serialize_graph(g))
    code, out, err = run(capsys, "separator", "--graph", str(path), *extra)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["sparsity_trace"]) >= 2
    assert hashlib.sha256(out.encode()).hexdigest() == SEPARATOR_BYTES[case]


# SHA-256 of `build-ig` stdout on random_segment_instance(count, seed, span),
# taken while the meeting segment pairs were decided one _meeting call at a
# time: finding them as arrays may not change a byte.  (140, 1001..1003, 110)
# and (880, 1000, 207) are instances of the sep_sparse and embed_giant corpora.
BUILD_IG_BYTES = {
    (140, 1001, 110): "751375abcae19769cb40b0b09c2de401178acd54b7048703dc3994d2c57db2e8",
    (140, 1002, 110): "5ae69295001cf85a7794a399a114fbb458c451f33cb9a16e1ffbb6e9e140b0b9",
    (140, 1003, 110): "2c19fbda6775bd38fe97aa81cd6ef603cd8be1268a28a11687f2c95c9d4062ec",
    (880, 1000, 207): "5e0766a14fae055004d087d12f246956b080d8e95c81194621c6aabaff022e93",
}


@pytest.mark.parametrize("case", sorted(BUILD_IG_BYTES), ids=str)
def test_build_ig_bytes_unchanged(capsys, tmp_path, case):
    path = tmp_path / "curves.txt"
    path.write_text(geometry.write_strings_file(geometry.random_segment_instance(*case)))
    code, out, err = run(capsys, "build-ig", "--strings", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_IG_BYTES[case]


@pytest.mark.parametrize("command", ["embed", "sweep", "conflicts", "separator"])
def test_zero_trials_rejected(capsys, tmp_path, p3_file, command):
    paths = [p3_file]
    if command in ("conflicts", "separator"):
        # three isolated vertices: no part needs a sweep, no pair carries flow
        isolated = tmp_path / "isolated.txt"
        isolated.write_text("3 0\n")
        paths.append(str(isolated))
    for path in paths:
        code, out, err = run(capsys, command, "--graph", path, "--trials", "0")
        assert (code, out, err) == (1, "", "error: trials must be >= 1\n")


def test_negative_seed_exits_1(capsys, p3_file):
    code, out, err = run(capsys, "conflicts", "--graph", p3_file, "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be non-negative, got -1\n")


def test_python_m_stringsep(tmp_path):
    paths = [str(Path(stringsep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "stringsep", *argv],
                              capture_output=True, text=True, env=env, check=False)

    proc = python_m("pcr-bound", "--n", "10")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "42\n", "")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a: 0 0 1 1\nb: 0 1 \xff 0\n")
    proc = python_m("build-ig", "--strings", str(bad))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: line 2:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["separator", "embed", "sweep"])
def test_out_of_memory_exits_1_without_a_traceback(tmp_path, command):
    # the n x n metric of a 40,000-vertex path needs 12.8 GB; under a 3 GiB
    # address-space limit its allocation fails at once
    resource = pytest.importorskip("resource")
    path = tmp_path / "path.txt"
    n = 40_000
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    paths = [str(Path(stringsep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               OPENBLAS_NUM_THREADS="1")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = subprocess.run([sys.executable, "-m", "stringsep", command, "--graph", str(path)],
                          capture_output=True, text=True, env=env, check=False,
                          preexec_fn=limit_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: out of memory") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["separator", "econg"])
def test_graph_and_strings_together_exit_1(capsys, tmp_path, p3_file, command):
    strings = tmp_path / "curves.txt"
    strings.write_text("a: 0 0 4 0\nb: 1 -1 1 1\n")
    code, out, err = run(capsys, command, "--graph", p3_file, "--strings", str(strings))
    assert (code, out, err) == (1, "", "error: give one of --graph or --strings, not both\n")


_token = st.sampled_from(
    ["0", "1", "2", "3", "-1", "7", "99999999999999999999", "1.5", "x", ":", "a:", "3:",
     "vertex", "edge", "allow", ""]
)
# whole lines that reach the checks past the shape of a line: self-loops,
# duplicate edges, repeated curve ids, an edge allowed to cross itself
_line = st.sampled_from(
    ["2 1", "3 2", "0 1", "1 0", "1 1", "0 2", "", "allow 0 0", "allow 0 1", "vertex 0 0 0",
     "vertex 1 1 0", "edge 0: 0 0 1 0", "edge 1: 0 0 2 2", "a: 0 0 1 1", "b: 0 1 1 0",
     "a: 2 2 3 3"]
)
_fuzz_text = st.one_of(
    st.text(max_size=120),
    st.lists(st.tuples(_token, st.sampled_from([" ", " ", "\n", "\t", ":"])), max_size=40).map(
        lambda parts: "".join(tok + sep for tok, sep in parts)
    ),
    st.lists(_line, max_size=12).map("\n".join),
)


@settings(max_examples=300, deadline=None)
@given(_fuzz_text)
def test_parsers_raise_only_usage_errors(text):
    # any text parses or fails with a ParseError that names a line of the
    # text (an empty text counts as one empty line)
    lines = max(1, len(text.splitlines()))
    for parse in (geometry.parse_strings_file, graphs.parse_graph, topology.parse_realization_file):
        try:
            parse(text)
        except ParseError as exc:
            assert 1 <= exc.line <= lines


def _splice(lines, eol, inserts):
    data = eol.join(lines).encode()
    for at, chunk in inserts:
        at %= len(data) + 1
        data = data[:at] + chunk + data[at:]
    return data


# valid lines with random bytes spliced in: mostly not UTF-8, sometimes a
# valid sequence that lands inside a token or a curve id
_fuzz_bytes = st.builds(
    _splice,
    st.lists(_line, max_size=12),
    st.sampled_from(["\n", "\r\n"]),
    st.lists(st.tuples(st.integers(0, 200), st.binary(min_size=1, max_size=3)), max_size=4),
)
_READERS = [
    ("separator", "--graph", graphs.parse_graph),
    ("build-ig", "--strings", geometry.parse_strings_file),
    ("weak2str", "--realization", topology.parse_realization_file),
]


@settings(max_examples=200, deadline=None)
@given(_fuzz_bytes)
def test_cli_readers_on_raw_bytes_exit_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_bytes(data)
    for command, flag, parse in _READERS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, flag, str(path)])
        assert code in (0, 1), (command, code)
        if code == 1:
            err = err.getvalue()
            assert err.startswith("error: ")
            # bytes the reader or the parser refuse name a line; past them
            # a command may refuse the graph or the curves as a whole
            if not err.startswith("error: line "):
                parse(data.decode())


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ContractViolation) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=300, deadline=None)
@given(_fuzz_text)
def test_graph_and_strings_parsers_match_references(text):
    assert _outcome(graphs.parse_graph, text) == _outcome(reference_parse_graph, text)
    got = _outcome(geometry.parse_strings_file, text)
    want = _outcome(reference_parse_strings_file, text)
    if got != want:
        # a repeated id: the reference refuses it once every line has parsed,
        # with no line, or meets a later line's parse error first
        kind, message, line = got
        assert kind is ParseError and "repeated curve id" in message
        assert want == (ContractViolation, "curve ids must be distinct", None) or (
            want[0] is ParseError and want[2] > line
        )


@pytest.mark.parametrize(
    "argv",
    [
        ("econg", "--graph", "{p3}"),
        ("vcong", "--graph", "{p3}"),
        ("sparsity", "--graph", "{p3}", "--mode", "vertex"),
        ("embed", "--graph", "{p3}", "--seed", "7", "--trials", "20"),
        ("sweep", "--graph", "{p3}", "--seed", "7", "--trials", "20"),
        ("separator", "--graph", "{p3}", "--seed", "7"),
        ("conflicts", "--graph", "{p3}", "--seed", "7", "--trials", "30"),
        ("report", "--graph", "{p3}", "--name", "P3", "--seed", "7"),
        ("expo", "--k", "3"),
        ("evensub", "--word", "abcabc"),
        ("pcr-bound", "--n", "7"),
    ],
)
def test_byte_identical_reruns(capsys, p3_file, argv):
    argv = [a.replace("{p3}", p3_file) for a in argv]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
