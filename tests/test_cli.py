"""Command line behaviour: exit codes, JSON round trips, DOT output, sweeps."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, hung_c5

from lrw1 import cli, dh, oracle
from lrw1.errors import ParseError
from lrw1.graph import parse_graph, serialize_graph
from lrw1.named import caterpillar_graph, cycle_graph, house_graph, net_graph, path_graph
from lrw1.recognizer import OrderingCertificate, verify_certificate


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_recognize_caterpillar_exit_0(tmp_path, capsys):
    path = _write(tmp_path, "cat.edges", serialize_graph(caterpillar_graph(3, [1, 1, 0])))
    assert cli.main(["recognize", path]) == 0
    out = capsys.readouterr().out
    assert "linear rank-width <= 1" in out


def test_recognize_c5_exit_1(tmp_path, capsys):
    path = _write(tmp_path, "c5.edges", serialize_graph(cycle_graph(5)))
    assert cli.main(["recognize", path]) == 1
    out = capsys.readouterr().out
    assert "hole(5)" in out
    assert "0 1 2 3 4" in out


def test_recognize_malformed_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.edges", "2 1\n0 0\n")
    assert cli.main(["recognize", path]) == 2
    assert "error" in capsys.readouterr().err


def test_recognize_missing_file_exit_2(capsys):
    assert cli.main(["recognize", "/nonexistent/graph.edges"]) == 2


def test_recognize_non_ascii_exit_2(tmp_path, capsys):
    path = tmp_path / "bytes.edges"
    path.write_bytes(b"\xff\xfe 1\n")
    assert cli.main(["recognize", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: input is not ASCII")


@pytest.mark.parametrize("command", [["recognize", "-"], ["check", "-", "CERT"]])
def test_non_ascii_stdin_exit_2(monkeypatch, tmp_path, capsys, command):
    # full-width digits, which int() and str.isdigit() accept: unchecked,
    # this text reads as a 3-vertex path
    text = "\uff13 \uff12\n0 1\n1 2\n"
    cert = _write(tmp_path, "c.json", json.dumps({"status": "lrw_le_1", "ordering": [0, 1, 2]}))
    argv = [cert if arg == "CERT" else arg for arg in command]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: input is not ASCII")
    # a pipe reaches the command decoded by the locale
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "lrw1.cli", *argv], input=text.encode("utf-8"), env=env,
                           capture_output=True, timeout=60)
    assert child.returncode == 2 and child.stdout == b""
    assert child.stderr.startswith(b"error: input is not ASCII")


def test_recognize_graph6_autodetect(tmp_path, capsys):
    path = _write(tmp_path, "g.g6", serialize_graph(cycle_graph(5), "graph6"))
    assert cli.main(["recognize", path]) == 1


def test_recognize_verify_flag(tmp_path):
    path = _write(tmp_path, "net.edges", serialize_graph(net_graph()))
    assert cli.main(["recognize", "--verify", path]) == 1


def test_json_round_trip(tmp_path, capsys):
    for g in [caterpillar_graph(2, [1, 2]), cycle_graph(5), net_graph(), cycle_graph(8)]:
        path = _write(tmp_path, "g.edges", serialize_graph(g))
        cli.main(["recognize", "--json", path])
        payload = json.loads(capsys.readouterr().out)
        cert = cli.certificate_from_json(g, payload)
        assert verify_certificate(g, cert)
        assert cli.certificate_to_json(cert) == payload


@pytest.mark.parametrize("payload, named", [
    ({}, "'status'"),
    ({"status": "lrw_le_1"}, "'ordering'"),
    ({"status": "lrw_le_1", "ordering": [0, 1, 7]}, "7"),
    ({"status": "bogus", "obstruction": {"vertices": [0, 1, 2], "family": "hole"}}, "'bogus'"),
    ({"status": ["x"], "obstruction": {"vertices": [0, 1, 2], "family": "hole"}}, r"\['x'\]"),
    ({"status": None}, "None"),
    ({"status": "lrw_le_1", "ordering": [0, -1, 2]}, "names -1, which is not a vertex label"),
])
def test_malformed_certificate_raises_parse_error(payload, named):
    with pytest.raises(ParseError, match=named):
        cli.certificate_from_json(path_graph(3), payload)


@pytest.mark.parametrize("payload, named", [
    ([], "the certificate must be a JSON object"),
    ({"status": "lrw_le_1", "ordering": 5}, "'ordering' must be a JSON list"),
    ({"status": "lrw_ge_2", "obstruction": [1]}, "'obstruction' must be a JSON object"),
    ({"status": "lrw_le_1", "ordering": [[1]]}, r"names \[1\], which is not a vertex label"),
    ({"status": "lrw_ge_2", "obstruction": {"vertices": [0, [1]], "family": "hole"}}, r"names \[1\]"),
    ({"status": "lrw_ge_2", "obstruction": {"vertices": 0, "family": "hole"}}, "'vertices' must be"),
    ({"status": "lrw_ge_2", "obstruction": {"vertices": [0, 1, 2], "family": "dh_star3",
                                            "catalog_index": "0"}}, "'catalog_index' must be"),
])
def test_certificate_of_the_wrong_json_type_raises_parse_error(payload, named):
    with pytest.raises(ParseError, match=named):
        cli.certificate_from_json(path_graph(3), payload)


@pytest.mark.parametrize("payload, named", [
    ({"status": "lrw_le_1", "ordering": [0, True, 2]}, "names True, which is not a vertex label"),
    ({"status": "lrw_le_1", "ordering": [0, 1.0, 2]}, "names 1.0, which is not a vertex label"),
    ({"status": "lrw_ge_2", "obstruction": {"vertices": [0, 1, 2], "family": "dh_star3",
                                            "catalog_index": True}}, "'catalog_index' must be an integer"),
])
def test_json_bool_and_float_are_not_integer_labels_or_indices(payload, named):
    with pytest.raises(ParseError, match=named):
        cli.certificate_from_json(path_graph(3), payload)


def test_json_schema_fields(tmp_path, capsys):
    path = _write(tmp_path, "net.edges", serialize_graph(net_graph()))
    cli.main(["recognize", "--json", path])
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "lrw_ge_2"
    assert payload["obstruction"]["family"] == "dh_star3"
    assert isinstance(payload["obstruction"]["catalog_index"], int)
    path = _write(tmp_path, "p.edges", serialize_graph(path_graph(4)))
    cli.main(["recognize", "--json", path])
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"status": "lrw_le_1", "ordering": [0, 1, 2, 3]}


def test_check_gives_the_exit_code_of_recognize_on_every_golden_certificate(tmp_path):
    graph_path, cert_path = tmp_path / "g.g6", tmp_path / "c.json"
    for line in RECOGNIZE_GOLDEN.read_text().splitlines():
        g6, code, payload = line.split(" ", 2)
        graph_path.write_text(g6 + "\n")
        cert_path.write_text(payload + "\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(graph_path), str(cert_path)]) == int(code), line


def _check(tmp_path, capsys, graph, certificate: str):
    graph_path = _write(tmp_path, "g.edges", serialize_graph(graph))
    cert_path = _write(tmp_path, "c.json", certificate)
    code = cli.main(["check", graph_path, cert_path])
    return code, capsys.readouterr()


def test_check_refuses_a_tampered_certificate(tmp_path, capsys):
    tampered = [
        (cycle_graph(5), {"status": "lrw_ge_2", "obstruction": {"vertices": [0, 1, 2, 3, 4], "family": "house"}},
         "house certificate does not induce a house"),
        (net_graph(), {"status": "lrw_ge_2", "obstruction": {"vertices": list(range(6)), "family": "dh_star3",
                                                              "catalog_index": 1}},
         "obstruction does not match its catalog entry"),
        (cycle_graph(5), {"status": "lrw_le_1", "ordering": [0, 1, 2, 3, 4]}, "ordering has cut rank 2"),
        (path_graph(4), {"status": "lrw_le_1", "ordering": [0, 1, 1, 3]},
         "ordering is not a permutation of the vertex set"),
    ]
    for graph, payload, reason in tampered:
        code, captured = _check(tmp_path, capsys, graph, json.dumps(payload))
        assert (code, captured.out) == (2, ""), payload
        assert captured.err == f"certificate failed verification: {reason}\n"


@pytest.mark.parametrize("text", ["", "{", "{\"status\": \"lrw_le_1\"", "[" * 100000, "null",
                                  "{\"status\": \"lrw_le_1\"}", "\u00e9"])
def test_check_refuses_malformed_json(tmp_path, capsys, text):
    code, captured = _check(tmp_path, capsys, path_graph(3), text)
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_check_refuses_a_missing_file(tmp_path, capsys):
    present = _write(tmp_path, "g.edges", serialize_graph(path_graph(3)))
    missing = str(tmp_path / "missing")
    for argv in [[present, missing], [missing, present]]:
        assert cli.main(["check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "missing" in captured.err


def test_decompose_p4(tmp_path, capsys):
    path = _write(tmp_path, "p4.edges", serialize_graph(path_graph(4)))
    assert cli.main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert out.count("block") == 2
    assert "star" in out
    assert "split tree is a path: yes" in out


def test_decompose_net_dot_outputs(tmp_path, capsys):
    path = _write(tmp_path, "net.edges", serialize_graph(net_graph()))
    sd = tmp_path / "sd.dot"
    tree = tmp_path / "tree.dot"
    assert cli.main(["decompose", path, "--dot-sd", str(sd), "--dot-tree", str(tree)]) == 0
    out = capsys.readouterr().out
    assert out.count("block") == 4
    assert "split tree is a path: no" in out
    assert "style=dashed" in sd.read_text()
    assert tree.read_text().startswith("graph split_tree {")


def test_decompose_house_exit_1(tmp_path, capsys):
    path = _write(tmp_path, "house.edges", serialize_graph(house_graph()))
    assert cli.main(["decompose", path]) == 1
    assert "not distance hereditary" in capsys.readouterr().out


def test_decompose_prunes_a_hung_c5_once(monkeypatch, tmp_path, capsys):
    # the residue of decompose's own failed pruning is the C5, on the highest
    # ids, so the obstruction search needs no DH test at all
    path = _write(tmp_path, "hung.edges", serialize_graph(hung_c5(40, False)))
    tested = []
    monkeypatch.setattr(dh, "is_distance_hereditary", lambda h, residue=None: tested.append(h.n))
    assert cli.main(["decompose", path]) == 1
    assert tested == []
    assert capsys.readouterr().out == "not distance hereditary; obstruction [hole]: 40 41 42 43 44\n"


def test_decompose_disconnected_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "two.edges", "4 2\n0 1\n2 3\n")
    assert cli.main(["decompose", path]) == 2


def test_lrw_exact(tmp_path, capsys):
    for g, want in [(cycle_graph(5), 2), (path_graph(6), 1), (parse_graph("1 0"), 0)]:
        path = _write(tmp_path, "g.edges", serialize_graph(g))
        assert cli.main(["lrw-exact", path]) == 0
        assert f"linear rank-width = {want}" in capsys.readouterr().out


def test_lrw_exact_too_large(tmp_path, capsys):
    path = _write(tmp_path, "big.edges", serialize_graph(path_graph(12)))
    assert cli.main(["lrw-exact", path]) == 2


def test_crosscheck_small(capsys):
    assert cli.main(["crosscheck", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "6 connected graphs on 4 vertices checked" in out


def test_crosscheck_missing_fixtures(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("LRW1_FIXTURES", str(tmp_path / "absent"))
    assert cli.main(["crosscheck", "--max-n", "3"]) == 2
    assert "missing fixture" in capsys.readouterr().err


def test_crosscheck_checks_every_fixture_file_before_the_sweep(monkeypatch, tmp_path, capsys):
    for n in range(1, 4):
        (tmp_path / f"n{n}.g6").write_text(oracle.fixture_path(n).read_text(encoding="ascii"), encoding="ascii")
    monkeypatch.setenv("LRW1_FIXTURES", str(tmp_path))
    assert cli.main(["crosscheck", "--max-n", "4"]) == 2
    out, err = capsys.readouterr()
    assert "checked" not in out
    assert "missing fixture file" in err and "n4.g6" in err


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_crosscheck_refuses_a_sweep_over_nothing(max_n, capsys):
    assert cli.main(["crosscheck", "--max-n", max_n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--max-n must be at least 1" in err


def test_crosscheck_detects_corrupted_recognizer(monkeypatch, capsys):
    # mutation probe: a recognizer that accepts everything must be caught
    from lrw1 import recognizer

    monkeypatch.setattr(
        recognizer, "recognize", lambda g: OrderingCertificate(tuple(range(g.n)))
    )
    assert cli.main(["crosscheck", "--max-n", "5"]) == 1
    assert "disagreement" in capsys.readouterr().out


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(cycle_graph(5))))
    assert cli.main(["recognize"]) == 1


def test_reused_parser_carries_nothing_between_calls(monkeypatch, tmp_path, capsys):
    # main parses with one parser built at import; a run of calls in one
    # process must print what a fresh process prints for each call
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
    net = _write(tmp_path, "net.edges", serialize_graph(net_graph()))
    cat = _write(tmp_path, "cat.edges", serialize_graph(caterpillar_graph(3, [1, 1, 0])))
    calls = [
        ["recognize", "--json", net],
        ["recognize", net],  # --json must not carry over
        ["decompose", cat],
        ["recognize", "--no-such-flag", net],
        ["recognize", "--no-such-flag", net],
        ["recognize", "--help"],
    ]
    seen = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        seen.append((code, out, err))
    assert [code for code, _, _ in seen] == [1, 1, 0, 2, 2, 0]
    assert seen[3] == seen[4]

    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["recognize", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == seen[5][1]

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, (code, out, err) in zip(calls, seen):
        fresh = subprocess.run([sys.executable, "-m", "lrw1.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (fresh.returncode, fresh.stdout) == (code, out), argv
        if code == 2:
            assert fresh.stderr == err


# Run in a fresh interpreter: recognition, verification and a certificate
# check first, then the commands that need the brute-force oracle.  It prints,
# as one JSON line, what each call gave and which of the modules recognition
# must not load were loaded after each stage.
_IMPORT_SET_CHILD = """
import contextlib, io, json, sys
import lrw1
from lrw1 import cli

HEAVY = ("lrw1.oracle", "dataclasses", "inspect")

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return [code, out.getvalue()]

cat, net, c5, house, p4 = sys.argv[1:]
report = {"recognized": [run("recognize", "--json", path)[0] for path in (cat, net, c5)]}
report["loaded"] = [name for name in HEAVY if name in sys.modules]
report["verified"] = [run("recognize", "--json", "--verify", path) for path in (net, house)]
report["loaded_by_verify"] = [name for name in HEAVY if name in sys.modules]
with open(net + ".json", "w") as fh:
    fh.write(report["verified"][0][1])
report["checked"] = run("check", net, net + ".json")[0]
report["loaded_by_check"] = [name for name in HEAVY if name in sys.modules]
report["lrw_exact"] = run("lrw-exact", p4)[0]
report["crosscheck"] = run("crosscheck", "--max-n", "4")[0]
report["unresolved"] = [name for name in lrw1.__all__ if not hasattr(lrw1, name)]
print(json.dumps(report))
"""


def test_recognition_loads_no_oracle_and_no_dataclasses_in_a_fresh_process(tmp_path):
    graphs = {
        "cat": caterpillar_graph(4, [2, 0, 1, 3]),
        "net": net_graph(),
        "c5": cycle_graph(5),
        "house": house_graph(),
        "p4": path_graph(4),
    }
    paths = {name: _write(tmp_path, f"{name}.edges", serialize_graph(g)) for name, g in graphs.items()}
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _IMPORT_SET_CHILD, *paths.values()], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["recognized"] == [0, 1, 1]
    assert report["loaded"] == []
    for name, (code, out) in zip(["net", "house"], report["verified"]):
        assert code == 1, name
        certificate = cli.certificate_from_json(graphs[name], json.loads(out))
        assert verify_certificate(graphs[name], certificate), name
    assert report["loaded_by_verify"] == []
    assert report["checked"] == 1
    assert report["loaded_by_check"] == []
    assert report["lrw_exact"] == 0
    assert report["crosscheck"] == 0
    assert report["unresolved"] == []


# bytes a mutation may put in: digits and separators of edge lists, graph6
# characters, including the "~" that starts a longer vertex count, and bytes
# that are not ASCII or are control characters
_FUZZ_BYTES = list(b"0123456789 \n\r\t#-?@A_`{~\x00\x0c\x7f\xc3\xff")
_EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 400), st.sampled_from(_FUZZ_BYTES)),
    max_size=3,  # at most three more header digits: no input allocates much
)


def _mutated(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, at, byte in edits:
        if op == "insert":
            out.insert(at % (len(out) + 1), byte)
        elif out and op == "delete":
            del out[at % len(out)]
        elif out:
            out[at % len(out)] = byte
    return bytes(out)


def _recognize_json(path: str) -> tuple[int, str, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["recognize", "--json", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(max_n=8), st.sampled_from([net_graph(), house_graph(), cycle_graph(6), hung_c5(20, True)])),
       st.sampled_from(["edge-list", "graph6"]), _EDITS)
def test_recognize_holds_on_mutated_input(g, fmt, edits):
    data = _mutated(serialize_graph(g, fmt).encode("ascii"), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        code, out, err = _recognize_json(path)
        again = _recognize_json(path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert (again[0], again[1]) == (code, out)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        return
    text = data.decode("ascii")
    graph = parse_graph(text, cli.detect_format(text))
    certificate = cli.certificate_from_json(graph, json.loads(out))
    assert isinstance(certificate, OrderingCertificate) == (code == 0)
    assert verify_certificate(graph, certificate)


RECOGNIZE_GOLDEN = Path(__file__).parent / "golden" / "recognize_fixtures.txt"


def recognize_fixture_text() -> str:
    """One line per fixture graph on 1 to 7 vertices, disconnected ones
    included: its graph6 string, the exit code and the stdout of
    `recognize --json --verify` with the graph on stdin."""
    lines = []
    for n in range(1, 8):
        for graph in oracle.load_fixture_graphs(n):
            g6 = serialize_graph(graph, "graph6")
            stdin, sys.stdin = sys.stdin, io.StringIO(g6 + "\n")
            try:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = cli.main(["recognize", "--json", "--verify"])
            finally:
                sys.stdin = stdin
            lines.append(f"{g6} {code} {out.getvalue()}")
    return "".join(lines)


def test_recognize_output_on_every_fixture_matches_the_golden_file():
    """The certificate bytes and exit codes of all 1252 fixture graphs.

    Regenerate the file, after a change that is meant to alter them, with
    PYTHONPATH=src:tests python -c "import test_cli; print(test_cli.recognize_fixture_text(), end='')" > tests/golden/recognize_fixtures.txt
    """
    assert recognize_fixture_text() == RECOGNIZE_GOLDEN.read_text()
