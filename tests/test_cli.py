import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normext
from normext import cli, quotient
from normext.cli import default_corpus_path, run
from normext.rewriting import GBState

CORPUS = default_corpus_path()
W_POLY = str(CORPUS / "w_poly.alg")
S2 = str(CORPUS / "cubic_s2.alg")
SKEW = str(CORPUS / "skew.alg")


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_good_exit_zero(capsys):
    code, out = run_cli(
        capsys, "verify", W_POLY, "--omit", "1", "--p", "1,1,1", "--bound", "8",
        "--engine", "gb",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True and blob["bound"] == 8
    assert blob["tables"]["D"] == [1, 3, 7, 13, 22, 34, 50, 70, 95]


def test_verify_bad_exit_one_with_defect_degree(capsys):
    code, out = run_cli(
        capsys, "verify", W_POLY, "--omit", "1", "--p", "1,2,1", "--bound", "8",
        "--engine", "gb",
    )
    assert code == 1
    blob = json.loads(out)
    assert blob["pass"] is False
    assert blob["diagnostics"]["first_defect_degree"] is not None


def test_input_errors_exit_two(capsys):
    assert run(["verify", W_POLY, "--omit", "9", "--p", "1,1,1"]) == 2
    assert run(["verify", str(CORPUS / "nope.alg"), "--omit", "1", "--p", "1,1,1"]) == 2
    assert run(["verify", W_POLY, "--omit", "1", "--p", "1,0,1"]) == 2
    assert run(["hilbert", W_POLY, "--engine", "warp"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", W_POLY, "--engine", "la"],
        ["check-superpotential", W_POLY, "--format", "tsv"],
        ["solve-tuples", S2, "--omit", "1", "--bound", "6"],
        ["verify", W_POLY, "--omit", "1", "--p", "1,1,1", "--format", "tsv"],
        ["family-probe", W_POLY, "--omit", "1"],
        ["family-probe", W_POLY, "--engine", "both"],
        ["zhang", W_POLY, "--omit", "1", "--p", "1,1,1", "--sigma", "2,1,1", "--bound", "9"],
        # no option is read as the prefix of a longer one
        ["family-probe", W_POLY, "--p", "1,1,1"],
        ["verify", W_POLY, "--om", "1", "--p", "1,1,1", "--bou", "4", "--eng", "gb"],
        ["hilbert", W_POLY, "--gb"],
        ["hilbert", W_POLY, "--gb-log"],
    ],
)
def test_options_a_command_ignores_are_rejected(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize(
    "argv",
    [["hilbert", W_POLY], ["verify", W_POLY, "--omit", "1", "--p", "1,1,1"], ["family-probe", W_POLY]],
    ids=["hilbert", "verify", "family-probe"],
)
def test_negative_bound_is_an_input_error(argv, capsys):
    assert run([*argv, "--bound", "-1"]) == 2
    assert "degree bound must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["la", "both"])
def test_verify_matches_gb(engine, capsys):
    args = ["verify", W_POLY, "--omit", "1", "--p", "1,1,1", "--bound", "5"]
    code_gb, out_gb = run_cli(capsys, *args, "--engine", "gb")
    code, out = run_cli(capsys, *args, "--engine", engine)
    assert (code, out) == (code_gb, out_gb) and code_gb == 0


def test_verify_below_2m_minus_1_matches_la(monkeypatch, capsys):
    """cubic_s2 has m = 3: at bound 4 the entries of M_l M_r (degree 5) lie
    above the bound, and the rewriting system for D must still reach them."""
    monkeypatch.setattr(quotient, "_GB_CACHE", {})
    args = ["verify", S2, "--omit", "1", "--p", "4,1/2", "--bound", "4"]
    code_la, out_la = run_cli(capsys, *args, "--engine", "la")
    code_gb, out_gb = run_cli(capsys, *args, "--engine", "gb")
    assert (code_gb, out_gb) == (code_la, out_la) and code_la == 0


CUBIC_A = str(CORPUS / "cubic_a.alg")


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["verify", CUBIC_A, "--omit", "2", "--bound", "4"], "--p", "-1,1"),
        (["build-extension", CUBIC_A, "--omit", "2"], "--p", "-1,1"),
        (["zhang", CUBIC_A, "--omit", "2", "--p=-1,1"], "--sigma", "-2,2"),
        (["family-probe", CUBIC_A, "--bound", "4"], "--points", "-1,1;1,1"),
    ],
    ids=["verify-p", "build-extension-p", "zhang-sigma", "family-probe-points"],
)
def test_option_values_may_begin_with_a_minus_sign(argv, option, value, capsys):
    """"--p -1,1" prints what "--p=-1,1" prints; argparse alone refuses it."""
    code, out = run_cli(capsys, *argv, option, value)
    assert (code, out) == run_cli(capsys, *argv, f"{option}={value}")
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", CUBIC_A, "--omit", "2", "--p", "--bound", "4"],
        ["zhang", CUBIC_A, "--omit", "2", "--p=-1,1", "--sigma", "--omit", "2"],
        ["family-probe", CUBIC_A, "--points", "-h"],
    ],
    ids=["p-then-bound", "sigma-then-omit", "points-then-help"],
)
def test_an_option_after_a_value_option_is_not_its_value(argv, capsys):
    assert run(argv) == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["alg_file", "p_option"])
def test_zero_denominator_is_an_input_error(where, tmp_path, capsys):
    if where == "alg_file":
        alg = tmp_path / "zero.alg"
        alg.write_text("algebra zero\nfield cyclotomic 1\ngens x, y\nw = 1/0*x*y*x - y*x*y ;\n")
        argv = ["verify", str(alg), "--omit", "1", "--p", "1,1"]
    else:
        argv = ["verify", W_POLY, "--omit", "1", "--p", "1,1/0,1"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero denominator" in err


@pytest.mark.parametrize("case", ["conductor", "sidecar_json", "sidecar_key"])
def test_malformed_input_files_are_input_errors(case, tmp_path, capsys):
    alg = tmp_path / "w.alg"
    if case == "conductor":
        alg.write_text("algebra zero\nfield cyclotomic 0\ngens x, y\nw = x*y*x - y*x*y ;\n")
        argv = ["hilbert", str(alg)]
    else:
        alg.write_text(Path(W_POLY).read_text())
        sidecar = "{bad" if case == "sidecar_json" else json.dumps({"good": {"one": []}})
        (tmp_path / "w.expect.json").write_text(sidecar)
        argv = ["tables", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_internal_value_error_is_not_input_feedback(monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(cli, "full_certificate", broken)
    with pytest.raises(ValueError, match="internal defect"):
        run(["verify", W_POLY, "--omit", "1", "--p", "1,1,1"])
    assert capsys.readouterr().err == ""


def test_solve_tuples_table_row(capsys):
    code, out = run_cli(capsys, "solve-tuples", S2, "--omit", "1")
    assert code == 0
    blob = json.loads(out)
    members = blob["families"][0]["members"]
    assert ["alpha", "alpha^{-1/2}"] in members


def test_check_superpotential_and_derive(capsys):
    code, out = run_cli(capsys, "check-superpotential", W_POLY)
    assert code == 0 and json.loads(out)["is_superpotential"] is True
    code, out = run_cli(capsys, "derive", S2)
    blob = json.loads(out)
    assert blob["derivatives"][0] == "x*y*y + alpha*y*y*x"
    assert blob["twist"] == ["alpha", "-alpha^{-1}"]


def test_hilbert_tsv(capsys):
    code, out = run_cli(
        capsys, "hilbert", W_POLY, "--bound", "4", "--format", "tsv", "--engine", "gb"
    )
    assert code == 0
    assert out.splitlines()[0] == "degree\tdim"
    assert out.splitlines()[1:] == ["0\t1", "1\t3", "2\t6", "3\t10", "4\t15"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", W_POLY, "--omit", "1"], "--p"),
        (["zhang", W_POLY, "--omit", "1", "--p", "1,1,1"], "--sigma"),
        (["solve-tuples", S2], "--omit"),
    ],
    ids=["verify-p", "zhang-sigma", "solve-tuples-omit"],
)
def test_a_missing_required_option_is_an_input_error(argv, option, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: missing required option {option}\n"


def test_a_bound_below_m_plus_1_is_an_input_error(capsys, monkeypatch):
    """The bound is refused before any stage completes A or D."""

    def refuse(self, d):
        raise RuntimeError("completion ran before the bound was checked")

    monkeypatch.setattr(GBState, "extend", refuse)
    monkeypatch.setattr(quotient.LinearEngine, "extend", refuse)
    assert run(["verify", W_POLY, "--omit", "1", "--p", "1,1,1", "--bound", "2"]) == 2
    assert "too small" in capsys.readouterr().err


def test_hilbert_with_a_tuple_prints_the_extension_table(capsys):
    code, out = run_cli(capsys, "hilbert", W_POLY, "--omit", "1", "--p", "1,1,1")
    blob = json.loads(out)
    assert code == 0 and blob["label"] == "D(w_poly)" and blob["bound"] == 8
    assert blob["dims"] == [1, 3, 7, 13, 22, 34, 50, 70, 95]


@pytest.mark.parametrize("p", ["1,2,3", "garbage"])
def test_hilbert_refuses_a_tuple_without_an_omitted_index(p, capsys):
    """``--p`` tables D only together with ``--omit``; alone it is refused,
    not ignored in favour of A's table."""
    assert run(["hilbert", W_POLY, "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --p needs --omit\n"


def test_family_probe_default_points(capsys):
    code, out = run_cli(
        capsys, "family-probe", W_POLY, "--bound", "5", "--format", "tsv"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "pass\ttrue"


def test_zhang_cli(capsys):
    code, out = run_cli(
        capsys, "zhang", W_POLY, "--omit", "1", "--p", "1,1,1", "--sigma", "2,1,1"
    )
    assert code == 0 and json.loads(out)["pass"] is True


def test_assign_override_lpwz(capsys):
    code, out = run_cli(
        capsys, "build-extension", S2, "--omit", "2", "--assign", "alpha:=-4",
        "--p", "2,1/4",
    )
    assert code == 0
    blob = json.loads(out)
    assert "-1/8*x*x*x*y + 1/4*x*x*y*x - 1/2*x*y*x*x + y*x*x*x" in blob["relations"]


@pytest.mark.parametrize("verb", ["derive", "check-superpotential", "solve-tuples"])
@pytest.mark.parametrize("assign", ["nonsense", "alpha^{2}:=3"])
def test_symbolic_commands_read_assign(verb, assign, capsys):
    """Bad --assign text is an input error, as for hilbert; good text leaves
    the symbolic report as it is without --assign."""
    argv = [verb, S2] + (["--omit", "1"] if verb == "solve-tuples" else [])
    assert run([*argv, "--assign", assign]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["hilbert", S2, "--assign", assign]) == 2
    capsys.readouterr()
    assert run_cli(capsys, *argv, "--assign", "alpha:=-4") == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", W_POLY, "--omit", "1", "--p", "1,1,1", "--bound", "5", "--assign", "a:=4"],
        ["hilbert", W_POLY, "--bound", "4", "--assign", "a:=4"],
        ["derive", W_POLY, "--assign", "a^{1/2}:=2"],
        ["check-superpotential", W_POLY, "--assign", "a:=4"],
    ],
    ids=lambda argv: argv[0],
)
def test_assigning_a_name_the_algebra_lacks_is_an_input_error(argv, capsys):
    """w_poly has no parameters, so it refuses any --assign name, as an
    algebra with parameters refuses a name it does not declare."""
    assert run(argv) == 2
    assert "undeclared parameter 'a'" in capsys.readouterr().err


def test_tables_command(capsys):
    code, out = run_cli(capsys, "tables", str(CORPUS))
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    rows = {r["entry"]: r for r in blob["corpus"]}
    assert rows["sklyanin"]["row"] == "A"
    s2_rows = rows["cubic_s2"]["results"]
    assert all(v["contained"] for res in s2_rows for v in res["listed"])
    wp = rows["w_poly"]["results"][0]
    assert wp["surplus"] == "no table row; families only"


def test_tables_missing_sidecar(tmp_path, capsys):
    """A missing sidecar, or one whose top level is not an object or whose
    'good' does not map indices to lists of strings, is an input error."""
    for i, sidecar in enumerate([None, "[]", '{"good": ["1"]}', '{"good": {"1": [5]}}']):
        corpus = tmp_path / str(i)
        corpus.mkdir()
        # a valid superpotential, so only the sidecar can stop the run
        (corpus / "w_poly.alg").write_text(Path(W_POLY).read_text())
        if sidecar is not None:
            (corpus / "w_poly.expect.json").write_text(sidecar)
        assert run(["tables", str(corpus)]) == 2, sidecar
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sidecar" in err and "Traceback" not in err, (sidecar, err)


def test_tables_dotted_entry_reads_its_own_sidecar(tmp_path, capsys):
    """Entry x.v2 reads x.v2.expect.json, not the sidecar of entry x."""
    for name, table in (("x", "quadratic"), ("x.v2", "cubic")):
        (tmp_path / f"{name}.alg").write_text(Path(W_POLY).read_text())
        (tmp_path / f"{name}.expect.json").write_text(json.dumps({"table": table}))
    code, out = run_cli(capsys, "tables", str(tmp_path))
    assert code == 0
    tables = {r["entry"]: r["table"] for r in json.loads(out)["corpus"]}
    assert tables == {"x": "quadratic", "x.v2": "cubic"}


def test_solver_reports_are_pinned(capsys):
    """sha256 of stdout and the exit code of ``tables`` (json and tsv) and of
    ``solve-tuples <entry> --omit k`` for every corpus entry and k = 1..3.
    An omitted index past n is an input error with empty stdout."""
    expected = {
        "cubic_a 1": ("6c45663adad16a34e3c60fa1e88fad16a2afa552ee05d172a5cebf7017062bf5", 0),
        "cubic_a 2": ("7bf8c14f7b4edd1bf374e20a327362f187d365d261808118510e2dfaeea20e46", 0),
        "cubic_a 3": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
        "cubic_s2 1": ("a4cde66f601aa48f48721c83a05247abc18b43304782befa750debf24317dcef", 0),
        "cubic_s2 2": ("3caa81019c491d8cf77082f7c57131d8238dbdba90c21dd7b67ea5027eedd395", 0),
        "cubic_s2 3": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
        "skew 1": ("ee46f6343f908155a7ff3adc0200ee610e3d94a9747e711aaead0f26fee895c0", 0),
        "skew 2": ("dbea72ae36cf4220cfaaa55c02d92fc670376847ea69d499961173c153ef708d", 0),
        "skew 3": ("d58f1dc8fca7c04877755d9d37c4e90d7cffe7ecc80a62f582eec16c5997ae38", 0),
        "sklyanin 1": ("67a311466d814bf0d73eb97cd0a254177be39fdc474ef3ca3c82727917a230c4", 0),
        "sklyanin 2": ("70b8257fe8246861535abb4fdb16c389ba9a5b2bca827e35001f4fb007abbb63", 0),
        "sklyanin 3": ("4198dddf26ff803cc981188172e5216596563a81786865a0199e114149012285", 0),
        "w_poly 1": ("a183ae7e40367b2fdb7de01f0868e181b705233623680ecb0ed8dc71827a2480", 0),
        "w_poly 2": ("a4e37fb842885e789a979584bbdb3da166d9dcf7e2612fa167c91bd38848186d", 0),
        "w_poly 3": ("d45159bf48860fed836ecca1791596bebc28e0e02287e5d72414ed19d57226a4", 0),
        "tables json": ("a192e5d11c5f1c9078e996122190c9cadf40930c5acb8e500ded45e1fd0283ad", 0),
        "tables tsv": ("bcdef3eb689a5d66721d591457a22a362a759f7299d39353301b878f203a5175", 0),
    }
    runs = {"tables json": ["tables"], "tables tsv": ["tables", "--format", "tsv"]}
    for alg in sorted(CORPUS.glob("*.alg")):
        for k in (1, 2, 3):
            runs[f"{alg.stem} {k}"] = ["solve-tuples", str(alg), "--omit", str(k)]
    got = {}
    for key, argv in runs.items():
        code, out = run_cli(capsys, *argv)
        got[key] = (hashlib.sha256(out.encode("utf-8")).hexdigest(), code)
    assert got == expected


def test_reports_are_deterministic(capsys):
    args = ["verify", SKEW, "--omit", "1", "--p", "2,1,1", "--bound", "6", "--engine", "gb"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


W_POLY_RELS = """algebra w_poly
field cyclotomic 12
gens x, y, z
rels = y*z - z*y ; -x*z + z*x ; x*y - y*x ;
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--omit", "1", "--p", "1,1,1"],
        ["verify", "--omit", "2", "--p=-1,1,-1"],
        ["hilbert"],
        ["check-superpotential"],
    ],
    ids=["verify-1", "verify-2", "hilbert", "check-superpotential"],
)
def test_a_rels_file_reports_as_its_superpotential(argv, tmp_path, capsys):
    """w_poly written as its three derivatives ("rels = ...") prints, byte
    for byte, what w_poly.alg prints: the superpotential is recovered from
    the relations."""
    path = tmp_path / "w_poly.alg"
    path.write_text(W_POLY_RELS, encoding="utf-8")
    code, out = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == run_cli(capsys, argv[0], W_POLY, *argv[1:])
    assert code == 0 and out


def test_console_entry_point():
    src = str(Path(normext.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "normext.cli", "check-superpotential", W_POLY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["degree"] == 3
