import hashlib
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from paigeloops import (LimitError, PermGroup, aut_summary, cli, config,
                        load_tbl, loops, origin_stabilizer_automorphisms,
                        save_tbl)
from paigeloops import _kernels_py

ROOT = Path(__file__).resolve().parent.parent
KEYS = ["check", "parameters", "result", "value", "witness", "elapsed_ms"]


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "paigeloops.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def s3_tbl(s3, tmp_path_factory):
    p = tmp_path_factory.mktemp("tables") / "s3.tbl"
    save_tbl(s3, p)
    return str(p)


@pytest.fixture(scope="module")
def loop5_tbl(loop5, tmp_path_factory):
    p = tmp_path_factory.mktemp("tables") / "loop5.tbl"
    save_tbl(loop5, p)
    return str(p)


def test_loop_build_prints_order():
    out = run_cli("loop", "build", "--q", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == "120"


def test_loop_build_writes_table(tmp_path):
    dest = tmp_path / "m2.tbl"
    out = run_cli("loop", "build", "--q", "2", "--out", str(dest))
    assert out.returncode == 0
    L = load_tbl(dest)
    assert len(L) == 120
    assert L.labels is not None


def test_json_report_schema():
    out = run_cli("loop", "check", "moufang", "--q", "2", "--mode", "sample",
                  "--samples", "500", "--json", "--no-timing")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == KEYS
    assert row["check"] == "loop_moufang"
    assert row["result"] == "pass"
    assert row["witness"] is None
    assert row["elapsed_ms"] == 0
    assert row["parameters"]["q"] == 2
    assert row["parameters"]["samples"] == 500


def test_output_is_deterministic():
    args = ("octonion", "check", "composition", "--q", "3", "--mode",
            "sample", "--samples", "2000", "--json", "--no-timing")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_text_report_layout(s3_tbl):
    out = run_cli("mlt", "order", "--table", s3_tbl)
    assert out.returncode == 0
    assert out.stdout.strip() == "36"


def test_moufang_failure_gives_witness_and_exit_1(loop5_tbl):
    out = run_cli("loop", "check", "moufang", "--table", loop5_tbl,
                  "--mode", "full", "--json")
    assert out.returncode == 1
    row = json.loads(out.stdout)[0]
    assert row["result"] == "fail"
    assert row["witness"].startswith("identity ")
    assert "(x, y, z)" in row["witness"]


def test_center_and_simple(loop5_tbl):
    out = run_cli("loop", "check", "center", "--q", "2")
    assert out.returncode == 0
    out5 = run_cli("loop", "check", "simple", "--table", loop5_tbl)
    assert out5.returncode == 0


def test_composition_full_too_big_exits_3():
    out = run_cli("octonion", "check", "composition", "--q", "3",
                  "--mode", "full")
    assert out.returncode == 3


def test_decompose():
    out = run_cli("octonion", "check", "decompose", "--q", "2", "--json",
                  "--no-timing")
    assert out.returncode == 0
    row = json.loads(out.stdout)[0]
    assert row["check"] == "two_unit_decompose"
    assert row["value"] == "256"


def test_net_bol_failure(loop5_tbl):
    out = run_cli("net", "bol", "--table", loop5_tbl, "--json")
    assert out.returncode == 1
    row = json.loads(out.stdout)[0]
    assert row["result"] == "fail"
    assert row["witness"] == "class 1 value 0"


def test_net_bol_group_table(s3_tbl):
    out = run_cli("net", "bol", "--table", s3_tbl, "--json", "--no-timing")
    assert out.returncode == 0
    row = json.loads(out.stdout)[0]
    assert row["result"] == "pass"
    assert row["value"] == "18"


def test_triality_verify_on_group(s3_tbl):
    out = run_cli("triality", "verify", "--table", s3_tbl, "--samples",
                  "100", "--json", "--no-timing")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    by_check = {r["check"]: r for r in rows}
    assert by_check["triality_orders"]["value"] == "648 = 6 * 108"
    assert all(r["result"] == "pass" for r in rows)
    assert len(rows) == 4


def test_triality_verify_nonmoufang(loop5_tbl):
    out = run_cli("triality", "verify", "--table", loop5_tbl, "--json")
    assert out.returncode == 1
    row = json.loads(out.stdout)[0]
    assert row["result"] == "fail"
    assert "not a collineation" in row["witness"]


def test_aut_count_small_table(s3_tbl):
    out = run_cli("aut", "count", "--table", s3_tbl, "--method", "backtrack")
    assert out.returncode == 0
    assert out.stdout.strip() == "6"
    # the reflection-generated stabilizer realizes only the inner squares
    out2 = run_cli("aut", "count", "--table", s3_tbl, "--method",
                   "stabilizer")
    assert out2.returncode == 0
    assert out2.stdout.strip() == "3"
    out3 = run_cli("aut", "count", "--table", s3_tbl, "--method",
                   "conjugation")
    assert out3.returncode == 2


def test_aut_count_limit_exits_3():
    out = run_cli("aut", "count", "--q", "5")
    assert out.returncode == 3
    assert "limit" in out.stderr


def test_aut_count_conjugation_limit_exits_3():
    out = run_cli("aut", "count", "--method", "conjugation", "--q", "5")
    assert out.returncode == 3
    assert "limit" in out.stderr


def test_aut_count_q3_is_exhaustive(monkeypatch, capsys):
    """The exhaustive search is the default method at q = 3 too."""
    searched = []
    search = cli.aut_backtrack

    def counted(L):
        searched.append(len(L))
        return search(L)

    monkeypatch.setattr(cli, "aut_backtrack", counted)
    assert cli.run(["aut", "count", "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "4245696"
    assert searched == [1080]


def test_aut_summary_formula_only():
    out = run_cli("aut", "summary", "--q", "5")
    assert out.returncode == 0
    s = json.loads(out.stdout)
    assert s["computed"] is None
    assert s["predicted"] == "5859000000"


def test_usage_errors(s3_tbl):
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("loop", "build").returncode == 2
    assert run_cli("loop", "build", "--q", "6").returncode == 2
    assert run_cli("loop", "check", "moufang", "--q", "2", "--table",
                   s3_tbl).returncode == 2
    assert run_cli("loop", "check", "moufang", "--q", "2", "--mode",
                   "everything").returncode == 2
    assert run_cli("loop", "check", "moufang", "--q", "2", "--samples",
                   "-5").returncode == 2
    for argv in (["loop", "check", "moufang", "--q", "2", "--mode",
                  "sample", "--samples", "10", "--seed", "-1"],
                 ["octonion", "check", "composition", "--q", "2", "--mode",
                  "sample", "--samples", "10", "--seed", "-1"],
                 ["triality", "verify", "--q", "2", "--samples", "5",
                  "--seed", "-3"],
                 ["aut", "count", "--q", "2", "--table", s3_tbl, "--method",
                  "conjugation"],
                 ["aut", "summary", "--q", "2", "--methods", ","]):
        out = run_cli(*argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("error: ")


def test_corrupt_table_exits_2(tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("garbage\n1 2 3\n")
    out = run_cli("loop", "check", "moufang", "--table", str(bad))
    assert out.returncode == 2
    missing = tmp_path / "nowhere.tbl"
    assert run_cli("mlt", "order", "--table", str(missing)).returncode == 2


def test_unwritable_out_exits_2(s3_tbl, tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "x.json"
    out = run_cli("net", "bol", "--table", s3_tbl, "--out", str(dest))
    assert out.returncode == 2


def test_out_file_receives_report(s3_tbl, tmp_path):
    dest = tmp_path / "report.json"
    out = run_cli("net", "bol", "--table", s3_tbl, "--json", "--no-timing",
                  "--out", str(dest))
    assert out.returncode == 0
    rows = json.loads(dest.read_text())
    assert rows[0]["check"] == "net_bol"


def test_console_script_installed():
    """`paigeloops loop build --q 2` prints 120: the installed script
    wherever one is on PATH, and the entry point that pyproject.toml
    declares, started in a child process as pip's generated wrapper
    starts it, with or without an install."""
    args = ["loop", "build", "--q", "2"]

    def check(command):
        out = subprocess.run(command + args, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "120"

    script = shutil.which("paigeloops")
    if script:
        check([script])
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["paigeloops"]
    module, func = target.split(":")
    wrapper = ("import sys; sys.argv[0] = 'paigeloops'; "
               f"from {module} import {func}; sys.exit({func}())")
    check([sys.executable, "-c", wrapper])


def test_report_all_fills_the_table_once(monkeypatch, capsys):
    monkeypatch.setattr(loops, "_LIVE", weakref.WeakValueDictionary())
    fills = []
    build = loops._build_table

    def counted(F, reps):
        fills.append(F.q)
        return build(F, reps)

    monkeypatch.setattr(loops, "_build_table", counted)
    assert cli.run(["report", "all", "--q", "2", "--json",
                    "--no-timing"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 13
    assert fills == [2]


def test_report_all_skips_triality_past_the_degree_bound(monkeypatch,
                                                        capsys):
    # M*(2)'s net has 14,400 points; build_triality refuses it
    monkeypatch.setattr(config, "MAX_PERM_DEGREE", 14_399)
    assert cli.run(["report", "all", "--q", "2", "--json",
                    "--no-timing"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert "net_bol" in {r["check"] for r in rows}
    assert not [r for r in rows if r["check"].startswith("triality_")]


def test_report_all_skips_simplicity_when_refused(monkeypatch, capsys):
    def refused(L, mlt=None):
        raise LimitError("simplicity check capped", bound=0)

    monkeypatch.setattr(cli, "is_simple", refused)
    assert cli.run(["report", "all", "--q", "2", "--json",
                    "--no-timing"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert "loop_center" in {r["check"] for r in rows}
    assert "loop_simple" not in {r["check"] for r in rows}


def test_aut_count_stabilizer_refuses_the_listing(monkeypatch, capsys,
                                                  tri2):
    # M*(2)'s 14,400-cell table fits, its 12,096 x 120 maps do not: aut
    # count reads the stabilizer's order and lists nothing, and .alphas
    # refuses the listing before it fills a transversal
    events = []
    listing = PermGroup.element_array
    fill = _kernels_py.transversal_fill

    def recorded(self):
        events.append("list")
        try:
            return listing(self)
        except LimitError:
            events.append("refused")
            raise

    def counted_fill(*args):
        events.append("fill")
        return fill(*args)

    monkeypatch.setattr(config, "MAX_TABLE_CELLS", 12_096 * 120 - 1)
    monkeypatch.setattr(PermGroup, "element_array", recorded)
    monkeypatch.setattr(_kernels_py, "transversal_fill", counted_fill)
    assert cli.run(["aut", "count", "--q", "2", "--method",
                    "stabilizer"]) == 0
    assert capsys.readouterr().out.split() == ["12096"]
    assert "fill" in events and "list" not in events
    sc = origin_stabilizer_automorphisms(tri2())
    assert sc.count == 12_096
    events.clear()
    with pytest.raises(LimitError):
        sc.alphas
    assert events == ["list", "refused"]


def test_past_the_cell_bound_exits_3(tmp_path, paige2, capsys,
                                     traced_peak):
    """600 million sampled triples (1.8 * 10^9 cells), 5 * 10^7 sampled
    pairs (8 * 10^8 cells) and a table file of order 17,321 are refused
    before anything of their size is allocated or read."""
    big = tmp_path / "big.tbl"
    big.write_text("17321\n")
    for argv in (["loop", "check", "moufang", "--q", "2", "--mode",
                  "sample", "--samples", "600000000"],
                 ["octonion", "check", "composition", "--q", "3", "--mode",
                  "sample", "--samples", "50000000"],
                 ["loop", "check", "moufang", "--table", str(big)]):
        codes = []
        assert traced_peak(lambda: codes.append(cli.run(argv))) < 1
        assert codes == [3]
        assert capsys.readouterr().err.startswith("limit: ")


def test_aut_count_stabilizer_at_q3(paige3, capsys):
    """The origin stabilizer of M*(3) is counted, not listed, by aut count
    and by aut_summary's stabilizer route."""
    paige3()    # held, so the CLI and the summary reuse this M*(3)
    assert cli.run(["aut", "count", "--q", "3", "--method",
                    "stabilizer"]) == 0
    assert capsys.readouterr().out.split() == ["4245696"]
    summary = aut_summary(3, ["stabilizer"])
    assert summary["computed"] == summary["predicted"] == "4245696"


def test_report_all_q2_sections():
    out = run_cli("report", "all", "--q", "2", "--json", "--no-timing")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    names = [r["check"] for r in rows]
    assert names == sorted(names)
    expected = {"loop_build", "loop_moufang", "loop_center", "loop_simple",
                "composition_law", "two_unit_decompose", "mlt_order",
                "net_bol", "triality_orders", "triality_axiom_s_subgroup",
                "triality_axiom_triality_equation",
                "triality_axiom_gamma_commutator_span", "aut_summary"}
    assert set(names) == expected
    assert all(r["result"] == "pass" for r in rows)
    summary = json.loads([r for r in rows
                          if r["check"] == "aut_summary"][0]["witness"])
    assert summary["computed"] == "12096"
    # the whole report: every section's parameters, value and witness
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
        "9320e0393d3fce829710b8878666c443ed6c569ccd54f38a0777dc9a373314d9")
