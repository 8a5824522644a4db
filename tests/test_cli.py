import json
import subprocess
import sys
import weakref

import pytest

from paigeloops import cli, load_tbl, loops, save_tbl

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
    out = run_cli("aut", "count", "--q", "3", "--method", "backtrack")
    assert out.returncode == 3
    assert "limit" in out.stderr


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
    out = subprocess.run(["paigeloops", "loop", "build", "--q", "2"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "120"


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
