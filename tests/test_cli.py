"""CLI behavior: formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mpf

import msskit
from msskit.cli import main

DATA = Path(__file__).parent / "data"
# argv (space-joined) -> [exit code, stdout, stderr], recorded before the
# CLI's factor, enumerate and count renderers were folded into the library.
CLI_GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_json_true(self, capsys):
        code, out, err = run_cli(capsys, "check", "RLLC")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload == {
            "sequence": "RLLC",
            "is_mss": True,
            "failing_shift": None,
            "failing_rule": None,
        }

    def test_false_verdict_is_success(self, capsys):
        code, out, _ = run_cli(capsys, "check", "RLRLC")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_mss"] is False
        assert payload["failing_shift"] == 2

    def test_run_notation_input(self, capsys):
        code, out, _ = run_cli(capsys, "check", "RL^2C")
        assert code == 0 and json.loads(out)["sequence"] == "RLLC"

    def test_bad_sequence_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "RCX")
        assert code == 1
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("text", ["R^" + "1" * 5000 + "C", "R^100000000C"],
                             ids=["5000-digit-exponent", "exponent-1e8"])
    def test_huge_exponent_is_domain_error(self, capsys, text):
        code, out, err = run_cli(capsys, "check", text)
        assert (code, out) == (1, "")
        assert err == "error: run notation expands to more than 1000000 symbols\n"


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--period", "4")
        assert code == 0
        assert out.splitlines() == ["0\tRLRC", "1\tRLLC"]

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--period", "6", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 5
        assert payload["sequences"][0].keys() == {
            "index", "sequence", "q", "block_form", "is_primary",
        }
        assert [row["sequence"] for row in payload["sequences"]] == [
            "RLRRRC", "RLLRLC", "RLLRRC", "RLLLRC", "RLLLLC",
        ]
        assert [row["is_primary"] for row in payload["sequences"]] == [
            False, False, True, True, True,
        ]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--period", "4", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "sequence", "q", "block_form", "is_primary"]
        assert rows[1] == ["0", "RLRC", "1", "q=1:1,R", "false"]
        assert len(rows) == 3

    def test_methods_agree(self, capsys):
        _, a, _ = run_cli(capsys, "enumerate", "--period", "8", "--method", "structured")
        _, b, _ = run_cli(capsys, "enumerate", "--period", "8", "--method", "bruteforce")
        assert a == b

    def test_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "enumerate", "--period", "7", "--format", "json")
        _, b, _ = run_cli(capsys, "enumerate", "--period", "7", "--format", "json")
        assert a == b

    def test_worker_env_keeps_output(self, capsys, monkeypatch):
        # The library reads no environment variable: brute force is one
        # sequential path, whatever MSSKIT_THREADS holds.
        argvs = [("selftest", "--pmax", "10"),
                 ("enumerate", "--method", "bruteforce", "--period", "9")]
        monkeypatch.delenv("MSSKIT_THREADS", raising=False)
        unset = [run_cli(capsys, *argv) for argv in argvs]
        monkeypatch.setenv("MSSKIT_THREADS", "abc")
        for argv, before in zip(argvs, unset):
            assert run_cli(capsys, *argv) == before
            assert before[0] == 0

    @pytest.mark.parametrize("fmt, name", [("text", "enumerate_p10.txt"),
                                           ("csv", "enumerate_p10.csv")])
    def test_golden(self, capsys, fmt, name):
        # Read as bytes so the csv writer's CRLF line ends are compared too.
        code, out, _ = run_cli(capsys, "enumerate", "--period", "10", "--format", fmt)
        assert code == 0
        assert out == (DATA / name).read_bytes().decode()

    def test_compressed_output(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "--period", "5", "--expand", "false")
        assert "RL^3C" in out


class TestComposeFactor:
    def test_compose(self, capsys):
        code, out, _ = run_cli(capsys, "compose", "RC", "RC")
        assert code == 0
        assert json.loads(out) == {
            "sequence": "RLRC",
            "primary": False,
            "factors": ["RC", "RC"],
        }

    def test_factor(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "RLRC")
        payload = json.loads(out)
        assert payload["primary"] is False
        assert payload["factors"] == ["RC", "RC"]

    def test_factor_primary(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "RLLC")
        payload = json.loads(out)
        assert payload["primary"] is True and payload["factors"] is None

    def test_factor_tree(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "RLRRRLRC", "--tree")
        payload = json.loads(out)
        tree = payload["tree"]
        assert tree["sequence"] == "RLRRRLRC"
        # the smallest inner factor splits off first: RC * RLRC
        assert tree["children"][0]["sequence"] == "RC"
        assert tree["children"][1]["sequence"] == "RLRC"
        assert tree["children"][1]["children"][0]["sequence"] == "RC"

    def test_factor_non_mss_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "factor", "RRC")
        assert code == 1 and err.startswith("error:")

    def test_factor_run_bound_violation_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "factor", "RLLRLLLC")
        assert code == 1 and err.startswith("error:")

    def test_compose_compressed(self, capsys):
        _, out, _ = run_cli(capsys, "compose", "RLLLC", "RL^2R^3LC", "--expand", "false")
        assert json.loads(out)["sequence"] == "RL^4RL^3R^2L^3R^2L^4RL^4RL^4RL^3R^2L^3C"


class TestCount:
    def test_single(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--period", "12", "--kind", "single")
        payload = json.loads(out)
        assert code == 0
        assert payload["formula_value"] == 4
        assert payload["enumerated_value"] is None

    def test_repeated_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--period", "12", "--kind", "repeated", "--verify"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["formula_value"] == 8 == payload["enumerated_value"]
        assert payload["match"] is True

    def test_sblocks(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--kind", "sblocks", "--m", "4", "--qcap", "2", "--verify"
        )
        payload = json.loads(out)
        assert code == 0 and payload["formula_value"] == 7 and payload["match"]

    def test_sblocks_requires_m(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "count", "--kind", "sblocks")
        assert exc.value.code == 2


class TestLocateVerbs:
    def test_locate(self, capsys):
        code, out, _ = run_cli(capsys, "locate", "RC")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["r_star"] - 3.2360679774997) < 1e-9
        assert payload["residual"] < 1e-13

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_locate_rejects_bad_tol(self, capsys, tol):
        code, out, err = run_cli(capsys, "locate", "RLC", "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: tol must be finite and positive")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tol, shown", [("-1e400", "-inf"), ("-1e-400", "-0.0")])
    def test_locate_rejects_negative_tol_outside_the_float_range(self, capsys, tol, shown):
        code, out, err = run_cli(capsys, "locate", "RLC", f"--tol={tol}")
        assert (code, out) == (1, "")
        assert err == f"error: tol must be finite and positive, got {shown}\n"

    def test_locate_tol_below_the_float_range(self, capsys):
        # float("1e-400") is 0.0; the text is read as an mpf instead.
        found = msskit.locate("RLC", tol=mpf("1e-400"))
        code, out, err = run_cli(capsys, "locate", "RLC", "--tol", "1e-400")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "sequence": found.sequence,
            "r_star": float(found.r_star),
            "residual": found.residual,
            "iterations": found.iterations,
        }
        assert found.iterations > 1000

    def test_locate_tol_above_the_float_range(self, capsys):
        # float("1e400") is inf; as an mpf every residual is below it.
        code, out, err = run_cli(capsys, "locate", "RLC", "--tol", "1e400")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["r_star"], payload["iterations"]) == (3.5, 1)

    def test_locate_tol_that_is_no_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "locate", "RLC", "--tol", "abc")
        assert exc.value.code == 2
        assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err

    def test_locate_above_1000_bits(self, capsys):
        # tol = 1e-300 needs over 1000 bits of working precision.
        code, out, err = run_cli(capsys, "locate", "RLRRRLRC", "--tol", "1e-300")
        assert (code, err) == (0, "")
        assert out == (
            '{"sequence": "RLRRRLRC", "r_star": 3.554640862768825, '
            '"residual": 8.95881680007307e-301, "iterations": 995}\n'
        )

    def test_locate_at_a_loose_tol(self, capsys):
        # At r = 3.5 the orbit passes 0.004 from 1/2 at step 4; steps 1..p-1
        # are read in the eps dead band, not tol's, so it reads R there.
        code, out, err = run_cli(capsys, "locate", "RLRRRLRC", "--tol", "0.01")
        assert (code, err) == (0, "")
        assert out == (
            '{"sequence": "RLRRRLRC", "r_star": 3.5, '
            '"residual": 0.0008837958933971403, "iterations": 1}\n'
        )

    def test_locate_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "locate", "C")
        assert json.loads(out)["r_star"] == 2.0

    def test_locate_degenerate_in_run_notation(self, capsys):
        # C^1 is the period-1 word C, parsed before the shortcut takes it.
        expected = run_cli(capsys, "locate", "C")
        assert run_cli(capsys, "locate", "C^1") == expected
        assert expected[0] == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("XYZ", "cannot parse 'XYZ' at offset 0"),
            ("RL", "'RL': must end with C"),
            ("C^2", "'CC': interior symbols must be R or L"),
            ("RLRLC", "RLRLC is not an MSS-sequence"),
        ],
    )
    def test_locate_parse_errors(self, capsys, text, message):
        # The verb hands its text to locate, which parses it as
        # parse_sequence does.
        code, out, err = run_cli(capsys, "locate", text)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_verify_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify-order", "--pmax", "4")
        assert code == 0
        assert out.splitlines()[-1] == "order OK over 4 sequences"

    def test_verify_order_golden(self, capsys):
        # Every parameter and residual printed to the last digit, against
        # output recorded from the all-mpmath bisection.
        code, out, _ = run_cli(capsys, "verify-order", "--pmax", "8")
        assert code == 0
        assert out == (DATA / "verify_order_p8.txt").read_text()

    def test_verify_order_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify-order", "--pmax", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["ok"] is True
        assert [r["sequence"] for r in payload["rows"]] == ["RC", "RLRC", "RLC", "RLLC"]


class TestSelftest:
    def test_quick_suite(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--pmax", "8", "--suite", "counting")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_golden(self, capsys):
        # Every suite's verdict and counts, byte for byte.
        code, out, _ = run_cli(capsys, "selftest", "--pmax", "12")
        assert code == 0
        assert out == (DATA / "selftest_p12.txt").read_text()

    @pytest.mark.parametrize("suites", [["oracle"], ["construction"], ["counting"],
                                        ["roundtrip"], ["counting", "construction"]])
    def test_suite_subset_golden(self, capsys, suites):
        # Each suite prints its own golden lines whichever suites run with it.
        golden = (DATA / "selftest_p12.txt").read_text().splitlines(keepends=True)
        lines = [line for s in suites for line in golden if line.startswith(f"[PASS] {s}:")]
        argv = [arg for s in suites for arg in ("--suite", s)]
        code, out, _ = run_cli(capsys, "selftest", "--pmax", "12", *argv)
        assert code == 0
        assert out == "".join(lines) + f"{len(lines)}/{len(lines)} checks passed\n"

    def test_suite_choices_are_the_library_suites(self, capsys):
        from msskit import cli, selftest

        sub = next(a for a in cli._build_parser()._actions if a.dest == "verb")
        suite = next(a for a in sub.choices["selftest"]._actions if a.dest == "suite")
        assert suite.choices == list(selftest.SUITES)
        with pytest.raises(SystemExit):
            main(["selftest", "--help"])
        assert "--suite {oracle,construction,counting,roundtrip}" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        from msskit.selftest import run_selftest

        with pytest.raises(ValueError):
            run_selftest(pmax=6, suites=["bogus"])

    @pytest.mark.parametrize("pmax", ["1", "0", "-3"])
    def test_pmax_below_two_rejected(self, capsys, pmax):
        # Every range would be empty and the suites would pass vacuously.
        code, out, err = run_cli(capsys, "selftest", "--pmax", pmax)
        assert code == 1
        assert out == ""
        assert err == "error: pmax must be >= 2\n"

    def test_pmax_two_output(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--pmax", "2")
        assert code == 0
        assert out == (
            "[PASS] oracle: three-route equivalence p<=2 (1 candidates, 0 disagreements)\n"
            "[PASS] construction: period 2 (1 structured vs 1 brute)\n"
            "[PASS] counting: block formula vs enumeration (m<=12, run<=6) (0 mismatches)\n"
            "[PASS] counting: single-group non-primary count p<=2 (all match)\n"
            "[PASS] counting: core-factor count p<=2 (all match)\n"
            "[PASS] roundtrip: compose/factor round-trip |a|*|b|<=24 (864 pairs, 0 failures)\n"
            "[PASS] roundtrip: shape tests imply non-primary p<=2 (0 shape hits, 0 unsound)\n"
            "7/7 checks passed\n"
        )


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "RLC", "--bogus"])
        assert exc.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_golden(capsys, argv):
    assert list(run_cli(capsys, *argv.split())) == CLI_GOLDEN[argv]


# SHA-256 of the stdout the benchmark pins for its CLI workloads
# (bench/workloads.py), so that a byte change fails here too.
BENCHMARK_DIGESTS = {
    "selftest --pmax 16": "7a9e2cab7b69533e05f3142469423b8ac781e2115dd0c1bc95a0bc808370c02e",
    "verify-order --pmax 12": "3f8f9891511651d3a456135157cfcdd9280b523773a85f0caf1d239e772f454d",
}


@pytest.mark.parametrize("argv", sorted(BENCHMARK_DIGESTS))
def test_benchmark_digest(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_DIGESTS[argv]


class TestModuleEntryPoint:
    def test_python_m_msskit_runs_the_cli(self, capsys):
        code, expected, _ = run_cli(capsys, "check", "RLC")
        assert code == 0
        src = str(Path(msskit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "msskit", "check", "RLC"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
