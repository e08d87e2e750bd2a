import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusasym

from torusasym.cli import main, parse_n_range, parse_xi, snap_special_xi
from torusasym import TorusKnot


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1+1i", complex(1, 1)),
            ("1", complex(1, 0)),
            ("-0.5+3i", complex(-0.5, 3)),
            ("0+6.2832i", complex(0, 6.2832)),
            ("2i", complex(0, 2)),
            ("-1.5e-2+0.25i", complex(-0.015, 0.25)),
        ],
    )
    def test_xi_ok(self, text, expected):
        assert parse_xi(text) == expected

    @pytest.mark.parametrize("text", ["1+*i", "", "i+1", "1 + 2i", "abc"])
    def test_xi_malformed(self, text):
        from torusasym.cli import CliError

        with pytest.raises(CliError):
            parse_xi(text)

    def test_n_range(self):
        assert parse_n_range("20") == [20]
        assert parse_n_range("100:800:x2") == [100, 200, 400, 800]
        assert parse_n_range("100:400:+100") == [100, 200, 300, 400]

    def test_snap(self):
        knot = TorusKnot(2, 3)
        z = snap_special_xi(knot, complex(0, 6.2832))
        assert abs(complex(z) - complex(0, 2 * math.pi)) < 1e-12
        # plain values pass through untouched
        assert snap_special_xi(knot, complex(1, 2)) == complex(1, 2)


class TestEval:
    def test_color_one_integral(self, capsys):
        code, out, err = run_cli(
            ["eval", "--a", "2", "--b", "3", "--N", "1", "--xi", "1+1i", "--method", "integral"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "integral"
        assert abs(float(record["value_re"]) - 1.0) < 1e-9
        assert abs(float(record["value_im"])) < 1e-9

    def test_sum_equals_integral(self, capsys):
        base = ["eval", "--a", "2", "--b", "3", "--N", "20", "--xi", "1+0i"]
        code1, out1, _ = run_cli(base + ["--method", "sum"], capsys)
        code2, out2, _ = run_cli(base + ["--method", "integral"], capsys)
        assert code1 == code2 == 0
        v1 = json.loads(out1)
        v2 = json.loads(out2)
        assert abs(float(v1["value_re"]) - float(v2["value_re"])) < 1e-8
        assert abs(float(v1["value_im"]) - float(v2["value_im"])) < 1e-8

    def test_negative_real_xi_space_form(self, capsys):
        # "--xi -0.5+3i" must not be read as an option (README form)
        base = ["eval", "--a", "2", "--b", "3", "--N", "5"]
        code1, out1, err1 = run_cli(base + ["--xi", "-0.5+3i"], capsys)
        code2, out2, _ = run_cli(base + ["--xi=-0.5+3i"], capsys)
        assert code1 == code2 == 0, err1
        assert out1 == out2
        assert json.loads(out1)["xi"] == "-0.5+3.0i"

    def test_malformed_xi_exits_2(self, capsys):
        code, out, err = run_cli(
            ["eval", "--a", "2", "--b", "3", "--N", "5", "--xi", "1+*i"], capsys
        )
        assert code == 2
        assert json.loads(err)["error"] == "argument"

    def test_numeric_failure_exits_3(self, capsys):
        # the integral route refuses exact multiples of 2 pi i
        code, out, err = run_cli(
            ["eval", "--a", "2", "--b", "3", "--N", "5", "--xi", "0+6.2832i", "--method", "integral"],
            capsys,
        )
        assert code == 3
        assert json.loads(err)["error"] == "InvalidXi"

    def test_cancellation_limit_exits_3(self, capsys):
        # the sum cancels about 4330 bits, more than it may absorb
        code, out, err = run_cli(
            ["eval", "--a", "2", "--b", "3", "--N", "2000", "--xi=-1+0.2i", "--method", "sum"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "CancellationLimit"

    def test_integral_refuses_large_n_exits_2(self, capsys):
        code, out, err = run_cli(
            ["eval", "--a", "2", "--b", "3", "--N", "5001", "--xi", "1+1i", "--method", "integral"],
            capsys,
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "argument"
        assert "5000" in record["message"]

    def test_precision_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TORUSASYM_PRECISION", "21")
        code, out, _ = run_cli(
            ["eval", "--a", "2", "--b", "3", "--N", "3", "--xi", "1+0i"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["precision_digits"] == 21
        assert isinstance(record["value_re"], str)  # > 17 digits: decimal strings


class TestExpand:
    def test_sweep_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            [
                "expand", "--a", "2", "--b", "3", "--xi", "1+0i", "--J", "2",
                "--N", "100:800:x2", "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,oracle_abs,approx_abs,residual,case_tag"
        assert len(lines) == 5
        residuals = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(r1 < r0 for r0, r1 in zip(residuals, residuals[1:]))

    def test_negative_real_xi_space_form(self, capsys):
        code, out, err = run_cli(
            ["expand", "--a", "2", "--b", "3", "--xi", "-0.5+3i", "--N", "20"], capsys
        )
        assert code == 0, err
        report = json.loads(out)["reports"][0]
        assert report["xi"] == "-0.5+3.0i"
        assert report["case_tag"] == "not_pole_nonpos_re"

    def test_routes_to_root_of_unity(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--a", "2", "--b", "3", "--xi", "0+6.2832i", "--N", "300"], capsys
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["case_tag"] == "kt_2pii"

    def test_next_to_removable_zero(self, capsys):
        # xi/2 lies about 1e-8 from the removable zero pi i/3 of T(2,3)'s kernel
        code, out, err = run_cli(
            ["expand", "--a", "2", "--b", "3", "--xi=0+2.0943951i", "--J", "3", "--N", "400"],
            capsys,
        )
        assert code == 0, err
        assert float(json.loads(out)["reports"][0]["residual"]) < 1e-9

    def test_routes_to_pole_case(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--a", "2", "--b", "3", "--xi", "0+1.0472i", "--N", "200"], capsys
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["case_tag"] == "pole_case"


class TestVerify:
    def test_pass(self, capsys, tmp_path):
        report = tmp_path / "verify.json"
        code, out, _ = run_cli(["verify", "--bound", "15", "--json", str(report)], capsys)
        assert code == 0
        data = json.loads(report.read_text())
        assert data["overall"] == "PASS"
        names = {c["identity"] for c in data["checks"]}
        assert "meridian-torsion-identity" in names
        assert "cs-closed-form-vs-component-form" in names
        for check in data["checks"]:
            assert check["status"] in ("PASS", "RECORDED")

    def test_bound_without_knots_exits_2(self, capsys):
        # no torus knot has ab <= 5, so every check would pass over no samples
        code, out, err = run_cli(["verify", "--bound", "5"], capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "argument"
        assert "T(2,3)" in record["message"] and "ab = 6" in record["message"]

    def test_perturbed_fails(self, capsys):
        code, out, _ = run_cli(["verify", "--bound", "15", "--perturb", "1e-6"], capsys)
        assert code == 1
        assert json.loads(out)["overall"] == "FAIL"

    def test_perturbed_statuses(self, capsys):
        # the integer combinatorics check cannot see a 1e-6 fault under its
        # 0.5 tolerance; every continuous identity must
        code, out, _ = run_cli(["verify", "--bound", "15", "--perturb", "1e-6"], capsys)
        assert code == 1
        statuses = {c["identity"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses == {
            "component-count-and-two-to-one": "PASS",
            "sin2-label-invariance": "FAIL",
            "meridian-torsion-identity": "FAIL",
            "group-action-relations": "FAIL",
            "cs-closed-form-vs-component-form": "FAIL",
            "longitude-lift-derivative": "FAIL",
            "partner-preimage-equivalence": "RECORDED",
        }


class TestRegion:
    def test_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "region.csv"
        code, _, _ = run_cli(
            [
                "region", "--a", "2", "--b", "3", "--re-min", "-2", "--re-max", "2",
                "--im-min", "0", "--im-max", "2", "--step", "0.25", "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "re,im,class"
        cells = {(row.split(",")[0], row.split(",")[1]): row.split(",")[2] for row in lines[1:]}
        # every grid point with positive real part converges
        for (x, y), cls in cells.items():
            if cls in ("boundary_oscillates", "pole_marker", "excluded_2pii_multiple"):
                continue
            if float(x) > 0:
                assert cls == "converges"
        assert cells[("0.0", "1.5")] == "diverges"
        # boundary semicircle and pole markers are present
        assert any(c == "pole_marker" for c in cells.values())
        boundary = [k for k, c in cells.items() if c == "boundary_oscillates"]
        assert any(abs(complex(float(x), float(y))) - 2 * math.pi / 6 < 1e-9 for x, y in boundary)


    def test_excludes_points_near_2pii_multiple(self, capsys, tmp_path):
        # Re xi = 5e-10 is within the 1e-9 snap of 2 pi i, where the
        # classifier is undefined: the row is excluded, not a numeric failure
        csv_path = tmp_path / "region.csv"
        code, _, err = run_cli(
            [
                "region", "--a", "2", "--b", "3", "--re-min", "5e-10", "--re-max", "1",
                "--im-min", repr(2 * math.pi), "--im-max", "7", "--step", "1",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0, err
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        first = rows[0]
        assert (float(first[0]), float(first[1])) == pytest.approx((5e-10, 2 * math.pi))
        assert first[2] == "excluded_2pii_multiple"


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        args = [
            "expand", "--a", "2", "--b", "3", "--xi", "1+2i", "--J", "1",
            "--N", "50:200:x2",
        ]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--json", str(p1)]) == 0
        assert main(args + ["--json", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()


def test_import_leaves_numpy_out():
    src = Path(torusasym.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, torusasym.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
