"""Command-line interface and the JSON design artifacts."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from optdesign import (
    EXP1,
    EXP2,
    BetaGrid,
    DesignMeasure,
    ParameterPrior,
    solve_bayes,
    solve_local,
    solve_maximin,
)
from optdesign.cli import main
from optdesign.io import (
    design_from_json,
    design_to_json,
    read_artifact,
    verify_artifact,
    write_artifact,
)


def _curve(path):
    rows = [line.split() for line in path.read_text().strip().splitlines()]
    assert rows and all(len(row) == 2 for row in rows)
    curve = np.array(rows, dtype=float)
    assert np.all(np.isfinite(curve))
    return curve


class TestParsing:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_model_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["local", "--model", "cubic", "--beta", "2"])
        assert exc.value.code == 2

    def test_malformed_prior_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bayes", "--model", "exp1", "--prior", "uniform:1"])
        assert exc.value.code == 2

    def test_malformed_range_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["maximin", "--model", "exp1", "--beta-range", "1-10"])
        assert exc.value.code == 2


class TestLocalCommand:
    def test_solves_and_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        rc = main(["local", "--model", "exp1", "--beta", "4",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "0.250000" in text and "passed" in text
        doc = json.loads(out.read_text())
        assert doc["model"] == "exp1"
        assert doc["certificate"]["passed"] is True
        np.testing.assert_allclose(doc["design"]["points"], [0.25], atol=1e-6)

    def test_plot_data_files(self, tmp_path):
        prefix = str(tmp_path / "curves")
        rc = main(["local", "--model", "exp2", "--beta", "3",
                   "--plot-data", prefix])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert any("dirderiv" in f for f in files)
        _curve(tmp_path / files[0])  # two numeric columns per line


class TestPlotData:
    @pytest.mark.parametrize("argv, m", [
        (["bayes", "--model", "exp1", "--prior", "uniform:1:10"], 1),
        (["maximin", "--model", "exp2", "--beta-range", "1:4",
          "--beta-grid", "20"], 2),
    ])
    def test_curves_respect_the_certificate(self, tmp_path, argv, m):
        out = tmp_path / "d.json"
        prefix = str(tmp_path / "curves")
        assert main(argv + ["--out", str(out), "--plot-data", prefix]) == 0
        tol = json.loads(out.read_text())["certificate"]["tolerance"]
        deriv = _curve(tmp_path / "curves.dirderiv.txt")
        eff = _curve(tmp_path / "curves.efficiency.txt")
        assert deriv[:, 1].max() <= m * (1.0 + tol)
        assert eff[:, 1].max() <= 1.0 + 1e-9


ROUND_TRIP_CASES = {
    "local": (EXP2, 3.0, solve_local),
    "bayes": (EXP2, ParameterPrior.discrete_uniform(3), solve_bayes),
    "maximin": (EXP1, BetaGrid(1.0, 10.0), solve_maximin),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_CASES))
def test_verify_reproduces_solver_certificate(tmp_path, case):
    model, criterion, solve = ROUND_TRIP_CASES[case]
    design, cert = solve(model, criterion)
    path = str(tmp_path / "a.json")
    write_artifact(path, model, criterion, design, cert)
    again = verify_artifact(path)
    assert again.passed == cert.passed
    assert again.max_directional_derivative == pytest.approx(
        cert.max_directional_derivative, rel=0.0, abs=1e-12)
    assert again.worst_point == pytest.approx(cert.worst_point, rel=0.0, abs=1e-12)
    mu, mu_again = cert.least_favorable_weights, again.least_favorable_weights
    if case == "maximin":
        assert mu and mu_again.keys() == mu.keys()
        for b, w in mu.items():
            assert mu_again[b] == pytest.approx(w, rel=0.0, abs=1e-12)
    else:
        assert mu is None and mu_again is None


class TestVerifyCommand:
    def test_round_trip_passes(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["maximin", "--model", "exp1", "--beta-range", "1:10",
                     "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_tampered_design_fails(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["local", "--model", "exp2", "--beta", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["design"]["points"] = [0.1, 0.9]
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1

    def test_missing_file_is_a_runtime_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 1


class TestBayesCommand:
    def test_uniform_prior(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        rc = main(["bayes", "--model", "exp1", "--prior", "uniform:1:10",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "standardized criterion:" in text
        doc = json.loads(out.read_text())
        assert doc["criterion"]["prior"]["kind"] == "uniform"
        # verify re-runs the averaged certificate from the file alone
        assert main(["verify", str(out)]) == 0

    def test_logistic_truncexp_interval(self, tmp_path):
        out = tmp_path / "l.json"
        rc = main(["bayes", "--model", "logistic", "--prior", "truncexp:0.5",
                   "--quad", "120", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["design_interval"][1] == pytest.approx(4.0)


class TestTheoryCommand:
    def test_q_decay_passes(self, capsys):
        rc = main(["theory", "--check", "q-decay", "--model", "exp1",
                   "--beta-range", "1:100", "--samples", "60"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "violations: 0" in text and "lambda:" in text

    def test_q_decay_logistic_wide_range_is_finite(self, capsys):
        # the CLI puts logistic on [0, 2005]; the score must not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["theory", "--check", "q-decay", "--model", "logistic",
                       "--beta-range", "0:2000", "--samples", "6"])
        assert rc == 0
        text = capsys.readouterr().out
        worst = re.search(r"worst margin: (\S+)", text).group(1)
        assert math.isfinite(float(worst))

    def test_lower_bound_passes(self, capsys):
        rc = main(["theory", "--check", "lower-bound", "--model", "exp1",
                   "--beta-range", "1:100"])
        assert rc == 0
        assert "passed" in capsys.readouterr().out

    def test_cond29_small_sample(self):
        rc = main(["theory", "--check", "cond29", "--model", "exp2",
                   "--beta-range", "1:20", "--samples", "15"])
        assert rc == 0


class TestGrowthCommand:
    def test_sweep_with_csv(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = main(["growth", "--model", "exp1", "--criterion", "maximin",
                   "--B", "5,10", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "B=5:" in text and "B=10:" in text
        header = out.read_text().splitlines()[0]
        assert header == "B,5,10"


class TestDesignJson:
    def test_round_trip_is_byte_identical(self):
        d = DesignMeasure((0.03567399334725241, 0.1353352832366127),
                          (1 / 3, 2 / 3))
        s = design_to_json(d)
        assert design_from_json(s) == d
        assert design_to_json(design_from_json(s)) == s

    def test_incomplete_artifact_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{\"model\": \"exp1\"}")
        assert read_artifact(str(p)) == {"model": "exp1"}
        with pytest.raises((KeyError, ValueError)):
            verify_artifact(str(p))
        assert main(["verify", str(p)]) == 1
