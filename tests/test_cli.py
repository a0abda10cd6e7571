import codecs
import configparser
import contextlib
import io
import pathlib
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdistill import cli, distill, rectify, worldmodel
from recdistill.config import _KNOWN_KEYS
from recdistill.errors import ConfigurationError
from recdistill.schedule import DiffusionSchedule

SMALL_USD = """\
[mixture]
num_categories = 2
components =
    0.8 |  2.0 | 0.01 | 0
    0.2 | -2.0 | 0.01 | 1

[rectifier]
target = uniform

[distill]
method = usd
eta1 = 0.03
iters = 60
particles = 4
dim = 1
init_scale = 2.0
snapshot_every = 20
"""

BALANCED_DEMO = """\
[mixture]
num_categories = 2
components =
    0.5 |  2.0 | 0.01 | 0
    0.5 | -2.0 | 0.01 | 1

[rectifier]
target = uniform

[demo]
grid_lo = -6.0
grid_hi = 6.0
grid_points = 301
times = 300
"""


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestDistillCommand:
    def test_runs_and_writes_reports(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, SMALL_USD)
        rc = cli.main(["distill", "--config", cfg, "--seed", "3", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "usd finished" in capsys.readouterr().out
        for name in ("particles.csv", "ema.csv", "metrics.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_byte_determinism(self, tmp_path):
        cfg = _cfg(tmp_path, SMALL_USD)
        for sub in ("a", "b"):
            cli.main(["distill", "--config", cfg, "--seed", "7", "--out-dir", str(tmp_path / sub)])
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_divergence_exits_3(self, tmp_path, capsys):
        text = SMALL_USD.replace("eta1 = 0.03", "eta1 = 1e9\nomega_kind = constant-one")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "a" / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert _single_error_line(err) and "diverged" in err
        # nothing is left behind, not even the directory above --out-dir
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_failure_leaves_an_existing_out_dir_unchanged(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD), "--out-dir", str(out)]) == 0
        before = _tree_bytes(out)
        text = SMALL_USD.replace("eta1 = 0.03", "eta1 = 1e9\nomega_kind = constant-one")
        assert cli.main(["distill", "--config", _cfg(tmp_path, text, "bad.cfg"), "--out-dir", str(out)]) == 3
        assert _tree_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "out", "run.cfg"]

    def test_success_merges_into_an_existing_out_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        (out / "metrics.csv").write_text("stale")
        assert cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD), "--out-dir", str(out)]) == 0
        assert (out / "keep.txt").read_text() == "kept"
        assert (out / "metrics.csv").read_text().startswith("iter,entropy")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.cfg"]

    def test_seed_changes_output(self, tmp_path):
        cfg = _cfg(tmp_path, SMALL_USD)
        cli.main(["distill", "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path / "a")])
        cli.main(["distill", "--config", cfg, "--seed", "2", "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "particles.csv").read_bytes() != (tmp_path / "b" / "particles.csv").read_bytes()


def _single_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err


class TestConfigErrors:
    @pytest.mark.parametrize("old, new", [
        ("iters = 60", "iters = 0"),
        ("snapshot_every = 20", "snapshot_every = 0"),
        ("eta1 = 0.03", "eta1 = nan"),
        ("target = uniform", "target = 0.2 0.3 0.5"),
        ("dim = 1", "pose_probs = 0.5 0.25 0.25\ndim = 1"),
        ("method = usd", "control_category = 5\nmethod = ctrl"),
        ("dim = 1", "renderer_angles = 0.0\nrenderer = rotation\ndim = 1"),
        ("dim = 1", "dim = 2"),
        ("[rectifier]", "[demo]\ntimes = 5000\n\n[rectifier]"),
        ("[rectifier]", "[demo]\ntimes = -3\n\n[rectifier]"),
        ("particles = 4", "particles = 0"),
        ("particles = 4", "particles = -1"),
        ("dim = 1", "n_t = 0\ndim = 1"),
        ("dim = 1", "n_ema = 0\ndim = 1"),
        ("init_scale = 2.0", "init_scale = 1e154"),
        ("init_scale = 2.0", "init_scale = nan"),
        ("components =\n    0.8 |  2.0 | 0.01 | 0\n    0.2 | -2.0 | 0.01 | 1", "components ="),
    ])
    def test_invalid_distill_value_rejected_at_parse_time(self, tmp_path, capsys, old, new):
        rc = cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD.replace(old, new)),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and new.split()[0] in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("beta_max", ["0.9999", "0.9999999"])
    def test_tweedie_alpha_underflow_rejected_at_setup(self, tmp_path, capsys, monkeypatch, beta_max):
        """A schedule whose alpha_t falls below 1e-300 by the run's largest
        step leaves the Tweedie source nothing to divide by: the run stops
        before its first gradient, naming the schedule keys and the source."""
        monkeypatch.setattr(distill, "gradient", lambda *args: pytest.fail("the run started"))
        text = (pathlib.Path(__file__).parent / "identity" / "usd-tweedie-rot2d.cfg").read_text()
        text = text.replace("num_steps = 1000", f"num_steps = 1000\nbeta_max = {beta_max}")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and err.startswith("error: [schedule] ")
        assert "[schedule] num_steps/beta_min/beta_max" in err and "t = 980" in err
        assert "posterior_source = classifier-on-tweedie" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("dim = 1", "grad_norm_align = maybe\ndim = 1", "[distill] grad_norm_align = maybe"),
        ("iters = 60", "iters = x", "[distill] iters = x"),
        ("particles = 4", "particles = 2.5", "[distill] particles = 2.5"),
        ("eta1 = 0.03", "eta1 = fast", "[distill] eta1 = fast"),
        ("dim = 1", "pose_probs = 0.5 half\ndim = 1", "[distill] pose_probs = 0.5 half"),
        ("dim = 1", "n_t = 3\ndim = 1", "[schedule] num_steps = 1000 is not divisible by [distill] n_t = 3"),
        ("[rectifier]", "[schedule]\nnum_steps = 999\n\n[rectifier]",
         "[schedule] num_steps = 999 is not divisible by [distill] n_t = 10"),
        ("[rectifier]", "[schedule]\nnum_steps = 1e3\n\n[rectifier]", "[schedule] num_steps = 1e3"),
        ("[rectifier]", "[schedule]\nbeta_max = high\n\n[rectifier]", "[schedule] beta_max = high"),
        ("target = uniform", "target = uniform\nfd_step = tiny", "[rectifier] fd_step = tiny"),
        ("target = uniform", "target = uniform\nfd_step = 0", "[rectifier] fd_step = 0.0 must lie in (0, 1)"),
        ("target = uniform", "target = uniform\nfd_step = 1e300", "[rectifier] fd_step = 1e+300 must lie"),
        ("target = uniform", "target = uniform\nfd_step = -0.01", "[rectifier] fd_step = -0.01 must lie"),
        ("target = uniform", "target = uniform\nfd_step = nan", "[rectifier] fd_step = nan must lie"),
        ("target = uniform", "target = 0.5 x", "[rectifier] target = 0.5 x"),
        ("num_categories = 2", "num_categories = two", "[mixture] num_categories = two"),
        ("0.2 | -2.0 | 0.01 | 1", "0.2 | -2.0 | 0.01 | one", "[mixture] components line"),
        ("[rectifier]", "[demo]\ntimes = 50 x\n\n[rectifier]", "[demo] times = 50 x"),
        ("[rectifier]", "[demo]\ngrid_points = many\n\n[rectifier]", "[demo] grid_points = many"),
        ("dim = 1", "renderer = rotation\nrenderer_angles = 0 inf\ndim = 1", "[distill] rotation renderer angles"),
        ("dim = 1", "renderer = rotation\nrenderer_angles = 0 1\ndim = 1",
         "[distill] renderer = rotation needs a 2D mixture, got dimension 1"),
        # the identity renderer used to run and drop the angles
        ("dim = 1", "renderer_angles = 0 1 2\ndim = 1",
         "[distill] renderer_angles [0.0, 1.0, 2.0] need renderer = rotation"),
        # checked by the library, named by the CLI
        ("method = usd", "method = foo", "[distill] unknown method 'foo'"),
        ("eta1 = 0.03", "eta1 = -1", "[distill] eta1 must be a finite positive learning rate, got -1.0"),
        ("iters = 60", "iters = 0", "[distill] iters = 0: must be at least 1"),
        ("dim = 1", "omega_kind = foo\ndim = 1", "[distill] unknown omega_kind 'foo'"),
    ])
    def test_bad_value_names_section_and_key(self, tmp_path, capsys, old, new, named):
        rc = cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD.replace(old, new)),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("dim = 1", "pose_probs = nan nan\ndim = 1", "[distill] pose_probs must be 2 finite"),
        ("dim = 1", "pose_probs = inf 0\ndim = 1", "[distill] pose_probs must be 2 finite"),
        ("target = uniform", "target = nan nan", "[rectifier] target marginal must be a finite"),
        ("target = uniform", "target = 0.5 inf", "[rectifier] target marginal must be a finite"),
        ("0.8 |  2.0 | 0.01 | 0", "nan |  2.0 | 0.01 | 0", "[mixture] component weights, means and covariances"),
        ("0.8 |  2.0 | 0.01 | 0", "0.8 |  nan | 0.01 | 0", "[mixture] component weights, means and covariances"),
        ("0.8 |  2.0 | 0.01 | 0", "0.8 |  2.0 | nan | 0", "[mixture] component weights, means and covariances"),
        ("0.8 |  2.0 | 0.01 | 0", "0.8 |  -inf | 0.01 | 0", "[mixture] component weights, means and covariances"),
    ])
    def test_non_finite_value_rejected_at_parse_time(self, tmp_path, capsys, old, new, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD.replace(old, new)),
                           "--out-dir", str(tmp_path / "out")])
        assert rc == 2 and not caught
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new", [
        ("0.8 |  2.0 | 0.01 | 0\n    0.2 | -2.0 | 0.01 | 1", "0.8 |  2.0 | 1e-307 | 0\n    0.2 | -2.0 | 1e-307 | 1"),
        ("0.2 | -2.0 | 0.01 | 1", "0.2 | 1e300 | 0.01 | 1"),
    ], ids=["tiny-covariances", "far-mean"])
    def test_mixture_that_would_overflow_rejected_at_parse_time(self, tmp_path, capsys, old, new):
        """Such a mixture used to warn of an overflow in the prior's pass
        and then exit 0 with a meaningless split."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD.replace(old, new)),
                           "--out-dir", str(tmp_path / "out")])
        assert rc == 2 and not caught
        err = capsys.readouterr().err
        assert _single_error_line(err) and "[mixture]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("components, line", [
        ("0.5 | 1 2 | 1 0 0 1 | 0\n    0.5 | 1 2 | 1 0 1 | 1", "0.5 | 1 2 | 1 0 1 | 1"),
        ("0.5 | 1 2 | 1 0 0 1 | 0\n    0.5 | 1 | 1 0 0 1 | 1", "0.5 | 1 | 1 0 0 1 | 1"),
        ("0.5 | 1 | 1 0 0 1 | 0\n    0.5 | 1 | 1 | 1", "0.5 | 1 | 1 0 0 1 | 0"),
        ("1 | | | 0", "1 | | | 0"),
        ("0.5 | 1 | 1 | 0\n    0.5 | 1 | 1", "0.5 | 1 | 1"),
    ], ids=["short-covariance", "short-mean", "long-covariance", "empty-mean", "three-fields"])
    def test_component_of_another_dimension_names_its_line(self, tmp_path, capsys, components, line):
        text = BALANCED_DEMO.replace("0.5 |  2.0 | 0.01 | 0\n    0.5 | -2.0 | 0.01 | 1", components)
        rc = cli.main(["rectify-demo", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and f"[mixture] components line {line!r}" in err

    @pytest.mark.parametrize("schedule, named", [
        ("num_steps = 10", "[schedule] num_steps = 10, beta_min = 0.0001, beta_max = 0.02: schedule endpoints"),
        ("beta_min = 0.5", "[schedule] num_steps = 1000, beta_min = 0.5, beta_max = 0.02: betas must satisfy"),
        ("beta_min = 1e-300", "[schedule] beta_min = 1e-300 gives sigma[1] = 0"),
    ])
    def test_schedule_error_names_its_key(self, tmp_path, capsys, schedule, named):
        text = SMALL_USD.replace("[rectifier]", f"[schedule]\n{schedule}\n\n[rectifier]")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("probs, accepted", [
        ("0.500000005 0.5", True), ("0.499999995 0.5", True), ("0.5000001 0.5", False), ("0.4999999 0.5", False),
    ])
    def test_pose_probs_tolerance_is_the_librarys(self, tmp_path, capsys, schedule, biased_1d, probs, accepted):
        # a sum within 5e-9 of 1 passes and one 1e-7 away fails, in the CLI and
        # in the library alike, with the library's message
        cfg = distill.DistillConfig(method="sds", iters=2, pose_probs=np.array(probs.split(), dtype=float))
        try:
            distill.run(distill.ParticleSet.initialise(4, 1, worldmodel.Renderer(), seed=0), biased_1d, schedule, cfg)
            library = None
        except ConfigurationError as exc:
            library = str(exc)
        text = SMALL_USD.replace("dim = 1", f"pose_probs = {probs}\ndim = 1")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if accepted:
            assert rc == 0 and library is None and err == ""
        else:
            assert rc == 2 and err == f"error: [distill] {library}\n"
            assert "pose_probs must be 2 finite, non-negative probabilities summing to 1 within 1.49e-08" in err

    def test_duplicate_key_is_a_config_error(self, tmp_path, capsys):
        rc = cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD + "iters = 10\n"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "iters" in err

    def test_multiline_value_gives_one_error_line(self, tmp_path, capsys):
        text = SMALL_USD.replace("dim = 1", "grad_norm_align =\n    yes\n    no\ndim = 1")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert _single_error_line(capsys.readouterr().err)

    def test_unknown_key_names_it(self, tmp_path, capsys):
        rc = cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD + "learning_rate = 1\n"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_unknown_section_names_it(self, tmp_path, capsys):
        rc = cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD + "[optimizer]\nx = 1\n"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "optimizer" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["distill", "--config", str(tmp_path / "nope.cfg"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_asymmetric_covariance_names_mixture(self, tmp_path, capsys):
        # eigvalsh reads only the lower triangle and the pass the whole matrix,
        # so such a prior ran to exit 0 with no density behind it
        text = SMALL_USD.replace("dim = 1", "dim = 2").replace(
            "0.8 |  2.0 | 0.01 | 0\n    0.2 | -2.0 | 0.01 | 1", "0.5 | 2 0 | 1 5 0 1 | 0\n    0.5 | -2 0 | 1 0 0 1 | 1")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "[mixture] component covariances must be symmetric" in err
        assert not (tmp_path / "out").exists()

    def test_empty_category_rejected(self, tmp_path, capsys):
        bad = SMALL_USD.replace("0.2 | -2.0 | 0.01 | 1", "0.2 | -2.0 | 0.01 | 0")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, bad),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "p(c) > 0" in capsys.readouterr().err


class TestNumericErrorLine:
    """A non-finite correction at one of 16 particles names that particle's
    row, step and point, not the whole batch."""

    @pytest.mark.parametrize("source", ["exact-mixture", "classifier-direct"])
    def test_names_the_row(self, tmp_path, capsys, monkeypatch, source):
        def nan_row_5(fn):
            def broken(*args):
                out = fn(*args).copy()
                out[..., 5, :] = np.nan
                return out
            return broken

        if source == "exact-mixture":
            monkeypatch.setattr(worldmodel, "_grad_log_reweight", nan_row_5(worldmodel._grad_log_reweight))
        else:
            monkeypatch.setattr(worldmodel, "category_posterior", nan_row_5(worldmodel.category_posterior))
        text = SMALL_USD.replace("particles = 4", "particles = 16").replace(
            "target = uniform", f"target = uniform\nposterior_source = {source}")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert _single_error_line(err) and " at row 5: t=" in err and len(err.strip()) < 200


class TestRectifyDemo:
    def test_biased_demo_hits_target(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, SMALL_USD)
        rc = cli.main(["rectify-demo", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "rectified marginal TV to target" in capsys.readouterr().out
        report = (tmp_path / "out" / "marginal_report.csv").read_text().splitlines()
        values = [float(line.split(",")[1]) for line in report[1:]]
        assert values == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_epsilon_floor_sets_the_weights(self, tmp_path, capsys):
        # p(c = 1) = 5e-5 lies below the default floor 1e-4 but above the
        # configured 1e-6: with the configured floor the weights are exactly
        # f(c) / p(c), so the marginal hits the target and the clean
        # rectified density has unit mass (0.667 / 0.333 and 0.75 at 1e-4)
        text = SMALL_USD.replace("0.8 |  2.0", "0.99995 |  2.0").replace("0.2 | -2.0", "0.00005 | -2.0").replace(
            "target = uniform", "target = uniform\nepsilon_floor = 1e-6")
        rc = cli.main(["rectify-demo", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        report = (tmp_path / "out" / "marginal_report.csv").read_text().splitlines()
        assert [float(line.split(",")[1]) for line in report[1:]] == pytest.approx([0.5, 0.5], abs=1e-3)
        x, _, rectified = np.loadtxt(tmp_path / "out" / "density_clean.csv", delimiter=",", skiprows=1).T
        assert float(np.sum((rectified[1:] + rectified[:-1]) * np.diff(x)) / 2.0) == pytest.approx(1.0, abs=1e-3)

    def test_balanced_prior_unchanged(self, tmp_path):
        cfg = _cfg(tmp_path, BALANCED_DEMO)
        rc = cli.main(["rectify-demo", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        for name in ("density_clean.csv", "density_t300.csv"):
            lines = (tmp_path / "out" / name).read_text().splitlines()[1:]
            for line in lines:
                _, p, q = line.split(",")
                assert float(p) == pytest.approx(float(q), abs=1e-12)

    def test_demo_needs_rectifier_section(self, tmp_path, capsys):
        no_rect = BALANCED_DEMO.replace("[rectifier]\ntarget = uniform\n\n", "")
        rc = cli.main(["rectify-demo", "--config", _cfg(tmp_path, no_rect),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "rectifier" in capsys.readouterr().err

    def test_default_times_checked_without_demo_section(self, tmp_path, capsys):
        # the default times 50 300 700 do not fit a 100-step schedule
        text = SMALL_USD.replace("[rectifier]", "[schedule]\nnum_steps = 100\nbeta_max = 0.2\n\n[rectifier]")
        rc = cli.main(["rectify-demo", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "[demo] times [300, 700] outside [0, 100]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, named", [
        ("grid_points = 5", "[demo] grid_points = 5 must be at least 16"),
        ("grid_points = 0", "[demo] grid_points = 0 must be at least 16"),
        ("grid_hi = nan", "[demo] grid_hi = nan must be finite"),
        ("grid_lo = -inf", "[demo] grid_lo = -inf must be finite"),
        ("grid_hi = 1e154", "[demo] grid_hi = 1e+154 must be finite, within [-1e6, 1e6]"),
        ("grid_lo = -1000000.5", "[demo] grid_lo = -1000000.5 must be finite, within [-1e6, 1e6]"),
        ("grid_lo = 6.0", "[demo] grid_lo = 6.0 must be below grid_hi = 6.0"),
        ("grid_lo = 7.0", "[demo] grid_lo = 7.0 must be below grid_hi = 6.0"),
    ])
    def test_bad_grid_rejected_at_parse_time(self, tmp_path, capsys, line, named):
        key = line.split()[0]
        text = "\n".join(line if row.startswith(key) else row for row in BALANCED_DEMO.splitlines())
        rc = cli.main(["rectify-demo", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lo, hi, named", [
        ("-64.0", "6.0", "[demo] grid_lo = -64.0, grid_hi = 6.0, grid_points = 301: integral changed by"),
        ("15.0", "20.0", "[demo] grid_lo = 15.0, grid_hi = 20.0, grid_points = 301: the grid holds no prior mass"),
    ])
    def test_unresolved_or_empty_grid_named(self, tmp_path, capsys, lo, hi, named):
        # a grid too coarse for the prior's modes, or one beside them, gives no marginal
        text = BALANCED_DEMO.replace("grid_lo = -6.0", f"grid_lo = {lo}").replace("grid_hi = 6.0", f"grid_hi = {hi}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["rectify-demo", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2 and not caught
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()


class TestOneSchedulePerCommand:
    @pytest.mark.parametrize("command, text", [("distill", SMALL_USD), ("rectify-demo", BALANCED_DEMO)],
                             ids=["distill", "rectify-demo"])
    def test_schedule_built_once(self, tmp_path, monkeypatch, command, text):
        built, post_init = [], DiffusionSchedule.__post_init__
        monkeypatch.setattr(DiffusionSchedule, "__post_init__", lambda self: (built.append(self), post_init(self))[1])
        assert cli.main([command, "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")]) == 0
        assert len(built) == 1


class TestShortSchedule:
    def test_distill_ignores_demo_defaults(self, tmp_path, capsys):
        # no [demo] section: the demo's default times are not checked
        text = SMALL_USD.replace("[rectifier]", "[schedule]\nnum_steps = 100\nbeta_max = 0.2\n\n[rectifier]")
        rc = cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "metrics.csv").exists()


@pytest.fixture(scope="module")
def glyph_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("glyphs")
    rc = cli.main(["glyphs", "--out-dir", str(out), "--per-category", "6", "--seed", "0"])
    assert rc == 0
    return out


class TestGlyphsAndClassify:
    def test_glyphs_layout(self, glyph_dir):
        assert len(list((glyph_dir / "corpus").glob("*.pgm"))) == 24
        assert len(list((glyph_dir / "templates").glob("*.pgm"))) == 4
        labels = (glyph_dir / "labels.csv").read_text().splitlines()
        assert labels[0] == "image,category" and len(labels) == 25

    def test_glyphs_memory_flat_in_corpus_size(self, tmp_path):
        """Each glyph is written as it is generated: the command's peak
        allocation at 200 per category (800 glyphs of 32 KiB) stays under
        2 MiB, where holding the corpus takes 25 MiB."""
        tracemalloc.start()
        try:
            rc = cli.main(["glyphs", "--out-dir", str(tmp_path), "--per-category", "200", "--seed", "0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and len(list((tmp_path / "corpus").glob("*.pgm"))) == 800
        assert peak < 2 * 2**20, peak

    def test_classify_roundtrip_accuracy(self, glyph_dir, tmp_path, capsys):
        rc = cli.main(["classify", "--templates", str(glyph_dir / "templates"),
                       "--inputs", str(glyph_dir / "corpus"), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        accuracy = float(summary[-1].split(",")[1])
        assert accuracy >= 0.95
        probs = (tmp_path / "out" / "probabilities.csv").read_text().splitlines()
        assert probs[0] == "image,p_front,p_back,p_left,p_right,predicted" or probs[0].startswith("image,p_")
        assert len(probs) == 25

    def test_classify_determinism(self, glyph_dir, tmp_path):
        for sub in ("a", "b"):
            cli.main(["classify", "--templates", str(glyph_dir / "templates"),
                      "--inputs", str(glyph_dir / "corpus"), "--out-dir", str(tmp_path / sub)])
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_ablation_flags(self, glyph_dir, tmp_path, capsys):
        def accuracy(flags, sub):
            rc = cli.main(["classify", "--templates", str(glyph_dir / "templates"),
                           "--inputs", str(glyph_dir / "corpus"),
                           "--out-dir", str(tmp_path / sub)] + flags)
            assert rc == 0
            summary = (tmp_path / sub / "summary.csv").read_text().splitlines()
            return float(summary[-1].split(",")[1])

        full = accuracy([], "full")
        orient = accuracy(["--orient-only"], "orient")
        texture = accuracy(["--texture-only"], "texture")
        assert full > orient and full > texture

        rc = cli.main(["classify", "--templates", str(glyph_dir / "templates"),
                       "--inputs", str(glyph_dir / "corpus"), "--out-dir", str(tmp_path / "x"),
                       "--orient-only", "--texture-only"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("name, pixels, message", [
        ("zz_black.pgm", np.zeros((64, 64)), "degenerate feature grid"),
        ("zz_grey.pgm", np.full((64, 64), 0.5), "degenerate feature grid"),
        ("zz_small.pgm", np.full((32, 32), 0.5), "expected 64x64 image, got (32, 32)"),
    ])
    def test_bad_input_image_named(self, glyph_dir, tmp_path, capsys, name, pixels, message):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for path in sorted((glyph_dir / "corpus").glob("*_00[01].pgm")):
            (inputs / path.name).write_bytes(path.read_bytes())
        cli.C.write_pgm(inputs / name, pixels)
        rc = cli.main(["classify", "--templates", str(glyph_dir / "templates"),
                       "--inputs", str(inputs), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and name in err and message in err

    def test_blank_template_named(self, glyph_dir, tmp_path, capsys):
        templates = tmp_path / "templates"
        templates.mkdir()
        for path in (glyph_dir / "templates").glob("*.pgm"):
            (templates / path.name).write_bytes(path.read_bytes())
        cli.C.write_pgm(templates / "back.pgm", np.zeros((64, 64)))
        rc = cli.main(["classify", "--templates", str(templates),
                       "--inputs", str(glyph_dir / "corpus"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "back.pgm" in err

    @pytest.mark.parametrize("header", [b"P5\n64 64\n0\n", b"P5\n64"])
    def test_bad_pgm_header_named(self, glyph_dir, tmp_path, capsys, header):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for path in sorted((glyph_dir / "corpus").glob("*_000.pgm")):
            (inputs / path.name).write_bytes(path.read_bytes())
        (inputs / "zz_header.pgm").write_bytes(header + bytes(64 * 64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["classify", "--templates", str(glyph_dir / "templates"),
                           "--inputs", str(inputs), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "zz_header.pgm" in err and "PGM header" in err
        assert not caught

    def test_empty_input_dir_rejected(self, glyph_dir, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        rc = cli.main(["classify", "--templates", str(glyph_dir / "templates"),
                       "--inputs", str(tmp_path / "empty"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "no .pgm images" in capsys.readouterr().err


_PGM_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"", b"#c\n", b" # 9\n", b"#255"])
_PGM_FIELDS = st.one_of(
    st.sampled_from([b"P5", b"P2", b"P6", b"P", b"64", b"63", b"65", b"255", b"65535", b"0", b"1", b"-1", b"2.5",
                     b"64#x", b"\xff", b"9" * 30, b"9" * 5000]),
    st.integers(0, 70_000).map(lambda v: str(v).encode()),
    st.binary(max_size=3),
)


@st.composite
def _mutated_pgm(draw, data: bytes) -> bytes:
    """data, a binary PGM written by write_pgm, with its header fields,
    their separators or its pixel bytes changed."""
    header_end = data.index(b"255\n") + 4
    header, body = data[:header_end], data[header_end:]
    if draw(st.booleans(), label="new header"):
        fields = [b"P5", b"64", b"64", b"255"]
        for i in draw(st.sets(st.integers(0, 3), min_size=1), label="fields"):
            fields[i] = draw(_PGM_FIELDS, label=f"field {i}")
        fields = fields[: draw(st.integers(0, 4), label="kept")] if draw(st.booleans()) else fields
        header = b"".join(draw(_PGM_SEPARATORS) + f for f in fields) + draw(_PGM_SEPARATORS)
    if draw(st.booleans(), label="new pixels"):
        kind = draw(st.sampled_from(["bytes", "cut", "extend", "fill"]), label="pixels")
        if kind == "bytes":
            body = bytearray(body)
            for pos, value in draw(st.lists(st.tuples(st.integers(0, len(body) - 1), st.integers(0, 255)),
                                            min_size=1, max_size=64)):
                body[pos] = value
            body = bytes(body)
        elif kind == "cut":
            body = body[: draw(st.integers(0, len(body) - 1))]
        elif kind == "extend":
            body = body + draw(st.binary(min_size=1, max_size=16))
        else:
            body = bytes([draw(st.integers(0, 255))]) * len(body)
    return header + body


class TestPgmMutations:
    """One template or input PGM with mutated header or pixel bytes: classify
    completes its CSVs, or exits 2 with one error line naming that file;
    never a traceback or a warning, and --out-dir is left as it was."""

    INPUTS = ("front_000.pgm", "back_000.pgm", "left_000.pgm", "right_000.pgm")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_pgm_completes_or_fails_cleanly(self, glyph_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "templates").mkdir()
            (tmp / "inputs").mkdir()
            for cat in cli.C.CATEGORIES:
                (tmp / "templates" / f"{cat}.pgm").write_bytes((glyph_dir / "templates" / f"{cat}.pgm").read_bytes())
            for name in self.INPUTS:
                (tmp / "inputs" / name).write_bytes((glyph_dir / "corpus" / name).read_bytes())
            target = data.draw(st.sampled_from(sorted((tmp / "templates").glob("*.pgm"))
                                               + sorted((tmp / "inputs").glob("*.pgm"))), label="file")
            target.write_bytes(data.draw(_mutated_pgm(target.read_bytes()), label="bytes"))
            out = tmp / "out"
            out.mkdir()
            (out / "keep.txt").write_text("before")
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                rc = cli.main(["classify", "--templates", str(tmp / "templates"), "--inputs", str(tmp / "inputs"),
                               "--out-dir", str(out)])
            assert not [str(w.message) for w in caught]
            err = stderr.getvalue()
            if rc == 0:
                assert err == ""
                assert sorted(p.name for p in out.iterdir()) == [
                    "confusion.csv", "keep.txt", "probabilities.csv", "summary.csv"]
                rows = (out / "probabilities.csv").read_text().splitlines()
                assert len(rows) == 1 + len(self.INPUTS) and len({row.count(",") for row in rows}) == 1
            else:
                assert rc == 2 and _single_error_line(err) and str(target) in err, err
                assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
                assert (out / "keep.txt").read_text() == "before"


_CSV_CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "-1e-12", "-1e-11", "0", "1", "2", "1e-400", "1e400", "1e300",
                     "-1e7", "", " ", "x", " 0.5 ", '"0.5"', '"0.5', '0.5"', '"', "1_0", "0x1p-1", "\ufeff0.5",
                     "\u00e9", "\x00", "\r", "\n", ",", "9" * 131_073]),
    st.floats().map(repr),
)
_CSV_BYTES = st.sampled_from([b"\xff", b"\xfe", b"\xc3", b"\xed\xa0\x80", b"\x00", b'"', b",", b"\n", b"\r",
                              b"\xef\xbb\xbf"])


@st.composite
def _mutated_csv(draw, text: str) -> bytes:
    """text, a CSV written by write_rows, with cells replaced, fields or rows
    dropped or repeated, a cell quoted, other line endings, raw bytes put in
    or another encoding."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3), label="edits")):
        r = draw(st.integers(0, len(rows) - 1), label="row")
        c = draw(st.integers(0, max(len(rows[r]) - 1, 0)), label="column")
        edit = draw(st.sampled_from(["cell", "drop-field", "add-field", "drop-row", "repeat-row", "quote"]))
        if edit == "cell" and rows[r]:
            rows[r][c] = draw(_CSV_CELLS, label="cell")
        elif edit == "drop-field" and rows[r]:
            del rows[r][c]
        elif edit == "add-field":
            rows[r].insert(c, draw(_CSV_CELLS, label="cell"))
        elif edit == "drop-row" and len(rows) > 1:
            del rows[r]
        elif edit == "repeat-row":
            rows.insert(r, list(rows[r]))
        elif edit == "quote" and rows[r]:
            rows[r][c] = '"' + rows[r][c] + draw(st.sampled_from(['"', ""]), label="closed")
    data = "".join(",".join(row) + draw(st.sampled_from(["\n", "\r\n", "\r"])) for row in rows)
    encoding = draw(st.sampled_from(["utf-8", "utf-8", "utf-8", "utf-16", "latin-1"]), label="encoding")
    out = data.encode(encoding, errors="replace")
    if draw(st.booleans(), label="raw bytes"):
        pos = draw(st.integers(0, len(out)), label="at")
        out = out[:pos] + draw(_CSV_BYTES, label="bytes") + out[pos:]
    return out


class TestMetricsMutations:
    """One --probs, --particles-a or --particles-b CSV with mutated values,
    field counts, quoting or encoding: metrics completes metrics.csv, or
    exits 2 with one error line naming that file; never a traceback or a
    warning, and --out-dir is left as it was."""

    @staticmethod
    def _inputs(tmp):
        rng = np.random.default_rng(0)
        files = {flag: tmp / f"{flag.strip('-')}.csv" for flag in ("--probs", "--particles-a", "--particles-b")}
        distill.write_rows(files["--probs"], ["image", "p_front", "p_back", "p_left", "p_right", "predicted"],
                           ([f"front_{i:03d}.pgm", *p, "front"] for i, p in enumerate(rng.dirichlet(np.ones(4), 6))))
        for flag in ("--particles-a", "--particles-b"):
            distill.write_rows(files[flag], ["iter", "particle", "x0", "x1"],
                               ([it, i, *x] for it in (0, 9) for i, x in enumerate(rng.standard_normal((3, 2)))))
        return files

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_csv_completes_or_fails_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            files = self._inputs(tmp)
            target = files[data.draw(st.sampled_from(sorted(files)), label="file")]
            target.write_bytes(data.draw(_mutated_csv(target.read_text()), label="bytes"))
            out = tmp / "out"
            out.mkdir()
            (out / "keep.txt").write_text("before")
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                rc = cli.main(["metrics", *(str(a) for item in files.items() for a in item), "--out-dir", str(out)])
            assert not [str(w.message) for w in caught]
            err = stderr.getvalue()
            if rc == 0:
                assert err == ""
                assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "metrics.csv"]
                rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
                names = [row[0] for row in rows]
                assert names == ["metric", "entropy", *(f"mean_prob_{i}" for i in range(len(rows) - 3)), "frechet"]
                assert all(len(row) == 2 and np.isfinite(float(row[1])) for row in rows[1:])
            else:
                assert rc == 2 and _single_error_line(err) and str(target) in err, err
                assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
                assert (out / "keep.txt").read_text() == "before"


_INT_AFFIXES = st.sampled_from(["", " ", "\n", "0", "_", "+", "-", "x", ".5", "e1", "٣"])


@st.composite
def _mutated_int_option(draw, flag: str) -> list[str]:
    """argv for one integer option: small numbers, numbers past
    glyphs' per-category limit or text that is no integer, with characters
    added around them, given as two arguments, as `flag=value`, or left out.
    A valid per-category count stays at most 100, so each example is quick."""
    core = draw(st.one_of(
        st.integers(-3, 4).map(str),
        st.integers(cli.GLYPHS_MAX_PER_CATEGORY + 1, 10**40).map(str),
        st.sampled_from(["", "x", "1.5", "1e3", "0x10", "1_0", "２", "\x00", "-", "--", "-x", "9" * 4301]),
    ), label="value")
    text = draw(_INT_AFFIXES, label="before") + core + draw(_INT_AFFIXES, label="after")
    form = draw(st.sampled_from(["two arguments", "equals", "left out"]), label="form")
    return {"two arguments": [flag, text], "equals": [f"{flag}={text}"], "left out": []}[form]


class TestGlyphsMutations:
    """One of glyphs' --per-category and --seed given mutated text: glyphs
    writes its corpus, templates and labels, or exits 2 with one error line
    naming that option; never a traceback or a warning, and --out-dir is
    left as it was."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_option_completes_or_fails_cleanly(self, data):
        options = {"--per-category": ["--per-category", "2"], "--seed": ["--seed", "0"]}
        flag = data.draw(st.sampled_from(sorted(options)), label="option")
        options[flag] = data.draw(_mutated_int_option(flag), label="argv")
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "out"
            out.mkdir()
            (out / "keep.txt").write_text("before")
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                rc = cli.main(["glyphs", *options["--per-category"], *options["--seed"], "--out-dir", str(out)])
            assert not [str(w.message) for w in caught]
            err = stderr.getvalue()
            if rc == 0:
                assert err == ""
                count = options["--per-category"]
                per_category = int(count[-1].removeprefix("--per-category=")) if count else 100
                assert sorted(p.name for p in out.iterdir()) == ["corpus", "keep.txt", "labels.csv", "templates"]
                assert len((out / "labels.csv").read_text().splitlines()) == 1 + 4 * per_category
                assert len(list((out / "corpus").iterdir())) == 4 * per_category
                assert len(list((out / "templates").iterdir())) == 4
            else:
                assert rc == 2 and _single_error_line(err) and flag in err, err
                assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
                assert (out / "keep.txt").read_text() == "before"


class TestMetricsCommand:
    def test_entropy_from_classify_output(self, tmp_path, capsys):
        probs = tmp_path / "probabilities.csv"
        probs.write_text(
            "image,p_front,p_back,predicted\n"
            "a.pgm,1.0,0.0,front\n"
            "b.pgm,0.0,1.0,back\n"
        )
        rc = cli.main(["metrics", "--probs", str(probs), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"entropy = {float(np.log(2))!r}" in out

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        # a BOM used to stay in the first header name, so its p_* column
        # was lost and the file rejected as off the simplex
        text = b"p_a,p_b\n0.5,0.5\n0.25,0.75\n"
        outs = []
        for name, data in (("plain", text), ("bom", codecs.BOM_UTF8 + text)):
            (tmp_path / f"{name}.csv").write_bytes(data)
            assert cli.main(["metrics", "--probs", str(tmp_path / f"{name}.csv"), "--out-dir", str(tmp_path / name)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("entropy = ")
        assert (tmp_path / "plain" / "metrics.csv").read_bytes() == (tmp_path / "bom" / "metrics.csv").read_bytes()

    def test_frechet_and_tv(self, tmp_path, capsys):
        pts = tmp_path / "particles.csv"
        rows = "\n".join(f"0,{i},{float(v)!r}" for i, v in enumerate(np.linspace(-1, 1, 20)))
        pts.write_text("iter,particle,x0\n" + rows + "\n")
        rc = cli.main(["metrics", "--particles-a", str(pts), "--particles-b", str(pts),
                       "--marginal", "0.8,0.2", "--target", "0.5,0.5",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frechet = 0.0" in out
        assert "marginal_tv" in out
        metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        tv = float(next(line.split(",")[1] for line in metrics if line.startswith("marginal_tv")))
        assert tv == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_probabilities_rejected(self, tmp_path, capsys, bad):
        probs = tmp_path / "probabilities.csv"
        probs.write_text(f"image,p_front,p_back\nx,{bad},0.5\n")
        assert cli.main(["metrics", "--probs", str(probs), "--out-dir", str(tmp_path / "a")]) == 2
        assert cli.main(["metrics", f"--marginal={bad},0.5", "--target", "0.5,0.5",
                         "--out-dir", str(tmp_path / "b")]) == 2
        assert cli.main(["metrics", "--marginal", "0.5,0.5", f"--target=0.5,{bad}",
                         "--out-dir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(line.startswith("error: ") and "finite" in line for line in err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["probabilities.csv"]

    @pytest.mark.parametrize("marginal, target, named", [
        ("-1,2", "0.5,0.5", "--marginal -1,2"),
        ("0.5,0.5", "0.7,0.7", "--target 0.7,0.7"),
        ("0.5,-0.1,0.6", "0.2,0.3,0.5", "--marginal 0.5,-0.1,0.6"),
        ("0.5,0.5", "0.2,0.3,0.5000001", "--target 0.2,0.3,0.5000001"),
        ("0.5,x", "0.5,0.5", "--marginal 0.5,x"),
    ])
    def test_off_simplex_marginal_or_target_rejected(self, tmp_path, capsys, marginal, target, named):
        rc = cli.main(["metrics", f"--marginal={marginal}", f"--target={target}", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()

    def test_simplex_tolerances_are_categorical_entropys(self, tmp_path, capsys):
        # entries down to -1e-12 and sums within 1e-8 of 1 pass, as for --probs
        rc = cli.main(["metrics", "--marginal=-1e-12,1.000000001", "--target", "0.5,0.5",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "marginal_tv = " in capsys.readouterr().out

    @pytest.mark.parametrize("given, named", [
        (["--probs", "PROBS", "--marginal=-5,6"], "--marginal needs --target"),
        (["--target", "0.5,0.5"], "--target needs --marginal"),
        (["--particles-a", "PROBS"], "--particles-a needs --particles-b"),
        (["--probs", "PROBS", "--particles-b", "PROBS", "--marginal", "1,0", "--target", "1,0"],
         "--particles-b needs --particles-a"),
    ])
    def test_unpaired_option_names_its_partner(self, tmp_path, capsys, given, named):
        probs = tmp_path / "probabilities.csv"
        probs.write_text("image,p_front,p_back\na.pgm,1.0,0.0\n")
        argv = [str(probs) if a == "PROBS" else a for a in given]
        assert cli.main(["metrics", *argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()

    def test_no_inputs_is_an_error(self, tmp_path, capsys):
        rc = cli.main(["metrics", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "no inputs" in capsys.readouterr().err


class TestFileErrors:
    """Files that cannot be read or written exit 2 with one error line."""

    @staticmethod
    def _metrics(tmp_path, *args):
        # a failure leaves no --out-dir and no staging directory behind
        before = sorted(tmp_path.iterdir())
        rc = cli.main(["metrics", *args, "--out-dir", str(tmp_path / "out")])
        assert rc == 0 or sorted(tmp_path.iterdir()) == before
        return rc

    def test_missing_probs_file(self, tmp_path, capsys):
        assert self._metrics(tmp_path, "--probs", str(tmp_path / "missing.csv")) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "missing.csv" in err

    @pytest.mark.parametrize("flag", ["--probs", "--particles-a"])
    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("iter,particle,p_x0\n", "no data rows"),
        ("iter,particle,p_x0\n0,0,0.5\n0,1\n", "row 3 has 2 fields, the header 3"),
        ("iter,particle,p_x0\n0,0,0.5,0.5\n", "row 2 has 4 fields, the header 3"),
        # a traceback (the field limit) and messages without the file before
        pytest.param(b"iter,particle,p_x0\n0,0,1.0\n0,1," + b"1" * 131_073 + b"\n",
                     "line 3: field larger than field limit", id="over-csv-field-limit"),
        pytest.param(b"iter,particle,p_x0\n0,0,1.0\n0,1,\xff\n", "line 3 is not UTF-8 text: invalid start byte",
                     id="not-utf8"),
        pytest.param("iter,particle,p_x0\n0,0,1.0\n".encode("utf-16"), "line 1 is not UTF-8 text", id="utf16"),
        # the byte-order mark is dropped before decoding, so the line count holds
        pytest.param(codecs.BOM_UTF8 + b"iter,particle,p_x0\n0,0,1.0\n0,1,\xff\n", "line 3 is not UTF-8 text",
                     id="bom-then-not-utf8"),
    ])
    def test_bad_csv_names_file_and_row(self, tmp_path, capsys, flag, text, message):
        path = tmp_path / "in.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        args = [flag, str(path)] + (["--particles-b", str(path)] if flag == "--particles-a" else [])
        assert self._metrics(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "in.csv" in err and message in err

    @pytest.mark.parametrize("row", ["-0.5,1.5", "inf,0.0", "0.5,0.6", "nan,1.0"])
    def test_probabilities_off_the_simplex_name_file_and_row(self, tmp_path, capsys, row):
        path = tmp_path / "probs.csv"
        path.write_text(f"image,p_a,p_b\nx.pgm,0.5,0.5\ny.pgm,{row}\n")
        assert self._metrics(tmp_path, "--probs", str(path)) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and f"{path}: row 3: must be finite probabilities" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e200", "-1000000.0001"])
    def test_particles_outside_the_box_name_file_and_row(self, tmp_path, capsys, value):
        # these used to warn, and exit 0 with frechet = nan
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("iter,particle,x0,x1\n0,0,1.0,2.0\n0,1,3.0,1.0\n0,2,0.5,0.3\n")
        bad.write_text(f"iter,particle,x0,x1\n0,0,1.0,2.0\n0,1,3.0,1.0\n0,2,0.5,{value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._metrics(tmp_path, "--particles-a", str(good), "--particles-b", str(bad)) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and f"{bad}: row 4: coordinates must be finite, within [-1e6, 1e6]" in err

    def test_particles_on_the_box_edge_accepted(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("iter,particle,x0\n0,0,1000000.0\n0,1,-1000000.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._metrics(tmp_path, "--particles-a", str(path), "--particles-b", str(path)) == 0
        assert "frechet = 0.0" in capsys.readouterr().out

    def test_too_few_particles_name_the_file(self, tmp_path, capsys):
        good, few = tmp_path / "good.csv", tmp_path / "few.csv"
        good.write_text("iter,particle,x0,x1\n0,0,1.0,2.0\n0,1,3.0,1.0\n0,2,0.5,0.3\n")
        few.write_text("iter,particle,x0,x1\n0,0,1.0,2.0\n0,1,3.0,1.0\n")
        assert self._metrics(tmp_path, "--particles-a", str(few), "--particles-b", str(good)) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err)
        assert f"{few}: 2 rows of 2 coordinates, where a Frechet distance needs at least 3" in err

    def test_particle_dimensions_differ_names_both_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("iter,particle,x0,x1\n0,0,1.0,2.0\n0,1,3.0,1.0\n0,2,0.5,0.3\n")
        b.write_text("iter,particle,x0\n0,0,1.0\n0,1,3.0\n0,2,0.5\n")
        assert self._metrics(tmp_path, "--particles-a", str(a), "--particles-b", str(b)) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and f"{b}: 1 coordinates per row, where {a} has 2" in err

    def test_particles_without_coordinates(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("iter,particle\n0,0\n0,1\n")
        assert self._metrics(tmp_path, "--particles-a", str(path), "--particles-b", str(path)) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and "in.csv: no columns to read" in err

    def test_out_dir_is_a_file(self, tmp_path, capsys, glyph_dir):
        blocker = tmp_path / "file"
        blocker.write_text("")
        probs = tmp_path / "probs.csv"
        probs.write_text("p_a,p_b\n0.5,0.5\n")
        commands = [
            ["rectify-demo", "--config", _cfg(tmp_path, BALANCED_DEMO)],
            # a long run: the --out-dir is checked before it, not after
            ["distill", "--config", _cfg(tmp_path, SMALL_USD.replace("iters = 60", "iters = 100000"), "d.cfg")],
            ["classify", "--templates", str(glyph_dir / "templates"), "--inputs", str(glyph_dir / "corpus")],
            ["metrics", "--probs", str(probs)],
            ["glyphs", "--per-category", "1"],
        ]
        for command in commands:
            for out in (blocker, blocker / "sub"):
                assert cli.main(command + ["--out-dir", str(out)]) == 2, command
                err = capsys.readouterr().err
                assert _single_error_line(err) and str(blocker) in err, (command, err)
                assert blocker.read_text() == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.cfg", "file", "probs.csv", "run.cfg"]

    def test_existing_out_dir_unchanged_by_a_failed_metrics(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "metrics.csv").write_text("metric,value\n")
        assert cli.main(["metrics", "--probs", str(tmp_path / "missing.csv"), "--out-dir", str(out)]) == 2
        assert _tree_bytes(out) == {"metrics.csv": b"metric,value\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_existing_out_dir_under_a_read_only_parent(self, tmp_path, monkeypatch):
        # the staging directory lives inside --out-dir: its parent is never
        # written, so it may be read-only (or on another filesystem)
        parent = tmp_path / "ro"
        out = parent / "out"
        out.mkdir(parents=True)
        probs = tmp_path / "probs.csv"
        probs.write_text("p_a,p_b\n0.5,0.5\n")
        seen, write_rows = [], cli.D.write_rows
        monkeypatch.setattr(cli.D, "write_rows", lambda *a: (seen.append(sorted(parent.iterdir())), write_rows(*a))[1])
        parent.chmod(0o555)
        try:
            rc = cli.main(["metrics", "--probs", str(probs), "--out-dir", str(out)])
        finally:
            parent.chmod(0o755)
        assert rc == 0
        assert seen == [[out]]
        assert [p.name for p in out.iterdir()] == ["metrics.csv"]

    def test_failure_keeps_what_a_concurrent_run_wrote(self, tmp_path, capsys, monkeypatch):
        # two runs under one new directory: the one that fails removes only
        # the empty directories it made, not the other run's output
        run = cli.D.run

        def alongside(*args):
            (tmp_path / "runs" / "b").mkdir()
            (tmp_path / "runs" / "b" / "particles.csv").write_text("kept")
            return run(*args)

        monkeypatch.setattr(cli.D, "run", alongside)
        text = SMALL_USD.replace("eta1 = 0.03", "eta1 = 1e9\nomega_kind = constant-one")
        assert cli.main(["distill", "--config", _cfg(tmp_path, text), "--out-dir", str(tmp_path / "runs" / "a")]) == 3
        assert _tree_bytes(tmp_path / "runs") == {"particles.csv": b"kept"}
        assert [p.name for p in (tmp_path / "runs").iterdir()] == ["b"]

    def test_name_clash_moves_nothing(self, tmp_path, capsys):
        # a staged file over a directory, and a staged directory over a file,
        # are found before any file moves
        probs = tmp_path / "probs.csv"
        probs.write_text("p_a,p_b\n0.5,0.5\n")
        out = tmp_path / "m"
        (out / "metrics.csv").mkdir(parents=True)
        assert cli.main(["metrics", "--probs", str(probs), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and str(out / "metrics.csv") in err
        assert [p.name for p in out.iterdir()] == ["metrics.csv"] and (out / "metrics.csv").is_dir()
        # each of glyphs' three outputs in turn, so that whichever moves
        # first, some clash comes after another output
        for name in ("corpus", "templates", "labels.csv"):
            out = tmp_path / f"g-{name}"
            out.mkdir()
            if name == "labels.csv":
                (out / name / "sub").mkdir(parents=True)
            else:
                (out / name).write_text("a file")
            before = sorted(p.relative_to(out) for p in out.rglob("*"))
            assert cli.main(["glyphs", "--per-category", "1", "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert _single_error_line(err) and str(out / name) in err
            assert sorted(p.relative_to(out) for p in out.rglob("*")) == before

    @pytest.mark.parametrize("argv, named", [
        (["glyphs", "--per-category", "x"], "recdistill glyphs: argument --per-category: invalid int value: 'x'"),
        (["distill", "--config", "c.cfg", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["classify", "--inputs", "in"], "the following arguments are required: --templates"),
        (["glyphs", "--per-category"], "argument --per-category: expected one argument"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ])
    def test_usage_error_is_one_error_line(self, tmp_path, capsys, argv, named):
        # argparse used to print its usage lines and exit through SystemExit
        assert cli.main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", ["0", "-2", "1001", "1" + "0" * 30])
    def test_glyphs_needs_one_per_category(self, tmp_path, capsys, count):
        rc = cli.main(["glyphs", "--per-category", count, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and f"--per-category {count}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["glyphs", "--per-category", "1", "--seed", "-5"],
                                      ["distill", "--config", "CONFIG", "--seed", "-3"]], ids=["glyphs", "distill"])
    def test_negative_seed_named(self, tmp_path, capsys, argv):
        argv = [_cfg(tmp_path, SMALL_USD) if a == "CONFIG" else a for a in argv]
        rc = cli.main([*argv, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert _single_error_line(err) and f"--seed {argv[-1]}" in err
        assert not (tmp_path / "out").exists()


class TestPresets:
    def test_presets_parse(self):
        import pathlib

        from recdistill.config import parse_config

        presets = sorted(pathlib.Path(__file__).resolve().parents[1].glob("presets/*.cfg"))
        assert len(presets) >= 3
        for path in presets:
            spec = parse_config(path)
            assert spec.mixture.num_categories == 2


PRESET_DIR = pathlib.Path(__file__).resolve().parents[1] / "presets"
_NUMBERS = st.one_of(st.integers(-3, 20), st.floats())
_COMPONENT_LINES = st.lists(st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, st.integers(-1, 3)),
                            min_size=1, max_size=3).map(
    lambda comps: "\n" + "\n".join(" | ".join(map(str, c)) for c in comps))
_WORDS = st.sampled_from([
    "", "x", "uniform", "sds", "vsd", "usd", "ctrl", "exact-mixture", "classifier-direct",
    "classifier-on-tweedie", "ema", "fixed-presampled", "true", "no", "identity", "rotation",
    "constant-one", "0.5 0.5", "0.2 0.3 0.5", "1 0", "0 1.5",
])
# Numbers, words the config knows and component lines, valid or not;
# integers stop at 20 so that a valid iters or particles keeps the run small.
_PRESET_VALUES = st.one_of(_NUMBERS.map(str), _WORDS, _COMPONENT_LINES)


class TestPresetMutations:
    """One or two values of a preset, in any section, set to random valid or
    invalid values: the run either completes its CSVs or fails with one
    error line, never with a traceback or a warning."""

    @pytest.mark.parametrize("preset", sorted(p.name for p in PRESET_DIR.glob("*.cfg")))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_preset_completes_or_fails_cleanly(self, preset, data):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(PRESET_DIR / preset)
        command = "distill" if parser.has_section("distill") else "rectify-demo"
        if command == "distill":
            parser["distill"]["iters"] = "20"
        for _ in range(data.draw(st.integers(1, 2), label="keys")):
            section = data.draw(st.sampled_from(sorted(_KNOWN_KEYS)), label="section")
            key = data.draw(st.sampled_from(sorted(_KNOWN_KEYS[section])), label="key")
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = data.draw(_PRESET_VALUES, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = pathlib.Path(tmp) / "run.cfg", pathlib.Path(tmp) / "out"
            with open(cfg, "w") as fh:
                parser.write(fh)
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                rc = cli.main([command, "--config", str(cfg), "--out-dir", str(out)])
            assert not [str(w.message) for w in caught]
            err = stderr.getvalue()
            if rc == 0:
                assert err == ""
                names = (["particles.csv", "ema.csv", "metrics.csv"] if command == "distill" else
                         ["density_clean.csv", "marginal_report.csv"]
                         + [f"density_t{t}.csv" for t in parser.get("demo", "times", fallback="50 300 700").split()])
                for name in names:
                    rows = (out / name).read_text().splitlines()
                    assert len(rows) > 1 and len({row.count(",") for row in rows}) == 1
            else:
                assert rc in (2, 3) and _single_error_line(err)
                # a failed run leaves nothing behind
                assert sorted(p.name for p in pathlib.Path(tmp).iterdir()) == ["run.cfg"]


class TestBenchmarkHooks:
    """perfbench calibrates on `distill.bnf_interval`, reached through the
    module attribute once per iteration, times `distill.run` as
    run(ps, m, schedule, cfg), and wraps distill's module attributes by
    name; a refactor that moves one of these disables that instrument
    without failing anything else."""

    def test_bnf_interval_looked_up_once_per_iteration(self, monkeypatch, schedule):
        calls, bnf = [], distill.bnf_interval
        monkeypatch.setattr(distill, "bnf_interval", lambda *a: (calls.append(a), bnf(*a))[1])
        m = worldmodel.PoseLabeledMixture(weights=np.array([0.8, 0.2]), means=np.array([[2.0], [-2.0]]),
                                          covs=np.full((2, 1, 1), 0.01), category_of=np.array([0, 1]),
                                          num_categories=2)
        ps = distill.ParticleSet.initialise(4, 1, worldmodel.Renderer(), seed=0)
        distill.run(ps, m, schedule, distill.DistillConfig(method="vsd", iters=7))
        assert len(calls) == 7

    def test_cli_reaches_run_with_four_positional_arguments(self, tmp_path, monkeypatch):
        seen, run = [], distill.run

        def positional(ps, m, schedule, cfg, /):
            seen.append((ps, m, schedule, cfg))
            return run(ps, m, schedule, cfg)

        monkeypatch.setattr(distill, "run", positional)
        assert cli.main(["distill", "--config", _cfg(tmp_path, SMALL_USD), "--out-dir", str(tmp_path / "out")]) == 0
        [(ps, m, schedule, cfg)] = seen
        assert isinstance(ps, distill.ParticleSet) and isinstance(m, worldmodel.PoseLabeledMixture)
        assert isinstance(schedule, DiffusionSchedule) and isinstance(cfg, distill.DistillConfig)

    def test_wrapped_names_are_module_attributes(self):
        for name in ("loss_weight", "render", "render_jacobian", "variational_eps", "ema_update",
                     "particle_split", "write_report", "run", "bnf_interval", "_control_grad_log_posterior"):
            assert callable(getattr(distill, name)), name
        assert callable(worldmodel.score) and callable(rectify.grad_log_r)
