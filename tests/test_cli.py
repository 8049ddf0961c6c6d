import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eplab
from eplab import __version__
from eplab.cli import (
    _COMMANDS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    _csv_rows,
    _parse_range,
    _parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert np.allclose(_parse_range("-1:1:0.5"), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="lo:hi:step"):
        _parse_range("1,2,3")
    with pytest.raises(ValueError, match="bad range"):
        _parse_range("1:0:0.5")
    with pytest.raises(ValueError, match="bad range"):
        _parse_range("0:1:-0.5")


def test_csv_rows_format_each_value_as_before():
    # one template over the rows writes what formatting each value with
    # f"{float(x):.12g}" wrote, including -0, nan and inf
    table = np.array([
        [0.0, -0.0, np.nan, np.inf],
        [-np.inf, 5e-324, 1e300, 0.1 + 0.2],
        [1.0 / 3.0, -2.5e-7, 123456789012345.0, 3],
    ])
    want = "".join(",".join(f"{float(x):.12g}" for x in row) + "\n" for row in table)
    assert _csv_rows(table) == want


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["spectrum", "--no-such-flag", "1"]) == EXIT_USAGE


def test_spectrum_sweep_and_header(capsys):
    code, out, _ = run(capsys, "spectrum", "--k2", "1.0", "--k1-range", "-0.2:0.2:0.05")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# config_hash=")
    assert f"version={__version__}" in lines[0]
    assert lines[1] == "k1,E1_re,E1_im,E2_re,E2_im,E3_re,E3_im"
    assert len(lines) == 2 + 9


def test_spectrum_requires_a_range(capsys):
    code, _, err = run(capsys, "spectrum", "--k1", "0.1")
    assert code == EXIT_DOMAIN
    assert "error:" in err


def test_deterministic_output(capsys):
    argv = ("eigensolve", "--k1", "0.3", "--k2", "0.5", "--shots", "2000", "--seed", "7")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_eigensolve_noiseless_json(capsys):
    code, out, _ = run(capsys, "eigensolve", "--k1", "0.3", "--k2", "0.5")
    assert code == EXIT_OK
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["max_abs_error"] < 1e-8
    assert sum(doc["recovered"]) == pytest.approx(6.0, abs=1e-9)


def test_atlas_finds_both_conical_points(capsys):
    code, out, _ = run(capsys, "atlas")
    assert code == EXIT_OK
    records = json.loads(out.split("\n", 1)[1])
    locs = sorted(tuple(r["location"]) for r in records)
    assert len(records) == 2
    assert all(r["kind"] == "dirac" for r in records)
    assert np.allclose(locs, [(0.0, -1.0), (0.0, 1.0)], atol=1e-6)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--resolution", "0"), "resolution must be in 3..1000, got 0"),
        (("--resolution", "1"), "resolution must be in 3..1000, got 1"),
        (("--resolution", "2"), "resolution must be in 3..1000, got 2"),
        (("--resolution", "-3"), "resolution must be in 3..1000, got -3"),
        (("--resolution", "100000"), "resolution must be in 3..1000, got 100000"),
        (("--k2-min", "inf"), "scan ranges must be finite"),
        (("--k1-min", "nan"), "scan ranges must be finite"),
        (("--k1-max", "-inf"), "scan ranges must be finite"),
        (("--k1-min", "1"), "scan ranges need min < max"),
        (("--k2-min", "2.5"), "scan ranges need min < max"),
        (("--k1-min", "-1e200", "--k1-max", "1e200"), "scan ranges must lie within +-1e+06"),
    ],
)
def test_atlas_rejects_nonsensical_grids(capsys, argv, message):
    # each used to print [] (inf also with a numpy RuntimeWarning), or
    # numpy's "Number of samples" text for a negative resolution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "atlas", *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# SHA-256 of stdout, recorded before the spectral commands moved to
# cubic-only sweeps, the tabled sweep match and the stacked atlas probes
SPECTRAL_DIGESTS = [
    (("spectrum", "--k2", "1", "--k1-range", "-1:1:0.005"),
     "3a9e4c9eb73a17c102845436eaa7b79d5ff0360bb3508106134e65977d2e3500"),
    (("spectrum", "--k2", "-1", "--k1-range", "-1:1:0.005"),
     "ff8d6b4b87b567059f02e67f27ca049e0408081c9768fd70a1172f8f1be68499"),
    (("spectrum", "--k2", "1", "--k1-range", "-1.137:0.863:0.005"),
     "4cf18e21e0177b428d0924f2abf490217de4e258a6b922bf22ffd417a9b7cd0d"),
    # through both conical points and across both PT-broken edges
    (("spectrum", "--k1", "0", "--k2-range", "-1.6:1.6:0.005"),
     "f294d9cd2bcca470fdfffe51431f72a81706c04417a2fb83f554a7520a7b7bae"),
    (("spectrum", "--k1", "0", "--k2-range", "1.3:1.6:0.001"),
     "24b42b821a5cb23c06ee5f786eccee79aac16dc0c9331dbd6002a5d7e9c8ab0a"),
    (("cone", "--angles", "1"),
     "8f5e8892512f7ef7e29452db81b7f5ec59dfd25592b78276ababdc3efa7b0394"),
    (("cone", "--angles", "32"),
     "cb40f445d9c7156e0da609d5b82e22a2ed557be00f36af210002aa5476647110"),
    (("atlas", "--resolution", "41"),
     "d0cec7fb9dad555dc79337994b51f9bad8605c9afd5066bcc470787e69e7f8c7"),
    (("atlas", "--resolution", "45"),
     "776134111f564d40bc448eacd4f8cdd2e11c0ab0b37194666b064d2f80b344b2"),
    (("atlas", "--resolution", "49"),
     "cbd1e90fa6095018179a213403651c0c10a11bda4299f08c73ae106476eb223a"),
]


@pytest.mark.parametrize(
    "argv, digest", SPECTRAL_DIGESTS, ids=[" ".join(argv) for argv, _ in SPECTRAL_DIGESTS]
)
def test_spectral_output_is_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k1": 0.3, "k2": 0.5, "shots": 0}))
    code, out_file, _ = run(capsys, "eigensolve", "--config", str(cfg))
    assert code == EXIT_OK
    # explicit flag wins over the file value
    code, out_flag, _ = run(
        capsys, "eigensolve", "--config", str(cfg), "--k1", "0.2"
    )
    assert code == EXIT_OK
    assert out_flag != out_file
    doc = json.loads(out_flag.split("\n", 1)[1])
    assert doc["max_abs_error"] < 1e-8


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k1": 0.3, "walrus": 1}))
    code, _, err = run(capsys, "eigensolve", "--config", str(cfg))
    assert code == EXIT_DOMAIN
    assert "walrus" in err


@pytest.mark.parametrize(
    "file_cfg, argv",
    [
        ({"duration": 500}, ["geophase", "--dur", "100"]),
        ({"resolution": 11}, ["atlas", "--res", "41"]),
        ({"k1": 0.3}, ["eigensolve", "--sho", "0"]),
    ],
)
def test_abbreviated_flags_are_usage_errors(tmp_path, capsys, file_cfg, argv):
    # a prefix set the value but was not recorded as explicit, so the
    # file value won: geophase ran T=500 with --dur 100
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("[1, 2]", ["spectrum"], "JSON object, not list"),
        ('"k1"', ["eigensolve"], "JSON object, not str"),
        ('{"k1": null}', ["spectrum"], "'k1' needs a number, got null"),
        ('{"k1": true}', ["eigensolve"], "'k1' needs a number, got true"),
        ('{"k1": "0.3"}', ["eigensolve"], "'k1' needs a number"),
        ('{"eigenindex": [1]}', ["geophase"], "'eigenindex' needs an integer"),
        ('{"resolution": 11.5}', ["atlas"], "'resolution' needs an integer, got 11.5"),
        ('{"shots": Infinity}', ["eigensolve"], "'shots' needs an integer, got Infinity"),
        ('{"k1_range": {"lo": 0}}', ["spectrum"], "'k1_range' needs a string"),
        ('{"preset": 1}', ["modeswitch"], "'preset' needs a string, got 1"),
        # one range from the file and one from a flag
        ('{"k1_range": "0:0.1:0.05"}', ["spectrum", "--k2-range", "0:0.1:0.05"],
         "spectrum takes one of --k1-range or --k2-range"),
    ],
)
def test_malformed_config_files_are_domain_errors(tmp_path, capsys, text, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_valid_config_values_keep_their_hash(tmp_path, capsys):
    # an integer for a float flag and an integral float for an int flag
    # still run, and hash as the file wrote them
    cfg = tmp_path / "cfg.json"
    file_cfg = {"k1": 0, "k2": 1, "shots": 0.0, "seed": 3}
    cfg.write_text(json.dumps(file_cfg))
    code, out, _ = run(capsys, "eigensolve", "--config", str(cfg))
    assert code == EXIT_OK
    blob = json.dumps(file_cfg, sort_keys=True, separators=(",", ":"))
    assert out.startswith(f"# config_hash={hashlib.sha256(blob.encode()).hexdigest()[:16]} ")


def test_output_file(tmp_path, capsys):
    out = tmp_path / "cone.csv"
    code, stdout, _ = run(capsys, "cone", "--angles", "4", "-o", str(out))
    assert code == EXIT_OK
    assert stdout == ""
    lines = out.read_text().splitlines()
    assert lines[1] == "theta,slope_plus,slope_minus,slope_plus_fd,slope_minus_fd"
    assert len(lines) == 2 + 4


def test_config_hash_tracks_config(capsys):
    _, out_a, _ = run(capsys, "cone", "--angles", "4")
    _, out_b, _ = run(capsys, "cone", "--angles", "8")
    assert out_a.splitlines()[0] != out_b.splitlines()[0]


def test_pulses_emits_six_channels(capsys):
    code, out, _ = run(capsys, "pulses", "--span", "0.02", "--samples", "21")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1] == "channel,label,omega_hz,t_s,amplitude_hz,phase_rad"
    labels = {row.split(",")[1] for row in lines[2:]}
    assert labels == {"MW1", "MW2", "MW3", "MW4", "EF1", "EF2"}
    assert len(lines) == 2 + 6 * 21


def test_verify_quick_suites(capsys):
    for suite in ("line_spectra", "cone"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == EXIT_OK
        assert f"{suite}: PASS" in out


def test_domain_error_exit_code(capsys):
    # requested model time far outside the dilation positivity window
    code, _, err = run(
        capsys, "dilate", "--k2", "1.3", "--time", "50", "--m0-scale", "1.1",
        "--steps", "50",
    )
    assert code == EXIT_DOMAIN
    assert "error:" in err


@pytest.mark.parametrize("command", ["geophase", "modeswitch"])
@pytest.mark.parametrize("dt", ["0", "-1", "nan"])
def test_bad_dt_is_a_domain_error(capsys, command, dt):
    code, out, err = run(capsys, command, "--duration", "50", "--dt", dt)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: dt must be finite and positive")


@pytest.mark.parametrize("command, dt", [("geophase", "1e-12"), ("modeswitch", "1e-300")])
def test_loop_step_count_is_bounded(capsys, command, dt):
    # at the parent these were a MemoryError traceback and numpy's
    # "Maximum allowed size exceeded"
    code, out, err = run(capsys, command, "--dt", dt)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"error: dt {dt} gives ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, product",
    [
        (("geophase", "--dt", "2.0"), "is 7.08"),
        (("geophase", "--dt", "2.5"), "is 8.85"),
        (("modeswitch", "--preset", "through_k1", "--dt", "2.0"), "is 7.87"),
        # dt x splitting is 6.19 < 2 pi, but the grid rounds 9.4 steps down
        # to 9 of 1.8278
        (("geophase", "--duration", "16.45", "--dt", "1.75"), "is 6.47"),
    ],
)
def test_loop_step_past_the_resonance_is_a_domain_error(capsys, argv, product):
    # unchecked, these exit 0 with a wrong phase: Re gamma 0.014028 at
    # geophase --dt 2.0, against 0.009974 at dt 0.2
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: loop step ") and err.count("\n") == 1
    assert product in err and "2 pi step resonance" in err


@pytest.mark.parametrize(
    "argv", [("geophase", "--dt", "1.5"), ("modeswitch", "--dt", "0.8")]
)
def test_loop_step_below_the_resonance_runs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out[out.index("{"):])


@pytest.mark.parametrize("sweep", ["0:1e300:1e-300", "0:1:1e-6"])
def test_range_point_count_is_bounded(capsys, sweep):
    # the first overflowed int(round(inf)); the second is a finite count
    # over the bound
    code, out, err = run(capsys, "spectrum", "--k2", "1", "--k1-range", sweep)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"error: range {sweep!r} has ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dilate", "--steps", "10000000000000"), "dilation steps 10000000000000 exceed"),
        (("pulses", "--samples", "10000000000000"), "pulse samples 10000000000000 exceed"),
        (("cone", "--angles", "10000000000000"), "angles 10000000000000 exceed"),
    ],
)
def test_sample_counts_are_bounded(capsys, argv, message):
    # unbounded, each ended in an _ArrayMemoryError traceback (72.8 TiB)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["geophase", "modeswitch"])
@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_bad_duration_is_a_domain_error(capsys, command, duration):
    code, out, err = run(capsys, command, "--duration", duration)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: loop duration, radius and center must be finite")


def test_huge_loop_radius_is_a_domain_error(capsys):
    # printed "loop is not closed: k(0) != k(T)", the rounding of 1e200 cos/sin
    code, out, err = run(capsys, "geophase", "--radius", "1e200", "--duration", "10")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == "error: circle loop must lie within +-1e+06 in k1 and k2\n"


def test_model_eigenvectors_need_no_lapack_eig(capsys, monkeypatch):
    from eplab.experiments import LoopSpec, adiabaticity_check
    from eplab.model import ModelParams, analytic_eigenstate, spectrum, sweep_tracked_spectra

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    path = ModelParams(np.linspace(-0.2, 0.2, 9), 1.0)
    assert spectrum(path).right_vectors.shape == (9, 3, 3)
    assert sweep_tracked_spectra(path).right_vectors.shape == (9, 3, 3)
    point = ModelParams(0.3, 0.5)
    assert analytic_eigenstate(point, spectrum(point).eigenvalues[0]).shape == (3,)
    assert adiabaticity_check(LoopSpec(T=200.0), 1) < 1.0
    for argv in (("tomography",), ("eigensolve", "--shots", "0"), ("modeswitch", "--duration", "2000")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")


def test_every_command_runs_without_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported: all ten
    # subcommands, the criterion-6 line locator and a 2x2 expm run on NumPy
    argvs = [
        ["spectrum", "--k2-range", "0:1:0.05"], ["atlas"], ["cone"], ["dilate"], ["pulses"],
        ["eigensolve", "--shots", "0"], ["tomography", "--shots", "1000"],
        ["geophase", "--duration", "500"], ["modeswitch", "--duration", "2000"], ["verify"],
    ]
    assert sorted(argv[0] for argv in argvs) == sorted(_COMMANDS)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from eplab import cli, dilation\n"
        "from eplab.ep_atlas import locate_line_degeneracies\n"
        "from eplab.model import ModelParams, build_tb_block\n"
        f"for i, argv in enumerate({argvs!r}):\n"
        f"    assert cli.main([*argv, '-o', {str(tmp_path)!r} + f'/{{i}}.out']) == 0, argv\n"
        "fam = lambda k1: build_tb_block(ModelParams(k1, 1.0), reach=2)\n"
        "points = locate_line_degeneracies(fam, (-1.0, 1.0))\n"
        "assert max(min(abs(p - x) for p in points) for x in (-0.5, 0.5)) < 1e-6, points\n"
        "assert np.array_equal(dilation.expm(np.zeros((2, 2))), np.eye(2))\n"
    )
    src = str(Path(eplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")
    assert len(list(tmp_path.glob("*.out"))) == len(argvs)


def test_tomography_writes_the_reconstruction_exactly(capsys):
    # the density is the MLE matrix as [re, im] pairs, every bit kept
    from eplab.model import ModelParams, spectrum
    from eplab.readout import TOMOGRAPHY_SETTINGS, mle_reconstruct, simulate_counts

    code, out, _ = run(capsys, "tomography", "--shots", "1000", "--seed", "3", "--eigenindex", "1")
    assert code == EXIT_OK
    density = json.loads(out.split("\n", 1)[1])["density"]
    psi = spectrum(ModelParams(0.0, 1.0)).right_vectors[:, 0]
    rng = np.random.default_rng(3)
    rho = mle_reconstruct([simulate_counts(psi, s, 1000, rng=rng) for s in TOMOGRAPHY_SETTINGS])
    assert np.array_equal([[complex(*v) for v in row] for row in density], rho)


@pytest.mark.parametrize("index", ["0", "4"])
def test_tomography_eigenindex_out_of_range(capsys, index):
    code, out, err = run(capsys, "tomography", "--eigenindex", index)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == "error: eigenindex must be 1, 2 or 3\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dilate", "--steps", "0"), "steps >= 1"),
        (("dilate", "--steps", "-1"), "steps >= 1"),
        (("dilate", "--time", "inf"), "finite, positive total time"),
        (("dilate", "--time", "nan"), "finite, positive total time"),
        (("dilate", "--m0-scale", "nan"), "m0_scale must be finite"),
        (("dilate", "--m0-scale", "inf"), "m0_scale must be finite"),
        (("dilate", "--m0-scale", "0.5"), "m0_scale must be finite"),
        (("dilate", "--k1", "nan"), "non-finite entries"),
        (("pulses", "--scale", "0"), "finite, positive rate"),
        (("pulses", "--scale", "-1"), "finite, positive rate"),
        (("pulses", "--span", "nan"), "finite, positive rate and span"),
        (("pulses", "--samples", "0"), "at least one sample"),
        # PT-broken: the window is lost at the first frame, before the metric
        # of the same slice overflows (at model times 312.5 and 0.2505)
        (("dilate", "--k1", "1.5", "--k2", "1.5", "--time", "500", "--steps", "100"),
         "dilation window exceeded at model time 2.5"),
        (("dilate", "--k2", "1000"), "dilation window exceeded at model time 0.0015"),
        # the metric exp(i H t) overflows at the first frame: this printed
        # RuntimeWarnings and then LAPACK's "Eigenvalues did not converge"
        (("pulses", "--k2", "-1e6"), "dilation metric overflows at model time 0.0004"),
        # 2 pi s is subnormal: unchecked, the sample times overflow and 1202
        # nan are written with exit 0
        (("pulses", "--scale", "5e-324"), "rate s = 5e-324 Hz gives sample times"),
    ],
)
def test_bad_dilation_inputs_are_domain_errors(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["tomography", "eigensolve"])
def test_shot_counts_beyond_a_c_long_are_domain_errors(capsys, command):
    # rng.multinomial takes a C long, which 2**63 shots and more overflow
    code, out, err = run(capsys, command, "--shots", "10000000000000000000000")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == "error: shots must be at most 9223372036854775807, got 10000000000000000000000\n"


@pytest.mark.parametrize("sweep", ["0:inf:0.05", "nan:1:0.05", "0:0.1:inf"])
def test_non_finite_range_is_a_domain_error(capsys, sweep):
    code, out, err = run(capsys, "spectrum", "--k2", "1", "--k1-range", sweep)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == "error: range must be finite lo:hi:step\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dilate", "--k1", "inf"), "non-finite entries"),
        (("dilate", "--k2", "inf"), "non-finite entries"),
        (("pulses", "--k1", "inf"), "non-finite entries"),
        (("spectrum", "--k2", "nan", "--k1-range", "0:1:0.5"), "non-finite entries"),
        (("cone", "--dk", "inf"), "dk must be finite and positive"),
        (("cone", "--dk", "nan"), "dk must be finite and positive"),
        (("cone", "--angles", "0"), "angles must be >= 1"),
        (("cone", "--angles", "-3"), "angles must be >= 1"),
        # each printed RuntimeWarnings first; spectrum ended in an
        # OverflowError traceback
        (("spectrum", "--k1", "1e200", "--k2-range", "0:0.1:0.05"), "within +-1e+06"),
        (("cone", "--dk", "1e300"), "within +-1e+06"),
        (("dilate", "--k1", "1e200"), "within +-1e+06"),
        (("pulses", "--k1", "1e200"), "within +-1e+06"),
        # printed the k1 sweep and dropped --k2-range without a word
        (("spectrum", "--k1-range", "0:0.1:0.05", "--k2-range", "0:0.1:0.05"),
         "spectrum takes one of --k1-range or --k2-range"),
    ],
)
def test_bad_model_inputs_are_domain_errors(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # one shot per setting: setting 1 sees no level-3 count, so P2/P3
        # is undefined (it used to print the untouched first start)
        (("--shots", "1", "--seed", "1"), "setting 1 recorded no level-3 counts"),
        # outside the window no start ends feasible (it used to print a
        # non-descending triple with max_abs_error 5.5)
        (("--k1", "3", "--k2", "0.5"), "0 <= k1, k2 <= 1.5"),
        (("--k1", "0.3", "--k2", "-1.6"), "0 <= k1, k2 <= 1.5"),
        # PT-broken: truth held the real parts of a complex pair and the
        # run printed max_abs_error 0.096
        (("--k1", "1.5", "--k2", "1.5"), "PT-broken (discriminant -5811.25 < 0)"),
        # negative k: (0.3, 0.5) and (-0.173, -1.375) fit the same ratios,
        # and these printed max_abs_error 1.17e7 and 0.83
        (("--k1", "0.3", "--k2", "-0.5", "--shots", "100000", "--seed", "3"),
         "0 <= k1, k2 <= 1.5"),
        (("--k1", "-0.3", "--k2", "0.5"), "0 <= k1, k2 <= 1.5"),
    ],
)
def test_eigensolve_rejects_unreadable_inputs(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eigensolve", *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "k1, k2",
    # the k1 = 0 line (where the Dirac EP lies), the k2 = 0 line and the
    # window's k1 edge: the first four used to exit 1, the last printed
    # max_abs_error 1.73
    [("0", "0.5"), ("0", "0.8"), ("0", "1.3"), ("0.3", "0"), ("1.5", "0.5")],
)
def test_eigensolve_noiseless_on_the_window_lines(capsys, k1, k2):
    code, out, _ = run(capsys, "eigensolve", "--k1", k1, "--k2", k2)
    assert code == EXIT_OK
    assert json.loads(out.split("\n", 1)[1])["max_abs_error"] < 1e-12


def test_eigensolve_at_the_dirac_ep(capsys):
    # the discriminant is exactly 0 on the real-spectrum boundary
    code, out, _ = run(capsys, "eigensolve", "--k1", "0", "--k2", "1")
    assert code == EXIT_OK
    assert json.loads(out.split("\n", 1)[1])["recovered"] == [3.0, 3.0, 0.0]


def test_negative_values_in_scientific_notation(capsys):
    # argparse took -1e-3 for an unknown option and exited 2
    code, sci, _ = run(capsys, "dilate", "--k1", "-1e-3", "--steps", "100")
    assert code == EXIT_OK
    assert sci == run(capsys, "dilate", "--k1", "-0.001", "--steps", "100")[1]
    code, out, err = run(capsys, "pulses", "--scale", "-5e4")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite, positive rate" in err


def test_cached_parser_keeps_runs_apart(tmp_path, capsys):
    # main() builds its parser once per process; a parse holds only the
    # flags given, and none of them carries over to the next run
    parser = _parser()
    first = parser.parse_args(["eigensolve", "--k1", "0.2", "--shots", "5"])
    second = parser.parse_args(["tomography", "--seed", "3"])
    assert vars(first) == {"command": "eigensolve", "k1": 0.2, "shots": 5}
    assert vars(second) == {"command": "tomography", "seed": 3}
    assert _parser() is parser

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k1": 0.25, "k2": 0.5}))
    code, from_file, _ = run(capsys, "eigensolve", "--config", str(cfg))
    assert code == EXIT_OK
    _, default_tomo, _ = run(capsys, "tomography")
    # an explicit --k1 in one run must not override the file in the next
    assert run(capsys, "eigensolve", "--k1", "0.1", "--k2", "0.4")[0] == EXIT_OK
    assert run(capsys, "tomography", "--k1", "0.1", "--shots", "100")[0] == EXIT_OK
    assert run(capsys, "eigensolve", "--config", str(cfg))[1] == from_file
    assert run(capsys, "tomography")[1] == default_tomo
    doc = json.loads(from_file.split("\n", 1)[1])
    assert doc["max_abs_error"] < 1e-8
    assert doc["truth"][0] == pytest.approx(3.7393014801852353, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        # every one of the eight (E1, E2) starts of the earlier solver
        # missed the root here, and a retry round found it: noiselessly the
        # solve raised without it, with 1e5 shots it returned the unmoved
        # start (3, 3); the four (k1, k2) starts reach it in one round
        ("--k1", "0.0923", "--k2", "0.3114"),
        ("--k1", "0.0897", "--k2", "0.3183", "--shots", "100000", "--seed", "1641706001"),
    ],
)
def test_eigensolve_retries_when_the_eight_starts_miss(capsys, argv):
    code, out, _ = run(capsys, "eigensolve", *argv)
    assert code == EXIT_OK
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["max_abs_error"] < (1e-12 if len(argv) == 4 else 1e-2)
