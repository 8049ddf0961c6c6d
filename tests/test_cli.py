import json

import numpy as np
import pytest

from eplab import __version__
from eplab.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, _parse_range, main


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


@pytest.mark.parametrize("command", ["geophase", "modeswitch"])
@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_bad_duration_is_a_domain_error(capsys, command, duration):
    code, out, err = run(capsys, command, "--duration", duration)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: loop duration, radius and center must be finite")


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
    ],
)
def test_bad_dilation_inputs_are_domain_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
