import json
import math
from pathlib import Path

import pytest

from twinwell.config import (
    InitialState,
    LossRates,
    PhysicalCouplings,
    config_hash,
    load_config,
    preset_couplings,
    validate_config,
)
from twinwell.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_all_defaults_accepted():
    cfg = validate_config({})
    assert cfg.couplings.kappa1 == 0.0 and cfg.couplings.kappa2 == 0.0
    assert not cfg.losses.enabled
    assert cfg.initial.N_A == 200.0 and cfg.initial.N_B == 200.0
    assert len(cfg.sweep.taus) == 400
    assert cfg.sweep.taus[0] == 0.0 and cfg.sweep.taus[-1] == pytest.approx(0.2)


def test_preset_ratios():
    c = preset_couplings("B9p116G", 200.0)
    assert c.g11 == 1.0 / 200.0
    assert c.g12 / c.g11 == pytest.approx(80.8 / 100.4, rel=1e-15)
    assert c.g22 / c.g11 == pytest.approx(95.5 / 100.4, rel=1e-15)
    c = preset_couplings("B9p086G", 2000.0)
    assert c.g12 / c.g11 == pytest.approx(107.8 / 100.4, rel=1e-15)
    c = preset_couplings("NoCrossCoupling", 200.0)
    assert c.g12 == 0.0 and c.g22 == c.g11 == 1.0 / 200.0


def test_preset_unknown_tag():
    with pytest.raises(ConfigError, match="tag"):
        preset_couplings("B9p999G", 200.0)


def test_preset_scaling_round_trip():
    # rescaling N -> c N divides every coupling by c exactly (powers of two)
    for tag in ("B9p116G", "B9p086G", "NoCrossCoupling"):
        base = preset_couplings(tag, 125.0)
        for c in (2.0, 4.0, 8.0):
            scaled = preset_couplings(tag, 125.0 * c)
            assert scaled.g11 == base.g11 / c
            assert scaled.g12 == base.g12 / c
            assert scaled.g22 == base.g22 / c


def test_preset_pure_data():
    a = preset_couplings("B9p116G", 321.0)
    b = preset_couplings("B9p116G", 321.0)
    assert a == b


def test_negative_rate_names_field():
    with pytest.raises(ConfigError, match="gamma12"):
        validate_config({"losses": {"gamma12": -1.0}})
    with pytest.raises(ConfigError, match="gamma12"):
        LossRates(gamma12=-1.0)


def test_empty_tau_grid_rejected():
    with pytest.raises(ConfigError, match="tau_grid"):
        validate_config({"sweep": {"tau_grid": []}})


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"sweep": {"tau_max": math.nan, "n_tau": 3}}, "tau_max"),
        ({"sweep": {"tau_max": 1.0, "n_tau": math.inf}}, "n_tau"),
        ({"sweep": {"tau_grid": [0.0, math.inf]}}, "tau_grid"),
        ({"sweep": {"tau_grid": [math.nan, 1.0]}}, "tau_grid"),
        ({"sweep": {"fixed_theta": math.nan}}, "fixed_theta"),
        ({"preset": {"tag": "B9p116G", "kappa": math.nan}}, "kappa"),
        ({"couplings": {"g11": 0.01, "g12": -math.inf}}, "g12"),
        ({"losses": {"gamma12": math.nan}}, "gamma12"),
        ({"initial": {"N_A": math.inf}}, "N_A"),
        ({"wigner": {"dtau": math.inf}}, "dtau"),
        ({"sweep": {"tau_grid": [0, 10**400]}}, "tau_grid"),
    ],
)
def test_non_finite_numbers_rejected(doc, field):
    # Python's json reads NaN, Infinity and -Infinity as floats
    with pytest.raises(ConfigError, match=f"{field}.*finite"):
        validate_config(json.loads(json.dumps(doc)))


@pytest.mark.parametrize(
    "doc, field, message",
    [
        ({"wigner": {"n_traj": 1000.9}}, "n_traj", "integer"),
        ({"wigner": {"seed": 7.5}}, "seed", "integer"),
        ({"wigner": {"chunk_size": 250.5}}, "chunk_size", "integer"),
        ({"sweep": {"n_tau": 3.7}}, "n_tau", "integer"),
        ({"wigner": {"seed": True}}, "seed", "number"),
        ({"wigner": {"n_traj": False}}, "n_traj", "number"),
        ({"initial": {"N_A": True}}, "N_A", "number"),
        ({"preset": {"tag": "B9p116G", "kappa": True}}, "kappa", "number"),
        ({"losses": {"gamma1": False}}, "gamma1", "number"),
        ({"sweep": {"fixed_theta": True}}, "fixed_theta", "number"),
        # float() of each item would read "0123" as taus 0, 1, 2, 3, an
        # object by its keys and true as 1
        ({"sweep": {"tau_grid": "0123"}}, "tau_grid", "array of numbers"),
        ({"sweep": {"tau_grid": {"0": 1, "1": 2}}}, "tau_grid", "array of numbers"),
        ({"sweep": {"tau_grid": [0, True]}}, "tau_grid", "array of numbers"),
        ({"sweep": {"tau_grid": [0, "1"]}}, "tau_grid", "array of numbers"),
    ],
)
def test_non_integral_and_boolean_numbers_rejected(doc, field, message):
    # int() would truncate 1000.9 to 1000, and json true reads as 1
    with pytest.raises(ConfigError, match=f"{field}: expected an? {message}"):
        validate_config(json.loads(json.dumps(doc)))


def test_integral_floats_accepted_as_integers():
    cfg = validate_config({"wigner": {"n_traj": 1000.0, "seed": 7.0, "chunk_size": 250.0}})
    assert (cfg.wigner.n_traj, cfg.wigner.seed, cfg.wigner.chunk_size) == (1000, 7, 250)
    assert all(type(v) is int for v in (cfg.wigner.n_traj, cfg.wigner.seed))


def test_non_monotone_grid_rejected():
    with pytest.raises(ConfigError, match="tau_grid"):
        validate_config({"sweep": {"tau_grid": [0.0, 0.2, 0.1]}})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"wigner": {"dt": 1e-4}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"frobnicate": {}})


def test_preset_and_couplings_conflict():
    with pytest.raises(ConfigError, match="not both"):
        validate_config({"preset": {"tag": "B9p116G"}, "couplings": {"g11": 0.01}})


def test_kappa_fills_both_rates():
    cfg = validate_config({"preset": {"tag": "B9p116G", "kappa": 0.3}})
    assert cfg.couplings.kappa1 == cfg.couplings.kappa2 == 0.3
    cfg = validate_config({"couplings": {"g11": 0.01, "kappa": 0.7}})
    assert cfg.couplings.kappa1 == cfg.couplings.kappa2 == 0.7


def test_error_collects_all_fields():
    try:
        validate_config(
            {"losses": {"gamma1": -1, "gamma22": -2}, "initial": {"N_A": 0}}
        )
    except ConfigError as exc:
        text = str(exc)
        assert "gamma1" in text and "gamma22" in text and "N_A" in text
    else:
        pytest.fail("expected ConfigError")


def test_bad_stepper_and_loss_mode():
    with pytest.raises(ConfigError, match="stepper"):
        validate_config({"wigner": {"stepper": "rk4"}})
    with pytest.raises(ConfigError, match="linear_loss_mode"):
        validate_config({"wigner": {"linear_loss_mode": "everything"}})


def test_chunk_divisibility():
    with pytest.raises(ConfigError, match="multiple of chunk_size"):
        validate_config({"wigner": {"n_traj": 1001, "chunk_size": 500}})


def test_validity_warning_for_small_n():
    with pytest.warns(UserWarning, match="N_A < 50"):
        validate_config({"initial": {"N_A": 20}})


def test_initial_state_amplitudes():
    init = InitialState(N_A=200.0, N_B=50.0)
    assert abs(init.alpha_a) ** 2 == pytest.approx(100.0, rel=1e-15)
    assert abs(init.alpha_b) ** 2 == pytest.approx(25.0, rel=1e-15)
    rot = InitialState(N_A=200.0, phase=0.7)
    assert abs(rot.alpha_a) == pytest.approx(math.sqrt(100.0), rel=1e-15)


def test_couplings_validation():
    with pytest.raises(ConfigError, match="g11"):
        PhysicalCouplings(g11=0.0, g12=0.0, g22=0.0)
    with pytest.raises(ConfigError, match="kappa1"):
        PhysicalCouplings(g11=1.0, g12=0.0, g22=1.0, kappa1=-0.1)


def test_config_hash_stable_under_key_order():
    a = validate_config({"initial": {"N_A": 100, "N_B": 100}})
    b = validate_config({"initial": {"N_B": 100, "N_A": 100}})
    assert config_hash(a) == config_hash(b)
    c = validate_config({"initial": {"N_A": 101, "N_B": 100}})
    assert config_hash(a) != config_hash(c)


EXPLICIT = {
    "couplings": {"g11": 0.01, "g12": 0.002, "kappa": 0.3},
    "initial": {"N_A": 100, "N_B": 80, "phase": 0.2},
    "losses": {"gamma1": 0.001},
    "sweep": {"tau_grid": [0, 0.5, 1], "fixed_theta": 0.1, "theta_objective": "epr"},
    "wigner": {"n_traj": 1000, "chunk_size": 250, "seed": 5, "dtau": 0.001},
}


@pytest.mark.parametrize(
    "doc, digest",
    [
        ("two_step_n2000.json", "a9316a72268c233a46b791530fce3e9ad547b14a800f55d37d1ed2a101e74f97"),
        (
            "dynamic_strong_tunneling.json",
            "bc416934c5e58327d5113909157f7c4f3fa03133089b51e3ddaa1fa4df45cf5f",
        ),
        (
            "two_step_losses_n2000.json",
            "5afdff61755c14451d7c7a96051e2208e46212d6ae0eafc8c6a8a55e7eda9e56",
        ),
        ({}, "2da91d571fd8c2718496bb9747807c55bc94ba43f3e3f1a5b74a0662765b8136"),
        (EXPLICIT, "52a0fefc610c49167baaa8f8cbe0db04012f58e52d926d10a05e5d27c624fc18"),
    ],
    ids=["two_step_n2000", "dynamic_strong_tunneling", "two_step_losses_n2000", "defaults", "explicit"],
)
def test_config_hash_pinned(doc, digest):
    # the hash is written into every CSV header: the normalized document
    # of an unchanged config must not change
    cfg = load_config(CONFIGS / doc) if isinstance(doc, str) else validate_config(doc)
    assert config_hash(cfg) == digest
