import functools
import hashlib
import json
import math
import re
import warnings
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
from twinwell.sweeps import dynamic_sweep, squeeze_sweep, two_step_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"


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
        # float() and int() would parse a number given as a string
        ({"wigner": {"dtau": "1e-3"}}, "dtau", "number"),
        ({"wigner": {"n_traj": "1000"}}, "n_traj", "number"),
        ({"losses": {"gamma12": "0.001"}}, "gamma12", "number"),
        ({"initial": {"N_A": "2000"}}, "N_A", "number"),
        ({"sweep": {"fixed_theta": "0.3"}}, "fixed_theta", "number"),
    ],
)
def test_non_integral_and_boolean_numbers_rejected(doc, field, message):
    # int() would truncate 1000.9 to 1000, and json true reads as 1
    with pytest.raises(ConfigError, match=f"{field}: expected an? {message}"):
        validate_config(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("seed", [2**64, 2.0**64, 10**30], ids=["2**64", "2.0**64", "10**30"])
def test_seed_past_64_bits_rejected(seed):
    # the seed is 64 bits by contract, the entropy of every chunk's
    # SeedSequence; a larger one is refused before any run starts
    with pytest.raises(ConfigError) as exc:
        validate_config({"wigner": {"seed": seed}, "losses": {"gamma1": -1}})
    assert exc.value.errors == [
        "losses.gamma1: must be >= 0.0",
        "wigner.seed: must be <= 18446744073709551615",
    ]
    assert validate_config({"wigner": {"seed": 2**64 - 1}}).wigner.seed == 2**64 - 1


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


def test_preset_n_a_error_collected_with_the_others():
    with pytest.raises(ConfigError) as exc:
        validate_config({"initial": {"N_A": 0.5}, "losses": {"gamma1": -1}})
    assert exc.value.errors == [
        "initial.N_A: must be >= 1 for a preset",
        "losses.gamma1: must be >= 0.0",
    ]


@pytest.mark.parametrize(
    "section, key",
    [
        ("initial", "N_A"),
        ("initial", "phase"),
        ("preset", "kappa"),
        ("couplings", "g12"),
        ("couplings", "g22"),
        ("couplings", "kappa"),
        ("couplings", "kappa1"),
        ("couplings", "kappa2"),
        ("losses", "gamma1"),
        ("losses", "gamma12"),
        ("losses", "gamma22"),
        ("sweep", "tau_max"),
        ("sweep", "n_tau"),
        ("wigner", "dtau"),
        ("wigner", "n_traj"),
        ("wigner", "seed"),
        ("wigner", "chunk_size"),
    ],
)
def test_null_rejected_where_the_default_is_a_number(section, key):
    # null would reach the sweep as None: a TypeError, or `# seed: None`
    sec = {"g11": 0.01} if section == "couplings" else {}
    with pytest.raises(ConfigError) as exc:
        validate_config({section: {**sec, key: None}})
    assert exc.value.errors == [f"{section}.{key}: expected a number, got None"]


def test_null_is_the_default_where_the_default_is_null():
    cfg = validate_config({"initial": {"N_A": 300, "N_B": None}, "sweep": {"fixed_theta": None}})
    assert cfg.initial.N_B == 300.0 and cfg.sweep.fixed_theta is None
    with pytest.raises(ConfigError, match="couplings.g11: required"):
        validate_config({"couplings": {"g11": None}})


@pytest.mark.parametrize(
    "doc",
    [path.name for path in sorted(CONFIGS.glob("*.json"))] + [{}],
    ids=lambda doc: doc or "defaults",
)
def test_normalized_document_validates_to_the_same_hash(doc):
    # the normalized document, `fixed_theta: null` included, is a valid
    # config that describes the same run
    cfg = load_config(CONFIGS / doc) if isinstance(doc, str) else validate_config(doc)
    assert config_hash(validate_config(cfg.document)) == config_hash(cfg)


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"initial": 5}, "initial: expected a JSON object, got 5"),
        ({"losses": "ab"}, "losses: expected a JSON object, got 'ab'"),
        ({"wigner": [1]}, "wigner: expected a JSON object, got [1]"),
        ({"sweep": None}, "sweep: expected a JSON object, got None"),
        ({"preset": "B9p116G"}, "preset: expected a JSON object, got 'B9p116G'"),
        ({"couplings": 5}, "couplings: expected a JSON object, got 5"),
        ({"couplings": None}, "couplings: expected a JSON object, got None"),
        ([1], "config: expected a JSON object, got [1]"),
        (None, "config: expected a JSON object, got None"),
    ],
    ids=[
        "initial-5",
        "losses-string",
        "wigner-array",
        "sweep-null",
        "preset-string",
        "couplings-5",
        "couplings-null",
        "array",
        "null",
    ],
)
def test_section_that_is_not_an_object_rejected(doc, error):
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert exc.value.errors == [error]


def test_section_error_collected_with_the_others():
    with pytest.raises(ConfigError) as exc:
        validate_config({"initial": 5, "losses": {"gamma1": -1}, "wigner": {"seed": None}})
    assert exc.value.errors == [
        "initial: expected a JSON object, got 5",
        "losses.gamma1: must be >= 0.0",
        "wigner.seed: expected a number, got None",
    ]


def test_readme_defaults_are_the_defaults():
    text = README.read_text(encoding="utf-8")
    block = re.search(
        r"All\s+sections\s+optional\s+\(defaults shown\):\n\n```json\n(.*?)```", text, re.S
    )
    shown = validate_config(json.loads(block.group(1)))
    assert config_hash(shown) == config_hash(validate_config({}))


def test_bad_stepper_and_loss_mode():
    # there is one integrator and no key to choose it: `stepper` is an
    # unknown key
    with pytest.raises(ConfigError, match="wigner.stepper: unknown key"):
        validate_config({"wigner": {"stepper": "rk4"}})
    with pytest.raises(ConfigError, match="linear_loss_mode"):
        validate_config({"wigner": {"linear_loss_mode": "everything"}})


def test_chunk_divisibility():
    with pytest.raises(ConfigError, match="multiple of chunk_size"):
        validate_config({"wigner": {"n_traj": 1001, "chunk_size": 500}})


def test_chunk_size_above_n_traj_shrinks_to_one_chunk():
    cfg = validate_config({"wigner": {"n_traj": 100}})
    assert cfg.wigner.chunk_size == 100
    assert cfg.document["wigner"]["chunk_size"] == 100
    # below n_traj it is kept, and must divide n_traj
    with pytest.raises(ConfigError, match=r"multiple of chunk_size \(500\)"):
        validate_config({"wigner": {"n_traj": 600}})


# a short sweep at few atoms per well: the truncated-Wigner accuracy
# warning belongs to the stochastic engine's runs, not to the config
SMALL_N_RUN = {
    "sweep": {"tau_grid": [0.0, 0.05]},
    "wigner": {"n_traj": 40, "chunk_size": 20, "dtau": 0.01},
}


def test_config_validation_does_not_warn_for_small_n():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_config({"initial": {"N_A": 20, "N_B": 20}})


@pytest.mark.parametrize(
    "initial, sweep",
    [
        ({"N_A": 20}, dynamic_sweep),
        ({"N_A": 200, "N_B": 20}, dynamic_sweep),
        ({"N_A": 20}, functools.partial(two_step_sweep, engine="wigner")),
    ],
    ids=["N_A-dynamic", "N_B-dynamic", "N_A-two-step-wigner"],
)
def test_truncated_wigner_warns_below_50_atoms_per_well(initial, sweep):
    cfg = validate_config({"initial": initial, **SMALL_N_RUN})
    with pytest.warns(UserWarning, match=r"accuracy degrades for min\(N_A, N_B\) < 50"):
        sweep(cfg)


@pytest.mark.parametrize("sweep", [squeeze_sweep, two_step_sweep], ids=["squeeze", "two-step"])
def test_exact_engine_never_warns(sweep):
    cfg = validate_config({"initial": {"N_A": 20, "N_B": 20}, **SMALL_N_RUN})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep(cfg)


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


@pytest.mark.parametrize(
    "record, field",
    [
        (PhysicalCouplings(g11=0.01, g12=0.002, g22=0.01), "g11"),
        (PhysicalCouplings(g11=0.01, g12=0.002, g22=0.01), "g12"),
        (PhysicalCouplings(g11=0.01, g12=0.002, g22=0.01), "kappa2"),
        (LossRates(gamma1=0.001), "gamma1"),
        (LossRates(gamma1=0.001), "gamma22"),
        (InitialState(N_A=300.0), "N_A"),
        (InitialState(N_A=300.0), "N_B"),
    ],
)
def test_record_checks_run_on_construction_and_replace(record, field):
    bad = 0.0 if field in ("g11", "N_A", "N_B") else -1.0
    with pytest.raises(ConfigError, match=rf"\.{field}: must be"):
        type(record)(**{**record._asdict(), field: bad})
    with pytest.raises(ConfigError, match=rf"\.{field}: must be"):
        record._replace(**{field: bad})


def test_initial_state_fills_n_b_from_n_a():
    assert InitialState(N_A=300.0).N_B == 300.0
    assert InitialState(N_A=300.0)._replace(N_A=100.0).N_B == 300.0
    assert InitialState(N_A=300.0, N_B=50.0).N_B == 50.0


@pytest.mark.parametrize(
    "record, field",
    [
        (PhysicalCouplings(g11=0.01, g12=0.0, g22=0.01), "kappa1"),
        (LossRates(), "gamma12"),
        (InitialState(), "N_B"),
        (validate_config({}), "wigner"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)


@pytest.mark.parametrize(
    "doc", [{}] + sorted(p.name for p in CONFIGS.glob("*.json")), ids=lambda d: d or "defaults"
)
def test_config_hash_is_hashlib_sha256(doc):
    # the hash is computed without hashlib, which loads OpenSSL; it must
    # be hashlib's SHA-256 of the same canonical blob
    cfg = load_config(CONFIGS / doc) if isinstance(doc, str) else validate_config(doc)
    blob = json.dumps(cfg.document, sort_keys=True, separators=(",", ":")).encode()
    assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()


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
        ("two_step_n2000.json", "20f4a590f4d4205d2bf35c554209e33d851e1e0d506738c438e3c4eb18b69c8f"),
        (
            "dynamic_strong_tunneling.json",
            "0d15dd4cca6d42615aca93b6eeb51275fdf46356e85ed2e6088f2622925adfac",
        ),
        (
            "two_step_losses_n2000.json",
            "e55bfd4f1d7731c88bbc0d2d8104549bef57b7744b421f6916f9e7bee33ee3ca",
        ),
        (
            "dynamic_tunneling_losses.json",
            "a50ac2cb09b9a85efec3a8a1566f2f71c96175b3fb1c7597cdaf2d940690658e",
        ),
        (
            "two_step_linear_loss.json",
            "d8caf6f95c3da280554112f1dd7fb4ab02690af57a7fe79c8a79a2b9afaf981f",
        ),
        ({}, "170b08bf6ac371f2b7babaebb53c6404bde2d8267802c04e8c557ea866380e79"),
        (EXPLICIT, "17926ac07a9e55f2af4ccb3d4ea7104783fbb0db044c4ac6e51e3b89880134a9"),
    ],
    ids=[
        "two_step_n2000",
        "dynamic_strong_tunneling",
        "two_step_losses_n2000",
        "dynamic_tunneling_losses",
        "two_step_linear_loss",
        "defaults",
        "explicit",
    ],
)
def test_config_hash_pinned(doc, digest):
    # the hash is written into every CSV header: the normalized document
    # of an unchanged config must not change
    cfg = load_config(CONFIGS / doc) if isinstance(doc, str) else validate_config(doc)
    assert config_hash(cfg) == digest
