"""Physical parameters, named presets and JSON configuration handling.

Everything is dimensionless: nonlinear couplings, tunneling and loss
rates are normalized by g11·N_A, and times by tau = g11·N_A·t.
Scattering lengths enter only as ratios, so no absolute length or SI
time appears anywhere in the package.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from typing import NamedTuple

from .errors import ConfigError

# hashlib loads OpenSSL's libcrypto at import, several MB and a few ms
# that every CLI process would pay for one hash; CPython's built-in
# SHA-256 gives the same digest.  The module is named by version, so no
# failing import searches sys.path.
try:
    _sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # an interpreter built without its own SHA-256
    from hashlib import sha256 as _sha256

# 87Rb scattering lengths in Bohr radii near the 9.105 G resonance; the
# two tabulated fields differ only in the inter-species length.
SCATTERING_RATIOS = {
    "B9p116G": {"a11": 100.4, "a22": 95.5, "a12": 80.8},
    "B9p086G": {"a11": 100.4, "a22": 95.5, "a12": 107.8},
}
PRESET_TAGS = ("B9p116G", "B9p086G", "NoCrossCoupling")

LINEAR_LOSS_MODES = ("symmetric", "printed", "operators")
THETA_OBJECTIVES = ("product", "epr")


class _Checked:
    """Named-tuple mixin whose records are checked when built: the class's
    `_checked` runs in the constructor, and `_make`, and so `_replace`,
    go through the constructor."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _CouplingFields(NamedTuple):
    g11: float
    g12: float
    g22: float
    kappa1: float = 0.0
    kappa2: float = 0.0


class PhysicalCouplings(_Checked, _CouplingFields):
    """Dimensionless nonlinear couplings g̃_ij and tunneling rates κ̃_i."""

    __slots__ = ()

    def _checked(self):
        errs = []
        if not self.g11 > 0:
            errs.append("couplings.g11: must be > 0")
        for name in ("g12", "g22", "kappa1", "kappa2"):
            if getattr(self, name) < 0:
                errs.append(f"couplings.{name}: must be >= 0")
        if errs:
            raise ConfigError(errs)
        return self

    @property
    def tunneling(self) -> bool:
        return self.kappa1 != 0.0 or self.kappa2 != 0.0


class _LossFields(NamedTuple):
    gamma1: float = 0.0
    gamma12: float = 0.0
    gamma22: float = 0.0


class LossRates(_Checked, _LossFields):
    """Dimensionless loss rates; all zero reproduces unitary dynamics."""

    __slots__ = ()

    def _checked(self):
        errs = [
            f"losses.{n}: must be >= 0"
            for n in ("gamma1", "gamma12", "gamma22")
            if getattr(self, n) < 0
        ]
        if errs:
            raise ConfigError(errs)
        return self

    @property
    def enabled(self) -> bool:
        return self.gamma1 != 0.0 or self.gamma12 != 0.0 or self.gamma22 != 0.0


class _InitialFields(NamedTuple):
    N_A: float = 200.0
    N_B: float | None = None
    phase: float = 0.0


class InitialState(_Checked, _InitialFields):
    """Four-mode coherent state with N/2 mean atoms per internal mode.

    `N_B` defaults to `N_A`.
    """

    __slots__ = ()

    def _checked(self):
        if self.N_B is None:
            return InitialState(self.N_A, float(self.N_A), self.phase)
        errs = []
        if not self.N_A > 0:
            errs.append("initial.N_A: must be > 0")
        if not self.N_B > 0:
            errs.append("initial.N_B: must be > 0")
        if errs:
            raise ConfigError(errs)
        return self

    @property
    def alpha_a(self) -> complex:
        amp = math.sqrt(self.N_A / 2.0)
        return amp if self.phase == 0.0 else amp * cmath.exp(1j * self.phase)

    @property
    def alpha_b(self) -> complex:
        amp = math.sqrt(self.N_B / 2.0)
        return amp if self.phase == 0.0 else amp * cmath.exp(1j * self.phase)


def preset_couplings(preset: str, N_A: float, kappa: float = 0.0) -> PhysicalCouplings:
    """Couplings for a named magnetic-field preset, normalized to g̃11 = 1/N_A."""
    if N_A < 1:
        raise ConfigError(["initial.N_A: must be >= 1 for a preset"])
    if preset == "NoCrossCoupling":
        g11 = 1.0 / N_A
        return PhysicalCouplings(g11, 0.0, g11, kappa, kappa)
    try:
        r = SCATTERING_RATIOS[preset]
    except KeyError:
        raise ConfigError(
            [f"preset.tag: unknown tag {preset!r}; expected one of {PRESET_TAGS}"]
        ) from None
    return PhysicalCouplings(
        1.0 / N_A,
        (r["a12"] / r["a11"]) / N_A,
        (r["a22"] / r["a11"]) / N_A,
        kappa,
        kappa,
    )


class SweepParams(NamedTuple):
    """tau grid plus measurement-angle options shared by all pipelines."""

    taus: tuple
    fixed_theta: float | None = None
    theta_objective: str = "product"


class SimConfig(NamedTuple):
    """Stochastic-engine parameters.

    `dtau` is an upper bound on the step; each output interval is split
    into ceil(interval/dtau) equal sub-steps so the output grid is hit
    exactly.  Trajectories are organized in chunks of `chunk_size`, each
    with its own counter-derived random stream, which makes results
    independent of worker count and lets half-ensembles merge exactly.
    `validate_config` shrinks a `chunk_size` above `n_traj` to `n_traj`
    (one chunk), so `{"n_traj": 100}` runs one chunk of 100.
    """

    dtau: float = 1e-4
    n_traj: int = 10_000
    seed: int = 1234
    chunk_size: int = 500
    linear_loss_mode: str = "symmetric"


class RunConfig(NamedTuple):
    couplings: PhysicalCouplings
    losses: LossRates
    initial: InitialState
    sweep: SweepParams
    wigner: SimConfig
    document: dict  # normalized JSON document (defaults filled)


_TOP_KEYS = {"preset", "couplings", "losses", "initial", "sweep", "wigner"}
_PRESET_KEYS = {"tag", "kappa"}
_COUPLING_KEYS = {"g11", "g12", "g22", "kappa", "kappa1", "kappa2"}
_LOSS_KEYS = {"gamma1", "gamma12", "gamma22"}
_INITIAL_KEYS = {"N_A", "N_B", "phase"}
_SWEEP_KEYS = {"tau_max", "n_tau", "tau_grid", "fixed_theta", "theta_objective"}
_WIGNER_KEYS = {"dtau", "n_traj", "seed", "chunk_size", "linear_loss_mode"}
_SEED_MAX = 2**64 - 1  # the seed is one uint64 word of each chunk's Philox key


def _num(sec, key, doc, default, errs, kind=float, minimum=None, strict=False, maximum=None):
    raw = doc.get(key, default)
    if raw is None and default is None:  # null stands for an absent key only here
        return None
    try:
        # json true/false, which kind() reads as 1/0, and strings, which it parses
        if isinstance(raw, (bool, str)):
            raise TypeError(raw)
        v = kind(raw)
    except (TypeError, ValueError):
        errs.append(f"{sec}.{key}: expected a number, got {raw!r}")
        return default
    except OverflowError:  # int() of ±Infinity
        v = math.inf
    if not math.isfinite(v):
        errs.append(f"{sec}.{key}: must be finite, got {raw!r}")
        return default
    if isinstance(raw, float) and v != raw:  # int() dropped a fraction
        errs.append(f"{sec}.{key}: expected an integer, got {raw!r}")
        return default
    if minimum is not None and (v < minimum or (strict and v == minimum)):
        op = ">" if strict else ">="
        errs.append(f"{sec}.{key}: must be {op} {minimum}")
    if maximum is not None and v > maximum:
        errs.append(f"{sec}.{key}: must be <= {maximum}")
    return v


def _section(doc, name, errs) -> dict:
    """The JSON object `doc[name]`, {} when the key is absent; any other
    value is reported in `errs` and read as {}."""
    sec = doc.get(name, {})
    if isinstance(sec, dict):
        return sec
    errs.append(f"{name}: expected a JSON object, got {sec!r}")
    return {}


def _check_keys(sec, doc, allowed, errs):
    for k in doc:
        if k not in allowed:
            errs.append(f"{sec}.{k}: unknown key (allowed: {sorted(allowed)})")


def validate_config(doc: dict) -> RunConfig:
    """Validate and normalize a configuration document.

    Collects every violation before raising, so one pass over the error
    list fixes the file.  Unknown keys are rejected, and so is a document
    or section that is not a JSON object.
    """
    if not isinstance(doc, dict):
        raise ConfigError([f"config: expected a JSON object, got {doc!r}"])
    errs: list[str] = []
    _check_keys("config", doc, _TOP_KEYS, errs)

    initial_doc = _section(doc, "initial", errs)
    _check_keys("initial", initial_doc, _INITIAL_KEYS, errs)
    n_a = _num("initial", "N_A", initial_doc, 200.0, errs, minimum=0.0, strict=True)
    n_b = _num("initial", "N_B", initial_doc, None, errs, minimum=0.0, strict=True)
    phase = _num("initial", "phase", initial_doc, 0.0, errs)

    preset_doc = _section(doc, "preset", errs)
    coup_doc = _section(doc, "couplings", errs)
    if "preset" in doc and "couplings" in doc:
        errs.append("config: provide either 'preset' or 'couplings', not both")
    couplings = None
    preset_tag = None
    if "couplings" in doc and "preset" not in doc:
        _check_keys("couplings", coup_doc, _COUPLING_KEYS, errs)
        if "kappa" in coup_doc and ("kappa1" in coup_doc or "kappa2" in coup_doc):
            errs.append("couplings: give either 'kappa' or 'kappa1'/'kappa2', not both")
        kappa = _num("couplings", "kappa", coup_doc, 0.0, errs, minimum=0.0)
        g11 = _num("couplings", "g11", coup_doc, None, errs, minimum=0.0, strict=True)
        if g11 is None:
            if isinstance(doc["couplings"], dict):  # any other value is reported above
                errs.append("couplings.g11: required when 'couplings' is given")
            g11 = 1.0
        g12 = _num("couplings", "g12", coup_doc, 0.0, errs, minimum=0.0)
        g22 = _num("couplings", "g22", coup_doc, g11, errs, minimum=0.0)
        k1 = _num("couplings", "kappa1", coup_doc, kappa, errs, minimum=0.0)
        k2 = _num("couplings", "kappa2", coup_doc, k1, errs, minimum=0.0)
        if not errs:
            couplings = PhysicalCouplings(g11, g12, g22, k1, k2)
    else:
        _check_keys("preset", preset_doc, _PRESET_KEYS, errs)
        preset_tag = preset_doc.get("tag", "B9p116G")
        if preset_tag not in PRESET_TAGS:
            errs.append(
                f"preset.tag: unknown tag {preset_tag!r}; expected one of {PRESET_TAGS}"
            )
        kappa = _num("preset", "kappa", preset_doc, 0.0, errs, minimum=0.0)
        if 0 < n_a < 1:  # N_A <= 0 is reported above
            errs.append("initial.N_A: must be >= 1 for a preset")
        if not errs:
            couplings = preset_couplings(preset_tag, n_a, kappa)

    loss_doc = _section(doc, "losses", errs)
    _check_keys("losses", loss_doc, _LOSS_KEYS, errs)
    gamma1 = _num("losses", "gamma1", loss_doc, 0.0, errs, minimum=0.0)
    gamma12 = _num("losses", "gamma12", loss_doc, 0.0, errs, minimum=0.0)
    gamma22 = _num("losses", "gamma22", loss_doc, 0.0, errs, minimum=0.0)

    sweep_doc = _section(doc, "sweep", errs)
    _check_keys("sweep", sweep_doc, _SWEEP_KEYS, errs)
    grid = sweep_doc.get("tau_grid")
    if grid is not None:
        # not float() of each item: that reads a string character by
        # character, an object by its keys and true as 1
        numbers = isinstance(grid, (list, tuple)) and all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in grid
        )
        try:
            taus = tuple(float(t) for t in grid) if numbers else ()
        except OverflowError:  # an integer beyond the float range
            taus = (math.inf,)
        if not numbers:
            errs.append(f"sweep.tau_grid: expected an array of numbers, got {grid!r}")
        elif len(taus) == 0:
            errs.append("sweep.tau_grid: must not be empty")
        elif not all(math.isfinite(t) for t in taus):
            errs.append("sweep.tau_grid: must contain finite numbers only")
        elif taus[0] < 0 or any(b <= a for a, b in zip(taus, taus[1:])):
            errs.append("sweep.tau_grid: must be non-negative and strictly increasing")
    else:
        tau_max = _num("sweep", "tau_max", sweep_doc, 0.2, errs, minimum=0.0, strict=True)
        n_tau = _num("sweep", "n_tau", sweep_doc, 400, errs, kind=int, minimum=1)
        taus = tuple(tau_max * k / (n_tau - 1) for k in range(n_tau)) if n_tau > 1 else (tau_max,)
    fixed_theta = _num("sweep", "fixed_theta", sweep_doc, None, errs)
    objective = sweep_doc.get("theta_objective", "product")
    if objective not in THETA_OBJECTIVES:
        errs.append(
            f"sweep.theta_objective: got {objective!r}; expected one of {THETA_OBJECTIVES}"
        )

    wig_doc = _section(doc, "wigner", errs)
    _check_keys("wigner", wig_doc, _WIGNER_KEYS, errs)
    dtau = _num("wigner", "dtau", wig_doc, 1e-4, errs, minimum=0.0, strict=True)
    n_traj = _num("wigner", "n_traj", wig_doc, 10_000, errs, kind=int, minimum=2)
    seed = _num("wigner", "seed", wig_doc, 1234, errs, kind=int, minimum=0, maximum=_SEED_MAX)
    chunk = _num("wigner", "chunk_size", wig_doc, 500, errs, kind=int, minimum=1)
    loss_mode = wig_doc.get("linear_loss_mode", "symmetric")
    if loss_mode not in LINEAR_LOSS_MODES:
        errs.append(
            f"wigner.linear_loss_mode: got {loss_mode!r}; expected one of {LINEAR_LOSS_MODES}"
        )
    if n_traj and chunk and n_traj % chunk:
        chunk = min(chunk, n_traj)
        if n_traj % chunk:
            errs.append(
                f"wigner.n_traj: must be a multiple of chunk_size ({chunk}) for "
                "exact sub-ensemble statistics"
            )

    if errs:
        raise ConfigError(errs)

    initial = InitialState(n_a, n_b, phase)
    losses = LossRates(gamma1, gamma12, gamma22)
    sweep = SweepParams(taus, fixed_theta, objective)
    wigner = SimConfig(dtau, n_traj, seed, chunk, loss_mode)

    sections = {
        "initial": initial,
        "losses": losses,
        "sweep": sweep,
        "wigner": wigner,
        "couplings": couplings,
    }
    document = {name: value._asdict() for name, value in sections.items()}
    # the config-file key, so the hash of an unchanged file stays put
    document["sweep"]["tau_grid"] = list(document["sweep"].pop("taus"))
    return RunConfig(couplings, losses, initial, sweep, wigner, document)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh))


def config_hash(cfg: RunConfig | dict) -> str:
    doc = cfg.document if isinstance(cfg, RunConfig) else cfg
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return _sha256(blob).hexdigest()
