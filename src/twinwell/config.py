"""Physical parameters, named presets and JSON configuration handling.

Everything is dimensionless: nonlinear couplings, tunneling and loss
rates are normalized by g11·N_A, and times by tau = g11·N_A·t.
Scattering lengths enter only as ratios, so no absolute length or SI
time appears anywhere in the package.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass

from .errors import ConfigError

# 87Rb scattering lengths in Bohr radii near the 9.105 G resonance; the
# two tabulated fields differ only in the inter-species length.
SCATTERING_RATIOS = {
    "B9p116G": {"a11": 100.4, "a22": 95.5, "a12": 80.8},
    "B9p086G": {"a11": 100.4, "a22": 95.5, "a12": 107.8},
}
PRESET_TAGS = ("B9p116G", "B9p086G", "NoCrossCoupling")

STEPPERS = ("midpoint",)
LINEAR_LOSS_MODES = ("symmetric", "printed", "operators")
THETA_OBJECTIVES = ("product", "epr")


@dataclass(frozen=True)
class PhysicalCouplings:
    """Dimensionless nonlinear couplings g̃_ij and tunneling rates κ̃_i."""

    g11: float
    g12: float
    g22: float
    kappa1: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self):
        errs = []
        if not self.g11 > 0:
            errs.append("couplings.g11: must be > 0")
        for name in ("g12", "g22", "kappa1", "kappa2"):
            if getattr(self, name) < 0:
                errs.append(f"couplings.{name}: must be >= 0")
        if errs:
            raise ConfigError(errs)

    @property
    def tunneling(self) -> bool:
        return self.kappa1 != 0.0 or self.kappa2 != 0.0


@dataclass(frozen=True)
class LossRates:
    """Dimensionless loss rates; all zero reproduces unitary dynamics."""

    gamma1: float = 0.0
    gamma12: float = 0.0
    gamma22: float = 0.0

    def __post_init__(self):
        errs = [
            f"losses.{n}: must be >= 0"
            for n in ("gamma1", "gamma12", "gamma22")
            if getattr(self, n) < 0
        ]
        if errs:
            raise ConfigError(errs)

    @property
    def enabled(self) -> bool:
        return self.gamma1 != 0.0 or self.gamma12 != 0.0 or self.gamma22 != 0.0


@dataclass(frozen=True)
class InitialState:
    """Four-mode coherent state with N/2 mean atoms per internal mode."""

    N_A: float = 200.0
    N_B: float | None = None
    phase: float = 0.0

    def __post_init__(self):
        if self.N_B is None:
            object.__setattr__(self, "N_B", float(self.N_A))
        errs = []
        if not self.N_A > 0:
            errs.append("initial.N_A: must be > 0")
        if not self.N_B > 0:
            errs.append("initial.N_B: must be > 0")
        if errs:
            raise ConfigError(errs)

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


@dataclass(frozen=True)
class SweepParams:
    """tau grid plus measurement-angle options shared by all pipelines."""

    taus: tuple
    fixed_theta: float | None = None
    theta_objective: str = "product"


@dataclass(frozen=True)
class SimConfig:
    """Stochastic-engine parameters.

    `dtau` is an upper bound on the step; each output interval is split
    into ceil(interval/dtau) equal sub-steps so the output grid is hit
    exactly.  Trajectories are organized in chunks of `chunk_size`, each
    with its own counter-derived random stream, which makes results
    independent of worker count and lets half-ensembles merge exactly.
    """

    dtau: float = 1e-4
    n_traj: int = 10_000
    seed: int = 1234
    stepper: str = "midpoint"
    chunk_size: int = 500
    linear_loss_mode: str = "symmetric"


@dataclass(frozen=True)
class RunConfig:
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
_WIGNER_KEYS = {"dtau", "n_traj", "seed", "stepper", "chunk_size", "linear_loss_mode"}


def _num(sec, key, doc, default, errs, kind=float, minimum=None, strict=False):
    raw = doc.get(key, default)
    if raw is None:
        return None
    try:
        if isinstance(raw, bool):  # json true/false, which kind() reads as 1/0
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
    return v


def _check_keys(sec, doc, allowed, errs):
    for k in doc:
        if k not in allowed:
            errs.append(f"{sec}.{k}: unknown key (allowed: {sorted(allowed)})")


def validate_config(doc: dict | None = None) -> RunConfig:
    """Validate and normalize a configuration document.

    Collects every violation before raising, so one pass over the error
    list fixes the file.  Unknown keys are rejected.
    """
    doc = dict(doc or {})
    errs: list[str] = []
    _check_keys("config", doc, _TOP_KEYS, errs)

    initial_doc = dict(doc.get("initial") or {})
    _check_keys("initial", initial_doc, _INITIAL_KEYS, errs)
    n_a = _num("initial", "N_A", initial_doc, 200.0, errs, minimum=0.0, strict=True)
    n_b = _num("initial", "N_B", initial_doc, None, errs, minimum=0.0, strict=True)
    phase = _num("initial", "phase", initial_doc, 0.0, errs)

    preset_doc = doc.get("preset")
    coup_doc = doc.get("couplings")
    if preset_doc is not None and coup_doc is not None:
        errs.append("config: provide either 'preset' or 'couplings', not both")
        coup_doc = None
    couplings = None
    preset_tag = None
    if coup_doc is not None:
        coup_doc = dict(coup_doc)
        _check_keys("couplings", coup_doc, _COUPLING_KEYS, errs)
        if "kappa" in coup_doc and ("kappa1" in coup_doc or "kappa2" in coup_doc):
            errs.append("couplings: give either 'kappa' or 'kappa1'/'kappa2', not both")
        kappa = _num("couplings", "kappa", coup_doc, 0.0, errs, minimum=0.0)
        g11 = _num("couplings", "g11", coup_doc, None, errs, minimum=0.0, strict=True)
        if g11 is None:
            errs.append("couplings.g11: required when 'couplings' is given")
            g11 = 1.0
        g12 = _num("couplings", "g12", coup_doc, 0.0, errs, minimum=0.0)
        g22 = _num("couplings", "g22", coup_doc, g11, errs, minimum=0.0)
        k1 = _num("couplings", "kappa1", coup_doc, kappa, errs, minimum=0.0)
        k2 = _num("couplings", "kappa2", coup_doc, k1, errs, minimum=0.0)
        if not errs:
            couplings = PhysicalCouplings(g11, g12, g22, k1, k2)
    else:
        preset_doc = dict(preset_doc or {"tag": "B9p116G"})
        _check_keys("preset", preset_doc, _PRESET_KEYS, errs)
        preset_tag = preset_doc.get("tag", "B9p116G")
        if preset_tag not in PRESET_TAGS:
            errs.append(
                f"preset.tag: unknown tag {preset_tag!r}; expected one of {PRESET_TAGS}"
            )
        kappa = _num("preset", "kappa", preset_doc, 0.0, errs, minimum=0.0)
        if not errs:
            couplings = preset_couplings(preset_tag, n_a, kappa)

    loss_doc = dict(doc.get("losses") or {})
    _check_keys("losses", loss_doc, _LOSS_KEYS, errs)
    gamma1 = _num("losses", "gamma1", loss_doc, 0.0, errs, minimum=0.0)
    gamma12 = _num("losses", "gamma12", loss_doc, 0.0, errs, minimum=0.0)
    gamma22 = _num("losses", "gamma22", loss_doc, 0.0, errs, minimum=0.0)

    sweep_doc = dict(doc.get("sweep") or {})
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

    wig_doc = dict(doc.get("wigner") or {})
    _check_keys("wigner", wig_doc, _WIGNER_KEYS, errs)
    dtau = _num("wigner", "dtau", wig_doc, 1e-4, errs, minimum=0.0, strict=True)
    n_traj = _num("wigner", "n_traj", wig_doc, 10_000, errs, kind=int, minimum=2)
    seed = _num("wigner", "seed", wig_doc, 1234, errs, kind=int, minimum=0)
    chunk = _num("wigner", "chunk_size", wig_doc, 500, errs, kind=int, minimum=1)
    stepper = wig_doc.get("stepper", "midpoint")
    if stepper not in STEPPERS:
        errs.append(f"wigner.stepper: got {stepper!r}; expected one of {STEPPERS}")
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
    wigner = SimConfig(dtau, n_traj, seed, stepper, chunk, loss_mode)
    if initial.N_A < 50:
        warnings.warn(
            "truncated-Wigner accuracy degrades for N_A < 50 (corrections scale "
            "as 1/N^(3/2))",
            stacklevel=2,
        )

    sections = {
        "initial": initial,
        "losses": losses,
        "sweep": sweep,
        "wigner": wigner,
        "couplings": couplings,
    }
    document = {name: asdict(value) for name, value in sections.items()}
    # the config-file key, so the hash of an unchanged file stays put
    document["sweep"]["tau_grid"] = list(document["sweep"].pop("taus"))
    return RunConfig(couplings, losses, initial, sweep, wigner, document)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh))


def config_hash(cfg: RunConfig | dict) -> str:
    doc = cfg.document if isinstance(cfg, RunConfig) else cfg
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
