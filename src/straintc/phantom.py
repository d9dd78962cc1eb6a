"""Synthetic creep-strain phantom: a 2-D plane through a cylindrical sample
with a circular inclusion, each region following a single-exponential creep
curve.

Every pixel p carries parameters (eta_p, gamma_p, tau_p) and evolves as

    cumulative strain   s_p(t) = eta_p + gamma_p * exp(-t / tau_p)
    incremental strain  x_p[n] = -(gamma_p / tau_p) * exp(-n*T_s / tau_p) * T_s

for frames n = 1..N at sample time T_s.  The trailing T_s factor turns the
strain rate into a per-interval increment so the running sum of increments
approximates s(t) - s(0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, astuple, dataclass, fields, replace

import numpy as np


@dataclass(frozen=True)
class RegionParams:
    """Material and creep-curve parameters for one phantom region.

    young_modulus is in kPa, tau in seconds; eta and gamma are dimensionless
    strain (gamma is negative for a rising creep curve).
    """

    young_modulus: float
    poisson_ratio: float
    tau: float
    eta: float
    gamma: float

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError(f"region parameters must be finite, got {self}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0 < self.poisson_ratio < 0.5:
            raise ValueError(f"poisson_ratio must lie in (0, 0.5), got {self.poisson_ratio}")
        if not self.young_modulus > 0:
            raise ValueError(f"young_modulus must be positive, got {self.young_modulus}")
        if self.eta + self.gamma < 0:
            raise ValueError("eta + gamma must be non-negative (strain magnitude at t=0)")


def _default_region(settings, young_modulus, poisson_ratio, tau, eta=None, gamma=None):
    """Region with eta/gamma defaulted from the small-strain elastic estimate
    eta = stress/E and gamma = -eta/2 unless given explicitly; the stress is
    the applied_stress_kpa of settings (PhantomSpec keyword values) or the
    spec's default."""
    if eta is None:
        if not young_modulus > 0:
            raise ValueError(f"young_modulus must be positive, got {young_modulus}")
        eta = settings.get("applied_stress_kpa", PhantomSpec.applied_stress_kpa) / young_modulus
    if gamma is None:
        gamma = -0.5 * eta
    return RegionParams(young_modulus, poisson_ratio, tau, eta, gamma)


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry, timing and per-region parameters of the synthetic phantom.

    Defaults: a 4 cm x 4 cm imaging plane on a 128x128 grid, a centered
    0.75 cm inclusion, 300 frames at 0.5 s under a 1 kPa applied stress.
    """

    inclusion: RegionParams
    background: RegionParams
    width_px: int = 128
    height_px: int = 128
    field_width_m: float = 0.04
    field_height_m: float = 0.04
    inclusion_center: tuple[float, float] = (0.02, 0.02)
    inclusion_radius_m: float = 0.0075
    n_frames: int = 300
    sample_time_s: float = 0.5
    applied_stress_kpa: float = 1.0

    def __post_init__(self):
        floats = (self.field_width_m, self.field_height_m, *self.inclusion_center,
                  self.inclusion_radius_m, self.sample_time_s, self.applied_stress_kpa)
        if not all(map(math.isfinite, floats)):
            raise ValueError("geometry, timing and stress must be finite")
        for name in ("width_px", "height_px", "n_frames"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError("pixel dimensions must be positive")
        if self.n_frames < 3:
            raise ValueError(f"n_frames must be >= 3, got {self.n_frames}")
        if not self.sample_time_s > 0:
            raise ValueError("sample_time_s must be positive")
        if self.inclusion_radius_m < 0:
            raise ValueError("inclusion_radius_m must be non-negative")
        cx, cy = self.inclusion_center
        r = self.inclusion_radius_m
        if (cx - r < 0 or cx + r > self.field_width_m
                or cy - r < 0 or cy + r > self.field_height_m):
            raise ValueError("inclusion circle must lie fully inside the field")


# Per-region (E kPa, nu, tau s) for the three built-in samples; background is
# normal tissue, inclusion is the stiffer tumor region.
_PRESETS = {
    "A": ((49.17, 0.45, 4.66), (32.78, 0.47, 11.42)),
    "B": ((97.02, 0.45, 2.36), (32.78, 0.47, 11.42)),
    "C": ((63.90, 0.47, 2.26), (32.78, 0.49, 3.08)),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name, **overrides) -> PhantomSpec:
    """Build one of the named sample presets, named exactly as in
    PRESET_NAMES ("A", "B" or "C").

    Keyword overrides are applied on top of the preset (e.g. width_px=32 for
    a reduced-resolution phantom).
    """
    try:
        inc, bg = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}") from None
    spec = PhantomSpec(inclusion=_default_region(overrides, *inc),
                       background=_default_region(overrides, *bg))
    return replace(spec, **overrides) if overrides else spec


class InputError(ValueError):
    """An input a stage cannot take: a malformed file, or a stack, mask or
    map that does not fit the stage."""


@dataclass
class StrainStack:
    """N temporal frames of H x W strain with uniform sampling time.

    kind is "incremental" (per-interval strain increments) or "cumulative"
    (running strain relative to the pre-compression state).  Frame index i
    (0-based) holds the sample at time (i + 1) * sample_time_s.
    """

    frames: np.ndarray
    sample_time_s: float
    kind: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be N x H x W, got shape {self.frames.shape}")
        if 0 in self.frames.shape:
            raise ValueError("empty stack ({} frames of {} x {})".format(*self.frames.shape))
        if self.kind not in ("incremental", "cumulative"):
            raise ValueError(f"kind must be 'incremental' or 'cumulative', got {self.kind!r}")
        if not self.sample_time_s > 0:
            raise ValueError("sample_time_s must be positive")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("strain values must be finite")

    @property
    def n_frames(self):
        return self.frames.shape[0]


def frame_times(n_frames, sample_time_s) -> np.ndarray:
    """Acquisition times (n * T_s for n = 1..N) of the stored frames."""
    return np.arange(1, n_frames + 1, dtype=np.float64) * sample_time_s


def inclusion_mask(spec: PhantomSpec) -> np.ndarray:
    """Boolean H x W mask of pixels whose centers fall strictly inside the
    inclusion circle (hard boundary, no blending)."""
    dx = spec.field_width_m / spec.width_px
    dy = spec.field_height_m / spec.height_px
    xs = (np.arange(spec.width_px) + 0.5) * dx
    ys = (np.arange(spec.height_px) + 0.5) * dy
    cx, cy = spec.inclusion_center
    d2 = (ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2
    return d2 < spec.inclusion_radius_m ** 2


def param_maps(spec: PhantomSpec):
    """Per-pixel (eta, gamma, tau) maps, each H x W."""
    inside = inclusion_mask(spec)
    inc, bg = spec.inclusion, spec.background
    eta = np.where(inside, inc.eta, bg.eta)
    gamma = np.where(inside, inc.gamma, bg.gamma)
    tau = np.where(inside, inc.tau, bg.tau)
    return eta, gamma, tau


def tau_map(spec: PhantomSpec) -> np.ndarray:
    """Ground-truth H x W map of the strain time constant in seconds."""
    return param_maps(spec)[2]


def _incremental_blocks(spec: PhantomSpec):
    """The clean incremental stack as a map on blocks of it:
    block(pixels, frames=slice(None)) returns the (frames, pixels) block of
    the (n_frames, height * width) frames, a new array.  Every value is
    formed on its own, so any block has the bits of the same entries of
    synth_incremental(spec)."""
    _, gamma, tau = (m.reshape(-1) for m in param_maps(spec))
    t = frame_times(spec.n_frames, spec.sample_time_s)

    def block(pixels, frames=slice(None)):
        g, ta = gamma[pixels], tau[pixels]
        # the arithmetic of -(gamma / tau) * exp(-t / tau) * T_s, built in
        # place in the one output array
        out = np.divide(-t[frames, None], ta[None])
        np.exp(out, out=out)
        out *= -(g / ta)
        out *= spec.sample_time_s
        return out

    return block


def synth_incremental(spec: PhantomSpec) -> StrainStack:
    """Clean incremental strain stack.

    Frame n holds -(gamma/tau) * exp(-n*T_s/tau) * T_s per pixel, i.e. the
    creep strain rate at t = n*T_s times the frame interval.
    """
    frames = _incremental_blocks(spec)(slice(None))
    return StrainStack(frames.reshape(spec.n_frames, spec.height_px, spec.width_px),
                       spec.sample_time_s, "incremental")


def synth_cumulative(spec: PhantomSpec) -> StrainStack:
    """Clean cumulative strain stack, evaluated in closed form.

    Frame n holds eta + gamma * exp(-n*T_s/tau) per pixel; this is the
    fitting ground truth, not a running sum of increments.
    """
    eta, gamma, tau = param_maps(spec)
    t = frame_times(spec.n_frames, spec.sample_time_s)
    frames = eta[None] + gamma[None] * np.exp(-t[:, None, None] / tau[None])
    return StrainStack(frames, spec.sample_time_s, "cumulative")


# ---------------------------------------------------------------------------
# phantom configs: entries mapping a key to its value, which stackio reads
# and writes as "key = value" files.  The keys are the PhantomSpec field
# names, each parsed as the type of its default; the regions (the fields
# without a default) take one dotted key per RegionParams field
# (inclusion.tau = 4.66), of which eta/gamma may be omitted and default from
# the applied stress.  inclusion_center is two comma-separated meters.

def spec_from_entries(entries: dict) -> PhantomSpec:
    """The PhantomSpec of config entries; a key or value the spec cannot
    take raises ValueError."""
    entries = dict(entries)
    if "preset" in entries:
        name = entries.pop("preset")
        if entries:
            raise ValueError("a preset config must not set other keys; use CLI overrides")
        return preset(name)

    kwargs, regions = {}, {}
    for field in fields(PhantomSpec):
        name, default = field.name, field.default
        if default is MISSING:
            regions[name] = {f.name: float(entries.pop(f"{name}.{f.name}"))
                             for f in fields(RegionParams) if f"{name}.{f.name}" in entries}
        elif name in entries:
            text = entries.pop(name)
            if isinstance(default, tuple):
                parts = text.split(",")
                if len(parts) != len(default):
                    raise ValueError(f"{name} must be {len(default)} comma-separated numbers")
                kwargs[name] = tuple(map(float, parts))
            else:
                kwargs[name] = type(default)(text)

    for name, given in regions.items():
        missing = {f.name for f in fields(RegionParams)} - {"eta", "gamma"} - set(given)
        if missing:
            raise ValueError(f"config missing {name} keys: {sorted(missing)}")
        regions[name] = _default_region(kwargs, **given)

    if entries:
        raise ValueError(f"unknown config keys: {sorted(entries)}")
    return PhantomSpec(**regions, **kwargs)


def spec_entries(spec: PhantomSpec) -> dict:
    """Config entries of a PhantomSpec, which spec_from_entries maps back to it."""
    entries = {}
    for name, value in asdict(spec).items():
        if isinstance(value, dict):
            entries.update((f"{name}.{rkey}", rvalue) for rkey, rvalue in value.items())
        elif isinstance(value, tuple):
            entries[name] = ", ".join(map(repr, value))
        else:
            entries[name] = value
    return entries
