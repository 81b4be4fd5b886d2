"""Device and workload model.

Compute units, per-kernel benchmark times, DNN layer specs, device profiles,
and workload mixes, plus a seeded synthetic profile generator that stands in
for on-board benchmarking. Layer cost on a unit is the sum of its kernel
times on that unit; `DeviceProfile.layer_costs` holds every layer cost of a
profile, computed once, and `DeviceProfile.cost_array` the same table as a
zero-padded numpy array.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ProfileError

OP_KINDS = ("conv", "pool", "fc", "act")


class UnitKind(Enum):
    GPU = "gpu"
    BIG = "big"
    LITTLE = "little"


@dataclass(frozen=True)
class ComputeUnit:
    id: int
    name: str
    kind: UnitKind


@dataclass(frozen=True)
class KernelProfile:
    """One kernel of a layer with its measured time on every unit."""

    name: str
    time_ms: dict[int, float]

    def __post_init__(self):
        for unit, t in self.time_ms.items():
            if not (math.isfinite(t) and t > 0):
                raise ProfileError(
                    f"kernel {self.name!r}: time {t} on unit {unit} is not finite and > 0"
                )


@dataclass(frozen=True)
class LayerFeatures:
    """Shape descriptors used only by the linear-regression baseline."""

    op_kind: str
    in_elems: int
    out_elems: int
    macs: int

    def __post_init__(self):
        if min(self.in_elems, self.out_elems, self.macs) < 1:
            raise ProfileError(f"layer feature counts must be >= 1, got {self}")


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kernels: tuple[KernelProfile, ...]
    features: LayerFeatures

    def __post_init__(self):
        if not self.kernels:
            raise ProfileError(f"layer {self.name!r} has no kernels")


@dataclass(frozen=True)
class DnnModel:
    name: str
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ProfileError(f"model {self.name!r} has no layers")

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class DeviceProfile:
    """The benchmark database: units, models, and the per-boundary transfer cost."""

    units: tuple[ComputeUnit, ...]
    models: tuple[DnnModel, ...]
    transfer_ms: float = 0.5

    @property
    def num_units(self) -> int:
        return len(self.units)

    @property
    def max_layers(self) -> int:
        """Padding width: the largest layer count across models."""
        return max(m.num_layers for m in self.models)

    @cached_property
    def layer_costs(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """layer_costs[m][u][l]: `layer_cost` of model m's layer l on unit u.

        Built on first use and kept; every stage cost, the regression targets
        and the embedding read this table instead of the kernel dicts.
        """
        return tuple(
            tuple(
                tuple(layer_cost(layer, u) for layer in model.layers)
                for u in range(self.num_units)
            )
            for model in self.models
        )

    @cached_property
    def cost_array(self) -> np.ndarray:
        """`layer_costs` as a read-only (models, units, max_layers) float64
        array, zero-padded on the right for models with fewer layers."""
        data = np.zeros((len(self.models), self.num_units, self.max_layers))
        for m, rows in enumerate(self.layer_costs):
            data[m, :, : len(rows[0])] = rows
        data.flags.writeable = False
        return data

    def gpu_unit(self) -> ComputeUnit:
        gpus = [u for u in self.units if u.kind is UnitKind.GPU]
        if not gpus:
            raise ProfileError("profile has no GPU unit")
        return gpus[0]

    def model_index(self, name: str) -> int:
        for i, m in enumerate(self.models):
            if m.name == name:
                return i
        raise ProfileError(f"profile has no model named {name!r}")

    def validate(self) -> None:
        """Check cross-type invariants; raises ProfileError on the first violation."""
        if not self.models:
            raise ProfileError("profile has no models")
        ids = [u.id for u in self.units]
        if ids != list(range(len(ids))):
            raise ProfileError(f"unit ids must be contiguous from 0, got {ids}")
        if sum(1 for u in self.units if u.kind is UnitKind.GPU) != 1:
            raise ProfileError("profile must have exactly one GPU unit")
        if self.transfer_ms < 0:
            raise ProfileError(f"negative transfer_ms {self.transfer_ms}")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ProfileError(f"duplicate model names in profile: {names}")
        for model in self.models:
            for layer in model.layers:
                for kernel in layer.kernels:
                    if set(kernel.time_ms) != set(ids):
                        raise ProfileError(
                            f"kernel {kernel.name!r} in {model.name}/{layer.name} "
                            f"does not cover all units {ids}"
                        )


@dataclass(frozen=True)
class Workload:
    """An ordered mix of distinct models, by index into the profile's model list."""

    model_indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.model_indices)) != len(self.model_indices):
            raise ValueError(f"workload models must be distinct: {self.model_indices}")
        if any(i < 0 for i in self.model_indices):
            raise ValueError(f"negative model index in {self.model_indices}")

    def __len__(self) -> int:
        return len(self.model_indices)

    def validate_for(self, profile: DeviceProfile) -> None:
        for i in self.model_indices:
            if i >= len(profile.models):
                raise ValueError(f"model index {i} out of range for profile")


def workload_from_names(profile: DeviceProfile, names: list[str]) -> Workload:
    return Workload(tuple(profile.model_index(n) for n in names))


def layer_cost(layer: LayerSpec, unit: int) -> float:
    """Execution time of a layer on a unit: the sum of its kernel times there."""
    total = 0.0
    for kernel in layer.kernels:
        try:
            total += kernel.time_ms[unit]
        except KeyError:
            raise ProfileError(
                f"kernel {kernel.name!r} has no time for unit {unit}"
            ) from None
    return total


# ---------------------------------------------------------------------------
# Synthetic profile generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic benchmark generator.

    unit_factors are cost multipliers per unit (GPU, big CPU, LITTLE CPU);
    jitter is a per-(layer, unit) affinity factor so that no unit dominates
    on every layer.
    """

    unit_factors: tuple[float, float, float] = (1.0, 3.0, 8.0)
    layer_range: tuple[int, int] = (5, 30)
    base_ms_range: tuple[float, float] = (0.5, 6.0)
    kernels_range: tuple[int, int] = (1, 4)
    jitter_range: tuple[float, float] = (0.7, 1.3)
    transfer_ms: float = 0.5

    def __post_init__(self):
        for name in ("layer_range", "kernels_range", "base_ms_range", "jitter_range"):
            lo, hi = value = getattr(self, name)
            if name in ("layer_range", "kernels_range"):
                rule = "integers with 1 <= lo <= hi"
                ok = isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi
            else:
                rule = "finite, with 0 < lo <= hi"
                ok = math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi
            if not ok:
                raise ValueError(f"GeneratorConfig.{name} must be {rule}, got {value!r}")
        if not (math.isfinite(self.transfer_ms) and self.transfer_ms >= 0):
            raise ValueError(
                f"GeneratorConfig.transfer_ms must be finite and >= 0, got {self.transfer_ms!r}")


_UNIT_NAMES = ("gpu", "big-cpu", "little-cpu")
_UNIT_KINDS = (UnitKind.GPU, UnitKind.BIG, UnitKind.LITTLE)


def generate_profile(
    num_models: int, seed: int, config: GeneratorConfig | None = None
) -> DeviceProfile:
    """Build a deterministic synthetic DeviceProfile.

    Every layer's time on unit u is base * unit_factors[u] * jitter(layer, u),
    split across 1..4 kernels. Identical (num_models, seed, config) always
    yields an identical profile.
    """
    if num_models < 1:
        raise ValueError(f"num_models must be >= 1, got {num_models}")
    cfg = config or GeneratorConfig()
    rng = random.Random(seed)

    units = tuple(
        ComputeUnit(id=i, name=_UNIT_NAMES[i], kind=_UNIT_KINDS[i])
        for i in range(len(cfg.unit_factors))
    )

    models = []
    for mi in range(num_models):
        n_layers = rng.randint(*cfg.layer_range)
        layers = []
        for li in range(n_layers):
            base = rng.uniform(*cfg.base_ms_range)
            unit_times = [
                base * cfg.unit_factors[u.id] * rng.uniform(*cfg.jitter_range)
                for u in units
            ]
            n_kernels = rng.randint(*cfg.kernels_range)
            shares = [rng.uniform(0.2, 1.0) for _ in range(n_kernels)]
            total_share = sum(shares)
            kernels = tuple(
                KernelProfile(
                    name=f"l{li:02d}k{ki}",
                    time_ms={
                        u.id: unit_times[u.id] * shares[ki] / total_share
                        for u in units
                    },
                )
                for ki in range(n_kernels)
            )
            features = LayerFeatures(
                op_kind=rng.choice(OP_KINDS),
                in_elems=max(1, round(base * 5e4 * rng.uniform(0.8, 1.2))),
                out_elems=max(1, round(base * 4e4 * rng.uniform(0.8, 1.2))),
                macs=max(1, round(base * 2e6 * rng.uniform(0.85, 1.15))),
            )
            layers.append(
                LayerSpec(name=f"layer{li:02d}", kernels=kernels, features=features)
            )
        models.append(DnnModel(name=f"net{mi:02d}", layers=tuple(layers)))

    profile = DeviceProfile(
        units=units, models=tuple(models), transfer_ms=cfg.transfer_ms
    )
    profile.validate()
    return profile


# ---------------------------------------------------------------------------
# JSON serialization (strict schema, unknown keys rejected)
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_NUMBER = (int, float)
_TYPE_NAMES = {
    list: "a list", dict: "an object", str: "a string", int: "an integer", _NUMBER: "a number"
}


def _typed(value, kind, ctx: str, error: type[ValueError] = ProfileError):
    """Return `value` if it is a JSON value of type `kind` (a bool is not a
    number here), else raise `error`."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{ctx}: expected {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _float(value, ctx: str, error: type[ValueError] = ProfileError) -> float:
    """A JSON number as a float, else raise `error`: NaN, infinities and ints
    too large for a float are refused."""
    try:
        x = float(_typed(value, _NUMBER, ctx, error))
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise error(f"{ctx}: expected a finite number, got {value}")
    return x


def _check_keys(
    obj: dict, allowed: tuple[str, ...], ctx: str, error: type[ValueError] = ProfileError
) -> None:
    """Require `obj` to be a JSON object with exactly the keys `allowed`.

    Shared by every JSON loader; each raises its own typed `error`.
    """
    if not isinstance(obj, dict):
        raise error(f"{ctx}: expected an object, got {type(obj).__name__}")
    extra = set(obj) - set(allowed)
    if extra:
        raise error(f"{ctx}: unknown keys {sorted(extra)}")
    missing = set(allowed) - set(obj)
    if missing:
        raise error(f"{ctx}: missing keys {sorted(missing)}")


def profile_to_dict(profile: DeviceProfile) -> dict:
    return {
        "units": [
            {"id": u.id, "name": u.name, "kind": u.kind.value} for u in profile.units
        ],
        "transfer_ms": profile.transfer_ms,
        "models": [
            {
                "name": m.name,
                "layers": [
                    {
                        "name": layer.name,
                        "kernels": [
                            {
                                "name": k.name,
                                "time_ms": {
                                    str(uid): t for uid, t in sorted(k.time_ms.items())
                                },
                            }
                            for k in layer.kernels
                        ],
                        "features": {
                            "op_kind": layer.features.op_kind,
                            "in_elems": layer.features.in_elems,
                            "out_elems": layer.features.out_elems,
                            "macs": layer.features.macs,
                        },
                    }
                    for layer in m.layers
                ],
            }
            for m in profile.models
        ],
    }


def profile_from_dict(data: dict) -> DeviceProfile:
    _check_keys(data, ("units", "transfer_ms", "models"), "profile")
    units = []
    for i, ud in enumerate(_typed(data["units"], list, "units")):
        ctx = f"units[{i}]"
        _check_keys(ud, ("id", "name", "kind"), ctx)
        try:
            kind = UnitKind(ud["kind"])
        except ValueError:
            raise ProfileError(f"{ctx}: unknown kind {ud['kind']!r}") from None
        units.append(ComputeUnit(
            id=_typed(ud["id"], int, f"{ctx}.id"),
            name=_typed(ud["name"], str, f"{ctx}.name"),
            kind=kind,
        ))
    unit_ids = {str(u.id): u.id for u in units}  # the keys save_profile writes

    models = []
    for mi, md in enumerate(_typed(data["models"], list, "models")):
        _check_keys(md, ("name", "layers"), f"models[{mi}]")
        layers = []
        for li, ld in enumerate(_typed(md["layers"], list, f"models[{mi}].layers")):
            ctx = f"models[{mi}].layers[{li}]"
            _check_keys(ld, ("name", "kernels", "features"), ctx)
            kernels = []
            for ki, kd in enumerate(_typed(ld["kernels"], list, f"{ctx}.kernels")):
                kctx = f"{ctx}.kernels[{ki}]"
                _check_keys(kd, ("name", "time_ms"), kctx)
                times = {}
                for key, value in _typed(kd["time_ms"], dict, f"{kctx}.time_ms").items():
                    if key not in unit_ids:
                        raise ProfileError(f"{kctx}: unknown unit id {key!r}")
                    times[unit_ids[key]] = _float(value, f"{kctx}.time_ms[{key!r}]")
                kernels.append(
                    KernelProfile(name=_typed(kd["name"], str, f"{kctx}.name"), time_ms=times)
                )
            fd = ld["features"]
            fctx = f"{ctx}.features"
            _check_keys(fd, ("op_kind", "in_elems", "out_elems", "macs"), fctx)
            features = LayerFeatures(
                _typed(fd["op_kind"], str, f"{fctx}.op_kind"),
                *(_typed(fd[k], int, f"{fctx}.{k}") for k in ("in_elems", "out_elems", "macs")),
            )
            layers.append(LayerSpec(
                name=_typed(ld["name"], str, f"{ctx}.name"),
                kernels=tuple(kernels),
                features=features,
            ))
        models.append(DnnModel(
            name=_typed(md["name"], str, f"models[{mi}].name"), layers=tuple(layers)
        ))

    profile = DeviceProfile(
        units=tuple(units),
        models=tuple(models),
        transfer_ms=_float(data["transfer_ms"], "transfer_ms"),
    )
    profile.validate()
    return profile


def save_profile(profile: DeviceProfile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(profile_to_dict(profile), indent=2) + "\n")


def load_profile(path: str | Path) -> DeviceProfile:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"profile file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ProfileError(f"{p}: invalid JSON ({e})") from None
    return profile_from_dict(data)
