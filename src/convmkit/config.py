"""Run configuration: a nested YAML file whose defaults are the published
training constants; every value can be overridden per run. A serialized copy
lands in each output directory so runs are self-describing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .da import DAConfig, SolverConfig
from .network import NetworkSpec, reference_spec, tiny_spec
from .synth import SynthParams


@dataclass
class RunConfig:
    network: str = "tiny"            # "tiny" | "reference" | path to a spec YAML
    num_classes: int = 10
    input_size: int = 32
    mode: str = "source_only"        # "source_only" | "da"
    data_dir: str | None = None      # dataset root (manifest.csv); None -> synthetic
    synth: SynthParams = field(default_factory=SynthParams)
    da: DAConfig = field(default_factory=DAConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    out_dir: str = "runs/out"

    def resolve_spec(self) -> NetworkSpec:
        if self.network == "tiny":
            return tiny_spec(self.num_classes, self.input_size)
        if self.network == "reference":
            return reference_spec(self.num_classes)
        with open(self.network) as f:
            return NetworkSpec.from_dict(yaml.safe_load(f))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["synth"]["shifts"] = list(self.synth.shifts)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build from a nested dict; an unknown key at the top level or in the
        ``synth``/``da``/``solver`` sections, or a ``da``/``solver`` value of
        the wrong type or range, is a ValueError naming it."""
        _check_keys(d, cls)
        for section, section_cls in (("synth", SynthParams), ("da", DAConfig),
                                     ("solver", SolverConfig)):
            _check_keys(d.get(section, {}), section_cls, section)
        d = dict(d)
        synth = d.pop("synth", {})
        if "shifts" in synth:
            synth["shifts"] = tuple(synth["shifts"])
        da = d.pop("da", {})
        solver = d.pop("solver", {})
        cfg = cls(synth=SynthParams(**synth), da=DAConfig(**da),
                  solver=SolverConfig(**solver), **d)
        cfg.da.validate()
        cfg.solver.validate()
        return cfg


def _check_keys(d: dict, cls, section: str = "") -> None:
    """A ValueError naming every key of ``d`` that is not a field of ``cls``."""
    where = f"section {section!r}" if section else "file"
    if not isinstance(d, dict):
        raise ValueError(f"config {where} must be a mapping, got {d!r}")
    prefix = f"{section}." if section else ""
    valid = [f.name for f in dataclasses.fields(cls)]
    unknown = [prefix + key for key in d if key not in valid]
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}; valid keys in the "
                         f"config {where} are {valid}")


def load_config(path) -> RunConfig:
    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    return RunConfig.from_dict(raw)


def save_config(cfg: RunConfig, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        yaml.safe_dump(cfg.to_dict(), f, sort_keys=False)
