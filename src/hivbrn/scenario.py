"""Scenario files: INI-style parameter sets with embedded baseline defaults.

:func:`default_values` is the schema: a scenario may set only its sections
and keys, each parsed as the type of its baseline value (int, text, or a
finite float for a float or None), and a physical parameter must lie in its
range in :data:`hivbrn.errors.RANGES`.  Missing keys fall back to the baseline,
so an empty file (or no file at all) reproduces the baseline analysis
exactly.  ``#`` or ``;`` anywhere starts a comment that runs to the end of
the line; what is left of a line, with its indentation ignored, is blank, a
``[section]`` header alone on its line, or ``key = value`` split at the
first ``=``.  There are no continuation lines.  Any other line, an unknown
section (``[DEFAULT]`` included) or key, a repeated section or key and a
value of the wrong type are rejected with the offending line number.

Per-sex keys: ia1, M1, m, tau1, M2, alpha1, alpha2, alpha3 (viral-load
trajectory), ptr_hi, ptr_lo (transmission anchors), delta, phi (activity),
median, beta (survival).  Population keys: omega, pop_female, pop_male
(when both head counts are set, the contact rates must be act-balanced).
Quadrature keys: tol, max_refine.  Simulation keys: samples, seed,
act_process.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .behavior import ActivityParams
from .errors import RANGES, DomainError, ScenarioError, check_range
from .mc_oracle import SimulationSpec
from .natural_history import TransmissionParams, ViralLoadParams
from .reproduction import PopulationConfig, QuadratureSpec, SexProfile
from .survival import SurvivalParams

__all__ = [
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "default_values",
    "baseline_population",
]


def default_values() -> dict[str, dict]:
    """Fully resolved baseline scenario values, by section: the schema."""
    sex = dict(
        ia1=0.4, M1=5.0, m=3.0, tau1=1.0, M2=4.8,
        alpha1=1.3, alpha2=0.2, alpha3=0.7,
        ptr_hi=0.008, ptr_lo=0.001,
        delta=82.0, phi=0.61, beta=2.5,
    )
    return {
        "female": dict(sex, median=8.6),
        "male": dict(sex, median=9.4),
        "population": dict(
            omega=PopulationConfig.omega, pop_female=None, pop_male=None
        ),
        "quadrature": asdict(QuadratureSpec()),
        "simulation": dict(
            samples=100_000, seed=20260810, act_process=SimulationSpec.act_process
        ),
    }


def _build_profile(label: str, v: dict) -> SexProfile:
    def record(cls):
        return cls(**{name: v[key] for name, key in cls.KEYS.items()})

    # in the profile's field order, so the viral-load checks come first
    records = (ViralLoadParams, TransmissionParams, ActivityParams, SurvivalParams)
    return SexProfile(label, *map(record, records))


def baseline_population() -> PopulationConfig:
    """The built-in baseline two-sex configuration."""
    return parse_scenario("").population


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario ready to run, built only by :func:`_resolve`."""

    population: PopulationConfig
    quadrature: QuadratureSpec
    simulation: SimulationSpec
    resolved: dict

    def config_hash(self) -> str:
        lines = []
        for section in sorted(self.resolved):
            for key in sorted(self.resolved[section]):
                lines.append(f"{section}.{key}={self.resolved[section][key]!r}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def replace_simulation(self, **changes) -> "Scenario":
        """New scenario with simulation fields overridden (seed, samples, ...)."""
        values = {section: dict(keys) for section, keys in self.resolved.items()}
        values["simulation"].update(changes)
        return _resolve(values)


def _resolve(values: dict[str, dict]) -> Scenario:
    """Build a scenario from resolved values; a rejected value is a ScenarioError."""
    try:
        female = _build_profile("female", values["female"])
        male = _build_profile("male", values["male"])
        return Scenario(
            PopulationConfig(female, male, **values["population"]),
            QuadratureSpec(**values["quadrature"]),
            SimulationSpec(**values["simulation"]),
            values,
        )
    except DomainError as exc:
        raise ScenarioError(str(exc)) from exc


def _convert(section: str, key: str, raw: str, baseline, line: int):
    if isinstance(baseline, str):
        return raw
    try:
        if isinstance(baseline, int):
            return int(raw)
        value = float(raw)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    kind = "an integer" if isinstance(baseline, int) else "a finite number"
    raise ScenarioError(f"value {raw!r} for {key!r} in [{section}] is not {kind}", line)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, merge with baseline defaults, and validate."""
    values = default_values()
    seen = set()
    section = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        for mark in "#;":
            line = line.partition(mark)[0]
        line = line.strip()
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(
                    f"a [section] header must fill its line: {line!r}", lineno
                )
            section = line[1:-1]
            if section not in values:
                raise ScenarioError(f"unknown section [{section}]", lineno)
            if section in seen:
                raise ScenarioError(f"repeated section [{section}]", lineno)
            seen.add(section)
        elif line:
            key, equals, raw = line.partition("=")
            key = key.strip()
            if not equals:
                raise ScenarioError(
                    f"expected a [section] header or key = value: {line!r}", lineno
                )
            if section is None:
                raise ScenarioError(f"key {key!r} before any [section] header", lineno)
            if key not in values[section]:
                raise ScenarioError(f"unknown key {key!r} in [{section}]", lineno)
            if (section, key) in seen:
                raise ScenarioError(f"repeated key {key!r} in [{section}]", lineno)
            seen.add((section, key))
            value = _convert(section, key, raw.strip(), values[section][key], lineno)
            if key in RANGES:
                try:
                    check_range(value, key)
                except DomainError as exc:
                    raise ScenarioError(f"[{section}] {exc}", lineno) from exc
            values[section][key] = value

    return _resolve(values)


def load_scenario(path: str | Path | None) -> Scenario:
    """Read and parse a UTF-8 scenario file, skipping a byte-order mark;
    None gives the pure baseline."""
    if path is None:
        return parse_scenario("")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)
