"""Scenario files: INI-style parameter sets with embedded baseline defaults.

:func:`default_values` is the schema: a scenario may set only its sections
and keys, each parsed as the type of its baseline value (int, text, or a
finite float for a float or None).  Missing keys fall back to the baseline,
so an empty file (or no file at all) reproduces the baseline analysis
exactly.  Unknown sections (``[DEFAULT]`` included) or keys are rejected
with the offending line number.  ``#`` and ``;`` start comments.

Per-sex keys: ia1, M1, m, tau1, M2, alpha1, alpha2, alpha3 (viral-load
trajectory), ptr_hi, ptr_lo (transmission anchors), delta, phi (activity),
median, beta (survival).  Population keys: omega, pop_female, pop_male
(when both head counts are set, the contact rates must be act-balanced).
Quadrature keys: tol, max_refine.  Simulation keys: samples, seed,
act_process.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .behavior import ActivityParams
from .errors import DomainError, ScenarioError
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
    viral = ViralLoadParams(
        peak_time=v["ia1"],
        peak_log_vl=v["M1"],
        plateau_log_vl=v["m"],
        terminal_lead=v["tau1"],
        terminal_log_vl=v["M2"],
        rise_shape=v["alpha1"],
        warp_rate=v["alpha2"],
        terminal_width=v["alpha3"],
    )
    transmission = TransmissionParams.from_anchors(
        v["ptr_hi"], v["ptr_lo"], v["M1"], v["m"]
    )
    activity = ActivityParams(
        annual_acts=v["delta"],
        residual_fraction=v["phi"],
        terminal_lead=v["tau1"],
    )
    return SexProfile(
        label=label,
        viral=viral,
        transmission=transmission,
        activity=activity,
        survival=SurvivalParams(median=v["median"], shape=v["beta"]),
    )


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
    except OverflowError as exc:
        raise ScenarioError("scenario values overflow double precision") from exc


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    """1-based line of a section header, or of a key within that section."""
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        header = re.match(r"\s*\[([^\]]+)\]", line)
        if header:
            if key is None and header.group(1) == section:
                return lineno
            in_section = header.group(1) == section
            continue
        if key is not None and in_section:
            if re.match(rf"\s*{re.escape(key)}\s*=", line):
                return lineno
    return None


def _convert(section: str, key: str, raw: str, baseline, line: int | None):
    if isinstance(baseline, str):
        return raw.strip()
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
    # no header can name a section containing a newline, so [DEFAULT] is an
    # ordinary, and unknown, section instead of defaults for every section
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#", ";"), default_section="\n",
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ScenarioError(str(exc), line) from exc

    values = default_values()
    for section in parser.sections():
        if section not in values:
            raise ScenarioError(
                f"unknown section [{section}]", _line_of(text, section)
            )
        for key, raw in parser.items(section):
            line = _line_of(text, section, key)
            if key not in values[section]:
                raise ScenarioError(
                    f"unknown key {key!r} in [{section}]", line
                )
            baseline = values[section][key]
            values[section][key] = _convert(section, key, raw, baseline, line)

    return _resolve(values)


def load_scenario(path: str | Path | None) -> Scenario:
    """Read and parse a scenario file; None gives the pure baseline."""
    if path is None:
        return parse_scenario("")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)
