import dataclasses
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivbrn import (
    ActivityParams,
    PopulationConfig,
    QuadratureSpec,
    Scenario,
    ScenarioError,
    SimulationSpec,
    SurvivalParams,
    ViralLoadParams,
    load_scenario,
    parse_scenario,
)
from hivbrn.errors import RANGES, DomainError, check_range
from hivbrn.scenario import default_values


class TestDefaults:
    def test_empty_text_gives_baseline(self):
        scn = parse_scenario("")
        pop = scn.population
        assert pop.female.activity.annual_acts == 82.0
        assert pop.male.activity.annual_acts == 82.0
        assert pop.female.survival.median == 8.6
        assert pop.male.survival.median == 9.4
        assert pop.female.viral.peak_log_vl == 5.0
        assert pop.female.transmission.prob_at_peak == 0.008
        assert pop.omega == 40.0
        assert scn.quadrature.tol == 1e-6
        assert scn.simulation.act_process == "poisson_thinning"

    def test_none_path_gives_baseline(self):
        assert load_scenario(None).config_hash() == parse_scenario("").config_hash()

    def test_default_table_is_complete(self):
        values = default_values()
        assert set(values) == {
            "female", "male", "population", "quadrature", "simulation"
        }

    def test_baseline_is_the_library_defaults(self):
        scn = parse_scenario("")
        assert scn.quadrature == QuadratureSpec()
        assert scn.population.omega == PopulationConfig.omega
        assert scn.simulation.act_process == SimulationSpec.act_process


class TestSchema:
    """Each record's ``KEYS`` names the scenario key behind each field; the
    scenario builder and the range checks both read it."""

    RECORDS = {"viral": ViralLoadParams, "activity": ActivityParams, "survival": SurvivalParams}

    def test_keys_are_the_per_sex_keys(self):
        # in field order, so the first bad field is the one reported
        for cls in self.RECORDS.values():
            assert list(cls.KEYS) == [f.name for f in dataclasses.fields(cls)]
        keys = {key for cls in self.RECORDS.values() for key in cls.KEYS.values()}
        # the two anchors feed the link's closed form, not a record field
        assert not keys & {"ptr_hi", "ptr_lo"}
        values = default_values()
        assert keys | {"ptr_hi", "ptr_lo"} == set(values["female"]) == set(values["male"])

    def test_each_key_lands_on_its_field(self):
        # every per-sex key moved off its baseline by a distinct share, so a
        # value read from the wrong key lands on a field it does not match
        values = default_values()
        text = []
        for s, sex in enumerate(("female", "male")):
            scaled = {
                key: value * (1 + (1 + i + 20 * s) / 100)
                for i, (key, value) in enumerate(values[sex].items())
            }
            values[sex] = scaled
            text += [f"[{sex}]", *(f"{key} = {value!r}" for key, value in scaled.items())]
        per_sex = [*values["female"].values(), *values["male"].values()]
        assert len(set(per_sex)) == len(per_sex)
        pop = parse_scenario("\n".join(text)).population
        for prof in (pop.female, pop.male):
            v = values[prof.label]
            for attr, cls in self.RECORDS.items():
                record = getattr(prof, attr)
                assert {name: getattr(record, name) for name in cls.KEYS} == {
                    name: v[key] for name, key in cls.KEYS.items()
                }
            link = prof.transmission
            assert (link.prob_at_peak, link.prob_at_plateau) == (v["ptr_hi"], v["ptr_lo"])

    def test_every_ranged_model_key_is_per_sex(self):
        # the ages of the public kernels and the population's horizon are
        # the only ranges outside a sex section
        assert set(RANGES) - {"age", "omega"} == set(default_values()["female"])


class TestOverrides:
    def test_sex_sections(self):
        scn = parse_scenario(
            "[female]\ndelta = 208\nmedian = 9.0\n\n[male]\ndelta = 26\n"
        )
        assert scn.population.female.activity.annual_acts == 208.0
        assert scn.population.female.survival.median == 9.0
        assert scn.population.male.activity.annual_acts == 26.0
        # untouched keys keep their baselines
        assert scn.population.male.survival.median == 9.4

    def test_population_and_quadrature(self):
        # head counts 1 : 8 need act-balanced rates, 1 * 208 = 8 * 26
        scn = parse_scenario(
            "[female]\ndelta = 208\n[male]\ndelta = 26\n"
            "[population]\nomega = 50\npop_female = 1\npop_male = 8\n"
            "[quadrature]\ntol = 1e-8\nmax_refine = 6\n"
        )
        assert scn.population.omega == 50.0
        assert scn.population.pop_female == 1.0
        assert scn.quadrature.max_refine == 6
        assert scn.quadrature.tol == 1e-8

    def test_simulation_section(self):
        scn = parse_scenario(
            "[simulation]\nsamples = 5000\nseed = 42\nact_process = expected_value\n"
        )
        assert scn.simulation.samples == 5000
        assert scn.simulation.seed == 42
        assert scn.simulation.act_process == "expected_value"

    def test_replace_simulation(self):
        scn = parse_scenario("")
        other = scn.replace_simulation(seed=7, samples=12)
        assert other.simulation.seed == 7
        assert other.simulation.samples == 12
        assert other.config_hash() != scn.config_hash()
        with pytest.raises(ScenarioError):
            scn.replace_simulation(samples=0)

    def test_replace_simulation_is_the_scenario_key(self):
        # one construction path: the records and the hash of an override
        # are those of the same values written in the file
        other = parse_scenario("").replace_simulation(seed=7, samples=12)
        written = parse_scenario("[simulation]\nseed = 7\nsamples = 12\n")
        assert other == written
        assert other.config_hash() == written.config_hash()

    def test_frozen(self):
        scn = parse_scenario("")
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.simulation = scn.simulation


class TestRejection:
    def test_unknown_key_with_line(self):
        text = "[female]\ndelta = 208\nalpha9 = 3\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert "alpha9" in str(err.value)
        assert err.value.line == 3

    def test_unknown_section_with_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[female]\ndelta = 208\n\n[canine]\ndelta = 3\n")
        assert "canine" in str(err.value)
        assert err.value.line == 4

    def test_bad_number(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[female]\ndelta = lots\n")
        assert "delta" in str(err.value)
        assert err.value.line == 2

    @pytest.mark.parametrize("key", ["delta", "alpha2"])
    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_value_with_line(self, key, raw):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(f"[female]\nphi = 0.6\n{key} = {raw}\n")
        assert key in str(err.value)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "value, ok",
        [(5.0, True), (1e3, True), (1e-3, True), (1e3 * (1 + 1e-15), False),
         (0.0, False), (-1.0, False), (math.nan, False), (math.inf, False)],
    )
    def test_range_check_of_a_float_and_an_array(self, value, ok):
        # a float (np.float64 is one) takes the direct comparison, an array
        # np.all; every form gives the same verdict and message
        for form in (value, np.float64(value), np.array([5.0, value])):
            if ok:
                check_range(form, "tau1")
                continue
            with pytest.raises(DomainError) as err:
                check_range(form, "tau1", "terminal_lead")
            assert str(err.value) == "terminal_lead (tau1) must be in [0.001, 1000]"

    def test_bad_integer(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[quadrature]\nmax_refine = 2.5\n")
        assert "max_refine" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[female]\ndelta = 1\ndelta = 2\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[female] delta = 500\n", 1),
            ("[male]]x\n", 1),
            ("delta = 1\n[female]\n", 1),
            ("[female]\ndelta: 5\n", 2),
            ("[female]\ndelta = 1\ndelta = 2\n", 3),
            ("[female]\ndelta = 1\n[female]\n", 3),
        ],
        ids=["text_after_header", "bracket_after_header", "key_before_header",
             "colon_delimiter", "repeated_key", "repeated_section"],
    )
    def test_malformed_line_is_named(self, text, line):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        message = str(err.value)
        assert err.value.line == line
        assert message.startswith(f"line {line}: ")
        assert "\n" not in message
        assert "<string>" not in message

    def test_semantic_error_is_config_error(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[female]\nphi = 1.5\n")
        with pytest.raises(ScenarioError):
            parse_scenario("[population]\nomega = -4\n")
        with pytest.raises(ScenarioError):
            parse_scenario("[simulation]\nsamples = 0\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.ini")


class TestHash:
    def test_stable_across_formatting(self):
        a = parse_scenario("[female]\ndelta = 208\n")
        b = parse_scenario("\n# comment\n[female]\ndelta   =    208\n")
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize(
        "text",
        [
            "[female]\ndelta = 208;x\n",
            "[female]\ndelta = 208#x\n",
            "[female]# c\ndelta = 208\n",
            "  [female]\n    delta = 208\n",
            "[female]\ndelta = 208\n  [male]\n  median = 9.4\n",
        ],
        ids=["semicolon_after_value", "hash_after_value", "hash_after_header",
             "indented", "indented_after_key"],
    )
    def test_relaxed_lines_parse_as_written(self, text):
        written = parse_scenario("[female]\ndelta = 208\n")
        assert parse_scenario(text).config_hash() == written.config_hash()

    def test_line_ends_and_byte_order_mark(self, tmp_path):
        text = "# comment\n[female]\ndelta = 208\n[male]\ndelta = 26\n"
        expected = parse_scenario(text).config_hash()
        variants = {
            "lf": text.encode(),
            "crlf": text.replace("\n", "\r\n").encode(),
            "cr": text.replace("\n", "\r").encode(),
            "bom": b"\xef\xbb\xbf" + text.encode(),
        }
        for name, data in variants.items():
            path = tmp_path / f"{name}.ini"
            path.write_bytes(data)
            assert load_scenario(path).config_hash() == expected, name

    def test_sensitive_to_values(self):
        a = parse_scenario("[female]\ndelta = 208\n")
        b = parse_scenario("[female]\ndelta = 209\n")
        assert a.config_hash() != b.config_hash()


# fuzzed scenario text: known and unknown section and key names, extreme
# and non-finite numbers, huge integers and junk
_SECTIONS = sorted(default_values()) + ["DEFAULT", "canine"]
_JUNK = string.printable + "\u00e9\u0661\u00a0"
_VALUES = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "0.5", "2.5", "5", "40", "400", "1e-300", "1e300",
        "-1e300", "nan", "inf", "1e999", "expected_value", "",
    ]),
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.text(_JUNK, max_size=6),
)


def _section(name: str):
    keys = [*default_values().get(name, ["delta"]), "alpha9"]
    body = st.dictionaries(st.sampled_from(keys), _VALUES, max_size=3)
    return body.map(
        lambda kv: "\n".join([f"[{name}]", *(f"{k} = {v}" for k, v in kv.items())])
    )


_SECTION = st.one_of([_section(name) for name in _SECTIONS])
_TEXT = st.tuples(
    st.lists(_SECTION, max_size=3, unique_by=lambda sec: sec.partition("\n")[0]),
    st.one_of(st.just(""), st.text(_JUNK, max_size=10)),
).map(lambda parts: "\n".join([*parts[0], parts[1]]))


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(_TEXT)
def test_fuzzed_text_parses_or_is_rejected(text):
    # every text either resolves to a scenario or is a configuration error
    # (CLI exit 2): no overflow, warning or other exception escapes
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        assert "\n" not in str(exc)
        return
    assert isinstance(scenario, Scenario)
