"""Sweep machinery, config files, presets and the command-line interface."""

import math
import os
import re
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import plcsec
import plcsec.sweep as sweep_mod
from plcsec import (
    ConfigError,
    EvaluationError,
    LinkParams,
    McConfig,
    PinholeTopology,
    ScenarioParams,
    SweepSpec,
    asc_asymptotic,
    asc_asymptotic_large_n,
    asc_quadrature,
    available_presets,
    dump_config,
    get_preset,
    load_config,
    loads_config,
    mc_asc,
    mc_poi,
    poi_closed_form,
    poi_quadrature,
    rows_to_csv,
    run_sweep,
)
from plcsec.cli import main
from plcsec.config import spec_to_dict

TINY_MC = McConfig(samples=10_000, seed=5, workers=1)


def src_env():
    """The environment with this checkout's plcsec first on the path."""
    src = str(Path(plcsec.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def small_spec(**overrides):
    kwargs = dict(
        metric="asc",
        axis="transmit_power_db",
        values=(0.0, 20.0),
        methods=("quadrature", "asymptotic"),
        base=ScenarioParams(n_destinations=2),
        mc=TINY_MC,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpecValidation:
    def test_rejects_unordered_values(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            small_spec(values=(20.0, 0.0))

    def test_power_values_must_be_finite_numbers(self):
        for bad in ((0.0, math.nan, 5.0), (math.inf,), (True, 2.0), ("10",)):
            with pytest.raises(ConfigError, match="finite numbers"):
                small_spec(values=bad)

    def test_rejects_empty_values(self):
        with pytest.raises(ConfigError):
            small_spec(values=())

    def test_rejects_method_metric_mismatch(self):
        with pytest.raises(ConfigError, match="closed-form-poi"):
            small_spec(methods=("closed-form-poi",))
        with pytest.raises(ConfigError, match="asymptotic"):
            small_spec(metric="poi", axis="n_destinations", values=(1, 2),
                       methods=("asymptotic",))

    def test_rejects_fractional_destination_counts(self):
        with pytest.raises(ConfigError):
            small_spec(metric="poi", axis="n_destinations", values=(1, 2.5),
                       methods=("quadrature",))

    def test_rejects_bad_quadrature_order(self):
        with pytest.raises(ConfigError):
            small_spec(quadrature_order=0)
        with pytest.raises(ConfigError, match="quadrature order"):
            small_spec(quadrature_order=[64])

    def test_numpy_quadrature_order_dumps_as_int(self):
        spec = small_spec(quadrature_order=np.int64(32))
        assert type(spec.quadrature_order) is int
        assert loads_config(dump_config(spec)) == spec

    def test_numpy_monte_carlo_fields_dump_as_plain_numbers(self):
        mc = McConfig(
            samples=np.int64(100_000), seed=np.int64(1), workers=np.int32(2),
            confidence=np.float32(0.95),
        )
        assert [type(v) for v in astuple(mc)] == [int, int, int, float]
        spec = small_spec(mc=mc)
        assert loads_config(dump_config(spec)) == spec

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"metric": "snr"}, "metric must be 'asc' or 'poi'"),
            ({"axis": "p_b"}, "axis must be one of"),
            ({"methods": ()}, "methods must be a nonempty list"),
            ({"methods": ("quadrature", "quadrature")}, "methods must not repeat"),
        ],
    )
    def test_rejects_bad_fields(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            small_spec(**overrides)

    @pytest.mark.parametrize(
        "n, valid",
        [(10, True), (np.int64(10), True), (True, False), (0, False), (2.0, False),
         (2.5, False)],
    )
    def test_destination_count_checks_agree(self, n, valid):
        link = LinkParams(-4.6, 1.4)

        def axis_spec():
            return small_spec(metric="poi", axis="n_destinations", values=(n,),
                              methods=("quadrature",))

        if not valid:
            with pytest.raises(ConfigError):
                ScenarioParams(n_destinations=n)
            with pytest.raises(ConfigError):
                ScenarioParams(n_destinations=2).system_config(n_destinations=n)
            with pytest.raises(ConfigError):
                PinholeTopology(link, link, link, n_destinations=n)
            with pytest.raises(ConfigError):
                axis_spec()
            return
        assert PinholeTopology(link, link, link, n_destinations=n).n_destinations == 10
        assert type(ScenarioParams(n_destinations=n).n_destinations) is int
        override = ScenarioParams(n_destinations=2).system_config(n_destinations=n)
        assert override.topology.n_destinations == 10
        assert [type(v) for v in axis_spec().values] == [int]

    @pytest.mark.parametrize("pinhole", ["no", 0, 1, None])
    def test_scenario_rejects_non_bool_pinhole(self, pinhole):
        with pytest.raises(ConfigError, match="pinhole"):
            ScenarioParams(pinhole=pinhole)

    @pytest.mark.parametrize("value", ["x", None, True])
    @pytest.mark.parametrize(
        "name", ["m_a_db", "s_b_db", "transmit_power_db", "p_e", "eta_b", "bg_var_e"]
    )
    def test_scenario_rejects_non_number_fields(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a number"):
            ScenarioParams(**{name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [("p_b", -0.1, "must lie in [0, 1]"), ("p_e", 1.5, "must lie in [0, 1]"),
         ("eta_b", -1.0, "must be finite and >= 0"), ("eta_e", -1e-9, "must be finite and >= 0"),
         ("bg_var_b", 0.0, "must be finite and > 0"), ("bg_var_e", -2.0, "must be finite and > 0")],
    )
    def test_scenario_rejects_out_of_range_fields(self, name, value, message):
        with pytest.raises(ConfigError) as exc:
            ScenarioParams(**{name: value})
        assert str(exc.value) == f"{name} {message}"

    @pytest.mark.parametrize(
        "side, var, ratio", [("b", 1e-320, 10.0), ("b", 1e300, 1e300), ("e", 1e-320, 10.0)]
    )
    def test_scenario_rejects_snr_factors_of_zero_or_inf(self, side, var, ratio):
        with pytest.raises(ConfigError) as exc:
            ScenarioParams(**{f"bg_var_{side}": var, f"eta_{side}": ratio})
        assert str(exc.value) == f"bg_var_{side} and eta_{side} must give SNR factors in (0, inf)"

    def test_scenario_rejects_non_finite_spread(self):
        with pytest.raises(ConfigError, match="^s_b_db must be finite"):
            ScenarioParams(s_b_db=math.nan)


class TestRunSweep:
    def test_single_point_single_method(self):
        spec = small_spec(values=(10.0,), methods=("quadrature",))
        rows, errors = run_sweep(spec)
        assert errors == []
        assert len(rows) == 1
        assert rows[0].method == "quadrature"
        assert rows[0].axis_value == 10.0

    def test_rows_follow_axis_then_method_order(self):
        spec = small_spec()
        rows, _ = run_sweep(spec)
        assert [(r.axis_value, r.method) for r in rows] == [
            (0.0, "quadrature"),
            (0.0, "asymptotic"),
            (20.0, "quadrature"),
            (20.0, "asymptotic"),
        ]

    def _check_destination_axis(self, metric, routes):
        methods = sweep_mod.POI_METHODS if metric == "poi" else sweep_mod.ASC_METHODS
        assert list(routes) == list(methods)
        # 140000 samples span 3 blocks, so two workers share them.
        spec = small_spec(metric=metric, axis="n_destinations", values=(1, 2, 4, 25),
                          methods=methods, mc=McConfig(samples=140_000, seed=5, workers=2))
        rows, errors = run_sweep(spec)
        assert errors == []
        got = {(r.axis_value, r.method): (r.value, r.ci_halfwidth) for r in rows}
        assert len(got) == len(rows) == 4 * len(methods)
        for n in (1, 2, 4, 25):
            cfg = spec.base.system_config(n_destinations=n)
            for method, route in routes.items():
                direct = route(cfg)
                assert got[(n, method)] == (direct.value, direct.ci_halfwidth), (n, method)

    def test_poi_axis_over_destinations(self):
        self._check_destination_axis("poi", {
            "quadrature": poi_quadrature,
            "closed-form-poi": poi_closed_form,
            "monte-carlo": lambda cfg: mc_poi(cfg, McConfig(samples=140_000, seed=5)),
        })

    def test_asc_axis_over_destinations(self):
        self._check_destination_axis("asc", {
            "quadrature": asc_quadrature,
            "asymptotic": asc_asymptotic,
            "asymptotic-large-n": asc_asymptotic_large_n,
            "monte-carlo": lambda cfg: mc_asc(cfg, McConfig(samples=140_000, seed=5)),
        })

    def test_a_destination_axis_without_a_configuration(self):
        # 4000 dB overflows the linear power at every count alike.
        spec = small_spec(axis="n_destinations", values=(1, 2, 3), methods=sweep_mod.ASC_METHODS,
                          base=ScenarioParams(transmit_power_db=4000.0), mc=TINY_MC)
        rows, errors = run_sweep(spec)
        with pytest.raises(ConfigError) as info:
            ScenarioParams().system_config(power_db=4000.0)
        assert rows == []
        assert [(e.axis_value, e.method, e.message) for e in errors] == [
            (n, m, str(info.value)) for n in (1, 2, 3) for m in sweep_mod.ASC_METHODS
        ]

    def test_monte_carlo_points_are_deterministic(self):
        spec = small_spec(values=(10.0,), methods=("monte-carlo",))
        first, _ = run_sweep(spec)
        second, _ = run_sweep(spec)
        assert first == second

    def test_workers_reach_monte_carlo(self, monkeypatch):
        seen = []
        real = sweep_mod.mc_asc

        def spy(cfg, mc, **kwargs):
            seen.append(mc.workers)
            return real(cfg, mc, **kwargs)

        monkeypatch.setattr(sweep_mod, "mc_asc", spy)
        spec = small_spec(values=(10.0,), methods=("monte-carlo",),
                          mc=replace(TINY_MC, workers=2))
        run_sweep(spec)
        assert seen == [2]

    def test_every_route_runs_once_per_sweep(self, monkeypatch):
        # On a power axis and on a destination axis alike.
        calls = {}

        def counting(name, fn):
            def spy(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return spy

        for key, fn in list(sweep_mod._EVALUATORS.items()):
            monkeypatch.setitem(sweep_mod._EVALUATORS, key, counting(key, fn))
        for name in ("mc_asc", "mc_poi"):
            monkeypatch.setattr(sweep_mod, name, counting(name, getattr(sweep_mod, name)))
        routes = [("asc", "quadrature"), ("asc", "asymptotic"), ("asc", "asymptotic-large-n"),
                  "mc_asc", ("poi", "quadrature"), ("poi", "closed-form-poi"), "mc_poi"]
        for axis, values in [("transmit_power_db", (0.0, 10.0, 20.0)),
                             ("n_destinations", (2, 3, 25))]:
            calls.clear()
            run_sweep(small_spec(axis=axis, values=values, methods=sweep_mod.ASC_METHODS))
            run_sweep(small_spec(metric="poi", axis=axis, values=values,
                                 methods=sweep_mod.POI_METHODS))
            assert calls == dict.fromkeys(routes, 1), axis

    def test_an_axis_builds_one_configuration(self, monkeypatch):
        calls = []
        real = ScenarioParams.system_config

        def spy(self, **kwargs):
            calls.append(kwargs)
            return real(self, **kwargs)

        monkeypatch.setattr(ScenarioParams, "system_config", spy)
        for metric, methods in (("asc", sweep_mod.ASC_METHODS), ("poi", sweep_mod.POI_METHODS)):
            calls.clear()
            run_sweep(small_spec(metric=metric, values=(0.0, 10.0, 20.0), methods=methods))
            assert [c.get("power_db") for c in calls] == [0.0]
            calls.clear()
            run_sweep(small_spec(metric=metric, axis="n_destinations", values=(2, 3, 40),
                                 methods=methods))
            assert [c.get("n_destinations") for c in calls] == [2]
        # A point without a configuration does not start the group.
        calls.clear()
        run_sweep(small_spec(values=(-4000.0, 20.0, 4000.0), methods=("quadrature",)))
        assert [c.get("power_db") for c in calls] == [-4000.0, 20.0]

    def test_power_axis_powers_match_their_configurations(self, monkeypatch):
        seen = []
        real = sweep_mod._EVALUATORS[("asc", "quadrature")]

        def spy(cfg, *, powers):
            seen.append(list(powers))
            return real(cfg, powers=powers)

        monkeypatch.setitem(sweep_mod._EVALUATORS, ("asc", "quadrature"), spy)
        grid = tuple(-10.0 + 0.25 * i for i in range(281))
        spec = small_spec(values=grid, methods=("quadrature",))
        run_sweep(spec)
        want = [spec.base.system_config(power_db=v).transmit_power for v in grid]
        assert len(seen) == 1
        assert [p.hex() for p in seen[0]] == [p.hex() for p in want]

    def test_config_errors_at_both_ends_of_a_power_axis(self):
        # -4000 dB underflows and 4000 dB overflows the linear power, so
        # neither point has a configuration; at 3000 dB the quadrature rates
        # overflow.  The MC sample, log1p(d / (x_e + 1/P)), stays finite.
        def sweep(values):
            base = ScenarioParams(m_b_db=100.0, m_e_db=100.0)
            return run_sweep(small_spec(values=values, methods=sweep_mod.ASC_METHODS,
                                        base=base))

        rows, errors = sweep((-4000.0, 20.0, 3000.0, 4000.0))
        messages = {}
        for value in (-4000.0, 4000.0):
            with pytest.raises(ConfigError) as info:
                ScenarioParams().system_config(power_db=value)
            messages[value] = str(info.value)
        assert [(e.axis_value, e.method) for e in errors] == (
            [(-4000.0, m) for m in sweep_mod.ASC_METHODS]
            + [(3000.0, "quadrature")]
            + [(4000.0, m) for m in sweep_mod.ASC_METHODS]
        )
        for e in errors:
            if e.axis_value in messages:
                assert e.message == messages[e.axis_value]
        top = [r for r in rows if r.axis_value == 3000.0]
        assert [r.method for r in top] == ["asymptotic", "asymptotic-large-n", "monte-carlo"]
        assert math.isfinite(top[-1].value)
        alone, alone_errors = sweep((20.0,))
        assert alone_errors == []
        assert [r for r in rows if r.axis_value == 20.0] == alone

    def test_monte_carlo_poi_is_flat_along_power(self):
        spec = small_spec(metric="poi", values=(-10.0, 20.0, 60.0), methods=("monte-carlo",))
        rows, errors = run_sweep(spec)
        assert errors == []
        assert len({(r.value, r.ci_halfwidth) for r in rows}) == 1

    def test_monte_carlo_poi_does_not_increase_in_destinations(self):
        # One uniform per trial, inverted through Phi^N, couples the points.
        spec = small_spec(
            metric="poi", axis="n_destinations", values=tuple(range(1, 21)),
            methods=("monte-carlo",), base=ScenarioParams(m_b_db=-30.0),
            mc=McConfig(samples=20_000, seed=4),
        )
        rows, errors = run_sweep(spec)
        assert errors == []
        values = [r.value for r in rows]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_csv_is_identical_for_any_worker_count(self):
        # Several 65536-trial blocks per point, so two workers share them.
        spec = small_spec(values=(0.0, 20.0), methods=("quadrature", "monte-carlo"),
                          mc=McConfig(samples=200_000, seed=5))
        one, two = (
            rows_to_csv(run_sweep(replace(spec, mc=replace(spec.mc, workers=w)))[0])
            for w in (1, 2)
        )
        assert one == two

    def test_failing_point_becomes_error_record(self, monkeypatch):
        def boom(cfg):
            raise EvaluationError("synthetic failure")

        monkeypatch.setitem(
            sweep_mod._EVALUATORS, ("asc", "asymptotic"), boom
        )
        rows, errors = run_sweep(small_spec())
        assert len(rows) == 2  # quadrature rows survive
        assert len(errors) == 2
        assert all(e.method == "asymptotic" for e in errors)
        assert "synthetic failure" in errors[0].message

    def test_csv_shape_and_stability(self):
        spec = small_spec(values=(0.0,), methods=("quadrature",))
        rows, _ = run_sweep(spec)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "axis,method,metric,value,ci_halfwidth"
        assert lines[1].startswith("0,quadrature,asc,")
        assert text == rows_to_csv(run_sweep(spec)[0])

    def test_fractional_power_axis_keeps_its_digits(self):
        rows, _ = run_sweep(small_spec(values=(0.25, 2.5), methods=("asymptotic",)))
        lines = rows_to_csv(rows).splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["0.25", "2.5"]


class TestPresets:
    def test_catalogue(self):
        assert available_presets() == ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ConfigError, match="fig3"):
            get_preset("fig99")

    def test_power_preset_structure(self):
        specs = get_preset("fig3")
        labels = [s.label for s in specs]
        assert labels == ["n10-ph", "n10-no-ph", "n40-ph", "n40-no-ph"]
        for spec in specs:
            assert spec.metric == "asc"
            assert spec.axis == "transmit_power_db"
            assert spec.values[0] == -10.0 and spec.values[-1] == 60.0
            assert spec.methods == ("quadrature", "asymptotic", "monte-carlo")

    def test_intercept_preset_structure(self):
        specs = get_preset("fig8")
        assert [s.label for s in specs] == ["base", "sb6-se2", "mb-30"]
        for spec in specs:
            assert spec.metric == "poi"
            assert spec.axis == "n_destinations"
            assert spec.values == tuple(range(1, 17))
            assert spec.methods == ("quadrature", "closed-form-poi", "monte-carlo")

    def test_all_presets_validate(self):
        for name in available_presets():
            for spec in get_preset(name):
                assert spec.label
                assert dump_config(spec)


class TestConfigFiles:
    def test_round_trip_identity(self):
        for name in available_presets():
            for spec in get_preset(name):
                assert loads_config(dump_config(spec)) == spec

    def test_empty_file_lists_required_fields(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="metric, axis, values, methods, system"):
            load_config(path)

    def test_yaml_loaders_give_the_same_specs_and_marks(self, monkeypatch):
        import yaml

        specs = [spec for name in available_presets() for spec in get_preset(name)]
        # A long power axis, like the benchmark's configs.
        specs.append(small_spec(values=tuple(-10.0 + 0.25 * i for i in range(281))))

        def load_all():
            with pytest.raises(ConfigError, match=r"parse error at line 2, column 13: "):
                loads_config("metric: asc\n  bad indent: [\n")
            return [loads_config(dump_config(spec)) for spec in specs]

        assert load_all() == specs  # libyaml's parser when PyYAML has it
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_all() == specs

    def test_parse_error_without_position(self):
        # The reader rejects a control character before any mark exists.
        with pytest.raises(ConfigError, match="^config parse error: unacceptable character #x0007"):
            loads_config("metric: asc\x07\n")

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("metric: asc\n  bad indent: [\n")
        with pytest.raises(ConfigError, match=r"line \d+"):
            load_config(path)

    def test_unknown_keys_are_rejected_with_path(self):
        spec = small_spec()
        data = spec_to_dict(spec)
        data["system"]["typo_key"] = 1
        import yaml

        with pytest.raises(ConfigError, match="system.'typo_key'"):
            loads_config(yaml.safe_dump(data))
        with pytest.raises(ConfigError, match="unknown key monte_carlo.1"):
            loads_config("preset: fig8\nvariant: base\nmonte_carlo: {1: a, foo: b}\n")

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="missing required field 'axis'"):
            loads_config("metric: asc\n")

    def test_constraint_violation_carries_field_path(self):
        spec = small_spec()
        data = spec_to_dict(spec)
        data["system"]["destination"]["sd_db"] = -3.0
        import yaml

        with pytest.raises(ConfigError, match="system"):
            loads_config(yaml.safe_dump(data))

    # The destination axis (fig8) and the scenario's count (fig3) read a
    # count the same way.
    COUNT_PLACES = {
        "values[1]": "preset: fig8\nvariant: base\nvalues: [1, {}]\n",
        "system.n_destinations":
            "preset: fig3\nvariant: n10-ph\nsystem:\n  n_destinations: {}\n",
    }

    @pytest.mark.parametrize("path", sorted(COUNT_PLACES))
    def test_whole_float_destination_count_is_read_as_int(self, path):
        spec = loads_config(self.COUNT_PLACES[path].format("10.0"))
        counts = spec.values if path.startswith("values") else (spec.base.n_destinations,)
        assert counts[-1] == 10 and all(type(v) is int for v in counts)

    @pytest.mark.parametrize("value", ["10.5", "true", '"10"', "0", "-2.0", ".inf"])
    @pytest.mark.parametrize("path", sorted(COUNT_PLACES))
    def test_bad_destination_count_names_its_path(self, path, value):
        with pytest.raises(
            ConfigError, match=rf"^{re.escape(path)}: expected a whole destination count"
        ):
            loads_config(self.COUNT_PLACES[path].format(value))

    @pytest.mark.parametrize("key, value", [("pinhole", '"no"'), ("pinhole", "1")])
    def test_scenario_type_errors_carry_system_prefix(self, key, value):
        text = f"preset: fig8\nvariant: base\nsystem:\n  {key}: {value}\n"
        with pytest.raises(ConfigError, match=f"^system: {key} "):
            loads_config(text)

    def test_bad_leaf_names_its_yaml_path_once(self):
        text = "preset: fig8\nvariant: base\nsystem:\n  transmit_power_db: abc\n"
        with pytest.raises(
            ConfigError, match=r"^system\.transmit_power_db: expected a number"
        ):
            loads_config(text)

    def test_omitted_noise_leaves_mean_no_impulsive_noise(self):
        data = spec_to_dict(small_spec())
        del data["system"]["eav_noise"]
        del data["system"]["dest_noise"]["impulse_ratio"]
        import yaml

        base = loads_config(yaml.safe_dump(data)).base
        assert (base.bg_var_e, base.eta_e, base.p_e) == (1.0, 0.0, 0.0)
        assert (base.eta_b, base.p_b) == (0.0, 0.1)

    def test_omitted_monte_carlo_takes_the_default(self):
        data = spec_to_dict(small_spec())
        del data["monte_carlo"]
        import yaml

        assert loads_config(yaml.safe_dump(data)).mc == sweep_mod.DEFAULT_MC

    def test_preset_reference_with_override(self):
        text = "preset: fig3\nvariant: n10-ph\nvalues: [0.0, 10.0]\n"
        spec = loads_config(text)
        rest = get_preset("fig3")[0]
        assert spec.values == (0.0, 10.0)
        assert spec.methods == rest.methods
        assert spec.base == rest.base

    def test_preset_reference_requires_variant_when_ambiguous(self):
        with pytest.raises(ConfigError, match="variant"):
            loads_config("preset: fig3\n")
        with pytest.raises(ConfigError, match="no variant"):
            loads_config("preset: fig3\nvariant: nope\n")

    def test_nested_override_merges(self):
        text = (
            "preset: fig8\nvariant: base\n"
            "monte_carlo:\n  samples: 20000\n"
            "system:\n  dest_noise:\n    impulse_prob: 0.5\n"
        )
        spec = loads_config(text)
        assert spec.mc.samples == 20000
        assert spec.mc.seed == get_preset("fig8")[0].mc.seed
        assert spec.base.p_b == 0.5
        assert spec.base.eta_b == 10.0


class TestCli:
    def _write_config(self, tmp_path, extra=""):
        path = tmp_path / "sweep.yaml"
        path.write_text(
            "preset: fig3\nvariant: n10-ph\nvalues: [0.0, 20.0]\n"
            "methods: [quadrature, asymptotic]\n" + extra
        )
        return path

    def test_sweep_to_stdout(self, tmp_path, capsys):
        code = main(["sweep", str(self._write_config(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("axis,method,metric,value,ci_halfwidth\n")
        assert out.count("\n") == 5

    def test_sweep_to_file_is_byte_stable(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_the_reused_parser_carries_no_argument_over(self, tmp_path, capsys):
        # One parser serves every call in a process: the second call, without
        # --out, must write to stdout, not to the first call's file.
        cfg = self._write_config(tmp_path)
        out = tmp_path / "a.csv"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        first = out.read_text()
        assert main(["sweep", str(cfg)]) == 0
        assert capsys.readouterr().out == first
        assert out.read_text() == first

    def test_validate_prints_resolved_config(self, tmp_path, capsys):
        code = main(["validate", str(self._write_config(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        assert "metric: asc" in out
        assert "n_destinations: 10" in out

    def test_config_errors_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("metric: nope\n")
        assert main(["validate", str(bad)]) == 2
        assert main(["sweep", str(tmp_path / "missing.yaml")]) == 2
        assert main(["preset", "fig99"]) == 2
        assert main(["preset", "fig6", "--quad-order", "0"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    @pytest.mark.parametrize(
        "content, out, message",
        [
            (None, None, "Is a directory"),
            (b"metric: asc\n# \xff\n", None, "can't decode byte 0xff"),
            (b"preset: [fig3]\n", None, "unknown preset ['fig3']; available: fig3"),
            (b"preset: fig3\nvariant: n10-ph\nvalues: [10, .nan, 5]\n", None, "finite numbers"),
            (b"preset: fig3\nvariant: n10-ph\nvalues: [.inf]\n", None, "finite numbers"),
            (
                b"preset: fig3\nvariant: n10-ph\nvalues: [0.0]\nmethods: [monte-carlo]\n"
                b"monte_carlo: {samples: 10000, seed: -1}\n",
                None,
                "monte_carlo: seed",
            ),
            (b"- metric\n", None, "config root must be a mapping"),
            (b"preset: fig3\nvariant: n10-ph\nsystem: 3\n", None,
             "system: expected a mapping"),
            (b"preset: fig3\nvariant: n10-ph\nsystem: {source: 3}\n", None,
             "system.source: expected a mapping"),
            (b"preset: fig3\nvariant: n10-ph\nmonte_carlo: 3\n", None,
             "monte_carlo: expected a mapping"),
            (b"preset: fig3\nvariant: n10-ph\nvalues: 3\n", None,
             "values: expected a list of numbers"),
            (b"preset: fig3\nvariant: n10-ph\nmethods: quadrature\n", None,
             "methods: expected a list of method names"),
            (b"preset: fig3\nvariant: n10-ph\nlabel: [a]\n", None, "label: expected a string"),
            (b"preset: fig3\nvariant: n10-ph\n", ".", "Is a directory"),
            (b"preset: fig3\nvariant: n10-ph\n", "missing/out.csv", "No such file or directory"),
        ],
        ids=[
            "directory", "non-utf8", "list-preset", "nan-power", "inf-power", "negative-seed",
            "list-root", "scalar-system", "scalar-source", "scalar-monte-carlo",
            "scalar-values", "scalar-methods", "list-label", "out-directory",
            "out-missing-parent",
        ],
    )
    def test_bad_config_exits_two(self, tmp_path, capsys, content, out, message):
        # None stands for a directory where the config file should be.
        path = tmp_path / "bad.yaml"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        commands = [["validate", str(path)], ["sweep", str(path)]]
        if out is not None:
            target = str(tmp_path / out)
            message = f"cannot write output file {target!r}: {message}"
            commands = [["sweep", str(path), "--out", target], ["preset", "fig3", "--out", target]]
        for command in commands:
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and message in err
            assert "Traceback" not in err

    def test_zero_or_infinite_snr_factor_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "poi.yaml"
        cfg.write_text(
            "preset: fig8\nvariant: base\nvalues: [1, 2]\nmethods: [quadrature]\n"
            "system:\n  dest_noise: {background_var: 1.0e-320}\n"
        )
        for command in (["sweep", str(cfg)], ["validate", str(cfg)]):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: system: bg_var_b and eta_b must give ")
            assert "Traceback" not in captured.err

    def test_row_errors_exit_one_but_emit_surviving_rows(self, tmp_path, capsys):
        # 4000 dB passes validation but overflows the linear transmit power
        # at evaluation time, producing a row error while the sweep continues.
        cfg = tmp_path / "asc.yaml"
        cfg.write_text(
            "preset: fig3\nvariant: n10-ph\n"
            "values: [20, 4000]\nmethods: [quadrature]\n"
        )
        code = main(["sweep", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.count("\n") == 2  # header + the 20 dB row
        assert "4000" in captured.err and "ERROR" in captured.err

    def test_monte_carlo_error_stays_at_its_point(self, tmp_path):
        # At 3000 dB the rates overflow: quadrature and MC fail there alone,
        # and the 20 dB MC row is the one a sweep of 20 dB alone gives.  With
        # the eavesdropper's gain near e^-300 below 1/P, the MC sample
        # log1p(d / (x_e + 1/P)) overflows too.
        def sweep(values):
            cfg = tmp_path / "huge.yaml"
            cfg.write_text(
                f"preset: fig3\nvariant: n10-ph\nvalues: {values}\n"
                "methods: [quadrature, monte-carlo]\n"
                "monte_carlo: {samples: 10000, seed: 1}\n"
                "system:\n  pinhole: false\n  n_destinations: 3\n"
                "  destination: {mean_db: 1954.0}\n"
                "  eavesdropper: {mean_db: -1303.0}\n"
            )
            return subprocess.run(
                [sys.executable, "-m", "plcsec.cli", "sweep", str(cfg)],
                capture_output=True, text=True, env=src_env(),
            )

        both, alone = sweep("[20, 3000]"), sweep("[20]")
        assert both.returncode == 1 and alone.returncode == 0, both.stderr
        errors = both.stderr.splitlines()
        assert len(errors) == 2
        assert all("ERROR axis=3000.0" in line for line in errors)
        assert "non-finite secrecy sample at trial index" in errors[1]
        assert "RuntimeWarning" not in both.stderr
        assert both.stdout == alone.stdout

    def test_preset_run_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        code = main(
            ["preset", "fig6", "--out", str(out), "--samples", "10000", "--seed", "3"]
        )
        assert code == 0
        text = out.read_text()
        assert text.count("# preset: fig6 variant:") == 2
        assert "mb-20" in text and "mb-30" in text
        # 36 grid points x 3 methods per variant plus headers.
        assert text.count("\n") >= 2 * (36 * 3 + 2)

    def test_preset_quad_order_reaches_quadrature(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        args = ["preset", "fig6", "--out", str(out), "--samples", "10000"]
        assert main([*args, "--quad-order", "32"]) == 0
        quad_rows = [line for line in out.read_text().splitlines() if ",quadrature," in line]

        def rows(order):
            lines = []
            for spec in get_preset("fig6"):
                spec = replace(spec, methods=("quadrature",), quadrature_order=order)
                lines += rows_to_csv(run_sweep(spec)[0]).splitlines()[1:]
            return lines

        assert quad_rows == rows(32)
        assert quad_rows != rows(64)

    def test_worker_count_leaves_the_csv_bytes_alone(self):
        # 140000 samples span 3 blocks, so two workers share them.
        def text(spec, workers):
            mc = replace(spec.mc, samples=140_000, seed=3, workers=workers)
            rows, errors = run_sweep(replace(spec, mc=mc))
            assert errors == []
            return rows_to_csv(rows).encode()

        for spec in get_preset("fig6"):
            assert text(spec, 1) == text(spec, 2)

    def test_preset_runs_monte_carlo_on_the_usable_cpus(self, tmp_path, monkeypatch):
        seen = set()
        real = sweep_mod.mc_asc

        def spy(cfg, mc, **kwargs):
            seen.add(mc.workers)
            return real(cfg, mc, **kwargs)

        monkeypatch.setattr(sweep_mod, "mc_asc", spy)
        args = ["preset", "fig6", "--samples", "10000", "--out", str(tmp_path / "out.csv")]
        assert main(args) == 0
        assert seen == {len(os.sched_getaffinity(0))}

    def test_import_leaves_out_mpmath_and_scipy_integrate(self, tmp_path):
        # Each would add import time and resident memory to every run; so
        # would any other part of scipy, which is a test-only dependency,
        # the thread pool, which only a Monte Carlo run on more than one
        # worker needs, and numpy.polynomial, whose Gauss rules plcsec
        # builds itself; it must stay out after a sweep has built them too.
        code = (
            "import plcsec, plcsec.cli, sys\n"
            "def loaded():\n"
            "    names = {'mpmath', 'scipy.integrate', 'concurrent.futures', 'numpy.polynomial'}\n"
            "    print(sorted(names & set(sys.modules)),\n"
            "          sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "loaded()\n"
            "code = plcsec.cli.main(sys.argv[1:])\n"
            "loaded()\n"
            "sys.exit(code)\n"
        )
        args = ["sweep", str(self._write_config(tmp_path)), "--out", str(tmp_path / "out.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, text=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[] []", "[] []"]

    @pytest.mark.parametrize(
        "methods, want",
        [
            ("[quadrature, asymptotic]", []),
            ("[monte-carlo]", ["hashlib", "numpy.random", "secrets"]),
        ],
    )
    def test_only_a_monte_carlo_sweep_loads_numpy_random(self, tmp_path, methods, want):
        # numpy.random adds about 6 MiB resident, over half of it OpenSSL's
        # libcrypto through secrets and hashlib, which no analytical route needs.
        code = (
            "import sys\n"
            "from plcsec.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted({'numpy.random', 'secrets', 'hashlib'} & set(sys.modules)))\n"
            "sys.exit(code)\n"
        )
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            f"preset: fig3\nvariant: n10-ph\nvalues: [0.0]\nmethods: {methods}\n"
            "monte_carlo: {samples: 10000, seed: 1, workers: 1}\n"
        )
        args = ["sweep", str(cfg), "--out", str(tmp_path / "out.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, text=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [str(want)]

    def test_sweeps_run_with_no_eigenvalue_solver(self, tmp_path):
        # The Gauss rules come from Newton's method, not from LAPACK: every
        # method of every (metric, axis) pair runs with numpy's eigenvalue
        # routines replaced by stubs that raise.  The last line shows that
        # the stubs catch numpy's own Gauss rules, which call them.
        stub = (
            "import sys\n"
            "import numpy.linalg\n"
            "def no_lapack(*args, **kwargs):\n"
            "    raise RuntimeError('eigenvalue solver called')\n"
            "for name in ('eigvalsh', 'eigh', 'eigvals', 'eig'):\n"
            "    setattr(numpy.linalg, name, no_lapack)\n"
            "from plcsec.cli import main\n"
            "print([main(['sweep', path]) for path in sys.argv[1:]])\n"
            "from numpy.polynomial.hermite import hermgauss\n"
            "try:\n"
            "    hermgauss(3)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        values = {"transmit_power_db": "[0.0, 30.0]", "n_destinations": "[1, 30]"}
        paths = []
        for metric, methods in (("asc", sweep_mod.ASC_METHODS), ("poi", sweep_mod.POI_METHODS)):
            for axis in sweep_mod.AXES:
                path = tmp_path / f"{metric}-{axis}.yaml"
                path.write_text(
                    f"preset: fig3\nvariant: n10-ph\nmetric: {metric}\naxis: {axis}\n"
                    f"values: {values[axis]}\nmethods: [{', '.join(methods)}]\n"
                    "monte_carlo: {samples: 10000, seed: 1}\n"
                )
                paths.append(str(path))
        proc = subprocess.run(
            [sys.executable, "-c", stub, *paths], capture_output=True, text=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0]", "eigenvalue solver called"]

    def test_preset_runs_with_scipy_unimportable(self, tmp_path):
        # The blocked run must write the bytes of an ordinary run.
        block = (
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
        )
        env = src_env()

        def run(prelude, out):
            code = "import sys\n" + prelude + "from plcsec.cli import main\nsys.exit(main())\n"
            args = ["preset", "fig8", "--samples", "10000", "--seed", "4", "--out", str(out)]
            return subprocess.run(
                [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
            )

        blocked = run(block, tmp_path / "blocked.csv")
        plain = run("", tmp_path / "plain.csv")
        assert blocked.returncode == 0, blocked.stderr
        assert plain.returncode == 0, plain.stderr
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_module_entry_point_validates(self, tmp_path, capsys):
        # ``python -m plcsec.cli`` exits with main's status and prints what main does.
        cfg = self._write_config(tmp_path)
        env = src_env()
        proc = subprocess.run(
            [sys.executable, "-m", "plcsec.cli", "validate", str(cfg)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["validate", str(cfg)]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "plcsec.cli", "--help"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout and "preset" in proc.stdout
