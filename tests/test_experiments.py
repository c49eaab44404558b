"""Experiment-layer tests: ratio bookkeeping, sweeps, controls, imprinting."""

import os
import re
import subprocess
import sys
import threading
import time
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import qpot
from qpot.core import Grid1D, PhysicalParams, default_grid
from qpot.engineering import engineered_packet as real_engineered_packet
from qpot.engineering import DEFAULT_PROFILE, gaussian_packet, two_stage_imprint
from qpot.errors import (
    ConfigError,
    NormalizationError,
    NumericsError,
    TruncationWarning,
)
from qpot.experiments import (
    ComparisonResult,
    SweepRow,
    SweepSpec,
    _in_lanes,
    absorption_ratio_series,
    convergence_report,
    evolve_packet,
    run_comparison,
    run_fitted_control,
    run_preparation_study,
    run_sweep,
)
from qpot.potentials import total_potential
from qpot.propagate import EvolveConfig, ExperimentRecord, evolve


def fails_at_2um(grid, params, spec=DEFAULT_PROFILE):
    """engineered_packet, but raising NormalizationError at z0 = 2.0 um."""
    if abs(params.z0 - 2.0e-6) < 1e-12:
        raise NormalizationError("synthetic failure")
    return real_engineered_packet(grid, params, spec)


def fake_record(times, absorbed):
    times = np.asarray(times, dtype=float)
    absorbed = np.asarray(absorbed, dtype=float)
    norms = np.sqrt(1.0 - absorbed)
    return ExperimentRecord(times=times, norms=norms, absorbed_fraction=absorbed)


class TestAbsorptionRatioSeries:
    def test_record_against_itself_is_unity(self):
        rec = fake_record([0, 1e-4, 2e-4, 3e-4], [0, 1e-6, 4e-6, 9e-6])
        t, r, avg, cross = absorption_ratio_series(rec, rec, t_window=np.inf)
        assert np.all(r == 1.0)
        assert avg == 1.0
        # a ratio pinned at 1 counts as crossed from the first retained time
        assert cross == t[0]

    def test_floor_masks_early_times(self):
        num = fake_record([0, 1, 2, 3], [0.0, 1e-15, 1e-6, 2e-6])
        den = fake_record([0, 1, 2, 3], [0.0, 1e-13, 1e-8, 1e-8])
        t, r, avg, cross = absorption_ratio_series(num, den, t_window=np.inf)
        assert list(t) == [2.0, 3.0]
        assert r == pytest.approx([100.0, 200.0])
        assert avg == pytest.approx(150.0)
        assert cross is None

    def test_both_zero_gives_empty_series(self):
        num = fake_record([0, 1, 2], [0.0, 0.0, 0.0])
        den = fake_record([0, 1, 2], [0.0, 0.0, 0.0])
        t, r, avg, cross = absorption_ratio_series(num, den, t_window=np.inf)
        assert t.size == 0
        assert r.size == 0
        assert avg is None
        assert cross is None

    def test_mismatched_time_grids_rejected(self):
        absorbed = [0, 1e-6, 2e-6, 3e-6, 4e-6, 5e-6]
        for num_times, den_times in (
            ([0, 1, 2], [0, 1, 2.5]),
            # dt = 1 ns against 2 ns: gaps of at most 5 ns are still another grid
            (np.arange(6) * 1e-9, np.arange(6) * 2e-9),
        ):
            num = fake_record(num_times, absorbed[:len(num_times)])
            den = fake_record(den_times, absorbed[:len(den_times)])
            with pytest.raises(ConfigError):
                absorption_ratio_series(num, den, t_window=np.inf)

    def test_window_limits_average_but_not_crossover(self):
        times = [0, 1.0, 2.0, 3.0, 4.0]
        num = fake_record(times, [0, 4e-6, 4e-6, 2e-6, 1e-6])
        den = fake_record(times, [0, 1e-6, 2e-6, 4e-6, 4e-6])
        t, r, avg, cross = absorption_ratio_series(num, den, t_window=2.0)
        assert avg == pytest.approx(np.mean([4.0, 2.0]))
        # the dip below 1 happens after the averaging window
        assert cross == 3.0


class TestSweepSpec:
    def test_defaults_and_sigma_rules(self):
        spec = SweepSpec(z0_values=[2e-6, 3e-6])
        assert spec.z0_values == (2e-6, 3e-6)
        assert spec.sigma_for(2e-6) == pytest.approx(1e-6)
        fixed = SweepSpec(z0_values=(2e-6,), sigma_rule=("fixed", 0.7e-6))
        assert fixed.sigma_for(123.0) == 0.7e-6

    @pytest.mark.parametrize("kwargs", [
        {"sigma_rule": ("odd", 0.5)},
        {"sigma_rule": ("ratio", 0.0)},
        {"sigma_rule": ("ratio", 1.5)},
        {"sigma_rule": ("fixed", -1e-6)},
        {"sigma_rule": ("fixed", 0.0)},
    ])
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ConfigError):
            SweepSpec(z0_values=(2e-6,), **kwargs)


class TestResolveWorkers:
    """The lane count, which `_in_lanes` alone resolves and `run_sweep` hands
    it unchanged as `workers`."""

    def test_argument_wins(self):
        for lanes in (2, np.int64(2)):  # a numpy integer counts too
            meet = threading.Barrier(2, timeout=10)  # breaks unless 2 lanes run at once
            threads = _in_lanes(lambda _: (meet.wait(), threading.get_ident())[1],
                                [1, 2], lanes)
            assert len(set(threads)) == 2

    def test_default_at_least_one(self):
        # None is one lane per core, at least one
        assert _in_lanes(str, [1, 2, 3]) == ["1", "2", "3"]
        assert _in_lanes(str, [1, 2, 3], None) == ["1", "2", "3"]

    @pytest.mark.parametrize("workers", [0, -3, "abc", 2.7, [2], "2"])
    def test_rejects_non_positive_or_non_integer(self, workers, monkeypatch):
        started = []
        with pytest.raises(ConfigError, match=re.escape(
                f"workers must be a positive integer, got {workers!r}")):
            _in_lanes(started.append, [1, 2], workers)
        monkeypatch.setattr("qpot.experiments._sweep_point", started.append)
        with pytest.raises(ConfigError, match=re.escape(repr(workers))):
            run_sweep(PhysicalParams(), SweepSpec(z0_values=(2e-6,)), workers=workers)
        assert started == []  # rejected before any item starts


class TestRunComparison:
    def test_short_run_structure(self):
        params = PhysicalParams()
        cfg = EvolveConfig(dt=1e-7, t_final=1e-4)
        res = run_comparison(params, config=cfg, t_average_window=1e-4)
        assert set(res.records) == {"engineered", "gaussian"}
        assert res.ratio_times.size > 0
        assert np.all(res.ratios > 0)
        assert res.averaged_ratio > 1.0
        assert res.averaged_ratio == np.mean(res.ratios[res.ratio_times <= 1e-4])

    def test_no_absorber_gives_empty_series(self):
        params = PhysicalParams(absorber_strength=0.0)
        cfg = EvolveConfig(dt=1e-7, t_final=2e-5)
        res = run_comparison(params, config=cfg, t_average_window=2e-5)
        assert res.ratio_times.size == 0
        assert res.averaged_ratio is None
        assert res.crossover_time is None

    def test_default_config_evolves_to_window(self):
        res = run_comparison(PhysicalParams(), t_average_window=2e-5)
        for rec in res.records.values():  # the default dt, up to the window
            assert np.array_equal(rec.times, np.arange(201) * EvolveConfig().dt)


class TestRunSweep:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_point_matches_run_comparison(self, workers):
        params = PhysicalParams()
        cfg = EvolveConfig(dt=2e-7, t_final=5e-5)
        spec = SweepSpec(z0_values=(params.z0,),
                         sigma_rule=("fixed", params.sigma),
                         t_average_window=5e-5)
        [row] = run_sweep(params, spec, config=cfg, workers=workers)
        res = run_comparison(params, config=cfg, t_average_window=5e-5)
        assert not row.failed
        assert row.averaged_ratio == res.averaged_ratio
        assert row.crossover_time == res.crossover_time

    def test_rejects_z0_inside_absorber(self):
        params = PhysicalParams()
        spec = SweepSpec(z0_values=(0.1e-6,))
        with pytest.raises(ConfigError):
            run_sweep(params, spec, workers=1)

    def test_largest_grid_submitted_first(self, monkeypatch):
        submitted = []

        def record(packet, grid, params, config):
            submitted.append((params.z0, packet))
            return fake_record([0.0, 1e-3], [0.0, 0.5])

        monkeypatch.setattr("qpot.experiments.evolve_packet", record)
        # boxes of 4096, 4096, 6553 and 5734 points
        spec = SweepSpec(z0_values=(1.5e-6, 2e-6, 4e-6, 3.5e-6))
        rows = run_sweep(PhysicalParams(), spec, workers=1)
        assert submitted == [(z0, packet) for z0 in (4e-6, 3.5e-6, 1.5e-6, 2e-6)
                             for packet in ("engineered", "gaussian")]
        assert [r.z0 for r in rows] == [1.5e-6, 2e-6, 3.5e-6, 4e-6]
        assert all(r.averaged_ratio == 1.0 for r in rows)

    @pytest.mark.parametrize("failing, error", [
        (("engineered", "gaussian"), "NumericsError: engineered blew up"),
        (("gaussian",), "NumericsError: gaussian blew up"),
    ])
    def test_failed_row_carries_the_engineered_error_first(self, monkeypatch,
                                                           failing, error):
        def point(packet, grid, params, config):
            if packet in failing:
                raise NumericsError(f"{packet} blew up")
            return fake_record([0.0, 1e-3], [0.0, 0.5])

        monkeypatch.setattr("qpot.experiments.evolve_packet", point)
        [row] = run_sweep(PhysicalParams(), SweepSpec(z0_values=(2e-6,)), workers=2)
        assert row.error == error
        assert row.averaged_ratio is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_point_marked_and_sweep_continues(self, monkeypatch, workers):
        monkeypatch.setattr("qpot.experiments.engineered_packet", fails_at_2um)
        params = PhysicalParams()
        cfg = EvolveConfig(dt=2e-7, t_final=2e-5)
        spec = SweepSpec(z0_values=(2.3e-6, 2.0e-6), t_average_window=2e-5)
        rows = run_sweep(params, spec, config=cfg, workers=workers)
        assert [r.z0 for r in rows] == [2.0e-6, 2.3e-6]
        assert rows[0].failed
        assert rows[0].error.startswith("NormalizationError")
        assert rows[0].averaged_ratio is None
        assert not rows[1].failed
        assert rows[1].averaged_ratio is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_packet_spares_its_partner_the_evolve(self, monkeypatch, workers):
        evolved = []

        def counted(*args):
            evolved.append(args[2].z0)
            return evolve(*args)

        def fails_late_at_2um(grid, params, spec=DEFAULT_PROFILE):
            if abs(params.z0 - 2.0e-6) < 1e-12:
                time.sleep(0.2)  # a free lane could take the point's Gaussian meanwhile
            return fails_at_2um(grid, params, spec)

        monkeypatch.setattr("qpot.experiments.engineered_packet", fails_late_at_2um)
        monkeypatch.setattr("qpot.experiments.evolve", counted)
        cfg = EvolveConfig(dt=2e-7, t_final=2e-5)
        # both boxes are 4096 points, so the failing point is taken first
        spec = SweepSpec(z0_values=(2.0e-6, 2.3e-6), t_average_window=2e-5)
        rows = run_sweep(PhysicalParams(), spec, config=cfg, workers=workers)
        # the 2.0 um point's engineered packet fails; its Gaussian is never evolved
        assert evolved == [2.3e-6, 2.3e-6]
        assert rows[0].error == "NormalizationError: synthetic failure"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_programming_error_propagates(self, monkeypatch, workers):
        # only package errors mark a row; anything else is a bug and must
        # surface instead of turning into a quiet "failed" row
        def broken(grid, params, spec=DEFAULT_PROFILE):
            raise ValueError("synthetic bug")

        monkeypatch.setattr("qpot.experiments.engineered_packet", broken)
        spec = SweepSpec(z0_values=(2.0e-6, 2.5e-6), t_average_window=2e-5)
        cfg = EvolveConfig(dt=2e-7, t_final=2e-5)
        with pytest.raises(ValueError, match="synthetic bug"):
            run_sweep(PhysicalParams(), spec, config=cfg, workers=workers)

    @pytest.mark.parametrize("workers", [2, 3, 7])  # 7: more lanes than points
    def test_parallel_rows_match_serial(self, workers):
        params = PhysicalParams()
        cfg = EvolveConfig(dt=2e-7, t_final=5e-5)
        spec = SweepSpec(z0_values=(2.0e-6, 2.5e-6, 3.0e-6), t_average_window=5e-5)
        serial = run_sweep(params, spec, config=cfg, workers=1)
        parallel = run_sweep(params, spec, config=cfg, workers=workers)
        assert serial == parallel

    def test_lanes_share_the_points_without_loss_or_repeat(self, monkeypatch):
        taken = []

        def instant(packet, grid, params, config):
            # the Gaussian absorbs z0 / 1 um times the engineered packet
            taken.append((params.z0, packet))
            scale = params.z0 * 1e6 if packet == "gaussian" else 1.0
            return fake_record([0.0, 1e-3], [0.0, 0.01 * scale])

        monkeypatch.setattr("qpot.experiments.evolve_packet", instant)
        z0s = tuple(1.5e-6 + 0.1e-6 * k for k in range(24))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # lanes race for the shared iterator
        try:
            rows = run_sweep(PhysicalParams(), SweepSpec(z0_values=z0s), workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == sorted((z0, packet) for z0 in z0s
                                       for packet in ("engineered", "gaussian"))
        assert [r.z0 for r in rows] == sorted(z0s)
        for row in rows:  # each row pairs its own point's two records
            assert row.averaged_ratio == pytest.approx(row.z0 * 1e6, rel=1e-12)

    @pytest.mark.parametrize("bug_in_caller", [True, False])
    def test_bug_in_any_lane_starts_no_further_point(self, monkeypatch,
                                                     bug_in_caller):
        started = []
        both_hold_a_job = threading.Barrier(2, timeout=10)

        def point(params, config, t_average_window):
            started.append(params.z0)
            both_hold_a_job.wait()
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == bug_in_caller:
                raise ValueError("synthetic bug")
            time.sleep(0.5)
            return SweepRow(params.z0, params.sigma)

        monkeypatch.setattr("qpot.experiments._sweep_point", point)
        with pytest.raises(ValueError, match="synthetic bug"):
            run_sweep(PhysicalParams(), SweepSpec(), workers=2)
        # the other lane finishes the point it holds, and the four points
        # after the two first are never started
        assert len(started) == 2

    def test_records_are_freed_with_their_row(self, monkeypatch):
        # a point's two records live until its row is formed, not to the
        # end of the sweep, whose records a 2 ms run makes 480 KB each
        returned, alive_at_start = [], []

        def point(packet, grid, params, config):
            alive_at_start.append(sum(ref() is not None for ref in returned))
            record = fake_record([0.0, 1e-3], [0.0, 0.5])
            returned.append(weakref.ref(record))
            return record

        monkeypatch.setattr("qpot.experiments.evolve_packet", point)
        rows = run_sweep(PhysicalParams(), SweepSpec(), workers=1)
        assert len(rows) == 6 and len(alive_at_start) == 12
        assert alive_at_start == [0, 1] * 6  # only the running point's first

    def test_lanes_bound_the_evolves_in_flight(self, monkeypatch):
        # --workers N is N evolves in flight, not N points of two packets each
        lock, in_flight, peak = threading.Lock(), [0], [0]

        def counted(*args):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.05)
                return evolve(*args)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr("qpot.experiments.evolve", counted)
        cfg = EvolveConfig(dt=2e-7, t_final=2e-5)
        spec = SweepSpec(z0_values=(2.0e-6, 2.5e-6, 3.0e-6), t_average_window=2e-5)
        assert not any(r.failed for r in run_sweep(PhysicalParams(), spec,
                                                   config=cfg, workers=2))
        assert peak[0] == 2

    def test_two_lanes_load_no_multiprocessing(self):
        code = (
            "import sys\n"
            "from qpot.core import PhysicalParams\n"
            "from qpot.experiments import SweepSpec, run_sweep\n"
            "from qpot.propagate import EvolveConfig\n"
            "spec = SweepSpec(z0_values=(2e-6, 3e-6), t_average_window=2e-6)\n"
            "rows = run_sweep(PhysicalParams(), spec, workers=2,\n"
            "                 config=EvolveConfig(dt=1e-6, t_final=2e-6))\n"
            "print(len(rows), 'multiprocessing' in sys.modules)\n"
        )
        env = {**os.environ,
               "PYTHONPATH": str(Path(qpot.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "False"]


class TestFittedControl:
    def test_default_pairing(self):
        cfg = EvolveConfig(dt=1e-7, t_final=1e-4)
        res = run_fitted_control(config=cfg, t_average_window=1e-4)
        assert set(res.records) == {"engineered", "fitted_gaussian"}
        assert res.averaged_ratio is not None
        assert res.averaged_ratio > 1.0

    def test_auto_fit_early_advantage_then_reversal(self):
        # The moment-exact Gaussian is a harder benchmark than the default
        # pairing: the engineered packet still wins at early times, but the
        # fit overtakes it within tens of microseconds and the series
        # records that crossover.
        cfg = EvolveConfig(dt=1e-7, t_final=1e-4)
        res = run_fitted_control(config=cfg, auto_fit=True,
                                 t_average_window=1e-4)
        assert res.ratios[0] > 1.0
        assert res.crossover_time is not None
        assert 1e-5 < res.crossover_time < 1e-4

    @pytest.mark.parametrize("key, value", [("gaussian_z0", 5e-6),
                                            ("gaussian_sigma", 0.2e-6)])
    def test_auto_fit_rejects_a_placed_gaussian(self, key, value):
        # the fit places the Gaussian, so a placement given with it is unread
        cfg = EvolveConfig(dt=1e-7, t_final=1e-6)
        with pytest.raises(ConfigError, match=f"^{key} unread with auto_fit"):
            run_fitted_control(config=cfg, auto_fit=True, t_average_window=1e-6,
                               **{key: value})

    def test_default_placement_is_2_3_um_by_1_um(self):
        cfg = EvolveConfig(dt=1e-7, t_final=2e-6)
        default = run_fitted_control(config=cfg, t_average_window=2e-6)
        placed = run_fitted_control(config=cfg, gaussian_z0=2.3e-6,
                                    gaussian_sigma=1e-6, t_average_window=2e-6)
        assert np.array_equal(default.ratios, placed.ratios)

    def test_default_box_holds_the_wider_gaussian(self, monkeypatch):
        # z0 + 6 sigma of the Gaussian is 14.3 um, beyond the 10 um box
        # that the engineered packet alone would need
        grids = []

        def evolve_on(psi, *args):
            grids.append(psi.grid)
            return evolve(psi, *args)

        monkeypatch.setattr("qpot.experiments.evolve", evolve_on)
        cfg = EvolveConfig(dt=1e-7, t_final=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            run_fitted_control(config=cfg, gaussian_sigma=2e-6, t_average_window=1e-6)
        grid, other = grids
        assert other == grid
        assert grid.z_max == pytest.approx(14.3e-6)
        assert grid.dz == pytest.approx(default_grid(PhysicalParams()).dz, rel=1e-3)


class TestPreparationStudy:
    def test_single_slope_row(self):
        params = PhysicalParams()
        k = 0.05 / params.z0
        cfg = EvolveConfig(dt=1e-7, t_final=5e-5)
        [row] = run_preparation_study(params, slope_z0_values=(0.05,),
                                      config=cfg, t_window=5e-5)
        assert row.slope == k
        assert row.slope_z0 == pytest.approx(0.05)
        assert row.fidelity > 0.99
        assert 0.0 <= row.absorbed_imprinted <= 1.0
        assert 0.0 <= row.absorbed_ideal <= 1.0
        assert 0.5 < row.penalty < 2.0

    @pytest.mark.parametrize("t_window", [5e-7, 9e-7])
    def test_steps_past_window_rejected(self, t_window):
        params = PhysicalParams()
        cfg = EvolveConfig(dt=1e-7, t_final=1e-6)
        with pytest.raises(ConfigError, match="t_final"):
            run_preparation_study(params, slope_z0_values=(0.05,),
                                  config=cfg, t_window=t_window)

    def test_window_inside_last_step_accepted(self):
        # the last step is read to interpolate at 0.95 us
        params = PhysicalParams()
        cfg = EvolveConfig(dt=1e-7, t_final=1e-6)
        [row] = run_preparation_study(params, slope_z0_values=(0.05,),
                                      config=cfg, t_window=9.5e-7)
        assert row.absorbed_ideal > 0


class TestWindowPastRecord:
    """An averaging window that ends after the evolved time is rejected
    before anything is evolved."""

    CFG = EvolveConfig(dt=1e-7, t_final=1e-5)

    def test_comparison(self):
        with pytest.raises(ConfigError, match="t_average_window"):
            run_comparison(PhysicalParams(), config=self.CFG,
                           t_average_window=2e-5)

    def test_sweep(self):
        spec = SweepSpec(z0_values=(2.0e-6,), t_average_window=2e-5)
        with pytest.raises(ConfigError, match="t_average_window"):
            run_sweep(PhysicalParams(), spec, config=self.CFG, workers=1)

    def test_fitted_control(self):
        with pytest.raises(ConfigError, match="t_average_window"):
            run_fitted_control(config=self.CFG, t_average_window=2e-5)

    def test_preparation_study(self):
        params = PhysicalParams()
        with pytest.raises(ConfigError, match="t_window"):
            run_preparation_study(params, slope_z0_values=(0.05,),
                                  config=self.CFG, t_window=2e-5)

    def test_window_equal_to_evolved_time_accepted(self):
        # 200 * 1e-7 rounds to just below 2e-5; that is not a longer window
        cfg = EvolveConfig(dt=1e-7, t_final=2e-5)
        assert cfg.n_steps * cfg.dt < 2e-5
        res = run_comparison(PhysicalParams(), config=cfg,
                             t_average_window=2e-5)
        assert res.averaged_ratio == np.mean(res.ratios[res.ratio_times <= 2e-5])


class TestNonPositiveWindow:
    """A window of zero, below zero or NaN averages nothing; every study
    rejects it before anything is evolved, also when the config sets the
    evolved time itself."""

    CFG = EvolveConfig(dt=1e-7, t_final=2e-6)
    WINDOWS = pytest.mark.parametrize("window", [0.0, -1e-6, float("nan")])

    @pytest.fixture
    def evolved(self, monkeypatch):
        calls = []
        monkeypatch.setattr("qpot.experiments.evolve",
                            lambda *args, **kwargs: calls.append(args))
        return calls

    @WINDOWS
    def test_comparison(self, evolved, window):
        with pytest.raises(ConfigError, match="t_average_window must be positive"):
            run_comparison(PhysicalParams(), config=self.CFG, t_average_window=window)
        assert evolved == []

    @WINDOWS
    def test_fitted_control(self, evolved, window):
        with pytest.raises(ConfigError, match="t_average_window must be positive"):
            run_fitted_control(config=self.CFG, t_average_window=window)
        assert evolved == []

    @WINDOWS
    def test_sweep(self, evolved, window):
        # SweepSpec takes any window; run_sweep's window_config rejects it
        with pytest.raises(ConfigError, match="t_average_window must be positive"):
            spec = SweepSpec(z0_values=(2.0e-6,), t_average_window=window)
            run_sweep(PhysicalParams(), spec, config=self.CFG, workers=1)
        assert evolved == []

    @WINDOWS
    def test_preparation_study(self, evolved, window):
        with pytest.raises(ConfigError, match="t_window must be positive"):
            run_preparation_study(PhysicalParams(), config=self.CFG, t_window=window)
        assert evolved == []


class TestConcurrentEvolves:
    """The packets of one comparison, fitted control or preparation study
    evolve on threads: each record is bitwise the serial evolve, the
    records keep their packet order, and a failing packet's exception
    comes back unchanged."""

    CFG = EvolveConfig(dt=1e-7, t_final=2e-5)

    def assert_serial(self, record, psi, params):
        serial = evolve(psi, total_potential(psi.grid, params), params, self.CFG)
        assert np.array_equal(record.times, serial.times)
        assert np.array_equal(record.norms, serial.norms)
        assert np.array_equal(record.absorbed_fraction, serial.absorbed_fraction)

    @pytest.fixture
    def threads(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def test_comparison_matches_serial(self, threads):
        params = PhysicalParams()
        res = run_comparison(params, config=self.CFG, t_average_window=2e-5)
        assert list(res.records) == ["engineered", "gaussian"]
        grid = default_grid(params)
        self.assert_serial(res.records["engineered"],
                           real_engineered_packet(grid, params), params)
        self.assert_serial(res.records["gaussian"],
                           gaussian_packet(grid, params.z0, params.sigma), params)

    def test_fitted_control_matches_serial(self, threads):
        res = run_fitted_control(config=self.CFG, t_average_window=2e-5)
        assert list(res.records) == ["engineered", "fitted_gaussian"]
        p_eng = PhysicalParams().replace(z0=1.43e-6, sigma=1e-6)
        p_fit = PhysicalParams().replace(z0=2.3e-6, sigma=1e-6)
        grid = default_grid(p_fit)  # the box that holds z0 + 6 sigma of both
        self.assert_serial(res.records["engineered"],
                           real_engineered_packet(grid, p_eng), p_eng)
        self.assert_serial(res.records["fitted_gaussian"],
                           gaussian_packet(grid, p_fit.z0, p_fit.sigma), p_fit)

    def test_preparation_study_matches_serial(self, threads):
        params = PhysicalParams()
        grid = default_grid(params)
        pot = total_potential(grid, params)
        slopes = (0.05 / params.z0, 1.0 / params.z0)
        rows = run_preparation_study(params, slope_z0_values=(0.05, 1.0),
                                     config=self.CFG, t_window=2e-5)
        a_ideal = evolve(real_engineered_packet(grid, params), pot, params,
                         self.CFG).absorbed_at(2e-5)
        assert [row.slope for row in rows] == list(slopes)
        for k, row in zip(slopes, rows):
            psi = two_stage_imprint(grid, params, k)
            assert row.absorbed_ideal == a_ideal
            assert row.absorbed_imprinted == evolve(psi, pot, params,
                                                    self.CFG).absorbed_at(2e-5)
        assert rows[0].absorbed_imprinted != rows[1].absorbed_imprinted

    @pytest.fixture
    def gaussians(self, monkeypatch):
        """The Gaussian packets the experiments build, by identity."""
        made = []

        def tracked(*args):
            made.append(gaussian_packet(*args))
            return made[-1]

        monkeypatch.setattr("qpot.experiments.gaussian_packet", tracked)
        return made

    def test_records_in_packet_order_not_finish_order(self, threads,
                                                      monkeypatch, gaussians):
        def engineered_last(psi, potential, params, config):
            if not any(psi is g for g in gaussians):
                time.sleep(0.3)
            return evolve(psi, potential, params, config)

        monkeypatch.setattr("qpot.experiments.evolve", engineered_last)
        params = PhysicalParams()
        res = run_comparison(params, config=self.CFG, t_average_window=2e-5)
        assert list(res.records) == ["engineered", "gaussian"]
        self.assert_serial(res.records["engineered"],
                           real_engineered_packet(default_grid(params), params), params)

    @pytest.mark.parametrize("error", [NumericsError("synthetic blow-up"),
                                       ValueError("synthetic bug")])
    def test_failing_packet_raises_its_exception(self, threads, monkeypatch,
                                                 gaussians, error):
        def flaky(psi, potential, params, config):
            if any(psi is g for g in gaussians):
                raise error
            return evolve(psi, potential, params, config)

        monkeypatch.setattr("qpot.experiments.evolve", flaky)
        with pytest.raises(type(error), match=str(error)) as info:
            run_comparison(PhysicalParams(), config=self.CFG,
                           t_average_window=2e-5)
        assert info.value is error

    def test_comparison_runs_a_packet_on_this_thread(self, threads, monkeypatch):
        # two packets, two lanes: this thread and a single pool thread
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ran_on = []

        def on_thread(*args):
            ran_on.append(threading.current_thread())
            return evolve(*args)

        monkeypatch.setattr("qpot.experiments.evolve", on_thread)
        run_comparison(PhysicalParams(), config=self.CFG, t_average_window=2e-5)
        assert len(ran_on) == 2
        assert threading.main_thread() in ran_on

    def test_failing_packet_starts_no_further_packet(self, threads, monkeypatch):
        # each of the two lanes holds a packet; the second packet raises, and
        # none of the three after it starts
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        imprinted, started = [], []
        both_hold_a_packet = threading.Barrier(2, timeout=10)

        def tracked(*args):
            imprinted.append(two_stage_imprint(*args))
            return imprinted[-1]

        def flaky(psi, potential, params, config):
            started.append(psi)
            if len(started) <= 2:
                both_hold_a_packet.wait()
            if psi is imprinted[0]:
                raise NumericsError("synthetic blow-up")
            time.sleep(0.5)
            return evolve(psi, potential, params, config)

        monkeypatch.setattr("qpot.experiments.two_stage_imprint", tracked)
        monkeypatch.setattr("qpot.experiments.evolve", flaky)
        params = PhysicalParams()
        with pytest.raises(NumericsError, match="synthetic blow-up"):
            run_preparation_study(params, config=self.CFG, t_window=2e-5)
        assert len(started) == 2


class TestConvergenceLadder:
    """convergence_report builds and checks every rung before the first
    evolve, then runs the rungs in lanes, each row bitwise its serial evolve."""

    PARAMS = PhysicalParams(z0=0.6e-6, sigma=0.1e-6)
    BASE = Grid1D(z_max=1.5e-6, n_points=257)
    T_FINAL = 2e-5

    def report(self, **kwargs):
        return convergence_report(self.PARAMS, packet="gaussian", t_final=self.T_FINAL,
                                  base_grid=self.BASE, **kwargs)

    def absorbed(self, grid, dt):
        config = EvolveConfig(dt=dt, t_final=self.T_FINAL)
        psi = gaussian_packet(grid, self.PARAMS.z0, self.PARAMS.sigma)
        return float(evolve(psi, total_potential(grid, self.PARAMS),
                            self.PARAMS, config).absorbed_fraction[-1])

    @pytest.fixture
    def evolved(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return evolve(*args)

        monkeypatch.setattr("qpot.experiments.evolve", counted)
        return calls

    def test_rows_match_serial_evolves(self, evolved):
        dt_ladder = (1e-6, 5e-7, 2.5e-7)
        rep = self.report(dt_ladder=dt_ladder, n_refinements=2)
        assert len(evolved) == 6
        grids = [Grid1D(z_max=1.5e-6, n_points=n) for n in (257, 513, 1025)]
        assert rep.rows == (
            [("dt", dt, None, self.absorbed(self.BASE, dt)) for dt in dt_ladder]
            + [("dz", g.dz, g.n_points, self.absorbed(g, 2.5e-7)) for g in grids])
        assert all(f > 0 for ladder, _, _, f in rep.rows if ladder == "dt")

    def test_fractions_under_the_floor_read_as_0(self, monkeypatch):
        # rungs keyed by (n_points, dt): the dt ladder moves from 1e-3 to
        # noise, the dz ladder from noise to noise of the other sign
        fractions = {(257, 8e-7): 1e-3, (257, 4e-7): 3e-13, (513, 4e-7): -4.4e-16}
        monkeypatch.setattr("qpot.experiments.evolve_packet", lambda _, grid, p, config: (
            types.SimpleNamespace(absorbed_fraction=[fractions[grid.n_points, config.dt]])))
        rep = self.report(dt_ladder=(8e-7, 4e-7), n_refinements=1)
        assert [f for *_, f in rep.rows] == [1e-3, 3e-13, 3e-13, -4.4e-16]
        assert rep.dt_halving_change == float("inf")  # only the fine rung is noise
        assert rep.dz_halving_change == 0.0  # both rungs are noise

    def test_bad_dt_rung_raises_before_any_evolve(self, evolved):
        with pytest.raises(ConfigError, match="dt = 3e-07"):
            self.report(dt_ladder=(1e-6, 5e-7, 3e-7))
        assert evolved == []

    def test_quartering_ladder_rejected_before_any_evolve(self, evolved):
        # log2 |d1/d2| and the last halving change assume each rung halves
        with pytest.raises(ConfigError, match=r"dt_ladder rung dt = 2e-07 s"):
            self.report(dt_ladder=(8e-7, 2e-7, 1e-7))
        assert evolved == []

    def test_unknown_packet_rejected_before_any_grid(self, monkeypatch, evolved):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr("qpot.experiments.Grid1D", no_grid)
        monkeypatch.setattr("qpot.experiments.default_grid", no_grid)
        with pytest.raises(ConfigError, match="unknown packet 'sine'"):
            convergence_report(self.PARAMS, packet="sine")
        assert evolved == []

    def test_evolve_packet_rejects_an_unknown_packet(self, evolved):
        # the one packet-name check, the one parse_packet and the ladder call
        with pytest.raises(ConfigError, match="^unknown packet 'sine'$"):
            evolve_packet("sine", self.BASE, self.PARAMS,
                          EvolveConfig(dt=1e-7, t_final=self.T_FINAL))
        assert evolved == []

    @pytest.mark.parametrize("dt_ladder, dz_dt", [((2e-7, 1e-7, 5e-8), 1e-7),
                                                  ((8e-7, 4e-7), 4e-7)])
    def test_dz_rungs_run_at_the_production_dt_or_coarser(self, monkeypatch, dt_ladder,
                                                           dz_dt):
        seen = set()
        monkeypatch.setattr("qpot.experiments.evolve_packet", lambda _, grid, p, config: (
            seen.add((grid.n_points, config.dt))
            or types.SimpleNamespace(absorbed_fraction=[1e-3])))
        self.report(dt_ladder=dt_ladder, n_refinements=1)
        assert seen == {(257, dt) for dt in dt_ladder} | {(257, dz_dt), (513, dz_dt)}

    @pytest.mark.parametrize("kwargs", [{"dt_ladder": (1e-6,)}, {"n_refinements": 0},
                                        {"n_refinements": -1}])
    def test_short_ladder_rejected_before_any_evolve(self, evolved, kwargs):
        with pytest.raises(ConfigError, match="needs 2 or more dt rungs"):
            self.report(**kwargs)
        assert evolved == []

    def test_oversized_ladder_rejected_without_allocating(self, monkeypatch, evolved):
        # 256 * 2**40 + 1 points; the bound is checked before any grid is built
        def bounded(**kwargs):
            assert kwargs["n_points"] <= 2**20, "an oversized grid was built"
            return Grid1D(**kwargs)

        monkeypatch.setattr("qpot.experiments.Grid1D", bounded)
        with pytest.raises(ConfigError, match="past 1048576"):
            self.report(n_refinements=40)
        assert evolved == []


class TestConvergenceReport:
    def test_small_ladder_shape(self):
        params = PhysicalParams(z0=1.5e-6, sigma=0.3e-6)
        base = Grid1D(z_max=10e-6, n_points=513)
        rep = convergence_report(params, packet="gaussian",
                                 t_final=1e-4, base_grid=base,
                                 dt_ladder=(8e-7, 4e-7, 2e-7),
                                 n_refinements=2)
        assert [ladder for ladder, *_ in rep.rows] == ["dt"] * 3 + ["dz"] * 3
        assert [n for _, _, n, _ in rep.rows] == [None] * 3 + [513, 1025, 2049]
        assert all(0.0 < f < 1.0 for *_, f in rep.rows)
        assert rep.dt_halving_change >= 0.0
        assert rep.dz_halving_change >= 0.0
