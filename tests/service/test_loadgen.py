"""Load generator: config validation and a small live benign run."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    LoadConfig,
    LoadGenerator,
    ServiceConfig,
    ServiceCoordinator,
)


class TestLoadConfig:
    def test_defaults_match_the_acceptance_scenario(self):
        config = LoadConfig()
        assert (config.n_benign, config.n_bots) == (200, 20)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_benign": -1},
            {"n_bots": -1},
            {"benign_rps": 0.0},
            {"bot_profile": "trickle"},
            {"window": 0.0},
            {"window": -0.5},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LoadConfig(**kwargs)

    def test_client_id_spaces_are_disjoint(self):
        load = LoadGenerator(
            LoadConfig(n_benign=5, n_bots=3),
            control_host="127.0.0.1",
            control_port=1,
        )
        assert len(load.benign_ids) == 5
        assert len(load.bot_ids) == 3
        assert not set(load.benign_ids) & set(load.bot_ids)


class TestLiveBenignRun:
    def test_benign_population_is_served_and_sampled(self):
        service_config = ServiceConfig(
            n_replicas=2, telemetry_port=None, detection_interval=0.5
        )
        load_config = LoadConfig(
            n_benign=6, n_bots=0, benign_rps=8.0, window=0.25, seed=3
        )

        async def scenario():
            coordinator = ServiceCoordinator(service_config)
            await coordinator.start()
            try:
                load = LoadGenerator(
                    load_config,
                    control_host=service_config.host,
                    control_port=coordinator.control_port,
                    context=lambda: {
                        "attacked": [],
                        "n_active": coordinator.pool.n_active,
                        "shuffles_completed": (
                            coordinator.shuffles_completed
                        ),
                    },
                )
                windows = await load.run(duration=2.0)
                return load, windows, dict(coordinator.assignments)
            finally:
                await coordinator.stop()

        load, windows, assignments = asyncio.run(scenario())
        assert load.total_ok > 0
        # No bots, capacity provisioned for the population: everything
        # the clients sent should have been served.
        assert load.total_ok == load.total_sent
        assert windows, "sampler must emit QoS windows"
        assert all(w.active_replicas == 2 for w in windows)
        assert set(assignments) == set(load.benign_ids)
        served_windows = [w for w in windows if w.benign_sent]
        assert served_windows
        assert all(
            w.success_ratio == 1.0 and w.mean_latency > 0.0
            for w in served_windows
        )
