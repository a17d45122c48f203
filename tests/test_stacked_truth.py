"""run_scenario simulates the truth of all seeds in one call of sim.simulate:
the signals are sampled and every model matrix is evaluated once per
scenario, while each seed keeps its own default_rng(seed) stream. These
tests hold every seed's truth to generate_truth with np.array_equal."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from uikf import sim
from uikf.benchmark import benchmark_case

from test_seed_stack import SEEDS, diverging_scenario, first_diverged_step, varying


def scenario(plant, seeds, **overrides):
    """Case 1 over 100 steps on the benchmark plant or on its time-varying form."""
    cfg = benchmark_case(1, duration=1.0, seeds=seeds, **overrides)
    return cfg if plant == "arrays" else replace(cfg, model=varying(cfg.model))


@pytest.mark.parametrize("n_seeds, plant", list(itertools.product(SEEDS, ("arrays", "varying"))))
def test_stacked_truths_equal_generate_truth(n_seeds, plant):
    cfg = scenario(plant, SEEDS[n_seeds], estimators=("uio",))
    truths = sim.run_scenario(cfg).truths
    assert list(truths) == list(cfg.seeds)
    for seed in cfg.seeds:
        want = sim.generate_truth(cfg, seed)
        for name in ("t", "x", "d", "y", "u"):
            assert np.array_equal(getattr(truths[seed], name), getattr(want, name)), (seed, name)


@pytest.mark.parametrize("n_seeds", sorted(SEEDS))
def test_the_truth_evaluates_C_once_per_step_for_all_seeds(n_seeds):
    cfg = scenario("arrays", SEEDS[n_seeds])
    C, calls = cfg.model.C, []

    def counted(k):
        calls.append(k)
        return C(k)

    cfg = replace(cfg, model=replace(cfg.model, C=counted))
    calls.clear()
    rngs = [np.random.default_rng(s) for s in cfg.seeds]
    sim.simulate(cfg.model, cfg.x0_true, sim.sample_signals(cfg), rngs)
    assert len(calls) == cfg.n_steps                   # steps 1..K; the shape is the model's, read at 0
    calls.clear()
    sim.run_scenario(cfg)                                # r4skf and a2kf read C(k + 1) once per step
    assert len(calls) == 2 * cfg.n_steps


@pytest.mark.parametrize("seeds", [(0, 3), (3, 0)])
def test_the_first_diverging_seed_in_config_order_is_named(seeds):
    """Seed 3 diverges one step before seed 0; the first seed of the config is
    reported with its own first bad step."""
    cfg = diverging_scenario(seeds)
    steps = [first_diverged_step(cfg, s) for s in seeds]
    assert steps[0] != steps[1]
    with pytest.raises(FloatingPointError, match=rf"^truth, seed {seeds[0]}, step {steps[0]}: diverged"):
        sim.run_scenario(cfg)
