"""Workload configs for the splinelab benchmark, generated from a seed.

Every workload is a list of fully explicit experiment configs, each built from
the experiment's own default config.  The benchmark seed selects one of
`N_VARIANTS` input variants; variant v shifts every experiment seed by
`SEED_STRIDE * v`, which changes the random meshes, measures, atom blocks and
probe points.  Seed 0 is variant 0, the experiments' own default seeds.

Meshes that the default configs draw with `random-atom-bisect` at
`p_split = 0.7` have an atom count that varies threefold between seeds, and
the run time with it.  The benchmark therefore refines them with
`p_split = 1.0`: every atom splits at a random fraction in [0.35, 0.65], so
the seed moves breakpoints but not the number of atoms.
"""

from __future__ import annotations

N_VARIANTS = 10
SEED_STRIDE = 1000

WORKLOADS = ("dual-decay", "tensor-martingale", "maximal-covering")


def graded_rule(base_atoms: int) -> dict:
    """Random split positions, fixed atom count base_atoms * 2**level."""
    return {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": base_atoms}


def variant(seed: int) -> int:
    return int(seed) % N_VARIANTS


def _dual_decay(default_config) -> list:
    shadrin = default_config("shadrin")
    shadrin["params"]["n_seeds"] = 2
    cfgs = [shadrin]
    # three decay depths give decay_profile three distinct dimensions (387, 771, 1539 at k=4)
    for depth in (7, 8, 9):
        decay = default_config("decay")
        decay["depth"] = depth
        decay["params"].update(orders=[2, 3, 4], n_seeds=2, rule=graded_rule(3))
        cfgs.append(decay)
    return cfgs


def _tensor_martingale(default_config) -> list:
    converge = default_config("converge")
    converge["params"]["cases"] = [c for c in converge["params"]["cases"] if c["d"] == 2]
    converge["params"]["catalog"] = ["smooth-exp", "polynomial"]
    singular = default_config("singular")
    singular["depth"] = 8
    singular["params"].update(d=2, orders=[2, 2])
    singular["params"]["measure"]["diracs"] = [{"location": [0.3, 0.6], "mass": [1.0]}]
    return [converge, singular, default_config("nondense")]


def _maximal_covering(default_config) -> list:
    covering = default_config("covering")
    covering["params"]["n_seeds"] = 6
    covering["params"]["cases"] = [
        {"d": 1, "depth": 10, "K": 2, "rule": graded_rule(1)},
        {"d": 2, "depth": 9, "K": 2, "rule": graded_rule(1)},
    ]
    return [covering, default_config("weaktype")]


_CONFIG_MAKERS = {
    "dual-decay": _dual_decay,
    "tensor-martingale": _tensor_martingale,
    "maximal-covering": _maximal_covering,
}


def workload_configs(name: str, seed: int) -> list:
    """Experiment configs of workload `name` for benchmark seed `seed`."""
    if name not in _CONFIG_MAKERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    from splinelab.experiments import default_config

    shift = SEED_STRIDE * variant(seed)
    cfgs = _CONFIG_MAKERS[name](default_config)
    for cfg in cfgs:
        cfg["seed"] = int(cfg["seed"]) + shift
    return cfgs
