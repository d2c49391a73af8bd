"""Golden bit-identity of the drone policy's supervised pretraining.

The expert dataset and the pretrained weights are pinned to values recorded
with the per-action expert loop, the per-ray Python ray caster and the
per-output-pixel conv/pool backward loops.  The vectorized expert and the
per-offset backward scatters must reproduce them exactly: a change to the
order of RNG draws (pose, rejection, heading), to the ray-casting arithmetic
or to the order in which gradients are summed changes these hashes.
"""

import hashlib

import numpy as np
import pytest

from repro.envs.drone.env import make_drone_env
from repro.envs.drone.expert import GreedyDepthExpert, collect_dataset
from repro.experiments.common import build_drone_bundle, clear_drone_cache
from repro.experiments.config import DroneConfig

CONFIG = DroneConfig(pretrain_samples=40, pretrain_extra_env_samples=30, pretrain_epochs=2)

#: sha256 of (images, targets) per environment, in build_drone_bundle's order.
DATASET_SHA256 = {
    0: [
        (
            "7bd7ee111d75c45210aa5fe7d47a6f4f9b0260b0e5a22996f5843f8011c64a61",
            "8688c454bd131d4dbc6eacfd0f0aefb4a8b33669c950439c5cd92a5e35ac56e0",
        ),
        (
            "e1bcc261a711d8b64a4bc00396a6b3ca6eeca4f37af075b27bb82370bc3448d3",
            "93f28ccd285ee7f3aeae83a013c810fa5b75a2990a57fd94ca75edd8f7c50a7a",
        ),
    ],
    3: [
        (
            "1e96c957dd0e5852d307ea74c640e8bf766d1759844b9c3cbd4023a7e0f21cd4",
            "5df0348016be456f4ee3334c02100c63b36613e616ddcaf9ae5d6b79826a0d6e",
        ),
        (
            "2cf4e10fe981a0adaf1d4d5889c7bbb1fa32d8addddfe24c849f85180d44a615",
            "c748c445fbec29b5ea0bcc9f9242452c59ec425bfddb98adc09c4fb98c299e6b",
        ),
    ],
}

#: sha256 of the pretrained parameters, concatenated in sorted-name order.
CLEAN_STATE_SHA256 = {
    0: "224f6ea542c1cccd3814060288b61da8de1b425e054a199a33c834bc44b3d493",
    3: "3e82efcaffc7c6385337958e1477c8d7434e142eb4e2122735a0a9a1d07f3442",
}


def _sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [0, 3])
def test_expert_dataset(seed):
    rng = np.random.default_rng(seed)
    plan = [
        ("indoor-long", CONFIG.pretrain_samples),
        ("indoor-vanleer", CONFIG.pretrain_extra_env_samples),
    ]
    hashes = []
    for name, samples in plan:
        env = make_drone_env(name, image_size=CONFIG.image_size)
        images, targets = collect_dataset(env, GreedyDepthExpert(env), samples, rng)
        hashes.append((_sha256(images), _sha256(targets)))
    assert hashes == DATASET_SHA256[seed]


@pytest.mark.parametrize("seed", [0, 3])
def test_pretrained_weights(seed):
    clear_drone_cache()
    try:
        state = build_drone_bundle(CONFIG, seed=seed).clean_state
        assert _sha256(*(state[name] for name in sorted(state))) == CLEAN_STATE_SHA256[seed]
    finally:
        clear_drone_cache()
