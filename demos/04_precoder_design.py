"""Two ways from feedback indices to downlink precoders.

Directional: represent each user by the dominant eigenvector of its
component correlation matrix and invert jointly (RCI). Generative: redraw
channel samples from the reported components every iteration and run the
stochastic WMMSE, which trades extra compute for higher sum-rate. The
design's randomness is its unit draws: one (T + 1, J, N) array from a seed,
turned into channel samples of the reported components once, before the
design. Designs with the same components and draws can share the samples.
"""

import tempfile
from pathlib import Path

import numpy as np

from limfb import (ArrayGeometry, EmOptions, SceneConfig, build_pilot_matrix,
                   directional_representatives, export_trajectory_csv, fit_em,
                   generate_channels, mixture_feedback, normalize_dataset,
                   observe, project_to_observation, rci_precoders, sum_rate,
                   swmmse_precoders, swmmse_samples, swmmse_white)

geometry = ArrayGeometry(2, 8, 1.0, 0.5)
scene = SceneConfig(geometry, seed=7)
train = normalize_dataset(generate_channels(scene, 5000, sample_seed=1))
evalset = normalize_dataset(generate_channels(scene, 100, sample_seed=2))
model = fit_em(train, 16, options=EmOptions(max_iters=40, seed=3))

n_users, rho, sigma_n2 = 4, 1.0, 0.1
setup = build_pilot_matrix(geometry, 8, sigma_n2=sigma_n2, rho=rho)
observation_model = project_to_observation(model, setup)

rng = np.random.default_rng(42)
users = rng.choice(len(evalset), size=n_users, replace=False)
channels = evalset.samples[users].astype(np.complex128)
observations = np.array([observe(setup, h, seed=[7, j])
                         for j, h in enumerate(channels)])
indices = mixture_feedback(observation_model, observations)
print("reported component indices:", indices.tolist())

chosen = directional_representatives(model, indices)
rci = rci_precoders(chosen, sigma_n2, rho)
print(f"\nRCI: power {rci.power:.6f} (budget {rho}), "
      f"sum-rate {sum_rate(channels, rci, sigma_n2):.3f} bps/Hz")

white = swmmse_white(1, 301, n_users, geometry.n)  # T = 300 iterations
samples = swmmse_samples(model, indices, white)  # (T + 1, J, N)
swmmse = swmmse_precoders(samples, sigma_n2, rho)
print(f"SWMMSE: power {swmmse.power:.6f}, "
      f"sum-rate {sum_rate(channels, swmmse, sigma_n2):.3f} bps/Hz")

snapshots = swmmse.metadata["precoders"]
print("\nsum-rate on the true channels over SWMMSE iterations:")
for t in (1, 10, 30, 100, 300):
    rate = sum_rate(channels, snapshots[t - 1], sigma_n2)
    print(f"  iteration {t:>3}: {rate:.3f} bps/Hz")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trajectory.csv"
    export_trajectory_csv(swmmse, path)
    print(f"\ntrajectory CSV ({path.stat().st_size} bytes), first lines:")
    for line in path.read_text().splitlines()[:4]:
        print("  " + line)
