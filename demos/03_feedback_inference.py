"""Inferring feedback indices from pilot observations.

The mixture route projects the channel-domain model into the observation
domain once (per pilot configuration and SNR) and then picks the component
with the largest responsibility of each noisy observation; no channel
estimate is ever formed. The codebook route estimates the channel first and
correlates it against a DFT grid.
"""

import numpy as np

from limfb import (ArrayGeometry, EmOptions, SceneConfig,
                   build_dft_codebook, build_omp_dictionary,
                   build_pilot_matrix, estimate_gmm, estimate_lmmse,
                   estimate_omp, fit_em, generate_channels, mixture_feedback,
                   normalize_dataset, observe, project_to_observation,
                   sample_moments, select_codebook_index)

geometry = ArrayGeometry(2, 8, 1.0, 0.5)
scene = SceneConfig(geometry, seed=7)
train = normalize_dataset(generate_channels(scene, 5000, sample_seed=1))
evalset = normalize_dataset(generate_channels(scene, 200, sample_seed=2))

model = fit_em(train, 16, options=EmOptions(max_iters=40, seed=3))

n_pilots, snr_db = 4, 10.0
sigma_n2 = 10.0 ** (-snr_db / 10.0)
setup = build_pilot_matrix(geometry, n_pilots, sigma_n2=sigma_n2)
print(f"{n_pilots} pilots at {snr_db:.0f} dB SNR "
      f"(N={geometry.n}: heavily compressed observations)")

observation_model = project_to_observation(model, setup)
codebook = build_dft_codebook(geometry, 4)
omp_grid = build_omp_dictionary(geometry)
train_mean, train_cov = sample_moments(train.samples)

channels = evalset.samples[:10].astype(np.complex128)
observations = np.array([observe(setup, h, seed=[100, j])
                         for j, h in enumerate(channels)])
from_obs = mixture_feedback(observation_model, observations)
from_csi = mixture_feedback(model, channels)
agree = int(np.sum(from_obs == from_csi))
h_gmm = estimate_gmm(model, observation_model, observations)

rows = []
for j, y in enumerate(observations):
    h_lmmse = estimate_lmmse(train_mean, train_cov, setup, y)
    h_omp = estimate_omp(setup, omp_grid, y)
    rows.append((j, from_obs[j], from_csi[j],
                 select_codebook_index(codebook, h_gmm[j]).index,
                 select_codebook_index(codebook, h_lmmse).index,
                 select_codebook_index(codebook, h_omp).index))

print(f"\n{'user':>4} {'gmm(y)':>7} {'gmm(h)':>7} {'dft:gmm':>8} "
      f"{'dft:lmmse':>10} {'dft:omp':>8}")
for row in rows:
    print(f"{row[0]:>4} {row[1]:>7} {row[2]:>7} {row[3]:>8} "
          f"{row[4]:>10} {row[5]:>8}")
print(f"\nobservation-based index matches the perfect-CSI index for "
      f"{agree}/10 users despite {n_pilots} pilots only")
