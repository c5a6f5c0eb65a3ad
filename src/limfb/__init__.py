"""Limited-feedback multi-user MIMO downlink simulation lab.

Compares mixture-model-based feedback (component index by responsibility,
precoding from directional representatives or generated samples) against
DFT-codebook feedback over estimated CSI, end to end: scene generation,
mixture training with full or block-Toeplitz covariances, feedback
inference, RCI and stochastic WMMSE precoding, and sum-rate sweeps.
"""

from .estimators import (build_omp_dictionary, estimate_gmm, estimate_lmmse,
                         estimate_omp)
from .evaluate import (Experiment, ExperimentConfig, SweepResult, dump_raw,
                       emit_csv, export_trajectory_csv, run_sweep, sum_rate)
from .feedback import (FeedbackReport, PilotSetup, build_dft_codebook,
                       build_pilot_matrix, mixture_feedback, observe,
                       select_codebook_index)
from .gmm import (EmOptions, GmmModel, ObservationGmm, fit_em, load_model,
                  param_count, project_to_observation, sample_moments,
                  save_model)
from .precoding import (PrecoderSet, directional_representatives,
                        rci_precoders, swmmse_precoders, swmmse_samples,
                        swmmse_white)
from .scene import (ArrayGeometry, ChannelDataset, SceneConfig,
                    generate_channels, load_dataset, load_scene_config,
                    normalize_dataset, save_dataset, steering_vector)
from .toeplitz import check_structure, realize_spectral, toeplitz_mstep

__version__ = "0.1.0"
