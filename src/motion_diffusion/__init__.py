"""Desk-scale conditional denoising diffusion for 3D human motion prediction.

The package is organized as a small library plus a command-line
pipeline:

- numerics: dense float64 arrays with a reverse-mode gradient tape
- motion_data: sequences, windowing, normalization, MSEQ2 file I/O
- diffusion: noise schedule, forward/reverse process, loss, samplers
- denoiser: series and parallel spatio-temporal attention predictors
- training: Adam loop with CKPT2 checkpointing and bit-exact resume
- metrics: APD, displacement errors, euler-angle MSE, CSV reports
- gradcheck: finite-difference verification of every gradient path
- cli: `motiondiff` subcommands wiring the above together
"""

__version__ = "0.1.0"

from .denoiser import (DenoiserConfig, DenoiserModel, init_denoiser, param_shapes,
                       positional_encoding)
from .diffusion import (NoiseSchedule, batch_noise_loss, build_schedule,
                        forward_noise, mu_theta, reverse_step,
                        sample_deterministic, sample_stochastic)
from .errors import (ConfigError, ContractError, DimensionError, IntegrityError,
                     NumericsError, ParseError, SamplingDivergedError,
                     TrainingDivergedError, UndefinedMetricError)
from .gradcheck import (GradCheckReport, central_difference, check_ops,
                        probe_loss_gradients, relative_error, run_suite)
from .metrics import (MetricsReport, SampleSet, apd, compute_report,
                      displacement_errors, euler_mse, final_displacement_errors,
                      wrap_angle, write_report_csv)
from .motion_data import (MotionSequence, Normalizer, PredictionTask,
                          fit_normalizer, load_dataset, load_manifest,
                          load_motion_file, save_manifest, save_motion_file,
                          split_sequences, synth_dataset, window_split)
from .numerics import Tape, Tensor, constant
from .training import (Checkpoint, TrainConfig, TrainResult, adam_step,
                       load_checkpoint, save_checkpoint, train)

__all__ = [name for name in dir() if not name.startswith("_")]
