"""Gradient-free generative design optimization on tabular design vectors.

The toolkit pretrains a denoising diffusion model on design-parameter
vectors, fine-tunes it with reward-weighted maximum likelihood, and samples
high-reward designs by soft-value importance resampling. Reward models are
strictly black boxes: an analytic ship-resistance evaluator, a feasibility
penalized airfoil scorer, and a boosted-tree surrogate are included, and
none of them is ever differentiated.
"""

from rddkit.diffusion import (
    NoiseSchedule,
    make_schedule,
    forward_marginal,
    reverse_step,
    posterior_mean_x0,
)
from rddkit.config import NetSection, FinetuneSection, SvddSection
from rddkit.denoiser import (
    DenoiserParams,
    OptimizerState,
    init_params,
    predict_noise,
    loss_and_grad_arrays,
    adam_step,
    save_model,
    load_model,
)
from rddkit.data import Dataset, NormStats, normalize, denormalize, load_dataset, save_samples
from rddkit.pretrain import train_ddpm, ancestral_sample
from rddkit.rewards import (
    SyntheticTargetReward,
    HullResistanceReward,
    SurrogateReward,
    soft_weight,
    airfoil_feasibility_penalty,
    check_self_intersection,
    ship_reward,
)
from rddkit.sampler import svdd_generate
from rddkit.finetune import finetune, rollin_collect, weighted_epoch
from rddkit.hull import (
    HullDims,
    ResistanceResult,
    scale_params,
    constraint_violation,
    half_breadth,
    wetted_surface_area,
    michell_wave_resistance,
    wave_resistance_coefficient,
    friction_coefficient,
    friction_resistance,
    aggregate_total_resistance,
    aggregate_resistances,
)
from rddkit.trees import TreeEnsemble, fit_ensemble, predict_ensemble, r2_score
from rddkit.metrics import BoxplotStats, boxplot_stats, kde, beyond_distribution

__version__ = "0.1.0"
