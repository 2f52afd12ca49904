"""Recall-and-learn optimization lab.

Adam-family steppers with a decoupled quadratic recall penalty and
sigmoid objective shifting, plus synthetic transfer tasks and an
experiment harness for forgetting analysis at desk scale.
"""

from .errors import (ConfigError, DimensionError, InvalidBatchError,
                     NoDataError, NumericError, UnsupportedTaskError)
from .numkit import RandomSource, l2_distance
from .optim import (AdamConfig, AdamState, ScheduleMultiplier, adam_step,
                    adamw_step, coupled_recadam_step, recadam_step,
                    recadam_step_parts, schedule_multiplier)
from .recall import (HessianSummary, PenaltyModel, analytic_hessian_quadratic,
                     estimate_diag_fisher, fit_isotropic_gamma, load_penalty,
                     penalty_grad, penalty_loss, save_penalty)
from .shifting import AnnealSchedule, composite_loss, lambda_at
from .storage import read_vector, write_vector
from .tasks import (Task, TransferPair, batch_stream, finite_diff_grad,
                    gen_linear_regression_task, gen_logistic_regression_task,
                    gen_quadratic_task, gen_transfer_pair, make_mlp_task,
                    task_from_json, task_from_spec, task_to_json)

__version__ = "0.1.0"
