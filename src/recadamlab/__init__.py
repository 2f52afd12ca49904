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
from .recall import PenaltyModel, estimate_diag_fisher, penalty_grad, penalty_loss
from .shifting import AnnealSchedule, composite_loss, lambda_at
from .storage import read_vector, write_vector
from .tasks import Task, TransferPair, batch_stream, gen_task, gen_transfer_pair

__version__ = "0.1.0"
