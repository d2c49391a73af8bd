"""Fault-injection tool-chain (the paper's primary contribution).

The tool-chain emulates hardware faults in the memories of a learning-based
navigation system and enables rapid fault analysis in both training and
inference:

* :mod:`repro.core.fault_models` — transient bit-flip and permanent
  stuck-at-0 / stuck-at-1 fault models parameterized by bit error rate.
* :mod:`repro.core.sites` — addressing of fault locations (which buffer,
  which element, which bit) and reusable fault patterns.
* :mod:`repro.core.injector` — static and dynamic injection into agent
  memory buffers and accelerator buffers, plus training-loop hooks.
* :mod:`repro.core.campaign` — repetition / statistics machinery for
  large-scale fault-injection campaigns.
* :mod:`repro.core.runner` — the campaign engine: in-process or on a
  process pool, scalar or batched-vectorized, streaming results to
  checkpoints as they complete.
* :mod:`repro.core.evaluator` — batched evaluation of B fault-injected
  policy replicas through stacked quantized buffers.
* :mod:`repro.core.mitigation` — the two mitigation techniques of Sec. 5.
"""

from repro.core.fault_models import (
    FaultType,
    FaultModel,
    TransientBitFlip,
    StuckAtFault,
    make_fault_model,
)
from repro.core.sites import FaultPattern, BufferSelector, apply_patterns_stacked
from repro.core.injector import (
    FaultInjector,
    TransientTrainingFaultHook,
    PermanentTrainingFaultHook,
    ActivationFaultInjector,
    InputFaultInjector,
)
from repro.core.campaign import Campaign, CampaignResult, TrialOutcome
from repro.core.runner import (
    CampaignRunner,
    TrialExecutionError,
    default_batch_size,
    default_workers,
    executed_trial_count,
    supports_batching,
)
from repro.core.evaluator import BatchedEvaluator

__all__ = [
    "FaultType",
    "FaultModel",
    "TransientBitFlip",
    "StuckAtFault",
    "make_fault_model",
    "FaultPattern",
    "BufferSelector",
    "apply_patterns_stacked",
    "FaultInjector",
    "TransientTrainingFaultHook",
    "PermanentTrainingFaultHook",
    "ActivationFaultInjector",
    "InputFaultInjector",
    "Campaign",
    "CampaignResult",
    "TrialOutcome",
    "CampaignRunner",
    "BatchedEvaluator",
    "TrialExecutionError",
    "default_workers",
    "default_batch_size",
    "executed_trial_count",
    "supports_batching",
]
