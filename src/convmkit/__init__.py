"""convmkit: compact three-branch CNN with exact parameter auditing and
MMD-based unsupervised domain adaptation, on a from-scratch autodiff core."""

from .tensor import Tensor
from .layers import ConvM, ConvMConfig
from .network import (NetworkSpec, Network, build_network, reference_spec,
                      tiny_spec, attach_da_heads, attach_decoders, propagate_shapes)
# note: the audit/gradcheck submodules each define a function of the same
# name; re-export those under distinct names so convmkit.audit and
# convmkit.gradcheck stay bound to the modules
from .audit import (ParamReport, count_network, branch_counts, solve_groups,
                    REFERENCE_COUNTS, REFERENCE_TOTAL)
from .audit import audit as audit_params
from .mmd import gaussian_kernel, median_bandwidth, mmd_loss
from .da import (DAConfig, SolverConfig, DADatasets, DomainBatch, DomainSampler,
                 sampling_ratio, da_loss, train_da, evaluate)
from .optim import SGDMomentum, poly_lr
from .gradcheck import run_default_suite
from .gradcheck import gradcheck as check_gradients

__version__ = "0.1.0"
