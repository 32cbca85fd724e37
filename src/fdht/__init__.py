"""Hierarchical Tucker decomposed linear layers and the fully-decomposed
HT LSTM: exact forward kernel without dense-weight materialization,
reverse-mode gradients for all factors, exact parameter accounting, and a
desk-scale training harness."""

from .complexity import emit_rank_sweep, scheme_params
from .grad import finite_diff_check, htl_backward
from .ht import (DimNode, DimTree, HTWeight, OracleSizeError, build_dim_tree,
                 factor_shapes, htl_forward, init_ht_weight, param_count_config,
                 reconstruct_dense)
from .io import (deserialize_checkpoint, load_checkpoint, save_checkpoint,
                 serialize, serialize_checkpoint)
from .lstm import (DenseGateMap, DenseLstmCell, FdhtLstmCell, Head, HtGateMap,
                   LstmState, bptt, forward_sequence, make_cell, make_head)
from .tensor import contract, contract_vjp
from .train import (AdamState, EpochRecord, SyntheticTask, TrainConfig,
                    TrainingError, adam_step, evaluate, generate_task,
                    history_csv, train)

__all__ = [name for name in dir() if not name.startswith("_")]
