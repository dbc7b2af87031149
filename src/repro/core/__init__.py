"""DualTable: the paper's hybrid storage model (core contribution)."""

from repro.core.attached import AttachedTable, DeltaRecord
from repro.core.cost_model import CostModel, PlanChoice, cost_d_paper, cost_u_paper
from repro.core.handler import DualTableHandler
from repro.core.master import MasterTable
from repro.core.metadata import DualTableMetadata
from repro.core.record_id import (RECORD_ID_BYTES, decode_record_id,
                                  encode_record_id, file_key_range)
from repro.core.union_read import (DeltaOverlay, apply_update, build_overlay,
                                   classify_merge_units, union_read_file,
                                   union_read_overlay)

__all__ = [
    "AttachedTable",
    "DeltaRecord",
    "CostModel",
    "PlanChoice",
    "cost_u_paper",
    "cost_d_paper",
    "DualTableHandler",
    "MasterTable",
    "DualTableMetadata",
    "RECORD_ID_BYTES",
    "encode_record_id",
    "decode_record_id",
    "file_key_range",
    "union_read_file",
    "union_read_overlay",
    "DeltaOverlay",
    "build_overlay",
    "classify_merge_units",
    "apply_update",
]
