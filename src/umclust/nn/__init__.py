from .adam import Adam
from .checkpoint import load_checkpoint, save_checkpoint
from .mlp import AutoencoderBundle, build_bundle
from .tensor import Tensor

__all__ = [
    "Adam",
    "AutoencoderBundle",
    "Tensor",
    "build_bundle",
    "load_checkpoint",
    "save_checkpoint",
]
