"""Ways to damage a saved checkpoint, shared by the loader, CLI and trainer tests."""

from __future__ import annotations

import struct
import zipfile

import numpy as np


def flip_a_data_byte(path, name: str) -> None:
    """Flip one bit in the last value of entry `name`'s array data, leaving
    its header and the container intact: only the member's CRC tells."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{name}.npy")
    raw = bytearray(path.read_bytes())
    # a local file header is 30 fixed bytes, then the member name and its extra field
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26 : info.header_offset + 30])
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size - 8] ^= 0x01
    path.write_bytes(bytes(raw))


def rewrite_entries(path, edit) -> None:
    """Save the checkpoint at `path` again after `edit(arrays)` has changed its entries."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def set_first_value(path, name: str, value: float) -> None:
    """Rewrite the checkpoint with the first element of entry `name` set to `value`."""

    def edit(arrays):
        arrays[name].reshape(-1)[0] = value

    rewrite_entries(path, edit)
