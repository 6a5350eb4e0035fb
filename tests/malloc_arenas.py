"""Each glibc malloc arena's current size after one pool pass on two threads.

    PYTHONPATH=src python tests/malloc_arenas.py

runs ``orchestrator._pool_inference`` on two threads over a 452-image
32x32 pool (posteriors, features and predicted accuracy), with the heap
pinned and OpenBLAS on one thread as ``paal run`` has them, and prints one
JSON list of sizes in bytes, the main arena's first. A helper thread's
arena keeps its high-water for the rest of the process, so the other
entries show what inference threads leave behind.
"""

import ctypes
import json
import os
import re
import tempfile

import numpy as np


def arena_sizes() -> list[int]:
    """Each malloc arena's current size in bytes, the main arena first, as
    glibc's ``malloc_info`` reports them."""
    libc = ctypes.CDLL(None)
    libc.fopen.restype = ctypes.c_void_p
    libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
    libc.fclose.restype = ctypes.c_int
    libc.fclose.argtypes = (ctypes.c_void_p,)
    libc.malloc_info.restype = ctypes.c_int
    libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "malloc_info.xml")
        stream = libc.fopen(path.encode(), b"w")
        if not stream:
            raise OSError(f"could not open {path} for malloc_info")
        failed = libc.malloc_info(0, stream)
        if libc.fclose(stream) or failed:
            raise OSError("malloc_info could not write its report")
        with open(path, encoding="ascii") as fh:
            xml = fh.read()
    heaps = re.findall(r'<heap nr="\d+">.*?</heap>', xml, re.S)
    return [int(re.search(r'<system type="current" size="(\d+)"/>',
                          heap).group(1)) for heap in heaps]


def main() -> None:
    from paal.cli import _pin_heap
    from paal.data import Dataset
    from paal.experiment import _one_blas_thread
    from paal.models import build_ap_model, build_seg_model
    from paal.orchestrator import _pool_inference

    _pin_heap()
    _one_blas_thread()
    rng = np.random.default_rng(73)
    images = rng.integers(0, 256, size=(452, 32, 32), dtype=np.uint8)
    pool = Dataset(images, rng.integers(0, 4, size=images.shape,
                                        dtype=np.uint8), 3)
    _pool_inference(build_seg_model(4, seed=1), build_ap_model(4, seed=2),
                    pool, np.arange(len(images)),
                    ("probs", "features", "pred_acc"), 2)
    print(json.dumps(arena_sizes()))


if __name__ == "__main__":
    main()
