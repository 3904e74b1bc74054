"""Native C kernel tier: in-repo compilation, loading and dispatch.

This module is the third graph-core kernel tier (``"native"`` in
:data:`repro.graph.bitset_np.GRAPH_BACKENDS`).  The kernels live in
``kernels.c`` next to this file and are compiled on first use into
``_build/kernels-<fingerprint>.so`` with whatever C compiler the host
offers (``$CC``, else ``gcc``, else ``cc``), then loaded through cffi's
ABI mode (``ffi.dlopen``) — no setuptools, no Python headers, no
install-time step.  The fingerprint is a SHA-256 over the C source, the
header, the cffi declarations and the compiler identification, so
editing any of them (or switching compilers) rebuilds exactly once;
stale artefacts are swept after a successful build and a corrupt or
ABI-mismatched artefact is deleted and rebuilt instead of erroring.

Nothing here may ever hard-fail at import: loading is lazy, every
failure path (no compiler, no cffi, build error, corrupt artefact on a
read-only filesystem) degrades to :func:`available` returning ``False``
and the numpy tier serving in place of this one.  Setting
``REPRO_NATIVE_DISABLE=1`` in the environment forces that degradation —
the documented kill-switch for benchmarking the numpy tier or working
around a miscompiling toolchain.

The public surface mirrors :mod:`repro.graph.bitset_np` name for name
(``union_rows``, ``frontier_sweep``, ``set_edge_bits``,
``mask_to_indices``): a packed graph core picks its *kernel namespace*
(``_kernel_namespace``) and calls the same names either way.  These
are only the primitives the workloads call — wide-frontier unions,
component sweeps and in-place saturation fill; the algorithms above
them, the separator layer included, are one int-mask loop on every
tier, and every tier runs the int tier's bit-sliced MCS selection
queue (:class:`~repro.graph.core.MaxWeightBuckets`).  Every kernel
takes raw buffer pointers from the existing numpy arrays
(``ffi.from_buffer`` — zero copies, read-only buffers accepted), so
:class:`NativeGraphCore` is a thin subclass of
:class:`~repro.graph.bitset_np.NumpyGraphCore`: the lazily built
packed mirror is inherited unchanged, only the kernel dispatch
differs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.graph import bitset_np as _np_kernels
from repro.graph.bitset_np import NumpyGraphCore

__all__ = [
    "available",
    "build_fingerprint",
    "kernel_info",
    "kernel_namespace",
    "NativeGraphCore",
    "union_rows",
    "frontier_sweep",
    "set_edge_bits",
    "mask_to_indices",
]

_SOURCE_DIR = Path(__file__).resolve().parent
_ABI_VERSION = 4

#: Environment variable that forces :func:`available` to False.
DISABLE_ENV = "REPRO_NATIVE_DISABLE"

#: Environment variable overriding the artefact directory (defaults to
#: ``_build/`` next to the C source).  Point it somewhere writable when
#: the package directory is not (read-only installs), or at a scratch
#: directory in tests exercising the build cache.
BUILD_DIR_ENV = "REPRO_NATIVE_BUILD_DIR"


def _build_dir() -> Path:
    override = os.environ.get(BUILD_DIR_ENV)
    return Path(override) if override else _SOURCE_DIR / "_build"

# Keep in sync with kernels.h (the dlopen'd library is checked against
# _ABI_VERSION, so a drifted artefact rebuilds rather than misbehaves).
_CDEF = """
int repro_kernels_abi_version(void);
void union_rows(const uint64_t *matrix, int64_t words,
                const int64_t *indices, int64_t m, uint64_t *out);
int frontier_sweep(const uint64_t *matrix, int64_t words,
                   uint64_t *component, const uint64_t *available);
void set_edge_bits(uint64_t *matrix, int64_t words, const int64_t *u_arr,
                   const int64_t *v_arr, int64_t m);
int64_t mask_row_indices(const uint64_t *mask_row, int64_t words,
                         int64_t *out);
"""

_CFLAGS = ["-O3", "-std=c11", "-fPIC", "-shared"]

#: Kernel names exposed by this tier (for ``repro kernels`` diagnostics).
KERNEL_NAMES = (
    "union_rows",
    "frontier_sweep",
    "set_edge_bits",
    "mask_to_indices",
)

_WORD_DTYPE = np.dtype("<u8")

# Load state: (ffi, lib) once loaded, False after a failed attempt (so
# one broken toolchain does not retry a build per call), None = untried.
_STATE: "tuple | None | bool" = None
_LOAD_ERROR: str | None = None


def _compiler() -> str | None:
    """The C compiler command, or ``None`` when the host has none."""
    explicit = os.environ.get("CC")
    if explicit:
        return explicit
    return shutil.which("gcc") or shutil.which("cc")


def _compiler_id(cc: str) -> str:
    """A stable identification string for ``cc`` (first --version line)."""
    out = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, timeout=30
    )
    if out.returncode != 0:
        raise RuntimeError(f"{cc} --version failed: {out.stderr.strip()}")
    first = out.stdout.splitlines()[0] if out.stdout else ""
    return first.strip() or cc


def build_fingerprint(compiler_id: str) -> str:
    """SHA-256 fingerprint keying the build artefact.

    Covers the C source, the header, the cffi declarations, the ABI
    version and the compiler identification — any change to any of
    them lands in a fresh ``kernels-<fingerprint>.so`` and the stale
    artefact is swept after the rebuild.
    """
    digest = hashlib.sha256()
    for part in (
        (_SOURCE_DIR / "kernels.c").read_bytes(),
        (_SOURCE_DIR / "kernels.h").read_bytes(),
        _CDEF.encode(),
        str(_ABI_VERSION).encode(),
        compiler_id.encode(),
    ):
        digest.update(part)
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _build(cc: str, artifact: Path) -> None:
    """Compile kernels.c into ``artifact`` (atomic via temp + rename)."""
    artifact.parent.mkdir(parents=True, exist_ok=True)
    temp = artifact.with_name(f".{artifact.name}.{os.getpid()}.tmp")
    command = [cc, *_CFLAGS, "-o", str(temp), str(_SOURCE_DIR / "kernels.c")]
    out = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        temp.unlink(missing_ok=True)
        raise RuntimeError(
            f"native kernel build failed ({' '.join(command)}):\n"
            f"{out.stderr.strip()}"
        )
    # Atomic publish: concurrent builders (sharded workers racing on a
    # cold cache) each compile to a private temp and the renames are
    # idempotent — last writer wins with identical bytes.
    os.replace(temp, artifact)
    for stale in artifact.parent.glob("kernels-*.so"):
        if stale != artifact:
            stale.unlink(missing_ok=True)


def _open_artifact(ffi, artifact: Path):
    """dlopen + ABI check; raises on any corruption or mismatch."""
    lib = ffi.dlopen(str(artifact))
    if lib.repro_kernels_abi_version() != _ABI_VERSION:
        raise OSError(
            f"{artifact.name}: ABI {lib.repro_kernels_abi_version()} "
            f"!= expected {_ABI_VERSION}"
        )
    return lib


def _try_load() -> "tuple | None":
    """One full load attempt; returns ``(ffi, lib)`` or raises."""
    from cffi import FFI

    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (need gcc or cc)")
    ffi = FFI()
    ffi.cdef(_CDEF)
    artifact = (
        _build_dir() / f"kernels-{build_fingerprint(_compiler_id(cc))}.so"
    )
    if artifact.exists():
        try:
            return ffi, _open_artifact(ffi, artifact)
        except Exception:
            # Stale or corrupt artefact (truncated download, ABI drift,
            # interrupted write): rebuild cleanly instead of erroring.
            artifact.unlink(missing_ok=True)
    _build(cc, artifact)
    return ffi, _open_artifact(ffi, artifact)


def _load() -> "tuple | None":
    global _STATE, _LOAD_ERROR
    if _STATE is not None:
        return _STATE or None
    if os.environ.get(DISABLE_ENV):
        _LOAD_ERROR = f"disabled via {DISABLE_ENV}"
        _STATE = False
        return None
    try:
        _STATE = _try_load()
    except Exception as exc:
        _LOAD_ERROR = str(exc)
        _STATE = False
        return None
    return _STATE


def _reset() -> None:
    """Forget the cached load state (tests exercising failure paths)."""
    global _STATE, _LOAD_ERROR
    _STATE = None
    _LOAD_ERROR = None


def available() -> bool:
    """Whether the compiled extension is loadable (building if needed)."""
    return _load() is not None


def kernel_namespace():
    """The kernel namespace this tier serves: this module, or the numpy
    module when the extension cannot be built/loaded."""
    return sys.modules[__name__] if available() else _np_kernels


def kernel_info() -> dict:
    """Diagnostics for ``repro kernels``: tier, compiler, artefact, kernels."""
    cc = _compiler()
    info: dict = {
        "available": available(),
        "reason": _LOAD_ERROR,
        "compiler": cc,
        "compiler_id": None,
        "artifact": None,
        "built": False,
        "kernels": {},
    }
    if cc is not None:
        try:
            compiler_id = _compiler_id(cc)
            info["compiler_id"] = compiler_id
            artifact = (
                _build_dir() / f"kernels-{build_fingerprint(compiler_id)}.so"
            )
            info["artifact"] = str(artifact)
            info["built"] = artifact.exists()
        except Exception as exc:  # pragma: no cover - exotic toolchains
            info["reason"] = info["reason"] or str(exc)
    tier = "native" if info["available"] else "numpy"
    info["kernels"] = {name: tier for name in KERNEL_NAMES}
    return info


# ----------------------------------------------------------------------
# ffi plumbing
# ----------------------------------------------------------------------


def _lib():
    state = _load()
    assert state is not None, "native kernels called while unavailable"
    return state


# Typed ffi.from_buffer (not ffi.cast on an untyped one): the returned
# cdata keeps the underlying Python buffer alive for the duration of
# the call, which matters for the to_bytes() temporaries below.


def _u64(ffi, array):
    """Const uint64 view of a C-contiguous array/bytes (no copy)."""
    return ffi.from_buffer("uint64_t[]", array)


def _u64_mut(ffi, array):
    return ffi.from_buffer("uint64_t[]", array, require_writable=True)


def _i64(ffi, array):
    return ffi.from_buffer("int64_t[]", array)


def _i64_mut(ffi, array):
    return ffi.from_buffer("int64_t[]", array, require_writable=True)


def _as_i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _row_bytes(mask: int, words: int) -> bytes:
    return mask.to_bytes(words * 8, "little")


# ----------------------------------------------------------------------
# Kernel namespace (numpy-compatible signatures)
# ----------------------------------------------------------------------


def union_rows(matrix: np.ndarray, indices) -> int:
    """Native twin of :func:`repro.graph.bitset_np.union_rows`."""
    if not len(indices):
        return 0
    ffi, lib = _lib()
    idx = _as_i64(indices)
    words = matrix.shape[1]
    out = np.zeros(words, dtype=_WORD_DTYPE)
    lib.union_rows(
        _u64(ffi, matrix), words, _i64(ffi, idx), idx.shape[0],
        _u64_mut(ffi, out),
    )
    return int.from_bytes(out.tobytes(), "little")


def frontier_sweep(
    matrix: np.ndarray,
    seed: int,
    available_mask: int,
    adj: "list[int] | None" = None,
) -> int:
    """Native twin of :func:`repro.graph.bitset_np.frontier_sweep`.

    The whole reachability fixpoint — every frontier round — runs in
    one C call; the ``adj`` small-frontier fallback of the numpy tier
    is unnecessary here and accepted only for signature compatibility.
    """
    ffi, lib = _lib()
    words = matrix.shape[1]
    component = bytearray(_row_bytes(seed, words))
    rc = lib.frontier_sweep(
        _u64(ffi, matrix),
        words,
        _u64_mut(ffi, component),
        _u64(ffi, _row_bytes(available_mask, words)),
    )
    if rc != 0:  # pragma: no cover - scratch malloc failure
        return _np_kernels.frontier_sweep(matrix, seed, available_mask, adj)
    return int.from_bytes(component, "little")


def mask_to_indices(mask: int, words: int) -> np.ndarray:
    """Native twin of :func:`repro.graph.bitset_np.mask_to_indices`."""
    ffi, lib = _lib()
    out = np.empty(mask.bit_count(), dtype=np.int64)
    lib.mask_row_indices(
        _u64(ffi, _row_bytes(mask, words)), words, _i64_mut(ffi, out)
    )
    return out


def set_edge_bits(
    matrix: np.ndarray, u_arr: np.ndarray, v_arr: np.ndarray
) -> None:
    """Native twin of :func:`repro.graph.bitset_np.set_edge_bits`."""
    ffi, lib = _lib()
    u_arr = _as_i64(u_arr)
    v_arr = _as_i64(v_arr)
    lib.set_edge_bits(
        _u64_mut(ffi, matrix), matrix.shape[1],
        _i64(ffi, u_arr), _i64(ffi, v_arr), u_arr.shape[0],
    )


class NativeGraphCore(NumpyGraphCore):
    """A :class:`~repro.graph.bitset_np.NumpyGraphCore` on C kernels.

    Everything structural is inherited — the int-mask source of truth
    and the lazily maintained packed mirror.  The only difference is
    the kernel namespace the batch methods dispatch to.  When the
    compiled extension is unavailable the namespace degrades to the
    numpy module, so a payload built on a machine with gcc still
    rebuilds cleanly on one without.
    """

    __slots__ = ()

    @classmethod
    def runtime_available(cls) -> bool:
        return available()

    @staticmethod
    def _kernel_namespace():
        return kernel_namespace()


# Register as the third backend tier.  bitset_np imports this module
# lazily at its own bottom; doing the registration *here* keeps the
# import acyclic whichever module loads first.
_np_kernels.GRAPH_BACKENDS["native"] = NativeGraphCore
