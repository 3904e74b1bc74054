"""Rule ``kernel-parity``: the three kernel tiers stay in lock-step.

The native tier is a cffi ABI-mode binding: the Python-side cdef
(``_CDEF`` in ``graph/_native/native.py``), the C sources
(``kernels.c``) and the numpy fallbacks (``graph/bitset_np.py``) are
three hand-maintained mirrors of one kernel catalogue.  This rule
checks:

- every function declared in the cdef is defined in ``kernels.c``;
- every kernel the native module exports (its ``__all__`` minus the
  tier plumbing) has a same-named numpy fallback defined top-level in
  ``bitset_np.py`` — so a fleet member without a compiler degrades
  instead of crashing;
- the cdef hash matches ``graph/_native/cdef.lock`` — changing the C
  signatures without bumping ``_ABI_VERSION`` (and refreshing the
  lock) is an error, because a stale cached ``.so`` would then be
  called through a mismatched ABI.
"""

from __future__ import annotations

import ast
import hashlib
import re
from collections.abc import Iterable

from repro.analysis.core import Finding, Project, Rule, register

NATIVE_FILE = "graph/_native/native.py"
KERNELS_C_FILE = "graph/_native/kernels.c"
FALLBACK_FILE = "graph/bitset_np.py"
LOCK_FILE = "graph/_native/cdef.lock"

#: Native ``__all__`` entries that are tier plumbing, not kernels — no
#: numpy twin is expected for these.
NON_KERNEL_EXPORTS = {
    "available",
    "build_fingerprint",
    "kernel_info",
    "kernel_namespace",
    "NativeGraphCore",
}

_DECL_NAME_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def cdef_function_names(cdef: str) -> list[str]:
    """Function names declared in a cffi cdef string."""
    names = []
    for statement in cdef.split(";"):
        match = _DECL_NAME_RE.search(statement)
        if match is not None:
            names.append(match.group(1))
    return names


def cdef_digest(cdef: str) -> str:
    """A whitespace-insensitive SHA-256 of the cdef text."""
    normalized = "\n".join(
        " ".join(line.split())
        for line in cdef.strip().splitlines()
        if line.strip()
    )
    return hashlib.sha256(normalized.encode()).hexdigest()


def render_lock(abi_version: int, cdef: str) -> str:
    """The expected ``cdef.lock`` contents for the given cdef."""
    return (
        "# Pinned by `repro analyze` (kernel-parity): changing _CDEF\n"
        "# requires bumping _ABI_VERSION in native.py and refreshing\n"
        "# this lock with the digest from the rule's finding message.\n"
        f"abi = {abi_version}\n"
        f"sha256 = {cdef_digest(cdef)}\n"
    )


def _parse_lock(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    return values


def _module_constants(tree: ast.AST) -> dict[str, object]:
    """Module-level constant assignments we care about."""
    wanted = {"_CDEF", "_ABI_VERSION", "__all__"}
    values: dict[str, object] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in wanted:
                try:
                    values[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return values


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


@register
class KernelParityRule(Rule):
    id = "kernel-parity"
    summary = (
        "cdef functions exist in kernels.c, exported kernels have "
        "numpy fallbacks, and cdef changes bump the ABI version"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        native = project.find(NATIVE_FILE)
        if native is None or native.tree is None:
            return
        constants = _module_constants(native.tree)
        cdef = constants.get("_CDEF")
        if not isinstance(cdef, str):
            return
        declared = cdef_function_names(cdef)
        kernels_c = project.read_text(KERNELS_C_FILE)
        if kernels_c is not None:
            for name in declared:
                if not re.search(rf"\b{re.escape(name)}\b", kernels_c):
                    yield native.finding(
                        self.id,
                        1,
                        f"cdef declares {name}() but kernels.c does "
                        f"not define it",
                    )
        yield from self._check_fallbacks(project, native, constants)
        yield from self._check_lock(project, native, constants, cdef)

    def _check_fallbacks(self, project, native, constants):
        fallback = project.find(FALLBACK_FILE)
        if fallback is None or fallback.tree is None:
            return
        exports = constants.get("__all__")
        if not isinstance(exports, list):
            return
        available = _top_level_names(fallback.tree)
        for name in exports:
            if name in NON_KERNEL_EXPORTS:
                continue
            if name not in available:
                yield native.finding(
                    self.id,
                    1,
                    f"native kernel {name!r} has no same-named numpy "
                    f"fallback in {FALLBACK_FILE} — a host without a "
                    f"compiler cannot degrade",
                )

    def _check_lock(self, project, native, constants, cdef):
        abi = constants.get("_ABI_VERSION")
        if not isinstance(abi, int):
            return
        digest = cdef_digest(cdef)
        lock_text = project.read_text(LOCK_FILE)
        if lock_text is None:
            yield native.finding(
                self.id,
                1,
                f"missing {LOCK_FILE}; create it with:\n"
                + render_lock(abi, cdef),
            )
            return
        lock = _parse_lock(lock_text)
        lock_abi = lock.get("abi")
        lock_digest = lock.get("sha256")
        if lock_digest == digest and lock_abi == str(abi):
            return
        if lock_digest != digest and lock_abi == str(abi):
            yield native.finding(
                self.id,
                1,
                f"_CDEF changed (sha256 {digest[:12]}… != locked "
                f"{str(lock_digest)[:12]}…) without an _ABI_VERSION "
                f"bump — bump it and refresh {LOCK_FILE} to:\n"
                + render_lock(abi, cdef),
            )
        else:
            yield native.finding(
                self.id,
                1,
                f"{LOCK_FILE} is stale (abi {lock_abi!r}, current "
                f"{abi}); refresh it to:\n" + render_lock(abi, cdef),
            )
