"""Tests for ``repro analyze`` — the static invariant checker suite.

Each rule gets a fixture tree (a tmp dir mirroring the package layout)
with a seeded violation, proving the rule *fires*; the final test runs
the full battery over the real installed tree, proving it is *clean* —
together they pin both directions of the gate.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    ANALYZER_VERSION,
    Finding,
    all_rules,
    get_rule,
    render_json,
    render_text,
    run_analysis,
)
from repro.analysis.rules.kernel_parity import render_lock
from repro.cli import main


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise ``{relpath: source}`` under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def findings_for(root: Path, rule_id: str) -> list[Finding]:
    return run_analysis([root], rule_ids=[rule_id])


class TestFramework:
    def test_rule_catalogue(self):
        rules = all_rules()
        assert [rule.id for rule in rules] == sorted(
            rule.id for rule in rules
        )
        assert {rule.id for rule in rules} == {
            "async-blocking",
            "job-threading",
            "kernel-parity",
            "protocol-dispatch",
            "stats-registry",
        }
        assert all(rule.summary for rule in rules)

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("no-such-rule")

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            run_analysis([tmp_path / "missing"])

    def test_parse_error_is_reported(self, tmp_path):
        write_tree(tmp_path, {"broken.py": "def f(:\n"})
        findings = run_analysis([tmp_path], rule_ids=[])
        assert [f.rule for f in findings] == ["parse-error"]

    def test_suppression_same_line(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """\
                async def f(sock):
                    sock.recv(1)  # repro: allow[async-blocking]
                """
            },
        )
        assert findings_for(tmp_path, "async-blocking") == []

    def test_suppression_line_above(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """\
                async def f(sock):
                    # repro: allow[async-blocking]
                    sock.recv(1)
                """
            },
        )
        assert findings_for(tmp_path, "async-blocking") == []

    def test_suppression_wildcard_and_wrong_id(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "a.py": """\
                async def f(sock):
                    sock.recv(1)  # repro: allow[*]
                """,
                "b.py": """\
                async def f(sock):
                    sock.recv(1)  # repro: allow[some-other-rule]
                """,
            },
        )
        findings = findings_for(tmp_path, "async-blocking")
        assert len(findings) == 1
        assert findings[0].path.endswith("b.py")


class TestStatsRegistryRule:
    BAD = """\
    class EnumMISStatistics:
        answers: int = 0
        forgotten: int = 0
        redundant: dict = None
        _SCALAR_FIELDS = ("answers", "ghost", "redundant")
        _MAP_FIELDS = ("redundant",)
    """

    def test_violations_fire(self, tmp_path):
        write_tree(tmp_path, {"sgr/enum_mis.py": self.BAD})
        messages = [
            f.message for f in findings_for(tmp_path, "stats-registry")
        ]
        assert any("'forgotten' is missing" in m for m in messages)
        assert any("'ghost' which is not a field" in m for m in messages)
        assert any(
            "'redundant' but the field is map-valued" in m
            for m in messages
        )

    def test_clean_fixture(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sgr/enum_mis.py": """\
                class EnumMISStatistics:
                    answers: int = 0
                    tiers: dict = None
                    _SCALAR_FIELDS = ("answers",)
                    _MAP_FIELDS = ("tiers",)
                """
            },
        )
        assert findings_for(tmp_path, "stats-registry") == []


class TestProtocolDispatchRule:
    def tree(self, chaos_source: str) -> dict[str, str]:
        return {
            "engine/distributed/protocol.py": """\
            MSG_HELLO = 1
            MSG_ORPHAN = 2
            __all__ = ["MSG_HELLO"]
            """,
            "engine/distributed/runner.py": """\
            from . import protocol
            def serve():
                return protocol.MSG_HELLO
            """,
            "engine/distributed/worker.py": """\
            from .protocol import MSG_HELLO, MSG_ORPHAN
            def work():
                return MSG_HELLO, MSG_ORPHAN
            """,
            "engine/distributed/chaos.py": chaos_source,
        }

    GENERIC_CHAOS = """\
    class ChaosInjector:
        def send_stream(self, msg_type):
            return msg_type
    """

    def test_export_and_dispatch_gaps_fire(self, tmp_path):
        write_tree(tmp_path, self.tree(self.GENERIC_CHAOS))
        messages = [
            f.message for f in findings_for(tmp_path, "protocol-dispatch")
        ]
        assert any(
            "MSG_ORPHAN is not exported via __all__" in m
            for m in messages
        )
        assert any(
            "MSG_ORPHAN has no dispatch arm" in m and "runner.py" in m
            for m in messages
        )
        # The worker references both constants; the generic injector
        # covers every frame type by construction.
        assert not any("worker.py" in m for m in messages)
        assert not any("chaos" in m for m in messages)

    def test_explicit_chaos_must_enumerate_all(self, tmp_path):
        explicit = """\
        from .protocol import MSG_HELLO
        SCHEDULES = {MSG_HELLO: "drop"}
        """
        write_tree(tmp_path, self.tree(explicit))
        messages = [
            f.message for f in findings_for(tmp_path, "protocol-dispatch")
        ]
        assert any(
            "MSG_ORPHAN is not reachable by the chaos injector" in m
            for m in messages
        )


class TestAsyncBlockingRule:
    def test_blocking_calls_fire(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """\
                import subprocess
                import time

                async def coro(sock, lock):
                    time.sleep(0.1)
                    subprocess.run(["true"])
                    open("/tmp/x")
                    sock.recv(1)
                    lock.acquire()
                """
            },
        )
        findings = findings_for(tmp_path, "async-blocking")
        reasons = [f.message for f in findings]
        assert len(findings) == 5
        assert any("time.sleep" in m for m in reasons)
        assert any("subprocess.run" in m for m in reasons)
        assert any("open()" in m for m in reasons)
        assert any(".recv()" in m for m in reasons)
        assert any(".acquire() without await" in m for m in reasons)

    def test_awaited_and_nested_are_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """\
                import time

                async def coro(reader, lock):
                    data = await reader.recv(1)
                    await lock.acquire()

                    def helper():
                        # Runs only when called, likely via a thread
                        # pool executor — not the event loop's problem.
                        time.sleep(1)

                    return data, helper

                def plain():
                    time.sleep(1)
                """
            },
        )
        assert findings_for(tmp_path, "async-blocking") == []


class TestKernelParityRule:
    NATIVE = """\
    _ABI_VERSION = 3
    _CDEF = \"\"\"
    int popcount_rows(const uint64_t *rows, int n);
    int missing_kernel(const uint64_t *rows, int n);
    \"\"\"
    __all__ = ["available", "popcount_rows", "no_fallback"]
    """
    KERNELS_C = "int popcount_rows(const uint64_t *rows, int n) { return 0; }\n"
    FALLBACK = "def popcount_rows(rows, n):\n    return 0\n"

    def tree(self, **overrides: str) -> dict[str, str]:
        files = {
            "graph/_native/native.py": self.NATIVE,
            "graph/_native/kernels.c": self.KERNELS_C,
            "graph/bitset_np.py": self.FALLBACK,
        }
        files.update(overrides)
        return files

    def lock_text(self) -> str:
        cdef = (
            "\nint popcount_rows(const uint64_t *rows, int n);\n"
            "int missing_kernel(const uint64_t *rows, int n);\n"
        )
        return render_lock(3, cdef)

    def test_cdef_fallback_and_missing_lock_fire(self, tmp_path):
        write_tree(tmp_path, self.tree())
        messages = [
            f.message for f in findings_for(tmp_path, "kernel-parity")
        ]
        assert any(
            "missing_kernel() but kernels.c does not define it" in m
            for m in messages
        )
        assert any(
            "'no_fallback' has no same-named numpy fallback" in m
            for m in messages
        )
        assert any("missing graph/_native/cdef.lock" in m for m in messages)

    def test_matching_lock_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            self.tree(
                **{
                    "graph/_native/native.py": """\
                    _ABI_VERSION = 3
                    _CDEF = \"\"\"
                    int popcount_rows(const uint64_t *rows, int n);
                    \"\"\"
                    __all__ = ["available", "popcount_rows"]
                    """,
                    "graph/_native/cdef.lock": render_lock(
                        3,
                        "int popcount_rows(const uint64_t *rows, int n);",
                    ),
                }
            ),
        )
        assert findings_for(tmp_path, "kernel-parity") == []

    def test_cdef_change_without_abi_bump_fires(self, tmp_path):
        stale = render_lock(3, "int old_signature(int n);")
        write_tree(
            tmp_path, self.tree(**{"graph/_native/cdef.lock": stale})
        )
        messages = [
            f.message for f in findings_for(tmp_path, "kernel-parity")
        ]
        assert any(
            "_CDEF changed" in m and "without an _ABI_VERSION bump" in m
            for m in messages
        )

    def test_stale_abi_in_lock_fires(self, tmp_path):
        old_abi = self.lock_text().replace("abi = 3", "abi = 2")
        write_tree(
            tmp_path, self.tree(**{"graph/_native/cdef.lock": old_abi})
        )
        messages = [
            f.message for f in findings_for(tmp_path, "kernel-parity")
        ]
        assert any("cdef.lock is stale" in m for m in messages)

    def test_whitespace_insensitive_digest(self):
        from repro.analysis.rules.kernel_parity import cdef_digest

        a = "int f(int n);\nint g(int n);"
        b = "  int  f(int n); \n\n int g(int  n);  "
        assert cdef_digest(a) == cdef_digest(b)


class TestJobThreadingRule:
    def test_unwired_field_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "engine/job.py": """\
                class EnumerationJob:
                    mode: str = "UG"
                    orphan_knob: float = 1.0
                    scratch: int = 0  # internal bookkeeping
                """,
                "cli.py": """\
                from repro.engine.job import EnumerationJob

                def run(args):
                    return EnumerationJob(mode=args.mode)
                """,
            },
        )
        findings = findings_for(tmp_path, "job-threading")
        assert len(findings) == 1
        assert "EnumerationJob.orphan_knob is not reachable" in (
            findings[0].message
        )

    def test_string_key_threading_counts(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "engine/job.py": """\
                class EnumerationJob:
                    batch_deadline_s: float = 0.0
                """,
                "cli.py": """\
                def run(args, kwargs):
                    kwargs["batch_deadline_s"] = 1.0
                """,
            },
        )
        assert findings_for(tmp_path, "job-threading") == []


class TestReporters:
    def sample(self) -> list[Finding]:
        return [Finding("pkg/mod.py", 3, "stats-registry", "boom")]

    def test_render_text(self):
        text = render_text(self.sample(), verbose=True)
        assert "pkg/mod.py:3: [stats-registry] boom" in text
        assert f"repro analyze {ANALYZER_VERSION}:" in text
        assert "1 finding(s)" in text

    def test_render_json_shape(self):
        payload = json.loads(render_json(self.sample()))
        assert payload["analyzer"]["version"] == ANALYZER_VERSION
        rule_ids = [r["id"] for r in payload["analyzer"]["rules"]]
        assert "kernel-parity" in rule_ids
        assert payload["count"] == 1
        assert payload["findings"][0] == {
            "path": "pkg/mod.py",
            "line": 3,
            "rule": "stats-registry",
            "message": "boom",
        }


class TestAnalyzeCLI:
    def seeded_root(self, tmp_path) -> str:
        write_tree(
            tmp_path,
            {
                "mod.py": """\
                import time

                async def f():
                    time.sleep(1)
                """
            },
        )
        return str(tmp_path)

    def test_strict_exit_code(self, tmp_path, capsys):
        root = self.seeded_root(tmp_path)
        assert main(["analyze", root, "--strict"]) == 1
        assert "async-blocking" in capsys.readouterr().out

    def test_non_strict_reports_but_passes(self, tmp_path, capsys):
        root = self.seeded_root(tmp_path)
        assert main(["analyze", root]) == 0
        assert "time.sleep" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        root = self.seeded_root(tmp_path)
        assert main(["analyze", root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_rule_filter(self, tmp_path, capsys):
        root = self.seeded_root(tmp_path)
        assert (
            main(["analyze", root, "--strict", "--rule", "kernel-parity"])
            == 0
        )
        capsys.readouterr()

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path), "--rule", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


class TestRealTreeIsClean:
    def test_installed_package_passes_strict(self):
        root = Path(repro.__file__).resolve().parent
        findings = run_analysis([root])
        assert findings == [], "\n".join(f.format() for f in findings)
