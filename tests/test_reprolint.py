"""Tests for the reprolint static analyzer (``repro.analysis``).

Each rule is exercised on three fixture snippets — violating, conforming,
waived — under ``tests/reprolint_fixtures/`` (that directory is skipped by
whole-repo scans and only reached by pointing at it explicitly).  The R2
cache-key rule is tested on a miniature source tree copied into ``tmp_path``
so contract regeneration never touches the real repository.  A final guard
runs the full linter over ``src`` and requires zero findings — the same
gate CI enforces.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis import run_analysis
from repro.analysis.cli import main as cli_main
from repro.analysis.findings import Finding, format_findings
from repro.analysis.index import ModuleIndex
from repro.analysis.rules.cache_key import CONTRACT_BASENAME, write_contract

FIXTURES = os.path.join(os.path.dirname(__file__), "reprolint_fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


def findings_for(path: str, rule: str):
    return [f for f in run_analysis([path]) if f.rule == rule]


# ---------------------------------------------------------------- R1 determinism


class TestDeterminismRule:
    def test_violating_fixture_flags_every_entropy_and_clock_call(self):
        found = findings_for(fixture("repro", "attacks", "r1_violating.py"), "R1")
        lines = sorted(f.line for f in found)
        assert len(found) == 8
        messages = " | ".join(f.message for f in found)
        assert "global numpy RNG" in messages
        assert "RandomState" in messages
        assert "without a seed" in messages
        assert "ambient global RNG" in messages
        assert "OS entropy" in messages
        assert "wall clock" in messages
        assert lines == sorted(set(lines)), "one finding per call site"

    def test_conforming_fixture_is_clean(self):
        assert findings_for(fixture("repro", "attacks", "r1_conforming.py"), "R1") == []

    def test_waived_fixture_is_suppressed(self):
        assert findings_for(fixture("repro", "attacks", "r1_waived.py"), "R1") == []

    def test_scope_is_limited_to_cell_computation_modules(self, tmp_path):
        # The same violating source outside a target path yields nothing.
        with open(fixture("repro", "attacks", "r1_violating.py")) as fh:
            src = fh.read()
        other = tmp_path / "repro" / "io" / "loader.py"
        other.parent.mkdir(parents=True)
        other.write_text(src)
        assert findings_for(str(other), "R1") == []


# ------------------------------------------------------------ R3 columnar discipline


class TestColumnarRule:
    def test_violating_fixture_flags_loops_and_scalar_distance(self):
        found = findings_for(fixture("repro", "attacks", "r3_violating.py"), "R3")
        messages = [f.message for f in found]
        assert any("per-point loop" in m for m in messages)
        assert any("scalar haversine()" in m for m in messages)
        assert len(found) == 5

    def test_reference_branch_confers_no_oracle_scope(self):
        # A helper reached only through ``if self.engine == "reference"`` is
        # hot code: oracles are named ``*_reference`` entry points, not knobs.
        path = fixture("repro", "attacks", "r3_violating.py")
        with open(path) as fh:
            walk_line = fh.read().splitlines().index("def _walk(trajectory):") + 1
        found = [f for f in findings_for(path, "R3") if f.scope_line == walk_line]
        messages = sorted(f.message for f in found)
        assert len(messages) == 2
        assert "per-point loop" in messages[0]
        assert "scalar haversine()" in messages[1]

    def test_conforming_fixture_is_clean(self):
        # Includes named oracle functions, a private helper reachable only
        # from them, and batched haversine_array calls.
        assert findings_for(fixture("repro", "attacks", "r3_conforming.py"), "R3") == []

    def test_def_line_waiver_suppresses_body_findings(self):
        assert findings_for(fixture("repro", "attacks", "r3_waived.py"), "R3") == []

    def test_metrics_modules_are_hot_paths(self):
        # Point-to-path distances count as scalar distance calls.
        found = findings_for(fixture("repro", "metrics", "r3_violating.py"), "R3")
        messages = [f.message for f in found]
        assert any("scalar point_to_polyline_distance_m()" in m for m in messages)
        assert any("scalar point_segment_distance_m()" in m for m in messages)
        assert any("per-point loop" in m for m in messages)
        assert len(found) == 3

    def test_metrics_conforming_fixture_is_clean(self):
        assert findings_for(fixture("repro", "metrics", "r3_conforming.py"), "R3") == []

    def test_metrics_waived_fixture_is_suppressed(self):
        assert findings_for(fixture("repro", "metrics", "r3_waived.py"), "R3") == []

    def test_core_modules_are_hot_paths(self):
        # The publication mechanisms (speed smoothing) live in core/.
        found = findings_for(fixture("repro", "core", "r3_violating.py"), "R3")
        messages = [f.message for f in found]
        assert sum("per-point loop" in m for m in messages) == 2
        assert sum("scalar haversine()" in m for m in messages) == 2
        assert len(found) == 4

    def test_core_conforming_fixture_is_clean(self):
        assert findings_for(fixture("repro", "core", "r3_conforming.py"), "R3") == []

    def test_core_call_line_waiver_suppresses_the_call(self):
        assert findings_for(fixture("repro", "core", "r3_waived.py"), "R3") == []


# ------------------------------------------------------- R6 streaming incrementality


class TestStreamingIncrementalityRule:
    def test_violating_fixture_flags_history_rescans(self):
        found = findings_for(fixture("repro", "streaming", "r6_violating.py"), "R6")
        messages = " | ".join(f.message for f in found)
        assert len(found) == 4
        assert "self._history" in messages, "direct rescan in update()"
        assert "self._by_user" in messages, "rescan in an update()-reachable helper"
        assert "self._events" in messages, "rescan through a local alias + sorted()"
        assert "self._seen" in messages, "rescan reachable from update_many()"
        assert all("O(history)" in f.message for f in found)
        assert all(f.scope_line is not None for f in found), "def-line waivers work"

    def test_update_many_roots_the_reachability(self):
        # The chunked entry point is a root like update(): its helper's
        # rescan is reported under the helper's name.
        found = findings_for(fixture("repro", "streaming", "r6_violating.py"), "R6")
        chunked = [f for f in found if "ChunkScanner" in f.message]
        assert len(chunked) == 1
        assert "ChunkScanner._match" in chunked[0].message

    def test_conforming_fixture_is_clean(self):
        # A pruned deque window (per point or per chunk), bucket probes into
        # an append-only grid, and a full-state fold in finalize() are legal.
        assert findings_for(fixture("repro", "streaming", "r6_conforming.py"), "R6") == []

    def test_waived_fixture_is_suppressed(self):
        assert findings_for(fixture("repro", "streaming", "r6_waived.py"), "R6") == []

    def test_scope_is_limited_to_streaming_modules(self, tmp_path):
        # The same violating source outside repro/streaming/ yields nothing.
        with open(fixture("repro", "streaming", "r6_violating.py")) as fh:
            src = fh.read()
        other = tmp_path / "repro" / "attacks" / "scanner.py"
        other.parent.mkdir(parents=True)
        other.write_text(src)
        assert findings_for(str(other), "R6") == []


# ---------------------------------------------------------------- R2 cache-key drift


@pytest.fixture()
def cachekey_tree(tmp_path):
    """A throwaway copy of the miniature cache-key source tree."""
    root = tmp_path / "tree"
    shutil.copytree(fixture("cachekey"), root)
    return root


def r2_findings(root):
    return [f for f in run_analysis([str(root)]) if f.rule == "R2"]


class TestCacheKeyRule:
    def test_missing_contract_is_a_finding(self, cachekey_tree):
        found = r2_findings(cachekey_tree)
        assert len(found) == 1
        assert "missing cache-key contract" in found[0].message

    def test_fresh_contract_is_clean(self, cachekey_tree):
        path = write_contract(ModuleIndex.from_paths([str(cachekey_tree)]))
        assert path is not None and path.endswith(CONTRACT_BASENAME)
        assert r2_findings(cachekey_tree) == []

    def test_new_spec_field_without_bump_is_flagged(self, cachekey_tree):
        write_contract(ModuleIndex.from_paths([str(cachekey_tree)]))
        engine = cachekey_tree / "repro" / "experiments" / "engine.py"
        engine.write_text(
            engine.read_text().replace(
                "    input: str", "    variant: str = \"a\"\n    input: str"
            )
        )
        found = r2_findings(cachekey_tree)
        assert any(
            "field set changed" in f.message and "added: variant" in f.message
            for f in found
        )

    def test_serializer_edit_without_bump_is_flagged(self, cachekey_tree):
        write_contract(ModuleIndex.from_paths([str(cachekey_tree)]))
        cache = cachekey_tree / "repro" / "experiments" / "cache.py"
        cache.write_text(cache.read_text().replace('","', '";"'))
        found = r2_findings(cachekey_tree)
        assert any("_canonical() changed" in f.message for f in found)

    def test_docstring_edit_does_not_trip_fingerprints(self, cachekey_tree):
        write_contract(ModuleIndex.from_paths([str(cachekey_tree)]))
        cache = cachekey_tree / "repro" / "experiments" / "cache.py"
        cache.write_text(
            cache.read_text().replace(
                "used by the R2 fixture tests", "reworded documentation"
            )
        )
        assert r2_findings(cachekey_tree) == []

    def test_version_bump_without_regeneration_is_flagged(self, cachekey_tree):
        write_contract(ModuleIndex.from_paths([str(cachekey_tree)]))
        cache = cachekey_tree / "repro" / "experiments" / "cache.py"
        cache.write_text(
            cache.read_text().replace(
                "CELL_KEY_FORMAT_VERSION = 1", "CELL_KEY_FORMAT_VERSION = 2"
            )
        )
        found = r2_findings(cachekey_tree)
        assert any("contract records" in f.message for f in found)

    def test_bump_plus_regeneration_is_clean(self, cachekey_tree):
        cache = cachekey_tree / "repro" / "experiments" / "cache.py"
        cache.write_text(
            cache.read_text().replace(
                "CELL_KEY_FORMAT_VERSION = 1", "CELL_KEY_FORMAT_VERSION = 2"
            )
        )
        write_contract(ModuleIndex.from_paths([str(cachekey_tree)]))
        assert r2_findings(cachekey_tree) == []


# ---------------------------------------- R1 determinism on reachable functions


class TestSeedFlowRule:
    def test_violating_tree_carries_the_chain_to_a_registered_root(self):
        found = findings_for(fixture("seedflow", "violating"), "R1")
        by_line = {f.line: f.message for f in found if f.path.endswith("sampling.py")}
        assert set(by_line) == {13, 18}, [f.message for f in found]
        assert "on a cell-computation path" in by_line[13]
        assert "reachable from registered attack 'fixture-seedflow'" in by_line[13]
        assert "JitterAttack._jitter -> draw_offsets" in by_line[13]
        assert "JitterAttack.run -> stamp_rows" in by_line[18]

    def test_conforming_tree_threads_the_seed_and_is_clean(self):
        assert findings_for(fixture("seedflow", "conforming"), "R1") == []

    def test_waived_tree_is_suppressed(self):
        assert findings_for(fixture("seedflow", "waived"), "R1") == []

    def test_cell_computation_modules_are_left_to_r1(self, tmp_path):
        # A draw in a cell-computation module that is also reachable from a
        # root is reported once, module-locally, without a call chain.
        shutil.copytree(fixture("seedflow", "violating"), tmp_path, dirs_exist_ok=True)
        attack = tmp_path / "repro" / "attacks" / "noisy.py"
        attack.parent.mkdir(parents=True)
        attack.write_text(
            "import numpy as np\n"
            "from repro.api.registry import register_attack\n\n\n"
            "@register_attack(\"fixture-noisy\")\n"
            "class NoisyAttack:\n"
            "    def run(self, dataset, seed):\n"
            "        return np.random.default_rng()\n"
        )
        found = [f for f in findings_for(str(tmp_path), "R1") if f.path.endswith("noisy.py")]
        assert [(f.line, f.message) for f in found] == [
            (8, "np.random.default_rng() without a seed is entropy-seeded")
        ]


# ----------------------------------------------------------- R9 handle lifecycle


class TestHandleLifecycleRule:
    def test_violating_tree_reports_each_leak_mode(self):
        found = findings_for(fixture("handles", "violating"), "R9")
        by_line = {f.line: f.message for f in found if f.path.endswith("spill.py")}
        assert set(by_line) == {8, 14, 19}, [f.message for f in found]
        assert "not closed on exception paths" in by_line[8]
        assert "worker-reachable path (main -> flush_rows)" in by_line[8]
        assert "is never closed" in by_line[14]
        assert "sqlite3 connection" in by_line[14]
        assert "consumed inline" in by_line[19]

    def test_conforming_tree_is_clean(self):
        # with-statements, contextlib.closing, finally-closes, delegation to
        # a closing project helper, and escapes into a pool are all legal.
        assert findings_for(fixture("handles", "conforming"), "R9") == []

    def test_waived_tree_is_suppressed(self):
        assert findings_for(fixture("handles", "waived"), "R9") == []


# ------------------------------------------------------------------ SARIF output


class TestSarifOutput:
    def test_cli_emits_a_valid_sarif_run(self, capsys):
        violating = fixture("repro", "attacks", "r1_violating.py")
        assert cli_main([violating, "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"R1", "R9"} <= rule_ids and not {"R4", "R5", "R7", "R8"} & rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "R1"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("r1_violating.py")
        assert location["region"]["startLine"] >= 1
        assert "suppressions" not in result

    def test_mypy_ratchet_shares_the_sarif_shape(self):
        # The ratchet's converter is pure — testable without mypy installed.
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "mypy_ratchet", os.path.join(REPO_ROOT, "tools", "mypy_ratchet.py")
        )
        ratchet = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ratchet)
        doc = json.loads(
            ratchet.errors_to_sarif(
                ['src/repro/io/x.py:12: error: Bad thing  [arg-type]'],
                ['src/repro/io/y.py:3: error: Old thing  [assignment]'],
            )
        )
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "mypy"
        first, second = run["results"]
        assert first["ruleId"] == "mypy/arg-type"
        assert first["locations"][0]["physicalLocation"]["region"]["startLine"] == 12
        assert "suppressions" not in first
        assert second["ruleId"] == "mypy/assignment"
        assert second["suppressions"] == [{"kind": "external"}]

    def test_output_file_receives_the_report(self, tmp_path, capsys):
        out = tmp_path / "reprolint.sarif"
        violating = fixture("repro", "attacks", "r1_violating.py")
        code = cli_main(
            [violating, "--format", "sarif", "--output", str(out)]
        )
        assert code == 1
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"]


# -------------------------------------------------------------------- index / CLI


class TestIndexAndCli:
    def test_parse_failure_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        found = run_analysis([str(bad)])
        assert len(found) == 1 and found[0].rule == "parse"

    def test_fixture_dirs_are_skipped_in_recursive_scans(self):
        index = ModuleIndex.from_paths([os.path.join(REPO_ROOT, "tests")])
        assert not any("reprolint_fixtures" in m.logical for m in index.modules)

    def test_waiver_allows_multiple_rules(self, tmp_path):
        mod = tmp_path / "repro" / "attacks" / "multi.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro: allow=R1,R3 -- fixture\n"
        )
        assert findings_for(str(mod), "R1") == []

    def test_cli_exit_codes_and_json(self, capsys):
        violating = fixture("repro", "attacks", "r1_violating.py")
        assert cli_main([violating, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] > 0
        assert {"rule", "path", "line", "message", "hint"} <= set(payload["findings"][0])

        clean = fixture("repro", "attacks", "r1_conforming.py")
        assert cli_main([clean]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_rule_selection(self, capsys):
        violating = fixture("repro", "attacks", "r1_violating.py")
        assert cli_main([violating, "--rules", "R3"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli_main([violating, "--rules", "R99"])
        assert excinfo.value.code == 2

    def test_cli_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if not line.startswith(" ")]
        assert listed == ["R1", "R2", "R3", "R6", "R9"]

    @pytest.mark.parametrize("rule_id", ["R4", "R5", "R7", "R8"])
    def test_retired_rule_id_is_a_usage_error(self, rule_id, capsys):
        # Retired ids are not renumbered: R7 (seed flow) is part of R1, and
        # runtime guards hold R4 (registry), R5 (spawn) and R8 (shared arrays).
        with pytest.raises(SystemExit) as excinfo:
            cli_main([fixture("repro", "attacks", "r1_conforming.py"), "--rules", rule_id])
        assert excinfo.value.code == 2
        assert f"unknown rule id(s): {rule_id}" in capsys.readouterr().err

    def test_baseline_flag_is_a_usage_error(self, tmp_path, capsys):
        # An inline waiver is the only way to accept a finding.
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                fixture("repro", "attacks", "r1_conforming.py"),
                "--baseline", str(tmp_path / "b.json"),
            ])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert result.returncode == 0
        assert "R1" in result.stdout

    def test_format_findings_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            format_findings([], "yaml")

    def test_finding_text_render(self):
        f = Finding(rule="R1", path="a.py", line=3, message="boom", hint="fix it")
        text = f.render_text()
        assert "a.py:3: R1 boom" in text and "fix it" in text


# ------------------------------------------------------------------ the real gate


class TestRepositoryIsClean:
    def test_src_has_no_findings(self):
        found = run_analysis([os.path.join(REPO_ROOT, "src")])
        assert found == [], "\n" + format_findings(found)

    def test_tests_and_benchmarks_have_no_findings(self):
        paths = [
            os.path.join(REPO_ROOT, "tests"),
            os.path.join(REPO_ROOT, "benchmarks"),
        ]
        found = run_analysis([p for p in paths if os.path.isdir(p)])
        assert found == [], "\n" + format_findings(found)
