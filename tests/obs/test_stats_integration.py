"""End-to-end checks of the --stats / stats CLI surface.

Drives :func:`repro.cli.main` exactly as a user would and asserts the
machine-readable output carries real measurements: nonzero code-cache
hits, per-entrypoint invocation counts that agree with the executed
instruction count, and per-syscall counters.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.cli import main


def _run_json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    return rc, json.loads(out.getvalue())


class TestKernelsStatsJson:
    @pytest.fixture(scope="class")
    def doc(self):
        rc, doc = _run_json(["kernels", "alpha", "block_min", "--stats=json"])
        assert rc == 0
        return doc

    def test_all_kernels_pass(self, doc):
        assert doc["failures"] == 0
        assert all(k["correct"] for k in doc["kernels"])

    def test_code_cache_hits_and_misses(self, doc):
        cache = doc["stats"]["counters"]["code_cache"]
        assert cache["hits"] > 0
        assert cache["misses"] > 0
        assert cache["hits"] > cache["misses"]  # loops re-enter blocks

    def test_entrypoint_counts_present(self, doc):
        entrypoints = doc["stats"]["counters"]["entrypoints"]
        assert entrypoints["do_block"] > 0

    def test_syscall_counts(self, doc):
        # Every kernel exits via SYS_EXIT, so the counter equals the
        # number of kernels run.
        syscalls = doc["stats"]["counters"]["syscall"]
        assert syscalls["exit"] == len(doc["kernels"])

    def test_instruction_totals_agree(self, doc):
        run = doc["stats"]["counters"]["run"]
        assert run["instructions"] == sum(
            k["instructions"] for k in doc["kernels"]
        )
        assert run["kernels"] == len(doc["kernels"])

    def test_translation_probes(self, doc):
        translate = doc["stats"]["counters"]["translate"]
        cache = doc["stats"]["counters"]["code_cache"]
        assert translate["blocks"] == cache["misses"]
        assert translate["instructions"] > 0

    def test_piece_memo_counters(self, doc):
        translate = doc["stats"]["counters"]["translate"]
        # one memo lookup per translated occurrence; unrolled loop bodies
        # and re-entered paths are served from the memo
        assert translate["pieces"] == translate["instructions"]
        assert 0 < translate["pieces_reused"] < translate["pieces"]

    def test_chain_counters(self, doc):
        chain = doc["stats"]["counters"]["code_cache"]["chain"]
        assert chain["links"] > 0
        assert chain["chained"] > 0  # loops take the patched fast path

    def test_superblock_counters(self, doc):
        translate = doc["stats"]["counters"]["translate"]
        assert translate["superblocks"] > 0
        # superblocks are multi-block by definition
        assert translate["superblock_instructions"] > translate["superblocks"]


class TestBlockTuningFlags:
    def test_no_chain_flag_disables_chaining(self):
        rc, doc = _run_json(
            ["kernels", "alpha", "block_min", "--no-chain", "--stats=json"]
        )
        assert rc == 0
        assert doc["failures"] == 0
        chain = doc["stats"]["counters"]["code_cache"]["chain"]
        assert chain["links"] == 0
        assert chain["chained"] == 0

    def test_superblock_zero_restores_basic_blocks(self):
        rc, doc = _run_json(
            ["kernels", "alpha", "block_min", "--superblock", "0",
             "--stats=json"]
        )
        assert rc == 0
        assert doc["failures"] == 0
        # the counter only exists when a superblock actually formed
        assert "superblocks" not in doc["stats"]["counters"]["translate"]


class TestStatsSubcommand:
    def test_one_interface_counts_every_instruction(self):
        rc, doc = _run_json(
            ["stats", "alpha", "one_min", "--kernel", "fib", "--json"]
        )
        assert rc == 0
        executed = doc["kernels"][0]["instructions"]
        entrypoints = doc["stats"]["counters"]["entrypoints"]
        # The One interface funnels every instruction through do_in_one,
        # so the probe count must equal the executed-instruction count.
        assert entrypoints["do_in_one"] == executed
        assert executed > 0

    def test_text_mode_prints_report(self):
        out = io.StringIO()
        with redirect_stdout(out):
            rc = main(["stats", "alpha", "block_min", "--kernel", "fib"])
        assert rc == 0
        assert "code_cache" in out.getvalue()
        assert "hits" in out.getvalue()


class TestPlainJsonModes:
    def test_kernels_json_without_stats(self):
        rc, doc = _run_json(["kernels", "alpha", "one_min", "--json"])
        assert rc == 0
        assert "stats" not in doc
        assert doc["isa"] == "alpha"
        assert {k["kernel"] for k in doc["kernels"]} >= {"fib", "sort"}

    def test_table1_json(self):
        rc, doc = _run_json(["table1", "--json"])
        assert rc == 0
        assert {row["isa"] for row in doc} >= {"alpha"}
        assert all(row["buildsets"] > 0 for row in doc)
