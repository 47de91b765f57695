"""Unit tests for the measurement harness."""

import pytest

from repro.harness import (
    INTERFACE_GRID,
    count_adl_lines,
    hostops_per_instruction,
    measure_buildset,
    render_table,
    table1,
)
from repro.harness.loc import IsaCharacteristics


class TestLoc:
    def test_count_excludes_comments_and_blanks(self, tmp_path):
        path = tmp_path / "x.lis"
        path.write_text(
            "// comment\n\nfield a u64;\n/* block\ncomment */\nfield b u64;\n"
        )
        assert count_adl_lines(str(path)) == 2

    def test_inline_comment_line_still_counts(self, tmp_path):
        path = tmp_path / "x.lis"
        path.write_text("field a u64; // trailing\n")
        assert count_adl_lines(str(path)) == 1

    def test_table1_measures_all_isas(self):
        rows = table1()
        assert [c.isa for c in rows] == ["alpha", "arm", "ppc"]
        for c in rows:
            assert c.isa_description_lines > 100
            assert 0 < c.lines_per_buildset < 20

    def test_characteristics_single_isa(self):
        c = IsaCharacteristics.measure("alpha")
        assert c.buildsets == 12


class TestInterfaceGrid:
    def test_twelve_interfaces(self):
        assert len(INTERFACE_GRID) == 12

    def test_grid_covers_paper_axes(self):
        semantics = {row[1] for row in INTERFACE_GRID}
        infos = {row[2] for row in INTERFACE_GRID}
        specs = {row[3] for row in INTERFACE_GRID}
        assert semantics == {"Block", "One", "Step"}
        assert infos == {"Min", "Decode", "All"}
        assert specs == {"Yes", "No"}

    def test_grid_buildsets_exist_everywhere(self):
        from repro.isa.base import get_bundle

        for isa in ("alpha", "arm", "ppc"):
            spec = get_bundle(isa).load_spec()
            for buildset, *_ in INTERFACE_GRID:
                assert buildset in spec.buildsets, (isa, buildset)


class TestMeasurement:
    def test_measure_buildset_smoke(self):
        m = measure_buildset("alpha", "one_min", kernels=("fib",), scale=0.05)
        assert m.mips > 0
        assert m.instructions > 0

    def test_hostops_smoke(self):
        ops = hostops_per_instruction(
            "alpha", "one_min", kernels=("fib",), scale=0.2
        )
        assert 50 < ops < 5000

    def test_block_batching_costs_less_than_one(self):
        # Table III's block-call row is negative: a translated unit
        # executes fewer host ops per instruction than the One entry.
        block, one = (
            hostops_per_instruction("alpha", name, kernels=("checksum",), scale=0.1)
            for name in ("block_min", "one_min")
        )
        assert block < one


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table("T", ["name", "v"], [["row", 1.5], ["loooong", 2]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "1.50" in text and "loooong" in text

    def test_empty_rows(self):
        text = render_table("T", ["a"], [])
        assert "a" in text
