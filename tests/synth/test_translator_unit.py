"""Unit tests for the block translator's register cache, block shaping and piece memo."""

import ast

import pytest

from repro.isa.base import get_bundle
from repro.synth import SynthOptions, synthesize
from repro.synth.translator import RegisterCache
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads import SUITE, assemble_kernel

from tests.synth import toyasm


def parse(source):
    return ast.parse(source).body


def render(stmts):
    return "\n".join(ast.unparse(s) for s in stmts)


class TestRegisterCache:
    def make(self):
        return RegisterCache(frozenset({"R"}))

    def test_first_read_inserts_load(self):
        cache = self.make()
        out = cache.transform(parse("x = R[3] + 1"))
        assert render(out) == "__R_R_3 = R[3]\nx = __R_R_3 + 1"

    def test_second_read_reuses_local(self):
        cache = self.make()
        out = cache.transform(parse("x = R[3]\ny = R[3]"))
        assert render(out).count("R[3]") == 1

    def test_write_dirties_without_store(self):
        cache = self.make()
        out = cache.transform(parse("R[4] = v"))
        assert render(out) == "__R_R_4 = v"
        assert ("R", 4) in cache.dirty

    def test_flush_emits_stores_for_dirty_only(self):
        cache = self.make()
        cache.transform(parse("x = R[1]\nR[2] = x"))
        flush = cache.flush()
        assert render(flush) == "R[2] = __R_R_2"
        assert not cache.dirty

    def test_read_after_write_sees_new_value(self):
        cache = self.make()
        out = cache.transform(parse("R[5] = a\nz = R[5]"))
        assert render(out) == "__R_R_5 = a\nz = __R_R_5"

    def test_nonconstant_read_flushes_dirty(self):
        cache = self.make()
        out = cache.transform(parse("R[2] = a\nx = R[i]"))
        text = render(out)
        assert "R[2] = __R_R_2" in text  # flushed before dynamic access
        assert "x = R[i]" in text

    def test_nonconstant_write_invalidates(self):
        cache = self.make()
        cache.transform(parse("x = R[1]"))
        cache.transform(parse("R[j] = 5"))
        assert ("R", 1) not in cache.loaded

    def test_if_hoists_loads_and_marks_dirty(self):
        cache = self.make()
        out = cache.transform(
            parse("if c:\n    R[6] = R[7] + 1")
        )
        text = render(out)
        # loads hoisted above the if so both paths have the locals
        assert text.index("__R_R_7 = R[7]") < text.index("if c:")
        assert text.index("__R_R_6 = R[6]") < text.index("if c:")
        assert ("R", 6) in cache.dirty

    def test_non_regfile_subscripts_untouched(self):
        cache = self.make()
        out = cache.transform(parse("x = other[3]"))
        assert render(out) == "x = other[3]"


class TestBlockShaping:
    @pytest.fixture(scope="class")
    def gen(self, toy_spec):
        return synthesize(toy_spec, "block_min")

    def test_fallthrough_blocks_chain_across_straightline_code(self, gen):
        sim = gen.make()
        toyasm.load_words(
            sim.state,
            [toyasm.addi(1, 0, 1)] * 5 + [toyasm.beq(0, 0, 0)],
        )
        sim.do_block(sim.di)
        assert sim.di.count == 6  # all six in one translated block

    def test_block_reuse_across_loop_iterations(self, gen):
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.run(10_000)
        # the loop body block was translated once, then replayed
        assert len(sim._cache) <= 4

    def test_constant_folding_embeds_immediates(self, gen):
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 42), toyasm.beq(0, 0, 0)])
        source = sim.block_source(0)
        assert "42" in source
        assert "instr_bits" not in source  # decode fully resolved

    def test_taken_branch_target_constant(self, gen):
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.jal(3)])
        source = sim.block_source(0)
        # JAL target = 4 + 3*4 = 16, folded to a constant next_pc; the
        # link-register write survives folding (it is architectural).
        assert "next_pc = 16" in source
        assert "lr = 4" in source
        assert "__state.sr['lr'] = lr" in source

    def test_syscall_ends_block_and_flushes_first(self, gen, toy_spec):
        sim = gen.make()
        toyasm.load_words(
            sim.state, [toyasm.addi(1, 0, 5), toyasm.sys(), toyasm.addi(2, 0, 6)]
        )
        source = sim.block_source(0)
        body = source.split("_do_syscall")[0]
        assert "R[1] = " in body  # dirty register flushed before the trap
        assert "di.count = 2" in source  # block ends at the syscall


class TestPieceMemo:
    """The translator memoizes each instruction occurrence's text, keyed by
    everything that text depends on; reuse must never change a unit."""

    @pytest.fixture(scope="class")
    def gen(self, toy_spec):
        return synthesize(toy_spec, "block_min")

    @pytest.mark.parametrize("kernel", ["sort", "matmul"])
    def test_unit_source_independent_of_translation_order(self, kernel):
        bundle = get_bundle("alpha")
        generated = synthesize(bundle.load_spec(), "block_min")
        spec = SUITE[kernel]
        image = assemble_kernel("alpha", spec, spec.test_n)

        def fresh():
            sim = generated.make(syscall_handler=OSEmulator(bundle.abi))
            load_image(sim.state, image, bundle.abi)
            return sim

        warm = fresh()
        assert warm.run(50_000_000).exited
        # The sliced run shares the warm translator, adding partial units.
        sliced = fresh()
        sliced._translator = warm._translator
        while not sliced.run(137).exited:
            pass
        translator = warm._translator
        pcs = sorted(warm._cache)
        assert pcs
        for pc in pcs:
            reused = translator.block_source(warm, pc)
            assert reused.reused == reused.length
            cold_sim = fresh()
            cold = cold_sim._translator.block_source(cold_sim, pc)
            assert reused.source == cold.source, hex(pc)
            assert reused.exit_targets == cold.exit_targets, hex(pc)
            assert len(reused.cells) == len(cold.cells), hex(pc)

    def test_syscall_text_follows_its_unit_position(self, gen):
        sim = gen.make()
        toyasm.load_words(
            sim.state, [toyasm.addi(1, 0, 5), toyasm.addi(1, 0, 5), toyasm.sys()]
        )
        # Both units reach the syscall at 0x08 with the same register-cache
        # state (R0 loaded, R1 dirty), at positions 2 and 1.
        from_0 = sim.block_source(0)
        from_4 = sim.block_source(4)
        assert "di.count = 3" in from_0
        assert "di.count = 2" not in from_0
        assert "di.count = 2" in from_4
        assert "di.count = 3" not in from_4

    def test_rewritten_word_is_retranslated(self, gen):
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 42), toyasm.beq(0, 0, 0)])
        assert "42" in sim.block_source(0)
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 99)])
        sim.flush_code_cache()
        source = sim.block_source(0)
        assert "99" in source
        assert "42" not in source
