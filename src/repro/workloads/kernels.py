"""The benchmark kernel suite.

Nine integer kernels standing in for the paper's SPEC CPU2000int /
MediaBench workloads: each is written once against the portable builder
and comes with a pure-Python reference model.  All arithmetic is defined
mod 2**32 with signed 32-bit comparisons, which every lowering implements
exactly, so one expected value validates all three ISAs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.workloads.builder import Kernel

M32 = 0xFFFFFFFF
LCG_MUL = 1103515245
LCG_ADD = 12345


def _lcg(seed: int) -> int:
    return (seed * LCG_MUL + LCG_ADD) & M32


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: builder, reference model, default sizes."""

    name: str
    build: Callable[[int], Kernel]
    reference: Callable[[int], int]
    test_n: int
    bench_n: int
    description: str


# -- 1. checksum: pure ALU mix -------------------------------------------------


def build_checksum(n: int) -> Kernel:
    k = Kernel()
    seed, acc, i, limit, mul, t1, t2 = k.regs("seed acc i limit mul t1 t2")
    k.li(seed, 1)
    k.li(acc, 0)
    k.li(i, 0)
    k.li(limit, n)
    k.li(mul, LCG_MUL)
    k.label("loop")
    k.alu("mul", seed, seed, mul)
    k.li(t1, LCG_ADD)
    k.alu("add", seed, seed, t1)
    k.alu("xor", acc, acc, seed)
    k.shifti("shl", t1, acc, 1)
    k.shifti("shr", t2, acc, 31)
    k.alu("or", acc, t1, t2)
    k.alu("add", acc, acc, i)
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "loop")
    k.store_result(acc)
    k.exit(acc)
    return k


def ref_checksum(n: int) -> int:
    seed, acc = 1, 0
    for i in range(n):
        seed = _lcg(seed)
        acc = (acc ^ seed) & M32
        acc = ((acc << 1) | (acc >> 31)) & M32
        acc = (acc + i) & M32
    return acc


# -- 2. fib: tight dependent loop -------------------------------------------------


def build_fib(n: int) -> Kernel:
    k = Kernel()
    a, b, t, i = k.regs("a b t i")
    k.li(a, 0)
    k.li(b, 1)
    k.li(i, n)
    k.label("loop")
    k.alu("add", t, a, b)
    k.mov(a, b)
    k.mov(b, t)
    k.alui("sub", i, i, 1)
    k.branchi("ne", i, 0, "loop")
    k.store_result(a)
    k.exit(a)
    return k


def ref_fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (a + b) & M32
    return a


# -- 3. sieve: byte flags, nested loops ----------------------------------------------


def build_sieve(n: int) -> Kernel:
    k = Kernel()
    flags, i, j, count, limit, byte = k.regs("flags i j count limit byte")
    k.data_space("sieve_flags", n + 1)
    k.la(flags, "sieve_flags")
    k.li(count, 0)
    k.li(limit, n)
    k.li(i, 2)
    k.label("outer")
    k.alu("add", byte, flags, i)
    k.load(byte, byte, 0, "b")
    k.branchi("ne", byte, 0, "next")
    k.alui("add", count, count, 1)
    k.alu("mul", j, i, i)
    k.branch("gt", j, limit, "next")
    k.label("mark")
    k.alu("add", byte, flags, j)
    k.store(i, byte, 0, "b")  # any nonzero byte marks composite (i >= 2)
    k.alu("add", j, j, i)
    k.branch("le", j, limit, "mark")
    k.label("next")
    k.alui("add", i, i, 1)
    k.branch("le", i, limit, "outer")
    k.store_result(count)
    k.exit(count)
    return k


def ref_sieve(n: int) -> int:
    flags = bytearray(n + 1)
    count = 0
    for i in range(2, n + 1):
        if not flags[i]:
            count += 1
            j = i * i
            while j <= n:
                flags[j] = 1
                j += i
    return count


# -- 4. sort: insertion sort over an LCG-filled array -------------------------------------


def build_sort(n: int) -> Kernel:
    k = Kernel()
    base, seed, i, j, key, t1, t2, limit = k.regs("base seed i j key t1 t2 limit")
    k.data_space("sort_data", n * 4)
    k.la(base, "sort_data")
    # fill with 15-bit LCG values
    k.li(seed, 1)
    k.li(i, 0)
    k.li(limit, n)
    k.li(t2, LCG_MUL)
    k.label("fill")
    k.alu("mul", seed, seed, t2)
    k.li(t1, LCG_ADD)
    k.alu("add", seed, seed, t1)
    k.shifti("shr", t1, seed, 17)
    k.shifti("shl", key, i, 2)
    k.alu("add", key, key, base)
    k.store(t1, key, 0, "l")
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "fill")
    # insertion sort
    k.li(i, 1)
    k.label("outer")
    k.branch("ge", i, limit, "done")
    k.shifti("shl", t1, i, 2)
    k.alu("add", t1, t1, base)
    k.load(key, t1, 0, "l")
    k.mov(j, i)
    k.label("inner")
    k.branchi("le", j, 0, "insert")
    k.shifti("shl", t1, j, 2)
    k.alu("add", t1, t1, base)
    k.load(t2, t1, -4, "l")
    k.branch("le", t2, key, "insert")
    k.store(t2, t1, 0, "l")
    k.alui("sub", j, j, 1)
    k.jump("inner")
    k.label("insert")
    k.shifti("shl", t1, j, 2)
    k.alu("add", t1, t1, base)
    k.store(key, t1, 0, "l")
    k.alui("add", i, i, 1)
    k.jump("outer")
    k.label("done")
    # checksum: sum((i+1) * a[i])
    k.li(seed, 0)
    k.li(i, 0)
    k.label("sum")
    k.shifti("shl", t1, i, 2)
    k.alu("add", t1, t1, base)
    k.load(t2, t1, 0, "l")
    k.alui("add", key, i, 1)
    k.alu("mul", t2, t2, key)
    k.alu("add", seed, seed, t2)
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "sum")
    k.store_result(seed)
    k.exit(seed)
    return k


def ref_sort(n: int) -> int:
    seed = 1
    data = []
    for _ in range(n):
        seed = _lcg(seed)
        data.append(seed >> 17)
    data.sort()
    total = 0
    for index, value in enumerate(data):
        total = (total + (index + 1) * value) & M32
    return total


# -- 5. string search: byte scanning ----------------------------------------------------------


def build_strsearch(n: int) -> Kernel:
    k = Kernel()
    text, i, seed, t1, t2, count, limit, pat = k.regs(
        "text i seed t1 t2 count limit pat"
    )
    k.data_space("hay", n + 4)
    # generate text of letters 'a'..'h'
    k.la(text, "hay")
    k.li(seed, 7)
    k.li(i, 0)
    k.li(limit, n)
    k.li(t2, LCG_MUL)
    k.label("gen")
    k.alu("mul", seed, seed, t2)
    k.li(t1, LCG_ADD)
    k.alu("add", seed, seed, t1)
    k.shifti("shr", t1, seed, 13)
    k.alui("and", t1, t1, 7)
    k.alui("add", t1, t1, 97)  # 'a'
    k.alu("add", pat, text, i)
    k.store(t1, pat, 0, "b")
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "gen")
    # count occurrences of "ab"
    k.li(count, 0)
    k.li(i, 0)
    k.alui("sub", limit, limit, 1)
    k.label("scan")
    k.alu("add", pat, text, i)
    k.load(t1, pat, 0, "b")
    k.branchi("ne", t1, 97, "skip")
    k.load(t2, pat, 1, "b")
    k.branchi("ne", t2, 98, "skip")
    k.alui("add", count, count, 1)
    k.label("skip")
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "scan")
    k.store_result(count)
    k.exit(count)
    return k


def ref_strsearch(n: int) -> int:
    seed = 7
    text = bytearray()
    for _ in range(n):
        seed = _lcg(seed)
        text.append(97 + ((seed >> 13) & 7))
    return sum(
        1 for i in range(n - 1) if text[i] == 97 and text[i + 1] == 98
    )


# -- 6. matmul: nested loops + addressing -------------------------------------------------------


def build_matmul(n: int) -> Kernel:
    k = Kernel()
    a, b, c, i, j, p, acc, t1 = k.regs("a b c i j p acc t1")
    t2, t3 = k.regs("t2 t3")
    k.data_space("mat_a", n * n * 4)
    k.data_space("mat_b", n * n * 4)
    k.data_space("mat_c", n * n * 4)
    # initialize A and B
    k.la(a, "mat_a")
    k.la(b, "mat_b")
    k.li(i, 0)
    k.li(t3, n * n)
    k.label("init")
    k.alui("and", t1, i, 31)
    k.alui("add", t1, t1, 1)
    k.shifti("shl", t2, i, 2)
    k.alu("add", t2, t2, a)
    k.store(t1, t2, 0, "l")
    k.alui("and", t1, i, 15)
    k.alui("add", t1, t1, 2)
    k.shifti("shl", t2, i, 2)
    k.alu("add", t2, t2, b)
    k.store(t1, t2, 0, "l")
    k.alui("add", i, i, 1)
    k.branch("lt", i, t3, "init")
    # C = A * B
    k.la(c, "mat_c")
    k.li(i, 0)
    k.label("row")
    k.li(j, 0)
    k.label("col")
    k.li(acc, 0)
    k.li(p, 0)
    k.label("dot")
    k.li(t1, n)
    k.alu("mul", t1, t1, i)
    k.alu("add", t1, t1, p)
    k.shifti("shl", t1, t1, 2)
    k.alu("add", t1, t1, a)
    k.load(t2, t1, 0, "l")
    k.li(t1, n)
    k.alu("mul", t1, t1, p)
    k.alu("add", t1, t1, j)
    k.shifti("shl", t1, t1, 2)
    k.alu("add", t1, t1, b)
    k.load(t3, t1, 0, "l")
    k.alu("mul", t2, t2, t3)
    k.alu("add", acc, acc, t2)
    k.alui("add", p, p, 1)
    k.branchi("lt", p, n, "dot")
    k.li(t1, n)
    k.alu("mul", t1, t1, i)
    k.alu("add", t1, t1, j)
    k.shifti("shl", t1, t1, 2)
    k.alu("add", t1, t1, c)
    k.store(acc, t1, 0, "l")
    k.alui("add", j, j, 1)
    k.branchi("lt", j, n, "col")
    k.alui("add", i, i, 1)
    k.branchi("lt", i, n, "row")
    # checksum C
    k.li(acc, 0)
    k.li(i, 0)
    k.li(t3, n * n)
    k.label("sum")
    k.shifti("shl", t1, i, 2)
    k.alu("add", t1, t1, c)
    k.load(t2, t1, 0, "l")
    k.alu("add", acc, acc, t2)
    k.alui("add", i, i, 1)
    k.branch("lt", i, t3, "sum")
    k.store_result(acc)
    k.exit(acc)
    return k


def ref_matmul(n: int) -> int:
    a = [((i & 31) + 1) for i in range(n * n)]
    b = [((i & 15) + 2) for i in range(n * n)]
    total = 0
    for i in range(n):
        for j in range(n):
            acc = 0
            for p in range(n):
                acc = (acc + a[i * n + p] * b[p * n + j]) & M32
            total = (total + acc) & M32
    return total


# -- 7. listsum: pointer chasing -------------------------------------------------------------------


def build_listsum(n: int) -> Kernel:
    k = Kernel()
    base, i, t1, t2, node, acc, limit = k.regs("base i t1 t2 node acc limit")
    k.data_space("nodes", n * 8)
    k.la(base, "nodes")
    # node i lives at base + perm(i)*8 where perm(i) = (i*7) % n;
    # node stores [value, address-of-next]
    k.li(i, 0)
    k.li(limit, n)
    k.label("build")
    k.li(t1, 7)
    k.alu("mul", t1, t1, i)
    k.label("mod")  # t1 %= n by repeated subtraction (n small multiples)
    k.branch("lt", t1, limit, "modend")
    k.alu("sub", t1, t1, limit)
    k.jump("mod")
    k.label("modend")
    k.shifti("shl", t1, t1, 3)
    k.alu("add", node, base, t1)  # this node
    k.alui("add", t2, i, 1)
    k.branch("lt", t2, limit, "notlast")
    k.li(t2, 0)
    k.label("notlast")
    k.li(t1, 7)
    k.alu("mul", t1, t1, t2)
    k.label("mod2")
    k.branch("lt", t1, limit, "mod2end")
    k.alu("sub", t1, t1, limit)
    k.jump("mod2")
    k.label("mod2end")
    k.shifti("shl", t1, t1, 3)
    k.alu("add", t1, base, t1)  # next node address
    k.alui("add", t2, i, 3)
    k.store(t2, node, 0, "l")  # value = i + 3
    k.store(t1, node, 4, "l")  # next pointer
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "build")
    # traverse from the head (perm(0) == 0)
    k.mov(node, base)
    k.li(acc, 0)
    k.li(i, 0)
    k.label("walk")
    k.load(t1, node, 0, "l")
    k.alu("add", acc, acc, t1)
    k.load(node, node, 4, "l")
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "walk")
    k.store_result(acc)
    k.exit(acc)
    return k


def ref_listsum(n: int) -> int:
    # every node's value is i+3 and the walk visits n nodes exactly once
    # (7 is coprime with the sizes we use), so the sum is closed-form.
    return (sum(i + 3 for i in range(n))) & M32


# -- 8. bitcount: masked popcount ---------------------------------------------------------------------


def build_bitcount(n: int) -> Kernel:
    k = Kernel()
    seed, acc, i, limit, x, t1, m1, m2, m3 = k.regs(
        "seed acc i limit x t1 m1 m2 m3"
    )
    k.li(seed, 3)
    k.li(acc, 0)
    k.li(i, 0)
    k.li(limit, n)
    k.li(m1, 0x55555555)
    k.li(m2, 0x33333333)
    k.li(m3, 0x0F0F0F0F)
    k.label("loop")
    k.li(t1, LCG_MUL)
    k.alu("mul", seed, seed, t1)
    k.li(t1, LCG_ADD)
    k.alu("add", seed, seed, t1)
    # x = popcount(seed)
    k.shifti("shr", x, seed, 1)
    k.alu("and", x, x, m1)
    k.alu("sub", x, seed, x)
    k.shifti("shr", t1, x, 2)
    k.alu("and", t1, t1, m2)
    k.alu("and", x, x, m2)
    k.alu("add", x, x, t1)
    k.shifti("shr", t1, x, 4)
    k.alu("add", x, x, t1)
    k.alu("and", x, x, m3)
    k.shifti("shr", t1, x, 8)
    k.alu("add", x, x, t1)
    k.shifti("shr", t1, x, 16)
    k.alu("add", x, x, t1)
    k.alui("and", x, x, 63)
    k.alu("add", acc, acc, x)
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "loop")
    k.store_result(acc)
    k.exit(acc)
    return k


def ref_bitcount(n: int) -> int:
    seed, acc = 3, 0
    for _ in range(n):
        seed = _lcg(seed)
        acc = (acc + bin(seed).count("1")) & M32
    return acc


# -- 9. memcopy: bulk word moves --------------------------------------------------------------------------


def build_memcopy(n: int) -> Kernel:
    k = Kernel()
    src, dst, i, t1, t2, acc, limit = k.regs("src dst i t1 t2 acc limit")
    k.data_space("copy_src", n * 4)
    k.data_space("copy_dst", n * 4)
    k.la(src, "copy_src")
    k.la(dst, "copy_dst")
    k.li(i, 0)
    k.li(limit, n)
    k.label("fill")
    k.alui("add", t1, i, 13)
    k.alu("mul", t1, t1, t1)
    k.shifti("shl", t2, i, 2)
    k.alu("add", t2, t2, src)
    k.store(t1, t2, 0, "l")
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "fill")
    k.li(i, 0)
    k.label("copy")
    k.shifti("shl", t1, i, 2)
    k.alu("add", t2, t1, src)
    k.load(t2, t2, 0, "l")
    k.alu("add", t1, t1, dst)
    k.store(t2, t1, 0, "l")
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "copy")
    k.li(acc, 0)
    k.li(i, 0)
    k.label("sum")
    k.shifti("shl", t1, i, 2)
    k.alu("add", t1, t1, dst)
    k.load(t2, t1, 0, "l")
    k.alu("xor", acc, acc, t2)
    k.alu("add", acc, acc, i)
    k.alui("add", i, i, 1)
    k.branch("lt", i, limit, "sum")
    k.store_result(acc)
    k.exit(acc)
    return k


def ref_memcopy(n: int) -> int:
    acc = 0
    for i in range(n):
        value = ((i + 13) * (i + 13)) & M32
        acc = ((acc ^ value) + i) & M32
    return acc


SUITE: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in [
        KernelSpec("checksum", build_checksum, ref_checksum, 500, 6000,
                   "ALU/rotate mix over an LCG stream"),
        KernelSpec("fib", build_fib, ref_fib, 300, 8000,
                   "dependent add chain"),
        KernelSpec("sieve", build_sieve, ref_sieve, 300, 2500,
                   "sieve of Eratosthenes over byte flags"),
        KernelSpec("sort", build_sort, ref_sort, 48, 160,
                   "insertion sort + weighted checksum"),
        KernelSpec("strsearch", build_strsearch, ref_strsearch, 400, 6000,
                   "byte-wise naive substring count"),
        KernelSpec("matmul", build_matmul, ref_matmul, 8, 18,
                   "dense integer matrix multiply"),
        KernelSpec("listsum", build_listsum, ref_listsum, 100, 705,
                   "linked-list build + pointer chase"),
        KernelSpec("bitcount", build_bitcount, ref_bitcount, 300, 4000,
                   "branch-free popcount"),
        KernelSpec("memcopy", build_memcopy, ref_memcopy, 300, 4000,
                   "word copy + checksum"),
    ]
}
