package emu

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/riscv"
)

// instBytes encodes one 4-byte instruction.
func instBytes(in riscv.Inst) []byte {
	w := riscv.MustEncode(in)
	return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
}

// cachedBlock returns the superblock cached at pc, current or not.
func cachedBlock(c *CPU, pc uint64) *block {
	if pc >= c.icBase && pc < c.icEnd {
		return c.blkSlots[(pc-c.icBase)>>1]
	}
	return c.blkMap[pc]
}

// blockCounters reads the block-cache and chain counters.
func blockCounters(reg *obs.Registry) (builds, bumps, kills, severs uint64) {
	return reg.Counter("emu.block_cache.builds").Load(),
		reg.Counter("emu.block_cache.invalidations").Load(),
		reg.Counter("emu.block_cache.kills").Load(),
		reg.Counter("emu.chain.severs").Load()
}

// patchAddi is the replacement for `addi s1, s1, 2` the tests below write.
var patchAddi = instBytes(riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegS1, Rs1: riscv.RegS1, Imm: 3})

// twoBlockLoop alternates between two chained blocks: loop ends in a jump
// to mid, mid ends in the backedge.
const twoBlockLoop = `
	.text
_start:
	li s0, 0
	li s2, 10
loop:
	addi s0, s0, 1
	j mid
mid:
	addi s1, s1, 2
	bne s0, s2, loop
	mv a0, s1
	li a7, 93
	ecall
`

// TestWriteMemKillsOnlyTouchedBlock: a WriteMem into one block of a
// two-block loop retires exactly that block — no generation bump — so the
// other block keeps its cached superblock, the chained link into the
// patched block severs, and only the patched block is rebuilt. The run ends
// bit-identical to per-instruction dispatch patched at the same point, and
// repeated patching keeps the page index bounded.
func TestWriteMemKillsOnlyTouchedBlock(t *testing.T) {
	f, err := asm.Assemble(twoBlockLoop, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := f.Symbol("loop")
	mid, _ := f.Symbol("mid")
	const warm = 2 + 4*3 // prologue plus three iterations: stops at loop
	var cpus [2]*CPU
	for i := range cpus {
		c, err := New(f, P550())
		if err != nil {
			t.Fatal(err)
		}
		c.SlowDispatch = i == 1
		if r := c.Run(warm); r != StopMaxInst || c.PC != loop.Value {
			t.Fatalf("warm-up: %v at %#x", r, c.PC)
		}
		cpus[i] = c
	}
	fast, slow := cpus[0], cpus[1]
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	a, b := cachedBlock(fast, loop.Value), cachedBlock(fast, mid.Value)
	if a == nil || b == nil || a.gen != fast.icGen || b.gen != fast.icGen {
		t.Fatal("warm-up did not cache both loop blocks")
	}
	if a.succ[0].b != b && a.succ[1].b != b {
		t.Fatal("loop block is not chained to mid")
	}
	gen := fast.icGen
	for _, c := range cpus {
		if err := c.WriteMem(mid.Value, patchAddi); err != nil {
			t.Fatal(err)
		}
	}
	if fast.icGen != gen || b.gen != genDead || a.gen != gen {
		t.Fatalf("icGen %d→%d, patched block gen %#x, other block gen %d", gen, fast.icGen, b.gen, a.gen)
	}
	if r := fast.Run(0); r != StopExit {
		t.Fatalf("fast: %v (%v)", r, fast.LastTrap())
	}
	if r := slow.Run(0); r != StopExit {
		t.Fatalf("slow: %v (%v)", r, slow.LastTrap())
	}
	requireSameState(t, fast, slow)
	if fast.ExitCode != 3*2+7*3 {
		t.Errorf("exit %d: the patched addi did not take effect", fast.ExitCode)
	}
	builds, bumps, kills, severs := blockCounters(reg)
	if cachedBlock(fast, loop.Value) != a {
		t.Error("the untouched block was rebuilt")
	}
	// mid is rebuilt once; the exit tail after the backedge is new code.
	if builds != 2 || bumps != 0 || kills != 1 || severs != 1 {
		t.Errorf("builds=%d bumps=%d kills=%d severs=%d, want 2 0 1 1", builds, bumps, kills, severs)
	}

	// Patch-and-rerun many times: the stale entries must not pile up in the
	// index (two live blocks on the page, plus the tail).
	for i := 0; i < 200; i++ {
		if err := fast.WriteMem(mid.Value, patchAddi); err != nil {
			t.Fatal(err)
		}
		fast.Exited, fast.PC, fast.X[riscv.RegS0] = false, loop.Value, 0
		if r := fast.Run(0); r != StopExit {
			t.Fatalf("rerun %d: %v", i, r)
		}
	}
	if n := len(fast.blkPages[mid.Value>>pageBits]); n > 8 {
		t.Errorf("page index holds %d entries for 3 live blocks", n)
	}
}

// TestWriteMemKillsPageStraddlingBlock: a block whose bytes cross a page
// boundary is filed under both pages, so a WriteMem into either one
// retires it.
func TestWriteMemKillsPageStraddlingBlock(t *testing.T) {
	const base, start = 0x10000, 0x10ff0 // four addis before 0x11000, two after
	add1 := instBytes(riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA0, Rs1: riscv.RegA0, Imm: 1})
	add5 := instBytes(riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA0, Rs1: riscv.RegA0, Imm: 5})
	code := make([]byte, start-base)
	for i := 0; i < 6; i++ {
		code = append(code, add1...)
	}
	code = append(code, instBytes(riscv.Inst{Mn: riscv.MnEBREAK})...)
	f := &elfrv.File{
		Entry: start,
		Sections: []*elfrv.Section{{Name: ".text", Type: elfrv.SHTProgbits,
			Flags: elfrv.SHFAlloc | elfrv.SHFExecinstr, Addr: base, Data: code, Align: 4}},
	}
	for _, at := range []uint64{start + 4, 0x11004} {
		c, err := New(f, P550())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		c.Obs = NewMetrics(reg)
		if r := c.Run(0); r != StopBreakpoint || c.X[riscv.RegA0] != 6 {
			t.Fatalf("first run: %v, a0=%d", r, c.X[riscv.RegA0])
		}
		b := cachedBlock(c, start)
		if b == nil || b.hi != 0x1100c {
			t.Fatalf("block at %#x does not span the page boundary", uint64(start))
		}
		if err := c.WriteMem(at, add5); err != nil {
			t.Fatal(err)
		}
		if b.gen != genDead {
			t.Errorf("write at %#x left the straddling block live", at)
		}
		c.PC, c.X[riscv.RegA0] = start, 0
		if r := c.Run(0); r != StopBreakpoint || c.X[riscv.RegA0] != 10 {
			t.Errorf("write at %#x: rerun %v, a0=%d, want 10", at, r, c.X[riscv.RegA0])
		}
		if _, bumps, kills, _ := blockCounters(reg); bumps != 0 || kills != 1 {
			t.Errorf("write at %#x: bumps=%d kills=%d, want 0 1", at, bumps, kills)
		}
	}
}

// hotLoop is a single-block loop that runs well past the trace-hotness
// threshold.
const hotLoop = `
	.text
_start:
	li s0, 0
	li s2, 1000
loop:
	addi s0, s0, 1
	addi s1, s1, 2
	addi s3, s3, 1
	bne s0, s2, loop
	mv a0, s1
	li a7, 93
	ecall
`

// warmHotLoop runs hotLoop on one dispatch tier (0 slow, 1 block, 2 trace)
// to the loop head after 300 iterations.
func warmHotLoop(t *testing.T, tier int) (*CPU, *obs.Registry, uint64) {
	t.Helper()
	f, err := asm.Assemble(hotLoop, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := f.Symbol("loop")
	c, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	c.SlowDispatch, c.NoTrace = tier == 0, tier == 1
	reg := obs.NewRegistry()
	c.Obs = NewMetrics(reg)
	if r := c.Run(2 + 4*300); r != StopMaxInst || c.PC != loop.Value {
		t.Fatalf("%s warm-up: %v at %#x", dispatchTierNames[tier], r, c.PC)
	}
	return c, reg, loop.Value
}

// TestWriteMemIntoTracedBlockSevers: a WriteMem into a block a trace was
// compiled through cannot retire the block alone — the trace carries its
// own copy of the code — so it falls back to the generation bump, and the
// stale trace is severed at its next dispatch.
func TestWriteMemIntoTracedBlockSevers(t *testing.T) {
	fast, reg, loop := warmHotLoop(t, 2)
	slow, _, _ := warmHotLoop(t, 0)
	b := cachedBlock(fast, loop)
	if b == nil || b.trc == nil || !b.traced {
		t.Fatal("the hot loop was not trace-compiled")
	}
	gen := fast.icGen
	for _, c := range []*CPU{fast, slow} {
		if err := c.WriteMem(loop+4, patchAddi); err != nil {
			t.Fatal(err)
		}
	}
	if fast.icGen != gen+1 {
		t.Fatalf("icGen %d→%d: a WriteMem into a traced block must bump the generation", gen, fast.icGen)
	}
	_, _, _, _, traceSevers0 := traceCounters(reg)
	if r := fast.Run(0); r != StopExit {
		t.Fatalf("fast: %v", r)
	}
	if r := slow.Run(0); r != StopExit {
		t.Fatalf("slow: %v", r)
	}
	requireSameState(t, fast, slow)
	_, bumps, kills, _ := blockCounters(reg)
	_, _, _, _, traceSevers := traceCounters(reg)
	if bumps != 1 || kills != 0 || traceSevers <= traceSevers0 {
		t.Errorf("bumps=%d kills=%d trace severs %d→%d; want one bump, no kills, a trace sever",
			bumps, kills, traceSevers0, traceSevers)
	}
}

// TestWriteMemBreakpointMidBlock: an ebreak planted by WriteMem over the
// middle of a hot block (what a debugger's breakpoint insert does) stops
// every dispatch tier at exactly that PC with identical Cycles and Instret,
// whether the block was merely cached or compiled into a trace.
func TestWriteMemBreakpointMidBlock(t *testing.T) {
	var cpus [3]*CPU
	var at uint64
	for tier := range cpus {
		c, _, loop := warmHotLoop(t, tier)
		at = loop + 8
		if err := c.WriteMem(at, instBytes(riscv.Inst{Mn: riscv.MnEBREAK})); err != nil {
			t.Fatal(err)
		}
		if r := c.Run(0); r != StopBreakpoint || c.PC != at {
			t.Fatalf("%s: %v at %#x, want a breakpoint at %#x", dispatchTierNames[tier], r, c.PC, at)
		}
		cpus[tier] = c
	}
	for tier := 1; tier < 3; tier++ {
		requireSameState(t, cpus[tier], cpus[0])
	}
}
