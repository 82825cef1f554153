package emu

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/obs"
	"rvdyn/internal/riscv"
	"rvdyn/internal/workload"
)

// codeBase is where the tests below map a code region with MapCode, well
// clear of the image and the stack.
const codeBase = 0x200_0000

// enc concatenates the 4-byte encodings of insts.
func enc(insts ...riscv.Inst) []byte {
	var b []byte
	for _, in := range insts {
		b = append(b, instBytes(in)...)
	}
	return b
}

// regionCPU returns a CPU with npages of MapCode region at codeBase holding
// code at codeBase+off, its PC on the first instruction.
func regionCPU(t *testing.T, npages, off uint64, code []byte) *CPU {
	t.Helper()
	f, err := asm.Assemble(".text\n_start:\n\tli a7, 93\n\tecall\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	c.MapCode(codeBase, npages*pageSize)
	if err := c.WriteMem(codeBase+off, code); err != nil {
		t.Fatal(err)
	}
	c.PC = codeBase + off
	return c
}

// livePages counts the code pages allocated across every window.
func livePages(c *CPU) int {
	n := 0
	for _, w := range append([]codeWindow{c.image}, c.mapped...) {
		for _, p := range w.pages {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// regionLoop is twoBlockLoop laid out by hand for a MapCode region: loop
// (+0) jumps to mid (+8), mid branches back while s0 != s2, then exits with
// a0 = s1.
var regionLoop = enc(
	riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegS0, Rs1: riscv.RegS0, Imm: 1},
	riscv.Inst{Mn: riscv.MnJAL, Rd: riscv.X0, Imm: 4},
	riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegS1, Rs1: riscv.RegS1, Imm: 2},
	riscv.Inst{Mn: riscv.MnBNE, Rs1: riscv.RegS0, Rs2: riscv.RegS2, Imm: -12},
	riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA0, Rs1: riscv.RegS1},
	riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA7, Rs1: riscv.X0, Imm: 93},
	riscv.Inst{Mn: riscv.MnECALL},
)

// TestMapCodeWriteMemKillsOnlyTouchedBlock is TestWriteMemKillsOnlyTouchedBlock
// in a MapCode region: both loop blocks live in the region's window (not
// the overflow map), and a WriteMem into one retires just that block, with
// no generation bump.
func TestMapCodeWriteMemKillsOnlyTouchedBlock(t *testing.T) {
	loop, mid := uint64(codeBase), uint64(codeBase+8)
	var cpus [2]*CPU
	for i := range cpus {
		c := regionCPU(t, 1, 0, regionLoop)
		c.SlowDispatch = i == 1
		c.X[riscv.RegS2] = 10
		if r := c.Run(4 * 3); r != StopMaxInst || c.PC != loop {
			t.Fatalf("warm-up: %v at %#x", r, c.PC)
		}
		cpus[i] = c
	}
	fast, slow := cpus[0], cpus[1]
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	a, b := cachedBlock(fast, loop), cachedBlock(fast, mid)
	if a == nil || b == nil || len(fast.blkMap) != 0 || len(fast.icOverflow) != 0 {
		t.Fatalf("region blocks %p %p, overflow blocks %d decodes %d: want both in the window",
			a, b, len(fast.blkMap), len(fast.icOverflow))
	}
	gen := fast.icGen
	for _, c := range cpus {
		if err := c.WriteMem(mid, patchAddi); err != nil {
			t.Fatal(err)
		}
	}
	if fast.icGen != gen || b.gen != genDead || a.gen != gen {
		t.Fatalf("icGen %d→%d, patched block gen %#x, other block gen %d", gen, fast.icGen, b.gen, a.gen)
	}
	for _, c := range cpus {
		if r := c.Run(0); r != StopExit {
			t.Fatalf("run: %v (%v)", r, c.LastTrap())
		}
	}
	requireSameState(t, fast, slow)
	if fast.ExitCode != 3*2+7*3 {
		t.Errorf("exit %d: the patched addi did not take effect", fast.ExitCode)
	}
	builds, bumps, kills, severs := blockCounters(reg)
	if cachedBlock(fast, loop) != a {
		t.Error("the untouched block was rebuilt")
	}
	if builds != 2 || bumps != 0 || kills != 1 || severs != 1 {
		t.Errorf("builds=%d bumps=%d kills=%d severs=%d, want 2 0 1 1", builds, bumps, kills, severs)
	}
}

// TestMapCodeGuestStoreBumpsGeneration: a guest store into decoded code in
// a MapCode region takes the SMC path — a generation bump, no precise kill
// — and the rewritten instruction runs on both dispatch paths.
func TestMapCodeGuestStoreBumpsGeneration(t *testing.T) {
	code := enc(
		riscv.Inst{Mn: riscv.MnSW, Rs1: riscv.RegT1, Rs2: riscv.RegT0, Imm: 4},
		riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegS1, Rs1: riscv.RegS1, Imm: 2},
		riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA0, Rs1: riscv.RegS1},
		riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA7, Rs1: riscv.X0, Imm: 93},
		riscv.Inst{Mn: riscv.MnECALL},
	)
	var cpus [2]*CPU
	reg := obs.NewRegistry()
	for i := range cpus {
		c := regionCPU(t, 1, 0, code)
		c.SlowDispatch = i == 1
		c.X[riscv.RegT0] = uint64(riscv.MustEncode(riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegS1, Rs1: riscv.RegS1, Imm: 3}))
		c.X[riscv.RegT1] = codeBase
		cpus[i] = c
	}
	fast, slow := cpus[0], cpus[1]
	fast.Obs = NewMetrics(reg)
	gen := fast.icGen
	for _, c := range cpus {
		if r := c.Run(0); r != StopExit {
			t.Fatalf("run: %v (%v)", r, c.LastTrap())
		}
	}
	requireSameState(t, fast, slow)
	if fast.ExitCode != 3 {
		t.Errorf("exit %d, want 3 from the stored addi", fast.ExitCode)
	}
	if _, bumps, kills, _ := blockCounters(reg); fast.icGen == gen || bumps != 1 || kills != 0 {
		t.Errorf("icGen %d→%d, bumps=%d kills=%d: want one generation bump", gen, fast.icGen, bumps, kills)
	}
}

// TestMapCodeStraddlingInstruction: a 4-byte instruction whose halves lie
// on two lazily allocated pages decodes whole, and a WriteMem from its
// upper half (on the second page) through the next instruction retires the
// decodes filed on both pages.
func TestMapCodeStraddlingInstruction(t *testing.T) {
	addi := func(rs1 riscv.Reg, imm int64) riscv.Inst {
		return riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA0, Rs1: rs1, Imm: imm}
	}
	pc := uint64(codeBase + pageSize - 2)
	c := regionCPU(t, 2, pageSize-2, enc(addi(riscv.X0, 42), addi(riscv.RegA0, 0),
		riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegA7, Rs1: riscv.X0, Imm: 93},
		riscv.Inst{Mn: riscv.MnECALL}))
	reg := obs.NewRegistry()
	c.Obs = NewMetrics(reg)
	if w := c.mapped[0]; w.pages[0] != nil || w.pages[1] != nil {
		t.Fatal("pages allocated before any fetch")
	}
	in, err := c.fetchAt(pc)
	if err != nil || in.Len != 4 || in.Mn != riscv.MnADDI || in.Imm != 42 {
		t.Fatalf("straddling fetch: %v %v", in, err)
	}
	if r := c.Run(0); r != StopExit || c.ExitCode != 42 {
		t.Fatalf("run: %v exit %d (%v)", r, c.ExitCode, c.LastTrap())
	}
	if p, _ := c.codePage(pc + 2); p == nil {
		t.Fatal("the second page was never allocated")
	}
	if err := c.WriteMem(pc+2, enc(addi(riscv.X0, 43), addi(riscv.RegA0, 1))[2:]); err != nil {
		t.Fatal(err)
	}
	c.Exited, c.PC = false, pc
	if r := c.Run(0); r != StopExit || c.ExitCode != 44 {
		t.Fatalf("after the patch: %v exit %d (%v), want 44", r, c.ExitCode, c.LastTrap())
	}
	if _, bumps, kills, _ := blockCounters(reg); bumps != 0 || kills != 1 {
		t.Errorf("bumps=%d kills=%d, want the straddling block retired alone", bumps, kills)
	}
}

// TestMapCodeLazyPages: code run on the first and last pages of a
// three-page region allocates those two only; a WriteMem into the untouched
// middle page allocates nothing and retires nothing; FlushICache drops
// every page of every window, and the code runs again from scratch.
func TestMapCodeLazyPages(t *testing.T) {
	c := regionCPU(t, 3, 0, enc(riscv.Inst{Mn: riscv.MnJAL, Rd: riscv.X0, Imm: 2 * pageSize}))
	if err := c.WriteMem(codeBase+2*pageSize, regionLoop); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Obs = NewMetrics(reg)
	c.X[riscv.RegS2] = 10
	if r := c.Run(0); r != StopExit || c.ExitCode != 20 {
		t.Fatalf("run: %v exit %d (%v)", r, c.ExitCode, c.LastTrap())
	}
	w := c.mapped[len(c.mapped)-1]
	if w.base != codeBase || len(w.pages) != 3 || w.pages[0] == nil || w.pages[1] != nil || w.pages[2] == nil {
		t.Fatalf("window [%#x, %#x) pages %v: want the first and last allocated", w.base, w.end, w.pages)
	}
	if err := c.WriteMem(codeBase+pageSize+16, patchAddi); err != nil {
		t.Fatal(err)
	}
	if _, bumps, kills, _ := blockCounters(reg); w.pages[1] != nil || bumps != 0 || kills != 0 {
		t.Fatalf("data write into an untouched page: allocated %v, bumps=%d kills=%d", w.pages[1] != nil, bumps, kills)
	}
	gen := c.icGen
	c.FlushICache()
	if n := livePages(c); n != 0 || c.icGen == gen {
		t.Fatalf("after FlushICache: %d pages, icGen %d→%d", n, gen, c.icGen)
	}
	c.Exited, c.PC, c.X[riscv.RegS0], c.X[riscv.RegS1] = false, codeBase, 0, 0
	if r := c.Run(0); r != StopExit || c.ExitCode != 20 {
		t.Fatalf("rerun: %v exit %d (%v)", r, c.ExitCode, c.LastTrap())
	}
	// Mapping a covered range again adds no window.
	n := len(c.mapped)
	c.MapCode(codeBase+pageSize, pageSize)
	if len(c.mapped) != n {
		t.Errorf("re-mapping a covered range added a window (%d → %d)", n, len(c.mapped))
	}
}

// TestMapCodeOverOverflowCode: code that already ran in plain mapped
// memory, through the overflow maps, and is chained to from the image,
// must not survive MapCode over its range: a later WriteMem there finds
// nothing in the new window to retire, so the image block's chained link
// would run the stale block.
func TestMapCodeOverOverflowCode(t *testing.T) {
	f, err := asm.Assemble(`
	.text
_start:
	li t0, 0x2000000
	li s2, 3
loop:
	jalr ra, 0(t0)
	addi s0, s0, 1
	bne s0, s2, loop
	mv a0, s1
	li a7, 93
	ecall
`, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	var cpus [2]*CPU
	for i := range cpus {
		c, err := New(f, P550())
		if err != nil {
			t.Fatal(err)
		}
		c.SlowDispatch = i == 1
		c.Mem.Map(codeBase, pageSize)
		if err := c.WriteMem(codeBase, enc(
			riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.RegS1, Rs1: riscv.RegS1, Imm: 2},
			riscv.Inst{Mn: riscv.MnJALR, Rd: riscv.X0, Rs1: riscv.RegRA})); err != nil {
			t.Fatal(err)
		}
		if r := c.Run(2 + 5 + 1); r != StopMaxInst || c.PC != codeBase {
			t.Fatalf("warm-up: %v at %#x", r, c.PC)
		}
		c.MapCode(codeBase, pageSize)
		if err := c.WriteMem(codeBase, patchAddi); err != nil {
			t.Fatal(err)
		}
		if r := c.Run(0); r != StopExit {
			t.Fatalf("run: %v (%v)", r, c.LastTrap())
		}
		cpus[i] = c
	}
	requireSameState(t, cpus[0], cpus[1])
	if cpus[0].ExitCode != 2+3+3 {
		t.Errorf("exit %d, want 8: the patched addi did not take effect every time", cpus[0].ExitCode)
	}
}

// TestBudgetSliceBuilds: running in 1-instruction slices retires exactly
// what per-instruction dispatch does and builds no more superblocks than a
// continuous run — blocks are built where control arrives by a transfer,
// never mid-way through a block the budget could not cover.
func TestBudgetSliceBuilds(t *testing.T) {
	f, err := asm.Assemble(workload.MatmulSource(6, 1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cpus [3]*CPU
	regs := [2]*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	for i := range cpus {
		if cpus[i], err = New(f, P550()); err != nil {
			t.Fatal(err)
		}
	}
	cont, sliced, slow := cpus[0], cpus[1], cpus[2]
	cont.Obs, sliced.Obs, slow.SlowDispatch = NewMetrics(regs[0]), NewMetrics(regs[1]), true
	if r := cont.Run(0); r != StopExit {
		t.Fatalf("continuous: %v", r)
	}
	if r := slow.Run(0); r != StopExit {
		t.Fatalf("slow: %v", r)
	}
	for !sliced.Exited {
		if r := sliced.Run(1); r != StopMaxInst && r != StopExit {
			t.Fatalf("slice: %v (%v)", r, sliced.LastTrap())
		}
	}
	requireSameState(t, sliced, slow)
	requireSameState(t, cont, slow)
	bc, _, _, _ := blockCounters(regs[0])
	bs, _, _, _ := blockCounters(regs[1])
	t.Logf("block builds: continuous %d, 1-instruction slices %d", bc, bs)
	if bs > bc {
		t.Errorf("1-instruction slices built %d blocks, a continuous run %d", bs, bc)
	}
}
