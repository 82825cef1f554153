package emu

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/obs"
	"rvdyn/internal/riscv"
)

// dbiStubLoop is a hand-built inline-lookup loop: scratch-CSR save and
// restore around the body, the target stashed in 0x7C3, and a dbi.jt that
// jumps back to loop applying delta 0. On a DBI-attached CPU it runs
// forever, hot enough to compile into a looping trace whose back edge is a
// guarded dbi.jt.
const dbiStubLoop = `
	.text
_start:
	la s3, loop
	li s0, 0
loop:
	addi s0, s0, 1
	csrrw x0, 0x7c0, s0
	csrrs t0, 0x7c0, x0
	csrrw x0, 0x7c3, s3
	dbi.jt x0, x0, -2048
`

// dispatchTierNames labels the three Run engines a fault test drives.
var dispatchTierNames = [3]string{"slow", "block", "trace"}

// runDBIFault runs dbiStubLoop on each dispatch tier — per-instruction,
// superblock (NoTrace), and trace — with a DBIComp attached, well past the
// trace-hotness threshold, then lets brk break the DBI state and runs on
// to the trap. Every tier must trap at the same PC with the same Cycles,
// Instret, registers and LastTrap, and the trace tier must have met the
// trap inside a trace dispatch.
func runDBIFault(t *testing.T, brk func(c *CPU)) {
	t.Helper()
	f, err := asm.Assemble(dbiStubLoop, asm.Options{Arch: riscv.RV64GC | riscv.ExtXdbi, NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	loop, ok := f.Symbol("loop")
	if !ok {
		t.Fatal("no loop symbol")
	}
	// The warm-up budget lands on the loop head: the prologue plus a whole
	// number of five-instruction iterations.
	const prologue, iters = 3, 2000
	var cpus [3]*CPU
	var regs [3]*obs.Registry
	for tier := range cpus {
		c, err := New(f, P550())
		if err != nil {
			t.Fatal(err)
		}
		c.SlowDispatch = tier == 0
		c.NoTrace = tier == 1
		c.DBIComp = &DBIComp{Deltas: []CompDelta{{Insts: 1, Cycles: 2}}}
		regs[tier] = obs.NewRegistry()
		c.Obs = NewMetrics(regs[tier])
		if r := c.Run(prologue + 5*iters); r != StopMaxInst || c.PC != loop.Value {
			t.Fatalf("%s warm-up: %v at %#x, want StopMaxInst at loop %#x (trap %v)",
				dispatchTierNames[tier], r, c.PC, loop.Value, c.LastTrap())
		}
		warmHits := regs[tier].Counter("emu.trace.hits").Load()
		brk(c)
		if r := c.Run(0); r != StopTrap {
			t.Fatalf("%s: %v, want StopTrap", dispatchTierNames[tier], r)
		}
		if tier == 2 && regs[tier].Counter("emu.trace.hits").Load() == warmHits {
			t.Error("the trap was not met inside a trace dispatch")
		}
		cpus[tier] = c
	}
	slow := cpus[0]
	for tier := 1; tier < 3; tier++ {
		c := cpus[tier]
		requireSameState(t, c, slow)
		if c.DBIComp != nil && slow.DBIComp != nil &&
			(c.DBIComp.IBLHits != slow.DBIComp.IBLHits || c.DBIComp.ExtraInstret != slow.DBIComp.ExtraInstret ||
				c.DBIComp.ExtraCycles != slow.DBIComp.ExtraCycles || c.DBIComp.Scratch != slow.DBIComp.Scratch) {
			t.Errorf("%s: DBIComp %+v, slow %+v", dispatchTierNames[tier], *c.DBIComp, *slow.DBIComp)
		}
		if got, want := c.LastTrap().Error(), slow.LastTrap().Error(); got != want {
			t.Errorf("%s trap: %s\nslow trap: %s", dispatchTierNames[tier], got, want)
		}
	}
	if builds, hits, passes, _, _ := traceCounters(regs[2]); builds == 0 || hits == 0 || passes == 0 {
		t.Fatalf("loop never trace-compiled: builds=%d hits=%d passes=%d", builds, hits, passes)
	}
	if jt := regs[2].Counter("emu.trace.jt.hits").Load(); jt == 0 {
		t.Error("the trace never passed its guarded dbi.jt")
	}
	if h := regs[1].Counter("emu.trace.hits").Load(); h != 0 {
		t.Errorf("NoTrace run dispatched %d traces", h)
	}
}

// TestDBIScratchCSRFaultInTrace: a scratch-CSR access is a block body op,
// compiled into the trace; once the CPU loses its DBIComp it must fault on
// every tier exactly as the slow path does — the access unretired at its
// own PC, the preceding addi retired and charged.
func TestDBIScratchCSRFaultInTrace(t *testing.T) {
	runDBIFault(t, func(c *CPU) { c.DBIComp = nil })
}

// TestDBIJTUnallocatedDeltaInTrace: the trace's guarded dbi.jt meets a
// delta index outside the table. It must stay unretired at its own PC with
// the loop body before it charged, and trap like exec on every tier.
func TestDBIJTUnallocatedDeltaInTrace(t *testing.T) {
	runDBIFault(t, func(c *CPU) { c.DBIComp.Deltas = nil })
}
