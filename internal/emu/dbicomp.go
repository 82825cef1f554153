package emu

import (
	"fmt"

	"rvdyn/internal/riscv"
)

// CompDelta records how far a stretch of DBI-translated code diverges from
// the original program it stands in for: Insts extra retired instructions
// and Cycles extra cost-model cycles. The DBI engine computes one delta per
// overhead site (probe splice, materialization expansion, exit stub) at
// translation time and references it by index from a dbi.acc/dbi.jt
// instruction woven into the cache (see internal/riscv/xdbi.go).
type CompDelta struct {
	Insts  int64
	Cycles int64
}

// DBIComp is the per-CPU counter-compensation state a DBI engine installs
// at attach time (CPU.DBIComp). It accumulates the translated run's
// divergence from a native run so reads of the cycle/instret CSRs can
// subtract it back out — the counter-virtualization half of DBI
// transparency. It also provides four scratch registers (custom CSRs
// 0x7C0–0x7C3) the inline indirect-branch lookup stubs use to save and
// restore the guest registers they clobber without touching guest memory.
//
// A nil DBIComp (the default) leaves every native behaviour untouched:
// the scratch CSRs stay unimplemented and counter reads are raw.
type DBIComp struct {
	// Virtualize enables compensation on cycle/instret CSR reads. Off, the
	// CSRs expose the raw (DBI-inflated) counters while scratch CSRs and
	// delta accumulation keep working — the engine needs those regardless.
	Virtualize bool

	// ExtraInstret/ExtraCycles are the running totals: DBI-run counter
	// minus what the native run would read at the same program point. The
	// engine also adjusts them host-side when it services a cache exit
	// whose stub accounting assumed an instruction that did not retire.
	ExtraInstret int64
	ExtraCycles  int64

	// IBLHits counts inline-lookup stubs that resolved their target through
	// the hash table without an engine round trip — every dbi.jt
	// retirement is one such hit.
	IBLHits uint64

	// Scratch backs the custom CSRs 0x7C0..0x7C3. The lookup stubs use
	// 0x7C0–0x7C2 for register save/restore and 0x7C3 for the original
	// (and then translated) jump target.
	Scratch [4]uint64

	// Deltas is the compensation table dbi.acc/dbi.jt index into via their
	// 12-bit immediate (index = imm + 2048, capacity 4096).
	Deltas []CompDelta
}

// apply accumulates the delta at idx; it reports false when idx is out of
// range (a translation bug — the engine only emits indices it allocated).
func (dc *DBIComp) apply(idx int64) bool {
	if idx < 0 || idx >= int64(len(dc.Deltas)) {
		return false
	}
	d := dc.Deltas[idx]
	dc.ExtraInstret += d.Insts
	dc.ExtraCycles += d.Cycles
	return true
}

// isScratchCSR reports whether csr is one of the DBI scratch CSRs.
func isScratchCSR(csr uint16) bool { return csr >= 0x7C0 && csr <= 0x7C3 }

// dbiJT retires the bookkeeping of a dbi.jt — the stub's compensation delta
// and one IBL hit — and returns its target, the translated address in
// scratch CSR 0x7C3. Every dispatch tier executes dbi.jt through it. On
// error nothing has been applied: the CPU has no DBIComp, or the delta
// index was never allocated (a translation bug).
func (c *CPU) dbiJT(inst *riscv.Inst) (uint64, error) {
	dc := c.DBIComp
	if dc == nil {
		return 0, fmt.Errorf("emu: dbi.jt outside DBI-attached CPU at %#x", inst.Addr)
	}
	if !dc.apply(inst.Imm + 2048) {
		return 0, fmt.Errorf("emu: dbi.jt with unallocated delta %d at %#x", inst.Imm, inst.Addr)
	}
	dc.IBLHits++
	return dc.Scratch[3], nil
}
