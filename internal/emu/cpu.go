package emu

import (
	"fmt"
	"io"
	"math/bits"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/riscv"
)

// Stack and heap placement for emulated processes. MmapBase is exported so
// alternative engines (the oracle's reference interpreter) can mirror the
// process layout exactly.
const (
	StackTop  = 0x7fff_f000
	StackSize = 1 << 20
	MmapBase  = 0x4000_0000
	mmapBase  = MmapBase
)

// StopReason reports why Run returned.
type StopReason int

const (
	StopExit       StopReason = iota // the program called exit
	StopBreakpoint                   // an ebreak was executed (PC at the ebreak)
	StopMaxInst                      // the instruction budget was exhausted
	StopTrap                         // illegal instruction or memory fault
	StopCodeWrite                    // a store landed in the armed code-watch range
)

func (r StopReason) String() string {
	switch r {
	case StopExit:
		return "exit"
	case StopBreakpoint:
		return "breakpoint"
	case StopMaxInst:
		return "max-instructions"
	case StopTrap:
		return "trap"
	case StopCodeWrite:
		return "code-write"
	}
	return "unknown"
}

// CPU is one emulated RV64GC hart plus its process state.
type CPU struct {
	X  [32]uint64 // integer registers; X[0] stays zero
	F  [32]uint64 // float registers (raw IEEE bits, NaN-boxed for .s)
	PC uint64

	FCSR uint32 // fflags [4:0], frm [7:5]

	Mem   *Memory
	Model *CostModel

	Cycles  uint64 // accumulated cost-model cycles
	Instret uint64 // retired instructions

	Exited   bool
	ExitCode int

	Stdout io.Writer
	// Stderr receives guest writes to fd 2. When nil, fd 2 falls back to
	// Stdout (the historical behaviour, which conflated the two streams).
	Stderr io.Writer

	// SlowDispatch forces the per-instruction interpreter loop even when no
	// Trace hook is installed. Tools use it to compare the superblock fast
	// path against the reference dispatch (see block.go).
	SlowDispatch bool

	// NoTrace disables trace compilation and dispatch (trace.go), leaving
	// the chained superblock fast path as the top dispatch tier. Tools use
	// it for A/B overhead runs (rvemu/rvdyn -notrace, rvbench's fast rows).
	NoTrace bool

	// Trace, when non-nil, runs before each instruction executes. Tools
	// (and the trap-based instrumentation mode) hook here.
	Trace func(c *CPU, inst riscv.Inst)

	// TimeFn, when non-nil, overrides the cost-model-derived virtual clock
	// for clock_gettime/gettimeofday and the time CSR. The equivalence
	// oracle pins both the original and the instrumented run to one clock so
	// timing-derived state cannot differ.
	TimeFn func() uint64

	// SyscallTrace, when non-nil, observes every serviced syscall after its
	// return value is known. ret is always the value the syscall returns in
	// A0; exit syscalls never return, so they report ret == 0 (the exit
	// status is a0, as for every other syscall argument).
	SyscallTrace func(num, a0, a1, a2, ret uint64)

	// CounterFn, when non-nil, overrides reads of the cycle (0xC00) and
	// instret (0xC02) counter CSRs. Equivalence harnesses pin both runs to
	// one counter source when comparing executions whose retired-instruction
	// counts legitimately differ (DBI-translated code retires extra
	// materialization instructions, so instret is not transparent).
	CounterFn func(csr uint16) uint64

	// DBIComp, when non-nil, is the counter-compensation and scratch-CSR
	// state a dynamic-instrumentation engine installed (see dbicomp.go).
	// nil keeps native semantics: raw counters, scratch CSRs fault.
	DBIComp *DBIComp

	// Obs, when non-nil, receives emulator observability counters (retired
	// instructions, superblock-cache hits/builds/invalidations, syscall
	// counts). nil — the default — is the fast path: the dispatch loop pays
	// one pointer check and no atomics.
	Obs *Metrics

	// Virtual-clock sample trigger (see SetSampler). SamplePeriod is the
	// cycle distance between sample marks (0 disarms); SampleFn runs at the
	// first instruction-boundary state whose sample clock has reached the
	// next mark. Both dispatch engines observe the identical boundary: the
	// slow path polls every loop iteration, and the fast path refuses to
	// dispatch a superblock that could cross the pending mark mid-block
	// (the same trick that makes budget stops bit-identical). SampleFn
	// returning false defers the mark to the next boundary without
	// consuming it — the DBI sampler uses this to skip cache states that
	// sit between translation-group bounds, where the compensated clock is
	// not yet exact.
	SamplePeriod uint64
	SampleFn     func(c *CPU) bool
	sampleNext   uint64

	resValid bool
	resAddr  uint64

	brk      uint64
	mmapNext uint64

	// Decoded-instruction and superblock caches: direct-mapped code windows
	// of 4 KiB pages over the image and every MapCode region (window.go),
	// plus overflow maps for code outside them (e.g. trampolines mapped by
	// dynamic instrumentation).
	image      codeWindow
	mapped     []codeWindow
	icOverflow map[uint64]riscv.Inst
	// icLo/icHi bound every cached address for cheap invalidation checks.
	icLo, icHi uint64
	// icGen is bumped whenever cached code is invalidated wholesale (guest
	// store into code, fence.i, WriteMem into a traced block). Superblocks
	// record the generation they were decoded under (see block.go).
	icGen uint64

	// Superblocks outside every code window, keyed by start address.
	// blkPages indexes blocks by every code page they span, so WriteMem
	// retires just the blocks it overwrites; bodyBuf is buildBlock's scratch
	// body.
	blkMap   map[uint64]*block
	blkPages map[uint64][]*block
	bodyBuf  []bodyInst

	// Hot-path engine counters, kept as plain fields (no atomics) and
	// synced into Obs at every Run return. chainHits counts block→block
	// dispatches served from a superblock's successor cache; chainSevers
	// counts cached successors dropped because their generation went stale.
	// fuseCount tallies macro-op pairs fused at block-build time, by kind.
	chainHits   uint64
	chainSevers uint64
	fuseCount   [numFuseKinds]uint64

	// Trace-tier counters (trace.go): traces compiled, trace dispatches,
	// completed loop passes, mispredicted-branch and failed-guard side
	// exits, traces severed by invalidation (at dispatch or mid-trace by an
	// SMC store), and guarded dbi.jt ops that continued the trace or
	// side-exited.
	traceBuilds    uint64
	traceHits      uint64
	tracePasses    uint64
	traceSideExits uint64
	traceSevers    uint64
	traceJTHits    uint64
	traceJTExits   uint64

	// blkGen mirrors the generation of the block runBlock is executing, so
	// fused store-pair handlers can detect a mid-pair code invalidation.
	// fuseStage is set by a faulting fused handler to the number of
	// constituents that retired before the fault.
	blkGen    uint64
	fuseStage int

	// Code-watch range [watchLo, watchHi): a guest store overlapping it
	// stops Run with StopCodeWrite *after* the store retires, with
	// CodeWrite() reporting the written span. The DBI engine arms this over
	// the pages it has translated so self-modifying code invalidates
	// translations. Both bounds zero (the default) disarms the watch; the
	// overlap test then never fires, so uninstrumented runs pay one compare
	// per store.
	watchLo, watchHi    uint64
	watchAddr, watchLen uint64
	watchHit            bool

	// seqPC is the fall-through address of the last instruction the slow
	// path retired. A budgeted Run dispatching there is mid-way through a
	// block the budget did not cover, so it runs only a block already
	// cached at seqPC (see Run).
	seqPC uint64

	lastTrap error
}

// New creates a CPU with the ELF image loaded, the stack mapped, and the
// machine state at the ABI entry conditions.
func New(f *elfrv.File, model *CostModel) (*CPU, error) {
	if model == nil {
		model = P550()
	}
	c := &CPU{
		Mem:        NewMemory(),
		Model:      model,
		Stdout:     io.Discard,
		mmapNext:   mmapBase,
		icOverflow: make(map[uint64]riscv.Inst),
		icLo:       ^uint64(0),
	}
	if err := c.Mem.LoadELF(f); err != nil {
		return nil, err
	}
	// Size the image's code window. Its pages are allocated here, at load:
	// image code is there to run, and a run should not pay for clearing
	// them (only pages FlushICache dropped come back lazily). Windows that
	// MapCode adds fill as code is written into them, so they stay lazy.
	const maxWindow = 4 << 20
	lo, hi := ^uint64(0), uint64(0)
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc == 0 || s.Flags&elfrv.SHFExecinstr == 0 {
			continue
		}
		if s.Addr < lo {
			lo = s.Addr
		}
		if s.Addr+s.Size() > hi {
			hi = s.Addr + s.Size()
		}
	}
	if lo < hi && hi-lo <= maxWindow {
		c.image = newWindow(lo, hi)
		for i := range c.image.pages {
			c.image.pages[i] = new(codePage)
		}
	}
	c.blkMap = make(map[uint64]*block)
	c.blkPages = make(map[uint64][]*block)
	c.Mem.Map(StackTop-StackSize, StackSize+pageSize)
	c.PC = f.Entry
	c.X[riscv.RegSP] = StackTop - 64 // modest arg area, 16-byte aligned
	var end uint64
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc != 0 && s.Addr+s.Size() > end {
			end = s.Addr + s.Size()
		}
	}
	c.brk = (end + pageSize - 1) &^ (pageSize - 1)
	return c, nil
}

// Trap describes an execution fault.
type Trap struct {
	PC   uint64
	Why  string
	Wrap error
}

func (t *Trap) Error() string {
	if t.Wrap != nil {
		return fmt.Sprintf("emu: trap at pc=%#x: %s: %v", t.PC, t.Why, t.Wrap)
	}
	return fmt.Sprintf("emu: trap at pc=%#x: %s", t.PC, t.Why)
}

func (t *Trap) Unwrap() error { return t.Wrap }

// LastTrap returns the trap that caused the most recent StopTrap.
func (c *CPU) LastTrap() error { return c.lastTrap }

// WriteMem writes process memory from outside the process (the debugger
// path used by ProcControl) and keeps the decoded-instruction cache
// coherent — the moral equivalent of the fence.i the kernel issues after
// ptrace POKETEXT. It must only be called while Run is not executing.
func (c *CPU) WriteMem(addr uint64, data []byte) error {
	if err := c.Mem.WriteBytes(addr, data); err != nil {
		return err
	}
	c.invalidate(addr, uint64(len(data)), true)
	return nil
}

// ReadMem reads process memory from outside the process.
func (c *CPU) ReadMem(addr uint64, n int) ([]byte, error) {
	b := make([]byte, n)
	if err := c.Mem.ReadBytes(addr, b); err != nil {
		return nil, err
	}
	return b, nil
}

// invalidate clears the cached decodes a write to [addr, addr+n) may have
// changed and retires the superblocks built from them. precise is set for
// WriteMem, which runs with the CPU stopped: no block or trace is in
// flight, so only the overlapping blocks need to die.
func (c *CPU) invalidate(addr, n uint64, precise bool) {
	if addr+n <= c.icLo || addr >= c.icHi {
		return
	}
	// Instructions are at even addresses and at most 4 bytes long; clear a
	// small window around the write.
	start := addr &^ 1
	if start >= 2 {
		start -= 2
	}
	dirty := addr + n // lowest cleared decode (addr+n: none)
	for a := start; a < addr+n; {
		p, ok := c.codePage(a)
		if !ok {
			if _, ok := c.icOverflow[a]; ok {
				delete(c.icOverflow, a)
				dirty = min(dirty, a)
			}
			a += 2
			continue
		}
		// A window page is cleared slot by slot; one nothing was decoded in
		// is skipped whole.
		end := min((a|pageMask)+1, addr+n)
		for ; p != nil && a < end; a += 2 {
			if in := &p.ic[slot(a)]; in.Len != 0 {
				*in = riscv.Inst{}
				dirty = min(dirty, a)
			}
		}
		a = end
	}
	// A write that dirtied cached code retires every superblock built from
	// the cleared decodes [dirty, addr+n). The retire is gated on an actual
	// cached decode being hit: [icLo, icHi) is a coarse range that can
	// cover data sitting between code regions (instrumented binaries place
	// trampolines above .bss), and ordinary data stores landing there must
	// not thrash the block cache. A decoded instruction's slot stays
	// populated for as long as any block containing it is valid (fetchAt
	// caches unconditionally and every clear retires the blocks overlapping
	// it), so the gate cannot miss. WriteMem kills just those blocks; a
	// guest store, or a WriteMem into a traced block, bumps the generation
	// instead, which is what the mid-block, mid-trace, fused-pair split and
	// SMC sever protocols detect.
	if dirty < addr+n && !(precise && c.killBlocks(dirty, addr+n)) {
		c.icGen++
		if c.Obs != nil {
			c.Obs.BlockInvalidations.Inc()
		}
	}
}

// FlushICache drops all cached decodes (fence.i semantics).
func (c *CPU) FlushICache() {
	clear(c.image.pages)
	for i := range c.mapped {
		clear(c.mapped[i].pages)
	}
	c.icOverflow = make(map[uint64]riscv.Inst)
	c.icLo, c.icHi = ^uint64(0), 0
	c.icGen++
	c.blkMap = make(map[uint64]*block)
	c.blkPages = make(map[uint64][]*block)
	if c.Obs != nil {
		c.Obs.BlockInvalidations.Inc()
	}
}

func (c *CPU) fetch() (riscv.Inst, error) { return c.fetchAt(c.PC) }

func (c *CPU) fetchAt(pc uint64) (riscv.Inst, error) {
	p, inWindow := c.codePage(pc)
	if p != nil {
		if inst := p.ic[slot(pc)]; inst.Len != 0 {
			return inst, nil
		}
	} else if !inWindow {
		if inst, ok := c.icOverflow[pc]; ok {
			return inst, nil
		}
	}
	// Raw fetches go through the fetch TLB: instruction parcels are 2-byte
	// aligned, so each halfword read stays within one page.
	var buf [4]byte
	lo, err := c.Mem.Fetch16(pc)
	if err != nil {
		return riscv.Inst{}, err
	}
	buf[0], buf[1] = byte(lo), byte(lo>>8)
	n := 2
	if buf[0]&3 == 3 {
		hi, err := c.Mem.Fetch16(pc + 2)
		if err != nil {
			return riscv.Inst{}, err
		}
		buf[2], buf[3] = byte(hi), byte(hi>>8)
		n = 4
	}
	inst, err := riscv.Decode(buf[:n], pc)
	if err != nil {
		return inst, err
	}
	if inWindow {
		if p == nil {
			p = c.allocCodePage(pc)
		}
		p.ic[slot(pc)] = inst
	} else {
		c.icOverflow[pc] = inst
	}
	if pc < c.icLo {
		c.icLo = pc
	}
	if pc+4 > c.icHi {
		c.icHi = pc + 4
	}
	return inst, nil
}

// stopNone is the internal "keep running" sentinel for dispatch helpers.
const stopNone StopReason = -1

// SetSampler arms (or, with period 0, disarms) the virtual-clock sample
// trigger: fn runs at the first instruction boundary at or after every
// period-th cycle of the sample clock, counted from the current clock.
// Because marks are laid on the deterministic virtual clock, two runs of
// the same program armed at the same state fire at bit-identical times.
// fn returning false defers the pending mark to the next boundary.
func (c *CPU) SetSampler(period uint64, fn func(c *CPU) bool) {
	c.SamplePeriod = period
	c.SampleFn = fn
	if period != 0 {
		c.sampleNext = c.SampleClock() + period
	}
}

// SampleClock is the clock samples are spaced on: the raw cycle counter,
// or the compensated (native-equivalent) counter when a DBI engine has
// counter virtualization installed — so sampling under dynamic translation
// fires at the virtual times the native run would.
func (c *CPU) SampleClock() uint64 {
	if dc := c.DBIComp; dc != nil && dc.Virtualize {
		return uint64(int64(c.Cycles) - dc.ExtraCycles)
	}
	return c.Cycles
}

// samplePoll fires the sampler for every mark the clock has passed. A
// deferred mark (SampleFn false) stays pending and re-polls at the next
// boundary; the fast-path gate in Run keeps dispatch on the slow path
// until it resolves, so the accepting boundary is engine-independent.
func (c *CPU) samplePoll() {
	for c.SampleClock() >= c.sampleNext {
		if !c.SampleFn(c) {
			return
		}
		c.sampleNext += c.SamplePeriod
	}
}

// SampleDrain consumes every pending sample mark without running SampleFn
// and returns how many there were. Tools call it after Run returns
// StopExit: the exit syscall retires without another loop-top poll, so
// marks the final instructions passed are drained here and attributed to
// the exit state — keeping sum(samples)*period within one period of the
// total clock, deterministically.
func (c *CPU) SampleDrain() int {
	if c.SamplePeriod == 0 {
		return 0
	}
	n := 0
	for c.SampleClock() >= c.sampleNext {
		n++
		c.sampleNext += c.SamplePeriod
	}
	return n
}

// Run executes until exit, breakpoint, trap, or maxInst instructions
// (0 = unlimited).
//
// Two dispatch engines sit behind Run. The superblock fast path executes
// whole pre-decoded straight-line blocks per dispatch (block.go), following
// cached block→block successor links so loop-heavy code never re-probes the
// block map; it is selected automatically whenever nothing needs
// per-instruction visibility. The per-instruction slow path is used when a
// Trace hook is installed (tools, oracle lockstep stepping), when
// SlowDispatch is set, or when the remaining instruction budget is smaller
// than the next block — so budget exhaustion stops at exactly the same
// instruction on both paths.
func (c *CPU) Run(maxInst uint64) StopReason {
	if c.Obs != nil {
		// Sync the hot-path counters into obs on return; the architectural
		// and plain-field counters are the single source of truth, so the
		// hot loop never touches an atomic.
		defer c.syncObs(c.Instret, c.chainHits, c.chainSevers, c.fuseCount, c.Mem.TLB,
			[7]uint64{c.traceBuilds, c.traceHits, c.tracePasses, c.traceSideExits, c.traceSevers,
				c.traceJTHits, c.traceJTExits})()
	}
	budget := maxInst
	// chained holds the next block resolved through the successor cache of
	// the block that just retired; nil means the next dispatch must go
	// through blockAt.
	var chained *block
	for {
		if c.Exited {
			return StopExit
		}
		if c.SamplePeriod != 0 && c.SampleClock() >= c.sampleNext {
			c.samplePoll()
		}
		if maxInst != 0 && budget == 0 {
			return StopMaxInst
		}
		if c.Trace == nil && !c.SlowDispatch {
			b := chained
			chained = nil
			if b == nil {
				// Where the slow path stepped here from the previous
				// instruction because the budget did not cover its block, a
				// block built mid-way through that one would cost a build
				// per instruction of a sliced run: only a cached one runs.
				b = c.blockAt(c.PC, maxInst == 0 || c.PC != c.seqPC)
			}
			if b != nil && !c.NoTrace {
				if t := b.trc; t != nil {
					if t.gen != c.icGen {
						b.trc = nil
						c.traceSevers++
					} else if (maxInst == 0 || budget >= t.passN) &&
						(c.SamplePeriod == 0 || c.SampleClock()+t.maxCost < c.sampleNext) {
						// Trace tier: the whole flattened chain in one
						// dispatch, gated exactly like a block — the budget
						// covers a full pass and even the worst-case pass
						// cannot cross the pending sample mark.
						retired, stop := c.runTrace(t, budget, maxInst != 0)
						if stop != stopNone {
							return stop
						}
						budget -= retired
						if c.watchHit {
							c.watchHit = false
							return StopCodeWrite
						}
						continue
					}
				}
			}
			if b != nil && (maxInst == 0 || budget >= b.n) &&
				(c.SamplePeriod == 0 || c.SampleClock()+b.maxCost < c.sampleNext) {
				retired, stop := c.runBlock(b)
				if stop != stopNone {
					return stop
				}
				budget -= retired
				if c.watchHit {
					// A watched store that also invalidated code (or split a
					// fused pair) came back through a stopNone retire-prefix
					// path; surface it here with the PC already past the
					// store.
					c.watchHit = false
					return StopCodeWrite
				}
				chained = c.chainNext(b)
				continue
			}
		}
		budget--
		if r := c.stepOne(); r != stopNone {
			return r
		}
	}
}

// syncObs snapshots the hot-path counters at Run entry and returns the
// deferred function that publishes the deltas to the obs registry.
func (c *CPU) syncObs(instret, chainHits, chainSevers uint64,
	fuse [numFuseKinds]uint64, tlb TLBStats, tr [7]uint64) func() {
	return func() {
		m := c.Obs
		m.Instructions.Add(c.Instret - instret)
		m.ChainHits.Add(c.chainHits - chainHits)
		m.ChainSevers.Add(c.chainSevers - chainSevers)
		m.TraceBuilds.Add(c.traceBuilds - tr[0])
		m.TraceHits.Add(c.traceHits - tr[1])
		m.TracePasses.Add(c.tracePasses - tr[2])
		m.TraceSideExits.Add(c.traceSideExits - tr[3])
		m.TraceSevers.Add(c.traceSevers - tr[4])
		m.TraceJTHits.Add(c.traceJTHits - tr[5])
		m.TraceJTExits.Add(c.traceJTExits - tr[6])
		for k := 0; k < numFuseKinds; k++ {
			m.Fused[k].Add(c.fuseCount[k] - fuse[k])
		}
		t := &c.Mem.TLB
		m.TLBReadHits.Add(t.ReadHits - tlb.ReadHits)
		m.TLBReadMisses.Add(t.ReadMisses - tlb.ReadMisses)
		m.TLBWriteHits.Add(t.WriteHits - tlb.WriteHits)
		m.TLBWriteMisses.Add(t.WriteMisses - tlb.WriteMisses)
		m.TLBFetchHits.Add(t.FetchHits - tlb.FetchHits)
		m.TLBFetchMisses.Add(t.FetchMisses - tlb.FetchMisses)
	}
}

// stepOne fetches, traces, and executes a single instruction — the
// per-instruction slow path. It returns stopNone to keep running.
func (c *CPU) stepOne() StopReason {
	inst, err := c.fetch()
	if err != nil {
		c.lastTrap = &Trap{PC: c.PC, Why: "fetch", Wrap: err}
		return StopTrap
	}
	if c.Trace != nil {
		c.Trace(c, inst)
	}
	if inst.Mn == riscv.MnEBREAK {
		return StopBreakpoint
	}
	if stop, err := c.exec(inst); err != nil {
		c.lastTrap = &Trap{PC: c.PC, Why: "execute " + inst.String(), Wrap: err}
		return StopTrap
	} else if stop {
		return StopExit
	}
	c.seqPC = inst.Next()
	if c.watchHit {
		c.watchHit = false
		return StopCodeWrite
	}
	return stopNone
}

// Step executes exactly one instruction (used by the software single-step
// fallback in ProcControl when it steps off a breakpoint).
func (c *CPU) Step() StopReason {
	return c.Run(1)
}

func (c *CPU) setX(r riscv.Reg, v uint64) {
	if r != riscv.X0 {
		c.X[r] = v
	}
}

// exec executes one non-ebreak instruction. It returns stop=true when the
// program exited via syscall. Control transfer and system instructions are
// handled here; everything straight-line is in execStraight so the
// superblock engine can reuse it (block.go).
func (c *CPU) exec(inst riscv.Inst) (stop bool, err error) {
	cost := c.Model.Cost(inst.Mn)
	next := inst.Next()
	rs1 := c.X[inst.Rs1&31]
	rs2 := c.X[inst.Rs2&31]

	switch inst.Mn {
	// ----- control transfer -----
	case riscv.MnJAL:
		c.setX(inst.Rd, next)
		next = inst.Addr + uint64(inst.Imm)
	case riscv.MnJALR:
		t := (rs1 + uint64(inst.Imm)) &^ 1
		c.setX(inst.Rd, next)
		next = t
	case riscv.MnDBIJT:
		// Inline-lookup transfer (xdbi): jump to the translated cache
		// address the stub stashed in scratch CSR 0x7C3, applying the
		// stub's compensation delta. Only valid inside a DBI code cache.
		t, e := c.dbiJT(&inst)
		if e != nil {
			return false, e
		}
		next = t
	case riscv.MnBEQ:
		if rs1 == rs2 {
			next = inst.Addr + uint64(inst.Imm)
			cost += c.Model.BranchTakenPenalty
		}
	case riscv.MnBNE:
		if rs1 != rs2 {
			next = inst.Addr + uint64(inst.Imm)
			cost += c.Model.BranchTakenPenalty
		}
	case riscv.MnBLT:
		if int64(rs1) < int64(rs2) {
			next = inst.Addr + uint64(inst.Imm)
			cost += c.Model.BranchTakenPenalty
		}
	case riscv.MnBGE:
		if int64(rs1) >= int64(rs2) {
			next = inst.Addr + uint64(inst.Imm)
			cost += c.Model.BranchTakenPenalty
		}
	case riscv.MnBLTU:
		if rs1 < rs2 {
			next = inst.Addr + uint64(inst.Imm)
			cost += c.Model.BranchTakenPenalty
		}
	case riscv.MnBGEU:
		if rs1 >= rs2 {
			next = inst.Addr + uint64(inst.Imm)
			cost += c.Model.BranchTakenPenalty
		}

	// ----- system -----
	case riscv.MnFENCEI:
		c.FlushICache()
	case riscv.MnECALL:
		exited, e := c.syscall()
		if e != nil {
			return false, e
		}
		if exited {
			c.PC = next
			c.Cycles += cost
			c.Instret++
			return true, nil
		}
	case riscv.MnCSRRW, riscv.MnCSRRS, riscv.MnCSRRC,
		riscv.MnCSRRWI, riscv.MnCSRRSI, riscv.MnCSRRCI:
		if e := c.csrOp(inst); e != nil {
			return false, e
		}

	default:
		if e := c.execStraight(&inst); e != nil {
			return false, e
		}
	}

	c.PC = next
	c.Cycles += cost
	c.Instret++
	return false, nil
}

// execStraight executes one straight-line (non-control-flow, non-system)
// instruction: only register and memory state change, never the PC or the
// counters. Both dispatch engines funnel through it — the slow path via
// exec's default case, the superblock fast path as the generic body
// handler for mnemonics without a dedicated one.
func (c *CPU) execStraight(inst *riscv.Inst) error {
	mn := inst.Mn
	rs1 := c.X[inst.Rs1&31]
	rs2 := c.X[inst.Rs2&31]

	switch mn {
	// ----- Xdbi (DBI code-cache internals) -----
	case riscv.MnDBIACC:
		dc := c.DBIComp
		if dc == nil {
			return fmt.Errorf("emu: dbi.acc outside DBI-attached CPU at %#x", inst.Addr)
		}
		if !dc.apply(inst.Imm + 2048) {
			return fmt.Errorf("emu: dbi.acc with unallocated delta %d at %#x", inst.Imm, inst.Addr)
		}

	// ----- RV64I integer computation -----
	case riscv.MnLUI:
		c.setX(inst.Rd, uint64(inst.Imm<<12))
	case riscv.MnAUIPC:
		c.setX(inst.Rd, inst.Addr+uint64(inst.Imm<<12))
	case riscv.MnADDI:
		c.setX(inst.Rd, rs1+uint64(inst.Imm))
	case riscv.MnSLTI:
		c.setX(inst.Rd, b2u(int64(rs1) < inst.Imm))
	case riscv.MnSLTIU:
		c.setX(inst.Rd, b2u(rs1 < uint64(inst.Imm)))
	case riscv.MnXORI:
		c.setX(inst.Rd, rs1^uint64(inst.Imm))
	case riscv.MnORI:
		c.setX(inst.Rd, rs1|uint64(inst.Imm))
	case riscv.MnANDI:
		c.setX(inst.Rd, rs1&uint64(inst.Imm))
	case riscv.MnSLLI:
		c.setX(inst.Rd, rs1<<uint(inst.Imm))
	case riscv.MnSRLI:
		c.setX(inst.Rd, rs1>>uint(inst.Imm))
	case riscv.MnSRAI:
		c.setX(inst.Rd, uint64(int64(rs1)>>uint(inst.Imm)))
	case riscv.MnADD:
		c.setX(inst.Rd, rs1+rs2)
	case riscv.MnSUB:
		c.setX(inst.Rd, rs1-rs2)
	case riscv.MnSLL:
		c.setX(inst.Rd, rs1<<(rs2&63))
	case riscv.MnSLT:
		c.setX(inst.Rd, b2u(int64(rs1) < int64(rs2)))
	case riscv.MnSLTU:
		c.setX(inst.Rd, b2u(rs1 < rs2))
	case riscv.MnXOR:
		c.setX(inst.Rd, rs1^rs2)
	case riscv.MnSRL:
		c.setX(inst.Rd, rs1>>(rs2&63))
	case riscv.MnSRA:
		c.setX(inst.Rd, uint64(int64(rs1)>>(rs2&63)))
	case riscv.MnOR:
		c.setX(inst.Rd, rs1|rs2)
	case riscv.MnAND:
		c.setX(inst.Rd, rs1&rs2)
	case riscv.MnADDIW:
		c.setX(inst.Rd, sext32(uint32(rs1)+uint32(inst.Imm)))
	case riscv.MnSLLIW:
		c.setX(inst.Rd, sext32(uint32(rs1)<<uint(inst.Imm)))
	case riscv.MnSRLIW:
		c.setX(inst.Rd, sext32(uint32(rs1)>>uint(inst.Imm)))
	case riscv.MnSRAIW:
		c.setX(inst.Rd, uint64(int64(int32(rs1)>>uint(inst.Imm))))
	case riscv.MnADDW:
		c.setX(inst.Rd, sext32(uint32(rs1)+uint32(rs2)))
	case riscv.MnSUBW:
		c.setX(inst.Rd, sext32(uint32(rs1)-uint32(rs2)))
	case riscv.MnSLLW:
		c.setX(inst.Rd, sext32(uint32(rs1)<<(rs2&31)))
	case riscv.MnSRLW:
		c.setX(inst.Rd, sext32(uint32(rs1)>>(rs2&31)))
	case riscv.MnSRAW:
		c.setX(inst.Rd, uint64(int64(int32(rs1)>>(rs2&31))))

	// ----- loads and stores -----
	case riscv.MnLB:
		v, e := c.Mem.Read8(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(int64(int8(v))))
	case riscv.MnLH:
		v, e := c.Mem.Read16(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(int64(int16(v))))
	case riscv.MnLW:
		v, e := c.Mem.Read32(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, sext32(v))
	case riscv.MnLD:
		v, e := c.Mem.Read64(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, v)
	case riscv.MnLBU:
		v, e := c.Mem.Read8(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(v))
	case riscv.MnLHU:
		v, e := c.Mem.Read16(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(v))
	case riscv.MnLWU:
		v, e := c.Mem.Read32(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(v))
	case riscv.MnSB:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 1, c.Mem.Write8(rs1+uint64(inst.Imm), uint8(rs2))); e != nil {
			return e
		}
	case riscv.MnSH:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 2, c.Mem.Write16(rs1+uint64(inst.Imm), uint16(rs2))); e != nil {
			return e
		}
	case riscv.MnSW:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 4, c.Mem.Write32(rs1+uint64(inst.Imm), uint32(rs2))); e != nil {
			return e
		}
	case riscv.MnSD:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 8, c.Mem.Write64(rs1+uint64(inst.Imm), rs2)); e != nil {
			return e
		}

	// ----- M extension -----
	case riscv.MnMUL:
		c.setX(inst.Rd, rs1*rs2)
	case riscv.MnMULH:
		hi, _ := mulh64(int64(rs1), int64(rs2))
		c.setX(inst.Rd, uint64(hi))
	case riscv.MnMULHU:
		hi, _ := bits.Mul64(rs1, rs2)
		c.setX(inst.Rd, hi)
	case riscv.MnMULHSU:
		c.setX(inst.Rd, mulhsu64(int64(rs1), rs2))
	case riscv.MnDIV:
		c.setX(inst.Rd, uint64(sdiv64(int64(rs1), int64(rs2))))
	case riscv.MnDIVU:
		if rs2 == 0 {
			c.setX(inst.Rd, ^uint64(0))
		} else {
			c.setX(inst.Rd, rs1/rs2)
		}
	case riscv.MnREM:
		c.setX(inst.Rd, uint64(srem64(int64(rs1), int64(rs2))))
	case riscv.MnREMU:
		if rs2 == 0 {
			c.setX(inst.Rd, rs1)
		} else {
			c.setX(inst.Rd, rs1%rs2)
		}
	case riscv.MnMULW:
		c.setX(inst.Rd, sext32(uint32(rs1)*uint32(rs2)))
	case riscv.MnDIVW:
		c.setX(inst.Rd, uint64(int64(sdiv32(int32(rs1), int32(rs2)))))
	case riscv.MnDIVUW:
		if uint32(rs2) == 0 {
			c.setX(inst.Rd, ^uint64(0))
		} else {
			c.setX(inst.Rd, sext32(uint32(rs1)/uint32(rs2)))
		}
	case riscv.MnREMW:
		c.setX(inst.Rd, uint64(int64(srem32(int32(rs1), int32(rs2)))))
	case riscv.MnREMUW:
		if uint32(rs2) == 0 {
			c.setX(inst.Rd, sext32(uint32(rs1)))
		} else {
			c.setX(inst.Rd, sext32(uint32(rs1)%uint32(rs2)))
		}

	// ----- A extension -----
	case riscv.MnLRW:
		v, e := c.Mem.Read32(rs1)
		if e != nil {
			return e
		}
		c.resValid, c.resAddr = true, rs1
		c.setX(inst.Rd, sext32(v))
	case riscv.MnLRD:
		v, e := c.Mem.Read64(rs1)
		if e != nil {
			return e
		}
		c.resValid, c.resAddr = true, rs1
		c.setX(inst.Rd, v)
	case riscv.MnSCW:
		if c.resValid && c.resAddr == rs1 {
			if e := c.storeCheck(rs1, 4, c.Mem.Write32(rs1, uint32(rs2))); e != nil {
				return e
			}
			c.setX(inst.Rd, 0)
		} else {
			c.setX(inst.Rd, 1)
		}
		c.resValid = false
	case riscv.MnSCD:
		if c.resValid && c.resAddr == rs1 {
			if e := c.storeCheck(rs1, 8, c.Mem.Write64(rs1, rs2)); e != nil {
				return e
			}
			c.setX(inst.Rd, 0)
		} else {
			c.setX(inst.Rd, 1)
		}
		c.resValid = false
	case riscv.MnAMOSWAPW, riscv.MnAMOADDW, riscv.MnAMOXORW, riscv.MnAMOANDW,
		riscv.MnAMOORW, riscv.MnAMOMINW, riscv.MnAMOMAXW, riscv.MnAMOMINUW, riscv.MnAMOMAXUW:
		old, e := c.Mem.Read32(rs1)
		if e != nil {
			return e
		}
		nv := amo32(mn, old, uint32(rs2))
		if e := c.storeCheck(rs1, 4, c.Mem.Write32(rs1, nv)); e != nil {
			return e
		}
		c.setX(inst.Rd, sext32(old))
	case riscv.MnAMOSWAPD, riscv.MnAMOADDD, riscv.MnAMOXORD, riscv.MnAMOANDD,
		riscv.MnAMOORD, riscv.MnAMOMIND, riscv.MnAMOMAXD, riscv.MnAMOMINUD, riscv.MnAMOMAXUD:
		old, e := c.Mem.Read64(rs1)
		if e != nil {
			return e
		}
		nv := amo64(mn, old, rs2)
		if e := c.storeCheck(rs1, 8, c.Mem.Write64(rs1, nv)); e != nil {
			return e
		}
		c.setX(inst.Rd, old)

	// ----- fences -----
	case riscv.MnFENCE:
		// no-op: the emulator is sequentially consistent

	default:
		if c.execExt(*inst, rs1, rs2) {
			break
		}
		// Floating point (F and D extensions) in float.go.
		handled, e := c.execFloat(*inst)
		if e != nil {
			return e
		}
		if !handled {
			return fmt.Errorf("emu: unimplemented instruction %v", inst)
		}
	}

	return nil
}

// storeCheck funnels store errors and keeps the icache coherent for stores
// into cached code (self-modifying code still works, at a small cost).
func (c *CPU) storeCheck(addr uint64, width uint64, err error) error {
	if err != nil {
		return err
	}
	if addr < c.icHi && addr+width > c.icLo {
		c.invalidate(addr, width, false)
	}
	if addr < c.watchHi && addr+width > c.watchLo {
		if c.watchHit {
			// A fused store pair can trip twice before dispatch notices;
			// widen the recorded span to cover both stores.
			lo, hi := c.watchAddr, c.watchAddr+c.watchLen
			if addr < lo {
				lo = addr
			}
			if addr+width > hi {
				hi = addr + width
			}
			c.watchAddr, c.watchLen = lo, hi-lo
		} else {
			c.watchHit = true
			c.watchAddr, c.watchLen = addr, width
		}
	}
	return nil
}

// SetCodeWatch arms (or, with lo == hi == 0, disarms) the code-write watch
// range. A guest store overlapping [lo, hi) retires normally and then stops
// Run with StopCodeWrite; CodeWrite reports the span. Debugger-path writes
// (WriteMem) do not trip the watch — only guest stores do.
func (c *CPU) SetCodeWatch(lo, hi uint64) {
	c.watchLo, c.watchHi = lo, hi
	c.watchHit = false
}

// CodeWatch returns the armed code-write watch range.
func (c *CPU) CodeWatch() (lo, hi uint64) { return c.watchLo, c.watchHi }

// CodeWrite returns the address span of the store that caused the most
// recent StopCodeWrite.
func (c *CPU) CodeWrite() (addr, n uint64) { return c.watchAddr, c.watchLen }

func (c *CPU) csrOp(inst riscv.Inst) error {
	csr := inst.CSR
	var old uint64
	switch csr {
	case 0xC00: // cycle
		old = c.Cycles
		if dc := c.DBIComp; dc != nil && dc.Virtualize {
			old = uint64(int64(c.Cycles) - dc.ExtraCycles)
		}
		if c.CounterFn != nil {
			old = c.CounterFn(csr)
		}
	case 0xC01: // time
		old = c.VirtualNanos()
	case 0xC02: // instret
		old = c.Instret
		if dc := c.DBIComp; dc != nil && dc.Virtualize {
			old = uint64(int64(c.Instret) - dc.ExtraInstret)
		}
		if c.CounterFn != nil {
			old = c.CounterFn(csr)
		}
	case 0x7C0, 0x7C1, 0x7C2, 0x7C3: // DBI scratch (custom read/write)
		if c.DBIComp == nil {
			return fmt.Errorf("emu: access to unimplemented CSR %#x", csr)
		}
		old = c.DBIComp.Scratch[csr-0x7C0]
	case 0x001: // fflags
		old = uint64(c.FCSR & 0x1f)
	case 0x002: // frm
		old = uint64(c.FCSR >> 5 & 7)
	case 0x003: // fcsr
		old = uint64(c.FCSR & 0xff)
	default:
		return fmt.Errorf("emu: access to unimplemented CSR %#x", csr)
	}
	var src uint64
	switch inst.Mn {
	case riscv.MnCSRRW, riscv.MnCSRRS, riscv.MnCSRRC:
		src = c.X[inst.Rs1&31]
	default:
		src = uint64(inst.Imm)
	}
	var nv uint64
	write := true
	switch inst.Mn {
	case riscv.MnCSRRW, riscv.MnCSRRWI:
		nv = src
	case riscv.MnCSRRS, riscv.MnCSRRSI:
		nv = old | src
		write = src != 0
	case riscv.MnCSRRC, riscv.MnCSRRCI:
		nv = old &^ src
		write = src != 0
	}
	if write {
		switch csr {
		case 0x001:
			c.FCSR = c.FCSR&^0x1f | uint32(nv)&0x1f
		case 0x002:
			c.FCSR = c.FCSR&^0xe0 | uint32(nv&7)<<5
		case 0x003:
			c.FCSR = uint32(nv) & 0xff
		case 0xC00, 0xC01, 0xC02:
			// counters are read-only; writes are ignored
		case 0x7C0, 0x7C1, 0x7C2, 0x7C3:
			c.DBIComp.Scratch[csr-0x7C0] = nv
		}
	}
	c.setX(inst.Rd, old)
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func mulh64(a, b int64) (hi int64, lo uint64) {
	h, l := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		h -= uint64(b)
	}
	if b < 0 {
		h -= uint64(a)
	}
	return int64(h), l
}

func mulhsu64(a int64, b uint64) uint64 {
	h, _ := bits.Mul64(uint64(a), b)
	if a < 0 {
		h -= b
	}
	return h
}

func sdiv64(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == -1<<63 && b == -1:
		return a
	}
	return a / b
}

func srem64(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == -1<<63 && b == -1:
		return 0
	}
	return a % b
}

func sdiv32(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == -1<<31 && b == -1:
		return a
	}
	return a / b
}

func srem32(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == -1<<31 && b == -1:
		return 0
	}
	return a % b
}

func amo32(mn riscv.Mnemonic, old, src uint32) uint32 {
	switch mn {
	case riscv.MnAMOSWAPW:
		return src
	case riscv.MnAMOADDW:
		return old + src
	case riscv.MnAMOXORW:
		return old ^ src
	case riscv.MnAMOANDW:
		return old & src
	case riscv.MnAMOORW:
		return old | src
	case riscv.MnAMOMINW:
		if int32(src) < int32(old) {
			return src
		}
		return old
	case riscv.MnAMOMAXW:
		if int32(src) > int32(old) {
			return src
		}
		return old
	case riscv.MnAMOMINUW:
		if src < old {
			return src
		}
		return old
	case riscv.MnAMOMAXUW:
		if src > old {
			return src
		}
		return old
	}
	return old
}

func amo64(mn riscv.Mnemonic, old, src uint64) uint64 {
	switch mn {
	case riscv.MnAMOSWAPD:
		return src
	case riscv.MnAMOADDD:
		return old + src
	case riscv.MnAMOXORD:
		return old ^ src
	case riscv.MnAMOANDD:
		return old & src
	case riscv.MnAMOORD:
		return old | src
	case riscv.MnAMOMIND:
		if int64(src) < int64(old) {
			return src
		}
		return old
	case riscv.MnAMOMAXD:
		if int64(src) > int64(old) {
			return src
		}
		return old
	case riscv.MnAMOMINUD:
		if src < old {
			return src
		}
		return old
	case riscv.MnAMOMAXUD:
		if src > old {
			return src
		}
		return old
	}
	return old
}
