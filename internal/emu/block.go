package emu

import (
	"errors"
	"math"

	"rvdyn/internal/riscv"
)

// Superblock fused dispatch.
//
// The per-instruction interpreter loop pays, for every retired instruction,
// a fetch (icache probe plus bounds checks), a Trace probe, an Exited and
// budget check, a cost-model lookup, and the full mnemonic switch. Almost
// all of that is loop-invariant over a straight-line run of code, so the
// fast path amortises it: code is decoded once into basic-block descriptors
// — straight-line pre-decoded runs ending at a control-transfer or system
// instruction — with the cycle cost and a handler function pointer
// precomputed per instruction. Run then executes a whole block per
// dispatch (the same idea MAMBO-V's fragment linking and pre-decoded
// dispatch tables use to make instrumentation-heavy runs tractable).
//
// Three hot-path layers sit on top of the basic engine:
//
//   - Superblock chaining: each block caches direct successor pointers
//     (taken/fallthrough, or the last two indirect targets), resolved
//     lazily on first exit, so loops and straight-line runs dispatch
//     block→block without re-probing the block map. A chained pointer is
//     honoured only while its target's generation is current, so the
//     existing invalidation machinery severs chains for free.
//   - Macro-op fusion: at build time, adjacent pairs the assembler actually
//     emits (lui+addi, auipc+addi, auipc+ld, slli+add, ld/sd pairs on
//     consecutive offsets, compare+branch, and the patch ladder's
//     auipc+jalr rung) collapse into one fused handler. The cost model is
//     charged per constituent instruction, so Cycles, Instret, and the
//     virtual clock stay bit-identical to per-instruction dispatch.
//   - Specialized terminators: conditional branches, jal, and jalr execute
//     through precomputed target/cost fields instead of the generic exec
//     switch.
//
// Coherence with self-modifying code and dynamic patching reuses the
// icache invalidation machinery: every block records the icache generation
// (CPU.icGen) it was decoded under; guest stores into code and FlushICache
// bump the generation, and a stale block is re-decoded on its next dispatch.
// A store inside a block is followed by a generation check so a block that
// rewrites its own tail (or the next block) retires only the instructions
// that were executed before the write, then returns to the dispatcher.
// WriteMem patches arrive with the CPU stopped, so they retire only the
// blocks they touch (genDead, found through a code-page index), bumping the
// generation only when one of those belongs to a trace.

// maxBlockLen caps the body of one superblock; blocks longer than this are
// split, with the continuation picked up by the next dispatch.
const maxBlockLen = 64

// instFn executes the state effect of one straight-line (possibly fused)
// body entry: registers and memory only — never the PC, counters, or stop
// state.
type instFn func(c *CPU, bi *bodyInst) error

// errFuseSplit is returned by a fused store-pair handler when its first
// store invalidated cached code: the pair must split so the (possibly
// rewritten) second constituent is re-decoded before executing.
var errFuseSplit = errors.New("emu: fused pair split by code invalidation")

// bodyInst is one pre-decoded body entry of a block: a single straight-line
// instruction, or a fused pair of two adjacent ones (n == 2).
type bodyInst struct {
	fn    instFn
	inst  riscv.Inst
	inst2 riscv.Inst // second constituent of a fused pair (n == 2)
	aux   uint64     // fused-handler precomputed constant #1
	aux2  uint64     // fused-handler precomputed constant #2
	cost  uint64     // total cycle cost of all constituents
	cost1 uint64     // cost of the first constituent alone (partial retire)
	next  uint64     // address after the last constituent
	cumC  uint64     // cycles of the block's constituents before this entry
	cumN  uint64     // constituent instructions of the block before this entry
	n     uint8      // constituent instruction count (1 or 2)
	store bool       // writes memory: needs a generation check after executing
}

// Terminator kinds. tkExec is the generic fallback through CPU.exec
// (ecall, fence.i, ebreak, invalid, and every CSR op except the DBI
// scratch CSRs, which are body ops).
const (
	tkExec = iota
	tkBranch
	tkJAL
	tkJALR
	tkCmpBranch // fused compare+branch: cmp is block.cmp, branch is term
	tkAuipcJalr // fused auipc+jalr rung: auipc folded into the terminator
	tkDBIJT     // inline-lookup transfer: target from DBI scratch CSR 0x7C3
)

// blockLink caches one resolved successor of a block. hits counts how many
// dispatches the link served; crossing the trace-hotness threshold makes
// the target a trace-compilation head (trace.go).
type blockLink struct {
	pc   uint64
	b    *block
	hits uint32
}

// block is one superblock: a straight-line decoded run, optionally ended by
// a terminator (control-transfer/system instruction). A block without a
// terminator (split at maxBlockLen, or decode failure mid-run) simply falls
// through to the next dispatch.
type block struct {
	gen   uint64     // icache generation the block was decoded under (genDead: retired)
	pc    uint64     // start address
	hi    uint64     // address after the last constituent, terminator included
	body  []bodyInst // straight-line body entries (fused pairs count as one)
	cost  uint64     // total body cycle cost
	nBody uint64     // total body constituent count
	end   uint64     // address after the last body instruction
	n     uint64     // constituent count including the terminator(s)
	// maxCost bounds the cycles one full dispatch of this block can
	// consume (body + fused compare + terminator + taken-branch penalty).
	// The sample trigger's fast-path gate uses it: a block is only taken
	// when even its worst case cannot reach the pending sample mark, so
	// the mark is always met on the per-instruction path — at the same
	// boundary the slow engine would meet it.
	maxCost uint64

	hasTerm  bool
	term     riscv.Inst // terminator (valid when hasTerm)
	termKind uint8
	// Precomputed terminator data (meaning depends on termKind):
	//   takenPC:  branch taken target / jal target / fused auipc+jalr target
	//   fallPC:   branch fallthrough / jal+jalr link address
	//   termCost: cycle cost of the terminator (all constituents if fused)
	takenPC  uint64
	fallPC   uint64
	termCost uint64
	// Fused-terminator constituents: the compare of a cmp+branch pair, or
	// the auipc of an auipc+jalr rung (termAux is its precomputed value).
	cmp     riscv.Inst
	cmpCost uint64
	termAux uint64

	// succ caches up to two resolved successors (taken/fallthrough for
	// branches; the last two indirect targets for jalr returns), filled
	// lazily by chainNext and honoured only at the current generation.
	succ   [2]blockLink
	succRR uint8 // round-robin victim index

	// trc is the compiled trace headed at this block (trace.go); trcFail
	// marks a head whose walk produced nothing traceable, so the hotness
	// trigger stops retrying it.
	trc     *trace
	trcFail bool
	// traced marks a block some trace was compiled through: a WriteMem into
	// it must bump the generation, which is what severs traces.
	traced bool
}

// genDead is the generation of a block WriteMem retired: it never equals
// CPU.icGen, so every generation check rejects the block.
const genDead = ^uint64(0)

// succFor returns the cached successor starting at pc if it is still valid
// under generation gen, severing stale entries as it goes.
func (b *block) succFor(c *CPU, pc uint64) *block {
	gen := c.icGen
	for i := range b.succ {
		s := &b.succ[i]
		if s.b != nil && s.pc == pc {
			if s.b.gen == gen {
				c.chainHits++
				s.hits++
				if s.hits&traceHotMask == 0 {
					c.maybeTrace(s.b, pc)
				}
				return s.b
			}
			s.b = nil // severed: target was invalidated
			c.chainSevers++
		}
	}
	return nil
}

// addSucc installs nb as a cached successor of b, evicting round-robin.
func (b *block) addSucc(pc uint64, nb *block) {
	for i := range b.succ {
		if b.succ[i].b == nil {
			b.succ[i] = blockLink{pc: pc, b: nb}
			return
		}
	}
	b.succ[b.succRR&1] = blockLink{pc: pc, b: nb}
	b.succRR++
}

// chainNext resolves the block at the current PC after b retired: first
// through b's successor cache (a chain hit skips the block map entirely),
// then through blockAt, caching the result for the next visit.
func (c *CPU) chainNext(b *block) *block {
	pc := c.PC
	if nb := b.succFor(c, pc); nb != nil {
		return nb
	}
	nb := c.blockAt(pc, true)
	if nb != nil {
		b.addSucc(pc, nb)
	}
	return nb
}

// blockAt returns a current-generation block starting at pc, building (or
// rebuilding) it if needed and build is set. It returns nil when pc cannot
// be fetched, or nothing current is cached and build is false; the caller
// falls back to the slow path, which reports any fault.
func (c *CPU) blockAt(pc uint64, build bool) *block {
	var b *block
	if p, ok := c.codePage(pc); ok {
		if p != nil {
			b = p.blk[slot(pc)]
		}
	} else {
		b = c.blkMap[pc]
	}
	if b != nil {
		if b.gen == c.icGen {
			if c.Obs != nil {
				c.Obs.BlockHits.Inc()
			}
			return b
		}
		if b.trc != nil {
			// The head went stale (SMC/patching): its trace dies with it.
			b.trc = nil
			c.traceSevers++
		}
	}
	if !build {
		return nil
	}
	return c.buildBlock(pc)
}

func (c *CPU) buildBlock(pc uint64) *block {
	if c.Obs != nil {
		c.Obs.BlockBuilds.Inc()
	}
	// The body grows in per-CPU scratch and is copied out at its final size.
	b := &block{gen: c.icGen, pc: pc, body: c.bodyBuf[:0]}
	a := pc
	for len(b.body) < maxBlockLen {
		inst, err := c.fetchAt(a)
		if err != nil {
			if len(b.body) == 0 {
				return nil // slow path refetches and reports the fault
			}
			break // fall through; the next dispatch traps at a
		}
		fn := handlerFor(&inst)
		if fn == nil { // control transfer or system: terminator
			b.term = inst
			b.hasTerm = true
			break
		}
		if n := len(b.body); n > 0 && c.tryFuse(&b.body[n-1], inst) {
			a = inst.Next()
			continue
		}
		b.body = append(b.body, bodyInst{
			fn:    fn,
			inst:  inst,
			cost:  c.Model.Cost(inst.Mn),
			cost1: c.Model.Cost(inst.Mn),
			next:  inst.Next(),
			n:     1,
			store: inst.IsStore() || inst.Cat() == riscv.CatAMO,
		})
		a = inst.Next()
	}
	b.end, b.hi = a, a
	if b.hasTerm {
		c.prepareTerm(b)
		b.hi = b.term.Next()
	}
	c.bodyBuf = b.body
	b.body = append(make([]bodyInst, 0, len(b.body)), b.body...)
	for i := range b.body {
		b.body[i].cumC, b.body[i].cumN = b.cost, b.nBody
		b.cost += b.body[i].cost
		b.nBody += uint64(b.body[i].n)
	}
	b.n = b.nBody
	if b.hasTerm {
		b.n++
		if b.termKind == tkCmpBranch || b.termKind == tkAuipcJalr {
			b.n++
		}
	}
	b.maxCost = b.cost + b.cmpCost + b.termCost + c.Model.BranchTakenPenalty
	if b.n == 0 {
		return nil
	}
	if p := c.allocCodePage(pc); p != nil {
		p.blk[slot(pc)] = b
	} else {
		c.blkMap[pc] = b
	}
	for pg := pc >> pageBits; pg <= (b.hi-1)>>pageBits; pg++ {
		l := c.blkPages[pg]
		if len(l) == cap(l) {
			l = c.liveBlocks(l)
		}
		c.blkPages[pg] = append(l, b)
	}
	return b
}

// liveBlocks drops the retired and stale entries of one page's index list
// in place. Appends call it only when the list is full, so the list stays
// within twice the page's live blocks at amortized constant cost.
func (c *CPU) liveBlocks(l []*block) []*block {
	live := l[:0]
	for _, b := range l {
		if b.gen == c.icGen {
			live = append(live, b)
		}
	}
	clear(l[len(live):])
	return live
}

// killBlocks retires every current block whose bytes overlap [lo, hi) —
// the span WriteMem cleared from the decode cache — and drops stale
// entries from the index pages it walks. It reports false, leaving the
// caller to bump the generation, when a touched block belongs to a trace.
func (c *CPU) killBlocks(lo, hi uint64) bool {
	var kills uint64
	precise := true
	for pg := lo >> pageBits; pg <= (hi-1)>>pageBits; pg++ {
		l := c.blkPages[pg]
		for _, b := range l {
			if b.gen == c.icGen && b.pc < hi && b.hi > lo {
				precise = precise && !b.traced
				b.gen = genDead
				kills++
			}
		}
		c.blkPages[pg] = c.liveBlocks(l)
	}
	if precise && c.Obs != nil {
		c.Obs.BlockKills.Add(kills)
	}
	return precise
}

// prepareTerm classifies the terminator and precomputes its targets and
// costs, folding a fusable last body instruction (compare, or the auipc of
// an auipc+jalr rung) into the terminator when the pattern matches.
func (c *CPU) prepareTerm(b *block) {
	t := &b.term
	b.termCost = c.Model.Cost(t.Mn)
	// dbi.jt is CatJALR by nature (an indirect jump) but takes its target
	// from DBI scratch state, not rs1+imm, so it gets its own kind rather
	// than the jalr fast path — one the trace tier can compile through.
	if t.Mn == riscv.MnDBIJT {
		b.termKind = tkDBIJT
		return
	}
	switch t.Cat() {
	case riscv.CatBranch:
		b.termKind = tkBranch
		b.takenPC = t.Addr + uint64(t.Imm)
		b.fallPC = t.Next()
		// Compare+branch fusion: slt{,u,i,iu} rd feeding a beq/bne rd, x0
		// immediately after it. The compare still writes rd (bit-identical
		// architectural state); the fused terminator retires both in one
		// dispatch.
		if n := len(b.body); n > 0 && b.body[n-1].n == 1 &&
			(t.Mn == riscv.MnBEQ || t.Mn == riscv.MnBNE) &&
			t.Rs2 == riscv.X0 && t.Rs1 != riscv.X0 && t.Rs1 == b.body[n-1].inst.Rd {
			switch b.body[n-1].inst.Mn {
			case riscv.MnSLT, riscv.MnSLTU, riscv.MnSLTI, riscv.MnSLTIU:
				b.cmp = b.body[n-1].inst
				b.cmpCost = b.body[n-1].cost
				b.body = b.body[:n-1]
				b.end = b.cmp.Addr
				b.termKind = tkCmpBranch
				c.fuseCount[fuseCmpBranch]++
			}
		}
	case riscv.CatJAL:
		b.termKind = tkJAL
		b.takenPC = t.Addr + uint64(t.Imm)
		b.fallPC = t.Next()
	case riscv.CatJALR:
		b.termKind = tkJALR
		b.fallPC = t.Next()
		// Auipc+jalr rung fusion: the patch ladder's long-distance jump
		// (and every la+call sequence) resolves to a constant target at
		// build time.
		if n := len(b.body); n > 0 && b.body[n-1].n == 1 &&
			b.body[n-1].inst.Mn == riscv.MnAUIPC &&
			b.body[n-1].inst.Rd != riscv.X0 && t.Rs1 == b.body[n-1].inst.Rd {
			au := b.body[n-1].inst
			b.cmp = au
			b.cmpCost = b.body[n-1].cost
			b.termAux = au.Addr + uint64(au.Imm<<12)
			b.takenPC = (b.termAux + uint64(t.Imm)) &^ 1
			b.body = b.body[:n-1]
			b.end = au.Addr
			b.termKind = tkAuipcJalr
			c.fuseCount[fuseAuipcJalr]++
		}
	default:
		b.termKind = tkExec
	}
}

// runBlock executes b, which must start at the current PC under the current
// icache generation. It returns the number of instructions retired and a
// stop reason (stopNone to continue dispatching). Only called with Trace
// nil, so no per-instruction hooks fire.
func (c *CPU) runBlock(b *block) (retired uint64, stop StopReason) {
	c.blkGen = b.gen
	for i := range b.body {
		bi := &b.body[i]
		if err := bi.fn(c, bi); err != nil {
			if err == errFuseSplit {
				// The pair's first store invalidated cached code; retire it
				// alone and re-dispatch so the second constituent is
				// re-decoded.
				c.PC = bi.inst2.Addr
				c.Cycles += bi.cumC + bi.cost1
				c.Instret += bi.cumN + 1
				return bi.cumN + 1, stopNone
			}
			// Architectural state must look exactly like the slow path's:
			// the faulting constituent has not retired, PC points at it.
			fi, k := &bi.inst, uint64(0)
			if bi.n == 2 && c.fuseStage == 1 {
				fi, k = &bi.inst2, 1
			}
			c.PC = fi.Addr
			c.Cycles += bi.cumC + k*bi.cost1
			c.Instret += bi.cumN + k
			c.lastTrap = &Trap{PC: c.PC, Why: "execute " + fi.String(), Wrap: err}
			return bi.cumN + k, StopTrap
		}
		if bi.store && c.watchHit {
			// The store landed in the armed code-watch range. Retire the
			// executed prefix (store included) and stop with the PC already
			// past it, exactly like the slow path's post-exec check.
			c.watchHit = false
			c.PC = bi.next
			c.Cycles += bi.cumC + bi.cost
			c.Instret += bi.cumN + uint64(bi.n)
			return bi.cumN + uint64(bi.n), StopCodeWrite
		}
		if bi.store && b.gen != c.icGen {
			// The store invalidated cached code — possibly the rest of this
			// very block. Retire the executed prefix and re-dispatch so the
			// rewritten bytes are re-decoded.
			c.PC = bi.next
			c.Cycles += bi.cumC + bi.cost
			c.Instret += bi.cumN + uint64(bi.n)
			return bi.cumN + uint64(bi.n), stopNone
		}
	}
	n := b.nBody
	c.Cycles += b.cost
	c.Instret += n
	if !b.hasTerm {
		c.PC = b.end
		return n, stopNone
	}
	c.PC = b.term.Addr
	if b.term.Mn == riscv.MnEBREAK {
		// Like the slow path: stop before executing, PC at the ebreak.
		return n, StopBreakpoint
	}
	switch b.termKind {
	case tkBranch:
		if c.evalBranch(b.term.Mn, c.X[b.term.Rs1&31], c.X[b.term.Rs2&31]) {
			c.PC = b.takenPC
			c.Cycles += b.termCost + c.Model.BranchTakenPenalty
		} else {
			c.PC = b.fallPC
			c.Cycles += b.termCost
		}
		c.Instret++
		return n + 1, stopNone
	case tkCmpBranch:
		cmp := &b.cmp
		var v uint64
		switch cmp.Mn {
		case riscv.MnSLT:
			v = b2u(int64(c.X[cmp.Rs1&31]) < int64(c.X[cmp.Rs2&31]))
		case riscv.MnSLTU:
			v = b2u(c.X[cmp.Rs1&31] < c.X[cmp.Rs2&31])
		case riscv.MnSLTI:
			v = b2u(int64(c.X[cmp.Rs1&31]) < cmp.Imm)
		case riscv.MnSLTIU:
			v = b2u(c.X[cmp.Rs1&31] < uint64(cmp.Imm))
		}
		c.setX(cmp.Rd, v)
		taken := v != 0
		if b.term.Mn == riscv.MnBEQ {
			taken = !taken
		}
		if taken {
			c.PC = b.takenPC
			c.Cycles += b.cmpCost + b.termCost + c.Model.BranchTakenPenalty
		} else {
			c.PC = b.fallPC
			c.Cycles += b.cmpCost + b.termCost
		}
		c.Instret += 2
		return n + 2, stopNone
	case tkJAL:
		c.setX(b.term.Rd, b.fallPC)
		c.PC = b.takenPC
		c.Cycles += b.termCost
		c.Instret++
		return n + 1, stopNone
	case tkJALR:
		target := (c.X[b.term.Rs1&31] + uint64(b.term.Imm)) &^ 1
		c.setX(b.term.Rd, b.fallPC)
		c.PC = target
		c.Cycles += b.termCost
		c.Instret++
		return n + 1, stopNone
	case tkAuipcJalr:
		c.setX(b.cmp.Rd, b.termAux)
		c.setX(b.term.Rd, b.fallPC)
		c.PC = b.takenPC
		c.Cycles += b.cmpCost + b.termCost
		c.Instret += 2
		return n + 2, stopNone
	case tkDBIJT:
		target, err := c.dbiJT(&b.term)
		if err != nil {
			c.lastTrap = &Trap{PC: c.PC, Why: "execute " + b.term.String(), Wrap: err}
			return n, StopTrap
		}
		c.PC = target
		c.Cycles += b.termCost
		c.Instret++
		return n + 1, stopNone
	}
	exited, err := c.exec(b.term)
	if err != nil {
		c.lastTrap = &Trap{PC: c.PC, Why: "execute " + b.term.String(), Wrap: err}
		return n, StopTrap
	}
	n++
	if exited {
		return n, StopExit
	}
	return n, stopNone
}

// evalBranch evaluates a conditional-branch condition on two operands.
func (c *CPU) evalBranch(mn riscv.Mnemonic, rs1, rs2 uint64) bool {
	switch mn {
	case riscv.MnBEQ:
		return rs1 == rs2
	case riscv.MnBNE:
		return rs1 != rs2
	case riscv.MnBLT:
		return int64(rs1) < int64(rs2)
	case riscv.MnBGE:
		return int64(rs1) >= int64(rs2)
	case riscv.MnBLTU:
		return rs1 < rs2
	case riscv.MnBGEU:
		return rs1 >= rs2
	}
	return false
}

// handlerFor returns the body handler for an instruction, or nil when it
// must terminate a block: control transfers (the block is over),
// ecall/ebreak (stop state, syscalls), fence.i (invalidates the very cache
// the block lives in), and CSR ops (the counter CSRs read the live
// cycle/instret counters, which are only up to date at block boundaries,
// and the FP CSRs are too cold to specialize). The one exception is the
// DBI scratch CSRs 0x7C0–0x7C3: they hold engine state that never depends
// on the counters, and the inline-lookup stubs touch them on every
// indirect transfer, so they are body ops.
func handlerFor(inst *riscv.Inst) instFn {
	mn := inst.Mn
	switch mn.Cat() {
	case riscv.CatBranch, riscv.CatJAL, riscv.CatJALR:
		return nil
	}
	switch mn {
	case riscv.MnInvalid, riscv.MnECALL, riscv.MnEBREAK, riscv.MnFENCEI:
		return nil
	case riscv.MnCSRRW, riscv.MnCSRRS, riscv.MnCSRRC,
		riscv.MnCSRRWI, riscv.MnCSRRSI, riscv.MnCSRRCI:
		if isScratchCSR(inst.CSR) {
			return fnScratchCSR
		}
		return nil

	// Dedicated handlers for the hot mnemonics skip the generic dispatch
	// switch entirely; everything else straight-line funnels through
	// execStraight, exactly as the slow path does.
	case riscv.MnADDI:
		return fnADDI
	case riscv.MnADD:
		return fnADD
	case riscv.MnSUB:
		return fnSUB
	case riscv.MnSLLI:
		return fnSLLI
	case riscv.MnLUI:
		return fnLUI
	case riscv.MnAUIPC:
		return fnAUIPC
	case riscv.MnMUL:
		return fnMUL
	case riscv.MnLD:
		return fnLD
	case riscv.MnLW:
		return fnLW
	case riscv.MnSD:
		return fnSD
	case riscv.MnSW:
		return fnSW
	case riscv.MnFLD:
		return fnFLD
	case riscv.MnFSD:
		return fnFSD
	case riscv.MnFMADDD:
		return fnFMADDD
	case riscv.MnFADDD:
		return fnFADDD
	case riscv.MnFMULD:
		return fnFMULD
	}
	return fnStraight
}

// Macro-op fusion kinds, indexed into CPU.fuseCount and Metrics.Fused.
const (
	fuseLuiAddi = iota
	fuseAuipcAddi
	fuseAuipcLd
	fuseSlliAdd
	fuseLdPair
	fuseSdPair
	fuseCmpBranch
	fuseAuipcJalr
	numFuseKinds
)

// fuseKindNames are the obs counter suffixes, indexed by fuse kind.
var fuseKindNames = [numFuseKinds]string{
	"lui_addi", "auipc_addi", "auipc_ld", "slli_add",
	"ld_pair", "sd_pair", "cmp_branch", "auipc_jalr",
}

// tryFuse attempts to fuse the already-appended body entry p with the next
// decoded instruction inst, rewriting p in place into a fused pair. Only
// patterns whose fused execution is bit-identical to sequential execution
// are recognized; the cost model is charged per constituent either way.
func (c *CPU) tryFuse(p *bodyInst, inst riscv.Inst) bool {
	if p.n != 1 {
		return false
	}
	a := &p.inst
	kind := -1
	switch {
	case a.Mn == riscv.MnLUI && inst.Mn == riscv.MnADDI &&
		inst.Rs1 == a.Rd && a.Rd != riscv.X0:
		// lui rd, hi; addi rd2, rd, lo — both results are constants.
		p.aux = uint64(a.Imm << 12)
		p.aux2 = p.aux + uint64(inst.Imm)
		p.fn = fnFuseConstPair
		kind = fuseLuiAddi
	case a.Mn == riscv.MnAUIPC && inst.Mn == riscv.MnADDI &&
		inst.Rs1 == a.Rd && a.Rd != riscv.X0:
		// auipc rd, hi; addi rd2, rd, lo — pc-relative address materialization
		// (the la pseudo-instruction); constant-folded at build time.
		p.aux = a.Addr + uint64(a.Imm<<12)
		p.aux2 = p.aux + uint64(inst.Imm)
		p.fn = fnFuseConstPair
		kind = fuseAuipcAddi
	case a.Mn == riscv.MnAUIPC && inst.Mn == riscv.MnLD &&
		inst.Rs1 == a.Rd && a.Rd != riscv.X0:
		// auipc rd, hi; ld rd2, lo(rd) — pc-relative load from a constant
		// address.
		p.aux = a.Addr + uint64(a.Imm<<12)
		p.aux2 = p.aux + uint64(inst.Imm)
		p.fn = fnFuseAuipcLd
		kind = fuseAuipcLd
	case a.Mn == riscv.MnSLLI && inst.Mn == riscv.MnADD && a.Rd != riscv.X0 &&
		(inst.Rs1 == a.Rd || inst.Rs2 == a.Rd):
		// slli rd, rs, sh; add rd2, rd, other — the address-scaling idiom
		// (shNadd) in array indexing. aux is the shift, aux2 the register
		// number of the non-shifted add operand. If both add operands are
		// the shifted register, other resolves to it and the handler reads
		// it after the shift result is committed, like sequential execution.
		other := inst.Rs1
		if inst.Rs1 == a.Rd {
			other = inst.Rs2
		}
		p.aux = uint64(a.Imm)
		p.aux2 = uint64(other & 31)
		p.fn = fnFuseSlliAdd
		kind = fuseSlliAdd
	case a.Mn == riscv.MnLD && inst.Mn == riscv.MnLD &&
		inst.Rs1 == a.Rs1 && a.Rd != a.Rs1 && inst.Imm == a.Imm+8:
		// ld rd1, off(base); ld rd2, off+8(base) — load-pair. The base must
		// survive the first load (a.Rd != base).
		p.fn = fnFuseLdPair
		kind = fuseLdPair
	case a.Mn == riscv.MnSD && inst.Mn == riscv.MnSD &&
		inst.Rs1 == a.Rs1 && inst.Imm == a.Imm+8:
		// sd rs2a, off(base); sd rs2b, off+8(base) — store-pair.
		p.fn = fnFuseSdPair
		kind = fuseSdPair
	default:
		return false
	}
	p.inst2 = inst
	p.cost1 = p.cost
	p.cost += c.Model.Cost(inst.Mn)
	p.next = inst.Next()
	p.n = 2
	p.store = p.store || inst.IsStore()
	c.fuseCount[kind]++
	return true
}

// The dedicated handlers mirror the corresponding execStraight cases
// exactly; any semantic change must be made in both places (the fast/slow
// equivalence test in block_test.go enforces this).

func fnStraight(c *CPU, bi *bodyInst) error { return c.execStraight(&bi.inst) }

// fnScratchCSR runs a DBI scratch-CSR access. Without a DBIComp csrOp
// faults exactly as the slow path's does, and the fault protocol leaves the
// access unretired at its own PC.
func fnScratchCSR(c *CPU, bi *bodyInst) error { return c.csrOp(bi.inst) }

func fnADDI(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setX(i.Rd, c.X[i.Rs1&31]+uint64(i.Imm))
	return nil
}

func fnADD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setX(i.Rd, c.X[i.Rs1&31]+c.X[i.Rs2&31])
	return nil
}

func fnSUB(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setX(i.Rd, c.X[i.Rs1&31]-c.X[i.Rs2&31])
	return nil
}

func fnSLLI(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setX(i.Rd, c.X[i.Rs1&31]<<uint(i.Imm))
	return nil
}

func fnLUI(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setX(i.Rd, uint64(i.Imm<<12))
	return nil
}

func fnAUIPC(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setX(i.Rd, i.Addr+uint64(i.Imm<<12))
	return nil
}

func fnMUL(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setX(i.Rd, c.X[i.Rs1&31]*c.X[i.Rs2&31])
	return nil
}

func fnLD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	v, e := c.Mem.Read64(c.X[i.Rs1&31] + uint64(i.Imm))
	if e != nil {
		return e
	}
	c.setX(i.Rd, v)
	return nil
}

func fnLW(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	v, e := c.Mem.Read32(c.X[i.Rs1&31] + uint64(i.Imm))
	if e != nil {
		return e
	}
	c.setX(i.Rd, sext32(v))
	return nil
}

func fnSD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	a := c.X[i.Rs1&31] + uint64(i.Imm)
	return c.storeCheck(a, 8, c.Mem.Write64(a, c.X[i.Rs2&31]))
}

func fnSW(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	a := c.X[i.Rs1&31] + uint64(i.Imm)
	return c.storeCheck(a, 4, c.Mem.Write32(a, uint32(c.X[i.Rs2&31])))
}

func fnFLD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	v, e := c.Mem.Read64(c.X[i.Rs1&31] + uint64(i.Imm))
	if e != nil {
		return e
	}
	c.F[i.Rd&31] = v
	return nil
}

func fnFSD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	a := c.X[i.Rs1&31] + uint64(i.Imm)
	return c.storeCheck(a, 8, c.Mem.Write64(a, c.F[i.Rs2&31]))
}

func fnFMADDD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setD(i.Rd, math.FMA(c.getD(i.Rs1), c.getD(i.Rs2), c.getD(i.Rs3)))
	return nil
}

func fnFADDD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setD(i.Rd, c.getD(i.Rs1)+c.getD(i.Rs2))
	return nil
}

func fnFMULD(c *CPU, bi *bodyInst) error {
	i := &bi.inst
	c.setD(i.Rd, c.getD(i.Rs1)*c.getD(i.Rs2))
	return nil
}

// Fused-pair handlers. Every handler applies the first constituent's full
// architectural effect before attempting the second, so a fault in the
// second constituent leaves exactly the state sequential execution would.
// Handlers that can fault set c.fuseStage to the number of constituents
// retired before the fault (0 or 1) on every error path.

// fnFuseConstPair covers lui+addi and auipc+addi: both destination values
// were folded to constants at build time.
func fnFuseConstPair(c *CPU, bi *bodyInst) error {
	c.setX(bi.inst.Rd, bi.aux)
	c.setX(bi.inst2.Rd, bi.aux2)
	return nil
}

func fnFuseAuipcLd(c *CPU, bi *bodyInst) error {
	c.setX(bi.inst.Rd, bi.aux) // auipc retires first
	v, e := c.Mem.Read64(bi.aux2)
	if e != nil {
		c.fuseStage = 1
		return e
	}
	c.setX(bi.inst2.Rd, v)
	return nil
}

func fnFuseSlliAdd(c *CPU, bi *bodyInst) error {
	t := c.X[bi.inst.Rs1&31] << uint(bi.aux)
	c.setX(bi.inst.Rd, t)
	// Read the other add operand after the shift result is committed: if it
	// is the shifted register itself, sequential execution sees the new
	// value, and so do we.
	c.setX(bi.inst2.Rd, t+c.X[bi.aux2])
	return nil
}

func fnFuseLdPair(c *CPU, bi *bodyInst) error {
	base := c.X[bi.inst.Rs1&31]
	v1, e := c.Mem.Read64(base + uint64(bi.inst.Imm))
	if e != nil {
		c.fuseStage = 0
		return e
	}
	c.setX(bi.inst.Rd, v1)
	v2, e := c.Mem.Read64(base + uint64(bi.inst2.Imm))
	if e != nil {
		c.fuseStage = 1
		return e
	}
	c.setX(bi.inst2.Rd, v2)
	return nil
}

func fnFuseSdPair(c *CPU, bi *bodyInst) error {
	base := c.X[bi.inst.Rs1&31]
	a1 := base + uint64(bi.inst.Imm)
	if e := c.storeCheck(a1, 8, c.Mem.Write64(a1, c.X[bi.inst.Rs2&31])); e != nil {
		c.fuseStage = 0
		return e
	}
	if c.icGen != c.blkGen {
		// The first store invalidated cached code — the second constituent's
		// bytes may have just been rewritten. Split the pair so it is
		// re-decoded, exactly as sequential execution would refetch it.
		return errFuseSplit
	}
	a2 := base + uint64(bi.inst2.Imm)
	if e := c.storeCheck(a2, 8, c.Mem.Write64(a2, c.X[bi.inst2.Rs2&31])); e != nil {
		c.fuseStage = 1
		return e
	}
	return nil
}
