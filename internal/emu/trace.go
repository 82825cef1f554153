package emu

import (
	"math"

	"rvdyn/internal/riscv"
)

// Trace compilation: the third dispatch tier.
//
// Superblock chaining (block.go) already dispatches block→block through
// cached successor links, but every constituent still pays a handler call
// through a function pointer, and every block boundary pays the Run loop's
// bookkeeping (budget/sample gates, chain resolution, runBlock setup). For
// hot loops that is the remaining cost. A trace flattens a hot chain of
// superblocks into one runtime-built unit: the constituent handlers are
// re-specialized into a dense op array executed by a single switch-dispatch
// loop, guest register numbers are pre-masked, memory ops carry a one-entry
// page cache (one translation per distinct page per trace, valid because
// mapped pages are immortal — see Memory), and conditional branches are
// compiled in their profiled-likely direction with side exits that spill
// back to the normal dispatcher. A looping trace (its predicted path
// returns to its own entry) executes multiple passes per dispatch, hoisting
// the Run loop's gates to one check per pass. A peephole pass then fuses
// adjacent specialized ops into superops (mul+add, slliAdd+load,
// addi+branch, addi+jal) so the hot switch dispatches once per two to four
// constituents.
//
// Bit-identity contract: Cycles, Instret, and the virtual clock derived
// from them must match per-instruction dispatch exactly, in every exit
// case. Cost is charged per constituent via per-op prefix sums (cumC/cumN):
// a side exit, fault, watch hit, or fused-pair split charges exactly the
// committed prefix using the same protocols runBlock implements (superops
// additionally carry preC/preN, the constituents already committed before
// their faultable tail), and the sampling gate extends block.maxCost to the
// trace's worst-case single pass, so a trace is only dispatched (and a pass
// only started) when even its worst case cannot cross the pending sample
// mark. SMC coherence rides the icache generation: a trace records the
// generation it was built under, stores re-check it (severing mid-trace
// exactly like runBlock's retire-prefix protocol), and a stale trace is
// severed at dispatch.
//
// Traces contain no syscalls, guest CSR ops, fence.i, or ebreaks — blocks
// terminated by those (tkExec) end the walk — so Exited and the counters
// visible to CSR reads cannot change mid-trace. The only CSR ops inside a
// trace are the DBI scratch-CSR accesses (body ops: engine state that never
// reads the counters). A DBI code cache's inline-lookup transfer (dbi.jt,
// tkDBIJT) compiles to a guarded op: the trace continues into the
// hottest profiled target and side-exits when the looked-up target
// differs, so a hot chain of translated code spans its indirect returns
// the way DynamoRIO and MAMBO traces do.

// Trace build limits and the hotness trigger: a chain link must be taken
// traceHotMask+1 times before its target is considered a trace head.
const (
	traceHotMask   = 63
	traceMaxBlocks = 16
	traceMaxOps    = 256
)

// Trace op kinds. Specialized kinds inline the corresponding block.go
// handler bodies; otBody falls back to the source bodyInst's handler
// (covering every remaining mnemonic and the fused pairs that can fault,
// with fuseStage/errFuseSplit semantics preserved for free).
const (
	otBody uint8 = iota
	otAddi
	otAdd
	otSub
	otSlli
	otLi // lui/auipc: destination value folded to a constant
	otMul
	otLd
	otLw
	otSd
	otSw
	otFld
	otFsd
	otFmaddd
	otFaddd
	otFmuld
	otConstPair  // fused lui+addi / auipc+addi: both constants
	otSlliAdd    // fused slli+add
	otMulAdd     // superop: mul feeding an add
	otSlliAddLd  // superop: fused slli+add feeding an ld through the add result
	otSlliAddFld // superop: fused slli+add feeding an fld through the add result
	otAddiJal    // superop: addi followed by a constant-target jump+link
	otAddiBr     // superop: addi followed by a predicted conditional branch
	otBr         // conditional branch, compiled in its predicted direction
	otBrEnd      // conditional branch without a usable prediction: trace end
	otCmpBr      // fused compare+branch, predicted
	otCmpBrEnd   // fused compare+branch, trace end
	otJal        // constant-target jump+link, trace continues at the target
	otAuipcJalr  // fused auipc+jalr (constant target), trace continues
	otJalrEnd    // indirect jump: dynamic target, always a trace end
	otJT         // dbi.jt guarded on its hottest target, trace continues
	otJTEnd      // dbi.jt without a profiled target: trace end
)

// traceOp is one flattened constituent, fused pair, superop, or terminator
// of a trace. The fields the execution switch reads on the predicted path
// come first so they share a cache line; exit bookkeeping (prefix sums
// cumC/cumN — the predicted-path cycles/constituents committed before this
// op within one pass — and the fault/store-protocol fields) sits behind
// them and is only touched on trace exits.
type traceOp struct {
	kind      uint8
	n         uint8 // constituents this op retires on the predicted path
	rd        uint8
	rs1, rs2  uint8
	rs3       uint8 // third source / second destination (pairs, superops)
	rs4       uint8 // fourth register (superops)
	predTaken bool
	store     bool
	preN      uint8          // superops: constituents committed before the faultable tail
	mn        riscv.Mnemonic // branch mnemonic (otBr/otBrEnd/otAddiBr)
	imm       int64
	aux       uint64 // folded constant / shift amount / taken or guarded target
	aux2      uint64 // second constant / fallthrough PC / link value
	pgTag     uint64 // page cache: page index + 1 (0 = empty)
	pg        *page

	// Exit bookkeeping (cold on the predicted path).
	cost  uint64    // predicted-path cycle cost of this op
	cost1 uint64    // cost without the taken penalty (branch exits)
	preC  uint64    // superops: cycles of the constituents before the tail
	next  uint64    // address after the op's constituents (store protocol)
	cumC  uint64    // predicted-path cycles before this op, within a pass
	cumN  uint64    // predicted-path constituents before this op
	bi    *bodyInst // source body entry (otBody; fault attribution)
	b     *block    // source block (terminator ops)
}

// trace is one compiled hot chain, attached to its head block.
type trace struct {
	gen     uint64 // icache generation the trace was built under
	entry   uint64 // head PC (pass start; loop wrap target)
	endPC   uint64 // PC after the last op for traces that end by falling off
	loop    bool   // predicted path returns to entry: multi-pass dispatch
	ops     []traceOp
	passC   uint64 // cycles of one full predicted pass
	passN   uint64 // constituents of one full predicted pass
	maxCost uint64 // worst-case cycles of one pass (sampler gate)
}

// maybeTrace is the hotness trigger, called from succFor when a chain link
// crosses a hit threshold. The target becomes a trace head unless it
// already has a trace, already failed to produce one, or tracing is off.
func (c *CPU) maybeTrace(b *block, pc uint64) {
	if c.NoTrace || b.trc != nil || b.trcFail {
		return
	}
	c.buildTrace(b, pc)
}

// buildTrace walks the predicted chain from the head block at entry and
// compiles it into a flattened trace, attaching it to head (or marking the
// head untraceable). The walk follows constant-target terminators and the
// profiled-likely side of conditional branches and the hottest target of
// a dbi.jt, and stops at indirect jumps, unpredictable branches, a dbi.jt
// with no profiled target, tkExec blocks (syscalls/CSRs/ebreak), a
// revisited PC, or the build caps. A walk that returns to entry makes a
// looping trace.
func (c *CPU) buildTrace(head *block, entry uint64) {
	t := &trace{gen: c.icGen, entry: entry}
	visited := map[uint64]bool{entry: true}
	pc := entry
	b := head
	blocks := 0
	for {
		if b == nil || b.gen != c.icGen || blocks >= traceMaxBlocks ||
			len(t.ops)+len(b.body)+1 > traceMaxOps ||
			(b.hasTerm && (b.termKind == tkExec || b.term.Mn == riscv.MnEBREAK)) {
			// End the trace before this block; the dispatcher picks it up.
			t.endPC = pc
			break
		}
		blocks++
		b.traced = true
		for j := range b.body {
			t.ops = append(t.ops, traceBodyOp(&b.body[j]))
		}
		var nextPC uint64
		done := false
		if !b.hasTerm {
			nextPC = b.end
		} else {
			op := traceOp{b: b, aux: b.takenPC, aux2: b.fallPC}
			switch b.termKind {
			case tkBranch:
				op.mn = b.term.Mn
				op.rs1, op.rs2 = uint8(b.term.Rs1&31), uint8(b.term.Rs2&31)
				op.n, op.cost1 = 1, b.termCost
				op.cost = b.termCost
				if taken, ok := c.predictBranch(b); ok {
					op.kind = otBr
					op.predTaken = taken
					if taken {
						op.cost += c.Model.BranchTakenPenalty
						nextPC = b.takenPC
					} else {
						nextPC = b.fallPC
					}
				} else {
					op.kind = otBrEnd
					done = true
				}
			case tkCmpBranch:
				op.n, op.cost1 = 2, b.cmpCost+b.termCost
				op.cost = op.cost1
				if taken, ok := c.predictBranch(b); ok {
					op.kind = otCmpBr
					op.predTaken = taken
					if taken {
						op.cost += c.Model.BranchTakenPenalty
						nextPC = b.takenPC
					} else {
						nextPC = b.fallPC
					}
				} else {
					op.kind = otCmpBrEnd
					done = true
				}
			case tkJAL:
				op.kind = otJal
				op.rd = uint8(b.term.Rd & 31)
				op.n, op.cost = 1, b.termCost
				nextPC = b.takenPC
			case tkAuipcJalr:
				op.kind = otAuipcJalr
				op.n, op.cost = 2, b.cmpCost+b.termCost
				nextPC = b.takenPC
			case tkJALR:
				op.kind = otJalrEnd
				op.rd, op.rs1 = uint8(b.term.Rd&31), uint8(b.term.Rs1&31)
				op.imm = b.term.Imm
				op.n, op.cost, op.cost1 = 1, b.termCost, b.termCost
				done = true
			case tkDBIJT:
				op.n, op.cost = 1, b.termCost
				if tgt, ok := c.hottestSucc(b); ok {
					op.kind = otJT
					op.aux = tgt
					nextPC = tgt
				} else {
					op.kind = otJTEnd
					done = true
				}
			}
			t.ops = append(t.ops, op)
		}
		if done {
			break
		}
		if nextPC == entry {
			t.loop = true
			break
		}
		if visited[nextPC] {
			t.endPC = nextPC
			break
		}
		visited[nextPC] = true
		pc = nextPC
		b = c.blockAt(nextPC, true)
	}
	if len(t.ops) == 0 {
		head.trcFail = true
		return
	}
	tracePeephole(t)
	// Prefix sums and the worst-case pass cost for the sampler gate.
	var cc, cn, mc uint64
	for i := range t.ops {
		op := &t.ops[i]
		op.cumC, op.cumN = cc, cn
		cc += op.cost
		cn += uint64(op.n)
		w := op.cost
		switch op.kind {
		case otBr, otBrEnd, otCmpBr, otCmpBrEnd, otAddiBr:
			w = op.cost1 + c.Model.BranchTakenPenalty
		}
		mc += w
	}
	t.passC, t.passN, t.maxCost = cc, cn, mc
	head.trc = t
	c.traceBuilds++
}

// tracePeephole fuses adjacent specialized ops into superops, halving the
// dispatch count of common loop bodies (index computation feeding a load,
// multiply feeding an accumulate, induction update feeding the backedge).
// Fusing adjacent ops is always sound — each superop commits its
// constituents in original order, reading operands only after earlier
// commits — and the cost/retire accounting merges additively, so the
// prefix sums computed afterwards keep every exit protocol bit-identical.
// Superops never contain stores; a faultable load tail records the
// already-committed prefix in preC/preN for the fault protocol.
func tracePeephole(t *trace) {
	ops := t.ops
	w := 0
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		if i+1 < len(ops) {
			nxt := &ops[i+1]
			merged := true
			switch {
			case op.kind == otMul && nxt.kind == otAdd &&
				(nxt.rs1 == op.rd || nxt.rs2 == op.rd):
				// mul rd,rs1,rs2 ; add rd2,·,· with the product as an
				// operand. rs4 is the other operand, read after the mul
				// commits (it may be rd itself).
				op.kind = otMulAdd
				op.rs3 = nxt.rd
				op.rs4 = nxt.rs2
				if nxt.rs1 != op.rd {
					op.rs4 = nxt.rs1
				}
			case op.kind == otSlliAdd && (nxt.kind == otLd || nxt.kind == otFld) &&
				nxt.rs1 == op.rs3:
				// slli+add pair computing an address, immediately loaded
				// through. The shift amount moves to aux; imm becomes the
				// load offset and rs4 the load destination. The load is the
				// faultable tail: preC/preN record the committed pair.
				if nxt.kind == otLd {
					op.kind = otSlliAddLd
				} else {
					op.kind = otSlliAddFld
				}
				op.aux = uint64(op.imm)
				op.imm = nxt.imm
				op.rs4 = nxt.rd
				op.preC, op.preN = op.cost, op.n
				op.bi = nxt.bi
			case op.kind == otAddi && nxt.kind == otJal:
				// Induction update feeding a direct jump (loop backedge).
				// rs3 is the link register (0 for plain j).
				op.kind = otAddiJal
				op.rs3 = nxt.rd
				op.aux, op.aux2 = nxt.aux, nxt.aux2
			case op.kind == otAddi && nxt.kind == otBr:
				// Induction update feeding a predicted conditional branch.
				// The branch operands move to rs3/rs4 (read after the addi
				// commits); cost1 covers both constituents for the
				// side-exit charge.
				op.kind = otAddiBr
				op.mn = nxt.mn
				op.rs3, op.rs4 = nxt.rs1, nxt.rs2
				op.predTaken = nxt.predTaken
				op.aux, op.aux2 = nxt.aux, nxt.aux2
				op.cost1 = op.cost + nxt.cost1
			default:
				merged = false
			}
			if merged {
				op.n += nxt.n
				op.cost += nxt.cost
				op.next = nxt.next
				i++
			}
		}
		ops[w] = op
		w++
	}
	t.ops = ops[:w]
}

// predictBranch picks the likely direction of b's terminating branch from
// the hit counts on its cached successor links. A direction with no
// resolved link has never been taken since the block was built; prefer the
// observed one.
func (c *CPU) predictBranch(b *block) (taken, ok bool) {
	var th, fh uint32
	tv, fv := false, false
	for i := range b.succ {
		s := &b.succ[i]
		if s.b == nil {
			continue
		}
		if s.pc == b.takenPC {
			th, tv = s.hits, true
		}
		if s.pc == b.fallPC {
			fh, fv = s.hits, true
		}
	}
	switch {
	case tv && (!fv || th >= fh):
		return true, true
	case fv:
		return false, true
	}
	return false, false
}

// hottestSucc picks the guard target of b's dbi.jt: the cached successor
// with the most hits among those still valid at the current generation.
// ok is false when none has been profiled yet.
func (c *CPU) hottestSucc(b *block) (pc uint64, ok bool) {
	var best uint32
	for i := range b.succ {
		s := &b.succ[i]
		if s.b != nil && s.b.gen == c.icGen && (!ok || s.hits > best) {
			pc, best, ok = s.pc, s.hits, true
		}
	}
	return pc, ok
}

// traceBodyOp specializes one body entry into a trace op. Anything without
// a dedicated kind (or writing x0, where setX semantics matter) falls back
// to otBody, which runs the original handler.
func traceBodyOp(bi *bodyInst) traceOp {
	in := &bi.inst
	op := traceOp{
		kind: otBody, bi: bi,
		n: bi.n, cost: bi.cost, next: bi.next, store: bi.store,
		rd: uint8(in.Rd & 31), rs1: uint8(in.Rs1 & 31),
		rs2: uint8(in.Rs2 & 31), rs3: uint8(in.Rs3 & 31),
		imm: in.Imm,
	}
	if bi.n == 2 {
		switch {
		case (in.Mn == riscv.MnLUI || in.Mn == riscv.MnAUIPC) &&
			bi.inst2.Mn == riscv.MnADDI && op.rd != 0 && bi.inst2.Rd != riscv.X0:
			op.kind = otConstPair
			op.aux, op.aux2 = bi.aux, bi.aux2
			op.rs3 = uint8(bi.inst2.Rd & 31)
		case in.Mn == riscv.MnSLLI && bi.inst2.Mn == riscv.MnADD &&
			op.rd != 0 && bi.inst2.Rd != riscv.X0:
			op.kind = otSlliAdd
			op.imm = int64(bi.aux)  // shift amount
			op.rs2 = uint8(bi.aux2) // the non-shifted add operand register
			op.rs3 = uint8(bi.inst2.Rd & 31)
		}
		return op
	}
	switch in.Mn {
	case riscv.MnADDI:
		if op.rd != 0 {
			op.kind = otAddi
		}
	case riscv.MnADD:
		if op.rd != 0 {
			op.kind = otAdd
		}
	case riscv.MnSUB:
		if op.rd != 0 {
			op.kind = otSub
		}
	case riscv.MnSLLI:
		if op.rd != 0 {
			op.kind = otSlli
		}
	case riscv.MnLUI:
		if op.rd != 0 {
			op.kind = otLi
			op.aux = uint64(in.Imm << 12)
		}
	case riscv.MnAUIPC:
		if op.rd != 0 {
			op.kind = otLi
			op.aux = in.Addr + uint64(in.Imm<<12)
		}
	case riscv.MnMUL:
		if op.rd != 0 {
			op.kind = otMul
		}
	case riscv.MnLD:
		if op.rd != 0 {
			op.kind = otLd
		}
	case riscv.MnLW:
		if op.rd != 0 {
			op.kind = otLw
		}
	case riscv.MnSD:
		op.kind = otSd
	case riscv.MnSW:
		op.kind = otSw
	case riscv.MnFLD:
		op.kind = otFld
	case riscv.MnFSD:
		op.kind = otFsd
	case riscv.MnFMADDD:
		op.kind = otFmaddd
	case riscv.MnFADDD:
		op.kind = otFaddd
	case riscv.MnFMULD:
		op.kind = otFmuld
	}
	return op
}

// runTrace executes t, which must start at the current PC under the current
// icache generation, with the dispatch gates (budget ≥ passN, sampler
// clearance for maxCost) already checked for the first pass. It returns the
// constituents retired and a stop reason (stopNone to continue
// dispatching). Every exit path leaves Cycles/Instret/PC exactly as
// per-instruction dispatch would. Load hit paths are inlined against the
// per-op page cache; misses, stores, faults, and every exit go through the
// outlined helpers.
func (c *CPU) runTrace(t *trace, budget uint64, limited bool) (retired uint64, stop StopReason) {
	c.blkGen = t.gen
	c.traceHits++
	ops := t.ops
	for {
		for i := 0; i < len(ops); i++ {
			op := &ops[i]
			switch op.kind {
			case otBody:
				bi := op.bi
				if err := bi.fn(c, bi); err != nil {
					if err == errFuseSplit {
						// First store of a fused pair invalidated cached
						// code: retire it alone and re-dispatch (runBlock's
						// protocol).
						c.PC = bi.inst2.Addr
						c.Cycles += op.cumC + bi.cost1
						c.Instret += op.cumN + 1
						return retired + op.cumN + 1, stopNone
					}
					return c.traceFault(op, retired, err)
				}
				if op.store && (c.watchHit || t.gen != c.icGen) {
					return c.traceStoreExit(op, retired)
				}
			case otAddi:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
			case otAdd:
				c.X[op.rd&31] = c.X[op.rs1&31] + c.X[op.rs2&31]
			case otSub:
				c.X[op.rd&31] = c.X[op.rs1&31] - c.X[op.rs2&31]
			case otSlli:
				c.X[op.rd&31] = c.X[op.rs1&31] << uint(op.imm)
			case otLi:
				c.X[op.rd&31] = op.aux
			case otMul:
				c.X[op.rd&31] = c.X[op.rs1&31] * c.X[op.rs2&31]
			case otLd:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.X[op.rd&31] = uint64(p[o]) | uint64(p[o+1])<<8 | uint64(p[o+2])<<16 | uint64(p[o+3])<<24 |
						uint64(p[o+4])<<32 | uint64(p[o+5])<<40 | uint64(p[o+6])<<48 | uint64(p[o+7])<<56
				} else {
					v, err := c.traceRead64(op, a)
					if err != nil {
						return c.traceFault(op, retired, err)
					}
					c.X[op.rd&31] = v
				}
			case otLw:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-4 {
					p, o := op.pg, a&pageMask
					c.X[op.rd&31] = sext32(uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24)
				} else {
					v, err := c.traceRead32(op, a)
					if err != nil {
						return c.traceFault(op, retired, err)
					}
					c.X[op.rd&31] = sext32(v)
				}
			case otSd:
				if err := c.traceWrite64(op, c.X[op.rs1&31]+uint64(op.imm), c.X[op.rs2&31]); err != nil {
					return c.traceFault(op, retired, err)
				}
				if c.watchHit || t.gen != c.icGen {
					return c.traceStoreExit(op, retired)
				}
			case otSw:
				if err := c.traceWrite32(op, c.X[op.rs1&31]+uint64(op.imm), uint32(c.X[op.rs2&31])); err != nil {
					return c.traceFault(op, retired, err)
				}
				if c.watchHit || t.gen != c.icGen {
					return c.traceStoreExit(op, retired)
				}
			case otFld:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.F[op.rd&31] = uint64(p[o]) | uint64(p[o+1])<<8 | uint64(p[o+2])<<16 | uint64(p[o+3])<<24 |
						uint64(p[o+4])<<32 | uint64(p[o+5])<<40 | uint64(p[o+6])<<48 | uint64(p[o+7])<<56
				} else {
					v, err := c.traceRead64(op, a)
					if err != nil {
						return c.traceFault(op, retired, err)
					}
					c.F[op.rd&31] = v
				}
			case otFsd:
				if err := c.traceWrite64(op, c.X[op.rs1&31]+uint64(op.imm), c.F[op.rs2&31]); err != nil {
					return c.traceFault(op, retired, err)
				}
				if c.watchHit || t.gen != c.icGen {
					return c.traceStoreExit(op, retired)
				}
			case otFmaddd:
				c.F[op.rd&31] = math.Float64bits(math.FMA(
					math.Float64frombits(c.F[op.rs1&31]),
					math.Float64frombits(c.F[op.rs2&31]),
					math.Float64frombits(c.F[op.rs3&31])))
			case otFaddd:
				c.F[op.rd&31] = math.Float64bits(
					math.Float64frombits(c.F[op.rs1&31]) + math.Float64frombits(c.F[op.rs2&31]))
			case otFmuld:
				c.F[op.rd&31] = math.Float64bits(
					math.Float64frombits(c.F[op.rs1&31]) * math.Float64frombits(c.F[op.rs2&31]))
			case otConstPair:
				c.X[op.rd&31] = op.aux
				c.X[op.rs3&31] = op.aux2
			case otSlliAdd:
				v := c.X[op.rs1&31] << uint(op.imm)
				c.X[op.rd&31] = v
				// Read the other operand after committing the shift, exactly
				// like fnFuseSlliAdd (it may be the shifted register).
				c.X[op.rs3&31] = v + c.X[op.rs2&31]
			case otMulAdd:
				v := c.X[op.rs1&31] * c.X[op.rs2&31]
				c.X[op.rd&31] = v
				// rs4 is read after the mul commits (it may be rd).
				c.X[op.rs3&31] = v + c.X[op.rs4&31]
			case otSlliAddLd:
				v := c.X[op.rs1&31] << uint(op.aux)
				c.X[op.rd&31] = v
				u := v + c.X[op.rs2&31]
				c.X[op.rs3&31] = u
				a := u + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.X[op.rs4&31] = uint64(p[o]) | uint64(p[o+1])<<8 | uint64(p[o+2])<<16 | uint64(p[o+3])<<24 |
						uint64(p[o+4])<<32 | uint64(p[o+5])<<40 | uint64(p[o+6])<<48 | uint64(p[o+7])<<56
				} else {
					val, err := c.traceRead64(op, a)
					if err != nil {
						return c.traceFault(op, retired, err)
					}
					c.X[op.rs4&31] = val
				}
			case otSlliAddFld:
				v := c.X[op.rs1&31] << uint(op.aux)
				c.X[op.rd&31] = v
				u := v + c.X[op.rs2&31]
				c.X[op.rs3&31] = u
				a := u + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.F[op.rs4&31] = uint64(p[o]) | uint64(p[o+1])<<8 | uint64(p[o+2])<<16 | uint64(p[o+3])<<24 |
						uint64(p[o+4])<<32 | uint64(p[o+5])<<40 | uint64(p[o+6])<<48 | uint64(p[o+7])<<56
				} else {
					val, err := c.traceRead64(op, a)
					if err != nil {
						return c.traceFault(op, retired, err)
					}
					c.F[op.rs4&31] = val
				}
			case otAddiJal:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
				if op.rs3 != 0 {
					c.X[op.rs3&31] = op.aux2
				}
			case otAddiBr:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
				if taken := c.evalBranch(op.mn, c.X[op.rs3&31], c.X[op.rs4&31]); taken != op.predTaken {
					c.traceSideExits++
					return c.traceBranchExit(op, retired, taken)
				}
			case otBr:
				if taken := c.evalBranch(op.mn, c.X[op.rs1&31], c.X[op.rs2&31]); taken != op.predTaken {
					c.traceSideExits++
					return c.traceBranchExit(op, retired, taken)
				}
			case otBrEnd:
				taken := c.evalBranch(op.mn, c.X[op.rs1&31], c.X[op.rs2&31])
				return c.traceBranchExit(op, retired, taken)
			case otCmpBr:
				if taken := c.traceCmpEval(op.b); taken != op.predTaken {
					c.traceSideExits++
					return c.traceBranchExit(op, retired, taken)
				}
			case otCmpBrEnd:
				taken := c.traceCmpEval(op.b)
				return c.traceBranchExit(op, retired, taken)
			case otJal:
				if op.rd != 0 {
					c.X[op.rd&31] = op.aux2
				}
			case otAuipcJalr:
				b := op.b
				c.setX(b.cmp.Rd, b.termAux)
				c.setX(b.term.Rd, b.fallPC)
			case otJalrEnd:
				target := (c.X[op.rs1&31] + uint64(op.imm)) &^ 1
				if op.rd != 0 {
					c.X[op.rd&31] = op.aux2
				}
				c.PC = target
				c.Cycles += op.cumC + op.cost1
				c.Instret += op.cumN + 1
				return retired + op.cumN + 1, stopNone
			case otJT:
				target, err := c.dbiJT(&op.b.term)
				if err != nil {
					return c.traceJTFault(op, retired, err)
				}
				if target != op.aux {
					c.traceSideExits++
					c.traceJTExits++
					return c.traceJTExit(op, retired, target)
				}
				c.traceJTHits++
			case otJTEnd:
				target, err := c.dbiJT(&op.b.term)
				if err != nil {
					return c.traceJTFault(op, retired, err)
				}
				return c.traceJTExit(op, retired, target)
			}
		}
		// Full pass completed.
		c.Cycles += t.passC
		c.Instret += t.passN
		retired += t.passN
		c.tracePasses++
		if !t.loop {
			c.PC = t.endPC
			return retired, stopNone
		}
		// Next pass only if the same gates the dispatcher checks still hold;
		// otherwise exit at the pass boundary (a block boundary, so the
		// per-instruction path resumes at the identical state).
		if limited && budget-retired < t.passN {
			c.PC = t.entry
			return retired, stopNone
		}
		if c.SamplePeriod != 0 && c.SampleClock()+t.maxCost >= c.sampleNext {
			c.PC = t.entry
			return retired, stopNone
		}
	}
}

// traceFault applies the partial-fault protocol: the faulting constituent
// has not retired, the PC points at it, and the committed prefix — prior
// ops (cumC/cumN), a superop's committed head (preC/preN), and a retired
// first constituent of a fused pair — is charged, bit-identical to
// runBlock's fault exit.
func (c *CPU) traceFault(op *traceOp, retired uint64, err error) (uint64, StopReason) {
	bi := op.bi
	fi, k := &bi.inst, uint64(0)
	if bi.n == 2 && c.fuseStage == 1 {
		fi, k = &bi.inst2, 1
	}
	c.PC = fi.Addr
	c.Cycles += op.cumC + op.preC + k*bi.cost1
	c.Instret += op.cumN + uint64(op.preN) + k
	c.lastTrap = &Trap{PC: c.PC, Why: "execute " + fi.String(), Wrap: err}
	return retired + op.cumN + uint64(op.preN) + k, StopTrap
}

// traceStoreExit leaves the trace after a committed store that either hit a
// watchpoint or invalidated cached code (possibly this very trace): the
// prefix including the store retires and the PC points past it — runBlock's
// protocol for both cases.
func (c *CPU) traceStoreExit(op *traceOp, retired uint64) (uint64, StopReason) {
	c.PC = op.next
	c.Cycles += op.cumC + op.cost
	c.Instret += op.cumN + uint64(op.n)
	retired += op.cumN + uint64(op.n)
	if c.watchHit {
		c.watchHit = false
		return retired, StopCodeWrite
	}
	c.traceSevers++
	return retired, stopNone
}

// traceBranchExit leaves the trace through a conditional branch, charging
// the actual (not predicted) branch cost and setting the actual target.
// For otAddiBr superops cost1 already covers the committed addi.
func (c *CPU) traceBranchExit(op *traceOp, retired uint64, taken bool) (uint64, StopReason) {
	cost := op.cost1
	if taken {
		cost += c.Model.BranchTakenPenalty
		c.PC = op.aux
	} else {
		c.PC = op.aux2
	}
	c.Cycles += op.cumC + cost
	c.Instret += op.cumN + uint64(op.n)
	return retired + op.cumN + uint64(op.n), stopNone
}

// traceJTExit leaves the trace through a retired dbi.jt (delta applied,
// IBL hit counted) whose target is not the trace's continuation.
func (c *CPU) traceJTExit(op *traceOp, retired, target uint64) (uint64, StopReason) {
	c.PC = target
	c.Cycles += op.cumC + op.cost
	c.Instret += op.cumN + 1
	return retired + op.cumN + 1, stopNone
}

// traceJTFault handles a dbi.jt that cannot retire (no DBIComp, or an
// unallocated delta): the committed prefix is charged, the dbi.jt stays
// unretired with the PC at it, and the trap is the one every other tier
// reports.
func (c *CPU) traceJTFault(op *traceOp, retired uint64, err error) (uint64, StopReason) {
	c.PC = op.b.term.Addr
	c.Cycles += op.cumC
	c.Instret += op.cumN
	c.lastTrap = &Trap{PC: c.PC, Why: "execute " + op.b.term.String(), Wrap: err}
	return retired + op.cumN, StopTrap
}

// traceCmpEval executes the fused compare+branch of b (compare committed to
// its destination, branch condition evaluated) and reports the taken
// direction — the same sequence as runBlock's tkCmpBranch case.
func (c *CPU) traceCmpEval(b *block) bool {
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
	return taken
}

// Trace memory helpers: one-entry per-op page caches. The hit path (tag
// compare + in-page access) is inlined in runTrace; these outlined helpers
// handle misses — refilling through the ordinary TLB path so translation
// stats stay attributed, caching the page, which can never go stale because
// mapped pages are immortal — and accesses that straddle a page, which fall
// back to the generic accessors.

func (c *CPU) traceRead64(op *traceOp, a uint64) (uint64, error) {
	if a&pageMask <= pageSize-8 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.readPage(a)
			if p == nil {
				return 0, &MemFault{Addr: a}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		return uint64(p[o]) | uint64(p[o+1])<<8 | uint64(p[o+2])<<16 | uint64(p[o+3])<<24 |
			uint64(p[o+4])<<32 | uint64(p[o+5])<<40 | uint64(p[o+6])<<48 | uint64(p[o+7])<<56, nil
	}
	return c.Mem.Read64(a)
}

func (c *CPU) traceRead32(op *traceOp, a uint64) (uint32, error) {
	if a&pageMask <= pageSize-4 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.readPage(a)
			if p == nil {
				return 0, &MemFault{Addr: a}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24, nil
	}
	return c.Mem.Read32(a)
}

func (c *CPU) traceWrite64(op *traceOp, a, v uint64) error {
	if a&pageMask <= pageSize-8 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.writePage(a)
			if p == nil {
				return &MemFault{Addr: a, Write: true}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		for i := uint64(0); i < 8; i++ {
			p[o+i] = byte(v >> (8 * i))
		}
		return c.storeCheck(a, 8, nil)
	}
	return c.storeCheck(a, 8, c.Mem.Write64(a, v))
}

func (c *CPU) traceWrite32(op *traceOp, a uint64, v uint32) error {
	if a&pageMask <= pageSize-4 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.writePage(a)
			if p == nil {
				return &MemFault{Addr: a, Write: true}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		p[o], p[o+1], p[o+2], p[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return c.storeCheck(a, 4, nil)
	}
	return c.storeCheck(a, 4, c.Mem.Write32(a, v))
}
