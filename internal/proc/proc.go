// Package proc is the ProcControlAPI analog (paper Section 3.2.6): an
// OS-independent debugger interface over running processes — create or
// attach, read and write memory and registers, insert breakpoints, continue,
// and single-step.
//
// On Linux/RISC-V the paper found ptrace's single-step unimplemented,
// forcing ProcControlAPI to emulate stepping with breakpoints; this
// implementation is faithful to that design: Step plants temporary
// breakpoints on every possible successor of the current instruction and
// resumes, rather than asking the "hardware" (the emulator) to step. The
// substrate underneath is the emu package instead of ptrace + /proc, a
// substitution recorded in DESIGN.md.
package proc

import (
	"fmt"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/riscv"
)

// Metrics holds the process-control counters. The zero value (nil handles)
// disables collection; it is embedded by value so a Process never branches
// on enablement — nil counters discard increments.
type Metrics struct {
	// BreakpointHits counts breakpoint notifications (permanent breakpoints
	// reaching notify, whether or not a callback resumed execution).
	BreakpointHits *obs.Counter
	// SingleSteps counts software single-steps — each one is a plant/restore
	// patch cycle, the overhead the paper's Section 3.2.6 calls out.
	SingleSteps *obs.Counter
}

// NewMetrics resolves the proc counters in r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		BreakpointHits: r.Counter("proc.breakpoint_hits"),
		SingleSteps:    r.Counter("proc.single_steps"),
	}
}

// EventKind says why the process stopped.
type EventKind int

const (
	EventBreakpoint EventKind = iota
	EventExit
	EventTrap
	EventBudget    // instruction budget exhausted (emulation artifact)
	EventCodeWrite // the process stored into the armed code-watch range
)

func (k EventKind) String() string {
	switch k {
	case EventBreakpoint:
		return "breakpoint"
	case EventExit:
		return "exit"
	case EventTrap:
		return "trap"
	case EventBudget:
		return "budget"
	case EventCodeWrite:
		return "code-write"
	}
	return "?"
}

// Event is one stop notification.
type Event struct {
	Kind     EventKind
	Addr     uint64 // breakpoint address, or the written address for EventCodeWrite
	Len      uint64 // span of the write for EventCodeWrite
	ExitCode int
	Err      error
}

// Breakpoint is one software breakpoint (an ebreak patched over the
// original encoding, sized to the original instruction).
type Breakpoint struct {
	Addr     uint64
	HitCount uint64
	// Callback, when set, runs on every hit during Continue; returning
	// false reports the stop to the caller instead of auto-resuming.
	Callback func(p *Process, bp *Breakpoint) bool

	orig    []byte // the original bytes the patch replaced
	patch   []byte // the planted ebreak encoding, same length as orig
	enabled bool
	temp    bool
}

// Process is one controlled process.
type Process struct {
	cpu  *emu.CPU
	file *elfrv.File

	bps map[uint64]*Breakpoint

	// Steps counts software single-steps taken (each costs a pair of
	// memory patches — the overhead the paper warns about).
	Steps uint64

	// Obs receives breakpoint-hit and single-step counters; the zero value
	// discards them. Set it with NewMetrics to enable collection.
	Obs Metrics
}

// Launch creates a process from a binary and leaves it stopped at the entry
// point (the first dynamic-instrumentation form of Figure 1).
func Launch(f *elfrv.File, model *emu.CostModel) (*Process, error) {
	cpu, err := emu.New(f, model)
	if err != nil {
		return nil, err
	}
	return &Process{cpu: cpu, file: f, bps: map[uint64]*Breakpoint{}}, nil
}

// Attach wraps an already-running CPU (the second dynamic-instrumentation
// form of Figure 1: attaching to a live process wherever it happens to be).
func Attach(cpu *emu.CPU, f *elfrv.File) *Process {
	return &Process{cpu: cpu, file: f, bps: map[uint64]*Breakpoint{}}
}

// CPU exposes the underlying hart (registers, counters). Tools normally use
// the accessor methods instead.
func (p *Process) CPU() *emu.CPU { return p.cpu }

// PC returns the current program counter.
func (p *Process) PC() uint64 { return p.cpu.PC }

// SetPC redirects execution (used by trap-based instrumentation).
func (p *Process) SetPC(pc uint64) { p.cpu.PC = pc }

// GetReg reads an integer or float register.
func (p *Process) GetReg(r riscv.Reg) uint64 {
	switch {
	case r.IsX():
		return p.cpu.X[r]
	case r.IsF():
		return p.cpu.F[r.Num()]
	case r == riscv.RegPC:
		return p.cpu.PC
	}
	return 0
}

// SetReg writes a register.
func (p *Process) SetReg(r riscv.Reg, v uint64) {
	switch {
	case r.IsX() && r != riscv.X0:
		p.cpu.X[r] = v
	case r.IsF():
		p.cpu.F[r.Num()] = v
	case r == riscv.RegPC:
		p.cpu.PC = v
	}
}

// ReadMem reads process memory, breakpoint-transparently: wherever a live
// breakpoint patch overlaps the read, the saved original bytes are returned
// instead of the planted ebreak — clients that disassemble, checksum, or
// translate code through the debugger never see the patches (the view ptrace
// PEEKTEXT famously does *not* give you).
func (p *Process) ReadMem(addr uint64, n int) ([]byte, error) {
	b, err := p.cpu.ReadMem(addr, n)
	if err != nil {
		return nil, err
	}
	end := addr + uint64(n)
	for _, bp := range p.bps {
		if !bp.enabled {
			continue
		}
		lo, hi := bp.Addr, bp.Addr+uint64(len(bp.orig))
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			copy(b[lo-addr:hi-addr], bp.orig[lo-bp.Addr:hi-bp.Addr])
		}
	}
	return b, nil
}

// WriteMem writes process memory (keeping the target's instruction cache
// coherent, as ptrace pokes do), breakpoint-transparently: client bytes that
// overlap a live breakpoint are merged into the breakpoint's saved original
// bytes — so RemoveBreakpoint restores what the client wrote, not stale
// pre-plant bytes — while the planted ebreak stays live in memory.
func (p *Process) WriteMem(addr uint64, b []byte) error {
	end := addr + uint64(len(b))
	var buf []byte // copy-on-write: never mutate the caller's slice
	for _, bp := range p.bps {
		if !bp.enabled {
			continue
		}
		lo, hi := bp.Addr, bp.Addr+uint64(len(bp.orig))
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if lo >= hi {
			continue
		}
		if buf == nil {
			buf = append([]byte(nil), b...)
		}
		copy(bp.orig[lo-bp.Addr:hi-bp.Addr], b[lo-addr:hi-addr])
		copy(buf[lo-addr:hi-addr], bp.patch[lo-bp.Addr:hi-bp.Addr])
	}
	if buf != nil {
		b = buf
	}
	return p.cpu.WriteMem(addr, b)
}

// MapRegion makes fresh zeroed memory available in the process (the
// equivalent of the mutator mmapping patch space into the mutatee).
func (p *Process) MapRegion(addr, size uint64) {
	p.cpu.Mem.Map(addr, size)
}

// MapCodeRegion is MapRegion for memory the process will execute code from
// (a code cache): the emulator direct-maps its decode and block caches over
// the region, as it does over the image.
func (p *Process) MapCodeRegion(addr, size uint64) {
	p.cpu.MapCode(addr, size)
}

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.cpu.Exited }

// ExitCode returns the exit status after Exited.
func (p *Process) ExitCode() int { return p.cpu.ExitCode }

// InsertBreakpoint plants a breakpoint at addr. The patch is sized to the
// original instruction (2-byte c.ebreak over compressed encodings so the
// following instruction is untouched).
func (p *Process) InsertBreakpoint(addr uint64) (*Breakpoint, error) {
	if bp, ok := p.bps[addr]; ok {
		return bp, nil
	}
	bp, err := p.plant(addr, false)
	if err != nil {
		return nil, err
	}
	p.bps[addr] = bp
	return bp, nil
}

func (p *Process) plant(addr uint64, temp bool) (*Breakpoint, error) {
	// Reject a plant whose patch would overlap a live breakpoint's patch:
	// writing a second ebreak into the middle of (or across) an existing one
	// corrupts both restore paths. Exact-address duplicates are deduped by
	// InsertBreakpoint before plant is reached.
	for _, bp := range p.bps {
		if bp.enabled && addr < bp.Addr+uint64(len(bp.orig)) && addr+2 > bp.Addr {
			return nil, fmt.Errorf("proc: breakpoint at %#x overlaps live breakpoint at %#x", addr, bp.Addr)
		}
	}
	// Reads go through the breakpoint-transparent path so the saved bytes
	// are the program's, never a neighboring patch.
	head, err := p.ReadMem(addr, 2)
	if err != nil {
		return nil, fmt.Errorf("proc: breakpoint at %#x: %w", addr, err)
	}
	size := 2
	if head[0]&3 == 3 {
		size = 4
	}
	// A 4-byte instruction whose second parcel is unmapped (tail of a mapped
	// region) fails here, before any byte is patched.
	orig, err := p.ReadMem(addr, size)
	if err != nil {
		return nil, fmt.Errorf("proc: breakpoint at %#x: %w", addr, err)
	}
	if _, err := riscv.Decode(orig, addr); err != nil {
		return nil, fmt.Errorf("proc: breakpoint at %#x: not an instruction: %w", addr, err)
	}
	if p.midInstruction(addr) {
		return nil, fmt.Errorf("proc: breakpoint at %#x: mid-instruction (second parcel of a 4-byte instruction)", addr)
	}
	var patch []byte
	if size == 2 {
		patch = []byte{0x02, 0x90} // c.ebreak
	} else {
		w := riscv.MustEncode(riscv.Inst{Mn: riscv.MnEBREAK})
		patch = []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	}
	if err := p.cpu.WriteMem(addr, patch); err != nil {
		return nil, err
	}
	return &Breakpoint{Addr: addr, orig: orig, patch: patch, enabled: true, temp: temp}, nil
}

// midInstruction reports whether addr falls strictly inside an instruction
// of the executable image. RISC-V instruction lengths are self-describing
// (low two bits of the first parcel), so a linear sweep from the nearest
// preceding symbol — always an instruction boundary — in the containing
// executable section settles alignment. Addresses outside the image's
// executable sections (runtime-mapped trampolines, JIT regions) are not
// checked: the image carries no boundary information for them.
func (p *Process) midInstruction(addr uint64) bool {
	if p.file == nil {
		return false
	}
	var sec *elfrv.Section
	for _, s := range p.file.Sections {
		if s.Flags&elfrv.SHFAlloc != 0 && s.Flags&elfrv.SHFExecinstr != 0 &&
			addr >= s.Addr && addr < s.Addr+s.Size() {
			sec = s
			break
		}
	}
	if sec == nil {
		return false
	}
	start := sec.Addr
	for _, sym := range p.file.Symbols {
		if sym.Value > start && sym.Value <= addr && sym.Value < sec.Addr+sec.Size() {
			start = sym.Value
		}
	}
	// One breakpoint-masked read of the whole span, then walk parcel lengths.
	span, err := p.ReadMem(start, int(addr-start))
	if err != nil {
		return false // unreadable stream: leave the decision to the decode check
	}
	for off := 0; off < len(span); {
		if span[off]&3 == 3 {
			off += 4
		} else {
			off += 2
		}
		if off > len(span) {
			return true // the instruction at the last boundary covers addr
		}
	}
	return false
}

// RemoveBreakpoint restores the original bytes.
func (p *Process) RemoveBreakpoint(bp *Breakpoint) error {
	if !bp.enabled {
		return nil
	}
	if err := p.cpu.WriteMem(bp.Addr, bp.orig); err != nil {
		return err
	}
	bp.enabled = false
	delete(p.bps, bp.Addr)
	return nil
}

// disable/enable toggle the patch without forgetting the breakpoint.
func (p *Process) disable(bp *Breakpoint) error {
	if !bp.enabled {
		return nil
	}
	bp.enabled = false
	return p.cpu.WriteMem(bp.Addr, bp.orig)
}

func (p *Process) enable(bp *Breakpoint) error {
	if bp.enabled {
		return nil
	}
	nb, err := p.plant(bp.Addr, bp.temp)
	if err != nil {
		return err
	}
	bp.orig = nb.orig
	bp.enabled = true
	return nil
}

// successors computes every address execution can reach after the
// instruction at pc, reading registers for indirect targets. This is the
// core of breakpoint-emulated single-stepping.
func (p *Process) successors(pc uint64) ([]uint64, error) {
	// Breakpoint-masked reads: stepping from a PC near another live
	// breakpoint must decode the original instruction, not the patch.
	raw, err := p.ReadMem(pc, 4)
	if err != nil {
		raw, err = p.ReadMem(pc, 2)
		if err != nil {
			return nil, err
		}
	}
	inst, err := riscv.Decode(raw, pc)
	if err != nil {
		return nil, fmt.Errorf("proc: cannot decode at %#x: %w", pc, err)
	}
	switch inst.Cat() {
	case riscv.CatJAL:
		return []uint64{inst.Addr + uint64(inst.Imm)}, nil
	case riscv.CatJALR:
		tgt := (p.cpu.X[inst.Rs1&31] + uint64(inst.Imm)) &^ 1
		return []uint64{tgt}, nil
	case riscv.CatBranch:
		return []uint64{inst.Next(), inst.Addr + uint64(inst.Imm)}, nil
	}
	return []uint64{inst.Next()}, nil
}

// StepInst executes exactly one instruction using the software single-step
// protocol: temporarily restore the instruction under any breakpoint at PC,
// plant temporary breakpoints at every successor, resume, then undo.
func (p *Process) StepInst() (Event, error) {
	pc := p.cpu.PC
	if p.cpu.Exited {
		return Event{Kind: EventExit, ExitCode: p.cpu.ExitCode}, nil
	}
	under := p.bps[pc]
	if under != nil {
		if err := p.disable(under); err != nil {
			return Event{}, err
		}
	}
	succs, err := p.successors(pc)
	if err != nil {
		if under != nil {
			p.enable(under)
		}
		return Event{}, err
	}
	var temps []*Breakpoint
	cleanup := func() error {
		var first error
		for _, t := range temps {
			if err := p.disable(t); err != nil && first == nil {
				first = err
			}
		}
		if under != nil {
			if err := p.enable(under); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, s := range succs {
		if s == pc {
			continue // self-loop: the permanent breakpoint handles it
		}
		if existing, ok := p.bps[s]; ok && existing.enabled {
			continue // already trapped
		}
		t, err := p.plant(s, true)
		if err != nil {
			// Successor outside mapped memory (e.g. a wild jalr): let the
			// run trap naturally instead.
			continue
		}
		temps = append(temps, t)
	}
	p.Steps++
	p.Obs.SingleSteps.Inc()

	reason := p.cpu.Run(0)
	if err := cleanup(); err != nil {
		return Event{}, err
	}
	switch reason {
	case emu.StopExit:
		return Event{Kind: EventExit, ExitCode: p.cpu.ExitCode}, nil
	case emu.StopBreakpoint:
		return Event{Kind: EventBreakpoint, Addr: p.cpu.PC}, nil
	case emu.StopTrap:
		return Event{Kind: EventTrap, Err: p.cpu.LastTrap()}, nil
	case emu.StopCodeWrite:
		addr, n := p.cpu.CodeWrite()
		return Event{Kind: EventCodeWrite, Addr: addr, Len: n}, nil
	}
	return Event{Kind: EventBudget}, nil
}

// Continue resumes until a non-callback breakpoint, exit, or trap. Hits on
// breakpoints with callbacks invoke the callback, step over the site, and
// keep running while the callback returns true.
func (p *Process) Continue() (Event, error) {
	return p.run(0)
}

// ContinueBudget is Continue with an instruction budget (0 = unlimited).
func (p *Process) ContinueBudget(maxInst uint64) (Event, error) {
	return p.run(maxInst)
}

func (p *Process) run(budget uint64) (Event, error) {
	for {
		if p.cpu.Exited {
			return Event{Kind: EventExit, ExitCode: p.cpu.ExitCode}, nil
		}
		// If stopped on a breakpoint, step over it first.
		if bp, ok := p.bps[p.cpu.PC]; ok && bp.enabled {
			ev, err := p.StepInst()
			if err != nil {
				return Event{}, err
			}
			if ev.Kind != EventBreakpoint {
				return ev, nil
			}
			// Fall through: possibly stopped at another breakpoint.
			if next, ok := p.bps[p.cpu.PC]; ok {
				if !p.notify(next) {
					return Event{Kind: EventBreakpoint, Addr: p.cpu.PC}, nil
				}
				continue
			}
			continue
		}
		reason := p.cpu.Run(budget)
		switch reason {
		case emu.StopExit:
			return Event{Kind: EventExit, ExitCode: p.cpu.ExitCode}, nil
		case emu.StopMaxInst:
			return Event{Kind: EventBudget}, nil
		case emu.StopTrap:
			return Event{Kind: EventTrap, Err: p.cpu.LastTrap()}, nil
		case emu.StopCodeWrite:
			addr, n := p.cpu.CodeWrite()
			return Event{Kind: EventCodeWrite, Addr: addr, Len: n}, nil
		case emu.StopBreakpoint:
			bp, ok := p.bps[p.cpu.PC]
			if !ok {
				// An ebreak we did not plant (e.g. the mutatee's own, or a
				// trap-rung patch): report it.
				return Event{Kind: EventBreakpoint, Addr: p.cpu.PC}, nil
			}
			if !p.notify(bp) {
				return Event{Kind: EventBreakpoint, Addr: p.cpu.PC}, nil
			}
			// Callback consumed the hit: loop resumes via step-over.
		}
	}
}

// notify runs the breakpoint bookkeeping and callback; reports whether
// execution should auto-resume.
func (p *Process) notify(bp *Breakpoint) bool {
	bp.HitCount++
	p.Obs.BreakpointHits.Inc()
	if bp.Callback == nil {
		return false
	}
	return bp.Callback(p, bp)
}
