package dbi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/core"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/oracle"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// probeMode is one row of the equivalence matrix's probe dimension.
type probeMode int

const (
	probeNone probeMode = iota
	probeEntries
	probeInstPoints // a point on a mid-block instruction of each function
	probeRemovedMid // entry probes attached, then removed mid-run
)

func (m probeMode) String() string {
	switch m {
	case probeNone:
		return "noprobe"
	case probeEntries:
		return "entry"
	case probeInstPoints:
		return "instpoint"
	case probeRemovedMid:
		return "removed"
	}
	return "?"
}

// instPoints returns one mid-function instruction address per named
// function: the first decoded instruction that is not the entry itself —
// never the point the entry-probe mode uses.
func instPoints(t *testing.T, f *elfrv.File, funcs []string) []uint64 {
	t.Helper()
	bin, err := core.FromFile(f)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var out []uint64
	for _, name := range funcs {
		fn, err := bin.FindFunction(name)
		if err != nil {
			t.Fatalf("find %s: %v", name, err)
		}
		found := false
		for _, b := range fn.Blocks {
			for _, in := range b.Insts {
				if in.Addr != fn.Entry {
					out = append(out, in.Addr)
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatalf("%s has no instruction beyond its entry", name)
		}
	}
	return out
}

// observeMatrix runs f under one matrix cell and captures the oracle
// observables. Counter reads are NOT pinned: with virtualization on they
// must be native-transparent, and none of the suite workloads read them
// anyway — the cell with NoCounterVirt documents exactly that.
func observeMatrix(t *testing.T, f *elfrv.File, addrs []uint64, mode probeMode, noVirt bool) *oracle.Observation {
	t.Helper()
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	cpu := p.CPU()
	var out bytes.Buffer
	o := &oracle.Observation{}
	cpu.Stdout = &out
	cpu.TimeFn = func() uint64 { return pinnedClock }
	cpu.SyscallTrace = func(num, a0, a1, a2, ret uint64) {
		o.Trace = append(o.Trace, oracle.SyscallRecord{Num: num, A0: a0, A1: a1, A2: a2, Ret: ret})
	}
	var ev proc.Event
	if mode == probeNone && noVirt {
		// The native baseline cell.
		if ev, err = p.ContinueBudget(runBudget); err != nil {
			t.Fatalf("native run: %v", err)
		}
	} else {
		e, err := Attach(p, f, Options{NoCounterVirt: noVirt})
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		for _, a := range addrs {
			if err := e.ProbeAt(a, snippet.Empty()); err != nil {
				t.Fatalf("probe at %#x: %v", a, err)
			}
		}
		if mode == probeRemovedMid {
			// Run a slice so the probes fire inside live translations, then
			// patch them out and finish. Removal can race the PC sitting
			// inside a splice; nudge forward and retry.
			if ev, err = e.ContinueBudget(500); err != nil {
				t.Fatalf("pre-removal slice: %v", err)
			}
			for _, a := range addrs {
				for ev.Kind == proc.EventBudget {
					if err = e.RemoveProbeAt(a); err == nil {
						break
					}
					if !strings.Contains(err.Error(), "is executing") {
						t.Fatalf("remove at %#x: %v", a, err)
					}
					if ev, err = e.ContinueBudget(50); err != nil {
						t.Fatalf("removal nudge: %v", err)
					}
				}
			}
		}
		if ev.Kind != proc.EventExit {
			if ev, err = e.ContinueBudget(runBudget); err != nil {
				t.Fatalf("dbi run: %v", err)
			}
		}
	}
	sealObs(t, f, p, ev, o, &out)
	return o
}

// pressureCache is a code cache smaller than every workload's translated
// working set with entry probes (the smallest, tailcall's, is 368 bytes)
// yet larger than any single translation (at most 134 bytes), so the
// engine flushes the whole cache again and again.
const pressureCache = 256

// pressureStats counts flushes by the situation the engine was in: with
// chained stubs live, resuming from a budget stop parked inside the cache,
// and in a session re-attached after a detach.
type pressureStats struct {
	flushes, chained, parked, reattached uint64
}

// observePressure runs f under the engine with a pressureCache-byte code
// cache and probes at addrs, in short budget slices so stops park inside
// the cache between flushes. After the first flush it detaches, runs a
// native slice, and re-attaches with the same cache and probes. It returns
// the observation, the compensated instret and cycle counts, and which
// situations the flushes hit.
func observePressure(t *testing.T, f *elfrv.File, addrs []uint64, noVirt bool) (o *oracle.Observation, instret, cycles uint64, st pressureStats) {
	t.Helper()
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	cpu := p.CPU()
	var out bytes.Buffer
	o = &oracle.Observation{}
	cpu.Stdout = &out
	cpu.TimeFn = func() uint64 { return pinnedClock }
	cpu.SyscallTrace = func(num, a0, a1, a2, ret uint64) {
		o.Trace = append(o.Trace, oracle.SyscallRecord{Num: num, A0: a0, A1: a1, A2: a2, Ret: ret})
	}
	reg := obs.NewRegistry()
	flushes := reg.Counter("emu.dbi.flushes")
	attach := func() *Engine {
		e, err := Attach(p, f, Options{CacheSize: pressureCache, NoCounterVirt: noVirt, Obs: NewMetrics(reg)})
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		for _, a := range addrs {
			if err := e.ProbeAt(a, snippet.Empty()); err != nil {
				t.Fatalf("probe at %#x: %v", a, err)
			}
		}
		return e
	}
	e := attach()
	reattached := false
	ev := proc.Event{Kind: proc.EventBudget}
	for ev.Kind == proc.EventBudget {
		chained := false
		for _, s := range e.exits {
			chained = chained || s.chained
		}
		lo, hi := e.CacheRange()
		parked := p.PC() >= lo && p.PC() < hi
		before := flushes.Load()
		if ev, err = e.ContinueBudget(7); err != nil {
			t.Fatalf("dbi slice: %v", err)
		}
		if n := flushes.Load() - before; n > 0 {
			if chained {
				st.chained += n
			}
			if parked {
				st.parked += n
			}
			if reattached {
				st.reattached += n
			}
		}
		if ev.Kind == proc.EventBudget && !reattached && flushes.Load() > 0 {
			if err := e.Detach(); err != nil {
				t.Fatalf("detach: %v", err)
			}
			if ev, err = p.ContinueBudget(3); err != nil {
				t.Fatalf("native slice: %v", err)
			}
			if ev.Kind == proc.EventBudget {
				reattached = true
				e = attach()
			}
		}
	}
	sealObs(t, f, p, ev, o, &out)
	st.flushes = flushes.Load()
	comp := e.Comp()
	return o, uint64(int64(cpu.Instret) - comp.ExtraInstret), uint64(int64(cpu.Cycles) - comp.ExtraCycles), st
}

// TestDBIEquivalenceMatrix sweeps {every workload} × {no probes, entry
// probes, instruction points, probe-removed-mid-run} × {counter
// virtualization on, off} and requires every cell's observables — exit
// code, stdout, syscall trace, final writable memory — to match the native
// run bit-for-bit. A cache-pressure row (observePressure) adds the
// compensated instret and cycle counts to that bar and requires the
// engine to have flushed.
func TestDBIEquivalenceMatrix(t *testing.T) {
	var pressure pressureStats
	for _, prog := range workload.Programs() {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			f, err := asm.Assemble(prog.Source, asm.Options{})
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			native := observeNative(t, f)
			if native.ExitCode != prog.ExitCode {
				t.Fatalf("native exit %d, workload expects %d", native.ExitCode, prog.ExitCode)
			}
			var entries []uint64
			for _, fn := range prog.Funcs {
				sym, ok := f.Symbol(fn)
				if !ok {
					t.Fatalf("no symbol %s", fn)
				}
				entries = append(entries, sym.Value)
			}
			points := instPoints(t, f, prog.Funcs)
			for _, mode := range []probeMode{probeNone, probeEntries, probeInstPoints, probeRemovedMid} {
				addrs := entries
				if mode == probeNone {
					addrs = nil
				} else if mode == probeInstPoints {
					addrs = points
				}
				for _, noVirt := range []bool{false, true} {
					name := fmt.Sprintf("%s/virt=%v", mode, !noVirt)
					got := observeMatrix(t, f, addrs, mode, noVirt)
					compareObs(t, name, native, got)
				}
			}
			// Cache pressure: entry probes under a cache that keeps flushing.
			pn, err := proc.Launch(f, emu.P550())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pn.Continue(); err != nil {
				t.Fatal(err)
			}
			for _, noVirt := range []bool{false, true} {
				name := fmt.Sprintf("flush/virt=%v", !noVirt)
				got, dI, dC, st := observePressure(t, f, entries, noVirt)
				compareObs(t, name, native, got)
				if dI != pn.CPU().Instret || dC != pn.CPU().Cycles {
					t.Errorf("%s: compensated counters %d/%d, native %d/%d", name, dI, dC, pn.CPU().Instret, pn.CPU().Cycles)
				}
				if st.flushes == 0 {
					t.Errorf("%s: no cache flush", name)
				}
				t.Logf("%s: %+v", name, st)
				pressure.chained += st.chained
				pressure.parked += st.parked
				pressure.reattached += st.reattached
			}
		})
	}
	if pressure.chained == 0 || pressure.parked == 0 || pressure.reattached == 0 {
		t.Errorf("cache-pressure cells missed a situation: %+v", pressure)
	}
}
