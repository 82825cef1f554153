package dbi

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/oracle"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// pinnedClock mirrors the oracle's fixed virtual time, so native and DBI
// runs see identical clock_gettime results.
const pinnedClock = 1_000_000_007

// pinnedCounter replaces cycle/instret CSR reads in both runs. Counter
// virtualization makes the real counters native-identical under DBI too
// (pinned separately by TestDBICounterVirtualization and the equivalence
// matrix); the generated band keeps the pin so it also passes with
// virtualization off.
const pinnedCounter = 777_777_777

const runBudget = 1 << 26

// observeDBI runs f to completion under the DBI engine with the identity
// snippet probed at every given address, capturing the same observables as
// oracle.Observe: exit code, stdout, syscall trace, and the final hash of
// the original binary's writable sections.
func observeDBI(t *testing.T, f *elfrv.File, probeAddrs []uint64, reg *obs.Registry) *oracle.Observation {
	t.Helper()
	return observeRun(t, f, probeAddrs, reg, true)
}

// observeNative is the matching baseline: the same launch, hooks, and
// observables, but no engine attached.
func observeNative(t *testing.T, f *elfrv.File) *oracle.Observation {
	t.Helper()
	return observeRun(t, f, nil, nil, false)
}

func observeRun(t *testing.T, f *elfrv.File, probeAddrs []uint64, reg *obs.Registry, useDBI bool) *oracle.Observation {
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
	cpu.CounterFn = func(uint16) uint64 { return pinnedCounter }
	cpu.SyscallTrace = func(num, a0, a1, a2, ret uint64) {
		o.Trace = append(o.Trace, oracle.SyscallRecord{Num: num, A0: a0, A1: a1, A2: a2, Ret: ret})
	}
	var ev proc.Event
	if useDBI {
		var m Metrics
		if reg != nil {
			m = NewMetrics(reg)
		}
		e, err := Attach(p, f, Options{Obs: m})
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		for _, a := range probeAddrs {
			if err := e.ProbeAt(a, snippet.Empty()); err != nil {
				t.Fatalf("probe at %#x: %v", a, err)
			}
		}
		if ev, err = e.ContinueBudget(runBudget); err != nil {
			t.Fatalf("dbi run: %v", err)
		}
	} else if ev, err = p.ContinueBudget(runBudget); err != nil {
		t.Fatalf("native run: %v", err)
	}
	sealObs(t, f, p, ev, o, &out)
	return o
}

// sealObs checks the run exited and completes o from the final state.
func sealObs(t *testing.T, f *elfrv.File, p *proc.Process, ev proc.Event, o *oracle.Observation, out *bytes.Buffer) {
	t.Helper()
	if ev.Kind != proc.EventExit {
		t.Fatalf("run stopped with %v (addr=%#x, err=%v, pc=%#x)", ev.Kind, ev.Addr, ev.Err, p.PC())
	}
	cpu := p.CPU()
	h := sha256.New()
	for _, s := range oracle.WritableSections(f) {
		b, err := cpu.ReadMem(s.Addr, int(s.Size()))
		if err != nil {
			t.Fatalf("hashing %s: %v", s.Name, err)
		}
		h.Write(b)
	}
	copy(o.MemHash[:], h.Sum(nil))
	o.ExitCode = p.ExitCode()
	o.Stdout = out.Bytes()
	o.Steps = cpu.Instret
}

func compareObs(t *testing.T, name string, native, dbi *oracle.Observation) {
	t.Helper()
	if native.ExitCode != dbi.ExitCode {
		t.Errorf("%s: exit code diverged: native %d, dbi %d", name, native.ExitCode, dbi.ExitCode)
	}
	if !bytes.Equal(native.Stdout, dbi.Stdout) {
		t.Errorf("%s: stdout diverged: native %q, dbi %q", name, native.Stdout, dbi.Stdout)
	}
	if len(native.Trace) != len(dbi.Trace) {
		t.Fatalf("%s: syscall trace length diverged: native %d, dbi %d", name, len(native.Trace), len(dbi.Trace))
	}
	for i := range native.Trace {
		if native.Trace[i] != dbi.Trace[i] {
			t.Errorf("%s: syscall %d diverged: native %+v, dbi %+v", name, i, native.Trace[i], dbi.Trace[i])
		}
	}
	if native.MemHash != dbi.MemHash {
		t.Errorf("%s: final memory hash diverged", name)
	}
}

// TestDBIWorkloadEquivalence lockstep-verifies the DBI engine against the
// native run on the full workload suite: with the identity snippet probed at
// every instrumentable function entry, every observable — exit code, stdout,
// syscall trace (arguments and returns), final writable memory — must be
// bit-identical. The static rewriter passes the same bar (CheckEquivalence),
// closing the native/static/DBI triangle.
func TestDBIWorkloadEquivalence(t *testing.T) {
	for _, prog := range workload.Programs() {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			f, err := asm.Assemble(prog.Source, asm.Options{})
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			native := observeNative(t, f)
			var addrs []uint64
			for _, fn := range prog.Funcs {
				sym, ok := f.Symbol(fn)
				if !ok {
					t.Fatalf("no symbol %s", fn)
				}
				addrs = append(addrs, sym.Value)
			}
			reg := obs.NewRegistry()
			dbiObs := observeDBI(t, f, addrs, reg)
			compareObs(t, prog.Name, native, dbiObs)
			if native.ExitCode != prog.ExitCode {
				t.Errorf("native exit %d, workload expects %d", native.ExitCode, prog.ExitCode)
			}
			if n := reg.Counter("emu.dbi.translations").Load(); n == 0 {
				t.Error("no translations recorded — the run did not go through the cache")
			}

			// Static rewriter over the same functions stays equivalent too.
			if _, err := oracle.CheckEquivalence(f, prog.Funcs, codegen.ModeDeadRegister); err != nil {
				t.Errorf("static equivalence: %v", err)
			}
		})
	}
}

// TestDBIGeneratedPrograms runs the oracle's constrained program generator
// band through the same native-vs-DBI lockstep comparison.
func TestDBIGeneratedPrograms(t *testing.T) {
	n := 10
	steps := 140
	if testing.Short() {
		n, steps = 3, 80
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			f, err := oracle.BuildProgram(seed, steps)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			native := observeNative(t, f)
			dbiObs := observeDBI(t, f, []uint64{f.Entry}, nil)
			compareObs(t, fmt.Sprintf("seed%d", seed), native, dbiObs)
		})
	}
}

// TestDBISelfModifyingCode is the structural-capability test: the SMC
// workload rewrites its own loop body mid-run. Natively and under DBI it
// exits with SMCExpected (translation invalidation retranslates the patched
// bytes); the statically rewritten copy cannot see the store and exits with
// SMCStaticResult.
func TestDBISelfModifyingCode(t *testing.T) {
	f, err := asm.Assemble(workload.SMCSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	native := observeNative(t, f)
	if native.ExitCode != workload.SMCExpected {
		t.Fatalf("native exit %d, want %d", native.ExitCode, workload.SMCExpected)
	}

	sym, ok := f.Symbol("smcloop")
	if !ok {
		t.Fatal("no smcloop symbol")
	}
	reg := obs.NewRegistry()
	dbiObs := observeDBI(t, f, []uint64{sym.Value}, reg)
	compareObs(t, "smc", native, dbiObs)
	if dbiObs.ExitCode != workload.SMCExpected {
		t.Errorf("dbi exit %d, want %d", dbiObs.ExitCode, workload.SMCExpected)
	}
	if inv := reg.Counter("emu.dbi.invalidations").Load(); inv == 0 {
		t.Error("no translation invalidations — the SMC store was not detected")
	}

	// The static rewriter relocates smcloop, the store patches the original
	// bytes, and the instrumented run keeps adding 1: the structural
	// limitation DBI exists to remove.
	bin, err := core.FromFile(f)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	m := bin.NewMutator(codegen.ModeDeadRegister)
	fn, err := bin.FindFunction("smcloop")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AtFuncEntry(fn, snippet.Empty()); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	rewritten, err := m.Rewrite()
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	static, err := oracle.Observe(rewritten, oracle.WritableSections(f), 0)
	if err != nil {
		t.Fatalf("static run: %v", err)
	}
	if static.ExitCode != workload.SMCStaticResult {
		t.Errorf("static exit %d, want %d (the known-broken static result)", static.ExitCode, workload.SMCStaticResult)
	}
	if static.ExitCode == workload.SMCExpected {
		t.Error("static rewriting handled SMC — the workload no longer demonstrates the limitation")
	}
}

// TestDBICountingProbe attaches a real (non-identity) Increment snippet at
// fib's entry and checks the counted calls against the known call count of
// fib(12) — 465 invocations — while the exit code stays untouched.
func TestDBICountingProbe(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Attach(p, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := e.NewVar("fib_calls", 8)
	sym, _ := f.Symbol("fib")
	if err := e.ProbeAt(sym.Value, snippet.Increment(v)); err != nil {
		t.Fatalf("probe: %v", err)
	}
	ev, err := e.ContinueBudget(runBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("exit = %+v, want %d", ev, workload.FibExpected)
	}
	calls, err := e.ReadVar(v)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 465 {
		t.Errorf("fib entry probe counted %d calls, want 465", calls)
	}
}

// TestDBIManyVars allocates far more instrumentation variables than the
// region between the code cache and the inline-lookup table holds. The
// first region-full of variables keeps its addresses; the rest continue
// past the lookup table, so no variable aliases a table entry, the cache or
// another variable. Counting probes on a spread of them (both sides of the
// table included) at fib's entry must each count fib's 465 calls, leave the
// unprobed ones zero, and leave the lookup's hit count untouched.
func TestDBIManyVars(t *testing.T) {
	const nVars = 20_000
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := Attach(p, f, Options{Obs: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	sym, _ := f.Symbol("fib")
	vars := make([]*snippet.Var, nVars)
	probed := func(i int) bool { return i%16 == 0 || i == varRegionSize/8-1 || i == nVars-1 }
	for i := range vars {
		v := e.NewVar("v", 8)
		vars[i] = v
		switch {
		case i < varRegionSize/8 && v.Addr != e.varBase+8*uint64(i):
			t.Fatalf("var %d at %#x, want %#x", i, v.Addr, e.varBase+8*uint64(i))
		case i > 0 && v.Addr < vars[i-1].Addr+8:
			t.Fatalf("var %d at %#x overlaps var %d at %#x", i, v.Addr, i-1, vars[i-1].Addr)
		case v.Addr < e.iblBase+iblRegionSize && v.Addr+8 > e.iblBase:
			t.Fatalf("var %d at %#x inside the lookup table [%#x, %#x)", i, v.Addr, e.iblBase, e.iblBase+iblRegionSize)
		case v.Addr < e.cacheEnd:
			t.Fatalf("var %d at %#x below the cache end %#x", i, v.Addr, e.cacheEnd)
		}
		if probed(i) {
			if err := e.ProbeAt(sym.Value, snippet.Increment(v)); err != nil {
				t.Fatalf("probe var %d: %v", i, err)
			}
		}
	}
	ev, err := e.ContinueBudget(runBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("exit = %+v, want %d", ev, workload.FibExpected)
	}
	for i, v := range vars {
		n, err := e.ReadVar(v)
		if err != nil {
			t.Fatalf("var %d: %v", i, err)
		}
		want := uint64(0)
		if probed(i) {
			want = 465
		}
		if n != want {
			t.Fatalf("var %d at %#x = %d, want %d", i, v.Addr, n, want)
		}
	}
	if hits, misses := reg.Counter("emu.dbi.ibl.hits").Load(), reg.Counter("emu.dbi.ibl.misses").Load(); hits != 462 || misses != 3 {
		t.Errorf("ibl.hits=%d misses=%d, want fib's 462 and 3", hits, misses)
	}
}

// TestDBIAttachDetach exercises the attach-mid-run and detach-mid-run
// lifecycle static rewriting cannot express: run natively for a while,
// attach and instrument, run translated, detach, and finish natively — with
// the correct final exit code and a probe count covering only the attached
// window.
func TestDBIAttachDetach(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	// Run a slice natively before the engine exists.
	ev, err := p.ContinueBudget(200)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventBudget {
		t.Fatalf("native slice ended with %+v", ev)
	}

	e, err := Attach(p, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := e.NewVar("calls", 8)
	sym, _ := f.Symbol("fib")
	if err := e.ProbeAt(sym.Value, snippet.Increment(v)); err != nil {
		t.Fatal(err)
	}
	// Translated slice, then detach mid-run.
	ev, err = e.ContinueBudget(3000)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventBudget {
		t.Fatalf("dbi slice ended with %+v", ev)
	}
	if err := e.Detach(); err != nil {
		t.Fatalf("detach: %v", err)
	}
	pc := p.PC()
	if base := e.cacheBase; pc >= base && pc < e.cacheEnd {
		t.Fatalf("detach left pc %#x inside the cache", pc)
	}
	// Read the count after detach settles: the budget stop may park the PC
	// mid-splice, and detach's realignment legitimately completes that
	// in-flight firing — it belongs to the attached window.
	during, err := e.ReadVar(v)
	if err != nil {
		t.Fatal(err)
	}
	if during == 0 {
		t.Error("probe never fired during the attached window")
	}

	// Finish natively; the result must be unaffected by the round trip.
	ev, err = p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("final exit = %+v, want %d", ev, workload.FibExpected)
	}
	after, err := e.ReadVar(v)
	if err != nil {
		t.Fatal(err)
	}
	if after != during {
		t.Errorf("probe fired after detach: %d -> %d", during, after)
	}
}

// TestDBICounters sanity-checks the emu.dbi.* counter wiring on a loopy
// workload: translations and chain patches happen, and chained loops mean
// exits are far rarer than retired instructions.
func TestDBICounters(t *testing.T) {
	f, err := asm.Assemble(workload.MatmulSource(8, 2), asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	reg := obs.NewRegistry()
	o := observeDBI(t, f, nil, reg)
	if o.ExitCode != 0 {
		t.Fatalf("exit %d", o.ExitCode)
	}
	tr := reg.Counter("emu.dbi.translations").Load()
	cp := reg.Counter("emu.dbi.chain.patches").Load()
	ind := reg.Counter("emu.dbi.indirect_exits").Load()
	if tr == 0 || cp == 0 || ind == 0 {
		t.Errorf("counters flat: translations=%d chain.patches=%d indirect_exits=%d", tr, cp, ind)
	}
	// Chained direct edges never exit: total engine round trips (chain hits
	// + patches + indirect exits) must be far below retired instructions.
	round := reg.Counter("emu.dbi.chain.hits").Load() + cp + ind
	if round*10 > o.Steps {
		t.Errorf("engine round trips %d vs %d retired insts — chaining is not holding", round, o.Steps)
	}
}

// TestSMCNativeSmoke pins the SMC workload's native behaviour (the baseline
// the DBI test compares against).
func TestSMCNativeSmoke(t *testing.T) {
	f, err := asm.Assemble(workload.SMCSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Run(1_000_000); r != emu.StopExit {
		t.Fatalf("stop %v trap %v pc=%#x", r, c.LastTrap(), c.PC)
	}
	if c.ExitCode != workload.SMCExpected {
		t.Fatalf("exit %d want %d", c.ExitCode, workload.SMCExpected)
	}
}
