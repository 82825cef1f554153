package dbi

import (
	"bytes"
	"math/rand"
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

// Negative seeds select fixed stress sources instead of the oracle
// generator: the jalr-dense band (recursion, a jump table, an indirect
// loop reading live counters) and the self-modifying band.
func fuzzProgram(t *testing.T, seed int64) (*elfrv.File, bool) {
	t.Helper()
	var src string
	smc := false
	switch seed {
	case -1:
		src, smc = workload.SMCSource, true
	case -2:
		src = workload.FibSource
	case -3:
		src = workload.JumpTableSource
	case -4:
		src = counterProbeSource
	default:
		f, err := oracle.BuildProgram(seed, 140)
		if err != nil {
			t.Fatalf("build seed %d: %v", seed, err)
		}
		return f, false
	}
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble seed %d: %v", seed, err)
	}
	return f, smc
}

// fuzzInstAddrs collects every decoded instruction boundary — the candidate
// probe points the schedule draws from.
func fuzzInstAddrs(f *elfrv.File) []uint64 {
	bin, err := core.FromFile(f)
	if err != nil {
		return nil
	}
	seen := map[uint64]bool{}
	var out []uint64
	for _, fn := range bin.Functions() {
		for _, b := range fn.Blocks {
			for _, in := range b.Insts {
				if !seen[in.Addr] {
					seen[in.Addr] = true
					out = append(out, in.Addr)
				}
			}
		}
	}
	return out
}

// pressureSeed selects cache pressure: a seed at or below -pressureSeed
// runs its band (seed -pressureSeed-k runs band -1-k) under a
// pressureCache-byte code cache that flushes again and again, live chains,
// parked budget stops, self-modification and re-attaches included.
const pressureSeed = 1 << 32

// FuzzDBILockstep is the headline differential fuzzer for the dynamic
// engine: every input derives a program (oracle-generated, or one of the
// jalr-dense / self-modifying stress sources) plus a randomized schedule of
// probe placements at decoded instruction boundaries, mid-run probe
// additions and removals, budget stops, and detach/re-attach points. The
// instrumented run must match the native run on every observable — exit
// code, stdout, syscall trace, final writable memory — and, because every
// translation carries an exact compensation delta, on the retired
// instruction count itself.
func FuzzDBILockstep(f *testing.F) {
	// The stress bands, each with a few schedule variants.
	for _, seed := range []int64{-1, -2, -3, -4} {
		f.Add(seed, uint64(0))
		f.Add(seed, uint64(0x9e3779b97f4a7c15))
		f.Add(seed, uint64(0x123456789))
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint64(seed)*0x9e3779b97f4a7c15)
	}
	for _, in := range pressureInputs {
		f.Add(in.seed, in.sched)
	}
	f.Fuzz(func(t *testing.T, seed int64, sched uint64) {
		var cacheSize uint64
		if seed <= -pressureSeed {
			cacheSize = pressureCache
		}
		if seed < -4 {
			seed = -1 - (-seed % 4) // fold arbitrary negatives onto the bands
		}
		prog, smc := fuzzProgram(t, seed)
		native := observeNative(t, prog)
		runFuzzSchedule(t, prog, smc, native, seed, sched, cacheSize)
	})
}

// pressureInputs are the FuzzDBILockstep seeds running the stress bands
// under cache pressure, two schedules each, plus two schedules that stack
// probes until one block's translation outgrows the whole cache (the
// engine must split it rather than fail).
var pressureInputs = []struct {
	seed  int64
	sched uint64
}{
	{-pressureSeed, 0}, {-pressureSeed, 0x9e3779b97f4a7c15},
	{-pressureSeed - 1, 0}, {-pressureSeed - 1, 0x9e3779b97f4a7c15},
	{-pressureSeed - 2, 0}, {-pressureSeed - 2, 0x9e3779b97f4a7c15},
	{-pressureSeed - 3, 0}, {-pressureSeed - 3, 0x9e3779b97f4a7c15},
	{-pressureSeed - 1, 0xc17c33675a6bb08e}, {-pressureSeed - 3, 0x1649d8f7165a38ce},
}

// TestDBILockstepCachePressure replays the cache-pressure fuzz seeds and
// requires each to have flushed the cache, so the seeds keep covering the
// flush path (FuzzDBILockstep itself checks native identity).
func TestDBILockstepCachePressure(t *testing.T) {
	for _, in := range pressureInputs {
		band := -1 - (-in.seed % 4)
		prog, smc := fuzzProgram(t, band)
		native := observeNative(t, prog)
		if n := runFuzzSchedule(t, prog, smc, native, band, in.sched, pressureCache); n == 0 {
			t.Errorf("seed %d sched %#x: no cache flush", in.seed, in.sched)
		}
	}
}

// runFuzzSchedule runs one randomized schedule against native and returns
// how many times the engine flushed its cache.
func runFuzzSchedule(t *testing.T, f *elfrv.File, smc bool, native *oracle.Observation, seed int64, sched, cacheSize uint64) uint64 {
	rng := rand.New(rand.NewSource(int64(sched) ^ seed*0x5bf03635))
	addrs := fuzzInstAddrs(f)
	if smc {
		// Keep fuzz probes off the self-modified site: a probe pins the old
		// bytes into its splice description, which is fine, but removal
		// schedules racing the rewrite make the oracle's "what should the
		// count be" ambiguous. Entry probes exercise SMC + probes already.
		site, ok := f.Symbol("smc_site")
		if ok {
			kept := addrs[:0]
			for _, a := range addrs {
				if a < site.Value || a >= site.Value+4 {
					kept = append(kept, a)
				}
			}
			addrs = kept
		}
	}

	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	cpu := p.CPU()
	var out bytes.Buffer
	got := &oracle.Observation{}
	cpu.Stdout = &out
	cpu.TimeFn = func() uint64 { return pinnedClock }
	cpu.CounterFn = func(uint16) uint64 { return pinnedCounter }
	cpu.SyscallTrace = func(num, a0, a1, a2, ret uint64) {
		got.Trace = append(got.Trace, oracle.SyscallRecord{Num: num, A0: a0, A1: a1, A2: a2, Ret: ret})
	}

	reg := obs.NewRegistry()
	opts := func() Options {
		return Options{CacheSize: cacheSize, NoCounterVirt: rng.Intn(4) == 0, Obs: NewMetrics(reg)}
	}
	e, err := Attach(p, f, opts())
	if err != nil {
		t.Fatal(err)
	}
	pick := func() uint64 { return addrs[rng.Intn(len(addrs))] }
	var placed []uint64
	if len(addrs) > 0 {
		for i := rng.Intn(4); i > 0; i-- {
			a := pick()
			if err := e.ProbeAt(a, snippet.Empty()); err != nil {
				t.Fatalf("probe at %#x: %v", a, err)
			}
			placed = append(placed, a)
		}
	}

	ev := proc.Event{Kind: proc.EventBudget}
	for round := 0; round < 40 && ev.Kind == proc.EventBudget; round++ {
		ev, err = e.ContinueBudget(uint64(1 + rng.Intn(400)))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Kind != proc.EventBudget:
			// exit (or an unexpected stop, checked below)

		case rng.Intn(3) == 0 && len(addrs) > 0:
			a := pick()
			if err := e.ProbeAt(a, snippet.Empty()); err != nil {
				t.Fatalf("mid-run probe at %#x: %v", a, err)
			}
			placed = append(placed, a)

		case rng.Intn(3) == 0 && len(placed) > 0:
			i := rng.Intn(len(placed))
			err := e.RemoveProbeAt(placed[i])
			if err != nil && !strings.Contains(err.Error(), "is executing") &&
				!strings.Contains(err.Error(), "no probe at") {
				t.Fatalf("remove at %#x: %v", placed[i], err)
			}
			if err == nil {
				// One removal clears every probe at the address; forget all
				// placements there.
				kept := placed[:0]
				for _, a := range placed {
					if a != placed[i] {
						kept = append(kept, a)
					}
				}
				placed = kept
			}

		case rng.Intn(4) == 0:
			// Detach — including with the PC parked mid-group or inside an
			// inline-lookup stub — run a native slice, and re-attach.
			if err := e.Detach(); err != nil {
				t.Fatalf("detach: %v", err)
			}
			if pc := p.PC(); pc >= e.cacheBase && pc < e.cacheEnd {
				t.Fatalf("detach left pc %#x inside the cache", pc)
			}
			ev, err = p.ContinueBudget(uint64(1 + rng.Intn(300)))
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind != proc.EventBudget {
				break
			}
			if e, err = Attach(p, f, opts()); err != nil {
				t.Fatalf("re-attach: %v", err)
			}
			placed = nil // probes do not survive detach
		}
	}
	if ev.Kind == proc.EventBudget {
		// Schedule exhausted its rounds: detach cleanly and finish native.
		if err := e.Detach(); err != nil {
			t.Fatalf("final detach: %v", err)
		}
		if ev, err = p.ContinueBudget(runBudget); err != nil {
			t.Fatal(err)
		}
	}
	sealObs(t, f, p, ev, got, &out)
	compareObs(t, "fuzz", native, got)

	// The compensation invariant: raw retired minus the accumulated deltas
	// equals the native instruction count, wherever the schedule wandered.
	comp := e.Comp()
	if dI := uint64(int64(cpu.Instret) - comp.ExtraInstret); dI != native.Steps {
		t.Errorf("compensated instret %d != native %d (raw %d, extra %d)",
			dI, native.Steps, cpu.Instret, comp.ExtraInstret)
	}
	return reg.Counter("emu.dbi.flushes").Load()
}
