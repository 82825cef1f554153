package dbi

import (
	"bytes"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/oracle"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// dispatchTier is one host dispatch engine a DBI run can execute under.
type dispatchTier int

const (
	tierSlow  dispatchTier = iota // per-instruction (SlowDispatch)
	tierBlock                     // superblocks, traces off (NoTrace)
	tierTrace                     // the default: superblocks and traces
	numDispatchTiers
)

var dispatchTierNames = [numDispatchTiers]string{"slow", "block", "trace"}

// tierRun is everything a DBI run must reproduce on every dispatch tier:
// the guest observables and the engine's raw and compensation counters.
type tierRun struct {
	obs                       *oracle.Observation
	cycles, instret           uint64
	extraInstret, extraCycles int64
	iblHits                   uint64
	reg                       *obs.Registry
}

// runTier runs f to exit under the DBI engine on one dispatch tier, with
// the identity snippet probed at every address in probes.
func runTier(t *testing.T, f *elfrv.File, probes []uint64, tier dispatchTier) tierRun {
	t.Helper()
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	cpu := p.CPU()
	cpu.SlowDispatch = tier == tierSlow
	cpu.NoTrace = tier == tierBlock
	reg := obs.NewRegistry()
	cpu.Obs = emu.NewMetrics(reg)
	var out bytes.Buffer
	o := &oracle.Observation{}
	cpu.Stdout = &out
	cpu.TimeFn = func() uint64 { return pinnedClock }
	e, err := Attach(p, f, Options{})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	for _, a := range probes {
		if err := e.ProbeAt(a, snippet.Empty()); err != nil {
			t.Fatalf("probe at %#x: %v", a, err)
		}
	}
	ev, err := e.ContinueBudget(runBudget)
	if err != nil {
		t.Fatalf("dbi run: %v", err)
	}
	sealObs(t, f, p, ev, o, &out)
	dc := e.Comp()
	return tierRun{obs: o, cycles: cpu.Cycles, instret: cpu.Instret,
		extraInstret: dc.ExtraInstret, extraCycles: dc.ExtraCycles,
		iblHits: dc.IBLHits, reg: reg}
}

// TestDBIDispatchTierEquivalence runs translated code on every host
// dispatch tier — per-instruction, superblock, and trace (where scratch-CSR
// body ops and guarded dbi.jt trace ops live) — and requires identical
// results: exit code, stdout and memory hash, the raw Cycles and Instret,
// the compensation totals, and the inline-lookup hit count. Host dispatch
// must be invisible to the guest and to the engine. On fib, the traced run
// must also have compiled a trace across a lookup stub whose guarded
// dbi.jt both continued the trace and side-exited.
func TestDBIDispatchTierEquivalence(t *testing.T) {
	type tc struct {
		name, src string
		funcs     []string
	}
	var cases []tc
	for _, prog := range workload.Programs() {
		switch prog.Name {
		case "matmul", "fib", "jumptable":
			cases = append(cases, tc{prog.Name, prog.Source, prog.Funcs})
		}
	}
	cases = append(cases,
		tc{"smc", workload.SMCSource, []string{"smcloop"}},
		tc{"counters", counterProbeSource, []string{"sample"}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := asm.Assemble(c.src, asm.Options{})
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			var probes []uint64
			for _, fn := range c.funcs {
				sym, ok := f.Symbol(fn)
				if !ok {
					t.Fatalf("no symbol %s", fn)
				}
				probes = append(probes, sym.Value)
			}
			var runs [numDispatchTiers]tierRun
			for tier := range runs {
				runs[tier] = runTier(t, f, probes, dispatchTier(tier))
			}
			ref := runs[tierSlow]
			for tier := tierBlock; tier < numDispatchTiers; tier++ {
				got := runs[tier]
				name := dispatchTierNames[tier]
				compareObs(t, name, ref.obs, got.obs)
				if got.cycles != ref.cycles || got.instret != ref.instret {
					t.Errorf("%s: raw cycles/instret %d/%d, slow %d/%d",
						name, got.cycles, got.instret, ref.cycles, ref.instret)
				}
				if got.extraInstret != ref.extraInstret || got.extraCycles != ref.extraCycles {
					t.Errorf("%s: compensation %d/%d, slow %d/%d",
						name, got.extraInstret, got.extraCycles, ref.extraInstret, ref.extraCycles)
				}
				if got.iblHits != ref.iblHits {
					t.Errorf("%s: IBL hits %d, slow %d", name, got.iblHits, ref.iblHits)
				}
			}
			if ref.iblHits == 0 && c.name != "smc" {
				t.Error("no inline-lookup hits: the workload never crossed a lookup stub")
			}
			if c.name == "fib" {
				reg := runs[tierTrace].reg
				hits := reg.Counter("emu.trace.jt.hits").Load()
				exits := reg.Counter("emu.trace.jt.side_exits").Load()
				if hits == 0 || exits == 0 {
					t.Errorf("guarded dbi.jt trace ops: %d continued, %d side exits; want both > 0", hits, exits)
				}
				if b := runs[tierBlock].reg.Counter("emu.trace.builds").Load(); b != 0 {
					t.Errorf("NoTrace run built %d traces", b)
				}
			}
		})
	}
}
