package dbi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/oracle"
	"rvdyn/internal/parse"
	"rvdyn/internal/pipeline"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// watchUnion recomputes the code-write watch the engine should have armed:
// the union of every live translation's source span plus a draining one's.
func watchUnion(e *Engine) (lo, hi uint64) {
	spans := make([]*translation, 0, len(e.trans)+1)
	for _, t := range e.trans {
		spans = append(spans, t)
	}
	if e.drain != nil {
		spans = append(spans, e.drain)
	}
	for _, t := range spans {
		if lo == hi {
			lo, hi = t.orig, t.origEnd
		}
		lo, hi = min(lo, t.orig), max(hi, t.origEnd)
	}
	return lo, hi
}

// TestDBIColdProgram runs cold code the way costbench's coldcode workload
// does: a 200-function generated program, each function run about twice,
// with a counter probe at every basic block. Under the default cache and a
// 16 KiB one that flushes, run continuously and in one-instruction budget
// slices, the run must match native (exit, stdout, syscalls, memory), every
// function's block counters must sum to the static rewrite's counter, the
// armed code-write watch must equal the union recomputed from the live
// translations after every slice (so after every engine event), and the
// block cache may bump its generation — retiring everything — only for a
// cache flush or a self-modifying store, never for chaining patches. The
// sliced run may build no more superblocks than the continuous one.
func TestDBIColdProgram(t *testing.T) {
	f, err := asm.Assemble(workload.RandomProgram(5, 200), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parse.Parse(st, parse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	var blocks [][]uint64
	for i := 0; i < 200; i++ {
		fn, ok := cfg.FuncByName(fmt.Sprintf("fz%d", i))
		if !ok {
			t.Fatalf("no function fz%d", i)
		}
		funcs = append(funcs, fn.Name)
		var starts []uint64
		for _, b := range fn.Blocks {
			starts = append(starts, b.Start)
		}
		blocks = append(blocks, starts)
	}
	static := staticCounts(t, f, funcs)
	native := observeNative(t, f)

	builds := map[uint64]uint64{} // continuous run's block builds, by cache size
	for _, cacheSize := range []uint64{0, 16 << 10} {
		for _, slice := range []uint64{0, 1} {
			t.Run(fmt.Sprintf("cache=%d/slice=%d", cacheSize, slice), func(t *testing.T) {
				p, err := proc.Launch(f, emu.P550())
				if err != nil {
					t.Fatal(err)
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
				reg := obs.NewRegistry()
				cpu.Obs = emu.NewMetrics(reg)
				e, err := Attach(p, f, Options{CacheSize: cacheSize, Obs: NewMetrics(reg)})
				if err != nil {
					t.Fatal(err)
				}
				vars := make([][]*snippet.Var, len(blocks))
				for i, starts := range blocks {
					for _, a := range starts {
						v := e.NewVar("bb", 8)
						vars[i] = append(vars[i], v)
						if err := e.ProbeAt(a, snippet.Increment(v)); err != nil {
							t.Fatal(err)
						}
					}
				}
				var ev proc.Event
				for steps := 0; ; steps++ {
					if ev, err = e.ContinueBudget(slice); err != nil {
						t.Fatal(err)
					}
					lo, hi := cpu.CodeWatch()
					if wlo, whi := watchUnion(e); lo != wlo || hi != whi {
						t.Fatalf("after %d slices: watch [%#x, %#x), live translations span [%#x, %#x)",
							steps, lo, hi, wlo, whi)
					}
					if ev.Kind != proc.EventBudget || steps > runBudget {
						break
					}
				}
				sealObs(t, f, p, ev, o, &out)
				compareObs(t, "cold", native, o)

				for i, vs := range vars {
					var sum uint64
					for _, v := range vs {
						n, err := e.ReadVar(v)
						if err != nil {
							t.Fatal(err)
						}
						sum += n
					}
					if sum != static[i] {
						t.Errorf("%s: DBI counted %d block entries, static rewrite %d", funcs[i], sum, static[i])
					}
				}
				flushes := reg.Counter("emu.dbi.flushes").Load()
				smc := reg.Counter("emu.dbi.invalidations").Load()
				bumps := reg.Counter("emu.block_cache.invalidations").Load()
				kills := reg.Counter("emu.block_cache.kills").Load()
				patches := reg.Counter("emu.dbi.chain.patches").Load()
				t.Logf("translations=%d patches=%d flushes=%d bumps=%d kills=%d block builds=%d",
					reg.Counter("emu.dbi.translations").Load(), patches, flushes, bumps, kills,
					reg.Counter("emu.block_cache.builds").Load())
				// A budget slice too small for the block at the PC steps it
				// without building a block mid-way through it.
				if n := reg.Counter("emu.block_cache.builds").Load(); slice == 0 {
					builds[cacheSize] = n
				} else if n > builds[cacheSize] {
					t.Errorf("%d block builds in 1-instruction slices, %d in one continuous run", n, builds[cacheSize])
				}
				if bumps > flushes+smc {
					t.Errorf("%d whole-cache generation bumps for %d flushes and %d SMC invalidations",
						bumps, flushes, smc)
				}
				if cacheSize != 0 && flushes == 0 {
					t.Error("the small cache never flushed")
				}
				if patches == 0 || kills == 0 {
					t.Errorf("chain patches %d, block kills %d: the patching path did not run", patches, kills)
				}
			})
		}
	}
}

// staticCounts rewrites f with a counter at every block of each function
// and returns each function's counter after a native run of the rewrite.
func staticCounts(t *testing.T, f *elfrv.File, funcs []string) []uint64 {
	t.Helper()
	res, err := pipeline.Instrument(pipeline.Job{Name: "cold", File: f, Funcs: funcs},
		pipeline.Options{Jobs: 1, Points: "blocks"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(res.File, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := cpu.Run(runBudget); r != emu.StopExit {
		t.Fatalf("rewritten binary stopped with %v (%v)", r, cpu.LastTrap())
	}
	counts := make([]uint64, len(funcs))
	for i, fn := range funcs {
		b, err := cpu.ReadMem(res.Counters[fn], 8)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = binary.LittleEndian.Uint64(b)
	}
	return counts
}
